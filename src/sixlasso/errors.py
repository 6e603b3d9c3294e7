"""The library's one exception type.

SixLassoError means degenerate data: inputs that are well formed but carry
nothing to fit or measure, such as an all-zero design, X'y = 0 or a zero
coefficient vector.  run_trial records such a trial as failed, and
`sixlasso fit` exits 1 on it.  A bad argument (a negative radius, s outside
[1, p], an empty record list, a NaN or infinite entry) raises ValueError
instead, with a message that names the argument.
"""


class SixLassoError(Exception):
    """Degenerate data: nothing to fit or measure."""
