"""Command-line entry point: lambda, fit, simulate, sweep.

`lambda --link L` prints the link constant E[F(Z)Z] and takes no other
flag.  A `sweep --config` file takes the keys of the sweep's flags plus
test_n, which has no flag.  An unknown flag, or an unknown config key, is
an input error (exit 2).

Owns the on-disk formats: the records/summary CSV schemas, the plain-text
fit document, and the static SVG error chart.  Real numbers are serialized
with 17 significant digits so that write -> parse -> write is the identity
on doubles.  `simulate` writes its design's float32 entries the same way:
each is a double exactly, so the file reads back to the same values, which
`fit` then fits in float64.  All files are written atomically (temp file +
rename), with the mode a plain open() would give a new file (0o666 less the
umask).

`sweep --out PATH` writes three files, named from PATH alone: the records
PATH, the summary <stem>_summary.csv and the SVG chart <stem>.svg, where
<stem> is PATH less a trailing `.csv`.  No flag or config key renames them.

The records CSV (`sweep --out`) has a header line and one row per trial,
sorted by trial_id, with the columns, in order:

    trial_id, seed, estimator, n, p, s, link, radius,
    direction_error, raw_l2_error, norm_beta_hat, norm_gap,
    support_precision, support_recall, test_accuracy,
    iterations, converged, runtime_ms

Reals (radius, the seven metrics, runtime_ms) are written to 17 significant
digits, and converged is `true` or `false`; parse_records_csv accepts
nothing else there.  A failed trial (a degenerate fit) has direction_error
2, raw_l2_error and test_accuracy nan, norm_beta_hat 0, norm_gap -lambda,
support_precision 1, support_recall 0, iterations 0 and converged false.
runtime_ms is last because it is the only column that differs between
reruns of the same sweep, serial or pooled: compare records with the last
field of each line cut (`sed 's/,[^,]*$//'`), as the determinism tests and
the benchmark's gate do.

Environment: SIXLASSO_THREADS sizes the sweep's thread pool.  k >= 2 runs
the reps on min(k, reps) threads of this process; unset, an integer below 2
or a one-rep sweep runs serially; a value that is not an integer is an input
error.  Importing sixlasso sets
OPENBLAS_NUM_THREADS, OMP_NUM_THREADS and MKL_NUM_THREADS to 1 where they
are unset.

Exit codes: 0 success, 1 degenerate data (SixLassoError: an all-zero or
underflowing design, X'y = 0, a zero fitted vector), 2 input error (a
ValueError: a bad argument, file or flag, InputError included), 3 output
error (OutputError).  The commands check what only the CLI sees (files,
flags, the labels' layout, --seed's 64-bit range) and leave every other
argument to the library function that takes it.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import os
import sys
import tempfile

import numpy as np

from .errors import SixLassoError
from .experiments import (
    ESTIMATORS,
    METRIC_FIELDS,
    RADIUS_RULES,
    SweepSpec,
    SummaryRow,
    TrialRecord,
    run_sweep,
    signal_seed,
    summarize,
)
from .metrics import TrialMetrics
from .model import (
    LINK_KINDS,
    Dataset,
    compute_lambda,
    generate_dataset,
    make_signal,
)
from .solver import fit_lasso


def fmt_real(x: float) -> str:
    """17-significant-digit decimal: round-trip exact for float64."""
    return format(float(x), ".17g")


def _cell(value) -> str:
    """The text of an output value: `true` or `false` for a bool, fmt_real
    for a real, str for anything else."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return fmt_real(value)
    return str(value)


def _one_of(values: dict) -> tuple:
    """Parser of a column whose cells are the keys of `values`, and its wording."""
    *rest, last = values
    return values.__getitem__, f"{', '.join(rest)} or {last}"


_INT = (int, "an integer")
_REAL = (float, "a real number")
# records column -> (parser, what its cells must be), in column order; a
# parser raises ValueError or KeyError on a malformed cell
_RECORD_CELLS = {
    "trial_id": _INT, "seed": _INT, "estimator": _one_of({e: e for e in ESTIMATORS}),
    "n": _INT, "p": _INT, "s": _INT, "link": _one_of({k: k for k in LINK_KINDS}),
    "radius": _REAL, **dict.fromkeys(METRIC_FIELDS, _REAL), "iterations": _INT,
    "converged": _one_of({_cell(b): b for b in (True, False)}), "runtime_ms": _REAL,
}
RECORD_COLUMNS = tuple(_RECORD_CELLS)

SUMMARY_COLUMNS = ("estimator", "n", "metric", "q25", "median", "q75")

_COLORS = {"lasso": "#1f77b4", "pv": "#d62728"}


class InputError(ValueError):
    """Malformed user input (exit 2): a ValueError raised by the CLI itself.

    Kept as a name of its own because the benchmark's gate imports it.
    """


class OutputError(Exception):
    """Unwritable output destination (exit 3)."""


def write_text_atomic(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp_", text=True)
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
        # mkstemp creates the file 0600; give it the mode open() would
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except OSError as exc:
        if tmp is not None:
            with contextlib.suppress(OSError):
                os.unlink(tmp)
        raise OutputError(f"cannot write {path}: {exc}") from exc


# ---------------------------------------------------------------------------
# records / summary CSV
# ---------------------------------------------------------------------------

def _csv_text(columns: tuple[str, ...], rows) -> str:
    """A header line of `columns`, then one line per row of cells."""
    return "\n".join([",".join(columns), *(",".join(row) for row in rows)]) + "\n"


def record_row(rec: TrialRecord) -> list[str]:
    fields = vars(rec) | vars(rec.metrics)
    return [_cell(fields[name]) for name in RECORD_COLUMNS]


def records_csv_text(records: list[TrialRecord]) -> str:
    return _csv_text(RECORD_COLUMNS, map(record_row, records))


def parse_records_csv(text: str) -> list[TrialRecord]:
    """Inverse of records_csv_text (exact for every written file).

    A row of the wrong width, or a cell its column's parser rejects, is an
    InputError naming the line (and the column).
    """
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or tuple(rows[0]) != RECORD_COLUMNS:
        raise InputError("records CSV header does not match the schema")
    out = []
    for line, row in enumerate(rows[1:], start=2):
        if len(row) != len(RECORD_COLUMNS):
            raise InputError(f"records line {line} has {len(row)} fields, "
                             f"expected {len(RECORD_COLUMNS)}")
        cells = {}
        for (name, (parse, expected)), cell in zip(_RECORD_CELLS.items(), row):
            try:
                cells[name] = parse(cell)
            except (ValueError, KeyError):
                raise InputError(f"records line {line}, column {name}: expected "
                                 f"{expected}, got {cell!r}") from None
        metrics = TrialMetrics(*(cells.pop(name) for name in METRIC_FIELDS))
        out.append(TrialRecord(metrics=metrics, **cells))
    return out


def summary_csv_text(rows: list[SummaryRow]) -> str:
    return _csv_text(SUMMARY_COLUMNS,
                     ([_cell(getattr(r, name)) for name in SUMMARY_COLUMNS] for r in rows))


# ---------------------------------------------------------------------------
# SVG chart
# ---------------------------------------------------------------------------

def sweep_svg_text(summary_rows: list[SummaryRow]) -> str:
    """Static line chart of median direction error against n.

    One polyline per estimator on linear axes inside an 800x500 viewBox;
    geometry depends only on the summary rows, so identical input renders
    identical bytes.
    """
    series: dict[str, list[tuple[int, float]]] = {}
    for row in summary_rows:
        if row.metric == "direction_error":
            series.setdefault(row.estimator, []).append((row.n, row.median))
    if not series:
        raise InputError("summary contains no direction_error rows")
    for pts in series.values():
        pts.sort()

    width, height = 800.0, 500.0
    left, right, top, bottom = 70.0, 30.0, 30.0, 60.0
    ns = sorted({n for pts in series.values() for n, _ in pts})
    n_lo, n_hi = float(ns[0]), float(ns[-1])
    span_n = n_hi - n_lo if n_hi > n_lo else 1.0
    y_hi = max(v for pts in series.values() for _, v in pts)
    y_hi = y_hi * 1.1 if y_hi > 0 else 1.0

    def px(n):
        return left + (float(n) - n_lo) / span_n * (width - left - right)

    def py(v):
        return (height - bottom) - (float(v) / y_hi) * (height - top - bottom)

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {width:g} {height:g}">',
        f'<rect x="0" y="0" width="{width:g}" height="{height:g}" fill="white"/>',
        f'<line x1="{left:.2f}" y1="{height - bottom:.2f}" x2="{width - right:.2f}" '
        f'y2="{height - bottom:.2f}" stroke="black" stroke-width="1"/>',
        f'<line x1="{left:.2f}" y1="{top:.2f}" x2="{left:.2f}" '
        f'y2="{height - bottom:.2f}" stroke="black" stroke-width="1"/>',
    ]
    for n in ns:
        x = px(n)
        parts.append(f'<line x1="{x:.2f}" y1="{height - bottom:.2f}" x2="{x:.2f}" '
                     f'y2="{height - bottom + 5:.2f}" stroke="black" stroke-width="1"/>')
        parts.append(f'<text x="{x:.2f}" y="{height - bottom + 20:.2f}" font-size="12" '
                     f'text-anchor="middle">{n}</text>')
    for i in range(6):
        v = y_hi * i / 5.0
        y = py(v)
        parts.append(f'<line x1="{left - 5:.2f}" y1="{y:.2f}" x2="{left:.2f}" '
                     f'y2="{y:.2f}" stroke="black" stroke-width="1"/>')
        parts.append(f'<text x="{left - 8:.2f}" y="{y + 4:.2f}" font-size="12" '
                     f'text-anchor="end">{v:.3g}</text>')
    parts.append(f'<text x="{(left + width - right) / 2:.2f}" y="{height - 15:.2f}" '
                 f'font-size="14" text-anchor="middle">n</text>')
    parts.append(f'<text x="18" y="{(top + height - bottom) / 2:.2f}" font-size="14" '
                 f'text-anchor="middle" transform="rotate(-90 18 '
                 f'{(top + height - bottom) / 2:.2f})">direction error</text>')

    for est in sorted(series):
        color = _COLORS[est]
        pts = " ".join(f"{px(n):.2f},{py(v):.2f}" for n, v in series[est])
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="2"/>')

    ly = top + 10
    for est in sorted(series):
        color = _COLORS[est]
        lx = width - right - 130
        parts.append(f'<line x1="{lx:.2f}" y1="{ly:.2f}" x2="{lx + 25:.2f}" y2="{ly:.2f}" '
                     f'stroke="{color}" stroke-width="2"/>')
        parts.append(f'<text x="{lx + 32:.2f}" y="{ly + 4:.2f}" font-size="13">{est}</text>')
        ly += 18

    parts.append("</svg>")
    return "\n".join(parts) + "\n"


# ---------------------------------------------------------------------------
# input parsing
# ---------------------------------------------------------------------------

def read_numeric_csv(path: str, what: str) -> np.ndarray:
    """Parse a headerless numeric CSV with line/column diagnostics; a
    leading UTF-8 byte order mark, which spreadsheets write, is skipped.
    Blank lines are skipped too, and a diagnostic names the file's own line,
    blank lines counted."""
    try:
        with open(path, encoding="utf-8-sig", newline="") as handle:
            reader = csv.reader(handle)
            rows = [(reader.line_num, row) for row in reader if row]
    except OSError as exc:
        raise InputError(f"cannot read {what} file {path}: {exc}") from exc
    if not rows:
        raise InputError(f"{what} file {path} is empty")
    width = len(rows[0][1])
    data = np.empty((len(rows), width))
    for i, (line, row) in enumerate(rows):
        if len(row) != width:
            raise InputError(f"{what} file {path}: line {line} has {len(row)} "
                             f"fields, expected {width}")
        for j, cell in enumerate(row):
            try:
                data[i, j] = float(cell)
            except ValueError:
                raise InputError(f"{what} file {path}: line {line}, column {j + 1}: "
                                 f"non-numeric value {cell!r}") from None
            if not np.isfinite(data[i, j]):
                raise InputError(f"{what} file {path}: line {line}, column {j + 1}: "
                                 f"non-finite value {cell!r}")
    return data


def load_config(path: str) -> dict[str, str]:
    """Flat key=value sweep config; blank lines and #-comments are ignored.

    The file is read as UTF-8; a leading byte order mark is dropped.

    A key outside SWEEP_CONFIG_KEYS, or a key given twice, is an input error
    naming its line (both lines for a repeated key).
    """
    try:
        with open(path, encoding="utf-8-sig") as handle:
            lines = handle.readlines()
    except OSError as exc:
        raise InputError(f"cannot read config {path}: {exc}") from exc
    out: dict[str, str] = {}
    line_of: dict[str, int] = {}
    for i, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise InputError(f"config {path}: line {i}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in SWEEP_CONFIG_KEYS:
            raise InputError(f"config {path}: line {i}: unknown key {key!r}; "
                             f"expected one of {', '.join(SWEEP_CONFIG_KEYS)}")
        if key in line_of:
            raise InputError(f"config {path}: line {i}: key {key!r} already given "
                             f"on line {line_of[key]}")
        line_of[key] = i
        out[key] = value.strip()
    return out


def _pick(flags: argparse.Namespace, cfg: dict[str, str], key: str, required=False):
    val = getattr(flags, key, None)  # None too for a config-only key: it has no flag
    if val is not None:
        return val
    if key in cfg:
        convert, _ = _SWEEP_SETTINGS[key]
        try:
            return convert(cfg[key])
        except (ValueError, TypeError, argparse.ArgumentTypeError) as exc:
            raise InputError(f"config key {key}: {exc}") from exc
    if required:
        raise InputError(f"missing required setting {key!r} (flag or config)")
    return None


def _parse_int_list(text: str) -> tuple[int, ...]:
    # an argparse type: argparse turns ArgumentTypeError into a usage error
    try:
        return tuple(int(tok) for tok in text.split(",") if tok.strip())
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}") from exc


def _parse_names(text: str) -> tuple[str, ...]:
    return tuple(tok.strip() for tok in text.split(",") if tok.strip())


# The sweep settings that make up its SweepSpec: config key -> (conversion,
# the choices its flag offers).  Every key but the config-only ones has a
# `sweep` flag, --key with _ as -, which stores under the key's name.
_SPEC_SETTINGS = {
    "p": (int, None), "s": (int, None), "n_grid": (_parse_int_list, None),
    "link": (str, LINK_KINDS), "radius_rule": (str, RADIUS_RULES),
    "radius": (float, None), "reps": (int, None), "seed": (int, None),
    "estimators": (_parse_names, None), "test_n": (int, None),
}
_CONFIG_ONLY = ("test_n",)
# the SweepSpec fields named otherwise than their config keys
_SPEC_FIELDS = {"radius": "radius_value", "seed": "base_seed"}
_SWEEP_SETTINGS = {**_SPEC_SETTINGS, "out": (str, None)}
SWEEP_CONFIG_KEYS = tuple(_SWEEP_SETTINGS)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_lambda(args) -> int:
    print(fmt_real(compute_lambda(args.link)))
    return 0


def fit_document_text(result, radius: float) -> str:
    """The fit document of a fit_lasso result at l1 radius `radius`."""
    values = {
        "objective": result.objective, "iterations": result.iterations,
        "converged": result.converged, "radius": radius,
        "l1_norm": float(np.abs(result.beta_hat).sum()),
        "l2_norm": float(np.linalg.norm(result.beta_hat)),
        "fp_residual": result.fp_residual, "lipschitz": result.lipschitz,
        "backtracks": result.backtracks,
    }
    lines = [f"{key} = {_cell(value)}" for key, value in values.items()]
    lines.append("coefficients:")
    lines.extend(fmt_real(c) for c in result.beta_hat)
    return "\n".join(lines) + "\n"


def cmd_fit(args) -> int:
    X = read_numeric_csv(args.design, "design")
    y = read_numeric_csv(args.labels, "labels")
    if y.shape[1] != 1:
        raise InputError(f"labels file {args.labels} must hold one value per line, "
                         f"not {y.shape[1]}")
    # fit_lasso checks the radius and that y has one value per row of X
    result = fit_lasso(Dataset(X=X, y=y[:, 0]), args.radius)
    text = fit_document_text(result, args.radius)
    if args.out:
        write_text_atomic(args.out, text)
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(text)
    return 0


def cmd_simulate(args) -> int:
    # the data seed goes to numpy as it is (a sweep's seeds are mixed first),
    # and signal_seed masks it to 64 bits: a wider seed would reuse the
    # signal of another
    if not 0 <= args.seed < 2**64:
        raise InputError(f"--seed must lie in [0, 2**64), got {args.seed}")
    # the signal has its own stream, as in a sweep: seeding it with the data
    # seed would repeat its raw normals in the design
    signal = make_signal(args.p, args.s, seed=signal_seed(args.seed))
    data = generate_dataset(signal, args.n, args.link, args.seed)
    x_path = f"{args.out}_X.csv"
    y_path = f"{args.out}_y.csv"
    b_path = f"{args.out}_beta.csv"
    x_text = "\n".join(",".join(fmt_real(v) for v in row) for row in data.X) + "\n"
    y_text = "\n".join(fmt_real(v) for v in data.y) + "\n"
    b_text = "\n".join(f"{j},{fmt_real(signal[j])}" for j in np.flatnonzero(signal)) + "\n"
    write_text_atomic(x_path, x_text)
    write_text_atomic(y_path, y_text)
    write_text_atomic(b_path, b_text)
    print(f"wrote {x_path} {y_path} {b_path}")
    return 0


def _sweep_spec_from(args) -> tuple[SweepSpec, str]:
    cfg = load_config(args.config) if args.config else {}
    given = {}
    for key in _SPEC_SETTINGS:
        value = _pick(args, cfg, key, required=key in ("p", "s", "n_grid"))
        if value is not None:
            given[_SPEC_FIELDS.get(key, key)] = value
    spec = SweepSpec(**given)  # SweepSpec's defaults fill in the rest
    return spec, _pick(args, cfg, "out", required=True)


def cmd_sweep(args) -> int:
    spec, out = _sweep_spec_from(args)
    stem = out.removesuffix(".csv")
    summary_path, svg_path = stem + "_summary.csv", stem + ".svg"
    named = (("records", out), ("summary", summary_path), ("SVG", svg_path))
    # a path that cannot be written would otherwise show only after every trial
    for what, path in named:
        if os.path.isdir(path):
            raise OutputError(f"the {what} output {path} is a directory")
        if not os.path.isdir(os.path.dirname(os.path.abspath(path))):
            raise OutputError(f"the {what} output {path} is in a directory that does not exist")
    records = run_sweep(spec)
    rows = summarize(records)
    write_text_atomic(out, records_csv_text(records))
    write_text_atomic(summary_path, summary_csv_text(rows))
    write_text_atomic(svg_path, sweep_svg_text(rows))
    print(f"wrote {out}")
    print(f"wrote {summary_path}")
    print(f"wrote {svg_path}")
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sixlasso",
        description="l1-constrained least squares as a direction estimator "
                    "for binary single-index data",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_lambda = sub.add_parser("lambda", help="print the link constant E[F(Z)Z]")
    p_lambda.add_argument("--link", required=True, choices=LINK_KINDS)
    p_lambda.set_defaults(func=cmd_lambda)

    p_fit = sub.add_parser("fit", help="fit the l1-ball least-squares estimator to CSV data")
    p_fit.add_argument("design", help="CSV with n rows of p numeric features")
    p_fit.add_argument("labels", help="CSV with n response values, one value per line")
    p_fit.add_argument("--radius", type=float, required=True)
    p_fit.add_argument("--out", default=None)
    p_fit.set_defaults(func=cmd_fit)

    p_sim = sub.add_parser("simulate", help="generate synthetic design/label CSVs")
    p_sim.add_argument("--p", type=int, required=True)
    p_sim.add_argument("--s", type=int, required=True)
    p_sim.add_argument("--n", type=int, required=True)
    p_sim.add_argument("--link", required=True, choices=LINK_KINDS)
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--out", required=True,
                       help="path prefix; writes <out>_X.csv, <out>_y.csv, <out>_beta.csv")
    p_sim.set_defaults(func=cmd_simulate)

    p_sweep = sub.add_parser("sweep", help="run a Monte Carlo sweep and write CSV + SVG")
    p_sweep.add_argument("--config", default=None, help="flat key=value config file")
    for key, (convert, choices) in _SWEEP_SETTINGS.items():
        if key not in _CONFIG_ONLY:
            p_sweep.add_argument("--" + key.replace("_", "-"), dest=key, type=convert,
                                 choices=choices, default=None)
    p_sweep.set_defaults(func=cmd_sweep)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        return args.func(args)
    except OutputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except SixLassoError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
