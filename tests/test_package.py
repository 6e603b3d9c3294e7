"""The installed package holds the runtime alone.

The brute-force oracles that certify the solver are test code: they live in
tests/oracles.py, and neither the package nor its public names carry them.
"""

import importlib.util

import sixlasso
import sixlasso.errors

ORACLE_NAMES = ("oracle_lasso_small", "oracle_project_l1", "oracle_pv_linear",
                "oracle_sphere_lasso", "GridSpec")
ORACLE_ERRORS = ("DimensionTooLarge", "EmptyFeasibleSet")


def test_oracle_module_is_not_shipped():
    assert importlib.util.find_spec("sixlasso.oracle") is None


def test_public_names_hold_no_oracle():
    public = set(sixlasso.__all__)
    assert public.isdisjoint(("oracle", *ORACLE_NAMES, *ORACLE_ERRORS))


def test_errors_define_no_oracle_error():
    for name in ORACLE_ERRORS:
        assert not hasattr(sixlasso.errors, name)
