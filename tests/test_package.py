"""The installed package holds the runtime alone.

The brute-force oracles that certify the solver, and the Monte Carlo link
constant that cross-checks compute_lambda, are test code: they live in
tests/oracles.py, and neither the package nor its public names carry them.
Nor does it keep the signal modes or the per-rep signal, which no sweep uses,
or a wrapper around a link's name or a signal's vector.
"""

import importlib.util

import pytest

import sixlasso
import sixlasso.cli
import sixlasso.errors
import sixlasso.experiments
import sixlasso.model

ORACLE_NAMES = ("oracle_lasso_small", "oracle_project_l1", "oracle_pv_linear",
                "oracle_sphere_lasso", "GridSpec")
ORACLE_ERRORS = ("DimensionTooLarge", "EmptyFeasibleSet")
REMOVED_NAMES = ("compute_lambda_mc", "rep_signal", "EQUAL_MAGNITUDE", "RANDOM_MAGNITUDE",
                 "LinkFunction", "LINEAR", "LOGISTIC", "PROBIT", "SIGN", "BUILTIN_LINKS",
                 "get_link", "TrueSignal")


def test_oracle_module_is_not_shipped():
    assert importlib.util.find_spec("sixlasso.oracle") is None


def test_public_names_hold_no_oracle():
    public = set(sixlasso.__all__)
    assert public.isdisjoint(("oracle", *ORACLE_NAMES, *ORACLE_ERRORS))


def test_errors_define_no_oracle_error():
    for name in ORACLE_ERRORS:
        assert not hasattr(sixlasso.errors, name)


@pytest.mark.parametrize("module", [sixlasso, sixlasso.model, sixlasso.experiments, sixlasso.cli],
                         ids=lambda m: m.__name__)
def test_removed_names_are_gone(module):
    assert [name for name in REMOVED_NAMES if hasattr(module, name)] == []
