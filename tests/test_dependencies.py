"""The runtime needs numpy alone: scipy serves only as the tests' oracle.

The check runs in a fresh interpreter in which any import of scipy fails, so
a stray scipy import anywhere on the paths below shows up as an error.
"""

import subprocess
import sys
from pathlib import Path

import sixlasso

SRC = str(Path(sixlasso.__file__).resolve().parents[1])

WITHOUT_SCIPY = """
import importlib.abc
import sys


class BlockScipy(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"{name} is blocked")
        return None


sys.meta_path.insert(0, BlockScipy())
sys.path.insert(0, sys.argv[1])

import sixlasso.cli
from sixlasso import compute_lambda, link_mean

assert link_mean("probit", [-1.0, 0.0, 2.0])[1] == 0.0
assert 0.56 < compute_lambda("probit") < 0.57
code = sixlasso.cli.main(["sweep", "--p", "20", "--s", "2", "--n-grid", "30,60",
                          "--reps", "2", "--link", "probit", "--estimators", "lasso,pv",
                          "--seed", "5", "--out", sys.argv[2]])
assert code == 0, code
assert "scipy" not in sys.modules
print("ok")
"""


def test_runtime_imports_no_scipy(tmp_path):
    done = subprocess.run([sys.executable, "-c", WITHOUT_SCIPY, SRC, str(tmp_path / "r.csv")],
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "ok"
    assert (tmp_path / "r.csv").read_text().count("\n") == 1 + 2 * 2 * 2


LOGISTIC_LAMBDA = """
import sys

sys.path.insert(0, sys.argv[1])

from sixlasso.model import compute_lambda

assert 0.41 < compute_lambda("logistic") < 0.42
print("numpy.polynomial" in sys.modules)
"""


def test_logistic_lambda_loads_no_numpy_polynomial():
    # the logistic link constant is a fixed trapezoid sum, not a
    # Gauss-Hermite rule built by numpy.polynomial
    done = subprocess.run([sys.executable, "-c", LOGISTIC_LAMBDA, SRC],
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "False"
