"""Tests for the one-BLAS-thread setting that `import sixlasso` makes, for
records that do not depend on the BLAS thread count, for the pool's
modules staying unloaded until a pool runs, and for a pooled sweep called
from a plain script.

Each case runs in a fresh interpreter: the pytest process may have imported
numpy before sixlasso, and then its BLAS keeps whatever threads it started.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import sixlasso

BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SRC = str(Path(sixlasso.__file__).resolve().parents[1])

# a reduced figure-1 sweep whose lasso records differed in the last digit
# between an unset OPENBLAS_NUM_THREADS and 1 while BLAS could start threads
SWEEP = ["sweep", "--p", "1200", "--s", "10", "--n-grid", "600,1400", "--reps", "1",
         "--link", "logistic", "--estimators", "lasso,pv", "--seed", "9"]


def fresh_env(**overrides):
    env = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    env.pop("SIXLASSO_THREADS", None)
    env.update(overrides)
    return env


def run_python(args, env):
    done = subprocess.run([sys.executable, *args], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


PROBE = """
import json, os, sys
import sixlasso
tasks = len(os.listdir("/proc/self/task")) if sys.platform.startswith("linux") else None
print(json.dumps({"env": {v: os.environ.get(v) for v in %r}, "tasks": tasks}))
""" % (BLAS_VARS,)


class TestBlasPin:
    def test_import_pins_blas_to_one_thread(self):
        probe = json.loads(run_python(["-c", PROBE], fresh_env()))
        assert probe["env"] == {v: "1" for v in BLAS_VARS}
        if probe["tasks"] is None:
            pytest.skip("thread count is read from /proc/self/task, Linux only")
        assert probe["tasks"] == 1

    def test_exported_value_is_kept(self):
        probe = json.loads(run_python(["-c", PROBE], fresh_env(OPENBLAS_NUM_THREADS="2")))
        assert probe["env"]["OPENBLAS_NUM_THREADS"] == "2"
        assert probe["env"]["OMP_NUM_THREADS"] == "1"


def test_cli_import_leaves_the_pool_modules_unloaded():
    # a serial sweep, fit, lambda and simulate never start a pool
    pool_modules = ("concurrent.futures", "multiprocessing")
    probe = ("import sys, sixlasso, sixlasso.cli\n"
             "sixlasso.run_sweep(sixlasso.SweepSpec(p=20, s=3, n_grid=(30, 60), reps=2,\n"
             "                                      test_n=200))\n"
             "print(sorted(set(%r) & set(sys.modules)))")
    assert run_python(["-c", probe % (pool_modules,)], fresh_env()).strip() == "[]"


# a script with no `if __name__ == "__main__":` guard: a pool that started
# fresh interpreters would rerun it in each of them
UNGUARDED = """
import sys
import sixlasso
from sixlasso.cli import records_csv_text

spec = sixlasso.SweepSpec(p=30, s=3, n_grid=(40, 80), reps=3, estimators=("lasso", "pv"),
                          test_n=200, base_seed=5)
sys.stdout.write(records_csv_text(sixlasso.run_sweep(spec)))
"""


def test_unguarded_script_runs_a_pooled_sweep(tmp_path):
    script = tmp_path / "unguarded.py"
    script.write_text(UNGUARDED, encoding="utf-8")

    def records(**overrides):
        out = run_python([str(script)], fresh_env(**overrides))
        # runtime_ms is last
        return [line.rsplit(",", 1)[0] for line in out.splitlines()]

    serial = records()
    assert len(serial) == 1 + 2 * 3 * 2
    assert records(SIXLASSO_THREADS="2") == serial


def test_records_do_not_depend_on_blas_threads(tmp_path):
    def records(name, **overrides):
        out = tmp_path / f"{name}.csv"
        run_python(["-m", "sixlasso.cli", *SWEEP, "--out", str(out)], fresh_env(**overrides))
        # runtime_ms is last
        return [line.rsplit(",", 1)[0] for line in out.read_text().splitlines()]

    unset = records("unset")
    assert len(unset) == 1 + 2 * 2
    assert records("one", OPENBLAS_NUM_THREADS="1") == unset
    assert records("pooled", SIXLASSO_THREADS="2") == unset
