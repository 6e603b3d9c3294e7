"""Tests for the command-line interface and on-disk formats."""

import os
import re
import stat
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

import sixlasso
from sixlasso import compute_lambda, make_signal
from sixlasso.cli import (
    RECORD_COLUMNS,
    InputError,
    OutputError,
    fit_document_text,
    fmt_real,
    main,
    parse_records_csv,
    records_csv_text,
    summary_csv_text,
    write_text_atomic,
)
from sixlasso.experiments import SummaryRow, TrialRecord, _failed_metrics, signal_seed
from sixlasso.metrics import TrialMetrics
from sixlasso.solver import FitResult

SQRT_2_OVER_PI = 0.79788456080286536
INV_SQRT_PI = 0.56418958354775628


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


FITTED = TrialMetrics(0.1, 0.6, 0.5, 0.0, 0.5, 1.0, 0.75)


def _record(trial_id, metrics, converged):
    return TrialRecord(trial_id=trial_id, seed=12345, n=50, p=10, s=2, link="logistic",
                       estimator="lasso", radius=2 ** 0.5, metrics=metrics, iterations=0,
                       converged=converged, runtime_ms=1.25)


def strip_runtime(csv_text: str) -> str:
    lines = csv_text.strip().split("\n")
    return "\n".join(",".join(line.split(",")[:-1]) for line in lines)


class TestFmtReal:
    def test_round_trip_exact(self):
        rng = np.random.default_rng(0)
        for x in rng.standard_normal(200) * 10.0 ** rng.integers(-12, 12, 200):
            assert float(fmt_real(x)) == x

    def test_nan(self):
        assert fmt_real(float("nan")) == "nan"


class TestLambdaCommand:
    def test_linear_prints_one(self, capsys):
        code, out, _ = run_cli(capsys, "lambda", "--link", "linear")
        assert code == 0
        assert float(out.strip()) == pytest.approx(1.0, abs=1e-12)

    def test_sign_quadrature(self, capsys):
        code, out, _ = run_cli(capsys, "lambda", "--link", "sign")
        assert code == 0
        assert float(out.strip()) == pytest.approx(SQRT_2_OVER_PI, abs=1e-7)

    def test_probit(self, capsys):
        code, out, _ = run_cli(capsys, "lambda", "--link", "probit")
        assert code == 0
        assert float(out.strip()) == pytest.approx(INV_SQRT_PI, abs=1e-7)

    @pytest.mark.parametrize("link, line", [("linear", "1"), ("probit", fmt_real(INV_SQRT_PI))])
    def test_closed_forms_print_exactly(self, capsys, link, line):
        assert run_cli(capsys, "lambda", "--link", link) == (0, line + "\n", "")

    # the link constant takes no budget: the logistic rule is a 97-node
    # trapezoid rule, and argparse refuses --budget like any flag it does not know
    def test_bad_budget_is_input_error(self, capsys):
        code, _, err = run_cli(capsys, "lambda", "--link", "sign", "--budget", "2")
        assert code == 2
        assert "unrecognized arguments: --budget 2" in err

    @pytest.mark.parametrize("budget", ["257", "500"])
    def test_budget_above_256_is_input_error(self, capsys, budget):
        code, out, err = run_cli(capsys, "lambda", "--link", "logistic", "--budget", budget)
        assert (code, out) == (2, "")
        assert "unrecognized arguments: --budget" in err

    def test_unknown_flag_exits_2(self, tmp_path, capsys):
        assert main(["lambda", "--link", "sign", "--frobnicate"]) == 2
        # the Monte Carlo cross-check lives with the tests, not behind a flag
        assert main(["lambda", "--link", "sign", "--method", "mc"]) == 2
        assert main(["lambda", "--link", "sign", "--seed", "4"]) == 2
        # the solver has one stop rule and no tolerance to set
        assert main(["fit", "X.csv", "y.csv", "--radius", "1", "--tol", "1e-9"]) == 2
        assert main(["sweep", "--p", "10", "--s", "2", "--tol", "1e-9"]) == 2
        # every fit runs to the solver's fixed iteration cap, which no command sets
        (tmp_path / "X.csv").write_text("1,0\n0,1\n")
        (tmp_path / "y.csv").write_text("1\n0\n")
        assert main(["sweep", "--p", "10", "--s", "2", "--n-grid", "50", "--reps", "1",
                     "--out", str(tmp_path / "r.csv"), "--max-iter", "10"]) == 2
        assert main(["fit", str(tmp_path / "X.csv"), str(tmp_path / "y.csv"),
                     "--radius", "1", "--out", str(tmp_path / "fit.txt"),
                     "--max-iter", "5"]) == 2
        # a sweep's summary and SVG are named from --out, which no flag overrides
        assert main(["sweep", "--p", "10", "--s", "2", "--n-grid", "50", "--reps", "1",
                     "--out", str(tmp_path / "r.csv"),
                     "--out-svg", str(tmp_path / "x.svg")]) == 2
        assert sorted(os.listdir(tmp_path)) == ["X.csv", "y.csv"]


def test_input_error_is_a_value_error():
    # main turns every ValueError into exit 2: the CLI's own input errors too
    assert issubclass(InputError, ValueError)


class TestFitCommand:
    def test_exact_least_squares(self, tmp_path, capsys):
        design = tmp_path / "X.csv"
        labels = tmp_path / "y.csv"
        out = tmp_path / "fit.txt"
        design.write_text("1,0\n0,1\n")
        labels.write_text("1\n0\n")
        code, _, _ = run_cli(capsys, "fit", str(design), str(labels),
                             "--radius", "10", "--out", str(out))
        assert code == 0
        text = out.read_text()
        assert "converged = true" in text
        coeffs = [float(v) for v in text.split("coefficients:\n")[1].split()]
        np.testing.assert_allclose(coeffs, [1.0, 0.0], atol=1e-6)

    def test_reports_lipschitz_after_fp_residual(self, tmp_path, capsys):
        # (2/2) X'X = diag(9, 1): L starts at its largest diagonal entry, 9.
        # Each of the 3 iterations first multiplies L by 0.8.  Iteration 1
        # tries 0 - grad/7.2 = (5/12, 5/36), projects it onto the ball of
        # radius 0.5 at (7/18, 1/9), and meets a curvature of 8.40 along that
        # move, above L = 7.2: the sufficient-decrease test fails and L
        # doubles to 14.4.  Iterations 2 and 3 run at L = 11.52 and 9.216,
        # at least the top curvature 9, so they cannot fail.  The signs
        # (+, +) have then held for 2 iterations, and the exact finish, the
        # minimizer (1/4, 1/4) on the face beta_1 + beta_2 = 0.5, passes
        # the certificate and ends the fit: L ends at 9 * 0.8^3 * 2
        code, out = self._fit_diag_9_1(tmp_path, capsys)
        assert code == 0
        lines = out.splitlines()
        at = next(i for i, line in enumerate(lines) if line.startswith("fp_residual = "))
        name, value = lines[at + 1].split(" = ")
        assert name == "lipschitz"
        assert float(value) == pytest.approx(9.0 * 0.8 ** 3 * 2, rel=1e-12)
        assert "iterations = 3" in lines

    def test_reports_backtracks_after_lipschitz(self, tmp_path, capsys):
        # the one failed sufficient-decrease test of the case above
        code, out = self._fit_diag_9_1(tmp_path, capsys)
        assert code == 0
        lines = out.splitlines()
        at = next(i for i, line in enumerate(lines) if line.startswith("lipschitz = "))
        assert lines[at + 1] == "backtracks = 1"

    @staticmethod
    def _fit_diag_9_1(tmp_path, capsys):
        design = tmp_path / "X.csv"
        labels = tmp_path / "y.csv"
        design.write_text("3,0\n0,1\n")
        labels.write_text("1\n1\n")
        code, out, _ = run_cli(capsys, "fit", str(design), str(labels), "--radius", "0.5")
        return code, out

    def test_label_length_mismatch_names_both(self, tmp_path, capsys):
        design = tmp_path / "X.csv"
        labels = tmp_path / "y.csv"
        design.write_text("1,0\n0,1\n1,1\n")
        labels.write_text("1\n0\n")
        code, _, err = run_cli(capsys, "fit", str(design), str(labels), "--radius", "1")
        assert code == 2
        assert "3" in err and "2" in err

    def test_label_length_mismatch_names_y_and_writes_nothing(self, tmp_path, capsys):
        design = tmp_path / "X.csv"
        labels = tmp_path / "y.csv"
        out = tmp_path / "fit.txt"
        design.write_text("1,0\n0,1\n1,1\n")
        labels.write_text("1\n0\n")
        code, stdout, err = run_cli(capsys, "fit", str(design), str(labels), "--radius", "1",
                                    "--out", str(out))
        assert (code, stdout) == (2, "")
        assert err.startswith("error: y must be 1-d with one value per row of X")
        assert not out.exists()

    def test_bad_radius_is_reported_before_a_label_mismatch(self, tmp_path, capsys):
        design = tmp_path / "X.csv"
        labels = tmp_path / "y.csv"
        design.write_text("1,0\n0,1\n1,1\n")
        labels.write_text("1\n0\n")
        code, _, err = run_cli(capsys, "fit", str(design), str(labels), "--radius", "-1")
        assert code == 2
        assert "radius must be finite and >= 0" in err

    def test_non_numeric_cell_diagnostic(self, tmp_path, capsys):
        design = tmp_path / "X.csv"
        labels = tmp_path / "y.csv"
        labels.write_text("1\n0\n")
        for cell in ("zebra", "nan", "inf", "-Infinity"):
            design.write_text(f"1,0\n0,{cell}\n")
            code, out, err = run_cli(capsys, "fit", str(design), str(labels), "--radius", "1")
            assert code == 2, cell
            assert out == ""
            assert "line 2" in err and "column 2" in err and cell in err

    @pytest.mark.parametrize("text, message", [
        ("1,2\n\n3,x\n", "line 3, column 2: non-numeric value 'x'"),
        ("1,2\n\n3,4,5\n", "line 3 has 3 fields, expected 2"),
    ], ids=["bad-cell", "ragged"])
    def test_diagnostic_after_a_blank_line_names_the_files_line(self, tmp_path, capsys,
                                                                 text, message):
        # blank lines are skipped, but a diagnostic counts them
        design = tmp_path / "X.csv"
        labels = tmp_path / "y.csv"
        design.write_text(text)
        labels.write_text("1\n0\n")
        code, out, err = run_cli(capsys, "fit", str(design), str(labels), "--radius", "1")
        assert (code, out) == (2, "")
        assert f"design file {design}: {message}" in err

    def test_files_with_a_byte_order_mark(self, tmp_path, capsys):
        # a spreadsheet's CSV export starts with a UTF-8 byte order mark
        design = tmp_path / "X.csv"
        labels = tmp_path / "y.csv"
        design.write_text("\ufeff1,0\n0,1\n", encoding="utf-8")
        labels.write_text("\ufeff1\n0\n", encoding="utf-8")
        code, out, err = run_cli(capsys, "fit", str(design), str(labels), "--radius", "10")
        assert (code, err) == (0, "")
        coeffs = [float(v) for v in out.split("coefficients:\n")[1].split()]
        np.testing.assert_allclose(coeffs, [1.0, 0.0], atol=1e-6)

    def test_labels_on_one_line_are_input_error(self, tmp_path, capsys):
        # labels are one value per line, as simulate writes them
        design = tmp_path / "X.csv"
        labels = tmp_path / "y.csv"
        design.write_text("1,0\n0,1\n1,1\n")
        labels.write_text("1,-1,1\n")
        code, out, err = run_cli(capsys, "fit", str(design), str(labels), "--radius", "1")
        assert (code, out) == (2, "")
        assert f"labels file {labels} must hold one value per line, not 3" in err

    @pytest.mark.parametrize("text, message", [
        ("", "is empty"),
        ("\n\n", "is empty"),
        ("1,0\n0,1,2\n", "line 2 has 3 fields, expected 2"),
    ], ids=["empty", "blank-lines", "ragged"])
    def test_empty_or_ragged_design_is_input_error(self, tmp_path, capsys, text, message):
        design = tmp_path / "X.csv"
        labels = tmp_path / "y.csv"
        design.write_text(text)
        labels.write_text("1\n0\n")
        code, out, err = run_cli(capsys, "fit", str(design), str(labels), "--radius", "1")
        assert (code, out) == (2, "")
        assert f"design file {design}" in err and message in err

    def test_output_onto_a_directory_is_exit_3(self, tmp_path, capsys):
        design = tmp_path / "X.csv"
        labels = tmp_path / "y.csv"
        design.write_text("1,0\n0,1\n")
        labels.write_text("1\n0\n")
        out = tmp_path / "fitdir"
        out.mkdir()
        code, stdout, err = run_cli(capsys, "fit", str(design), str(labels), "--radius", "1",
                                    "--out", str(out))
        assert (code, stdout) == (3, "")
        assert f"cannot write {out}" in err
        assert os.listdir(out) == []
        assert sorted(os.listdir(tmp_path)) == ["X.csv", "fitdir", "y.csv"]

    def test_missing_file(self, tmp_path, capsys):
        code, _, err = run_cli(capsys, "fit", str(tmp_path / "no.csv"),
                               str(tmp_path / "no2.csv"), "--radius", "1")
        assert code == 2

    def test_nan_radius_is_input_error(self, tmp_path, capsys):
        design = tmp_path / "X.csv"
        labels = tmp_path / "y.csv"
        design.write_text("1,0\n0,1\n")
        labels.write_text("1\n0\n")
        code, out, err = run_cli(capsys, "fit", str(design), str(labels), "--radius", "nan")
        assert code == 2
        assert out == ""
        assert "radius must be finite" in err

    @pytest.mark.parametrize("radius", ["-1", "inf"])
    def test_negative_or_infinite_radius_is_input_error(self, tmp_path, capsys, radius):
        design = tmp_path / "X.csv"
        labels = tmp_path / "y.csv"
        design.write_text("1,0\n0,1\n")
        labels.write_text("1\n0\n")
        code, out, err = run_cli(capsys, "fit", str(design), str(labels), "--radius", radius)
        assert code == 2
        assert out == ""
        assert "radius must be finite and >= 0" in err

    def test_underflowing_design_is_domain_error(self, tmp_path):
        # in a subprocess with a timeout: a fit whose step constant starts at
        # 0 would otherwise backtrack forever
        design = tmp_path / "X.csv"
        labels = tmp_path / "y.csv"
        design.write_text("1e-200,0\n0,1e-200\n")
        labels.write_text("1\n-1\n")
        src = str(Path(sixlasso.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        try:
            done = subprocess.run(
                [sys.executable, "-m", "sixlasso.cli", "fit", str(design), str(labels),
                 "--radius", "1"], env=env, capture_output=True, text=True, timeout=60)
        except subprocess.TimeoutExpired:
            pytest.fail("fit on an underflowing design did not return within 60 s")
        assert done.returncode == 1
        assert done.stdout == ""
        assert "identically zero" in done.stderr and "underflow" in done.stderr

    def test_overflowing_design_is_input_error(self, tmp_path, capsys):
        design = tmp_path / "X.csv"
        labels = tmp_path / "y.csv"
        design.write_text("1e200,0\n0,1e200\n")
        labels.write_text("1\n-1\n")
        code, out, err = run_cli(capsys, "fit", str(design), str(labels), "--radius", "1")
        assert code == 2
        assert out == ""
        assert "overflow" in err

    def test_overflowing_labels_are_input_error(self, tmp_path, capsys):
        # finite labels whose squared norm overflows: refused as y, not
        # inside the projection under its argument's name v
        design = tmp_path / "X.csv"
        labels = tmp_path / "y.csv"
        design.write_text("1e150,1e150\n1e150,1e150\n1e150,1e150\n")
        labels.write_text("1e300\n1e300\n1e300\n")
        code, out, err = run_cli(capsys, "fit", str(design), str(labels), "--radius", "1")
        assert code == 2
        assert out == ""
        assert "squared norm of y overflows" in err
        assert "v must" not in err

    def test_stdout_when_no_out(self, tmp_path, capsys):
        design = tmp_path / "X.csv"
        labels = tmp_path / "y.csv"
        design.write_text("1,0\n0,1\n")
        labels.write_text("1\n1\n")
        code, out, _ = run_cli(capsys, "fit", str(design), str(labels), "--radius", "5")
        assert code == 0
        assert out.startswith("objective = ")


class TestSimulateCommand:
    def test_round_trip_through_fit(self, tmp_path, capsys):
        prefix = str(tmp_path / "sim")
        code, _, _ = run_cli(capsys, "simulate", "--p", "5", "--s", "2", "--n", "100",
                             "--link", "sign", "--seed", "11", "--out", prefix)
        assert code == 0
        y = np.loadtxt(f"{prefix}_y.csv")
        assert set(np.unique(y)) <= {-1.0, 1.0}
        beta_lines = Path(f"{prefix}_beta.csv").read_text().strip().split("\n")
        assert len(beta_lines) == 2  # one row per support coordinate
        code, _, _ = run_cli(capsys, "fit", f"{prefix}_X.csv", f"{prefix}_y.csv",
                             "--radius", "1.5", "--out", str(tmp_path / "fit.txt"))
        assert code == 0

    def test_deterministic_output(self, tmp_path, capsys):
        a, b = str(tmp_path / "a"), str(tmp_path / "b")
        for prefix in (a, b):
            run_cli(capsys, "simulate", "--p", "4", "--s", "2", "--n", "30",
                    "--link", "logistic", "--seed", "3", "--out", prefix)
        for name in ("X", "y", "beta"):
            assert Path(f"{a}_{name}.csv").read_text() == Path(f"{b}_{name}.csv").read_text()

    def test_signal_normals_do_not_reappear_in_the_design(self, tmp_path, capsys):
        # one seed for both used to repeat the signal's raw normals in
        # column 0 of X (rows 2 and 3 here); the signal has its own stream
        prefix = str(tmp_path / "sim")
        code, _, _ = run_cli(capsys, "simulate", "--p", "6", "--s", "2", "--n", "20",
                             "--link", "logistic", "--seed", "3", "--out", prefix)
        assert code == 0
        X = np.loadtxt(f"{prefix}_X.csv", delimiter=",")
        rows = np.loadtxt(f"{prefix}_beta.csv", delimiter=",")
        expected = make_signal(6, 2, seed=signal_seed(3))
        np.testing.assert_array_equal(rows[:, 0], np.flatnonzero(expected))
        np.testing.assert_array_equal(rows[:, 1], expected[expected != 0])
        runs = np.column_stack([X[:-1, 0], X[1:, 0]])
        runs /= np.linalg.norm(runs, axis=1, keepdims=True)
        assert not np.any(np.all(np.abs(runs - rows[:, 1]) <= 1e-12, axis=1))

    @pytest.mark.parametrize("s", ["0", "7"])
    def test_sparsity_outside_one_to_p_is_input_error(self, tmp_path, capsys, s):
        code, _, err = run_cli(capsys, "simulate", "--p", "5", "--s", s, "--n", "10",
                               "--link", "sign", "--out", str(tmp_path / "sim"))
        assert code == 2
        assert f"need 1 <= s <= p, got s={s}, p=5" in err
        assert not os.listdir(tmp_path)

    @pytest.mark.parametrize("seed", ["-1", str(2**64)])
    def test_seed_outside_64_bits_is_input_error(self, tmp_path, capsys, seed):
        # the data seed reaches numpy unmixed and the signal's seed is masked
        # to 64 bits, so the flag is checked first
        code, out, err = run_cli(capsys, "simulate", "--p", "5", "--s", "2", "--n", "10",
                                 "--link", "sign", "--seed", seed,
                                 "--out", str(tmp_path / "sim"))
        assert (code, out) == (2, "")
        assert f"--seed must lie in [0, 2**64), got {seed}" in err
        assert not os.listdir(tmp_path)

    def test_largest_seed_runs(self, tmp_path, capsys):
        code, _, _ = run_cli(capsys, "simulate", "--p", "5", "--s", "2", "--n", "10",
                             "--link", "sign", "--seed", str(2**64 - 1),
                             "--out", str(tmp_path / "sim"))
        assert code == 0
        assert sorted(os.listdir(tmp_path)) == ["sim_X.csv", "sim_beta.csv", "sim_y.csv"]

    def test_empty_sample_is_input_error(self, tmp_path, capsys):
        code, out, err = run_cli(capsys, "simulate", "--p", "5", "--s", "2", "--n", "0",
                                 "--link", "sign", "--out", str(tmp_path / "sim"))
        assert (code, out) == (2, "")
        assert "need n >= 1, got 0" in err
        assert not os.listdir(tmp_path)

    def test_moment_identity_from_files(self, tmp_path, capsys):
        prefix = str(tmp_path / "m")
        code, _, _ = run_cli(capsys, "simulate", "--p", "5", "--s", "2", "--n", "100000",
                             "--link", "logistic", "--seed", "29", "--out", prefix)
        assert code == 0
        X = np.loadtxt(f"{prefix}_X.csv", delimiter=",")
        y = np.loadtxt(f"{prefix}_y.csv")
        beta = np.zeros(5)
        for line in Path(f"{prefix}_beta.csv").read_text().strip().split("\n"):
            j, v = line.split(",")
            beta[int(j)] = float(v)
        lam = compute_lambda("logistic")
        assert np.linalg.norm((y[:, None] * X).mean(axis=0) - lam * beta) <= 0.02


SMOKE_CONFIG = """\
# smoke sweep
p = 10
s = 2
n_grid = 50,100
link = logistic
reps = 2
seed = 5
estimators = lasso
test_n = 200
"""


class TestSweepCommand:
    def test_smoke_sweep_outputs(self, tmp_path, capsys):
        config = tmp_path / "sweep.cfg"
        config.write_text(SMOKE_CONFIG)
        out = tmp_path / "records.csv"
        code, _, _ = run_cli(capsys, "sweep", "--config", str(config), "--out", str(out))
        assert code == 0
        # the summary and the SVG are named from --out
        assert sorted(os.listdir(tmp_path)) == ["records.csv", "records.svg",
                                                "records_summary.csv", "sweep.cfg"]
        lines = out.read_text().strip().split("\n")
        assert len(lines) == 5  # header + 4 trials
        assert lines[0] == ("trial_id,seed,estimator,n,p,s,link,radius,"
                            "direction_error,raw_l2_error,norm_beta_hat,norm_gap,"
                            "support_precision,support_recall,test_accuracy,"
                            "iterations,converged,runtime_ms")
        tree = ET.parse(tmp_path / "records.svg")  # well-formed XML
        ns = {"svg": "http://www.w3.org/2000/svg"}
        polylines = tree.getroot().findall(".//svg:polyline", ns)
        assert len(polylines) == 1
        texts = [el.text for el in tree.getroot().findall(".//svg:text", ns)]
        assert "n" in texts and "direction error" in texts and "lasso" in texts

    def test_flags_override_config(self, tmp_path, capsys):
        config = tmp_path / "sweep.cfg"
        config.write_text(SMOKE_CONFIG)
        out = tmp_path / "records.csv"
        code, _, _ = run_cli(capsys, "sweep", "--config", str(config), "--out", str(out),
                             "--reps", "1", "--estimators", "lasso,pv")
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert len(lines) == 5  # header + 2 n * 1 rep * 2 estimators

    def test_estimator_names_may_carry_spaces(self, tmp_path, capsys):
        # names are stripped and empty ones dropped, as n_grid's integers are
        config = tmp_path / "sweep.cfg"
        texts = []
        for cfg_line, flags in (("estimators = lasso", ["--estimators", "lasso, pv"]),
                                ("estimators = lasso, pv,", [])):
            config.write_text(SMOKE_CONFIG.replace("estimators = lasso", cfg_line))
            out = tmp_path / f"r{len(texts)}.csv"
            code, _, err = run_cli(capsys, "sweep", "--config", str(config),
                                   "--out", str(out), *flags)
            assert (code, err) == (0, "")
            texts.append(strip_runtime(out.read_text()))
        assert texts[0] == texts[1]
        assert [line.split(",")[2] for line in texts[0].split("\n")[1:3]] == ["lasso", "pv"]

    def test_byte_identical_reruns_modulo_runtime(self, tmp_path, capsys):
        config = tmp_path / "sweep.cfg"
        config.write_text(SMOKE_CONFIG)
        texts = []
        for name in ("r1.csv", "r2.csv"):
            out = tmp_path / name
            code, _, _ = run_cli(capsys, "sweep", "--config", str(config), "--out", str(out))
            assert code == 0
            texts.append(out.read_text())
        assert strip_runtime(texts[0]) == strip_runtime(texts[1])

    def test_config_with_a_byte_order_mark(self, tmp_path, capsys):
        # editors on Windows save UTF-8 with a BOM: it is not part of the
        # first key, and the sweep runs as from the plain file
        texts = []
        for encoding in ("utf-8", "utf-8-sig"):
            config = tmp_path / f"{encoding}.cfg"
            config.write_text(SMOKE_CONFIG, encoding=encoding)
            out = tmp_path / f"{encoding}.csv"
            code, _, err = run_cli(capsys, "sweep", "--config", str(config), "--out", str(out))
            assert (code, err) == (0, "")
            texts.append(strip_runtime(out.read_text()))
        assert config.read_bytes().startswith(b"\xef\xbb\xbf")
        assert texts[0] == texts[1]

    def test_missing_required_key_is_input_error(self, tmp_path, capsys):
        config = tmp_path / "sweep.cfg"
        config.write_text("p = 10\n")
        code, _, err = run_cli(capsys, "sweep", "--config", str(config),
                               "--out", str(tmp_path / "r.csv"))
        assert code == 2

    def test_malformed_config_line(self, tmp_path, capsys):
        config = tmp_path / "sweep.cfg"
        config.write_text("p: 10\n")
        code, _, err = run_cli(capsys, "sweep", "--config", str(config),
                               "--out", str(tmp_path / "r.csv"))
        assert code == 2
        assert "line 1" in err

    def test_unknown_config_key_names_key_and_line(self, tmp_path, capsys):
        config = tmp_path / "sweep.cfg"
        out = tmp_path / "r.csv"
        for key in ("tset_n = 50", "tol = 1e-9", "fresh_signal = 1", "signal_mode = equal"):
            config.write_text(SMOKE_CONFIG + key + "\n")
            code, _, err = run_cli(capsys, "sweep", "--config", str(config), "--out", str(out))
            assert code == 2
            assert repr(key.split()[0]) in err and "line 10" in err
            assert not out.exists()

    # a sweep runs every fit to the solver's fixed cap, its radius is
    # sqrt(s) or the explicit value, and its outputs are named from --out
    @pytest.mark.parametrize("line, named", [
        ("max_iter = 10", "'max_iter'"),
        ("radius_rule = raw_s", "'raw_s'"),
        ("radius_rule = two_sqrt_s_over_lambda", "'two_sqrt_s_over_lambda'"),
        ("out_svg = x.svg", "'out_svg'"),
    ], ids=["max_iter", "raw_s", "two_sqrt_s_over_lambda", "out_svg"])
    def test_removed_setting_in_config_is_input_error(self, tmp_path, capsys, line, named):
        config = tmp_path / "sweep.cfg"
        config.write_text(SMOKE_CONFIG + line + "\n")
        code, out, err = run_cli(capsys, "sweep", "--config", str(config),
                                 "--out", str(tmp_path / "r.csv"))
        assert (code, out) == (2, "")
        assert named in err
        assert os.listdir(tmp_path) == ["sweep.cfg"]

    def test_removed_radius_rule_flag_is_usage_error(self, tmp_path, capsys):
        config = tmp_path / "sweep.cfg"
        config.write_text(SMOKE_CONFIG)
        code, out, err = run_cli(capsys, "sweep", "--config", str(config),
                                 "--out", str(tmp_path / "r.csv"),
                                 "--radius-rule", "two_sqrt_s_over_lambda")
        assert (code, out) == (2, "")
        assert err.startswith("usage: sixlasso sweep")
        assert "invalid choice: 'two_sqrt_s_over_lambda'" in err
        assert os.listdir(tmp_path) == ["sweep.cfg"]

    @pytest.mark.parametrize("seed", ["-1", str(2**64)])
    def test_seed_outside_64_bits_is_input_error(self, tmp_path, capsys, seed):
        config = tmp_path / "sweep.cfg"
        config.write_text(SMOKE_CONFIG)
        code, out, err = run_cli(capsys, "sweep", "--config", str(config),
                                 "--out", str(tmp_path / "r.csv"), "--seed", seed)
        assert (code, out) == (2, "")
        assert "base_seed must lie in [0, 2**64)" in err
        assert os.listdir(tmp_path) == ["sweep.cfg"]

    def test_repeated_config_key_names_both_lines(self, tmp_path, capsys):
        config = tmp_path / "sweep.cfg"
        config.write_text(SMOKE_CONFIG + "reps = 3\n")
        out = tmp_path / "r.csv"
        code, _, err = run_cli(capsys, "sweep", "--config", str(config), "--out", str(out))
        assert code == 2
        assert "'reps'" in err and "line 10" in err and "line 6" in err
        assert not out.exists()

    def test_bad_n_grid_flag_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "r.csv"
        code, _, err = run_cli(capsys, "sweep", "--p", "10", "--s", "2",
                               "--n-grid", "50,x", "--out", str(out))
        assert code == 2
        assert err.startswith("usage: sixlasso sweep")
        assert "argument --n-grid: expected comma-separated integers, got '50,x'" in err
        assert not out.exists()

    def test_bad_n_grid_config_value_is_input_error(self, tmp_path, capsys):
        config = tmp_path / "sweep.cfg"
        config.write_text(SMOKE_CONFIG.replace("n_grid = 50,100", "n_grid = 50,x"))
        out = tmp_path / "r.csv"
        code, _, err = run_cli(capsys, "sweep", "--config", str(config), "--out", str(out))
        assert code == 2
        assert "config key n_grid: expected comma-separated integers, got '50,x'" in err
        assert not out.exists()

    def test_radius_without_explicit_rule_is_input_error(self, tmp_path, capsys):
        config = tmp_path / "sweep.cfg"
        config.write_text(SMOKE_CONFIG)
        out = tmp_path / "r.csv"
        code, _, err = run_cli(capsys, "sweep", "--config", str(config), "--out", str(out),
                               "--radius", "0.01")
        assert code == 2
        assert "radius_value" in err and "sqrt_s" in err
        assert not out.exists()

    def test_pv_with_explicit_radius_below_one_is_input_error(self, tmp_path, capsys):
        config = tmp_path / "sweep.cfg"
        config.write_text(SMOKE_CONFIG)
        out = tmp_path / "r.csv"
        code, _, err = run_cli(capsys, "sweep", "--config", str(config), "--out", str(out),
                               "--estimators", "lasso,pv", "--radius-rule", "explicit",
                               "--radius", "0.5")
        assert code == 2
        assert "radius_value >= 1" in err
        assert not out.exists()

    def test_unwritable_output_is_exit_3(self, tmp_path, capsys):
        config = tmp_path / "sweep.cfg"
        config.write_text(SMOKE_CONFIG)
        existing_dir = tmp_path / "existing_dir"
        existing_dir.mkdir()
        for out in (tmp_path / "missing_dir" / "records.csv", existing_dir):
            code, _, err = run_cli(capsys, "sweep", "--config", str(config),
                                   "--out", str(out))
            assert code == 3
            assert str(out) in err
        # both are refused before any trial, so nothing was written
        # (TestWriteTextAtomic covers a rename that fails)
        assert sorted(os.listdir(tmp_path)) == ["existing_dir", "sweep.cfg"]
        assert os.listdir(existing_dir) == []

    def test_unwritable_svg_fails_before_any_trial(self, tmp_path, capsys, monkeypatch):
        def no_sweep(*args):
            raise AssertionError("a trial ran")
        monkeypatch.setattr("sixlasso.cli.run_sweep", no_sweep)
        config = tmp_path / "sweep.cfg"
        config.write_text(SMOKE_CONFIG)
        svg = tmp_path / "r.svg"
        svg.mkdir()
        code, _, err = run_cli(capsys, "sweep", "--config", str(config),
                               "--out", str(tmp_path / "r.csv"))
        assert code == 3
        assert f"the SVG output {svg} is a directory" in err
        assert sorted(os.listdir(tmp_path)) == ["r.svg", "sweep.cfg"]
        assert os.listdir(svg) == []

    def test_svg_symlink_to_the_records_leaves_the_records(self, tmp_path, capsys):
        # the atomic rename replaces the link itself, not the file it names
        config = tmp_path / "sweep.cfg"
        config.write_text(SMOKE_CONFIG)
        out = tmp_path / "r.csv"
        (tmp_path / "r.svg").symlink_to("r.csv")
        code, _, _ = run_cli(capsys, "sweep", "--config", str(config), "--out", str(out))
        assert code == 0
        assert not (tmp_path / "r.svg").is_symlink()
        assert (tmp_path / "r.svg").read_text().startswith("<?xml")
        assert out.read_text().startswith("trial_id,seed,")
        assert records_csv_text(parse_records_csv(out.read_text())) == out.read_text()

    def test_nan_radius_is_input_error(self, tmp_path, capsys):
        config = tmp_path / "sweep.cfg"
        config.write_text(SMOKE_CONFIG)
        out = tmp_path / "r.csv"
        code, _, err = run_cli(capsys, "sweep", "--config", str(config), "--out", str(out),
                               "--radius-rule", "explicit", "--radius", "nan")
        assert code == 2
        assert "finite radius_value" in err
        assert not out.exists()

    def test_records_csv_round_trip(self, tmp_path, capsys):
        config = tmp_path / "sweep.cfg"
        config.write_text(SMOKE_CONFIG)
        out = tmp_path / "records.csv"
        run_cli(capsys, "sweep", "--config", str(config), "--out", str(out))
        text = out.read_text()
        assert records_csv_text(parse_records_csv(text)) == text

    def test_failed_trial_record_round_trip(self):
        text = records_csv_text([_record(3, _failed_metrics(0.5), False), _record(4, FITTED, True)])
        row = text.split("\n")[1].split(",")
        assert row[8:17] == ["2", "nan", "0", "-0.5", "1", "0", "nan", "0", "false"]
        assert records_csv_text(parse_records_csv(text)) == text

    @pytest.mark.parametrize("cell", ["True", "FALSE", "ture", "1", ""])
    def test_converged_other_than_true_or_false_is_input_error(self, cell):
        text = records_csv_text([_record(4, FITTED, True)]).replace(",true,", f",{cell},")
        with pytest.raises(InputError, match="line 2, column converged: expected true or "
                                             "false, got " + re.escape(repr(cell))):
            parse_records_csv(text)

    @pytest.mark.parametrize("column, cell, expected", [
        ("trial_id", "x", "an integer"),
        ("iterations", "2.5", "an integer"),
        ("norm_gap", "big", "a real number"),
        ("converged", "yes", "true or false"),
        ("estimator", "ridge", "lasso or pv"),
        ("link", "cauchy", "linear, logistic, probit or sign"),
    ])
    def test_malformed_cell_names_its_line_and_column(self, column, cell, expected):
        lines = records_csv_text([_record(4, FITTED, True), _record(5, FITTED, True)]).split("\n")
        row = lines[2].split(",")
        row[RECORD_COLUMNS.index(column)] = cell
        lines[2] = ",".join(row)
        with pytest.raises(InputError, match=f"line 3, column {column}: expected "
                                             f"{re.escape(expected)}, got {re.escape(repr(cell))}"):
            parse_records_csv("\n".join(lines))

    def test_row_of_the_wrong_width_names_its_line(self):
        text = records_csv_text([_record(4, FITTED, True), _record(5, FITTED, True)])
        with pytest.raises(InputError, match="records line 3 has 17 fields, expected 18"):
            parse_records_csv(text.rstrip("\n").rsplit(",", 1)[0] + "\n")

    def test_svg_geometry_deterministic(self, tmp_path, capsys):
        config = tmp_path / "sweep.cfg"
        config.write_text(SMOKE_CONFIG)
        svgs = []
        for name in ("a", "b"):
            run_cli(capsys, "sweep", "--config", str(config),
                    "--out", str(tmp_path / f"{name}.csv"))
            svgs.append((tmp_path / f"{name}.svg").read_text())
        assert svgs[0] == svgs[1]



class TestGoldenText:
    """The full text of each written format, byte for byte."""

    def test_records_csv(self):
        text = records_csv_text([_record(3, _failed_metrics(0.5), False), _record(4, FITTED, True)])
        assert text == (
            "trial_id,seed,estimator,n,p,s,link,radius,direction_error,raw_l2_error,"
            "norm_beta_hat,norm_gap,support_precision,support_recall,test_accuracy,"
            "iterations,converged,runtime_ms\n"
            "3,12345,lasso,50,10,2,logistic,1.4142135623730951,"
            "2,nan,0,-0.5,1,0,nan,0,false,1.25\n"
            "4,12345,lasso,50,10,2,logistic,1.4142135623730951,"
            "0.10000000000000001,0.59999999999999998,0.5,0,0.5,1,0.75,0,true,1.25\n")

    def test_summary_csv(self):
        nan = float("nan")
        rows = [SummaryRow("lasso", 200, "direction_error", 0.1, 0.25, 1 / 3),
                SummaryRow("pv", 3000, "test_accuracy", nan, nan, nan),
                SummaryRow("pv", 3000, "norm_gap", -0.5, 0.0, 2.0)]
        assert summary_csv_text(rows) == (
            "estimator,n,metric,q25,median,q75\n"
            "lasso,200,direction_error,0.10000000000000001,0.25,0.33333333333333331\n"
            "pv,3000,test_accuracy,nan,nan,nan\n"
            "pv,3000,norm_gap,-0.5,0,2\n")

    def test_fit_document(self):
        result = FitResult(beta_hat=np.array([0.5, -0.25, 0.0]), objective=0.1, iterations=7,
                           converged=False, fp_residual=1e-9, lipschitz=9.0, backtracks=2,
                           objective_path=np.array([0.3, 0.1]))
        assert fit_document_text(result, 1.5) == (
            "objective = 0.10000000000000001\n"
            "iterations = 7\n"
            "converged = false\n"
            "radius = 1.5\n"
            "l1_norm = 0.75\n"
            "l2_norm = 0.55901699437494745\n"
            "fp_residual = 1.0000000000000001e-09\n"
            "lipschitz = 9\n"
            "backtracks = 2\n"
            "coefficients:\n"
            "0.5\n"
            "-0.25\n"
            "0\n")

class TestWriteTextAtomic:
    @pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)],
                             ids=["umask022", "umask077"])
    def test_new_and_overwritten_files_get_the_mode_open_gives(self, tmp_path, umask, mode):
        fresh = tmp_path / "fresh.csv"
        old = tmp_path / "old.csv"
        old.write_text("old\n")
        os.chmod(old, 0o640)
        previous = os.umask(umask)
        try:
            write_text_atomic(str(fresh), "a\n")
            write_text_atomic(str(old), "b\n")
            plain = tmp_path / "plain.csv"
            with open(plain, "w", encoding="utf-8"):
                pass
        finally:
            os.umask(previous)
        assert stat.S_IMODE(plain.stat().st_mode) == mode
        for path, text in ((fresh, "a\n"), (old, "b\n")):
            assert stat.S_IMODE(path.stat().st_mode) == mode
            assert path.read_text() == text
        assert sorted(os.listdir(tmp_path)) == ["fresh.csv", "old.csv", "plain.csv"]

    def test_writing_onto_a_directory_leaves_no_temp_file(self, tmp_path):
        # the rename fails after the temp file is written: the temp file is
        # removed and the directory is left as it was
        target = tmp_path / "out"
        target.mkdir()
        (target / "kept.txt").write_text("kept\n")
        with pytest.raises(OutputError, match=f"cannot write {re.escape(str(target))}"):
            write_text_atomic(str(target), "a\n")
        assert sorted(os.listdir(tmp_path)) == ["out"]
        assert os.listdir(target) == ["kept.txt"]
        assert (target / "kept.txt").read_text() == "kept\n"
