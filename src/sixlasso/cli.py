"""Command-line entry point: lambda, fit, simulate, sweep.

Owns the on-disk formats: the records/summary CSV schemas, the plain-text
fit document, and the static SVG error chart.  Real numbers are serialized
with 17 significant digits so that write -> parse -> write is the identity
on doubles.  All files are written atomically (temp file + rename), with the
mode a plain open() would give a new file (0o666 less the umask).

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
reruns of the same sweep, serial or pooled: compare records with it cut
(`cut -d, -f1-17`), as the determinism tests and the benchmark's gate do.

Exit codes: 0 success, 1 domain error, 2 input error, 3 output error.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import itertools
import os
import sys
import tempfile

import numpy as np

from .errors import SixLassoError
from .experiments import (
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
    BUILTIN_LINKS,
    Dataset,
    compute_lambda,
    compute_lambda_mc,
    generate_dataset,
    get_link,
    make_signal,
)
from .solver import MAX_ITER, fit_lasso

RECORD_COLUMNS = ("trial_id", "seed", "estimator", "n", "p", "s", "link", "radius",
                  *METRIC_FIELDS, "iterations", "converged", "runtime_ms")

SUMMARY_COLUMNS = ("estimator", "n", "metric", "q25", "median", "q75")

_COLORS = {"lasso": "#1f77b4", "pv": "#d62728"}


class InputError(Exception):
    """Malformed user input (exit 2)."""


class OutputError(Exception):
    """Unwritable output destination (exit 3)."""


def fmt_real(x: float) -> str:
    """17-significant-digit decimal: round-trip exact for float64."""
    return format(float(x), ".17g")


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

def record_row(rec: TrialRecord) -> list[str]:
    return [
        str(rec.trial_id), str(rec.seed), rec.estimator, str(rec.n), str(rec.p),
        str(rec.s), rec.link, fmt_real(rec.radius),
        *(fmt_real(getattr(rec.metrics, name)) for name in METRIC_FIELDS),
        str(rec.iterations), "true" if rec.converged else "false",
        fmt_real(rec.runtime_ms),
    ]


def records_csv_text(records: list[TrialRecord]) -> str:
    lines = [",".join(RECORD_COLUMNS)]
    lines.extend(",".join(record_row(r)) for r in records)
    return "\n".join(lines) + "\n"


def parse_records_csv(text: str) -> list[TrialRecord]:
    """Inverse of records_csv_text (exact for every written file)."""
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or tuple(rows[0]) != RECORD_COLUMNS:
        raise InputError("records CSV header does not match the schema")
    out = []
    for line, row in enumerate(rows[1:], start=2):
        if len(row) != len(RECORD_COLUMNS):
            raise InputError(f"records row has {len(row)} fields, expected {len(RECORD_COLUMNS)}")
        if row[16] not in ("true", "false"):
            raise InputError(f"records line {line}, column converged: expected true or "
                             f"false, got {row[16]!r}")
        metrics = TrialMetrics(*(float(v) for v in row[8:15]))
        out.append(TrialRecord(
            trial_id=int(row[0]), seed=int(row[1]), estimator=row[2], n=int(row[3]),
            p=int(row[4]), s=int(row[5]), link=row[6], radius=float(row[7]),
            metrics=metrics, iterations=int(row[15]), converged=row[16] == "true",
            runtime_ms=float(row[17]),
        ))
    return out


def summary_csv_text(rows: list[SummaryRow]) -> str:
    lines = [",".join(SUMMARY_COLUMNS)]
    for r in rows:
        lines.append(",".join([r.estimator, str(r.n), r.metric,
                               fmt_real(r.q25), fmt_real(r.median), fmt_real(r.q75)]))
    return "\n".join(lines) + "\n"


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
        color = _COLORS.get(est, "#2ca02c")
        pts = " ".join(f"{px(n):.2f},{py(v):.2f}" for n, v in series[est])
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="2"/>')

    ly = top + 10
    for est in sorted(series):
        color = _COLORS.get(est, "#2ca02c")
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
    """Parse a headerless numeric CSV with line/column diagnostics."""
    try:
        with open(path, encoding="utf-8", newline="") as handle:
            rows = list(csv.reader(handle))
    except OSError as exc:
        raise InputError(f"cannot read {what} file {path}: {exc}") from exc
    rows = [r for r in rows if r]
    if not rows:
        raise InputError(f"{what} file {path} is empty")
    width = len(rows[0])
    data = np.empty((len(rows), width))
    for i, row in enumerate(rows):
        if len(row) != width:
            raise InputError(f"{what} file {path}: line {i + 1} has {len(row)} "
                             f"fields, expected {width}")
        for j, cell in enumerate(row):
            try:
                data[i, j] = float(cell)
            except ValueError:
                raise InputError(f"{what} file {path}: line {i + 1}, column {j + 1}: "
                                 f"non-numeric value {cell!r}") from None
            if not np.isfinite(data[i, j]):
                raise InputError(f"{what} file {path}: line {i + 1}, column {j + 1}: "
                                 f"non-finite value {cell!r}")
    return data


def load_config(path: str) -> dict[str, str]:
    """Flat key=value sweep config; blank lines and #-comments are ignored.

    A key outside SWEEP_CONFIG_KEYS, or a key given twice, is an input error
    naming its line (both lines for a repeated key).
    """
    try:
        with open(path, encoding="utf-8") as handle:
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


def _pick(flags: argparse.Namespace, cfg: dict[str, str], key: str, convert,
          default=None, required=False):
    val = getattr(flags, key, None)  # None too for a config-only key: it has no flag
    if val is not None:
        return val
    if key in cfg:
        try:
            return convert(cfg[key])
        except (ValueError, TypeError, argparse.ArgumentTypeError) as exc:
            raise InputError(f"config key {key}: {exc}") from exc
    if required:
        raise InputError(f"missing required setting {key!r} (flag or config)")
    return default


def _parse_int_list(text: str) -> tuple[int, ...]:
    # an argparse type: argparse turns ArgumentTypeError into a usage error
    try:
        return tuple(int(tok) for tok in text.split(",") if tok.strip())
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}") from exc


def _parse_names(text: str) -> tuple[str, ...]:
    return tuple(text.split(","))


def _parse_bool(text: str) -> bool:
    if text.lower() in ("1", "true", "yes"):
        return True
    if text.lower() in ("0", "false", "no"):
        return False
    raise ValueError(f"expected a boolean, got {text!r}")


# The sweep settings that make up its SweepSpec: config key -> conversion.
# The flag of a key, where `sweep` has one, stores under the key's name.
_SPEC_SETTINGS = {
    "p": int, "s": int, "n_grid": _parse_int_list, "link": str, "radius_rule": str,
    "radius": float, "reps": int, "seed": int, "signal_mode": str,
    "estimators": _parse_names, "test_n": int, "fresh_signal": _parse_bool,
}
# the SweepSpec fields named otherwise than their config keys
_SPEC_FIELDS = {"radius": "radius_value", "seed": "base_seed",
                "fresh_signal": "fresh_signal_per_trial"}
SWEEP_CONFIG_KEYS = (*_SPEC_SETTINGS, "max_iter", "out", "out_svg")


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_lambda(args) -> int:
    link = get_link(args.link)
    budget = {} if args.budget is None else {"budget": args.budget}
    if args.method == "mc":
        value, stderr = compute_lambda_mc(link, seed=args.seed, **budget)
        if value <= 0:
            print(f"lambda = {fmt_real(value)} <= 0: decreasing or degenerate link",
                  file=sys.stderr)
            return 1
        print(fmt_real(value))
        print(fmt_real(stderr))
    else:
        value = compute_lambda(link, **budget)
        print(fmt_real(value))
    return 0


def fit_document_text(result) -> str:
    lines = [
        f"objective = {fmt_real(result.objective)}",
        f"iterations = {result.iterations}",
        f"converged = {'true' if result.converged else 'false'}",
        f"radius = {fmt_real(result.radius)}",
        f"l1_norm = {fmt_real(float(np.abs(result.beta_hat).sum()))}",
        f"l2_norm = {fmt_real(result.l2_norm)}",
        f"fp_residual = {fmt_real(result.fp_residual)}",
        f"lipschitz = {fmt_real(result.lipschitz)}",
        f"backtracks = {result.backtracks}",
        "coefficients:",
    ]
    lines.extend(fmt_real(c) for c in result.beta_hat)
    return "\n".join(lines) + "\n"


def cmd_fit(args) -> int:
    X = read_numeric_csv(args.design, "design")
    y = read_numeric_csv(args.labels, "labels")
    if y.shape[1] == 1:
        y = y[:, 0]
    elif y.shape[0] == 1:
        y = y[0, :]
    else:
        raise InputError(f"labels file {args.labels} must be a single column or row")
    if y.shape[0] != X.shape[0]:
        raise InputError(f"design has {X.shape[0]} rows but labels file has {y.shape[0]} values")
    if not 0 <= args.radius < np.inf:
        raise InputError(f"--radius must be finite and >= 0, got {args.radius}")
    result = fit_lasso(Dataset(X=X, y=y), args.radius, args.max_iter)
    text = fit_document_text(result)
    if args.out:
        write_text_atomic(args.out, text)
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(text)
    return 0


def cmd_simulate(args) -> int:
    if not 1 <= args.s <= args.p:
        raise InputError(f"need 1 <= s <= p, got s={args.s}, p={args.p}")
    link = get_link(args.link)
    # the signal has its own stream, as in a sweep: seeding it with the data
    # seed would repeat its raw normals in the design
    signal = make_signal(args.p, args.s, seed=signal_seed(args.seed))
    data = generate_dataset(signal, args.n, link, args.seed)
    x_path = f"{args.out}_X.csv"
    y_path = f"{args.out}_y.csv"
    b_path = f"{args.out}_beta.csv"
    x_text = "\n".join(",".join(fmt_real(v) for v in row) for row in data.X) + "\n"
    y_text = "\n".join(fmt_real(v) for v in data.y) + "\n"
    b_text = "\n".join(f"{j},{fmt_real(signal.beta[j])}" for j in signal.support) + "\n"
    write_text_atomic(x_path, x_text)
    write_text_atomic(y_path, y_text)
    write_text_atomic(b_path, b_text)
    print(f"wrote {x_path} {y_path} {b_path}")
    return 0


def _sweep_spec_from(args) -> tuple[SweepSpec, int, str, str]:
    cfg = load_config(args.config) if args.config else {}
    given = {}
    for key, convert in _SPEC_SETTINGS.items():
        value = _pick(args, cfg, key, convert, required=key in ("p", "s", "n_grid"))
        if value is not None:
            given[_SPEC_FIELDS.get(key, key)] = value
    spec = SweepSpec(**given)  # SweepSpec's defaults fill in the rest
    max_iter = _pick(args, cfg, "max_iter", int, default=MAX_ITER)
    out = _pick(args, cfg, "out", str, required=True)
    out_svg = _pick(args, cfg, "out_svg", str, default=out.removesuffix(".csv") + ".svg")
    return spec, max_iter, out, out_svg


def summary_path_for(records_path: str) -> str:
    return records_path.removesuffix(".csv") + "_summary.csv"


def cmd_sweep(args) -> int:
    try:
        spec, max_iter, out, out_svg = _sweep_spec_from(args)
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    summary_path = summary_path_for(out)
    named = (("records", out), ("summary", summary_path), ("SVG", out_svg))
    for (a, path_a), (b, path_b) in itertools.combinations(named, 2):
        if os.path.realpath(path_a) == os.path.realpath(path_b):
            raise InputError(f"the {b} output {path_b} would overwrite "
                             f"the {a} output {path_a}")
    records = run_sweep(spec, max_iter)
    rows = summarize(records)
    write_text_atomic(out, records_csv_text(records))
    write_text_atomic(summary_path, summary_csv_text(rows))
    write_text_atomic(out_svg, sweep_svg_text(rows))
    print(f"wrote {out}")
    print(f"wrote {summary_path}")
    print(f"wrote {out_svg}")
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
    links = tuple(BUILTIN_LINKS)

    p_lambda = sub.add_parser("lambda", help="print the link constant E[F(Z)Z]")
    p_lambda.add_argument("--link", required=True, choices=links)
    p_lambda.add_argument("--method", default="quadrature", choices=["quadrature", "mc"])
    p_lambda.add_argument("--budget", type=int, default=None,
                          help="Gauss-Hermite nodes for the smooth links (default 64, "
                               "at least 32; sign is exact); samples for --method mc "
                               "(default 1000000, at least 10000)")
    p_lambda.add_argument("--seed", type=int, default=0)
    p_lambda.set_defaults(func=cmd_lambda)

    p_fit = sub.add_parser("fit", help="fit the l1-ball least-squares estimator to CSV data")
    p_fit.add_argument("design", help="CSV with n rows of p numeric features")
    p_fit.add_argument("labels", help="CSV with n response values")
    p_fit.add_argument("--radius", type=float, required=True)
    p_fit.add_argument("--max-iter", dest="max_iter", type=int, default=MAX_ITER)
    p_fit.add_argument("--out", default=None)
    p_fit.set_defaults(func=cmd_fit)

    p_sim = sub.add_parser("simulate", help="generate synthetic design/label CSVs")
    p_sim.add_argument("--p", type=int, required=True)
    p_sim.add_argument("--s", type=int, required=True)
    p_sim.add_argument("--n", type=int, required=True)
    p_sim.add_argument("--link", required=True, choices=links)
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--out", required=True,
                       help="path prefix; writes <out>_X.csv, <out>_y.csv, <out>_beta.csv")
    p_sim.set_defaults(func=cmd_simulate)

    p_sweep = sub.add_parser("sweep", help="run a Monte Carlo sweep and write CSV + SVG")
    p_sweep.add_argument("--config", default=None, help="flat key=value config file")
    p_sweep.add_argument("--p", type=int, default=None)
    p_sweep.add_argument("--s", type=int, default=None)
    p_sweep.add_argument("--n-grid", dest="n_grid", type=_parse_int_list, default=None)
    p_sweep.add_argument("--link", default=None, choices=links)
    p_sweep.add_argument("--radius-rule", dest="radius_rule", default=None,
                         choices=RADIUS_RULES)
    p_sweep.add_argument("--radius", type=float, default=None)
    p_sweep.add_argument("--reps", type=int, default=None)
    p_sweep.add_argument("--seed", type=int, default=None)
    p_sweep.add_argument("--estimators", type=_parse_names, default=None)
    p_sweep.add_argument("--max-iter", dest="max_iter", type=int, default=None)
    p_sweep.add_argument("--out", default=None)
    p_sweep.add_argument("--out-svg", dest="out_svg", default=None)
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
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OutputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except SixLassoError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
