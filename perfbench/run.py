"""Benchmark of the `sixlasso sweep` user path.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload fig1 --seed 1 --seconds 20 --trace 0

Every sweep runs `sixlasso.cli.main(["sweep", ...])` in a fresh interpreter
(perfbench/child.py) that writes into its own temporary directory under
.perfbench/.  The records are read back with `sixlasso.cli.parse_records_csv`
and checked (perfbench/gate.py) before any number is reported.

--trace 0 runs sweeps of the workload until --seconds have passed (at least
MIN_SWEEPS) and reports the end-to-end metrics as medians over sweeps.
--trace 1 runs rounds of three sweeps on the same inputs: serial, pooled and
serial traced (perfbench/spans.py), and reports the per-layer metrics as
medians over rounds.  Every traced run, on either workload, also runs one
untraced highdim sweep at n = 100, where some lasso fits stop at max_iter,
and reports how many did, so each traced result holds every per-layer metric.
Sweep k of a run uses base seed 1000 * seed + k.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  The full result, with machine facts, goes
to .perfbench/result-<workload>-seed<seed>-trace<t>.json, with the share of
CPU time the machine lost to steal during each sweep.  Exit code 2 means the
checkout has no sixlasso sources; 1 means a sweep process crashed or hung.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

from gate import GateResult, check_sweep, shape_problems
from spans import trial_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

# The figure-1 spec of tests/test_acceptance.py at one rep per sweep.  Each
# sweep of a run draws fresh inputs, so a run of MIN_SWEEPS sweeps gives the
# shape check as many reps.  Test-set generation (10 000 x 1200 per trial)
# dominates it, and its n >= p fits converge in tens of iterations.
FIG1 = {
    "p": 1200, "s": 10, "n_grid": [200, 600, 1000, 1400, 1800, 2200, 2600, 3000],
    "link": "logistic", "radius_rule": "sqrt_s", "reps": 1,
    "estimators": ["lasso", "pv"], "test_n": 10_000,
}
# n << p with the probit link: the solver takes hundreds to thousands of
# iterations and dominates.  The timed grid starts at n = 150 because at
# n = 100 some lasso fits stop unconverged at max_iter = 5000, which the gate
# counts as a failed trial.  Every traced run measures that cell on its own
# (HIGHDIM_N100) and reports its unconverged fits as a per-layer metric.
HIGHDIM = {
    "p": 1200, "s": 10, "n_grid": [150, 200, 300], "link": "probit",
    "radius_rule": "sqrt_s", "reps": 9, "estimators": ["lasso"], "test_n": 1000,
}
HIGHDIM_N100 = dict(HIGHDIM, n_grid=[100], reps=20)
N100_SEED = 999  # sweep index of the n = 100 sweep, apart from the timed ones

# Every measured sweep is serial (SIXLASSO_THREADS=0); traced runs add a
# pooled sweep of POOL_WORKERS workers for experiments.pool.efficiency.
WORKLOADS = {"fig1": FIG1, "highdim": HIGHDIM}
POOL_WORKERS = 2
MIN_SWEEPS = 5
MIN_ROUNDS = 2
HARD_LIMIT_S = 170.0  # a run must end within 180 s, whatever --seconds says

ENV_FACTS = ("SIXLASSO_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")


class BenchError(Exception):
    """A sweep process crashed or hung: no result can be reported."""


@dataclass
class Sweep:
    threads: int
    traced: bool
    report: dict
    gate: GateResult
    wall_s: float
    steal_share: float


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def cpu_ticks() -> tuple[int, int] | None:
    """(steal, total) clock ticks of all CPUs since boot, from /proc/stat."""
    try:
        with open("/proc/stat", encoding="ascii") as handle:
            fields = [int(v) for v in handle.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    # user nice system idle iowait irq softirq steal [guest guest_nice]
    return (fields[7], sum(fields[:8])) if len(fields) >= 8 else None


def steal_share(before, after) -> float:
    """Share of the machine's CPU time lost to steal between two cpu_ticks()."""
    if before is None or after is None or after[1] <= before[1]:
        return 0.0
    return (after[0] - before[0]) / (after[1] - before[1])


def child_env(threads: int) -> dict:
    """The caller's environment with the sources on the path and the thread
    setting made explicit.  BLAS thread variables are left as the user set
    them: pinning them would hide the pool's oversubscription."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env["SIXLASSO_THREADS"] = str(threads)
    return env


def config_text(spec: dict) -> str:
    keys = dict(spec, seed=spec["base_seed"])
    del keys["base_seed"]
    lines = [f"{k} = {','.join(map(str, v)) if isinstance(v, list) else v}"
             for k, v in keys.items()]
    return "\n".join(lines) + "\n"


def run_child(job: dict, tmp: Path, threads: int, deadline: float) -> tuple[dict, str, float]:
    """Run child.py on `job` in a fresh interpreter: (report, stderr, wall seconds).

    The report's setup_s runs from the spawn to the end of the child's set-up.
    """
    job_path = tmp / "job.json"
    job_path.write_text(json.dumps(job), encoding="utf-8")
    spawn_wall = time.time()
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(HERE / "child.py"), str(job_path)],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                            env=child_env(threads), cwd=ROOT, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)  # the child and any pool workers
        proc.communicate()
        raise BenchError("sweep did not finish before the run's time limit") from None
    wall_s = time.perf_counter() - t0
    if proc.returncode != 0:
        raise BenchError(f"sweep process exited {proc.returncode}:\n{err[-4000:]}")
    report = json.loads(out.strip().splitlines()[-1])
    report["setup_s"] = report["ready_wall"] - spawn_wall
    return report, err, wall_s


def run_sweep(spec: dict, threads: int, deadline: float, spans_path: Path | None = None,
              require_converged: bool = True) -> Sweep:
    """One `sixlasso sweep` in a fresh interpreter, checked by the gate.

    With spans_path the sweep is traced and its spans are written there.
    """
    traced = spans_path is not None
    tmp = Path(tempfile.mkdtemp(prefix="sweep-", dir=OUT))
    try:
        outputs = [tmp / "records.csv", tmp / "records_summary.csv", tmp / "records.svg"]
        (tmp / "sweep.cfg").write_text(config_text(spec), encoding="utf-8")
        job = {"spec": spec, "config": str(tmp / "sweep.cfg"),
               "records": str(outputs[0]), "outputs": [str(p) for p in outputs],
               "trace": traced, "spans": str(spans_path) if traced else None}
        ticks = cpu_ticks()
        report, err, wall_s = run_child(job, tmp, threads, deadline)
        steal = steal_share(ticks, cpu_ticks())
        gate = check_sweep(spec, *map(str, outputs), require_converged=require_converged)
        if report["exit_code"] != 0:
            gate.problems.append(f"sixlasso sweep exited {report['exit_code']}: {err.strip()}")
            gate.failed = gate.attempted
        return Sweep(threads, traced, report, gate, wall_s, steal)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def git_revision() -> str:
    # the ceiling keeps git from reporting an enclosing repository
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def machine_facts() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy < 1.25 has no dict mode
        blas = {}
    return {
        "nproc": nproc(),
        "blas": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_revision": git_revision(),
        "env": {k: os.environ.get(k) for k in ENV_FACTS},
    }


def median(values) -> float:
    return float(statistics.median(values))


def measure(workload: dict, seed: int, seconds: float, start: float,
            deadline: float) -> list[Sweep]:
    """Serial sweeps of the workload until `seconds` have passed, at least MIN_SWEEPS."""
    sweeps: list[Sweep] = []
    while (len(sweeps) < MIN_SWEEPS
           or time.perf_counter() - start + sweeps[-1].wall_s <= seconds):
        spec = dict(workload, base_seed=1000 * seed + len(sweeps))
        sweeps.append(run_sweep(spec, 0, deadline))
    return sweeps


def measure_traced(workload: dict, seed: int, seconds: float, start: float,
                   deadline: float, spans_path: Path) -> list[list[Sweep]]:
    """Rounds of (serial, pooled, serial traced) sweeps on shared inputs.

    At least MIN_ROUNDS; every other round runs in reverse order, so that a
    slow first sweep does not always land on the same mode.
    """
    modes = [(0, None), (0, spans_path)]
    if nproc() >= POOL_WORKERS:
        modes.insert(1, (POOL_WORKERS, None))
    rounds: list[list[Sweep]] = []
    while (len(rounds) < MIN_ROUNDS
           or time.perf_counter() - start + sum(s.wall_s for s in rounds[-1]) <= seconds):
        spec = dict(workload, base_seed=1000 * seed + len(rounds))
        order = modes if len(rounds) % 2 == 0 else modes[::-1]
        rounds.append([run_sweep(spec, threads, deadline, spans) for threads, spans in order])
    return rounds


def end_to_end(sweeps: list[Sweep], ok_share: float) -> dict:
    return {
        "sweep_s": (median(s.report["sweep_s"] for s in sweeps), "s"),
        "cpu_s": (median(s.report["cpu_s"] for s in sweeps), "s"),
        "peak_rss_mb": (median(s.report["max_rss_kb"] / 1024.0 for s in sweeps), "MB"),
        "setup_s": (median(s.report["setup_s"] for s in sweeps), "s"),
        "trial_ok_share": (ok_share, "fraction"),
    }


def n100_metrics(sweep: Sweep) -> dict:
    """Unconverged lasso fits and the most iterations at highdim's n = 100."""
    its = [r.iterations for r in sweep.gate.records]
    return {
        "solver.n100.unconverged": (float(sweep.gate.unconverged), "count"),
        "solver.n100.iterations_max": (float(max(its, default=0)), "count"),
    }


def per_layer(rounds: list[list[Sweep]]) -> tuple[dict, list[str]]:
    traced = [s for r in rounds for s in r if s.traced]
    serial = [s.report["sweep_s"] for r in rounds for s in r if not s.traced and s.threads == 0]
    pooled = [s for r in rounds for s in r if s.threads >= 2]
    metrics = {}
    for name, (_, unit) in traced[0].report["layers"].items():
        metrics[name] = (median(s.report["layers"][name][0] for s in traced), unit)
    metrics.update(trial_metrics([ms for s in traced for ms in s.report["trial_ms"]]))
    if pooled:
        eff = median(serial) / (pooled[0].threads * median(s.report["sweep_s"] for s in pooled))
    else:
        eff = 0.0  # no pool on a one-core machine: reported as absent
    metrics["experiments.pool.efficiency"] = (eff, "ratio")
    metrics["cli.output_bytes"] = (median(s.report["output_bytes"] for s in traced), "bytes")
    metrics["bench.trace_overhead_s"] = (
        median(s.report["sweep_s"] for s in traced) - median(serial), "s")
    absent = sorted({a for s in traced for a in s.report["absent"]})
    if not pooled:
        absent.append("experiments.pool")
    return metrics, absent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    start = time.perf_counter()
    if not (SRC / "sixlasso" / "cli.py").is_file():
        print(f"error: no sixlasso sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"

    deadline = start + HARD_LIMIT_S
    n100 = None
    try:
        if args.trace:
            rounds = measure_traced(workload, args.seed, args.seconds, start, deadline,
                                    OUT / f"spans-{args.workload}-seed{args.seed}.json")
            sweeps = [s for r in rounds for s in r]
            # a fit that stops at max_iter is the measured defect here, so it
            # is counted, not failed; every other check still applies
            n100 = run_sweep(dict(HIGHDIM_N100, base_seed=1000 * args.seed + N100_SEED),
                             0, deadline, require_converged=False)
        else:
            sweeps = measure(workload, args.seed, args.seconds, start, deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    gated = sweeps + ([n100] if n100 else [])
    attempted = sum(s.gate.attempted for s in gated)
    failed = sum(s.gate.failed for s in gated)
    problems = [p for s in gated for p in s.gate.problems]
    if args.trace:
        for r in rounds:
            if any(s.gate.stripped != r[0].gate.stripped for s in r):
                problems.append("serial, pooled and traced records differ beyond runtime_ms")
        metrics, absent = per_layer(rounds)
        metrics.update(n100_metrics(n100))
    else:
        if args.workload == "fig1":
            problems += shape_problems([rec for s in sweeps for rec in s.gate.records])
        metrics, absent = end_to_end(sweeps, (attempted - failed) / attempted), []
    steal = median(s.steal_share for s in gated)

    result = {
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    facts = machine_facts()
    detail = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, facts=facts, problems=problems, absent_layers=absent,
                  steal_share=steal,
                  sweeps=[{"threads": s.threads, "traced": s.traced, "wall_s": s.wall_s,
                           "steal_share": s.steal_share,
                           **{k: v for k, v in s.report.items()
                              if k not in ("layers", "trial_ms")}}
                          for s in gated])
    (OUT / f"result-{tag}.json").write_text(json.dumps(detail, indent=1), encoding="utf-8")

    for p in problems:
        print(f"problem: {p}", file=sys.stderr)
    print("facts " + json.dumps(facts))
    # wall times drift with steal; compare runs only at similar steal
    print(f"steal share (median over sweeps) = {steal:.4f}")
    if absent:
        print("absent layers: " + ", ".join(absent))
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
