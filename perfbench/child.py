"""Run one `sixlasso sweep` in this fresh interpreter and report its cost.

Usage: python3 perfbench/child.py JOB_JSON

The job file names the sweep spec, the output directory and whether to
trace.  The child does the set-up a sweep needs (import sixlasso.cli,
resolve the link constant, draw the signal), notes the wall clock, then
calls `sixlasso.cli.main(["sweep", ...])` and prints one JSON line: exit
code, set-up end time, sweep wall time, CPU time of itself and its pool
workers, and max RSS.  A traced child also writes its spans and per-layer
metrics.  SIXLASSO_THREADS and PYTHONPATH come from the environment.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time


def _cpu(usage) -> float:
    return usage.ru_utime + usage.ru_stime


def _peak_rss_kb() -> int:
    """Peak RSS of this process since it started (VmHWM).

    Not ru_maxrss: Linux carries the spawning process's peak over exec, so
    ru_maxrss of a small sweep would report the bench process instead.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main(job_path: str) -> int:
    with open(job_path, encoding="utf-8") as handle:
        job = json.load(handle)
    from sixlasso import cli
    from sixlasso.experiments import SweepSpec, resolve_lambda, sweep_signal

    spec = SweepSpec(**job["spec"])
    resolve_lambda(spec)
    sweep_signal(spec)
    ready_wall = time.time()

    tracer = None
    if job["trace"]:
        from spans import Tracer, layer_metrics, trial_ms

        tracer = Tracer()
        tracer.install()

    argv = ["sweep", "--config", job["config"], "--out", job["records"]]
    self0 = resource.getrusage(resource.RUSAGE_SELF)
    kids0 = resource.getrusage(resource.RUSAGE_CHILDREN)
    t0 = time.perf_counter()
    code = cli.main(argv)
    sweep_s = time.perf_counter() - t0
    self1 = resource.getrusage(resource.RUSAGE_SELF)
    kids1 = resource.getrusage(resource.RUSAGE_CHILDREN)

    report = {
        "exit_code": code,
        "ready_wall": ready_wall,
        "sweep_s": sweep_s,
        # pool workers are joined by the time cli.main returns, so their
        # CPU and peak RSS show up under RUSAGE_CHILDREN
        "cpu_s": _cpu(self1) - _cpu(self0) + _cpu(kids1) - _cpu(kids0),
        "max_rss_kb": max(_peak_rss_kb(), kids1.ru_maxrss),
        "output_bytes": sum(os.path.getsize(p) for p in job["outputs"] if os.path.isfile(p)),
    }
    if tracer is not None:
        report["layers"] = layer_metrics(tracer, spec.test_n)
        report["trial_ms"] = trial_ms(tracer)
        report["absent"] = tracer.absent
        tracer.dump(job["spans"])
    sys.stdout.write(json.dumps(report) + "\n")
    return 0


# spawned pool workers import this file as __mp_main__; the guard keeps them
# from running a sweep of their own
if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
