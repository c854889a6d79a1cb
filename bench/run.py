"""Benchmark for chebdiff2d: one workload, one run, one JSON line of results.

Usage (from the repository root):

    python3 bench/run.py --workload sweep-topweight --seed 0 --seconds 35 --trace 0

The library is imported from ``src/`` next to this directory.  Set-up is
timed in fresh interpreters (start, ``import chebdiff2d``, input generation
and file writing), three times, and reported as the median.  The run then
repeats whole rounds of the workload until ``--seconds`` have passed (so it
measures at least that long, and at most one round longer), checks the
outputs, and prints

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

as the last line of standard output: end-to-end metrics with ``--trace 0``,
per-layer metrics from wrapped public functions with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SOURCE = ROOT / "src"
WORKDIR = ROOT / ".bench_work"
WORKLOAD_NAMES = ("sweep-topweight", "commands")
SETUP_REPEATS = 3
END_TO_END = {"setup_s": "s", "pass_s": "s", "peak_rss_mb": "MB"}

# BLAS threads capped at the processors this process may use; set before
# numpy loads so every run, and every set-up child, uses the same count.
_THREADS = str(len(os.sched_getaffinity(0)))
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = _THREADS


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0,
                        help="input seed; 0 gives the acceptance seeds 42 and 1000")
    parser.add_argument("--seconds", type=float, default=35.0,
                        help="measured time to fill with whole rounds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: wrap the library and report per-layer metrics")
    parser.add_argument("--setup-only", action="store_true",
                        help="prepare the inputs and exit (the timed set-up)")
    return parser.parse_args(argv)


def _import_library():
    if not (SOURCE / "chebdiff2d" / "__init__.py").is_file():
        sys.exit(f"error: {SOURCE / 'chebdiff2d'} not found; run from a "
                 "checkout of the repository")
    sys.path.insert(0, str(SOURCE))
    import workloads
    return workloads


def time_setup(args, workdir: Path) -> list[float]:
    """Wall time of SETUP_REPEATS fresh interpreters that only prepare."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed)]
    walls = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        proc = subprocess.run(cmd, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True, timeout=170)
        walls.append(time.perf_counter() - start)
        if proc.returncode != 0:
            sys.exit(f"error: set-up failed ({proc.returncode}):\n{proc.stderr}")
    return walls


def main(argv=None) -> int:
    args = parse_args(argv)
    workloads = _import_library()  # fails here, before any work, without src/
    workload = workloads.WORKLOADS[args.workload]
    workdir = WORKDIR / args.workload
    workdir.mkdir(parents=True, exist_ok=True)
    if args.setup_only:
        workload.prepare(args.seed, workdir)
        return 0

    setup_walls = time_setup(args, workdir)
    import tracing

    tracer = setup_tracer = None
    if args.trace:
        setup_tracer = tracing.Tracer()
        setup_tracer.install()
    # The set-up children have just written this seed's input files; a traced
    # run writes them again, to time the writers in its own process.
    inputs = workload.prepare(args.seed, workdir, write=bool(args.trace))
    if args.trace:
        setup_tracer.uninstall()
        tracer = tracing.Tracer()
        tracer.install()

    pass_walls, attempted, failed = [], 0, 0
    start = time.perf_counter()
    while True:
        if tracer is not None:
            tracer.current_op += 1
        result = workload.run_round(inputs)
        pass_walls += result.pass_walls
        attempted += result.attempted
        failed += result.failed
        elapsed = time.perf_counter() - start
        if elapsed >= args.seconds:
            break
    if tracer is not None:
        tracer.uninstall()
        tracer.save(workdir / f"spans-seed{args.seed}.npz")

    problems = workload.check(inputs, result.outputs)
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)

    if args.trace:
        values = tracer.metrics(elapsed, len(pass_walls))
        setup = setup_tracer.metrics(1.0, 1)
        values.update({f"setup.{g}.ms": setup[f"{g}.ms"] for g in tracing.SETUP_GROUPS})
        metrics = {name: {"value": value, "unit": tracing.unit(name)}
                   for name, value in values.items()}
    else:
        values = {
            "setup_s": statistics.median(setup_walls),
            "pass_s": statistics.median(pass_walls),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {name: {"value": value, "unit": END_TO_END[name]}
                   for name, value in values.items()}
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
