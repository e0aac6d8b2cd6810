"""rbcsp benchmark: one workload per invocation, closed loop, checked outputs.

    python3 perfbench/run.py --workload rtd_n40 --seed 1 --seconds 20 --trace 0

Builds nothing: it imports the package from the checkout's `src/` directory
and fails with exit status 1, printing no result, when that is missing.
With `--trace 0` it times set-up and repeated identical passes of the
workload's fixed work and prints the end-to-end metrics named in
BENCHMARK.json; with `--trace 1` it runs one traced pass, replays its runs
through the public ULSA step functions, and prints the per-layer metrics.
The last line of standard output is always the JSON result.  See
perfbench/README.md for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
from dataclasses import replace
from pathlib import Path

# one BLAS/OpenMP thread per process, set before numpy is first imported, so
# the load never asks for more threads than there are cores; pool workers
# inherit the environment
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
SETUP_REPS = 3
MIN_PASSES = 3
LIMITS = ("shared machine: other tenants' load is neither controlled nor measured; "
          "no hardware counters; no control of CPU frequency, caches or the kernel")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["rtd_n40", "target_n100", "convert_n100"])
    parser.add_argument("--seed", type=int, required=True,
                        help="seed of the fresh-input correctness check")
    parser.add_argument("--seconds", type=float, required=True,
                        help="time box of the closed loop of passes")
    parser.add_argument("--trace", type=int, choices=[0, 1], required=True)
    parser.add_argument("--gen-seed", type=int, default=None,
                        help="generator seed (default: the pinned one)")
    parser.add_argument("--run-seed", type=int, default=None,
                        help="base run seed (default: the pinned one)")
    parser.add_argument("--toy", action="store_true",
                        help="toy-size inputs, for the self-check")
    return parser.parse_args(argv)


def import_program():
    src = ROOT / "src"
    if not (src / "rbcsp" / "__init__.py").is_file():
        sys.exit(f"error: no rbcsp package under {src}; run from a checkout of the repository")
    sys.path.insert(0, str(src))


def set_up(workload, tracer) -> list[float]:
    """Set up SETUP_REPS times; the seconds each took."""
    seconds = []
    for _ in range(SETUP_REPS):
        with tracer.span("setup"):
            start = time.perf_counter()
            workload.setup(tracer)
            seconds.append(time.perf_counter() - start)
    workload.check_setup()
    return seconds


def timed_passes(workload, tracer, tally, seconds: float) -> list:
    """Identical passes for `seconds`, and at least MIN_PASSES of them."""
    passes = []
    start = time.perf_counter()
    while len(passes) < MIN_PASSES or (time.perf_counter() - start
                                       + statistics.median(p.seconds for p in passes)
                                       <= seconds):
        done = tally.attempt(f"{workload.name} pass {len(passes) + 1}", workload.run_pass,
                             tracer)
        if done is None:
            break
        passes.append(done)
    return passes


def probe_layers(workloads, skip, wanted, metrics, notes, tally) -> list[dict]:
    """Fill per-layer metrics of layers the measured workload does not drive
    from toy-size traced runs of the other workloads; returns their spans."""
    from tracing import Tracer

    spans = []
    for other in workloads:
        missing = [m for m in wanted if m not in metrics]
        if other is skip or not missing:
            continue
        tracer = Tracer()
        probe = other(other.configs["toy"], "toy", OUT_DIR, tally)
        with tracer.span("workload", workload=other.name, size="toy"):
            probe.setup(tracer)
            probe.check_setup()
            measured = tally.attempt(f"{other.name} toy traced pass", probe.traced, tracer)
        for key, value in (measured or {}).items():
            if key in missing:
                metrics[key] = value
                notes[key] = f"from a toy {other.name} run"
        spans += [dict(s, workload=f"{other.name} (toy)") for s in tracer.spans]
    return spans


def main(argv=None) -> int:
    args = parse_args(argv)
    import_program()
    # these import the package, so they follow import_program
    from checks import Tally
    from report import contract, environment, end_to_end_metrics, print_table
    from tracing import NullTracer, Tracer
    from workloads import WORKLOADS

    names = contract(ROOT / "BENCHMARK.json")
    OUT_DIR.mkdir(exist_ok=True)
    size = "toy" if args.toy else "full"
    cls = WORKLOADS[args.workload]
    cfg = cls.configs[size]
    if args.gen_seed is not None:
        cfg = replace(cfg, gen_seed=args.gen_seed)
    if args.run_seed is not None:
        cfg = replace(cfg, run_seed=args.run_seed)
    tally = Tally()
    workload = cls(cfg, size, OUT_DIR, tally)
    env = environment(ROOT, args, cfg, LIMITS)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-toy' if args.toy else ''}"

    tracer = Tracer() if args.trace else NullTracer()
    notes: dict[str, str] = {}
    pass_s: list[float] = []
    with tracer.span("workload", workload=args.workload):
        setup_s = set_up(workload, tracer)
        if args.trace:
            metrics = tally.attempt(f"{args.workload} traced pass", workload.traced,
                                    tracer) or {}
        else:
            passes = timed_passes(workload, tracer, tally, args.seconds)
            if not passes:
                sys.exit(f"error: no pass completed: {tally.problems}")
            self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
            metrics, notes = end_to_end_metrics(passes, setup_s, max(self_kb, child_kb))
            pass_s = [p.seconds for p in passes]
    if args.trace:
        wanted = names["per_layer"]
        spans = [dict(s, workload=args.workload) for s in tracer.spans]
        spans += probe_layers(WORKLOADS.values(), cls, wanted, metrics, notes, tally)
        with open(OUT_DIR / f"{stem}.spans.jsonl", "w") as f:
            for rec in spans:
                f.write(json.dumps(rec) + "\n")
    else:
        wanted = names["end_to_end"]
    tally.attempt(f"{args.workload} fresh-input check", workload.fresh_check, args.seed)
    metrics["fail_frac"] = tally.failed / tally.attempted

    missing = [m for m in wanted if m not in metrics]
    if missing:
        sys.exit(f"error: no value for {missing}: {tally.problems}")
    units = {**names["units"], "it_per_s": "1/s", "run_s_p90": "s", "fail_frac": "ratio"}
    print_table(args.workload, metrics, units, notes, env, tally)
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m: {"value": metrics[m], "unit": units[m]} for m in wanted},
    }
    with open(OUT_DIR / f"{stem}.json", "w") as f:
        json.dump({"environment": env, "result": result, "all_metrics": metrics,
                   "notes": notes, "setup_seconds": setup_s, "pass_seconds": pass_s,
                   "problems": tally.problems,
                   "fingerprints": workload.golden.seen}, f, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
