"""Metric names from BENCHMARK.json, the environment record, and the printout."""

from __future__ import annotations

import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys

import numpy as np

from workloads import FRESH_SEED_BASE


def contract(path) -> dict:
    """Metric names of each kind, and the unit of every metric, from BENCHMARK.json."""
    spec = json.loads(path.read_text())
    return {
        "end_to_end": [m["name"] for m in spec["end_to_end"]],
        "per_layer": [m["name"] for m in spec["per_layer"]],
        "units": {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]},
    }


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit(root) -> str:
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or os.path.realpath(lines[0]) != str(root):
        return "unknown (not a git checkout)"
    return lines[1]


def _source_sha(root) -> str:
    """Hash of the package sources, which identifies the code when git cannot."""
    h = hashlib.sha256()
    for path in sorted((root / "src" / "rbcsp").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def environment(root, args, cfg, limits: str) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "commit": _git_commit(root),
        "source_sha": _source_sha(root),
        "workload": args.workload,
        "size": "toy" if args.toy else "full",
        "seed": args.seed,
        "gen_seed": cfg.gen_seed,
        "run_seed": cfg.run_seed,
        "fresh_seed": FRESH_SEED_BASE + args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "limits": limits,
    }


def end_to_end_metrics(passes, setup_s, peak_kb: int):
    """End-to-end metrics of the untraced passes, and a note on each."""
    # every pass repeats the same runs, so each run's median over the passes
    # is its time with the machine's noise damped
    per_run = [statistics.median(ts) for ts in zip(*(p.run_seconds for p in passes))]
    metrics = {
        "setup_s": statistics.median(setup_s),
        "wall_s": statistics.median(p.seconds for p in passes),
        "run_s_p50": statistics.median(per_run),
        "peak_rss_mb": peak_kb * 1024 / 1e6,
    }
    notes = {
        "setup_s": f"median of {len(setup_s)} set-ups",
        "wall_s": f"median of {len(passes)} passes",
        "run_s_p50": f"median of {len(per_run)} runs, each the median of {len(passes)} passes",
        "peak_rss_mb": "max of this process and its waited-for children",
    }
    iterations = sum(p.iterations for p in passes)
    if iterations:
        metrics["it_per_s"] = iterations / sum(p.seconds for p in passes)
        notes["it_per_s"] = f"{iterations} iterations"
    if len(passes[0].run_seconds) > 1:
        metrics["run_s_p90"] = statistics.quantiles(per_run, n=10)[8]
        beyond = len(per_run) - -(-9 * len(per_run) // 10)
        notes["run_s_p90"] = (f"{len(per_run)} runs, {beyond} beyond it: "
                              + ("valid" if beyond >= 10 else "not valid, needs 10 beyond"))
    return metrics, notes


def print_table(workload, metrics, units, notes, env, tally, out=sys.stdout) -> None:
    print(f"== {workload} ({env['size']}, trace {env['trace']}) ==", file=out)
    for name, value in metrics.items():
        note = notes.get(name, "")
        if name == "fail_frac":
            note = f"{tally.failed} of {tally.attempted} checked operations failed"
        print(f"{name:<32} {value:>16.8g} {units.get(name, ''):<6} {note}", file=out)
    for problem in tally.problems:
        print(f"FAILED {problem}", file=out)
    print("environment: " + json.dumps(env), file=out)
