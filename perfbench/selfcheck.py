"""Self-check of the benchmark: every workload at toy size, untraced and traced.

    python3 perfbench/selfcheck.py

Asserts that each run exits 0 with a correct result whose metrics are exactly
the ones BENCHMARK.json names, each with its unit; that the printout shows
every end-to-end metric with a unit; that the toy fingerprints match
golden.json; and that the benchmark refuses to run, printing no result, in a
directory holding only BENCHMARK.json and perfbench/.  Exits 1 on any failure.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
# end-to-end metrics each workload prints, beyond those BENCHMARK.json names
PRINTED = {
    "rtd_n40": ["it_per_s", "run_s_p90", "fail_frac"],
    "target_n100": ["it_per_s", "fail_frac"],
    "convert_n100": ["fail_frac"],
}


def contract_problems(spec: dict) -> list[str]:
    problems = []
    keys = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    if set(spec) != keys:
        problems.append(f"BENCHMARK.json keys {sorted(spec)}")
    names = [w["name"] for w in spec["workloads"]]
    metrics = spec["end_to_end"] + spec["per_layer"]
    names += [m["name"] for m in metrics]
    problems += [f"bad or repeated name {n!r}" for n in names
                 if not NAME.fullmatch(n) or names.count(n) > 1]
    problems += [f"bad unit {m['unit']!r}" for m in metrics if not UNIT.fullmatch(m["unit"])]
    problems += [f"bound of {m['name']} above 0.25" for m in spec["end_to_end"]
                 if not 0 < m["bound"] <= 0.25]
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    if not setup or setup[0]["unit"] != "s" or setup[0]["better"] != "lower":
        problems.append("setup_s missing or not in s, lower is better")
    elif setup[0]["bound"] != max(m["bound"] for m in spec["end_to_end"]):
        problems.append("setup_s does not have the largest bound")
    if not 2 <= len(spec["workloads"]) <= 8 or not 1 <= spec["run_seconds"] <= 60:
        problems.append("workload count or run_seconds out of range")
    return problems


def run_problems(spec: dict, golden: dict, workload: str, trace: int) -> list[str]:
    cmd = spec["command"] + ["--workload", workload, "--seed", "7", "--seconds", "1",
                             "--trace", str(trace), "--toy"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        return [f"exit status {proc.returncode}: {proc.stderr.strip()[-400:]}"]
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if not (result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1):
        problems.append(f"not correct: {result['attempted']} attempted, "
                        f"{result['failed']} failed")
    kind = spec["per_layer"] if trace else spec["end_to_end"]
    want = {m["name"]: m["unit"] for m in kind}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != want:
        problems.append(f"metrics/units differ from BENCHMARK.json: {sorted(set(got) ^ set(want))}")
    problems += [f"{k} is not a number" for k, v in result["metrics"].items()
                 if not isinstance(v["value"], (int, float)) or isinstance(v["value"], bool)]
    if not trace:
        table = {ln.split()[0]: ln.split() for ln in lines[:-1] if ln.strip()}
        for name in list(want) + PRINTED[workload]:
            row = table.get(name)
            if row is None or len(row) < 3 or not UNIT.fullmatch(row[2]):
                problems.append(f"{name} not printed with a unit")
    stem = f"{workload}-seed7-trace{trace}-toy"
    seen = json.loads((BENCH_DIR / "out" / f"{stem}.json").read_text())["fingerprints"]
    pinned = {k: v for k, v in golden[workload]["toy"].items() if k not in ("gen_seed", "run_seed")}
    if {k: seen.get(k) for k in pinned} != pinned:
        problems.append("toy fingerprints differ from golden.json")
    return problems


def refuses_without_program(spec: dict) -> list[str]:
    bare = BENCH_DIR / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(BENCH_DIR, bare / BENCH_DIR.name,
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = subprocess.run(spec["command"] + ["--workload", "rtd_n40", "--seed", "1",
                                                 "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        return ["ran without the program's sources"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    golden = json.loads((BENCH_DIR / "golden.json").read_text())
    checks = [("BENCHMARK.json", lambda: contract_problems(spec))]
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            checks.append((f"{workload} trace {trace}",
                           lambda w=workload, t=trace: run_problems(spec, golden, w, t)))
    checks.append(("no program", lambda: refuses_without_program(spec)))
    failed = 0
    for label, check in checks:
        problems = check()
        failed += bool(problems)
        print(f"{'FAIL' if problems else 'ok  '} {label}" + "".join(f"\n     {p}" for p in problems))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
