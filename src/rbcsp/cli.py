"""Command-line interface: gen / solve / bench / convert / recover.

Every subcommand is deterministic given its flags and seeds.  When a seed
flag is omitted one is drawn from OS entropy and echoed in the output, so a
run can always be reproduced.  Data goes to stdout or --out files; errors
produce a one-line diagnostic on stderr and exit status 1.
"""

from __future__ import annotations

import argparse
import json
import os
import secrets
import sys
from typing import Optional

from . import __version__
from .bench import (
    FitError,
    Rtd,
    fit_exponential,
    fit_linear_early,
    run_many,
    summarize,
    summarize_best_conflicts,
    write_hist_csv,
    write_rtd_csv,
)
from .core import Assignment, CspInstance, dumps_csp, loads_csp
from .misbridge import csp_to_mis, emit_dimacs, mis_to_csp, parse_dimacs
from .modelrb import (
    PHASE_ALPHA,
    PHASE_P,
    PHASE_R,
    ModelRbParams,
    check_sample_size,
    generate,
    generate_forced,
)
from .target import TargetSpec, check_conflict_cap
from .ulsa import RunRecord, UlsaConfig, run

PRNG_ID = "numpy PCG64 (seeded via SeedSequence)"


def _fresh_seed() -> int:
    seed = secrets.randbits(48)
    print(f"seed not given; using entropy seed {seed}", file=sys.stderr)
    return seed


# Texts are UTF-8 whatever the locale, and are written as bytes, to a file
# or to stdout, so the locale's encoding never refuses one.
def _read_text(path: str) -> str:
    with open(path, "r", encoding="utf-8") as f:
        return f.read()


def _write_text(path: Optional[str], text: str) -> None:
    data = text.encode("utf-8")
    if path is not None and path != "-":
        with open(path, "wb") as f:
            f.write(data)
        return
    sys.stdout.flush()
    out = getattr(sys.stdout, "buffer", None)  # None on a text-only stream, e.g. StringIO
    if out is None:
        sys.stdout.write(text)
    else:
        out.write(data)
        out.flush()


def _path_text(path: str) -> str:
    """A command-line path as a comment writes it: its bytes decoded as
    UTF-8, any byte that is not UTF-8 backslash-escaped, so that the text
    stays UTF-8 and reads back."""
    return os.fsencode(path).decode("utf-8", "backslashreplace")


def _load_instance(path: str) -> tuple[CspInstance, Optional[Assignment]]:
    return loads_csp(_read_text(path))


# -- subcommands ---------------------------------------------------------------


def _cmd_gen(args) -> int:
    params = ModelRbParams(n=args.n, alpha=args.alpha, r=args.r, p=args.p)
    check_sample_size(params)  # refuse before drawing an entropy seed
    seed = args.seed if args.seed is not None else _fresh_seed()
    comments = [
        f"model RB n={params.n} alpha={params.alpha} r={params.r} p={params.p}",
        f"derived d={params.d} constraints={params.m_constraints} "
        f"forbidden={params.forbidden_per_constraint}",
        f"seed {seed} forced={args.forced} prng {PRNG_ID}",
    ]
    if args.forced:
        instance, hidden = generate_forced(params, seed)
        text = dumps_csp(instance, solution=hidden, comments=comments)
    else:
        instance = generate(params, seed)
        text = dumps_csp(instance, comments=comments)
    _write_text(args.out, text)
    return 0


def _build_config(args, n: int) -> UlsaConfig:
    check_conflict_cap(args.conflict_cap)  # a bad cap exits 1 with or without a target
    target = None
    if args.target is not None:
        target = TargetSpec(size=args.target, conflict_cap=args.conflict_cap)
        target.removal_budget(n)  # validates against the instance
    return UlsaConfig(
        max_iterations=args.max_iters,
        target=target,
        restart_interval=args.restart_every,
    )


def _record_json(rec: RunRecord, path: str) -> dict:
    return {
        "instance": _path_text(path),
        "seed": rec.seed,
        "success": rec.success,
        "iterations": rec.iterations,
        "wall_time": rec.wall_time,
        "best_conflicts": rec.best_conflicts,
        "restarts": rec.restarts,
        "assignment": rec.assignment,
        "subset": rec.subset,
        "prng": PRNG_ID,
        "stats": {
            "iterations": rec.stats.iterations,
            "expansions": rec.stats.expansions,
            "worsening": rec.stats.worsening,
            "expansion_rate": rec.stats.expansion_rate,
            "worsening_rate": rec.stats.worsening_rate,
        },
    }


def _cmd_solve(args) -> int:
    instance, _ = _load_instance(args.infile)
    seed = args.seed if args.seed is not None else _fresh_seed()
    config = _build_config(args, instance.n)
    rec = run(instance, config, seed)
    print(json.dumps(_record_json(rec, args.infile), indent=2))
    return 0


def _cmd_bench(args) -> int:
    instance, _ = _load_instance(args.infile)
    base_seed = args.base_seed if args.base_seed is not None else _fresh_seed()
    config = _build_config(args, instance.n)
    records = run_many(instance, config, args.runs, base_seed,
                       workers=args.workers, track_best=True)
    summary = summarize(records)
    summary["base_seed"] = base_seed
    summary["instance"] = _path_text(args.infile)
    summary["prng"] = PRNG_ID

    rtd = Rtd.from_records(records)
    fit = None
    try:
        fit = fit_exponential(rtd)
        summary["exponential_fit"] = {"m": fit.m, "ks_statistic": fit.ks_statistic}
        lin = fit_linear_early(rtd)
        summary["early_linear_fit"] = {
            "slope": lin.slope,
            "intercept": lin.intercept,
            "r_squared": lin.r_squared,
        }
    except FitError:
        pass

    if args.rtd_out:
        write_rtd_csv(args.rtd_out, rtd, fit)
    best = summarize_best_conflicts(records)
    if args.hist_out:
        write_hist_csv(args.hist_out, best.histogram)
    summary["best_conflicts"] = {
        "min": best.min_conflicts,
        "runs_at_min": best.runs_at_min,
        "distinct_assignments": best.distinct_best_assignments,
        "distinct_conflict_sets": best.distinct_best_conflict_sets,
    }
    text = json.dumps(summary, indent=2)
    if args.summary_out:
        _write_text(args.summary_out, text + "\n")
        print(f"wrote summary to {_path_text(args.summary_out)}", file=sys.stderr)
    else:
        print(text)
    return 0


def _cmd_convert(args) -> int:
    if args.to_mis:
        instance, _ = _load_instance(args.infile)
        graph = csp_to_mis(instance)
        _write_text(args.out, emit_dimacs(
            graph, comments=[f"from {_path_text(args.infile)}: n={instance.n} d={instance.d}"]))
        return 0
    if args.block_size is None:
        print("error: --to-csp requires --block-size", file=sys.stderr)
        return 1
    return _recover_csp(args.infile, args.block_size, args.out)


def _cmd_recover(args) -> int:
    return _recover_csp(args.dimacs, args.d, args.out)


def _recover_csp(path: str, block_size: int, out: Optional[str]) -> int:
    instance = mis_to_csp(parse_dimacs(_read_text(path)), block_size)
    _write_text(out, dumps_csp(
        instance, comments=[f"recovered from {_path_text(path)} with block size {block_size}"]))
    return 0


# -- parser --------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rbcsp",
        description="Random binary CSP workbench: generate, solve, benchmark, convert.",
    )
    parser.add_argument("--version", action="version",
                        version=f"rbcsp {__version__} [{PRNG_ID}]")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a model RB instance")
    gen.add_argument("--n", type=int, required=True, help="variable count")
    gen.add_argument("--alpha", type=float, default=PHASE_ALPHA,
                     help="domain exponent (default: phase transition)")
    gen.add_argument("--r", type=float, default=PHASE_R,
                     help="constraint density (default: phase transition)")
    gen.add_argument("--p", type=float, default=PHASE_P,
                     help="disallowed fraction (default: phase transition)")
    gen.add_argument("--seed", type=int, default=None)
    gen.add_argument("--forced", action="store_true",
                     help="force satisfiability; records the hidden solution")
    gen.add_argument("--out", default=None, help="output path (default stdout)")
    gen.set_defaults(func=_cmd_gen)

    # the instance and search options shared by solve and bench
    search = argparse.ArgumentParser(add_help=False)
    search.add_argument("--in", dest="infile", required=True)
    search.add_argument("--max-iters", type=int, default=0,
                        help="iteration budget, 0 = unbounded (default)")
    search.add_argument("--target", type=int, default=None,
                        help="accept a conflict-free subset of this size")
    search.add_argument("--conflict-cap", type=int, default=8,
                        help="only check states with at most this many conflicts")
    search.add_argument("--restart-every", type=int, default=None,
                        help="reinitialize every N iterations")

    solve = sub.add_parser("solve", parents=[search],
                           help="run the local search solver")
    solve.add_argument("--seed", type=int, default=None)
    solve.set_defaults(func=_cmd_solve)

    bench = sub.add_parser("bench", parents=[search],
                           help="multi-run benchmark with RTD outputs")
    bench.add_argument("--runs", type=int, default=100)
    bench.add_argument("--base-seed", type=int, default=None)
    bench.add_argument("--workers", type=int, default=1)
    bench.add_argument("--rtd-out", default=None,
                       help="CSV: iterations, ecdf, fitted")
    bench.add_argument("--hist-out", default=None,
                       help="CSV: conflicts, runs (best per run)")
    bench.add_argument("--summary-out", default=None,
                       help="JSON summary path (default: stdout)")
    bench.set_defaults(func=_cmd_bench)

    convert = sub.add_parser("convert", help="convert between CSP and MIS graph")
    direction = convert.add_mutually_exclusive_group(required=True)
    direction.add_argument("--to-mis", action="store_true")
    direction.add_argument("--to-csp", action="store_true")
    convert.add_argument("--in", dest="infile", required=True)
    convert.add_argument("--block-size", type=int, default=None,
                         help="domain size d (required for --to-csp)")
    convert.add_argument("--out", default=None)
    convert.set_defaults(func=_cmd_convert)

    recover = sub.add_parser(
        "recover", help="recover a CSP from a block-structured DIMACS graph")
    recover.add_argument("dimacs", help="DIMACS ascii graph file")
    recover.add_argument("--d", type=int, required=True, help="block size")
    recover.add_argument("--out", default=None)
    recover.set_defaults(func=_cmd_recover)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except FileNotFoundError as exc:
        print(f"error: no such file: {exc.filename}", file=sys.stderr)
        return 1
    except (ValueError, OSError, MemoryError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
