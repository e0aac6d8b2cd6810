"""The benchmark's three workloads: pinned inputs, set-up, one timed pass,
a traced pass with its per-layer metrics, and the correctness checks.

Each workload's fixed work is one *pass*; the benchmark repeats identical
passes in a closed loop with one client and reports medians.  Every pass
runs on pinned seeds, so every pass of every run, and of every later
commit that keeps ULSA's trajectories, does the same work.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import pickle
import statistics
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from rbcsp import (
    Rtd,
    TargetSpec,
    UlsaConfig,
    cli,
    csp_to_mis,
    dumps_csp,
    emit_dimacs,
    fit_exponential,
    fit_linear_early,
    generate_forced,
    loads_csp,
    mis_to_csp,
    parse_dimacs,
    phase_transition_params,
    run,
    run_many,
    summarize,
)

from checks import Golden, Tally, digest, mis_edge_count, recount, run_fingerprint, witness_problems
from tracing import NullTracer, Tracer, replay, replay_mismatches

# Fresh run seeds and instances for the unpinned correctness check are
# FRESH_SEED_BASE + --seed, far from every pinned seed.
FRESH_SEED_BASE = 1_000_000
FRESH_BUDGET = 100_000


@dataclass(frozen=True)
class Config:
    """Pinned inputs of one workload size.

    runs: runs per batch (rtd_n40).
    target: required subset size (target_n100).
    """

    n: int
    gen_seed: int
    run_seed: int = 0
    runs: int = 1
    target: int = 0
    conflict_cap: int = 8
    max_iters: int = 0


@dataclass
class PassResult:
    seconds: float
    run_seconds: list[float]
    iterations: int


def _counters(stats) -> list[int]:
    return [stats.iterations, stats.expansions, stats.worsening]


def _table_bytes(tables) -> int:
    """Bytes held in the ndarrays of the search tables, directly or in lists."""
    total = 0
    for name in getattr(tables, "__slots__", None) or vars(tables):
        value = getattr(tables, name, None)
        for item in value if isinstance(value, (list, tuple)) else [value]:
            if isinstance(item, np.ndarray):
                total += item.nbytes
    return total


def _build_tables(instance):
    # the per-instance search tables have no public entry point; this is the
    # one private name the benchmark reaches
    return instance._tables


def _ulsa_metrics(reps) -> dict:
    iters = sum(r.iterations for r in reps)
    expansions = sum(r.stats.expansions for r in reps)
    worsening = sum(r.stats.worsening for r in reps)
    step_s = sum(r.step_s for r in reps)
    return {
        "ulsa.step_us": step_s / iters * 1e6,
        "ulsa.init_state_s": statistics.median(r.init_s for r in reps),
        "ulsa.it_per_s": iters / step_s,
        "ulsa.iterations": iters,
        "ulsa.expansions": expansions,
        "ulsa.worsening": worsening,
        "ulsa.expansion_rate": expansions / iters,
        "ulsa.worsening_rate": worsening / iters,
    }


class Workload:
    name = ""
    configs: dict[str, Config] = {}

    def __init__(self, cfg: Config, size: str, outdir: Path, tally: Tally) -> None:
        self.cfg = cfg
        self.outdir = outdir
        self.tally = tally
        self.golden = Golden(self.name, size, cfg.gen_seed, cfg.run_seed)
        self.params = phase_transition_params(cfg.n)

    def check(self, what: str, problems) -> None:
        self.tally.record(f"{self.name} {what}", problems)

    def _generate(self, tr: Tracer):
        with tr.span("modelrb.generate_forced", n=self.cfg.n, seed=self.cfg.gen_seed):
            return generate_forced(self.params, self.cfg.gen_seed)

    def _text_metrics(self, tr: Tracer) -> dict:
        return {
            "modelrb.generate_forced_s": tr.median("modelrb.generate_forced"),
            "core.dumps_csp_s": tr.median("core.dumps_csp"),
            "core.loads_csp_s": tr.median("core.loads_csp"),
        }


class RtdN40(Workload):
    """bench.run_many solves a forced n=40 instance to completion over a fixed
    set of run seeds with 2 pool workers, then summarises and fits the RTD."""

    name = "rtd_n40"
    configs = {
        # generator seed 15 and run seeds 5000.. are the acceptance suite's
        # desk-scale n=40 fixture; these 20 runs take 1.0k-90k iterations,
        # 524k in all
        "full": Config(n=40, gen_seed=15, run_seed=5000, runs=20, max_iters=5_000_000),
        "toy": Config(n=20, gen_seed=1, run_seed=5000, runs=16, max_iters=5_000_000),
    }

    def setup(self, tr: Tracer) -> None:
        instance, self.hidden = self._generate(tr)
        with tr.span("core.dumps_csp"):
            self.text = dumps_csp(instance, self.hidden)
        with tr.span("core.loads_csp"):
            self.instance, _ = loads_csp(self.text)
        with tr.span("core.tables"):
            self.tables = _build_tables(self.instance)

    def check_setup(self) -> None:
        problems = self.golden.compare("instance", digest(self.text))
        if recount(self.instance, self.hidden.as_list()):
            problems.append("hidden solution has conflicts after the text round trip")
        self.check("set-up", problems)

    @property
    def workers(self) -> int:
        return min(2, os.cpu_count() or 1)

    def run_pass(self, tr: Tracer) -> PassResult:
        cfg = self.cfg
        start = time.perf_counter()
        with tr.span("bench.run_many", runs=cfg.runs, workers=self.workers):
            records = run_many(self.instance, UlsaConfig(max_iterations=cfg.max_iters),
                               cfg.runs, cfg.run_seed, workers=self.workers,
                               track_best=True)
        with tr.span("bench.summary"):
            summary = summarize(records)
            rtd = Rtd.from_records(records)
            fit = fit_exponential(rtd)
            fit_linear_early(rtd)
            low = min(r.best_conflicts for r in records)
            at_min = [r for r in records if r.best_conflicts == low]
            best = (low, len(at_min), len({tuple(r.best_assignment) for r in at_min}),
                    len({tuple(r.best_violated) for r in at_min}))
        seconds = time.perf_counter() - start
        self.records = records

        for rec in records:
            problems = [] if rec.success else ["ended at budget"]
            problems += witness_problems(self.instance, rec.assignment, None, None)
            if recount(self.instance, rec.best_assignment) != rec.best_conflicts:
                problems.append("best_conflicts disagrees with a recount of best_assignment")
            problems += self.golden.compare(f"run {rec.seed}", run_fingerprint(
                rec.iterations, _counters(rec.stats), rec.assignment, None))
            self.check(f"run {rec.seed}", problems)
        total = sum(r.iterations for r in records)
        problems = []
        if summary["successes"] != cfg.runs or rtd.num_runs != cfg.runs:
            problems.append("summary miscounts successes")
        if summary["total_iterations"] != total:
            problems.append("summary miscounts iterations")
        if abs(fit.m - total / cfg.runs) > 1e-9 * fit.m:
            problems.append("exponential fit m is not the mean")
        if best[0] != 0 or best[1] != cfg.runs:
            problems.append(f"best-conflict summary {best} for solved runs")
        self.check("summary", problems)
        return PassResult(seconds, [r.wall_time for r in records], total)

    def traced(self, tr: Tracer) -> dict:
        with tr.span("pass", workload=self.name):
            self.run_pass(tr)
        records = self.records
        reps, plain_s, traced_s = [], 0.0, 0.0
        for rec in records:
            # the untraced reference runs in this process too, so that both
            # sides find the tables built and have a core to themselves
            plain = run(self.instance, UlsaConfig(max_iterations=self.cfg.max_iters),
                        rec.seed, track_best=True)
            with tr.span("run", seed=rec.seed) as sp:
                rep = replay(tr, self.instance, rec.seed, budget=self.cfg.max_iters,
                             track_best=True)
            reps.append(rep)
            plain_s += plain.wall_time
            traced_s += sp["end"] - sp["start"]
            problems = [] if plain.iterations == rec.iterations else [
                "a run in this process differs from the same run in the pool"]
            self.check(f"replay {rec.seed}", problems + replay_mismatches(
                rep, rec.iterations, _counters(rec.stats), rec.assignment, rec.subset,
                rec.best_conflicts, rec.best_assignment))
        run_many_s = tr.durations("bench.run_many")[-1]
        busy = sum(r.wall_time for r in records)
        out = self._text_metrics(tr)
        out.update({
            "core.csp_text_mb": len(self.text) / 1e6,
            "core.tables_s": tr.median("core.tables"),
            "core.tables_mb": _table_bytes(self.tables) / 1e6,
            "core.pickle_mb": len(pickle.dumps(self.instance)) / 1e6,
            "bench.run_many_s": run_many_s,
            "bench.busy_s": busy,
            "bench.parallel_eff": busy / (self.workers * run_many_s),
            "bench.pool_overhead_s": run_many_s - busy / self.workers,
            "bench.summary_s": tr.durations("bench.summary")[-1],
        })
        out.update(_ulsa_metrics(reps))
        # 1 - traced it/s over untraced it/s, for the same iterations
        out["trace.overhead_frac"] = 1.0 - plain_s / traced_s
        return out

    def fresh_check(self, seed: int) -> None:
        rec = run(self.instance, UlsaConfig(max_iterations=FRESH_BUDGET),
                  FRESH_SEED_BASE + seed, track_best=True)
        problems = witness_problems(self.instance, rec.assignment, None, None) \
            if rec.success else []
        if recount(self.instance, rec.best_assignment) != rec.best_conflicts:
            problems.append("best_conflicts disagrees with a recount of best_assignment")
        self.check(f"fresh run {FRESH_SEED_BASE + seed}", problems)


class TargetN100(Workload):
    """In-process `rbcsp solve --target 95 --conflict-cap 8` on a forced n=100
    instance written once to a file; every solve re-parses the file."""

    name = "target_n100"
    configs = {
        # generator seed 1: run seeds 0-9 meet T=95 within 24.7k-590k
        # iterations; seed 0 takes 144k, near their median
        "full": Config(n=100, gen_seed=1, run_seed=0, target=95, max_iters=3_000_000),
        "toy": Config(n=30, gen_seed=1, run_seed=0, target=28, max_iters=3_000_000),
    }

    def setup(self, tr: Tracer) -> None:
        self.instance, self.hidden = self._generate(tr)
        with tr.span("core.dumps_csp"):
            self.text = dumps_csp(self.instance, self.hidden)
        self.path = self.outdir / f"{self.name}-n{self.cfg.n}-g{self.cfg.gen_seed}.csp"
        self.path.write_text(self.text)

    def check_setup(self) -> None:
        problems = self.golden.compare("instance", digest(self.text))
        if recount(self.instance, self.hidden.as_list()):
            problems.append("hidden solution has conflicts")
        self.check("set-up", problems)

    @property
    def spec(self) -> TargetSpec:
        return TargetSpec(size=self.cfg.target, conflict_cap=self.cfg.conflict_cap)

    def run_pass(self, tr: Tracer) -> PassResult:
        """One `rbcsp solve`; keeps (seconds, parsed JSON record or None)."""
        cfg, seed = self.cfg, self.cfg.run_seed
        argv = ["solve", "--in", str(self.path), "--seed", str(seed),
                "--target", str(cfg.target), "--conflict-cap", str(cfg.conflict_cap),
                "--max-iters", str(cfg.max_iters)]
        buf = io.StringIO()
        with tr.span("cli.main", seed=seed):
            start = time.perf_counter()
            with contextlib.redirect_stdout(buf):
                code = cli.main(argv)
            seconds = time.perf_counter() - start
        self.solve = (seconds, None)
        if code != 0:
            self.check(f"solve {seed}", [f"exit status {code}"])
            return PassResult(seconds, [seconds], 0)
        out = json.loads(buf.getvalue())
        problems = [] if out["success"] else ["ended at budget"]
        problems += witness_problems(self.instance, out["assignment"], out["subset"],
                                     cfg.target)
        counters = [out["stats"][k] for k in ("iterations", "expansions", "worsening")]
        problems += self.golden.compare(f"solve {seed}", run_fingerprint(
            out["iterations"], counters, out["assignment"], out["subset"]))
        self.check(f"solve {seed}", problems)
        self.solve = (seconds, out)
        return PassResult(seconds, [seconds], out["iterations"])

    def traced(self, tr: Tracer) -> dict:
        with tr.span("pass", workload=self.name):
            self.run_pass(tr)
        seconds, record = self.solve
        if record is None:
            raise RuntimeError("the solve failed, so there is nothing to replay")
        seed = self.cfg.run_seed
        text = self.path.read_text()
        with tr.span("replay", seed=seed):
            with tr.span("core.loads_csp"):
                instance, _ = loads_csp(text)
            with tr.span("core.tables") as sp:
                self.tables = _build_tables(instance)
            rep = replay(tr, instance, seed, target=self.spec, budget=self.cfg.max_iters)
        counters = [record["stats"][k] for k in ("iterations", "expansions", "worsening")]
        self.check(f"replay {seed}", replay_mismatches(
            rep, record["iterations"], counters, record["assignment"], record["subset"],
            record["best_conflicts"]))
        # the record's wall_time covers the table build, init and search
        traced_s = sp["end"] - sp["start"] + rep.init_s + rep.step_s + rep.check_s
        out = self._text_metrics(tr)
        out.update({
            "core.csp_text_mb": len(self.text) / 1e6,
            "core.tables_s": tr.median("core.tables"),
            "core.tables_mb": _table_bytes(self.tables) / 1e6,
            "core.pickle_mb": len(pickle.dumps(self.instance)) / 1e6,
            "target.check_target_calls": rep.check_calls,
            "target.check_target_s": rep.check_s,
            "target.check_target_hit_ratio": rep.check_hits / rep.check_calls,
            "cli.overhead_s": seconds - record["wall_time"],
            "trace.overhead_frac": 1.0 - record["wall_time"] / traced_s,
        })
        out.update(_ulsa_metrics([rep]))
        return out

    def fresh_check(self, seed: int) -> None:
        rec = run(self.instance, UlsaConfig(max_iterations=FRESH_BUDGET // 2,
                                            target=self.spec),
                  FRESH_SEED_BASE + seed, track_best=True)
        problems = witness_problems(self.instance, rec.assignment, rec.subset,
                                    self.cfg.target) if rec.success else []
        if recount(self.instance, rec.best_assignment) != rec.best_conflicts:
            problems.append("best_conflicts disagrees with a recount of best_assignment")
        self.check(f"fresh solve {FRESH_SEED_BASE + seed}", problems)


class ConvertN100(Workload):
    """The text and graph pipeline at frb100-40 scale with no search:
    dumps_csp, loads_csp, csp_to_mis, emit_dimacs, parse_dimacs, mis_to_csp."""

    name = "convert_n100"
    configs = {
        # the same n=100 instance as target_n100; conversion cost depends on
        # n, d and m only, not on how hard the instance is
        "full": Config(n=100, gen_seed=1),
        "toy": Config(n=20, gen_seed=1),
    }

    def setup(self, tr: Tracer) -> None:
        self.instance, self.hidden = self._generate(tr)
        self.first_pass = True

    def check_setup(self) -> None:
        if recount(self.instance, self.hidden.as_list()):
            self.check("set-up", ["hidden solution has conflicts"])

    def _pipeline(self, tr: Tracer, instance, hidden, independent: bool):
        """One timed pass of the six stages -> (seconds, fingerprints, sizes, problems).

        Checks run between the stages, outside the timed calls, and each
        intermediate is dropped once checked, as a user's pipeline would
        drop it; `independent` adds the costly independent checks.
        """
        spent = 0.0

        def stage(name, fn, *args):
            nonlocal spent
            with tr.span(name):
                start = time.perf_counter()
                result = fn(*args)
                spent += time.perf_counter() - start
            return result

        problems = []
        text = stage("core.dumps_csp", dumps_csp, instance, hidden)
        parsed, solution = stage("core.loads_csp", loads_csp, text)
        if parsed != instance or solution != hidden:
            problems.append("loads_csp(dumps_csp(x)) differs from x")
        sizes = {"core.csp_text_mb": len(text) / 1e6}
        prints = {"instance": digest(text)}
        del text
        graph = stage("misbridge.csp_to_mis", csp_to_mis, parsed)
        del parsed, solution
        if independent and graph.num_edges != mis_edge_count(instance):
            problems.append("edge count differs from an independent count")
        dimacs = stage("misbridge.emit_dimacs", emit_dimacs, graph)
        sizes.update({"misbridge.edges": graph.num_edges,
                      "misbridge.dimacs_mb": len(dimacs) / 1e6})
        prints.update({"edges": graph.num_edges, "dimacs": digest(dimacs)})
        reparsed = stage("misbridge.parse_dimacs", parse_dimacs, dimacs)
        del dimacs
        if reparsed.edges != graph.edges or reparsed.num_vertices != graph.num_vertices:
            problems.append("parse_dimacs(emit_dimacs(g)) differs from g")
        recovered = stage("misbridge.mis_to_csp", mis_to_csp, reparsed, instance.d)
        if independent:
            d = instance.d
            chosen = [v * d + x for v, x in enumerate(hidden.as_list())]
            if any((u, w) in reparsed.edges for i, u in enumerate(chosen)
                   for w in chosen[i + 1:]):
                problems.append("hidden solution is not an independent set")
            del reparsed
            if csp_to_mis(recovered) != graph:
                problems.append("csp_to_mis(mis_to_csp(...)) differs from g")
        return spent, prints, sizes, problems

    def run_pass(self, tr: Tracer) -> PassResult:
        seconds, prints, self.sizes, problems = self._pipeline(
            tr, self.instance, self.hidden, self.first_pass)
        self.first_pass = False
        for key, value in prints.items():
            problems += self.golden.compare(key, value)
        self.check("pipeline", problems)
        return PassResult(seconds, [seconds], 0)

    def traced(self, tr: Tracer) -> dict:
        with tr.span("pass", workload=self.name):
            self.run_pass(tr)
        out = self._text_metrics(tr)
        for stage in ("csp_to_mis", "emit_dimacs", "parse_dimacs", "mis_to_csp"):
            out[f"misbridge.{stage}_s"] = tr.median(f"misbridge.{stage}")
        out.update(self.sizes)
        return out

    def fresh_check(self, seed: int) -> None:
        params = phase_transition_params(min(self.cfg.n, 40))
        instance, hidden = generate_forced(params, FRESH_SEED_BASE + seed)
        problems = self._pipeline(NullTracer(), instance, hidden, True)[3]
        self.check(f"fresh pipeline {FRESH_SEED_BASE + seed}", problems)


WORKLOADS = {cls.name: cls for cls in (RtdN40, TargetN100, ConvertN100)}
