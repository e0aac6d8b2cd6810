"""Multi-run benchmarking: runtime distributions, fits, best-conflict histograms.

Runs are seeded base_seed+0 .. base_seed+num_runs-1 and are fully independent,
so serial and parallel execution produce identical reports (wall time aside).
Parallel runs take threads when the compiled step kernel is loaded, and
processes otherwise.
The runtime distribution (RTD) is the empirical CDF of successful-run
iteration counts; for stationary local search it is expected to track
1 − e^(−x/m), whose maximum-likelihood m is simply the sample mean.
"""

from __future__ import annotations

import csv
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial
from typing import Optional, Sequence

import numpy as np

from . import _native
from .core import CspInstance
from .ulsa import RunRecord, StepStats, UlsaConfig, run


class FitError(ValueError):
    """Not enough data to fit."""


def run_many(
    instance: CspInstance,
    config: UlsaConfig,
    num_runs: int,
    base_seed: int,
    workers: int = 1,
    track_best: bool = False,
) -> list[RunRecord]:
    """num_runs independent runs with seeds base_seed+i, ordered by seed."""
    if num_runs < 1:
        raise ValueError(f"need at least one run, got {num_runs}")
    if workers < 1:
        raise ValueError(f"need at least one worker, got {workers}")
    # a process pool forks all its workers at the first submit
    workers = min(workers, num_runs)
    one = partial(run, instance, config, track_best=track_best)
    seeds = range(base_seed, base_seed + num_runs)
    if workers <= 1:
        return list(map(one, seeds))
    if _native.kernel() is not None:
        # kernel calls release the GIL, so threads run in parallel and share
        # the instance's tables, built once here.  Imported here: at module
        # level it moved the peak RSS of processes that never use it
        from concurrent.futures import ThreadPoolExecutor

        instance._tables
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(one, seeds))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(one, seeds, chunksize=max(1, num_runs // (4 * workers))))


def aggregate_stats(records: Sequence[RunRecord]) -> StepStats:
    """Summed step counters; rates are ratios of sums, never averaged rates."""
    total = StepStats()
    for rec in records:
        total.merge(rec.stats)
    return total


def summarize(records: Sequence[RunRecord]) -> dict:
    """Aggregate report over a run batch (means, medians, rates)."""
    if not records:
        raise ValueError("no records to summarize")
    succ = [r for r in records if r.success]
    stats = aggregate_stats(records)
    out = {
        "runs": len(records),
        "successes": len(succ),
        "success_rate": len(succ) / len(records),
        "mean_time": float(np.mean([r.wall_time for r in records])),
        "expansion_rate": stats.expansion_rate,
        "worsening_rate": stats.worsening_rate,
        "total_iterations": sum(r.iterations for r in records),
    }
    if succ:
        iters = [r.iterations for r in succ]
        out["mean_iterations"] = float(np.mean(iters))
        out["median_iterations"] = float(np.median(iters))
    return out


@dataclass(frozen=True)
class Rtd:
    """Empirical runtime distribution over successful runs.

    Points are (iterations_i, i/N) for the sorted iteration counts; tied
    counts stack, and the last point sits at probability 1.
    """

    iterations: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "iterations", tuple(sorted(self.iterations)))

    @classmethod
    def from_records(cls, records: Sequence[RunRecord]) -> "Rtd":
        return cls(tuple(r.iterations for r in records if r.success))

    @property
    def num_runs(self) -> int:
        return len(self.iterations)

    @property
    def ecdf(self) -> np.ndarray:
        n = len(self.iterations)
        return np.arange(1, n + 1, dtype=float) / n


@dataclass(frozen=True)
class ExponentialFit:
    m: float
    ks_statistic: float

    def cdf(self, x) -> np.ndarray:
        return 1.0 - np.exp(-np.asarray(x, dtype=float) / self.m)


@dataclass(frozen=True)
class LinearFit:
    slope: float
    intercept: float
    r_squared: float


def fit_exponential(rtd: Rtd) -> ExponentialFit:
    """Fit 1 − e^(−x/m) by maximum likelihood (m = sample mean).

    The KS statistic is the largest gap between the empirical CDF and the
    fitted curve, checked on both sides of each step.
    """
    n = rtd.num_runs
    if n < 2:
        raise FitError(f"need at least 2 successful runs, got {n}")
    xs = np.asarray(rtd.iterations, dtype=float)
    m = float(xs.mean())
    if m <= 0:
        raise FitError("mean iteration count is zero; nothing to fit")
    model = 1.0 - np.exp(-xs / m)
    hi = rtd.ecdf
    lo = np.arange(0, n, dtype=float) / n
    ks = float(np.max(np.maximum(np.abs(hi - model), np.abs(model - lo))))
    return ExponentialFit(m=m, ks_statistic=ks)


def fit_linear_early(rtd: Rtd, quantile: float = 0.2) -> LinearFit:
    """Least-squares line through the ecdf points at probability <= quantile.

    The early region of 1 − e^(−x/m) is nearly linear (slope about 1/m), so a
    good line with intercept near 0 indicates constant success probability
    per iteration right from the start.
    """
    if not (0.0 < quantile <= 1.0):
        raise ValueError(f"quantile must be in (0, 1], got {quantile}")
    xs = np.asarray(rtd.iterations, dtype=float)
    ys = rtd.ecdf
    keep = ys <= quantile
    if keep.sum() < 3:
        raise FitError(f"need at least 3 ecdf points below quantile {quantile}, "
                       f"got {int(keep.sum())}")
    x, y = xs[keep], ys[keep]
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_res = float(np.sum(resid ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r_squared = 1.0 if ss_tot == 0.0 and ss_res == 0.0 else 1.0 - ss_res / ss_tot
    return LinearFit(slope=float(slope), intercept=float(intercept),
                     r_squared=r_squared)


@dataclass(frozen=True)
class BestConflictsResult:
    """Histogram of per-run minimum conflict counts over fixed-budget runs.

    Witness bookkeeping covers both notions of "the same best solution":
    identical assignments and identical violated-constraint sets.
    """

    histogram: dict[int, int]
    min_conflicts: int
    runs_at_min: int
    distinct_best_assignments: int
    distinct_best_conflict_sets: int

    @property
    def total_runs(self) -> int:
        return sum(self.histogram.values())


def best_conflicts_histogram(
    instance: CspInstance,
    iteration_budget: int,
    num_runs: int,
    base_seed: int,
    workers: int = 1,
) -> BestConflictsResult:
    """Run fixed budgets, tracking each run's lowest conflict count.

    A run that reaches zero conflicts stops there (the search has no
    violated constraint left to pick) and lands in bucket 0; every other run
    executes exactly iteration_budget iterations.
    """
    if iteration_budget < 1:
        raise ValueError(f"budget must be positive, got {iteration_budget}")
    config = UlsaConfig(max_iterations=iteration_budget)
    records = run_many(instance, config, num_runs, base_seed,
                       workers=workers, track_best=True)
    return summarize_best_conflicts(records)


def summarize_best_conflicts(records: Sequence[RunRecord]) -> BestConflictsResult:
    """Histogram and lowest-bucket witness counts of runs made with track_best."""
    counts = Counter(r.best_conflicts for r in records)
    low = min(counts)
    at_min = [r for r in records if r.best_conflicts == low]
    return BestConflictsResult(
        histogram=dict(sorted(counts.items())),
        min_conflicts=low,
        runs_at_min=len(at_min),
        distinct_best_assignments=len({tuple(r.best_assignment) for r in at_min}),
        distinct_best_conflict_sets=len({tuple(r.best_violated) for r in at_min}),
    )


# -- file output --------------------------------------------------------------


def write_rtd_csv(path, rtd: Rtd, fit: Optional[ExponentialFit] = None) -> None:
    """Columns: iterations, ecdf, fitted (fitted empty without a fit)."""
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["iterations", "ecdf", "fitted"])
        ecdf = rtd.ecdf
        for idx, x in enumerate(rtd.iterations):
            fitted = f"{float(fit.cdf(x)):.9f}" if fit is not None else ""
            writer.writerow([x, f"{ecdf[idx]:.9f}", fitted])


def write_hist_csv(path, histogram: dict[int, int]) -> None:
    """Columns: conflicts, runs."""
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["conflicts", "runs"])
        for conflicts, runs in sorted(histogram.items()):
            writer.writerow([conflicts, runs])
