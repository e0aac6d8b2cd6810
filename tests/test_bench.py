"""Harness tests: run batches, RTD fits against synthetic data, histograms."""

from __future__ import annotations

import concurrent.futures
import csv
import dataclasses
import sys

import numpy as np
import pytest

from rbcsp import _native, bench
from rbcsp.bench import (
    FitError,
    Rtd,
    aggregate_stats,
    best_conflicts_histogram,
    fit_exponential,
    fit_linear_early,
    run_many,
    summarize,
    write_hist_csv,
    write_rtd_csv,
)
from rbcsp.core import CspInstance
from rbcsp.modelrb import generate_forced, phase_transition_params
from rbcsp.ulsa import UlsaConfig


def fields(record) -> dict:
    out = dataclasses.asdict(record)
    del out["wall_time"]
    return out


@pytest.fixture(scope="module")
def small_instance():
    params = phase_transition_params(15)
    inst, _ = generate_forced(params, seed=0)
    return inst


class TestRunMany:
    def test_unconstrained_all_trivial_successes(self):
        inst = CspInstance(4, 3, ())
        records = run_many(inst, UlsaConfig(), num_runs=10, base_seed=5)
        assert len(records) == 10
        assert all(r.success and r.iterations == 0 for r in records)
        assert [r.seed for r in records] == list(range(5, 15))

    def test_repeatable_batches(self, small_instance):
        cfg = UlsaConfig(max_iterations=30_000)
        a = run_many(small_instance, cfg, num_runs=6, base_seed=100)
        b = run_many(small_instance, cfg, num_runs=6, base_seed=100)
        assert [r.iterations for r in a] == [r.iterations for r in b]

    def test_prefix_property_of_seeded_batches(self, small_instance):
        # runs depend only on their seed, so a longer batch extends a shorter one
        cfg = UlsaConfig(max_iterations=30_000)
        short = run_many(small_instance, cfg, num_runs=3, base_seed=40)
        long = run_many(small_instance, cfg, num_runs=6, base_seed=40)
        assert [r.iterations for r in long[:3]] == [r.iterations for r in short]

    def test_parallel_equals_serial(self, small_instance):
        cfg = UlsaConfig(max_iterations=30_000)
        serial = run_many(small_instance, cfg, num_runs=8, base_seed=60, workers=1)
        parallel = run_many(small_instance, cfg, num_runs=8, base_seed=60, workers=2)
        assert [r.iterations for r in serial] == [r.iterations for r in parallel]
        assert [r.success for r in serial] == [r.success for r in parallel]

    def test_threads_processes_and_serial_give_identical_records(self, monkeypatch):
        # threads when the kernel is loaded, processes with Python steps
        # otherwise; the threads start on an instance whose tables are not
        # built yet
        if _native.kernel() is None:
            pytest.skip("the step kernel could not be built here")
        instance, _ = generate_forced(phase_transition_params(15), seed=3)
        cfg = UlsaConfig(max_iterations=500, restart_interval=150)

        def records(workers):
            return [fields(r) for r in run_many(instance, cfg, num_runs=6, base_seed=80,
                                                workers=workers, track_best=True)]

        with monkeypatch.context() as m:
            m.setattr(bench, "ProcessPoolExecutor", None)  # no processes
            assert "_tables" not in vars(instance)
            # four threads for six runs, switching as often as they can
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)
            try:
                threaded = records(4)
            finally:
                sys.setswitchinterval(interval)
        serial = records(1)
        with monkeypatch.context() as m:
            m.setattr(_native, "_lib", None)
            pooled = records(2)
        assert threaded == serial == pooled
        assert any(r["success"] for r in serial) and not all(r["success"] for r in serial)

    def test_pools_start_no_more_workers_than_runs(self, monkeypatch, small_instance):
        # threads when the kernel is loaded, processes otherwise; each pool
        # here records its size and maps serially, so no worker starts
        sizes = []

        class SerialPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables, chunksize=1):
                return map(fn, *iterables)

        cfg = UlsaConfig(max_iterations=2000)
        serial = [fields(r) for r in run_many(small_instance, cfg, num_runs=2, base_seed=3)]
        monkeypatch.setattr(bench, "ProcessPoolExecutor", SerialPool)
        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", SerialPool)
        for lib in (_native.kernel(), None):
            monkeypatch.setattr(_native, "_lib", lib)
            pooled = run_many(small_instance, cfg, num_runs=2, base_seed=3, workers=5000)
            assert [fields(r) for r in pooled] == serial
        assert sizes == [2, 2]

    def test_summary_fields(self, small_instance):
        cfg = UlsaConfig(max_iterations=50_000)
        records = run_many(small_instance, cfg, num_runs=5, base_seed=7)
        summary = summarize(records)
        assert summary["runs"] == 5
        assert 0.0 <= summary["success_rate"] <= 1.0
        if summary["successes"]:
            assert summary["mean_iterations"] > 0

    def test_aggregate_rates_are_ratio_of_sums(self, small_instance):
        cfg = UlsaConfig(max_iterations=20_000)
        records = run_many(small_instance, cfg, num_runs=4, base_seed=21)
        total = aggregate_stats(records)
        assert total.iterations == sum(r.stats.iterations for r in records)
        assert total.expansions == sum(r.stats.expansions for r in records)
        expected_rate = total.expansions / total.iterations
        assert summarize(records)["expansion_rate"] == pytest.approx(expected_rate)


class TestRtd:
    def test_sorted_with_stacked_ties(self):
        rtd = Rtd((5, 3, 5, 9))
        assert rtd.iterations == (3, 5, 5, 9)
        assert rtd.ecdf.tolist() == [0.25, 0.5, 0.75, 1.0]

    def test_built_from_successes_only(self, small_instance):
        cfg = UlsaConfig(max_iterations=200)
        records = run_many(small_instance, cfg, num_runs=6, base_seed=300)
        rtd = Rtd.from_records(records)
        assert rtd.num_runs == sum(1 for r in records if r.success)


class TestFitExponential:
    def test_mean_is_exact(self):
        fit = fit_exponential(Rtd((100, 100)))
        assert fit.m == 100.0

    def test_requires_two_points(self):
        with pytest.raises(FitError):
            fit_exponential(Rtd((42,)))

    def test_recovers_synthetic_exponential(self):
        gen = np.random.Generator(np.random.PCG64(2024))
        data = gen.exponential(scale=1e6, size=1000).astype(int) + 1
        fit = fit_exponential(Rtd(tuple(int(x) for x in data)))
        assert abs(fit.m - 1e6) / 1e6 < 0.05
        assert fit.ks_statistic < 0.05

    def test_ks_detects_non_exponential(self):
        # constant data is maximally far from its exponential fit
        fit = fit_exponential(Rtd((1000,) * 50))
        assert fit.ks_statistic > 0.3


class TestFitLinearEarly:
    def test_exact_line(self):
        # ecdf points (1, 1/3), (2, 2/3), (3, 1) lie on y = x/3
        fit = fit_linear_early(Rtd((1, 2, 3)), quantile=1.0)
        assert fit.slope == pytest.approx(1 / 3)
        assert fit.intercept == pytest.approx(0.0, abs=1e-12)
        assert fit.r_squared == pytest.approx(1.0)

    def test_requires_three_points_below_quantile(self):
        with pytest.raises(FitError):
            fit_linear_early(Rtd((1, 2, 3)), quantile=0.4)

    def test_synthetic_slope_near_inverse_mean(self):
        gen = np.random.Generator(np.random.PCG64(99))
        data = gen.exponential(scale=1e5, size=2000).astype(int) + 1
        rtd = Rtd(tuple(int(x) for x in data))
        fit = fit_linear_early(rtd, quantile=0.2)
        assert abs(fit.slope - 1e-5) / 1e-5 < 0.15
        assert abs(fit.intercept) < 0.05

    def test_quantile_validated(self):
        with pytest.raises(ValueError):
            fit_linear_early(Rtd((1, 2, 3)), quantile=0.0)


class TestBestConflictsHistogram:
    def test_unconstrained_all_zero_bucket(self):
        inst = CspInstance(3, 2, ())
        result = best_conflicts_histogram(inst, iteration_budget=10,
                                          num_runs=8, base_seed=1)
        assert result.histogram == {0: 8}
        assert result.min_conflicts == 0 and result.runs_at_min == 8

    def test_counts_partition_runs(self, small_instance):
        result = best_conflicts_histogram(small_instance, iteration_budget=300,
                                          num_runs=12, base_seed=50)
        assert result.total_runs == 12
        assert all(k >= 0 for k in result.histogram)

    def test_runs_use_full_budget_unless_solved(self, small_instance):
        cfg = UlsaConfig(max_iterations=300)
        records = run_many(small_instance, cfg, num_runs=12, base_seed=50,
                           track_best=True)
        for rec in records:
            if rec.success:
                assert rec.best_conflicts == 0
            else:
                assert rec.iterations == 300

    def test_mass_shifts_down_with_budget(self, small_instance):
        lo = best_conflicts_histogram(small_instance, iteration_budget=100,
                                      num_runs=15, base_seed=70)
        hi = best_conflicts_histogram(small_instance, iteration_budget=4000,
                                      num_runs=15, base_seed=70)
        mean_lo = sum(k * v for k, v in lo.histogram.items()) / 15
        mean_hi = sum(k * v for k, v in hi.histogram.items()) / 15
        assert mean_hi <= mean_lo

    def test_witness_bookkeeping(self, small_instance):
        result = best_conflicts_histogram(small_instance, iteration_budget=200,
                                          num_runs=10, base_seed=90)
        assert 1 <= result.distinct_best_assignments <= result.runs_at_min
        assert 1 <= result.distinct_best_conflict_sets <= result.runs_at_min


class TestCsvOutput:
    def test_rtd_csv(self, tmp_path):
        rtd = Rtd((10, 20, 30, 40))
        fit = fit_exponential(rtd)
        path = tmp_path / "rtd.csv"
        write_rtd_csv(path, rtd, fit)
        with open(path) as f:
            rows = list(csv.reader(f))
        assert rows[0] == ["iterations", "ecdf", "fitted"]
        assert len(rows) == 5
        assert float(rows[1][1]) == 0.25
        assert 0.0 < float(rows[1][2]) < 1.0

    def test_hist_csv(self, tmp_path):
        path = tmp_path / "hist.csv"
        write_hist_csv(path, {3: 5, 1: 2})
        with open(path) as f:
            rows = list(csv.reader(f))
        assert rows == [["conflicts", "runs"], ["1", "2"], ["3", "5"]]
