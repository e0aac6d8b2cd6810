"""Golden trajectory fingerprints pinned as literals.

Each case fixes (instance params, generator seed, config, run seed) and pins
what the run must reproduce exactly: iterations, expansions, worsening and a
sha256 of the final assignment.  The trajectory tests elsewhere compare a
build with itself; these catch drift across refactors of the search state
and across numpy bit-stream changes (see README "Reproducibility notes").
Every run has a step budget above its pinned iteration count, so a search
that drifts fails instead of running on.
"""

from __future__ import annotations

import hashlib

from rbcsp.modelrb import ModelRbParams, generate_forced
from rbcsp.target import TargetSpec
from rbcsp.ulsa import UlsaConfig, run


def fingerprint(rec) -> tuple[int, int, int, str]:
    text = ",".join(str(v) for v in rec.assignment)
    digest = hashlib.sha256(text.encode()).hexdigest()
    return rec.iterations, rec.stats.expansions, rec.stats.worsening, digest


def test_plain_solve():
    instance, _ = generate_forced(ModelRbParams(n=18), 3)
    rec = run(instance, UlsaConfig(max_iterations=10_000), 0)
    assert rec.success and rec.restarts == 0
    assert fingerprint(rec) == (
        4998, 1641, 1363,
        "66ec52d9eaa31cda8db2da06989913aac2af972c023a47d26b38ef88457d70eb",
    )


def test_target_run():
    instance, _ = generate_forced(ModelRbParams(n=20), 4)
    rec = run(instance, UlsaConfig(max_iterations=1_000,
                                  target=TargetSpec(size=18, conflict_cap=4)), 0)
    assert rec.success
    assert rec.subset == [1, 2, 3, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16,
                          17, 18, 19]
    assert fingerprint(rec) == (
        250, 90, 60,
        "90aebba5d035cdf009169860e3e8d0f70e4978dc134ca40e74e6b884c4881ef5",
    )


def test_restart_run():
    instance, _ = generate_forced(ModelRbParams(n=20), 4)
    rec = run(instance, UlsaConfig(max_iterations=10_000, restart_interval=50), 0)
    assert rec.success and rec.restarts == 53
    assert fingerprint(rec) == (
        2687, 993, 606,
        "f5571898e6acdba551c84736c184e35a50d944a6fd40dafe05f9c98e91cf16dc",
    )


def test_budget_run_tracking_best_across_restarts():
    instance, _ = generate_forced(ModelRbParams(n=20), 4)
    config = UlsaConfig(max_iterations=400, restart_interval=150)
    rec = run(instance, config, 0, track_best=True)
    assert not rec.success and rec.assignment is None
    assert (rec.iterations, rec.restarts, rec.best_conflicts) == (400, 2, 3)
    assert (rec.stats.expansions, rec.stats.worsening) == (147, 92)
    text = ",".join(str(v) for v in rec.best_assignment)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "4ff00c6c1a7b9aeecea0a374e637ae500db6a863c9c5d4ab8ee2ca0d35a36bad")
    assert rec.best_violated == [12, 14, 115]
