"""The search tables: the compiled and the numpy build of the packed rows,
each slot's oriented toward its other endpoint, the gathered rows unpacked
from them, the reverse slots, and the compiled greedy start.

Each build is checked against an oracle that lays the slots out with plain
loops over `instance.constraints`, sharing no code with `_FlatTables`.
"""

from __future__ import annotations

import dataclasses
import random
import sys

import numpy as np
import pytest

from rbcsp import _native
from rbcsp.bench import run_many
from rbcsp.core import Constraint, CspInstance, _FlatTables
from rbcsp.modelrb import ModelRbParams, generate_forced
from rbcsp.ulsa import UlsaConfig, init_state

from conftest import random_instance, recount_violated


def oracle(instance: CspInstance):
    """(inc_start, slot_cid, slot_other, rows, rev): each variable's slots in
    constraint id order, rows[s * d + w, u] set iff slot s's constraint
    disallows u for its variable when the other endpoint holds w, and rev[s]
    the constraint's slot at the other endpoint."""
    n, d, cons = instance.n, instance.d, instance.constraints
    inc_start, slot_cid, slot_other, slot_of = [0], [], [], {}
    for v in range(n):
        for cid, c in enumerate(cons):
            for side, (mine, other) in enumerate(((c.var_a, c.var_b), (c.var_b, c.var_a))):
                if mine == v:
                    slot_of[cid, side] = len(slot_cid)
                    slot_cid.append(cid)
                    slot_other.append(other)
        inc_start.append(len(slot_cid))
    rows = np.zeros((len(slot_cid) * d, d), dtype=np.uint8)
    for cid, c in enumerate(cons):
        for a, b in c.disallowed:
            rows[slot_of[cid, 0] * d + b, a] = 1
            rows[slot_of[cid, 1] * d + a, b] = 1
    rev = [0] * len(slot_cid)
    for (cid, side), s in slot_of.items():
        rev[s] = slot_of[cid, 1 - side]
    return inc_start, slot_cid, slot_other, rows, rev


def far_rows(rev: list[int], d: int) -> np.ndarray:
    """The oracle rows that the rows of bits hold, in order: bits row s·d + u,
    the flags of the other endpoint's values when s's own variable holds u,
    is oracle row rev[s]·d + u."""
    return (np.array(rev, dtype=np.int64)[:, None] * d + np.arange(d)).ravel()


def packed(rows: np.ndarray) -> np.ndarray:
    """Bit u % 64 of word u // 64 of entry r is rows[r, u], in ceil(d / 64)
    words per entry; a word's bits are distinct, so their sum is their or."""
    d = rows.shape[1]
    words = -(-d // 64)
    wide = np.zeros((len(rows), 64 * words), dtype=np.uint64)
    wide[:, :d] = rows
    return (wide.reshape(len(rows), words, 64) << np.arange(64, dtype=np.uint64)).sum(
        axis=2, dtype=np.uint64)


def hub(degree: int, d: int, k: int) -> CspInstance:
    # variable 0 joins every other variable; each constraint disallows k pairs
    rng = random.Random(degree)
    pairs = [(a, b) for a in range(d) for b in range(d)]
    return CspInstance(degree + 1, d, [Constraint(0, v, tuple(rng.sample(pairs, k)))
                                       for v in range(1, degree + 1)])


def duplicates_and_isolated() -> CspInstance:
    # constraints 0 and 3 are the same; variables 6-8 touch no constraint
    cons = random_instance(random.Random(5), n=6, d=3, m=12).constraints
    return CspInstance(9, 3, (cons[0], *cons[1:3], cons[0], *cons[3:]))


INSTANCES = [
    pytest.param(lambda: CspInstance(3, 4, ()), id="m0"),
    pytest.param(lambda: random_instance(random.Random(2), n=6, d=2, m=10), id="d2"),
    pytest.param(lambda: random_instance(random.Random(63), n=7, d=63, m=15), id="d63"),
    pytest.param(lambda: random_instance(random.Random(64), n=7, d=64, m=15), id="d64"),
    pytest.param(lambda: random_instance(random.Random(65), n=7, d=65, m=15), id="d65"),
    pytest.param(lambda: random_instance(random.Random(128), n=7, d=128, m=15), id="d128"),
    pytest.param(lambda: random_instance(random.Random(129), n=7, d=129, m=15), id="d129"),
    pytest.param(duplicates_and_isolated, id="duplicates-isolated"),
    pytest.param(lambda: hub(600, 5, 6), id="hub600"),
    pytest.param(lambda: generate_forced(ModelRbParams(n=20), 3)[0], id="forced20"),
]


@pytest.fixture
def builder():
    if _native.kernel() is None:
        pytest.skip("the compiled kernel could not be built here")


def numpy_tables(monkeypatch, instance: CspInstance) -> _FlatTables:
    with monkeypatch.context() as m:
        m.setattr(_native, "_lib", None)
        return _FlatTables(instance)


@pytest.mark.parametrize("make", INSTANCES)
def test_native_and_numpy_bits_equal_the_oracle(builder, monkeypatch, make):
    instance = make()
    inc_start, slot_cid, slot_other, rows, rev = oracle(instance)
    native = _FlatTables(instance)
    fallback = numpy_tables(monkeypatch, instance)
    assert native.bits.dtype == fallback.bits.dtype == np.uint64
    assert native.bits.tobytes() == fallback.bits.tobytes()
    for tables in (native, fallback):
        assert np.array_equal(tables.bits, packed(rows[far_rows(rev, instance.d)]))
        assert tables.inc_start.tolist() == inc_start
        assert tables.slot_cid.tolist() == slot_cid
        assert tables.slot_other.tolist() == slot_other
        assert tables.rev.tolist() == rev


@pytest.mark.parametrize("make", [
    pytest.param(lambda: random_instance(random.Random(13), n=7, d=3, m=15), id="d3"),
    *INSTANCES])
def test_byte_view_equals_the_oracle_rows(monkeypatch, make):
    instance = make()
    d = instance.d
    rows, rev = oracle(instance)[3:]
    # every oracle row s·d + w in order, then in a shuffled order with
    # repeats, as the Python gathers pick them: row base[s] + w of bits
    shuffled = np.random.default_rng(d).integers(0, max(len(rows), 1), 2 * len(rows))
    for tables in (_FlatTables(instance), numpy_tables(monkeypatch, instance)):
        assert tables.bits.shape == (len(rows), -(-d // 64))
        assert tables.base.tolist() == [r * d for r in rev]
        at = np.repeat(tables.base, d) + np.tile(np.arange(d), len(rev))
        for picked in (np.arange(len(rows)), shuffled):
            flags = tables.flags(at[picked])
            assert flags.dtype == np.uint8 and np.array_equal(flags, rows[picked])


@pytest.mark.parametrize("make", [
    pytest.param(lambda: random_instance(random.Random(13), n=7, d=3, m=15), id="d3"),
    pytest.param(lambda: random_instance(random.Random(14), n=7, d=64, m=15), id="d64"),
    pytest.param(lambda: random_instance(random.Random(15), n=7, d=65, m=15), id="d65"),
    pytest.param(lambda: random_instance(random.Random(16), n=7, d=129, m=15), id="d129"),
    pytest.param(duplicates_and_isolated, id="duplicates-isolated"),
])
def test_rev_is_an_involution_onto_the_transposed_relation(builder, monkeypatch, make):
    # rev[s] is the same constraint's slot at the other endpoint: flag u of
    # row (s, w) is the constraint's verdict on (u at s's variable, w at the
    # other), which is flag w of row (rev[s], u)
    instance = make()
    d = instance.d
    rows = oracle(instance)[3]
    for tables in (_FlatTables(instance), numpy_tables(monkeypatch, instance)):
        rev = tables.rev
        assert rev.dtype == np.int32 and len(rev) == 2 * instance.num_constraints
        assert np.array_equal(rev[rev], np.arange(len(rev)))
        assert np.array_equal(tables.slot_cid[rev], tables.slot_cid)
        # the far slot's other endpoint is the variable that owns s
        owner = np.repeat(np.arange(instance.n), np.diff(tables.inc_start))
        assert np.array_equal(tables.slot_other[rev], owner)
        for s, r in enumerate(rev.tolist()):
            assert np.array_equal(rows[s * d:(s + 1) * d], rows[r * d:(r + 1) * d].T), s


@pytest.fixture
def kernel():
    if _native.kernel() is None:
        pytest.skip("the step kernel could not be built here")


@pytest.mark.parametrize("make", [
    pytest.param(lambda: generate_forced(ModelRbParams(n=25), 2)[0], id="forced25"),
    pytest.param(lambda: random_instance(random.Random(3), n=9, d=64, m=40), id="d64"),
    pytest.param(lambda: random_instance(random.Random(4), n=9, d=65, m=40), id="d65"),
    pytest.param(lambda: random_instance(random.Random(5), n=9, d=129, m=40), id="d129"),
    pytest.param(duplicates_and_isolated, id="duplicates-isolated"),
    pytest.param(lambda: hub(600, 4, 5), id="hub600"),
])
def test_kernel_start_equals_python_start(kernel, monkeypatch, make):
    instance = make()
    for seed in range(25):
        fast_rng = np.random.Generator(np.random.PCG64(seed))
        fast = init_state(instance, fast_rng)
        slow_rng = np.random.Generator(np.random.PCG64(seed))
        with monkeypatch.context() as m:
            m.setattr(_native, "_lib", None)
            slow = init_state(instance, slow_rng)
        assert fast.x.tolist() == slow.x.tolist(), seed
        assert fast.violated_ids() == slow.violated_ids(), seed
        assert fast.violated_ids() == sorted(recount_violated(instance, fast.x))
        assert fast_rng.random() == slow_rng.random(), seed


def test_threaded_restarts_at_d65_equal_serial_records(kernel):
    # at d > 64 each greedy start and each step keeps its per-word masks on
    # its own thread's stack while the GIL is released; threads restarting
    # side by side must not share them
    instance = random_instance(random.Random(6), n=40, d=65, m=300)
    cfg = UlsaConfig(max_iterations=300, restart_interval=5)

    def records(workers):
        out = []
        for r in run_many(instance, cfg, num_runs=8, base_seed=30, workers=workers,
                          track_best=True):
            out.append(dataclasses.asdict(r))
            del out[-1]["wall_time"]
        return out

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threaded = [records(4) for _ in range(2)]
    finally:
        sys.setswitchinterval(interval)
    serial = records(1)
    assert all(r["restarts"] > 0 and not r["success"] for r in serial)
    assert threaded == [serial] * 2
