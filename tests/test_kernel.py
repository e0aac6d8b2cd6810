"""The compiled step kernel: same records as the Python step; and for the
whole kernel, ctypes signatures that match its C prototypes, a private
cache, and a silent fallback of every stage when it cannot be built.

Each step case runs `run` twice, once with the kernel and once with
`_native._lib` set to None, which makes `run` take every step in Python, and
compares the two records field by field apart from the wall time.
"""

from __future__ import annotations

import ctypes
import dataclasses
import os
import random
import re
import shutil
import subprocess
import sys
import warnings

import numpy as np
import pytest

from rbcsp import _native, ulsa
from rbcsp.core import Constraint, CspInstance, _FlatTables, dumps_csp, loads_csp
from rbcsp.misbridge import csp_to_mis, emit_dimacs, mis_to_csp, parse_dimacs
from rbcsp.modelrb import ModelRbParams, generate_forced
from rbcsp.target import TargetSpec
from rbcsp.ulsa import StepStats, UlsaConfig, run

from conftest import cpu_flags, random_instance


def fields(record) -> dict:
    out = dataclasses.asdict(record)
    del out["wall_time"]
    return out


def python_run(monkeypatch, *args, **kwargs):
    with monkeypatch.context() as m:
        m.setattr(_native, "_lib", None)
        return run(*args, **kwargs)


@pytest.fixture
def kernel():
    if _native.kernel() is None:
        pytest.skip("the step kernel could not be built here")


def forced(n: int, seed: int) -> CspInstance:
    return generate_forced(ModelRbParams(n=n), seed)[0]


def isolated_and_duplicates() -> CspInstance:
    # variables 6-8 touch no constraint; constraints 0 and 3 are the same
    inst = random_instance(random.Random(5), n=6, d=3, m=12)
    cons = inst.constraints
    return CspInstance(9, 3, (cons[0], *cons[1:3], cons[0], *cons[3:]))


CASES = [
    # (instance, config, seeds, track_best)
    # a budget above the 10,876 steps its slowest seed takes, so a kernel
    # that miscounts fails here instead of running on
    (lambda: forced(18, 3), UlsaConfig(max_iterations=20_000), range(4), False),
    (lambda: forced(25, 2), UlsaConfig(max_iterations=3000), range(3), True),
    (lambda: forced(20, 4), UlsaConfig(max_iterations=1000, target=TargetSpec(18, 4)),
     range(4), False),
    (lambda: forced(25, 1), UlsaConfig(max_iterations=60_000,
                                      target=TargetSpec(23, 3)), range(2), True),
    # restart intervals that are not multiples of the 4096-uniform block
    (lambda: forced(20, 4), UlsaConfig(max_iterations=10_000, restart_interval=150),
     range(3), False),
    (lambda: forced(25, 2), UlsaConfig(max_iterations=20_000, restart_interval=1777),
     range(3), True),
    (lambda: forced(20, 4), UlsaConfig(max_iterations=400, restart_interval=150),
     range(3), True),
    (lambda: random_instance(random.Random(1), n=10, d=2, m=12),
     UlsaConfig(max_iterations=5000), range(4), True),
    (isolated_and_duplicates, UlsaConfig(max_iterations=5000), range(4), True),
    (lambda: random_instance(random.Random(2), n=8, d=3, m=20),
     UlsaConfig(max_iterations=5000, target=TargetSpec(6, 3), restart_interval=333),
     range(4), True),
]


@pytest.mark.parametrize("case", range(len(CASES)))
def test_kernel_record_equals_python_record(kernel, monkeypatch, case):
    make, config, seeds, track_best = CASES[case]
    instance = make()
    for seed in seeds:
        fast = run(instance, config, seed, track_best=track_best)
        slow = python_run(monkeypatch, instance, config, seed, track_best=track_best)
        assert fields(fast) == fields(slow), seed


@pytest.mark.parametrize("block", [3, 5, 8])
def test_tiny_uniform_blocks(kernel, monkeypatch, block):
    # a block boundary every few steps, often inside a step: the kernel
    # refills the block in place where Python would; frequent restarts give
    # tied timestamps, so many steps draw all 3 uniforms
    monkeypatch.setattr(ulsa, "_BLOCK", block)
    instance = forced(20, 4)
    for config in (UlsaConfig(max_iterations=1500, restart_interval=7),
                   UlsaConfig(max_iterations=1000, target=TargetSpec(18, 4))):
        fast = run(instance, config, 0, track_best=True)
        slow = python_run(monkeypatch, instance, config, 0, track_best=True)
        assert fields(fast) == fields(slow)


def test_solved_at_iteration_zero(kernel, monkeypatch):
    # the greedy start avoids the only disallowed pair
    instance = CspInstance(3, 2, (Constraint(0, 1, ((0, 0),)),))
    fast = run(instance, UlsaConfig(), 7, track_best=True)
    assert fast.success and fast.iterations == 0
    assert fields(fast) == fields(python_run(monkeypatch, instance, UlsaConfig(), 7,
                                             track_best=True))


def start_and_steps(instance, hidden):
    # a budget above the 1,430 steps the run takes
    return lambda: fields(run(instance, UlsaConfig(max_iterations=10_000), 1))


def search_table(instance, hidden):
    return lambda: _FlatTables(instance).bits.tobytes()


def readers(instance, hidden):
    text = dumps_csp(instance, hidden)
    dimacs = emit_dimacs(csp_to_mis(instance)) + "e 1 2\n"  # a duplicate edge warns
    return lambda: (loads_csp(text), parse_dimacs(dimacs))


def writers(instance, hidden):
    graph = csp_to_mis(instance)
    return lambda: (dumps_csp(instance, hidden, ["a comment"]), emit_dimacs(graph, ["a comment"]))


def conversions(instance, hidden):
    graph = csp_to_mis(instance)
    return lambda: (csp_to_mis(instance), mis_to_csp(graph, instance.d))


def sampler(instance, hidden):
    return lambda: generate_forced(ModelRbParams(n=20), 3)


def with_warnings(act) -> tuple:
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = act()
    return result, [str(w.message) for w in caught]


# the stages of README "Compiled kernel", each a function of an instance and
# its hidden solution that prepares its inputs and returns the stage's call
@pytest.mark.parametrize("stage", [start_and_steps, search_table, readers, writers, conversions,
                                   sampler], ids=lambda stage: stage.__name__)
def test_compile_failure_falls_back_silently(monkeypatch, capfd, stage):
    # the same result and warnings as before, from the Python references,
    # with nothing written to fd 1 or fd 2
    act = stage(*generate_forced(ModelRbParams(n=20), 3))
    expected = with_warnings(act)

    def broken():
        raise subprocess.CalledProcessError(1, ["cc"])

    monkeypatch.setattr(_native, "_lib", ...)
    monkeypatch.setattr(_native, "_compile", broken)
    capfd.readouterr()
    assert with_warnings(act) == expected
    assert _native._lib is None
    assert capfd.readouterr() == ("", "")
    assert (expected[1] != []) == (stage is readers)


def test_signatures_match_the_c_prototypes():
    # every exported function of _kernel.c, and only those, has a ctypes
    # signature with one argument type per C parameter and its return type
    source = _native._SOURCE.read_text()
    prototypes = re.findall(r"^(void|int64_t) (\w+)\(([^)]*)\)\s*\{", source, re.M)
    found = {name: (len(params.split(",")), restype) for restype, name, params in prototypes}
    typed = {name: (len(argtypes), {None: "void", ctypes.c_int64: "int64_t"}[restype])
             for name, (argtypes, restype) in _native._SIGNATURES.items()}
    assert found == typed


def test_no_kernel_function_is_split_into_clones(kernel):
    # GCC may split a static function into a `.part.`, `.isra.` or
    # `.constprop.` clone placed ahead of the exported functions, which moves
    # every one of them and so the pass timings; libgcc's CPU-feature
    # helpers, linked in by __builtin_cpu_supports, have clones of their own
    nm = shutil.which("nm")
    if nm is None:
        pytest.skip("no nm here")
    source = _native._SOURCE.read_text()
    defined = {name for name, _ in re.findall(r"\b(\w+)\(([^()]*)\)\s*\{", source)}
    defined -= {"if", "for", "while", "switch"}
    assert {"bounded", "ulsa_advance", "rb_sample"} <= defined
    symbols = subprocess.run([nm, str(_native._compile())], capture_output=True, text=True,
                             check=True).stdout.split()
    clones = [s for s in symbols if re.search(r"\.(part|isra|constprop)\.\d", s)]
    assert [s for s in clones if s.split(".")[0] in defined] == []


def test_build_is_cached_privately(kernel, monkeypatch, tmp_path):
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    monkeypatch.setattr(_native, "_lib", ...)
    assert _native.kernel() is not None
    cache = tmp_path / "rbcsp"
    assert os.stat(cache).st_mode & 0o777 == 0o700
    assert [p.suffix for p in cache.iterdir()] == [".so"]

    # a second process-level load reuses the cached library
    def no_compiler(*args, **kwargs):
        raise AssertionError("compiled again")

    monkeypatch.setattr(_native, "_lib", ...)
    monkeypatch.setattr(subprocess, "run", no_compiler)
    assert _native.kernel() is not None


def test_shared_cache_dir_is_refused(monkeypatch, tmp_path):
    cache = tmp_path / "rbcsp"
    cache.mkdir()
    cache.chmod(0o777)
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    monkeypatch.setattr(_native, "_lib", ...)
    assert _native.kernel() is None
    assert list(cache.iterdir()) == []


def test_concurrent_first_builds_publish_one_library(kernel, tmp_path):
    # three processes race to build into one empty cache
    env = dict(os.environ, XDG_CACHE_HOME=str(tmp_path),
               PYTHONPATH=os.pathsep.join(sys.path))
    code = "from rbcsp import _native; assert _native.kernel() is not None"
    procs = [subprocess.Popen([sys.executable, "-c", code], env=env) for _ in range(3)]
    assert [p.wait(timeout=120) for p in procs] == [0, 0, 0]
    assert [p.suffix for p in (tmp_path / "rbcsp").iterdir()] == [".so"]


def test_one_compile_per_process(monkeypatch):
    # every function the package calls comes from one library, opened once
    calls = []
    compile_ = _native._compile

    def counted():
        calls.append(1)
        return compile_()

    monkeypatch.setattr(_native, "_lib", ...)
    monkeypatch.setattr(_native, "_compile", counted)
    instance, hidden = generate_forced(ModelRbParams(n=20), 1)
    parsed, _ = loads_csp(dumps_csp(instance, hidden))
    _FlatTables(parsed)
    run(parsed, UlsaConfig(max_iterations=1000), 0)
    emit_dimacs(csp_to_mis(parsed))
    assert len(calls) == 1


def snapshot(state, stats) -> dict:
    ids, pos = state.violated.ids.tolist(), state.violated.pos.tolist()
    assert [pos[cid] for cid in ids] == list(range(len(ids)))
    assert sum(p >= 0 for p in pos) == len(ids)
    return dict(x=state.x.tolist(), t=state.t.tolist(), n_iter=state.n_iter, ids=ids,
                pos=pos, stats=dataclasses.astuple(stats))


@pytest.mark.parametrize("d, m", [pytest.param(3, 40, id="d3"), pytest.param(40, 60, id="d40"),
                                  pytest.param(65, 60, id="d65")])
def test_kernel_steps_the_state_arrays_as_python_does(kernel, d, m):
    # k kernel steps leave the state's own arrays as k Python steps do,
    # before and after a switch to a fresh state, as on a restart, which
    # refills the kernel's cache: the count table at d = 3 and 40 where the
    # host has AVX-512BW, the row cache, of two words a row, at d = 65; no
    # solution exists, so every step runs
    instance = random_instance(random.Random(2), n=8, d=d, m=m)
    sides = []
    for stepped_by_kernel in (True, False):
        rng = np.random.Generator(np.random.PCG64(11))
        state = ulsa.init_state(instance, rng)
        uniforms, stats = ulsa._Uniforms(rng), StepStats()
        # no cap, and a best of 0 that no count goes below: only the budget
        # ends a kernel call
        fast = (ulsa._KernelRun(_native.kernel(), instance, uniforms, stats, -1, 0, None)
                if stepped_by_kernel else None)
        side = []
        for budget in (700, 5000, 9100):
            while stats.iterations < budget:
                if fast is None:
                    ulsa._step(state, uniforms, stats)
                else:
                    fast.budget = budget
                    fast.advance(state, 0)
            side.append(snapshot(state, stats))
            state = ulsa.init_state(instance, rng)
        sides.append(side)
    assert sides[0] == sides[1]
    assert all(s["ids"] and max(s["t"]) == s["n_iter"] > 0 for s in sides[0])


# -- bit planes, words and kernel slices ---------------------------------------


def hub(degree: int, d: int, k: int) -> CspInstance:
    # variable 0 joins every other variable, so its counts need many planes;
    # a few edges among the leaves keep conflicts moving elsewhere too; each
    # constraint disallows k pairs
    rng = random.Random(degree)
    pairs = [(a, b) for a in range(d) for b in range(d)]
    cons = [Constraint(0, v, tuple(rng.sample(pairs, k))) for v in range(1, degree + 1)]
    cons += [Constraint(*rng.sample(range(1, degree + 1), 2), tuple(rng.sample(pairs, k)))
             for _ in range(degree // 4)]
    return CspInstance(degree + 1, d, cons)


BOUNDARY_CASES = [
    # d = 64: the top bit of the mask; d = 65 and 129: a last word of one
    # value; d = 128: two full words
    pytest.param(lambda: random_instance(random.Random(3), n=8, d=64, m=30),
                 UlsaConfig(max_iterations=3000), id="d64"),
    pytest.param(lambda: random_instance(random.Random(4), n=8, d=65, m=30),
                 UlsaConfig(max_iterations=3000), id="d65"),
    pytest.param(lambda: random_instance(random.Random(7), n=8, d=128, m=30),
                 UlsaConfig(max_iterations=3000), id="d128"),
    pytest.param(lambda: random_instance(random.Random(8), n=8, d=129, m=30),
                 UlsaConfig(max_iterations=3000, restart_interval=211), id="d129-restarts"),
    pytest.param(lambda: random_instance(random.Random(5), n=8, d=64, m=60),
                 UlsaConfig(max_iterations=3000, restart_interval=211), id="d64-restarts"),
    pytest.param(lambda: random_instance(random.Random(6), n=8, d=65, m=40),
                 UlsaConfig(max_iterations=3000, restart_interval=211,
                            target=TargetSpec(6, 4)), id="d65-restarts-target"),
    # the isolated variables 6-8 have no slots, so no planes, and are never
    # stepped; variables of degree 1 have one plane
    pytest.param(isolated_and_duplicates, UlsaConfig(max_iterations=3000,
                                                     restart_interval=97),
                 id="isolated"),
    # no constraints at W = 2 and 70 words a row, the top d of the size caps:
    # every value ties at 0 in the greedy start, and the run ends at once
    pytest.param(lambda: CspInstance(3, 65), UlsaConfig(), id="empty-d65"),
    pytest.param(lambda: CspInstance(1, 4472), UlsaConfig(), id="empty-d4472"),
    # degree 200 is the deepest unrolled carry chain (8 planes), degree 600
    # takes the loop over any depth (10 planes)
    pytest.param(lambda: hub(200, 5, 12), UlsaConfig(max_iterations=3000), id="hub200"),
    pytest.param(lambda: hub(600, 4, 8), UlsaConfig(max_iterations=3000,
                                                restart_interval=500), id="hub600"),
    # degree 255 is the most a byte of the count table holds, and degree 256
    # keeps the run on bit planes
    pytest.param(lambda: hub(255, 4, 15), UlsaConfig(max_iterations=3000,
                                                 restart_interval=700), id="hub255"),
    pytest.param(lambda: hub(256, 4, 15), UlsaConfig(max_iterations=3000), id="hub256"),
    # value 1 of variable 0 conflicts with all 255 neighbours: a count of
    # 255, the top of a byte, is the least other count while 0 holds 0
    pytest.param(lambda: CspInstance(256, 2, [Constraint(0, v, ((1, 0), (1, 1), (0, v % 2)))
                                              for v in range(1, 256)]),
                 UlsaConfig(max_iterations=3000), id="byte-top"),
]


@pytest.mark.parametrize("make, config", BOUNDARY_CASES)
def test_boundary_record_equals_python_record(kernel, monkeypatch, make, config):
    instance = make()
    d = instance.d
    assert instance._tables.bits.shape == (2 * instance.num_constraints * d, -(-d // 64))
    for seed in range(3):
        fast = run(instance, config, seed, track_best=True)
        slow = python_run(monkeypatch, instance, config, seed, track_best=True)
        assert fields(fast) == fields(slow), seed


@pytest.mark.parametrize("make, counted", [
    pytest.param(lambda: random_instance(random.Random(3), n=8, d=64, m=30), True, id="d64"),
    pytest.param(lambda: random_instance(random.Random(4), n=8, d=65, m=30), False, id="d65"),
    pytest.param(lambda: hub(255, 4, 15), True, id="hub255"),
    pytest.param(lambda: hub(256, 4, 15), False, id="hub256"),
])
def test_step_path(kernel, make, counted):
    # the count path where the host has AVX-512BW, d <= 64 and no degree
    # is over 255, the bit planes elsewhere, on the first state and a fresh one
    instance = make()
    rng = np.random.Generator(np.random.PCG64(0))
    stats = StepStats()
    fast = ulsa._KernelRun(_native.kernel(), instance, ulsa._Uniforms(rng), stats, -1, 0, None)
    for budget in (50, 100):
        fast.budget = budget
        fast.advance(ulsa.init_state(instance, rng), 0)
        assert stats.iterations == budget
        assert fast.c.counted == (counted and "avx512bw" in cpu_flags())
        assert not fast.c.fresh


@pytest.mark.parametrize("d", [64, 65, 128, 129])
def test_only_solution_is_the_top_value(kernel, monkeypatch, d):
    # every pair but (d-1, d-1) is disallowed, so the search must move to the
    # top value: bit 63 of a packed row and of the candidate mask at d = 64,
    # and of the last word at d = 128; the one value of the last word at 65, 129
    top = d - 1
    pairs = tuple((a, b) for a in range(d) for b in range(d) if (a, b) != (top, top))
    instance = CspInstance(3, d, (Constraint(0, 1, pairs), Constraint(1, 2, pairs)))
    config = UlsaConfig(max_iterations=1000)  # above the 268 steps the slowest takes
    for seed in range(3):
        fast = run(instance, config, seed, track_best=True)
        assert fast.success and fast.iterations > 0 and fast.assignment == [top] * 3
        slow = python_run(monkeypatch, instance, config, seed, track_best=True)
        assert fields(fast) == fields(slow), seed


@pytest.mark.parametrize("slice_", [1, 7])
def test_short_kernel_slices(kernel, monkeypatch, slice_):
    # a kernel call that ends after a few steps changes nothing in the record
    monkeypatch.setattr(ulsa, "_SLICE", slice_)
    instance = forced(20, 4)
    for config in (UlsaConfig(max_iterations=900, restart_interval=150),
                   UlsaConfig(max_iterations=1000, target=TargetSpec(18, 4))):
        fast = run(instance, config, 0, track_best=True)
        slow = python_run(monkeypatch, instance, config, 0, track_best=True)
        assert fields(fast) == fields(slow)
