"""Shared NAS problem data and serial references (``repro.nas.common.shared``).

Each kernel's global-problem builder and serial reference is built once
per parameter set and handed, read-only, to every rank and every later
run, and so are the solver data the ranks share (SP's pentadiagonal
matrix, FT's evolution factors).  These tests pin that contract: the
cached result is bit-for-bit the uncached one, it is shared, it cannot
be written, a 4-rank run builds each of them exactly once, the kernels'
results do not change by a bit, and the cache stays bounded.
"""

import numpy as np
import pytest

from repro import SPCluster
from repro.nas import bt, cg, ep, ft, is_, lu, mg, run_kernel, sp
from repro.nas.common import SHARED_CACHE_SIZE, shared

#: every shared builder with its class-S arguments and a family of
#: small argument sets (``i`` -> args, never the class-S ones) for the
#: bound test
BUILDERS = {
    "lu._init_grid": (lu._init_grid, (64,), lambda i: (10 + 4 * i,)),
    "lu.serial_reference": (lu.serial_reference, (64, 6, 16),
                            lambda i: (10 + 4 * i, 1, 4)),
    "cg.build_system": (cg.build_system, (256,), lambda i: (8 + 4 * i,)),
    "cg.serial_reference": (cg.serial_reference, (256,), lambda i: (8 + 4 * i,)),
    "bt._init_state": (bt._init_state, (64,), lambda i: (10 + 4 * i,)),
    "bt.serial_reference": (bt.serial_reference, (64, 4), lambda i: (10 + 4 * i, 1)),
    "sp._init_state": (sp._init_state, (64,), lambda i: (10 + 4 * i,)),
    "sp.serial_reference": (sp.serial_reference, (64, 3), lambda i: (10 + 4 * i, 1)),
    "sp._penta_matrix": (sp._penta_matrix, (64,), lambda i: (10 + 4 * i,)),
    "ft._field": (ft._field, ((16, 16, 16),), lambda i: ((4, 4, 2 + i),)),
    "ft.serial_reference": (ft.serial_reference, ((16, 16, 16), 3),
                            lambda i: ((4, 4, 2 + i), 2)),
    "ft._evolve_factor": (ft._evolve_factor, ((16, 16, 16), 3),
                          lambda i: ((4, 4, 2 + i), 1)),
    "mg._rhs": (mg._rhs, (512,), lambda i: (16 + 8 * i,)),
    "mg.serial_reference": (mg.serial_reference, (512, 3), lambda i: (16 + 8 * i, 1)),
    "is_._keys_for": (is_._keys_for, (0, 8192), lambda i: (i, 64)),
    "is_.serial_reference": (is_.serial_reference, (4, 8192), lambda i: (2, 16 + i)),
    "ep.serial_reference": (ep.serial_reference, (4096,), lambda i: (16 + 8 * i,)),
}

#: per kernel: (builder, times a 4-rank class-S run must compute it)
PER_RUN = {
    "lu": [(lu._init_grid, 1), (lu.serial_reference, 1)],
    "cg": [(cg.build_system, 1), (cg.serial_reference, 1)],
    "bt": [(bt._init_state, 1), (bt.serial_reference, 1)],
    "sp": [(sp._init_state, 1), (sp.serial_reference, 1), (sp._penta_matrix, 1)],
    "ft": [(ft._field, 1), (ft.serial_reference, 1),
           (ft._evolve_factor, 3)],  # one per time step
    "mg": [(mg._rhs, 1), (mg.serial_reference, 1)],
    "is": [(is_._keys_for, 4), (is_.serial_reference, 1)],  # one key set per rank
    "ep": [(ep.serial_reference, 1)],
}


def _leaves(value):
    """The arrays and scalars of a (possibly nested) builder result."""
    if isinstance(value, (list, tuple)):
        for v in value:
            yield from _leaves(v)
    else:
        yield value


def _same_bits(cached, fresh) -> bool:
    a, b = list(_leaves(cached)), list(_leaves(fresh))
    if len(a) != len(b):
        return False
    for x, y in zip(a, b):
        if isinstance(x, np.ndarray):
            if not (isinstance(y, np.ndarray) and x.dtype == y.dtype
                    and x.shape == y.shape and x.tobytes() == y.tobytes()):
                return False
        elif type(x) is not type(y) or x != y:
            return False
    return True


def test_every_builder_is_shared():
    for name, (fn, _, _) in BUILDERS.items():
        assert hasattr(fn, "cache_info") and hasattr(fn, "__wrapped__"), name
    assert {fn for fn, _ in sum(PER_RUN.values(), [])} == {
        fn for fn, _, _ in BUILDERS.values()}


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_cached_result_is_the_uncached_one_bit_for_bit(name):
    fn, args, _ = BUILDERS[name]
    assert _same_bits(fn(*args), fn.__wrapped__(*args))


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_repeat_call_returns_the_same_object(name):
    fn, args, _ = BUILDERS[name]
    assert fn(*args) is fn(*args)


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_shared_result_is_read_only(name):
    fn, args, _ = BUILDERS[name]
    result = fn(*args)
    arrays = [x for x in _leaves(result) if isinstance(x, np.ndarray)]
    for arr in arrays:
        with pytest.raises(ValueError, match="read-only"):
            arr.flat[0] = arr.flat[0]
        # a view of shared data is read-only too
        with pytest.raises(ValueError, match="read-only"):
            arr.reshape(-1)[:1] = 0
    if not arrays:  # FT's reference: a list of checksums, frozen to a tuple
        assert isinstance(result, tuple)


def test_freeze_turns_lists_into_tuples_and_recurses():
    @shared
    def build():
        return [np.zeros(2), (np.ones(1), [3])]

    out = build()
    assert isinstance(out, tuple) and isinstance(out[1][1], tuple)
    assert not out[0].flags.writeable and not out[1][0].flags.writeable
    assert build.__wrapped__()[0].flags.writeable


@pytest.mark.parametrize("kernel", sorted(PER_RUN))
def test_four_rank_run_computes_each_reference_once(kernel):
    for fn, _ in PER_RUN[kernel]:
        fn.cache_clear()
    res = run_kernel(kernel, SPCluster(4, stack="lapi-enhanced"))
    assert all(o.verified for o in res.values)
    for fn, expected in PER_RUN[kernel]:
        # a miss is exactly one call of the uncached builder
        assert fn.cache_info().misses == expected, fn.__qualname__
    # a second run (new cluster) builds nothing
    res = run_kernel(kernel, SPCluster(4, stack="native"))
    assert all(o.verified for o in res.values)
    for fn, expected in PER_RUN[kernel]:
        assert fn.cache_info().misses == expected, fn.__qualname__


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_cache_stays_within_its_bound(name):
    fn, args, small = BUILDERS[name]
    fn(*args)
    for i in range(SHARED_CACHE_SIZE + 4):
        fn(*small(i))
    info = fn.cache_info()
    assert info.maxsize == SHARED_CACHE_SIZE
    assert info.currsize == SHARED_CACHE_SIZE
    # the least recently used entry (class S) went first: it is rebuilt
    fn(*args)
    assert fn.cache_info().misses == info.misses + 1


@pytest.mark.parametrize("kernel", ["cg", "is", "lu"])
def test_classes_and_overrides_stay_within_the_bound(kernel):
    for cls in ("S", "W"):
        assert all(o.verified for o in run_kernel(kernel, SPCluster(4), cls=cls).values)
    overrides = {"cg": [dict(n=64), dict(n=128, iters=40)],
                 "is": [dict(n_local=500), dict(n_local=1000)],
                 "lu": [dict(n=32), dict(block=8)]}[kernel]
    for kw in overrides:
        assert all(o.verified for o in run_kernel(kernel, SPCluster(4), **kw).values)
    for fn, _ in PER_RUN[kernel]:
        assert fn.cache_info().currsize <= SHARED_CACHE_SIZE


def test_ft_accepts_a_list_shape():
    res = run_kernel("ft", SPCluster(4), shape=[16, 16, 8])
    assert all(o.verified for o in res.values)


@pytest.mark.parametrize("kernel, module, name", [
    ("sp", sp, "_penta_matrix"), ("ft", ft, "_evolve_factor")])
def test_shared_solver_data_leaves_every_result_bit_for_bit(
        monkeypatch, kernel, module, name):
    shared_res = run_kernel(kernel, SPCluster(4, stack="lapi-enhanced"))
    monkeypatch.setattr(module, name, getattr(module, name).__wrapped__)
    fresh_res = run_kernel(kernel, SPCluster(4, stack="lapi-enhanced"))
    assert all(o.verified for o in shared_res.values)
    assert shared_res.values == fresh_res.values
    assert shared_res.elapsed_us == fresh_res.elapsed_us
