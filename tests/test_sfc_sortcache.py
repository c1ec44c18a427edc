"""SortCache: identity / reuse / repair / cold permutation reuse."""

import numpy as np
import pytest

from repro.sfc import SORT_MODES, SortCache


def _check(cache, keys, expect_mode):
    order = cache.order_for(keys)
    assert cache.last_mode == expect_mode
    assert cache.last_mode in SORT_MODES
    sk = keys[order]
    assert np.all(sk[:-1] <= sk[1:])
    return order


def test_cold_then_reuse():
    rng = np.random.default_rng(0)
    keys = rng.integers(0, 1 << 60, 5000).astype(np.uint64)
    cache = SortCache()
    order = _check(cache, keys, "cold")
    np.testing.assert_array_equal(order,
                                  np.argsort(keys, kind="stable"))
    # Same keys again: the cached permutation still sorts them.
    again = _check(cache, keys, "reuse")
    assert again is order


def test_repair_after_perturbation():
    rng = np.random.default_rng(1)
    keys = rng.integers(0, 1 << 60, 5000).astype(np.uint64)
    cache = SortCache()
    cache.order_for(keys)
    # Perturb a few keys: cached order no longer sorts, repair must.
    moved = keys.copy()
    moved[::97] = rng.integers(0, 1 << 60, len(moved[::97])).astype(np.uint64)
    order = _check(cache, moved, "repair")
    # Distinct keys: repair equals a cold stable sort exactly.
    np.testing.assert_array_equal(order, np.argsort(moved, kind="stable"))


def test_identity_on_sorted_keys():
    keys = np.arange(100, dtype=np.uint64)
    cache = SortCache()
    order = _check(cache, keys, "identity")
    np.testing.assert_array_equal(order, np.arange(100))


def test_length_change_falls_back():
    rng = np.random.default_rng(2)
    cache = SortCache()
    cache.order_for(rng.integers(0, 1 << 60, 500).astype(np.uint64))
    keys = rng.integers(0, 1 << 60, 700).astype(np.uint64)
    _check(cache, keys, "cold")


def test_invalidate_forces_cold():
    rng = np.random.default_rng(3)
    keys = rng.integers(0, 1 << 60, 500).astype(np.uint64)
    cache = SortCache()
    cache.order_for(keys)
    cache.invalidate()
    assert cache.last_mode is None
    _check(cache, keys, "cold")


def test_empty_and_singleton():
    cache = SortCache()
    assert len(cache.order_for(np.empty(0, dtype=np.uint64))) == 0
    assert cache.last_mode == "identity"
    cache2 = SortCache()
    np.testing.assert_array_equal(
        cache2.order_for(np.array([5], dtype=np.uint64)), [0])


def test_build_octree_accepts_cached_order():
    from repro.octree import build_octree
    from repro.sfc import BoundingBox
    rng = np.random.default_rng(4)
    pos = rng.normal(size=(800, 3))
    box = BoundingBox.from_positions(pos)
    keys = box.keys(pos, "hilbert")
    cache = SortCache()
    t_cold = build_octree(pos, box=box, keys=keys)
    t_cached = build_octree(pos, box=box, keys=keys,
                            order=cache.order_for(keys))
    np.testing.assert_array_equal(t_cold.order, t_cached.order)
    np.testing.assert_array_equal(t_cold.cell_key, t_cached.cell_key)
    np.testing.assert_array_equal(t_cold.body_first, t_cached.body_first)


# -- layout epochs (the stale-permutation hazard) ---------------------------

def test_sort_cache_epoch_change_prevents_stale_tiebreak():
    """After a relayout, tied keys repaired through the *old* permutation
    would come out in a different order than a cold stable sort -- the
    exact hazard the epoch tag exists to close."""
    keys1 = np.array([3, 1, 2, 1], dtype=np.uint64)
    keys2 = np.array([1, 1, 3, 2], dtype=np.uint64)
    cold = np.argsort(keys2, kind="stable")

    stale = SortCache()
    stale.order_for(keys1)
    repaired = stale.order_for(keys2)        # no epoch: demonstrates hazard
    assert stale.last_mode == "repair"
    assert not np.array_equal(repaired, cold)

    tagged = SortCache()
    tagged.order_for(keys1, epoch=0)
    fixed = tagged.order_for(keys2, epoch=1)  # relayout: epoch bumped
    assert tagged.last_mode in ("cold", "identity")
    assert np.array_equal(fixed, cold)


def test_sort_cache_same_epoch_preserves_reuse():
    rng = np.random.default_rng(7)
    keys = rng.integers(0, 2 ** 60, 1000).astype(np.uint64)
    sc = SortCache()
    o1 = sc.order_for(keys, epoch=3)
    o2 = sc.order_for(keys, epoch=3)
    assert sc.last_mode == "reuse"
    assert o2 is o1


def test_sort_cache_invalidate_clears_epoch():
    keys = np.array([2, 1], dtype=np.uint64)
    sc = SortCache()
    sc.order_for(keys, epoch=5)
    sc.invalidate()
    sc.order_for(keys, epoch=5)
    assert sc.last_mode == "cold"
