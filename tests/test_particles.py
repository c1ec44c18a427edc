"""Tests for the ParticleSet container."""

import numpy as np
import pytest

from repro.particles import (
    COMPONENT_BULGE,
    COMPONENT_DISK,
    COMPONENT_HALO,
    ParticleSet,
)


def _make(n=10, seed=28):
    rng = np.random.default_rng(seed)
    return ParticleSet(pos=rng.normal(size=(n, 3)),
                       vel=rng.normal(size=(n, 3)),
                       mass=rng.uniform(0.5, 1.0, n))


def test_defaults():
    ps = _make(5)
    assert len(ps) == 5 and ps.n == 5
    assert np.array_equal(ps.ids, np.arange(5))
    assert np.all(ps.component == -1)


def test_shape_validation():
    with pytest.raises(ValueError):
        ParticleSet(pos=np.zeros((3, 3)), vel=np.zeros((2, 3)),
                    mass=np.zeros(3))
    with pytest.raises(ValueError):
        ParticleSet(pos=np.zeros((3, 3)), vel=np.zeros((3, 3)),
                    mass=np.zeros(3), ids=np.zeros(2, dtype=np.int64))



@pytest.mark.parametrize("name,bad", [("pos", np.nan), ("vel", np.inf),
                                      ("mass", np.inf), ("mass", -np.inf)])
def test_non_finite_inputs_rejected(name, bad):
    # One bad value would poison every particle after the first force
    # pass; the set must refuse it at construction, naming the array and
    # the first offending index.
    rng = np.random.default_rng(3)
    arrays = {"pos": rng.normal(size=(6, 3)), "vel": rng.normal(size=(6, 3)),
              "mass": rng.uniform(0.5, 1.0, 6)}
    arrays[name][4] = bad
    arrays[name][5] = bad
    with pytest.raises(ValueError, match=rf"{name} .*index 4\b"):
        ParticleSet(**arrays)

def test_select_copies():
    ps = _make()
    sub = ps.select(np.array([1, 3]))
    sub.pos[0] = 99.0
    assert ps.pos[1, 0] != 99.0
    assert np.array_equal(sub.ids, [1, 3])


def test_select_component():
    ps = _make(6)
    ps.component[:] = [COMPONENT_BULGE, COMPONENT_DISK, COMPONENT_HALO] * 2
    disk = ps.select_component(COMPONENT_DISK)
    assert disk.n == 2
    assert np.all(disk.component == COMPONENT_DISK)


def test_reorder_permutes_everything():
    ps = _make(4)
    ids0 = ps.ids.copy()
    pos0 = ps.pos.copy()
    order = np.array([3, 1, 0, 2])
    ps.reorder(order)
    assert np.array_equal(ps.ids, ids0[order])
    assert np.array_equal(ps.pos, pos0[order])


def test_concatenate_roundtrip():
    a, b = _make(3, seed=1), _make(4, seed=2)
    c = ParticleSet.concatenate([a, b])
    assert c.n == 7
    assert np.allclose(c.pos[:3], a.pos)
    assert np.allclose(c.pos[3:], b.pos)


def test_concatenate_empty_list_raises():
    with pytest.raises(ValueError):
        ParticleSet.concatenate([])


def test_empty_set():
    ps = ParticleSet.empty()
    assert ps.n == 0


def test_kinetic_energy():
    ps = ParticleSet(pos=np.zeros((2, 3)),
                     vel=np.array([[1.0, 0, 0], [0, 2.0, 0]]),
                     mass=np.array([2.0, 1.0]))
    assert ps.kinetic_energy() == pytest.approx(0.5 * 2 * 1 + 0.5 * 1 * 4)


def test_center_of_mass_and_momentum():
    ps = ParticleSet(pos=np.array([[0.0, 0, 0], [2.0, 0, 0]]),
                     vel=np.array([[1.0, 0, 0], [-1.0, 0, 0]]),
                     mass=np.array([1.0, 3.0]))
    assert np.allclose(ps.center_of_mass(), [1.5, 0, 0])
    assert np.allclose(ps.momentum(), [-2.0, 0, 0])
    assert np.allclose(ps.center_of_mass_velocity(), [-0.5, 0, 0])


def test_angular_momentum():
    ps = ParticleSet(pos=np.array([[1.0, 0, 0]]),
                     vel=np.array([[0, 2.0, 0]]),
                     mass=np.array([3.0]))
    assert np.allclose(ps.angular_momentum(), [0, 0, 6.0])


def test_copy_is_deep():
    ps = _make()
    c = ps.copy()
    c.vel += 1.0
    assert not np.allclose(ps.vel, c.vel)
