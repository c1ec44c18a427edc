"""Tests for the p-p and p-c force kernels (Eqs. 1-2 of the paper)."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gravity import pc_interactions, pp_interactions
from repro.gravity.kernels import point_forces_on_targets


def test_pp_inverse_square_law():
    ax, ay, az, phi = pp_interactions(np.array([2.0]), np.array([0.0]),
                                      np.array([0.0]), np.array([3.0]), 0.0)
    assert phi[0] == pytest.approx(-1.5)
    assert ax[0] == pytest.approx(3.0 * 2.0 / 8.0)
    assert ay[0] == 0.0 and az[0] == 0.0


def test_pp_attractive_direction():
    """Acceleration points from target toward source (dx = x_j - x_i)."""
    ax, _, _, _ = pp_interactions(np.array([-1.0]), np.array([0.0]),
                                  np.array([0.0]), np.array([1.0]), 0.0)
    assert ax[0] < 0.0


def test_pp_softening_limits_force():
    eps2 = 0.01
    ax, _, _, phi = pp_interactions(np.array([1e-8]), np.array([0.0]),
                                    np.array([0.0]), np.array([1.0]), eps2)
    assert abs(ax[0]) < 1e-3
    assert phi[0] == pytest.approx(-1.0 / np.sqrt(eps2), rel=1e-6)


def test_pc_monopole_matches_pp():
    """Zero quadrupole reduces the p-c kernel to the p-p kernel."""
    rng = np.random.default_rng(14)
    d = rng.normal(size=(100, 3)) * 3
    m = rng.uniform(0.1, 2.0, 100)
    q = np.zeros((100, 6))
    pc = pc_interactions(d[:, 0], d[:, 1], d[:, 2], m, q, 0.01)
    pp = pp_interactions(d[:, 0], d[:, 1], d[:, 2], m, 0.01)
    for a, b in zip(pc, pp):
        assert np.allclose(a, b, rtol=1e-12)


def test_pc_acceleration_is_gradient_of_potential():
    """Eq. (2) must be exactly -grad of Eq. (1): verified numerically."""
    rng = np.random.default_rng(15)
    q6 = rng.normal(size=6) * 0.1
    q6[:3] = np.abs(q6[:3]) + 0.2  # keep it PSD-ish
    m = np.array([2.0])
    quad = q6[None, :]
    target = np.array([1.3, -0.7, 2.1])
    source = np.array([4.0, 1.0, -1.0])
    h = 1e-6

    def potential(t):
        d = source - t
        return pc_interactions(np.array([d[0]]), np.array([d[1]]),
                               np.array([d[2]]), m, quad, 0.0)[3][0]

    d0 = source - target
    ax, ay, az, _ = pc_interactions(np.array([d0[0]]), np.array([d0[1]]),
                                    np.array([d0[2]]), m, quad, 0.0)
    grad = np.zeros(3)
    for k in range(3):
        e = np.zeros(3)
        e[k] = h
        grad[k] = (potential(target + e) - potential(target - e)) / (2 * h)
    acc = np.array([ax[0], ay[0], az[0]])
    assert np.allclose(acc, -grad, rtol=1e-5, atol=1e-8)


def test_pc_quadrupole_improves_cell_approximation():
    """A particle cluster approximated with quadrupole must beat the
    monopole-only approximation at moderate distance."""
    rng = np.random.default_rng(16)
    cluster = rng.normal(size=(200, 3)) * 0.5
    masses = rng.uniform(0.5, 1.0, 200)
    com = (masses[:, None] * cluster).sum(0) / masses.sum()
    d = cluster - com
    quad = np.array([
        np.sum(masses * d[:, 0] * d[:, 0]),
        np.sum(masses * d[:, 1] * d[:, 1]),
        np.sum(masses * d[:, 2] * d[:, 2]),
        np.sum(masses * d[:, 0] * d[:, 1]),
        np.sum(masses * d[:, 0] * d[:, 2]),
        np.sum(masses * d[:, 1] * d[:, 2]),
    ])[None, :]
    target = np.array([[4.0, 0.5, -0.3]])
    exact_acc, exact_phi = point_forces_on_targets(target, cluster, masses, 0.0)
    dx = com - target[0]
    mono = pp_interactions(np.array([dx[0]]), np.array([dx[1]]),
                           np.array([dx[2]]), np.array([masses.sum()]), 0.0)
    quadr = pc_interactions(np.array([dx[0]]), np.array([dx[1]]),
                            np.array([dx[2]]), np.array([masses.sum()]),
                            quad, 0.0)
    err_mono = abs(mono[3][0] - exact_phi[0])
    err_quad = abs(quadr[3][0] - exact_phi[0])
    assert err_quad < err_mono
    a_mono = np.array([mono[0][0], mono[1][0], mono[2][0]])
    a_quad = np.array([quadr[0][0], quadr[1][0], quadr[2][0]])
    assert np.linalg.norm(a_quad - exact_acc[0]) < np.linalg.norm(a_mono - exact_acc[0])


@settings(max_examples=50, deadline=None)
@given(st.floats(0.5, 50.0), st.floats(-1.0, 1.0), st.floats(0.01, 10.0))
def test_property_pp_magnitude(r, cosang, m):
    """Hypothesis: |a| = m / (r^2 + eps^2)^(3/2) * r for any geometry."""
    sinang = np.sqrt(1 - cosang ** 2)
    dx, dy, dz = r * cosang, r * sinang, 0.0
    eps2 = 0.25
    ax, ay, az, phi = pp_interactions(np.array([dx]), np.array([dy]),
                                      np.array([dz]), np.array([m]), eps2)
    a = np.sqrt(ax[0] ** 2 + ay[0] ** 2 + az[0] ** 2)
    assert a == pytest.approx(m * r / (r * r + eps2) ** 1.5, rel=1e-10)
    assert phi[0] == pytest.approx(-m / np.sqrt(r * r + eps2), rel=1e-10)


def test_point_forces_on_targets_chunks_consistently():
    rng = np.random.default_rng(17)
    src = rng.normal(size=(500, 3))
    m = rng.uniform(size=500)
    tgt = rng.normal(size=(50, 3))
    a1, p1 = point_forces_on_targets(tgt, src, m, 0.01)
    # brute force
    d = src[None] - tgt[:, None]
    r2 = (d ** 2).sum(-1) + 0.01
    rinv = 1 / np.sqrt(r2)
    p2 = -(m * rinv).sum(1)
    a2 = np.einsum("ij,ijk->ik", m * rinv ** 3, d)
    assert np.allclose(a1, a2)
    assert np.allclose(p1, p2)


def test_pc_none_quad_takes_monopole_branch():
    """quad=None dispatches to the 23-flop p-p kernel: bitwise equal to
    both a quad of zeros through the 65-flop path (numerically) and to
    pp_interactions (exactly)."""
    rng = np.random.default_rng(21)
    d = rng.normal(size=(200, 3)) * 3
    m = rng.uniform(0.1, 2.0, 200)
    mono = pc_interactions(d[:, 0], d[:, 1], d[:, 2], m, None, 0.01)
    pp = pp_interactions(d[:, 0], d[:, 1], d[:, 2], m, 0.01)
    for a, b in zip(mono, pp):
        assert np.array_equal(a, b)
    zeroq = pc_interactions(d[:, 0], d[:, 1], d[:, 2], m,
                            np.zeros((200, 6)), 0.01)
    for a, b in zip(mono, zeroq):
        assert np.allclose(a, b, rtol=1e-12)


def test_workspace_kernels_match_allocating_forms():
    from repro.gravity.kernels import pc_interactions_ws, pp_interactions_ws
    rng = np.random.default_rng(22)
    n = 300
    d = rng.normal(size=(n, 3)) * 3
    m = rng.uniform(0.1, 2.0, n)
    q = rng.normal(size=(n, 6)) * 0.1
    eps2 = 0.01

    ref = pp_interactions(d[:, 0], d[:, 1], d[:, 2], m, eps2)
    buf = [c.copy() for c in (d[:, 0], d[:, 1], d[:, 2], m)]
    got = pp_interactions_ws(*buf, eps2, np.empty(n), np.empty(n))
    # The ws form associates mrinv3 differently: ulp-equal, not bitwise.
    for a, b in zip(got, ref):
        assert np.allclose(a, b, rtol=1e-14, atol=0)

    ref = pc_interactions(d[:, 0], d[:, 1], d[:, 2], m, q, eps2)
    buf = [c.copy() for c in (d[:, 0], d[:, 1], d[:, 2], m)]
    qcols = tuple(q[:, i].copy() for i in range(6))
    scratch = [np.empty(n) for _ in range(9)]
    got = pc_interactions_ws(*buf, qcols, eps2, np.empty(n), scratch)
    for a, b in zip(got, ref):
        assert np.allclose(a, b, rtol=1e-13, atol=1e-15)


def test_workspace_pc_kernel_broadcasts_cell_rows():
    """(P,) cell operands against a (w, P) separation block: row j is
    the allocating kernel on target slot j's separations."""
    from repro.gravity.kernels import pc_interactions_ws
    rng = np.random.default_rng(23)
    w, p = 5, 40
    d = rng.normal(size=(3, w, p)) * 3
    m = rng.uniform(0.1, 2.0, p)
    q = rng.normal(size=(p, 6)) * 0.1
    for quad in (q, None):
        got = pc_interactions_ws(
            *(c.copy() for c in d), m.copy(),
            None if quad is None else tuple(quad[:, i].copy()
                                            for i in range(6)),
            0.01, np.empty(p), [np.empty((w, p)) for _ in range(9)])
        for j in range(w):
            ref = pc_interactions(d[0, j], d[1, j], d[2, j], m, quad, 0.01)
            for a, b in zip(got, ref):
                assert np.allclose(a[j], b, rtol=1e-13, atol=1e-15)


def test_point_forces_eps_zero_warning_clean():
    # Coincident target/source at eps = 0: inf is fine, warnings are not.
    pos = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    mass = np.ones(2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        acc, phi = point_forces_on_targets(pos, pos, mass, 0.0)
    assert np.isinf(phi).all()
