"""Force kernels implementing Eqs. (1)-(2) of the paper.

With ``r = r_j - r_i`` (pointing from target *i* to source *j*) and the
softened distance ``|r| = sqrt(r.r + eps^2)``:

particle-particle (monopole)::

    phi_i += -m_j / |r|
    a_i   +=  m_j r / |r|^3

particle-cell (monopole + quadrupole, Q the 3x3 symmetric second-moment
tensor of the cell about its COM)::

    phi_i += -m_j/|r| + tr(Q)/(2|r|^3) - 3 r^T Q r / (2 |r|^5)
    a_i   +=  m_j r/|r|^3 - 3 tr(Q) r/(2|r|^5) - 3 Q r/|r|^5
              + 15 (r^T Q r) r / (2 |r|^7)

Each kernel exists in two forms.  The allocating form
(``pp_interactions`` / ``pc_interactions``) is the readable reference:
it takes pre-gathered (target, source) pairs as flat 1-D arrays and
returns per-pair contributions.  The workspace form
(``pp_interactions_ws`` / ``pc_interactions_ws``) is what the tree walk
runs: every ufunc writes into caller-provided scratch via ``out=``, so
steady-state evaluation allocates nothing, and it is broadcast-aware.
Separations arrive as a ``(w, P)`` block -- ``w`` target slots of a
particle group against ``P`` cells or source bodies -- while the source
operands (mass, quadrupole terms, tr Q) are rows gathered once per cell
and broadcast down the block.  This is Bonsai's group evaluation
(Sec. III-A): a group loads its interaction list once and every target
of the group reuses it, transposed to numpy.
"""

from __future__ import annotations

import numpy as np


def pp_interactions(dx: np.ndarray, dy: np.ndarray, dz: np.ndarray,
                    m: np.ndarray, eps2: float
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Particle-particle kernel on pre-formed separations ``r_j - r_i``.

    Returns per-pair (ax, ay, az, phi) contributions to the target.
    """
    r2 = dx * dx + dy * dy + dz * dz + eps2
    # Self-pairs at eps = 0 produce inf * 0; callers zero those entries
    # (see evaluate_pp_pairs), so silence the transient warnings.
    with np.errstate(divide="ignore", invalid="ignore"):
        rinv = 1.0 / np.sqrt(r2)
        mrinv = m * rinv
        mrinv3 = mrinv * rinv * rinv
        return mrinv3 * dx, mrinv3 * dy, mrinv3 * dz, -mrinv


def pc_interactions(dx: np.ndarray, dy: np.ndarray, dz: np.ndarray,
                    m: np.ndarray, quad: np.ndarray | None, eps2: float
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Particle-cell kernel with quadrupole corrections.

    Parameters
    ----------
    dx, dy, dz:
        Separations ``com_cell - pos_target`` per pair.
    m:
        Cell masses per pair.
    quad:
        (n, 6) packed quadrupole components (xx, yy, zz, xy, xz, yz),
        or None for a monopole-only cell expansion.  The monopole branch
        is the p-p arithmetic on COM separations -- 23 flops, not the
        65-flop quadrupole kernel fed a zero tensor.
    eps2:
        Softening squared (applied exactly as in the p-p kernel).

    Returns per-pair (ax, ay, az, phi).
    """
    if quad is None:
        return pp_interactions(dx, dy, dz, m, eps2)
    qxx, qyy, qzz, qxy, qxz, qyz = (quad[:, k] for k in range(6))

    r2 = dx * dx + dy * dy + dz * dz + eps2
    rinv = 1.0 / np.sqrt(r2)
    rinv2 = rinv * rinv
    rinv3 = rinv * rinv2
    rinv5 = rinv3 * rinv2
    rinv7 = rinv5 * rinv2

    trq = qxx + qyy + qzz

    # Q r (matrix-vector, symmetric packed form).
    qrx = qxx * dx + qxy * dy + qxz * dz
    qry = qxy * dx + qyy * dy + qyz * dz
    qrz = qxz * dx + qyz * dy + qzz * dz
    rqr = dx * qrx + dy * qry + dz * qrz

    phi = -m * rinv + 0.5 * trq * rinv3 - 1.5 * rqr * rinv5

    # Radial coefficient collects the three isotropic terms of Eq. (2).
    radial = m * rinv3 - 1.5 * trq * rinv5 + 7.5 * rqr * rinv7
    ax = radial * dx - 3.0 * qrx * rinv5
    ay = radial * dy - 3.0 * qry * rinv5
    az = radial * dz - 3.0 * qrz * rinv5
    return ax, ay, az, phi


def pp_interactions_ws(dx: np.ndarray, dy: np.ndarray, dz: np.ndarray,
                       m: np.ndarray, eps2: float,
                       r2: np.ndarray, tmp: np.ndarray
                       ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """In-place p-p kernel on a separation block: allocation-free form.

    ``dx``/``dy``/``dz``/``r2``/``tmp`` are same-shape float64 scratch
    blocks owned by the caller; ``m`` holds the source masses in any
    shape that broadcasts against them -- the evaluators pass one
    length-``P`` row of per-source values against ``(w, P)`` blocks.
    ``dx``/``dy``/``dz``/``r2`` are *consumed*: on return they alias
    (ax, ay, az, phi).
    """
    np.multiply(dx, dx, out=r2)
    np.multiply(dy, dy, out=tmp)
    r2 += tmp
    np.multiply(dz, dz, out=tmp)
    r2 += tmp
    if eps2 != 0.0:
        r2 += eps2
    with np.errstate(divide="ignore", invalid="ignore"):
        np.sqrt(r2, out=r2)
        np.divide(1.0, r2, out=r2)          # r2 now holds rinv
        np.multiply(r2, r2, out=tmp)        # rinv^2
        np.multiply(m, r2, out=r2)          # mrinv
        np.multiply(r2, tmp, out=tmp)       # mrinv3
        np.multiply(dx, tmp, out=dx)
        np.multiply(dy, tmp, out=dy)
        np.multiply(dz, tmp, out=dz)
        np.negative(r2, out=r2)             # phi
    return dx, dy, dz, r2


def pc_interactions_ws(dx: np.ndarray, dy: np.ndarray, dz: np.ndarray,
                       m: np.ndarray, quad: tuple[np.ndarray, ...] | None,
                       eps2: float, trq: np.ndarray,
                       scratch: tuple[np.ndarray, ...]
                       ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """In-place p-c kernel on a separation block: allocation-free form.

    Broadcast contract: ``dx``/``dy``/``dz`` are ``(w, P)`` separation
    blocks (slot ``j`` of a target group against ``P`` cells); the cell
    operands ``m``, the six ``quad`` components (xx, yy, zz, xy, xz,
    yz) and the ``trq`` scratch are length-``P`` rows broadcast down the
    block, so per-cell terms -- the mass and tr Q -- cost one operation
    per cell, not one per target.  ``quad=None`` selects the monopole
    branch.  ``scratch`` holds nine more blocks shaped like ``dx``:
    (r2, tmp, qrx, qry, qrz, rqr, rinv2, rinv3, rinv5).
    ``dx``/``dy``/``dz`` and ``scratch[0]`` are consumed and alias (ax,
    ay, az, phi) on return.  Term for term this is
    :func:`pc_interactions`; constant factors associate differently, so
    the two agree to a few ulps.
    """
    r2, tmp, qrx, qry, qrz, rqr, rinv2, rinv3, rinv5 = scratch
    if quad is None:
        return pp_interactions_ws(dx, dy, dz, m, eps2, r2, tmp)
    qxx, qyy, qzz, qxy, qxz, qyz = quad

    np.multiply(dx, dx, out=r2)
    np.multiply(dy, dy, out=tmp)
    r2 += tmp
    np.multiply(dz, dz, out=tmp)
    r2 += tmp
    if eps2 != 0.0:
        r2 += eps2
    np.sqrt(r2, out=r2)
    np.divide(1.0, r2, out=r2)              # rinv
    rinv = r2

    np.add(qxx, qyy, out=trq)               # per cell
    trq += qzz

    # Q r (matrix-vector, symmetric packed form).
    np.multiply(qxx, dx, out=qrx)
    np.multiply(qxy, dy, out=tmp)
    qrx += tmp
    np.multiply(qxz, dz, out=tmp)
    qrx += tmp
    np.multiply(qxy, dx, out=qry)
    np.multiply(qyy, dy, out=tmp)
    qry += tmp
    np.multiply(qyz, dz, out=tmp)
    qry += tmp
    np.multiply(qxz, dx, out=qrz)
    np.multiply(qyz, dy, out=tmp)
    qrz += tmp
    np.multiply(qzz, dz, out=tmp)
    qrz += tmp

    np.multiply(dx, qrx, out=rqr)
    np.multiply(dy, qry, out=tmp)
    rqr += tmp
    np.multiply(dz, qrz, out=tmp)
    rqr += tmp

    # Powers of rinv; rinv7 overwrites rinv2, its last use.
    np.multiply(rinv, rinv, out=rinv2)
    np.multiply(rinv, rinv2, out=rinv3)
    np.multiply(rinv3, rinv2, out=rinv5)
    rinv7 = rinv2
    np.multiply(rinv5, rinv2, out=rinv7)

    phi = rinv                              # rinv is dead after this product
    np.multiply(m, rinv, out=phi)
    np.negative(phi, out=phi)
    np.multiply(trq, rinv3, out=tmp)
    tmp *= 0.5
    phi += tmp
    np.multiply(rqr, rinv5, out=tmp)
    tmp *= 1.5
    phi -= tmp

    radial = rinv3                          # rinv3 is dead after this product
    np.multiply(m, rinv3, out=radial)
    np.multiply(trq, rinv5, out=tmp)
    tmp *= 1.5
    radial -= tmp
    np.multiply(rqr, rinv7, out=tmp)
    tmp *= 7.5
    radial += tmp

    np.multiply(dx, radial, out=dx)
    np.multiply(qrx, rinv5, out=tmp)
    tmp *= 3.0
    dx -= tmp
    np.multiply(dy, radial, out=dy)
    np.multiply(qry, rinv5, out=tmp)
    tmp *= 3.0
    dy -= tmp
    np.multiply(dz, radial, out=dz)
    np.multiply(qrz, rinv5, out=tmp)
    tmp *= 3.0
    dz -= tmp
    return dx, dy, dz, phi


def point_forces_on_targets(targets: np.ndarray, sources: np.ndarray,
                            source_mass: np.ndarray, eps2: float
                            ) -> tuple[np.ndarray, np.ndarray]:
    """All-pairs forces of point sources on targets (no self-exclusion).

    Dense helper used by tests and the velocity/potential machinery of
    the initial-condition generator.  Returns (acc (n,3), phi (n,)).
    """
    targets = np.asarray(targets, dtype=np.float64)
    sources = np.asarray(sources, dtype=np.float64)
    source_mass = np.asarray(source_mass, dtype=np.float64)
    acc = np.zeros((len(targets), 3))
    phi = np.zeros(len(targets))
    # Chunk over targets to bound the (nt, ns) temporary.
    chunk = max(1, int(4.0e7 // max(len(sources), 1)))
    # Coincident target/source at eps = 0 yields inf (the helper does no
    # self-exclusion); keep that usage warning-clean like the pp kernel.
    with np.errstate(divide="ignore", invalid="ignore"):
        for s in range(0, len(targets), chunk):
            t = targets[s:s + chunk]
            d = sources[None, :, :] - t[:, None, :]
            r2 = np.einsum("ijk,ijk->ij", d, d) + eps2
            rinv = 1.0 / np.sqrt(r2)
            mrinv = source_mass[None, :] * rinv
            mrinv3 = mrinv * rinv * rinv
            acc[s:s + chunk] = np.einsum("ij,ijk->ik", mrinv3, d)
            phi[s:s + chunk] = -mrinv.sum(axis=1)
    return acc, phi
