"""Runtime validation: force accuracy and finite state.

Tree codes trade accuracy for speed through theta; production campaigns
routinely spot-check the approximation by recomputing exact forces for a
random particle sample (cheap: O(sample * N)).  This module provides
that check for both the serial and distributed drivers and is used by
the test suite as the ground-truth oracle.  It also holds the
step-boundary finiteness check both drivers run after every step, so a
non-finite state stops the run where it appears instead of spreading.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from ..gravity import direct_forces
from ..particles import ParticleSet


@dataclasses.dataclass(frozen=True)
class ForceAccuracy:
    """Relative force-error statistics over a validation sample."""

    sample_size: int
    median: float
    p90: float
    p99: float
    maximum: float
    potential_median: float

    def acceptable(self, theta: float) -> bool:
        """Rule-of-thumb acceptance: the median error of a quadrupole
        Barnes-Hut code scales like theta^4; allow a generous envelope
        (x50) above it, with an absolute floor for round-off."""
        return self.median < max(50.0 * theta ** 4 * 1e-2, 1e-9)


def validate_forces(particles: ParticleSet, acc: np.ndarray,
                    phi: np.ndarray, eps: float,
                    sample_size: int = 256,
                    rng: np.random.Generator | None = None) -> ForceAccuracy:
    """Compare tree forces against exact summation on a random sample.

    Parameters
    ----------
    particles:
        The full particle set (sources for the exact computation).
    acc, phi:
        Tree-code accelerations/potentials for the same particles.
    eps:
        The softening used by the tree code (must match).
    sample_size:
        Number of target particles to validate (exact cost is
        sample_size x N).
    """
    rng = rng or np.random.default_rng(0)
    n = particles.n
    k = min(sample_size, n)
    targets = rng.choice(n, size=k, replace=False)
    acc_d, phi_d = direct_forces(particles.pos, particles.mass, eps=eps,
                                 targets=targets)
    num = np.linalg.norm(acc[targets] - acc_d, axis=1)
    den = np.linalg.norm(acc_d, axis=1) + 1e-300
    rel = num / den
    perr = np.abs((phi[targets] - phi_d) / (phi_d + 1e-300))
    return ForceAccuracy(
        sample_size=k,
        median=float(np.median(rel)),
        p90=float(np.percentile(rel, 90)),
        p99=float(np.percentile(rel, 99)),
        maximum=float(rel.max()),
        potential_median=float(np.median(perr)),
    )


def check_finite_state(particles: ParticleSet, acc: np.ndarray,
                       step: int) -> None:
    """Raise ``FloatingPointError`` if any position, velocity or
    acceleration is non-finite at step ``step``.

    The error names the first offending particle by its persistent id.
    One ``isfinite`` pass per array: about 0.1 ms at N = 20000.
    """
    if (np.isfinite(particles.pos).all() and np.isfinite(particles.vel).all()
            and np.isfinite(acc).all()):
        return
    bad = ~(np.isfinite(particles.pos).all(axis=1)
            & np.isfinite(particles.vel).all(axis=1)
            & np.isfinite(acc).all(axis=1))
    if bad.any():
        i = int(np.argmax(bad))
        raise FloatingPointError(
            f"non-finite state at step {step}: {int(bad.sum())} "
            f"particle(s), first id {int(particles.ids[i])} "
            f"(pos {particles.pos[i]}, vel {particles.vel[i]}, "
            f"acc {acc[i]})")
