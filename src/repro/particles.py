"""Particle container used throughout the library.

A :class:`ParticleSet` is a struct-of-arrays view of an N-body system:
positions, velocities, masses, persistent ids and an integer component
tag (bulge / disk / halo for the Milky Way model).  All arrays are plain
``numpy`` arrays so the set can be sliced, shuffled, split across ranks
and concatenated cheaply.
"""

from __future__ import annotations

import dataclasses
from typing import Iterable

import numpy as np

#: Component tags used by the Milky Way initial conditions.
COMPONENT_BULGE = 0
COMPONENT_DISK = 1
COMPONENT_HALO = 2

COMPONENT_NAMES = {COMPONENT_BULGE: "bulge",
                   COMPONENT_DISK: "disk",
                   COMPONENT_HALO: "halo"}


@dataclasses.dataclass
class ParticleSet:
    """An N-body particle system in internal units (G = 1).

    Attributes
    ----------
    pos : (N, 3) float64
        Positions.
    vel : (N, 3) float64
        Velocities.
    mass : (N,) float64
        Particle masses.
    ids : (N,) int64
        Persistent particle identifiers (survive sorting / exchange).
    component : (N,) int8
        Component tag (see :data:`COMPONENT_NAMES`); -1 when untagged.
    """

    pos: np.ndarray
    vel: np.ndarray
    mass: np.ndarray
    ids: np.ndarray | None = None
    component: np.ndarray | None = None

    def __post_init__(self) -> None:
        self.pos = np.ascontiguousarray(self.pos, dtype=np.float64)
        self.vel = np.ascontiguousarray(self.vel, dtype=np.float64)
        self.mass = np.ascontiguousarray(self.mass, dtype=np.float64)
        n = len(self.mass)
        if self.pos.shape != (n, 3) or self.vel.shape != (n, 3):
            raise ValueError(
                f"inconsistent shapes: pos {self.pos.shape}, vel {self.vel.shape}, "
                f"mass ({n},)")
        for name in ("pos", "vel", "mass"):
            arr = getattr(self, name)
            if not np.isfinite(arr).all():
                bad = ~np.isfinite(arr.reshape(n, -1)).all(axis=1)
                raise ValueError(f"{name} is non-finite at particle index "
                                 f"{int(np.argmax(bad))}")
        if self.ids is None:
            self.ids = np.arange(n, dtype=np.int64)
        else:
            self.ids = np.ascontiguousarray(self.ids, dtype=np.int64)
            if self.ids.shape != (n,):
                raise ValueError("ids shape mismatch")
        if self.component is None:
            self.component = np.full(n, -1, dtype=np.int8)
        else:
            self.component = np.ascontiguousarray(self.component, dtype=np.int8)
            if self.component.shape != (n,):
                raise ValueError("component shape mismatch")

    def __len__(self) -> int:
        return len(self.mass)

    @property
    def n(self) -> int:
        """Number of particles."""
        return len(self.mass)

    @property
    def total_mass(self) -> float:
        """Sum of particle masses."""
        return float(self.mass.sum())

    def select(self, index: np.ndarray) -> "ParticleSet":
        """Return a new set containing the indexed particles (copy)."""
        return ParticleSet(pos=self.pos[index].copy(),
                           vel=self.vel[index].copy(),
                           mass=self.mass[index].copy(),
                           ids=self.ids[index].copy(),
                           component=self.component[index].copy())

    def select_component(self, tag: int) -> "ParticleSet":
        """Return the particles belonging to one component."""
        return self.select(np.flatnonzero(self.component == tag))

    def reorder(self, order: np.ndarray) -> None:
        """Permute all arrays in place by ``order``."""
        self.pos = self.pos[order]
        self.vel = self.vel[order]
        self.mass = self.mass[order]
        self.ids = self.ids[order]
        self.component = self.component[order]

    def copy(self) -> "ParticleSet":
        """Deep copy."""
        return ParticleSet(pos=self.pos.copy(), vel=self.vel.copy(),
                           mass=self.mass.copy(), ids=self.ids.copy(),
                           component=self.component.copy())

    @classmethod
    def concatenate(cls, sets: Iterable["ParticleSet"]) -> "ParticleSet":
        """Concatenate several particle sets into one."""
        sets = list(sets)
        if not sets:
            raise ValueError("nothing to concatenate")
        return cls(pos=np.concatenate([s.pos for s in sets]),
                   vel=np.concatenate([s.vel for s in sets]),
                   mass=np.concatenate([s.mass for s in sets]),
                   ids=np.concatenate([s.ids for s in sets]),
                   component=np.concatenate([s.component for s in sets]))

    @classmethod
    def empty(cls) -> "ParticleSet":
        """An empty particle set."""
        return cls(pos=np.empty((0, 3)), vel=np.empty((0, 3)),
                   mass=np.empty(0))

    # -- diagnostics -------------------------------------------------------

    def kinetic_energy(self) -> float:
        """Total kinetic energy, sum of m v^2 / 2."""
        return float(0.5 * np.sum(self.mass * np.einsum("ij,ij->i", self.vel, self.vel)))

    def center_of_mass(self) -> np.ndarray:
        """Mass-weighted mean position."""
        return (self.mass[:, None] * self.pos).sum(axis=0) / self.total_mass

    def center_of_mass_velocity(self) -> np.ndarray:
        """Mass-weighted mean velocity."""
        return (self.mass[:, None] * self.vel).sum(axis=0) / self.total_mass

    def momentum(self) -> np.ndarray:
        """Total linear momentum."""
        return (self.mass[:, None] * self.vel).sum(axis=0)

    def angular_momentum(self) -> np.ndarray:
        """Total angular momentum about the origin."""
        return (self.mass[:, None] * np.cross(self.pos, self.vel)).sum(axis=0)
