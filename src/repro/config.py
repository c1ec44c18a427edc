"""Simulation configuration shared by the serial and parallel drivers."""

from __future__ import annotations

import dataclasses
import math
import numbers

from .constants import PAPER_NLEAF, PAPER_THETA


@dataclasses.dataclass
class SimulationConfig:
    """Parameters of a tree-code simulation.

    Defaults follow the paper's production configuration (Sec. IV, VI):
    opening angle theta = 0.4, leaf capacity 16, Peano-Hilbert ordering,
    quadrupole corrections on, the Bonsai MAC.
    """

    theta: float = PAPER_THETA
    softening: float = 0.01          # internal units (kpc); paper: 1e-3
    dt: float = 0.25                 # internal time units
    nleaf: int = PAPER_NLEAF
    ncrit: int = 64
    mac: str = "bonsai"              # "bonsai" or "bh"
    curve: str = "hilbert"           # "hilbert" or "morton"
    quadrupole: bool = True
    force_method: str = "tree"       # "tree" or "direct" (O(N^2) oracle)

    # --- Execution substrate --------------------------------------------
    #: SimMPI transport for parallel runs: "threads" (in-process,
    #: deterministic, GIL-bound) or "process" (forked ranks + shared
    #: memory, true multi-core).
    #: See :mod:`repro.simmpi.transport` and docs/TRANSPORTS.md.
    transport: str = "threads"
    #: Process-transport watchdog: seconds between noticing a worker
    #: died silently and declaring it failed without a report (booked
    #: as the ``watchdog_grace_seconds`` gauge; see
    #: docs/OBSERVABILITY.md section 13).  Ignored by other transports.
    watchdog_grace: float = 1.0

    def __post_init__(self) -> None:
        if self.force_method not in ("tree", "direct"):
            raise ValueError(f"unknown force_method {self.force_method!r}")
        # bool is an int subclass, so it is rejected explicitly: a
        # leaf capacity of True is a typo, not a size.
        for name in ("nleaf", "ncrit"):
            value = getattr(self, name)
            if not isinstance(value, numbers.Integral) \
                    or isinstance(value, bool) or value < 1:
                raise ValueError(f"{name} must be an int >= 1, "
                                 f"got {value!r}")
        if not isinstance(self.quadrupole, bool):
            raise ValueError(f"quadrupole must be a bool, "
                             f"got {self.quadrupole!r}")
        # NaN compares False against every bound, so finiteness is
        # checked first: a NaN theta never accepts a cell and a NaN dt
        # or softening poisons every position after one step.
        for name in ("theta", "softening", "dt", "watchdog_grace"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, "
                                 f"got {getattr(self, name)!r}")
        if self.theta <= 0.0:
            raise ValueError("theta must be positive")
        if self.softening < 0.0:
            raise ValueError("softening must be non-negative")
        if self.dt <= 0.0:
            raise ValueError("dt must be positive")
        if self.mac not in ("bonsai", "bh"):
            raise ValueError(f"unknown MAC {self.mac!r}")
        if self.curve not in ("hilbert", "morton"):
            raise ValueError(f"unknown curve {self.curve!r}")
        from .simmpi.transport import TRANSPORTS
        if self.transport not in TRANSPORTS:
            raise ValueError(f"unknown transport {self.transport!r}; "
                             f"expected one of {TRANSPORTS}")
        if self.watchdog_grace <= 0.0:
            raise ValueError("watchdog_grace must be positive")
