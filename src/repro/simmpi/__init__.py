"""SimMPI: a pluggable SPMD message-passing runtime.

The paper's parallel algorithm is written against MPI.  This package
provides substitutes at two fidelity levels behind one contract
(see :mod:`repro.simmpi.transport` and ``docs/TRANSPORTS.md``):

- ``threads`` -- each logical rank runs the *same* SPMD program in its
  own thread, communicating through a shared :class:`SimWorld` with
  mpi4py-like semantics and byte-accurate traffic accounting;
- ``process`` -- each rank is a forked OS process
  (:class:`ProcessWorld`), ndarray payloads moving through
  ``multiprocessing.shared_memory``: true multi-core execution with
  identical accounting.

Failure semantics: a rank that dies is *marked* on the world, and every
peer blocked on it receives a typed :class:`RankFailedError` within one
poll interval; a live-but-silent peer produces :class:`RecvTimeoutError`
after the configured deadline.  :mod:`repro.faults` builds on these
hooks to inject deterministic message-level faults on the in-process
transports.
"""

from .errors import (
    RankFailedError,
    RecvTimeoutError,
    SimMPIError,
    SimulatedRankCrash,
)
from .traffic import TrafficLog
from .comm import Request, SimComm
from .runtime import SimWorld, resolve_run_errors, spmd_run
from .transport import TRANSPORTS, make_world, world_transport

__all__ = [
    "TrafficLog",
    "Request",
    "SimComm",
    "SimWorld",
    "spmd_run",
    "resolve_run_errors",
    "TRANSPORTS",
    "make_world",
    "world_transport",
    "SimMPIError",
    "RecvTimeoutError",
    "RankFailedError",
    "SimulatedRankCrash",
]


def __getattr__(name: str):
    # ProcessWorld imports multiprocessing machinery; load lazily so
    # plain threaded use never pays for it.
    if name in ("ProcessWorld", "ProcessRankWorld"):
        from . import process
        return getattr(process, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
