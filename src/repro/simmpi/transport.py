"""Transport registry: one SPMD programming model, pluggable substrates.

Every transport exposes the same contract -- a *world* carrying
``size``/``timeout``/``metrics``/``traffic``/``attach_tracer`` plus the
message primitives :class:`~repro.simmpi.comm.SimComm` drives -- so the
simulation, the fault harness and the observability stack are written
once and run unchanged on any of:

``threads``
    :class:`~repro.simmpi.runtime.SimWorld` -- every rank is a thread
    of this process sharing one address space.  Deterministic, cheap,
    zero-copy; serialised on the GIL.
``process``
    :class:`~repro.simmpi.process.ProcessWorld` -- every rank is a
    forked OS process; ndarray payloads travel through
    ``multiprocessing.shared_memory``.  True multi-core.

See ``docs/TRANSPORTS.md`` for the feature matrix.
"""

from __future__ import annotations

from typing import Any

#: Recognised transport names, in preference order.
TRANSPORTS = ("threads", "process")


def world_transport(world: Any) -> str:
    """Name of the transport a world object implements."""
    return getattr(world, "transport", "threads")


def make_world(size: int, transport: str = "threads",
               timeout: float = 120.0, schedule=None, seed: int = 0,
               watchdog_grace: float | None = None, **kwargs: Any):
    """Build a world for ``transport``.

    ``schedule`` (a :class:`~repro.faults.FaultSchedule`) selects the
    fault-injecting variant of the transport; ``seed`` feeds its
    deterministic lottery.  ``watchdog_grace`` tunes the process
    transport's dead-worker watchdog (ignored by transports that have
    no watchdog).  Extra ``kwargs`` go to the world constructor
    (e.g. ``shm_threshold`` for ``process``).
    """
    if transport == "process" and watchdog_grace is not None:
        kwargs["watchdog_grace"] = watchdog_grace
    if transport == "threads":
        from .runtime import SimWorld
        if schedule is not None:
            from ..faults import FaultyWorld
            return FaultyWorld(size, schedule, seed=seed, timeout=timeout,
                               **kwargs)
        return SimWorld(size, timeout=timeout, **kwargs)
    if transport == "process":
        from .process import ProcessWorld
        if schedule is not None:
            from ..faults.process import FaultyProcessWorld
            return FaultyProcessWorld(size, schedule, seed=seed,
                                      timeout=timeout, **kwargs)
        return ProcessWorld(size, timeout=timeout, **kwargs)
    raise ValueError(
        f"unknown transport {transport!r}; expected one of {TRANSPORTS}")
