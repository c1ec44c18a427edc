"""Process-transport unit tests: ProcessWorld semantics + shm codec.

The cross-transport *equivalence* matrix lives in
tests/harness/test_differential.py and tests/test_obs_determinism.py;
this file pins the process transport's own contract: typed errors that
fire fast (a dead worker must never hang the run), the shared-memory
payload codec's lifetime rules (receiver copies out and unlinks), the
single-run discipline, and the Hypothesis round-trip property for
``exchange_particles`` over real process boundaries.
"""

import glob
import os
import time

import numpy as np
import pytest

from repro import SimulationConfig
from repro.parallel.decomposition import DomainDecomposition
from repro.parallel.exchange import exchange_particles
from repro.particles import ParticleSet
from repro.simmpi import (
    RankFailedError,
    RecvTimeoutError,
    make_world,
    spmd_run,
)
from repro.simmpi.process import ProcessWorld
from repro.simmpi.shm import (
    SHM_MIN_BYTES,
    decode_payload,
    discard_payload,
    encode_payload,
)


def _shm_segments() -> set[str]:
    return set(glob.glob("/dev/shm/psm_*")) | set(glob.glob("/dev/shm/wnsm_*"))


@pytest.fixture(autouse=True)
def no_shm_leaks():
    before = _shm_segments()
    yield
    leaked = _shm_segments() - before
    assert not leaked, f"leaked shared-memory segments: {leaked}"


# -- basic transport -------------------------------------------------------

def test_p2p_inline_and_shm_paths():
    big = np.arange(SHM_MIN_BYTES, dtype=np.uint8)  # forces the shm path

    def prog(comm):
        if comm.rank == 0:
            comm.send({"small": 1}, dest=1, tag=1)
            comm.send(big, dest=1, tag=2)
            return None
        small = comm.recv(source=0, tag=1)
        arr = comm.recv(source=0, tag=2)
        return small, arr

    results = spmd_run(2, prog, transport="process", timeout=30.0)
    small, arr = results[1]
    assert small == {"small": 1}
    assert np.array_equal(arr, big)


def test_collectives_match_thread_semantics():
    def prog(comm):
        gathered = comm.allgather(comm.rank * 10)
        total = comm.allreduce(comm.rank + 1)
        root_val = comm.bcast("hello" if comm.rank == 0 else None)
        a2a = comm.alltoall([comm.rank * 100 + d for d in range(comm.size)])
        return gathered, total, root_val, a2a

    for r in spmd_run(3, prog, transport="process", timeout=30.0):
        gathered, total, root_val, a2a = r
        assert gathered == [0, 10, 20]
        assert total == 6
        assert root_val == "hello"
    assert spmd_run is not None


def test_received_arrays_are_private_copies():
    """No aliasing: the receiver owns a copy, shm segment already gone."""
    def prog(comm):
        if comm.rank == 0:
            arr = np.zeros(SHM_MIN_BYTES // 8)
            comm.send(arr, dest=1)
            comm.barrier()
            return float(arr[0])           # must still be 0.0
        arr = comm.recv(source=0)
        arr[:] = -1.0                       # mutate the received copy
        comm.barrier()
        return float(arr[0])

    results = spmd_run(2, prog, transport="process", timeout=30.0)
    assert results == [0.0, -1.0]


# -- typed errors ----------------------------------------------------------

def test_recv_timeout_is_typed():
    def prog(comm):
        if comm.rank == 1:
            with pytest.raises(RecvTimeoutError):
                comm.recv(source=0, tag=9, timeout=0.3)
        comm.barrier()
        return "ok"

    assert spmd_run(2, prog, transport="process", timeout=30.0) == ["ok"] * 2


def test_raising_worker_surfaces_as_rank_failed():
    def prog(comm):
        if comm.rank == 1:
            raise ValueError("worker exploded")
        comm.recv(source=1, tag=0)

    t0 = time.monotonic()
    with pytest.raises(RuntimeError, match="worker exploded") as ei:
        spmd_run(2, prog, transport="process", timeout=30.0)
    assert isinstance(ei.value.__cause__, ValueError)  # root cause chained
    assert time.monotonic() - t0 < 10.0


def test_peer_of_raising_worker_gets_rank_failed_error():
    def prog(comm):
        if comm.rank == 1:
            raise RuntimeError("dies quietly")
        try:
            comm.recv(source=1, tag=0)
        except RankFailedError as exc:
            return ("typed", exc.failed_rank)
        return ("wrong", None)

    try:
        results = spmd_run(2, prog, transport="process", timeout=30.0)
    except RuntimeError:
        return  # run-level policy may re-raise the root cause instead
    assert results[0] == ("typed", 1)


def test_hard_killed_worker_fails_fast_not_hang():
    """A worker dying without any report (os._exit) must be detected by
    the parent watchdog and surfaced as RankFailedError well inside the
    run timeout -- the no-hang acceptance criterion."""
    def prog(comm):
        if comm.rank == 2:
            os._exit(17)                    # no cleanup, no report
        comm.recv(source=2, tag=1)

    t0 = time.monotonic()
    with pytest.raises(RankFailedError) as ei:
        spmd_run(3, prog, transport="process", timeout=30.0)
    elapsed = time.monotonic() - t0
    assert ei.value.failed_rank == 2
    assert elapsed < 15.0, f"hard death took {elapsed:.1f}s to surface"


def test_world_is_single_run():
    world = make_world(2, transport="process", timeout=30.0)

    def prog(comm):
        return comm.rank

    assert spmd_run(2, prog, world=world) == [0, 1]
    with pytest.raises(RuntimeError, match="single-run"):
        spmd_run(2, prog, world=world)


def test_world_size_mismatch_rejected():
    world = make_world(2, transport="process", timeout=30.0)
    with pytest.raises(ValueError, match="ranks"):
        spmd_run(3, lambda comm: None, world=world)


def test_make_world_rejects_unknown_transport():
    with pytest.raises(ValueError):
        make_world(2, transport="carrier-pigeon")


def test_mpi4py_transport_is_unknown():
    # The mpi4py shim is gone: the name is an unknown transport at both
    # entry points.
    with pytest.raises(ValueError, match="unknown transport"):
        make_world(2, transport="mpi4py")
    with pytest.raises(ValueError, match="unknown transport"):
        SimulationConfig(transport="mpi4py")


# -- shm codec -------------------------------------------------------------

def test_shm_codec_roundtrip_inline():
    env = encode_payload({"a": np.arange(4)}, SHM_MIN_BYTES)
    assert env[0] == "inline"
    out = decode_payload(env)
    assert np.array_equal(out["a"], np.arange(4))


def test_shm_codec_roundtrip_segment():
    payload = {"x": np.arange(SHM_MIN_BYTES, dtype=np.uint8),
               "y": (np.ones(3), "meta")}
    env = encode_payload(payload, SHM_MIN_BYTES)
    assert env[0] == "shm"
    out = decode_payload(env)            # copies out + unlinks the segment
    assert np.array_equal(out["x"], payload["x"])
    assert np.array_equal(out["y"][0], np.ones(3))
    assert out["y"][1] == "meta"
    # decoded arrays are private: mutating them can't touch the original
    out["x"][:] = 0
    assert payload["x"][1] == 1


def test_shm_codec_discard_unlinks():
    env = encode_payload(np.arange(SHM_MIN_BYTES, dtype=np.uint8),
                         SHM_MIN_BYTES)
    assert env[0] == "shm"
    discard_payload(env)                 # receiver never decoded it
    # the autouse fixture asserts no segment leaked


# -- Hypothesis: exchange_particles round-trips over processes -------------

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

KEY_SPACE = 1 << 32


@st.composite
def exchange_cases(draw):
    ranks = draw(st.integers(min_value=1, max_value=3))
    n = draw(st.integers(min_value=0, max_value=48))
    keys = draw(st.lists(st.integers(min_value=0, max_value=KEY_SPACE - 1),
                         min_size=n, max_size=n))
    cuts = sorted(draw(st.lists(
        st.integers(min_value=0, max_value=KEY_SPACE),
        min_size=ranks - 1, max_size=ranks - 1)))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    return ranks, np.asarray(keys, dtype=np.uint64), cuts, seed


@settings(max_examples=10, deadline=None)
@given(exchange_cases())
def test_exchange_particles_roundtrip_on_process_world(case):
    ranks, keys, cuts, seed = case
    n = len(keys)
    rng = np.random.default_rng(seed)
    ps = ParticleSet(pos=rng.standard_normal((n, 3)),
                     vel=rng.standard_normal((n, 3)),
                     mass=rng.uniform(0.1, 1.0, n),
                     ids=np.arange(n, dtype=np.int64))
    pos_before = ps.pos.copy()
    decomp = DomainDecomposition(np.asarray([0, *cuts, KEY_SPACE],
                                            dtype=np.uint64))
    # contiguous shards, possibly empty on some ranks
    bounds = [n * r // ranks for r in range(ranks + 1)]

    def prog(comm):
        lo, hi = bounds[comm.rank], bounds[comm.rank + 1]
        local = ps.select(np.arange(lo, hi))
        out, out_keys = exchange_particles(comm, local, keys[lo:hi], decomp,
                                           return_keys=True)
        snapshot = (out.ids.copy(), out_keys.copy(), out.pos.copy(),
                    out.mass.copy())
        out.pos += 1e6          # mutation must stay private to this rank
        out_keys[:] = 0
        return snapshot

    results = spmd_run(ranks, prog, transport="process", timeout=60.0)

    all_ids = np.concatenate([r[0] for r in results])
    all_keys = np.concatenate([r[1] for r in results])
    all_pos = np.concatenate([r[2] for r in results])
    all_mass = np.concatenate([r[3] for r in results])
    # every particle delivered exactly once
    assert sorted(all_ids.tolist()) == list(range(n))
    # exact key carry-through and payload integrity, matched by id
    order = np.argsort(all_ids)
    assert np.array_equal(all_keys[order], keys)
    assert np.array_equal(all_pos[order], pos_before)
    assert np.array_equal(all_mass[order], ps.mass)
    # each particle landed on the rank owning its key
    owner = decomp.rank_of_keys(keys)
    for rank, (ids_r, keys_r, _, _) in enumerate(results):
        assert np.all(owner[ids_r] == rank)
    # worker-side mutations never reached the parent's arrays
    assert np.array_equal(ps.pos, pos_before)
