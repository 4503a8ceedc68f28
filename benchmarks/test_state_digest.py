"""State-digest ladder: recovery's digest at 64 and 1,024 ranks.

The records of ``test_record_path.py``'s generator cross the journaled
path, the plane snapshots half-way, and a fresh plane recovers from the
store (restore, then replay of the second half).  Before it is timed,
each size checks two things:

* the recovered digest equals the digest's definition, SHA-256 of
  ``json.dumps(state, sort_keys=True, separators=(",", ":"),
  default=encode)``, on both the live and the recovered state;
* at 1,024 ranks, one ``state_digest`` allocates at most
  :data:`PEAK_BYTES` at its peak (``tracemalloc``): the record windows
  go to the hash a chunk at a time (0.7 MB peak, Python 3.11), where the
  ``json.dumps`` reference builds the whole text and its bytes (6.4 MB).
"""

import hashlib
import json
import tracemalloc

import pytest

from benchmarks.test_record_path import GPUS, NODES, deliver, generate, journaled_path
from repro.codec import encode
from repro.controlplane import C4DControlPlane, state_digest
from repro.obs.metrics import MetricsRegistry

PEAK_BYTES = 2 * 2**20


def reference_digest(state) -> str:
    canonical = json.dumps(state, sort_keys=True, separators=(",", ":"), default=encode)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def peak_bytes(fn, *args) -> int:
    """Peak traced allocation while ``fn(*args)`` runs."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def recovered_plane(nodes: int):
    """``(live plane, plane recovered from its store)`` after every step."""
    communicator, steps = generate(nodes)
    half = len(steps) // 2
    agents, clock = journaled_path(nodes)
    plane = deliver(agents, clock, communicator, steps[:half])
    assert plane.snapshot()
    for now, launches, ops, messages in steps[half:]:
        clock.now = now
        for record in launches:
            agents.on_op_launch(record)
        for record in ops:
            agents.on_op(record)
        for record in messages:
            agents.on_message(record)
    fresh = C4DControlPlane(
        plane.topology,
        backup_nodes=plane.backup_nodes,
        store=plane.store,
        leases=plane.leases,
        active=False,
        metrics=MetricsRegistry(),
    )
    info = fresh.recover(now=clock.now)
    replayed = plane.store.entries_after(plane.store.snapshots[-1].seq)
    assert info["entries_replayed"] == len(list(replayed))
    return plane, fresh, info


@pytest.mark.parametrize("nodes", NODES)
def test_state_digest(benchmark, nodes):
    plane, fresh, info = recovered_plane(nodes)
    state = fresh.state()
    expected = reference_digest(plane.state())
    assert info["digest"] == state_digest(state) == reference_digest(state) == expected

    peak = peak_bytes(state_digest, state)
    if nodes == max(NODES):
        assert peak < PEAK_BYTES, f"state_digest peaked at {peak / 2**20:.1f} MB"

    benchmark.group = f"State digest of a recovered plane, {nodes * GPUS} ranks"
    benchmark.extra_info["peak_mb"] = round(peak / 2**20, 2)
    reference_peak = peak_bytes(reference_digest, state)
    benchmark.extra_info["reference_peak_mb"] = round(reference_peak / 2**20, 2)
    benchmark.pedantic(state_digest, args=(state,), rounds=5, iterations=1)

