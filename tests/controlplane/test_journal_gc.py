"""Appending a record to the journal leaves nothing for the cyclic GC.

CPython's cyclic garbage collector runs a full collection once enough
container objects have survived earlier passes, and each full
collection walks every live container.  The C4D plane journals every
record it ingests and keeps the entry until a compaction, so any
container the journal builds per record piles up on the heap and
keeps triggering full collections over the whole detection state.
These tests pin the journal's per-record footprint in GC-tracked
objects, and keep collector tuning out of the code base: the journal
must not need it.
"""

import ast
import gc
from pathlib import Path

from repro.cluster.specs import TESTBED_16_NODES
from repro.cluster.topology import ClusterTopology
from repro.controlplane import C4DControlPlane, JournalStore, LeaseTable
from repro.netsim.network import FlowNetwork
from repro.obs.metrics import MetricsRegistry
from repro.telemetry.agent import AgentPlane

from tests.controlplane.test_record_path import BIG, BIG_STEPS, deliver, step_records

ROOT = Path(__file__).resolve().parents[2]
#: Steps fed after the windows evict, each one followed by an evaluation.
MEASURED_STEPS = 8
#: ``gc`` functions that tune or switch off the collector.
GC_TUNING = frozenset({"disable", "freeze", "set_threshold"})


def test_journaled_records_add_no_gc_tracked_objects():
    registry = MetricsRegistry()
    net = FlowNetwork(metrics=registry)
    leases = LeaseTable(lease_seconds=60.0, metrics=registry)
    plane = C4DControlPlane(
        ClusterTopology(TESTBED_16_NODES, FlowNetwork(), ecmp_seed=0),
        backup_nodes=[14, 15],
        store=JournalStore(metrics=registry),
        leases=leases,
        metrics=registry,
    )
    agents = AgentPlane(plane, clock=lambda: net.now, leases=leases, metrics=registry)
    agents.on_communicator(BIG)

    def step(seq: int, records) -> None:
        net.run(until=10.0 * (seq + 1))
        deliver(agents, records)
        plane.evaluate(net.now)

    # Every window of ``big`` is full and evicting from here on.
    for seq in range(BIG_STEPS):
        step(seq, step_records(BIG, seq, 10.0 * (seq + 1), messages=4))
    # The measured records exist before the first count: only what the
    # path keeps per record can grow the heap.
    measured = [
        (seq, step_records(BIG, seq, 10.0 * (seq + 1), messages=4))
        for seq in range(BIG_STEPS, BIG_STEPS + MEASURED_STEPS)
    ]
    fed = sum(len(kind) for _seq, records in measured for kind in records)
    gc.collect()
    before = len(gc.get_objects())
    for seq, records in measured:
        step(seq, records)
    gc.collect()
    growth = len(gc.get_objects()) - before
    assert plane.store.fence_rejections == 0
    assert growth < fed / 10, f"{growth} GC-tracked objects for {fed} records"


def gc_tuning_calls(path: Path) -> list[str]:
    """``gc.<name>(...)`` calls in ``path`` that tune the collector."""
    calls = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "gc"
            and node.func.attr in GC_TUNING
        ):
            calls.append(f"{path.relative_to(ROOT)}:{node.lineno} gc.{node.func.attr}")
    return calls


def test_no_collector_tuning_in_src_or_tests():
    files = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "tests").rglob("*.py"))
    assert files
    assert [call for path in files for call in gc_tuning_calls(path)] == []
