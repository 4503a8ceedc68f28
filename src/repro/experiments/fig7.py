"""Fig. 7: the communication-slow delay-matrix syndrome."""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.report import format_table
from repro.cluster.faults import FaultInjector
from repro.collective.algorithms import OpType
from repro.collective.context import CollectiveContext, RepeatedOp
from repro.collective.monitoring import RecordingSink
from repro.collective.placement import contiguous_ranks
from repro.core.c4d.delay_matrix import (
    DelayMatrix,
    MatrixFinding,
    analyze_delay_matrix,
    build_delay_matrix,
)
from repro.netsim.units import GIB
from repro.workloads.generator import build_cluster

#: The degraded NIC: both of its ports run at ``PORT_SCALE`` of line rate.
VICTIM_NODE = 3
VICTIM_NIC = 5
PORT_SCALE = 0.25
#: Nodes of the data-parallel communicator.
NUM_NODES = 8
#: Allreduces whose messages build the matrix.
OPS = 5


@dataclass(frozen=True)
class Fig7Result:
    """The aggregated matrix and the analyzer's verdict."""

    matrix: DelayMatrix
    finding: MatrixFinding
    injected_node: int
    injected_nic: int

    @property
    def localized(self) -> bool:
        """True when a suspect matches the injected component."""
        return any(
            s.node == self.injected_node and s.device == self.injected_nic
            for s in self.finding.suspects
        )


def run(seed: int = 11) -> Fig7Result:
    """Degrade one NIC, run allreduces, build and analyze the matrix."""
    scenario = build_cluster(ecmp_seed=seed)
    sink = RecordingSink()
    context = CollectiveContext(scenario.topology, sink=sink)
    comm = context.communicator(contiguous_ranks(range(NUM_NODES), 8), comm_id="dp")
    injector = FaultInjector(seed=0)
    for side in (0, 1):
        injector.degrade_nic_port(
            scenario.topology, node=VICTIM_NODE, nic=VICTIM_NIC, side=side, scale=PORT_SCALE
        )
    runner = RepeatedOp(context, comm, OpType.ALLREDUCE, 1 * GIB, max_ops=OPS)
    runner.start()
    scenario.network.run()
    matrix = build_delay_matrix(sink.messages)
    return Fig7Result(
        matrix=matrix,
        finding=analyze_delay_matrix(matrix),
        injected_node=VICTIM_NODE,
        injected_nic=VICTIM_NIC,
    )


def format_result(result: Fig7Result) -> str:
    """Render the flagged pairs and the localization verdict."""
    baseline = result.matrix.baseline()
    rows = [
        (f"{src[0]}/{src[1]} -> {dst[0]}/{dst[1]}", f"{score / baseline:.2f}x")
        for (src, dst), score in sorted(result.matrix.scores.items())
        if score / baseline > 1.5
    ]
    rows.append(("suspects", ", ".join(str(s) for s in result.finding.suspects)))
    verdict = "localized" if result.localized else "MISSED"
    header = (
        f"Fig. 7 — injected slow NIC node{result.injected_node}/nic{result.injected_nic}: "
        f"{verdict}\n"
    )
    return header + format_table(["worker pair", "normalized delay"], rows)
