"""The collective engine: running operations on the simulated fabric.

:class:`CollectiveContext` binds a communicator's traffic to the
cluster: it asks the path selector for QP allocations when connections
are first used, converts each collective operation into weighted
simulator flows (one per QP per ring edge per channel), synchronizes
ranks at the BSP barrier, and emits the three-layer monitoring records
that C4D consumes.

One context per job/tenant; contexts sharing a
:class:`~repro.netsim.network.FlowNetwork` contend for bandwidth, which
is how the multi-job experiments (Fig. 10) are expressed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional, Sequence

from repro.cluster.topology import ClusterTopology
from repro.collective.algorithms import (
    DEFAULT_ALGORITHM,
    SUPPORTED_ALGORITHMS,
    Algorithm,
    OpType,
    traffic_factor,
)
from repro.collective.communicator import Communicator, RankLocation
from repro.collective.monitoring import (
    CommunicatorRecord,
    MessageRecord,
    MonitoringSink,
    OpLaunchRecord,
    OpRecord,
)
from repro.collective.schedules import (
    Phase,
    Transfer,
    halving_doubling_phases,
    hierarchical_allreduce_phases,
    pairwise_alltoall_phases,
    ring_phases,
    tree_phases,
)
from repro.collective.selectors import EcmpPathSelector, PathRequest, PathSelector, QpAllocation
from repro.collective.transport import Connection
from repro.netsim.flows import Flow
from repro.netsim.links import Link
from repro.netsim.units import GBPS

#: Bits per element for the supported data types.
DTYPE_BITS = {"fp8": 8, "fp16": 16, "bf16": 16, "fp32": 32, "fp64": 64}


def _dispatch_link_down(link: Link, flows: Sequence[Flow]) -> None:
    """Network-level reroute hook: fan out to each flow's selector."""
    groups: dict[int, tuple[PathSelector, list[Flow]]] = {}
    for flow in flows:
        selector = flow.metadata.get("selector")
        if selector is None:
            continue
        key = id(selector)
        if key not in groups:
            groups[key] = (selector, [])
        groups[key][1].append(flow)
    for selector, group in groups.values():
        selector.on_link_down(link, group)


@dataclass
class OpHandle:
    """A collective operation in flight (or finished)."""

    comm: Communicator
    seq: int
    op_type: OpType
    algorithm: Algorithm
    size_bits: float
    dtype: str
    launch_times: list[float]
    start_time: float
    end_time: float = math.nan
    done: bool = False
    hung: bool = False
    on_complete: Optional[Callable[["OpHandle"], None]] = None
    #: (connection, allocation) -> completion time of that QP's flow.
    qp_end_times: dict[tuple[int, int], float] = field(default_factory=dict)
    connections: list[Connection] = field(default_factory=list)
    _pending_flows: int = 0
    _phases: list[Phase] = field(default_factory=list)
    _phase_index: int = 0
    _post_intra_bits: float = 0.0

    @property
    def duration(self) -> float:
        """Transfer time from the BSP barrier to completion."""
        return self.end_time - self.start_time

    @property
    def busbw(self) -> float:
        """nccl-tests bus bandwidth in bits/s."""
        return traffic_factor(self.op_type, self.comm.size) * self.size_bits / self.duration

    @property
    def busbw_gbps(self) -> float:
        """Aggregate bus bandwidth in Gbps (nccl-tests convention)."""
        return self.busbw / GBPS

    @property
    def busbw_per_nic_gbps(self) -> float:
        """Bus bandwidth per NIC/channel in Gbps.

        This is the unit the paper's figures use: with 400 Gbps bonded
        NICs the ideal value is ~400, and the NVLink fabric caps it at
        ~362 (§IV-B).  It equals the aggregate bus bandwidth divided by
        the number of channels (NICs per node engaged by the
        communicator).
        """
        return self.busbw_gbps / len(self.comm.channels())


class CollectiveContext:
    """Runs collectives for one job on a shared fabric.

    Parameters
    ----------
    topology:
        The built cluster (shared across jobs).
    selector:
        Path-selection strategy; defaults to the ECMP baseline.  Passing
        a C4P client selector here is how a job opts into traffic
        engineering.
    sink:
        Monitoring sink receiving the three-layer records (a C4 agent,
        a RecordingSink, or None to disable monitoring).
    job_id:
        Tenant identifier reported to the path selector.
    qp_work_stealing:
        Emulate the transport's chunk queue: when a QP finishes its
        share of an operation while a sibling QP still has work, half of
        the slowest sibling's remaining bytes are re-posted on the idle
        QP.  This matches how real CCLs round-robin chunks over QPs —
        a connection's throughput approaches the *sum* of its paths'
        bandwidths instead of being gated by the slowest QP.
    """

    #: Work below this fraction of the original per-QP share is not
    #: worth re-posting (bounds the number of stealing rounds).
    MIN_STEAL_FRACTION = 0.02
    #: QPs per connection (2 in the bonded reference configuration).
    QPS_PER_CONNECTION = 2
    #: Transport-layer messages logged per QP per operation.
    MESSAGES_PER_OP = 8
    #: Bus bandwidth of NVLink-only collectives in bits/s (single-node
    #: communicators never touch the network).
    INTRA_NODE_BUSBW = 2400.0 * GBPS

    def __init__(
        self,
        topology: ClusterTopology,
        selector: Optional[PathSelector] = None,
        sink: Optional[MonitoringSink] = None,
        job_id: str = "job0",
        qp_work_stealing: bool = True,
    ) -> None:
        self.topology = topology
        self.network = topology.network
        self.selector: PathSelector = selector or EcmpPathSelector(topology)
        self.sink = sink
        self.job_id = job_id
        self.qp_work_stealing = qp_work_stealing
        self._connections: dict[tuple, Connection] = {}
        # All jobs share one reroute dispatcher.
        self.network.reroute_handler = _dispatch_link_down

    # ------------------------------------------------------------------
    # Communicators
    # ------------------------------------------------------------------
    def communicator(
        self, ranks: Sequence[RankLocation], comm_id: Optional[str] = None
    ) -> Communicator:
        """Create a communicator and log its communicator-layer record."""
        comm = Communicator(ranks, comm_id=comm_id)
        if self.sink is not None:
            self.sink.on_communicator(
                CommunicatorRecord(comm_id=comm.comm_id, size=comm.size, ranks=tuple(comm.ranks))
            )
        return comm

    def connection_for(
        self, comm: Communicator, src_node: int, src_nic: int, dst_node: int, dst_nic: int
    ) -> Connection:
        """Get or establish the connection for one channel edge."""
        key = (comm.comm_id, src_node, src_nic, dst_node, dst_nic)
        conn = self._connections.get(key)
        if conn is None:
            request = PathRequest(
                comm_id=comm.comm_id,
                job_id=self.job_id,
                src_node=src_node,
                src_nic=src_nic,
                dst_node=dst_node,
                dst_nic=dst_nic,
                num_qps=self.QPS_PER_CONNECTION,
            )
            allocations = self.selector.allocate(request)
            conn = Connection(
                request=request,
                allocations=allocations,
                src_ip=self.topology.node(src_node).nics[src_nic].ip_address,
                dst_ip=self.topology.node(dst_node).nics[dst_nic].ip_address,
            )
            self._connections[key] = conn
        return conn

    @property
    def connections(self) -> list[Connection]:
        """All connections this job has established."""
        return list(self._connections.values())

    def close(self) -> None:
        """Tear down the job's transport: release every connection.

        Returns the QPs' path reservations to the selector (the C4P
        master decrements its per-link allocation counts, freeing the
        capacity for other tenants).  Idempotent.
        """
        for connection in self._connections.values():
            self.selector.release(connection.request, connection.allocations)
        self._connections.clear()

    # ------------------------------------------------------------------
    # Operations
    # ------------------------------------------------------------------
    def run_op(
        self,
        comm: Communicator,
        op_type: OpType,
        size_bits: float,
        dtype: str = "fp16",
        entry_offsets: Optional[Sequence[float]] = None,
        on_complete: Optional[Callable[[OpHandle], None]] = None,
        algorithm: Optional[Algorithm] = None,
        hang: bool = False,
        absent_ranks: Iterable[int] = (),
    ) -> OpHandle:
        """Launch one collective operation at the current simulated time.

        ``entry_offsets`` are per-rank delays between "the op was issued"
        and "this rank launched the kernel" — how compute/data-loading
        skew (including straggler nodes) reaches the BSP barrier.

        ``hang=True`` models a communication hang: kernels launch, the
        operation never completes.  ``absent_ranks`` never launch at all
        (crashed worker), which is the non-communication-hang syndrome.
        """
        if size_bits <= 0:
            raise ValueError("size_bits must be positive")
        if entry_offsets is not None and len(entry_offsets) != comm.size:
            raise ValueError("entry_offsets must have one entry per rank")
        algorithm = algorithm or DEFAULT_ALGORITHM[op_type]
        if algorithm not in SUPPORTED_ALGORITHMS[op_type]:
            raise ValueError(f"{algorithm.value} cannot realize {op_type.value}")
        seq = comm.next_seq()
        now = self.network.now
        offsets = list(entry_offsets) if entry_offsets is not None else [0.0] * comm.size
        launches = [now + max(0.0, off) for off in offsets]
        absent = set(absent_ranks)
        live_launches = [t for r, t in enumerate(launches) if r not in absent]
        start_time = max(live_launches) if live_launches else now

        handle = OpHandle(
            comm=comm,
            seq=seq,
            op_type=op_type,
            algorithm=algorithm,
            size_bits=size_bits,
            dtype=dtype,
            launch_times=launches,
            start_time=start_time,
            on_complete=on_complete,
        )

        if self.sink is not None:
            # Startup records: logged by every rank that actually enters
            # the collective (absent ranks crashed before reaching it).
            for rank, location in enumerate(comm.ranks):
                if rank in absent:
                    continue
                self.sink.on_op_launch(
                    OpLaunchRecord(
                        comm_id=comm.comm_id,
                        seq=seq,
                        op_type=op_type,
                        rank=rank,
                        location=location,
                        launch_time=launches[rank],
                    )
                )

        if hang or absent:
            handle.hung = True
            # Kernels of present ranks launch and then wait forever; no
            # completion records are ever produced.  C4D sees the stalled
            # sequence numbers.
            return handle

        if comm.is_single_node:
            duration = (
                traffic_factor(op_type, comm.size) * size_bits / self.INTRA_NODE_BUSBW
            )
            self.network.schedule_at(
                max(start_time + duration, now), lambda: self._finish(handle)
            )
            return handle

        self._launch_network_op(handle)
        return handle

    def run_send_recv(
        self,
        src: RankLocation,
        dst: RankLocation,
        size_bits: float,
        comm: Communicator,
        on_complete: Optional[Callable[[OpHandle], None]] = None,
    ) -> OpHandle:
        """Point-to-point transfer (pipeline-parallel stage traffic)."""
        pair = Communicator([src, dst], comm_id=f"{comm.comm_id}/p2p-{src.node}-{dst.node}")
        return self.run_op(pair, OpType.SEND_RECV, size_bits, on_complete=on_complete)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _build_phases(self, handle: OpHandle) -> tuple[float, list[Phase], float]:
        """(pre-intra bits, fabric phases, post-intra bits) for an op."""
        comm, op, size = handle.comm, handle.op_type, handle.size_bits
        algorithm = handle.algorithm
        if algorithm is Algorithm.RING:
            return 0.0, ring_phases(comm, op, size), 0.0
        if algorithm is Algorithm.PIPELINE:
            channels = len(comm.channels())
            if op is OpType.SEND_RECV:
                nodes = comm.node_sequence
                phase = [Transfer(nodes[0], nodes[1], size / channels)]
                return 0.0, [phase], 0.0
            # Pipelined broadcast: the chain (no wrap edge) streams the
            # full payload through every hop concurrently.
            phase = [
                Transfer(src, dst, size / channels)
                for src, dst in comm.chain_node_edges()
            ]
            return 0.0, [phase], 0.0
        if algorithm is Algorithm.HALVING_DOUBLING:
            return 0.0, halving_doubling_phases(comm, size), 0.0
        if algorithm is Algorithm.TREE:
            return 0.0, tree_phases(comm, size), 0.0
        if algorithm is Algorithm.PAIRWISE:
            return 0.0, pairwise_alltoall_phases(comm, size), 0.0
        if algorithm is Algorithm.HIERARCHICAL:
            return hierarchical_allreduce_phases(comm, size)
        raise ValueError(f"unsupported algorithm {algorithm} for {op}")

    def _launch_network_op(self, handle: OpHandle) -> None:
        pre_bits, phases, post_bits = self._build_phases(handle)
        handle._phases = phases
        handle._phase_index = 0
        handle._post_intra_bits = post_bits

        def begin_fabric() -> None:
            self._start_phase(handle)

        if pre_bits > 0:
            pre_duration = pre_bits / self.INTRA_NODE_BUSBW
            self.network.schedule_at(handle.start_time + pre_duration, begin_fabric)
        elif handle.start_time > self.network.now:
            self.network.schedule_at(handle.start_time, begin_fabric)
        else:
            begin_fabric()

    def _start_phase(self, handle: OpHandle) -> None:
        comm = handle.comm
        if handle._phase_index >= len(handle._phases):
            post = handle._post_intra_bits
            if post > 0:
                self.network.schedule(
                    post / self.INTRA_NODE_BUSBW, lambda: self._finish(handle)
                )
            else:
                self._finish(handle)
            return
        transfers = handle._phases[handle._phase_index]
        flows: list[Flow] = []
        for transfer in transfers:
            if transfer.bits_per_channel <= 0:
                continue
            for channel in comm.channels():
                conn = self.connection_for(
                    comm, transfer.src_node, channel, transfer.dst_node, channel
                )
                if conn not in handle.connections:
                    handle.connections.append(conn)
                for alloc in conn.allocations:
                    flow_size = transfer.bits_per_channel * conn.qp_share(alloc)
                    if flow_size <= 0:
                        continue
                    flow = Flow(
                        flow_id=self.network.new_flow_id(
                            f"{comm.comm_id}:s{handle.seq}:p{handle._phase_index}"
                            f":n{transfer.src_node}-n{transfer.dst_node}"
                            f":c{channel}:q{alloc.qp_num}"
                        ),
                        path=list(alloc.path),
                        size=flow_size,
                        weight=alloc.weight,
                        on_complete=lambda fl, h=handle: self._flow_done(h, fl),
                        metadata={
                            "selector": self.selector,
                            "request": conn.request,
                            "qp": alloc,
                            "connection": conn,
                            "handle": handle,
                            "share_bits": flow_size,
                            "job_id": self.job_id,
                            "cnp_key": (conn.request.src_node, conn.request.src_nic),
                            "cc_key": alloc.qp_num,
                        },
                    )
                    flows.append(flow)
                    conn.active_flows.append(flow)
        if not flows:
            # Degenerate phase (no transfers): advance immediately.
            handle._phase_index += 1
            self._start_phase(handle)
            return
        handle._pending_flows = len(flows)
        for flow in flows:
            self.network.add_flow(flow)

    def _flow_done(self, handle: OpHandle, flow: Flow) -> None:
        conn: Connection = flow.metadata["connection"]
        alloc: QpAllocation = flow.metadata["qp"]
        handle.qp_end_times[(id(conn), alloc.qp_num)] = self.network.now
        elapsed = self.network.now - flow.start_time
        if elapsed > 0:
            conn.observe_rate(alloc.qp_num, flow.size / elapsed)
        conn.prune_finished()
        handle._pending_flows -= 1
        if self.qp_work_stealing:
            self._maybe_steal(handle, conn, alloc, flow)
        if handle._pending_flows == 0:
            handle._phase_index += 1
            self._start_phase(handle)

    def _maybe_steal(self, handle: OpHandle, conn: Connection, alloc: QpAllocation, done_flow: Flow) -> None:
        """Re-post half of the slowest sibling QP's remaining work here."""
        siblings = [
            fl
            for fl in conn.active_flows
            if fl.metadata.get("handle") is handle and fl.remaining > 0
        ]
        if not siblings:
            return
        victim = max(siblings, key=lambda fl: fl.remaining)
        min_steal = self.MIN_STEAL_FRACTION * done_flow.metadata.get("share_bits", done_flow.size)
        stolen = victim.remaining / 2
        if stolen < min_steal:
            return
        victim.remaining -= stolen
        replacement = Flow(
            flow_id=self.network.new_flow_id(f"{done_flow.flow_id}:steal"),
            path=list(alloc.path),
            size=stolen,
            weight=alloc.weight,
            on_complete=lambda fl, h=handle: self._flow_done(h, fl),
            metadata=dict(done_flow.metadata),
        )
        conn.active_flows.append(replacement)
        handle._pending_flows += 1
        self.network.add_flow(replacement)

    def _finish(self, handle: OpHandle) -> None:
        handle.done = True
        handle.end_time = self.network.now
        self._emit_records(handle)
        if handle.on_complete is not None:
            handle.on_complete(handle)

    def _emit_records(self, handle: OpHandle) -> None:
        if self.sink is None:
            return
        comm = handle.comm
        element_count = int(handle.size_bits // DTYPE_BITS.get(handle.dtype, 16))
        for rank, location in enumerate(comm.ranks):
            self.sink.on_op(
                OpRecord(
                    comm_id=comm.comm_id,
                    seq=handle.seq,
                    op_type=handle.op_type,
                    algorithm=handle.algorithm,
                    dtype=handle.dtype,
                    element_count=element_count,
                    rank=rank,
                    location=location,
                    launch_time=handle.launch_times[rank],
                    start_time=handle.start_time,
                    end_time=handle.end_time,
                )
            )
        for conn in handle.connections:
            for alloc in conn.allocations:
                end = handle.qp_end_times.get((id(conn), alloc.qp_num))
                if end is None:
                    continue
                span = max(end - handle.start_time, 0.0)
                per_message = span / self.MESSAGES_PER_OP
                qp_bits = alloc.weight / conn.total_weight * handle.size_bits
                msg_bits = qp_bits / self.MESSAGES_PER_OP
                for index in range(self.MESSAGES_PER_OP):
                    post = handle.start_time + index * per_message
                    self.sink.on_message(
                        MessageRecord(
                            comm_id=comm.comm_id,
                            seq=handle.seq,
                            src_node=conn.request.src_node,
                            src_nic=conn.request.src_nic,
                            dst_node=conn.request.dst_node,
                            dst_nic=conn.request.dst_nic,
                            src_ip=conn.src_ip,
                            dst_ip=conn.dst_ip,
                            qp_num=alloc.qp_num,
                            src_port=alloc.src_port,
                            message_index=index,
                            size_bits=msg_bits,
                            post_time=post,
                            complete_time=post + per_message,
                        )
                    )


class RepeatedOp:
    """Back-to-back repetition of one collective (the nccl-test pattern).

    Starts the next operation the moment the previous one completes,
    until ``stop_time`` (simulated) or ``max_ops`` is reached.  Collects
    completed handles for busbw statistics.
    """

    def __init__(
        self,
        context: CollectiveContext,
        comm: Communicator,
        op_type: OpType,
        size_bits: float,
        stop_time: Optional[float] = None,
        max_ops: Optional[int] = None,
        warmup_ops: int = 0,
    ) -> None:
        if stop_time is None and max_ops is None:
            raise ValueError("need stop_time or max_ops")
        self.context = context
        self.comm = comm
        self.op_type = op_type
        self.size_bits = size_bits
        self.stop_time = stop_time
        self.max_ops = max_ops
        self.warmup_ops = warmup_ops
        self.handles: list[OpHandle] = []
        self._started = 0

    def start(self) -> None:
        """Issue the first operation."""
        self._issue()

    def _issue(self) -> None:
        self._started += 1
        self.context.run_op(
            self.comm, self.op_type, self.size_bits, on_complete=self._completed
        )

    def _completed(self, handle: OpHandle) -> None:
        if self._started > self.warmup_ops:
            self.handles.append(handle)
        now = self.context.network.now
        if self.max_ops is not None and self._started >= self.max_ops + self.warmup_ops:
            return
        if self.stop_time is not None and now >= self.stop_time:
            return
        self._issue()

    @property
    def busbw_series_gbps(self) -> list[float]:
        """Per-operation per-NIC bus bandwidth in Gbps, in completion order."""
        return [handle.busbw_per_nic_gbps for handle in self.handles]

    @property
    def mean_busbw_gbps(self) -> float:
        """Average per-NIC bus bandwidth across measured operations."""
        series = self.busbw_series_gbps
        if not series:
            raise RuntimeError("no completed operations recorded")
        return sum(series) / len(series)
