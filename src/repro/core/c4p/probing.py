"""Path probing: catalog healthy paths and the ports that reach them.

"In line with previous art, we utilize path-probing to support global
traffic engineering.  Using this method, we can identify the source
ports that will direct traffic along specific paths and verify the
integrity of those paths" (§III-B).  At start-up the C4P master performs
full-mesh probing via representative servers per leaf, eliminating
faulty leaf-spine links before any job traffic is placed.

The probe mechanics are faithful: for every candidate route the prober
*searches the ephemeral source-port space* for a port whose ECMP hashes
(at the leaf stage and at the spine stage) land on exactly that route,
then checks the route end-to-end.  The discovered port is what the
master later hands to ACCL so the fabric's own hashing reproduces the
planned path.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cluster.topology import ClusterTopology, PathChoice

#: RoCEv2 destination UDP port used in probe five-tuples.
ROCE_DST_PORT = 4791


@dataclass(frozen=True)
class ProbeResult:
    """Outcome of probing one route on one rail."""

    rail: int
    choice: PathChoice
    src_port: int
    healthy: bool


class PathProber:
    """Full-mesh leaf-spine path verification for one topology."""

    def __init__(self, topology: ClusterTopology) -> None:
        self.topology = topology

    def find_source_port(
        self,
        src_ip: str,
        dst_ip: str,
        rail: int,
        choice: PathChoice,
        port_range: range = range(49152, 65536),
    ) -> int:
        """Search for a source port steering traffic onto ``choice``.

        The returned port makes the leaf's hash pick (spine, up_port)
        and the spine's hash pick (dst_side, down_port), so unmodified
        switches route the flow along the planned path.  Raises
        ``LookupError`` when no port works (practically impossible for
        real fan-outs; reachable in tests with tiny port ranges).
        """
        spec = self.topology.spec
        up_fanout = spec.spines_per_rail * spec.uplink_ports_per_spine
        down_fanout = 2 * spec.uplink_ports_per_spine
        wanted_up = choice.spine * spec.uplink_ports_per_spine + choice.up_port
        wanted_down = choice.dst_side * spec.uplink_ports_per_spine + choice.down_port
        hasher = self.topology.ecmp
        hash_up = hasher.port_hasher(
            src_ip, dst_ip, ROCE_DST_PORT, stage=f"up:{rail}:{choice.src_side}"
        )
        hash_down = hasher.port_hasher(
            src_ip, dst_ip, ROCE_DST_PORT, stage=f"down:{rail}:{choice.spine}"
        )
        for port in port_range:
            if hash_up(port) % up_fanout != wanted_up:
                continue
            if hash_down(port) % down_fanout == wanted_down:
                return port
        raise LookupError(
            f"no source port in {port_range} steers onto {choice} (rail {rail})"
        )

    def reprobe(self, links) -> dict[tuple, bool]:
        """Incrementally verify specific fabric links.

        Re-running :meth:`full_mesh` costs O(routes); runtime fault
        handling only needs the health of the handful of links that are
        quarantined or currently carrying allocations.  Each probe sends
        (in production) a packet over a route pinned to the link; in the
        simulation the verdict is the link's operational state.  Returns
        ``{link_id: healthy}``.
        """
        return {
            link_id: self.topology.network.link(link_id).is_up for link_id in links
        }

    def probe_route(self, rail: int, choice: PathChoice) -> bool:
        """Verify a route's links end-to-end (fabric tier only)."""
        topo = self.topology
        links = [
            topo.leaf_up(rail, choice.src_side, choice.spine, choice.up_port),
            topo.spine_down(rail, choice.spine, choice.dst_side, choice.down_port),
        ]
        return all(topo.network.link(link_id).is_up for link_id in links)

    def full_mesh(self, rail: int, find_ports: bool = False) -> list[ProbeResult]:
        """Probe every route of a rail via representative endpoints.

        One randomly chosen server per leaf suffices in production; the
        simulation uses node 0's NIC addresses, which exercise the same
        links because the fabric tier is shared by all servers of the
        rail.  All routes are probed — including those through
        administratively disabled spines — so the master's catalog
        reflects actual reachability.

        ``find_ports=True`` additionally runs the source-port search for
        every healthy route (slower; the master normally defers the
        search to allocation time).
        """
        spec = self.topology.spec
        nic = rail  # a NIC on this rail
        src_ip = self.topology.node(0).nics[nic].ip_address
        dst_node = min(1, spec.num_nodes - 1)
        dst_ip = self.topology.node(dst_node).nics[nic].ip_address
        results: list[ProbeResult] = []
        for src_side in (0, 1):
            for spine in range(spec.spines_per_rail):
                for up_port in range(spec.uplink_ports_per_spine):
                    for dst_side in (0, 1):
                        for down_port in range(spec.uplink_ports_per_spine):
                            choice = PathChoice(src_side, spine, up_port, dst_side, down_port)
                            healthy = self.probe_route(rail, choice)
                            src_port = -1
                            if healthy and find_ports:
                                src_port = self.find_source_port(src_ip, dst_ip, rail, choice)
                            results.append(
                                ProbeResult(
                                    rail=rail,
                                    choice=choice,
                                    src_port=src_port,
                                    healthy=healthy,
                                )
                            )
        return results
