"""Unit tests for links, presets and topology."""

import dataclasses

import numpy as np
import pytest

from repro.errors import ConfigError, NetworkError
from repro.mpi.cluster import Cluster
from repro.mpi.eager import SETUP_TIME
from repro.mpi.message import CONTROL_PACKET_BYTES
from repro.network import (
    IB_EDR,
    IB_FDR,
    IB_HDR,
    NVLINK3,
    PCIE3_X16,
    LinkSpec,
    Topology,
    machine_preset,
)
from repro.network import topology
from repro.network.presets import MACHINES, MachinePreset
from repro.sim import Simulator, Tracer
from repro.utils.units import GBps, MiB


# -- specs ---------------------------------------------------------------------

def test_paper_bandwidths():
    """Figure 1 / Section I numbers."""
    assert IB_EDR.bandwidth == pytest.approx(GBps(12.5))
    assert IB_HDR.bandwidth == pytest.approx(GBps(25.0))
    assert NVLINK3.bandwidth == pytest.approx(GBps(75.0))
    assert NVLINK3.bandwidth / IB_EDR.bandwidth == pytest.approx(6.0)  # the disparity


def test_serialization_time():
    t = IB_EDR.serialization_time(32 * MiB)
    assert t == pytest.approx(IB_EDR.latency + 32 * MiB / GBps(12.5))


def test_invalid_link_spec():
    with pytest.raises(ConfigError):
        LinkSpec("bad", latency=-1, bandwidth=1e9)
    with pytest.raises(ConfigError):
        LinkSpec("bad", latency=0, bandwidth=0)


def test_machine_presets_exist():
    for name in ("longhorn", "frontera-liquid", "lassen", "ri2", "sierra"):
        p = machine_preset(name)
        assert p.max_gpus_per_node >= 1
        assert "GB/s" in p.description()
    with pytest.raises(ConfigError):
        machine_preset("summit")


def test_frontera_is_fdr_rtx():
    p = machine_preset("frontera-liquid")
    assert p.inter_link is IB_FDR
    assert p.device.name == "RTX5000"
    assert p.intra_shared  # PCIe host bridge


def test_longhorn_is_nvlink_edr_v100():
    p = machine_preset("longhorn")
    assert p.inter_link is IB_EDR
    assert p.intra_link is NVLINK3
    assert not p.intra_shared


# -- link contention -----------------------------------------------------------------

def _one_link(sim, spec=IB_EDR):
    """A topology whose GPU 0 -> 1 route is one ``spec`` link."""
    preset = dataclasses.replace(machine_preset("longhorn"), intra_link=spec)
    topo = Topology(sim, preset, 1, 2)
    (link,) = topo.route(0, 1)
    assert link.spec == spec
    return topo


def test_link_transfer_charges_time(sim):
    topo = _one_link(sim)

    def proc(sim, topo):
        yield from topo.transfer(0, 1, 1 * MiB)

    sim.run_process(proc(sim, topo))
    assert sim.now == pytest.approx(IB_EDR.serialization_time(1 * MiB))


def test_link_serializes_concurrent_transfers(sim):
    topo = _one_link(sim)
    ends = []

    def proc(sim, topo):
        yield from topo.transfer(0, 1, 1 * MiB)
        ends.append(sim.now)

    sim.process(proc(sim, topo))
    sim.process(proc(sim, topo))
    sim.run()
    one = IB_EDR.serialization_time(1 * MiB)
    assert ends[0] == pytest.approx(one)
    assert ends[1] == pytest.approx(2 * one)


def test_link_negative_size(sim):
    topo = _one_link(sim)

    def proc(sim, topo):
        yield from topo.transfer(0, 1, -1)

    with pytest.raises(NetworkError):
        sim.run_process(proc(sim, topo))


# -- topology ----------------------------------------------------------------------

def _topo(machine="longhorn", nodes=2, gpn=2):
    sim = Simulator()
    Tracer(sim)
    return sim, Topology(sim, machine_preset(machine), nodes, gpn)


def test_topology_shape():
    sim, topo = _topo(nodes=3, gpn=2)
    assert topo.n_gpus == 6
    assert topo.node_of(0) == 0
    assert topo.node_of(5) == 2
    assert topo.same_node(0, 1)
    assert not topo.same_node(1, 2)


def test_topology_limits():
    sim = Simulator()
    with pytest.raises(NetworkError):
        Topology(sim, machine_preset("longhorn"), nodes=0, gpus_per_node=1)
    with pytest.raises(NetworkError):
        Topology(sim, machine_preset("ri2"), nodes=2, gpus_per_node=2)  # RI2 has 1 GPU/node


def test_route_intra_vs_inter():
    sim, topo = _topo()
    intra = topo.route(0, 1)
    inter = topo.route(0, 2)
    assert len(intra) == 1 and intra[0].spec is NVLINK3
    assert len(inter) == 2  # uplink + downlink


def test_route_self_empty():
    sim, topo = _topo()
    assert topo.route(3, 3) == []
    assert topo.path_bandwidth(3, 3) == float("inf")


def test_path_bandwidth_bottleneck():
    sim, topo = _topo()
    assert topo.path_bandwidth(0, 1) == pytest.approx(GBps(75.0))
    assert topo.path_bandwidth(0, 2) == pytest.approx(GBps(12.5))


def test_transfer_times_inter_vs_intra():
    sim, topo = _topo()

    def proc(sim, topo, a, b):
        t0 = sim.now
        yield from topo.transfer(a, b, 8 * MiB)
        return sim.now - t0

    t_intra = sim.run_process(proc(sim, topo, 0, 1))
    sim2, topo2 = _topo()
    t_inter = sim2.run_process(proc(sim2, topo2, 0, 2))
    assert t_inter > 4 * t_intra  # EDR vs NVLink disparity


def test_shared_pcie_contends():
    """Frontera-style intra-node bus serializes concurrent transfers."""
    sim, topo = _topo("frontera-liquid", nodes=1, gpn=4)
    ends = []

    def proc(sim, topo, a, b):
        yield from topo.transfer(a, b, 4 * MiB)
        ends.append(sim.now)

    sim.process(proc(sim, topo, 0, 1))
    sim.process(proc(sim, topo, 2, 3))
    sim.run()
    one = PCIE3_X16.serialization_time(4 * MiB)
    assert max(ends) == pytest.approx(2 * one)


def test_nvlink_pairs_independent():
    """Longhorn NVLink pairs do not contend with each other."""
    sim, topo = _topo("longhorn", nodes=1, gpn=4)
    ends = []

    def proc(sim, topo, a, b):
        yield from topo.transfer(a, b, 4 * MiB)
        ends.append(sim.now)

    sim.process(proc(sim, topo, 0, 1))
    sim.process(proc(sim, topo, 2, 3))
    sim.run()
    one = NVLINK3.serialization_time(4 * MiB)
    assert max(ends) == pytest.approx(one)


def test_hca_contention_inter_node():
    """Two ranks on one node sending off-node share the HCA uplink."""
    sim, topo = _topo("longhorn", nodes=2, gpn=2)
    ends = []

    def proc(sim, topo, a, b):
        yield from topo.transfer(a, b, 4 * MiB)
        ends.append(sim.now)

    sim.process(proc(sim, topo, 0, 2))
    sim.process(proc(sim, topo, 1, 3))
    sim.run()
    one = IB_EDR.serialization_time(0) + 4 * MiB / IB_EDR.bandwidth
    assert max(ends) > 1.9 * (4 * MiB / IB_EDR.bandwidth)


def test_zero_byte_transfer():
    sim, topo = _topo()

    def proc(sim, topo):
        yield from topo.transfer(0, 2, 0)

    sim.run_process(proc(sim, topo))
    assert sim.now == pytest.approx(2 * IB_EDR.latency)


def _labels(topo, src, dst):
    return [link.label for link in topo.route(src, dst)]


def test_graph_structure():
    sim, topo = _topo(nodes=2, gpn=2)
    # a GPU pair on one node shares one intra-node link; across nodes
    # the route is the sender's uplink and the receiver's downlink
    assert [l.spec for l in topo.route(0, 1)] == [topo.preset.intra_link]
    assert _labels(topo, 0, 2) == ["node0-up", "node1-down"]
    assert topo.route(1, 1) == []
    # Fig 1 disparity readable from the routes' bottlenecks:
    bw_gpu = topo.path_bandwidth(0, 1)
    bw_ib = topo.path_bandwidth(0, 2)
    assert bw_gpu / bw_ib == pytest.approx(6.0)
    # ...exactly so on Fig 1's Sierra node (75 vs 12.5 GB/s)
    _, sierra = _topo("sierra", nodes=2, gpn=4)
    assert sierra.path_bandwidth(0, 1) / sierra.path_bandwidth(0, 4) == 6.0


# -- hierarchical topologies -------------------------------------------------

def test_hierarchical_presets_exist():
    ft = machine_preset("fat-tree")
    df = machine_preset("dragonfly")
    assert ft.topology_kind == "fat-tree" and ft.nodes_per_group == 16
    assert df.topology_kind == "dragonfly" and df.nodes_per_group == 8
    assert "nodes/group" in ft.description()


def test_node_of_array_matches_scalar():
    sim, topo = _topo(nodes=5, gpn=3)
    assert topo.node_of_array.tolist() == [topo.node_of(g) for g in range(topo.n_gpus)]


def test_route_matches_uncached_on_all_presets():
    """route() memoization must be invisible: every preset, every pair."""
    for name, preset in MACHINES.items():
        nodes = preset.nodes_per_group + 1 if preset.topology_kind != "flat" else 3
        gpn = min(2, preset.max_gpus_per_node)
        sim = Simulator()
        topo = Topology(sim, preset, nodes, gpn)
        for a in range(topo.n_gpus):
            for b in range(topo.n_gpus):
                assert topo.route(a, b) == topo._compute_route(a, b), (name, a, b)
                assert topo.route(a, b) is topo.route(a, b)  # cached object


def test_a_tiny_route_cache_leaves_every_rank_time_alone(monkeypatch):
    """The one route record cache is cleared wholesale when full: a cap
    that clears it every few transfers moves no rank's allgather time,
    and the cache never holds more than the cap."""
    def allgather(comm):
        yield from comm.allgather(np.full(1024, comm.rank, np.float32))
        return comm.now

    cluster = Cluster("fat-tree", nodes=18, gpus_per_node=2)  # two groups
    uncapped = cluster.run(allgather, trace=False)
    assert len(uncapped.runtime.topology._routes) > 3
    monkeypatch.setattr(topology, "_CACHE_MAX", 3)
    capped = cluster.run(allgather, trace=False)
    assert capped.values == uncapped.values
    assert len(capped.runtime.topology._routes) <= 3


def test_fat_tree_route_shapes():
    sim = Simulator()
    topo = Topology(sim, machine_preset("fat-tree"), nodes=18, gpus_per_node=2)
    assert topo.n_groups == 2
    # same node: one NVLink hop
    assert len(topo.route(0, 1)) == 1
    # same group, different node: HCA up + down
    in_group = topo.route(0, 2)
    assert [l.label for l in in_group] == ["node0-up", "node1-down"]
    # cross group: up, trunk up, trunk down, down
    cross = topo.route(0, 35)  # gpu on node 17 (group 1)
    assert [l.label for l in cross] == [
        "node0-up", "group0-up", "group1-down", "node17-down"]


def test_dragonfly_route_shapes():
    sim = Simulator()
    topo = Topology(sim, machine_preset("dragonfly"), nodes=10, gpus_per_node=2)
    assert topo.n_groups == 2
    cross = topo.route(0, 19)  # gpu on node 9 (group 1)
    assert [l.label for l in cross] == ["node0-up", "g0->g1", "node9-down"]
    back = topo.route(19, 0)
    assert [l.label for l in back] == ["node9-up", "g1->g0", "node0-down"]
    # the two directions use distinct global links (ordered pairs)
    assert cross[1] is not back[1]


def test_group_of_flat_is_zero():
    sim, topo = _topo(nodes=3, gpn=2)
    assert topo.kind == "flat"
    assert [topo.group_of(n) for n in range(3)] == [0, 0, 0]


def test_hierarchical_preset_validation():
    bad = MachinePreset(
        name="bad-ft", device=machine_preset("fat-tree").device,
        intra_link=NVLINK3, intra_shared=False, inter_link=IB_HDR,
        max_gpus_per_node=4, topology_kind="fat-tree")  # no group fields
    with pytest.raises(NetworkError, match="nodes_per_group"):
        Topology(Simulator(), bad, nodes=4, gpus_per_node=1)
    worse = MachinePreset(
        name="bad-kind", device=machine_preset("fat-tree").device,
        intra_link=NVLINK3, intra_shared=False, inter_link=IB_HDR,
        max_gpus_per_node=4, topology_kind="torus")
    with pytest.raises(NetworkError, match="unknown topology kind"):
        Topology(Simulator(), worse, nodes=4, gpus_per_node=1)


def test_fat_tree_graph_structure():
    sim = Simulator()
    topo = Topology(sim, machine_preset("fat-tree"), nodes=18, gpus_per_node=1)
    assert topo.n_groups == 2
    # leaf -> spine -> leaf across groups, through both groups' trunks
    assert _labels(topo, 0, 17) == [
        "node0-up", "group0-up", "group1-down", "node17-down"]
    assert _labels(topo, 17, 0) == [
        "node17-up", "group1-up", "group0-down", "node0-down"]
    # inside a group the leaf switch is the whole fabric
    assert _labels(topo, 0, 15) == ["node0-up", "node15-down"]
    group_link = machine_preset("fat-tree").group_link
    assert topo.path_bandwidth(0, 17) == min(
        group_link.bandwidth, topo.preset.inter_link.bandwidth)


def test_dragonfly_graph_structure():
    sim = Simulator()
    topo = Topology(sim, machine_preset("dragonfly"), nodes=17, gpus_per_node=1)
    assert topo.n_groups == 3
    first = [0, 8, 16]  # the first node of each group
    for a in range(3):
        for b in range(3):
            if a != b:  # one direct global link per ordered group pair
                assert _labels(topo, first[a], first[b]) == [
                    f"node{first[a]}-up", f"g{a}->g{b}",
                    f"node{first[b]}-down"]
    assert _labels(topo, 8, 15) == ["node8-up", "node15-down"]


def test_cross_group_transfer_slower_than_in_group():
    def timed(topo_nodes, a, b):
        sim = Simulator()
        topo = Topology(sim, machine_preset("fat-tree"), nodes=topo_nodes,
                        gpus_per_node=1)

        def proc(sim, topo):
            yield from topo.transfer(a, b, 1 * MiB)

        sim.run_process(proc(sim, topo))
        return sim.now

    in_group = timed(18, 0, 1)
    cross_group = timed(18, 0, 17)
    assert cross_group > in_group  # two extra trunk hops of latency


# -- the eager send's own wire ---------------------------------------------------

def _lone_eager_sends(machine, nodes, gpn, dst, tags, nbytes=4096):
    """Rank 0 starts one eager send to ``dst`` per tag, back to back,
    and nothing else runs: the wire is the send's own.  ``nbytes`` is
    what the wire carries (payload plus the EAGER packet)."""
    def rank(comm):
        if comm.rank == 0:
            payload = np.zeros((nbytes - CONTROL_PACKET_BYTES) // 4, np.float32)
            for tag in tags:
                comm.isend(payload, dst, tag=tag)
        return
        yield  # pragma: no cover

    res = Cluster(machine, nodes=nodes, gpus_per_node=gpn).run(rank)
    spans = [r for r in res.tracer.records if r.category == "network"]
    return res, spans


def test_start_transfer_matches_generator_transfer_time_span_and_metrics():
    """Time, span and ``wire.*`` metrics of an eager send's wire (the
    callback driver that replaced ``Topology.start_transfer``) equal a
    generator transfer's of the same bytes over the same route, shifted
    by the send's set-up time."""
    sim, topo = _topo("fat-tree", nodes=32, gpn=2)
    sim.process(topo.transfer(0, 63, 4096, label="eager"))
    sim.run()
    want = sim.tracer.records[0]
    res, spans = _lone_eager_sends("fat-tree", 32, 2, 63, [0])
    [got] = spans  # cross-group: uplink, two trunks, downlink held together

    def fields(rec):
        return rec.category, rec.label, rec.track, rec.meta

    assert fields(got) == fields(want)
    assert (got.t_start, got.t_end) == (SETUP_TIME, SETUP_TIME + want.t_end)
    for name in ("wire.bytes", "wire.transfers", "wire.busy_seconds"):
        assert res.tracer.metrics.counter_total(name) == pytest.approx(
            sim.tracer.metrics.counter_total(name))


def test_start_transfer_on_free_links_is_one_scheduler_entry():
    """Over free links the wire is one calendar entry: a lone send adds
    its start and its landing to the ranks' own entries, no more."""
    idle, _ = _lone_eager_sends("longhorn", 2, 2, 2, [])
    res, [span] = _lone_eager_sends("longhorn", 2, 2, 2, [0])
    assert res.tracer.event_count - idle.tracer.event_count == 2
    assert span.duration == pytest.approx(
        2 * IB_EDR.latency + 4096 / IB_EDR.bandwidth)


def test_start_transfer_queues_behind_a_busy_link_in_request_order():
    """Three sends started at one instant over one route hold it one
    after another, in the order they asked for it; each queued one
    waits on two link requests (uplink and downlink)."""
    idle, _ = _lone_eager_sends("longhorn", 2, 2, 2, [])
    res, spans = _lone_eager_sends("longhorn", 2, 2, 2, [0, 1, 2])
    one = 2 * IB_EDR.latency + 4096 / IB_EDR.bandwidth
    assert [s.t_start for s in spans] == pytest.approx(
        [SETUP_TIME, SETUP_TIME + one, SETUP_TIME + 2 * one])
    assert [s.t_end for s in spans] == pytest.approx(
        [SETUP_TIME + one, SETUP_TIME + 2 * one, SETUP_TIME + 3 * one])
    # they land in the order they were sent: tags 0, 1, 2
    tags = [env.tag for env in res.runtime._matching[2]._unexpected]
    assert [t - tags[0] for t in tags] == [0, 1, 2]
    # 3 starts + 3 landings + 2 grants for each of the two queued sends
    assert res.tracer.event_count - idle.tracer.event_count == 10


def test_declared_dependencies_are_the_third_party_imports():
    """pyproject.toml's ``dependencies`` name exactly the top-level
    modules outside the standard library that ``src/repro`` imports."""
    import ast
    import re
    import sys
    from pathlib import Path

    root = Path(__file__).resolve().parents[1]
    imported = set()
    for path in (root / "src" / "repro").rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                imported.update(a.name.split(".")[0] for a in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    third_party = imported - set(sys.stdlib_module_names) - {"repro"}
    # no tomllib before Python 3.11: read the one list with a regex
    deps = re.search(r"^dependencies\s*=\s*\[([^]]*)\]",
                     (root / "pyproject.toml").read_text(), re.M).group(1)
    assert third_party == set(re.findall(r'"([A-Za-z0-9_.-]+?)[<>=!~;" ]', deps))
