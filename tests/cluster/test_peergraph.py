"""Tests for partial peer topologies (gossip overlays)."""

import networkx as nx
import pytest

from repro.cluster.peergraph import PeerGraph


class TestConstruction:
    def test_full_mesh_degrees(self):
        pg = PeerGraph.full_mesh(6)
        assert all(len(pg.neighbors(w)) == 5 for w in range(6))
        assert pg.edges == 15

    def test_ring(self):
        pg = PeerGraph.ring(6)
        assert all(len(pg.neighbors(w)) == 2 for w in range(6))
        assert pg.neighbors(0) == {1, 5}

    def test_k_regular(self):
        pg = PeerGraph.k_regular(6, 3, seed=1)
        assert all(len(pg.neighbors(w)) == 3 for w in range(6))

    def test_star(self):
        pg = PeerGraph.star(5, hub=2)
        assert len(pg.neighbors(2)) == 4
        assert all(len(pg.neighbors(w)) == 1 for w in range(5) if w != 2)

    def test_diameter(self):
        assert PeerGraph.full_mesh(6).diameter() == 1
        assert PeerGraph.ring(6).diameter() == 3

    def test_disconnected_rejected(self):
        g = nx.Graph()
        g.add_nodes_from(range(4))
        g.add_edge(0, 1)
        g.add_edge(2, 3)
        with pytest.raises(ValueError, match="connected"):
            PeerGraph(g, 4)

    def test_wrong_node_labels_rejected(self):
        g = nx.complete_graph(4)
        g = nx.relabel_nodes(g, {0: 9})
        with pytest.raises(ValueError, match="nodes"):
            PeerGraph(g, 4)

    def test_self_loop_rejected(self):
        g = nx.complete_graph(3)
        g.add_edge(1, 1)
        with pytest.raises(ValueError, match="loops"):
            PeerGraph(g, 3)

    def test_k_regular_validation(self):
        with pytest.raises(ValueError):
            PeerGraph.k_regular(6, 1)
        with pytest.raises(ValueError):
            PeerGraph.k_regular(5, 3)  # odd k*n


class TestEngineWithOverlay:
    @pytest.fixture
    def cfg(self, fast_config):
        return fast_config

    def _topo(self):
        from repro.cluster.topology import ClusterTopology

        return ClusterTopology.build(
            cores=[8, 8, 8, 8], bandwidth=[20.0] * 4,
            per_core_rate=16.0, overhead=0.02, jitter=0.0,
        )

    def test_messages_flow_only_along_edges(self, cfg):
        from repro.core.engine import TrainingEngine

        pg = PeerGraph.ring(4)
        engine = TrainingEngine(cfg, self._topo(), seed=0, peer_graph=pg)
        res = engine.run(15.0)
        for (src, dst), nbytes in res.link_bytes.items():
            assert dst in pg.neighbors(src), f"traffic on non-edge {src}->{dst}"
        # and every edge carries something, both ways
        for u in range(4):
            for v in pg.neighbors(u):
                assert res.link_bytes.get((u, v), 0) > 0

    def test_ring_still_learns(self, cfg):
        from repro.core.engine import TrainingEngine

        pg = PeerGraph.ring(4)
        res = TrainingEngine(cfg, self._topo(), seed=0, peer_graph=pg).run(30.0)
        assert res.final_mean_accuracy() > 0.4

    def test_sync_state_spans_neighbors_only(self, cfg):
        from repro.core.engine import TrainingEngine

        pg = PeerGraph.ring(4)
        engine = TrainingEngine(cfg, self._topo(), seed=0, peer_graph=pg)
        assert set(engine.workers[0].sync_state.received_from) == {1, 3}

    def test_size_mismatch_rejected(self, cfg):
        from repro.core.engine import TrainingEngine

        with pytest.raises(ValueError, match="different cluster"):
            TrainingEngine(cfg, self._topo(), seed=0, peer_graph=PeerGraph.ring(6))

    def test_full_mesh_overlay_equals_no_overlay(self, cfg):
        """The all-to-all overlay must be bit-identical to the default."""
        from repro.core.engine import TrainingEngine

        a = TrainingEngine(cfg, self._topo(), seed=3).run(12.0)
        b = TrainingEngine(
            cfg, self._topo(), seed=3, peer_graph=PeerGraph.full_mesh(4)
        ).run(12.0)
        assert a.iterations == b.iterations
        assert a.loss[0].values == b.loss[0].values


class TestHierarchical:
    def test_lan_cliques_and_ring_gateways(self):
        pg = PeerGraph.hierarchical(12, 4)
        # Intra-group cliques: every non-gateway worker sees its group.
        assert pg.neighbors(1) == {0, 2, 3}
        assert pg.neighbors(5) == {4, 6, 7}
        # Gateways (0, 4, 8) add the WAN ring on top of their LAN.
        assert pg.neighbors(0) == {1, 2, 3, 4, 8}
        assert pg.neighbors(4) == {5, 6, 7, 0, 8}

    def test_last_group_absorbs_remainder(self):
        pg = PeerGraph.hierarchical(10, 4)  # groups: [0..3], [4..9]
        assert pg.neighbors(9) == {4, 5, 6, 7, 8}
        assert pg.neighbors(0) == {1, 2, 3, 4}

    def test_full_wan(self):
        pg = PeerGraph.hierarchical(12, 3, wan="full")
        gateways = {0, 3, 6, 9}
        for g in gateways:
            assert gateways - {g} <= pg.neighbors(g)

    def test_degree_bounded_at_scale(self):
        pg = PeerGraph.hierarchical(1000, 8)
        # group_size-1 LAN peers + at most 2 WAN ring peers.
        assert max(len(pg.neighbors(w)) for w in range(1000)) <= 9 + 2
        assert pg.diameter() < 1000  # connected, and nowhere near a chain

    def test_validation(self):
        with pytest.raises(ValueError, match="group_size"):
            PeerGraph.hierarchical(8, 1)
        with pytest.raises(ValueError, match="group_size"):
            PeerGraph.hierarchical(4, 8)
        with pytest.raises(ValueError, match="wan"):
            PeerGraph.hierarchical(8, 4, wan="mesh")


class TestFromSpec:
    def test_named_overlays(self):
        assert PeerGraph.from_spec("full", 5).edges == 10
        assert len(PeerGraph.from_spec("ring", 6).neighbors(0)) == 2
        assert len(PeerGraph.from_spec("star", 6).neighbors(0)) == 5
        assert len(PeerGraph.from_spec("kregular:4", 9).neighbors(3)) == 4

    def test_hier_specs(self):
        pg = PeerGraph.from_spec("hier:4", 12)
        assert pg.neighbors(1) == {0, 2, 3}
        full = PeerGraph.from_spec("hier:3:full", 12)
        assert {3, 6, 9} <= full.neighbors(0)

    def test_bad_specs_rejected(self):
        for spec in ("mesh", "kregular", "kregular:x", "hier", "hier:2:tree",
                     "ring:3", "kregular:1:2:3"):
            with pytest.raises(ValueError):
                PeerGraph.from_spec(spec, 8)

    def test_arg_errors_name_the_spec(self):
        with pytest.raises(ValueError, match="kregular:7"):
            PeerGraph.from_spec("kregular:7", 4)


def _nx_reference(spec, n):
    """The overlay built directly in networkx, as it was before PeerGraph
    kept its own adjacency."""
    kind, *args = spec.split(":")
    if kind == "full":
        return nx.complete_graph(n)
    if kind == "ring":
        return nx.cycle_graph(n)
    if kind == "star":
        return nx.star_graph(n - 1)
    group = int(args[0])
    starts = [k * group for k in range(n // group)]
    g = nx.Graph()
    g.add_nodes_from(range(n))
    for k, start in enumerate(starts):
        members = range(start, n if k == len(starts) - 1 else start + group)
        g.add_edges_from((a, b) for a in members for b in members if a < b)
    if len(args) == 2:
        g.add_edges_from((a, b) for a in starts for b in starts if a < b)
    elif len(starts) > 1:
        nx.add_cycle(g, starts)
    return g


class TestAgainstNetworkx:
    @pytest.mark.parametrize(
        "spec", ["full", "ring", "star", "hier:8", "hier:8:full"]
    )
    @pytest.mark.parametrize("n", [8, 19, 40])
    def test_same_overlay(self, spec, n):
        pg = PeerGraph.from_spec(spec, n)
        ref = _nx_reference(spec, n)
        assert all(pg.neighbors(v) == set(ref.neighbors(v)) for v in range(n))
        assert pg.edges == ref.number_of_edges()
        assert pg.diameter() == nx.diameter(ref)

    @pytest.mark.parametrize("seed", range(4))
    def test_kregular_is_the_seeded_networkx_graph(self, seed):
        pg = PeerGraph.k_regular(12, 4, seed=seed)
        ref = next(
            g
            for g in (
                nx.random_regular_graph(4, 12, seed=seed + attempt)
                for attempt in range(64)
            )
            if nx.is_connected(g)
        )
        assert all(pg.neighbors(v) == set(ref.neighbors(v)) for v in range(12))
        assert pg.edges == 24 and pg.diameter() == nx.diameter(ref)

    def test_any_object_with_nodes_and_edges_plugs_in(self):
        from types import SimpleNamespace

        pg = PeerGraph(SimpleNamespace(nodes=[0, 1, 2], edges=[(0, 1), (2, 1)]), 3)
        assert pg.neighbors(1) == {0, 2} and pg.edges == 2 and pg.diameter() == 2
        assert pg.neighbors(0) == {1} and pg.neighbors(2) == {1}
