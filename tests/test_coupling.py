import hashlib
import itertools
import random
import time
import tracemalloc

import pytest

from qcmap import (
    FAMILIES,
    CouplingGraph,
    ParseError,
    aspen,
    clique,
    cycle,
    format_graph,
    gen,
    grid_hex,
    grid_square,
    grid_triangle,
    linear,
    load_graph,
    parse_graph,
    save_graph,
    tokyo,
)

from helpers import random_connected_graph


def floyd_warshall(g: CouplingGraph):
    """Independent all-pairs distances, no BFS shared with the library."""
    n = g.num_nodes
    inf = float("inf")
    d = [[0 if i == j else inf for j in range(n)] for i in range(n)]
    for a, b in g.edges:
        d[a][b] = d[b][a] = 1
    for k in range(n):
        for i in range(n):
            for j in range(n):
                if d[i][k] + d[k][j] < d[i][j]:
                    d[i][j] = d[i][k] + d[k][j]
    return d


class TestValidation:
    def test_rejects_disconnected(self):
        with pytest.raises(ValueError):
            CouplingGraph(4, [(0, 1), (2, 3)])

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            CouplingGraph(2, [(0, 0), (0, 1)])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            CouplingGraph(2, [(0, 2)])

    def test_from_edge_list_rejects_duplicates(self):
        with pytest.raises(ValueError):
            CouplingGraph.from_edge_list(3, [(0, 1), (1, 0), (1, 2)])

    def test_single_node(self):
        g = CouplingGraph(1, [])
        assert g.diameter == 0
        assert g.max_degree() == 0


class TestFamilies:
    def test_linear(self):
        g = linear(6)
        assert g.num_nodes == 6 and len(g.edges) == 5
        assert g.diameter == 5
        assert g.max_degree() == 2
        assert g.is_bipartite()

    def test_cycle(self):
        for n in (3, 4, 7, 8):
            g = cycle(n)
            assert len(g.edges) == n
            assert g.diameter == n // 2
            assert g.is_bipartite() == (n % 2 == 0)

    def test_clique(self):
        g = clique(5)
        assert len(g.edges) == 10
        assert g.diameter == 1
        assert g.max_degree() == 4
        assert not g.is_bipartite()

    def test_grid_square(self):
        g = grid_square(3, 3)
        assert g.num_nodes == 9 and len(g.edges) == 12
        assert g.max_degree() == 4
        assert g.is_bipartite()
        assert g.diameter == 4
        # row-major numbering: node 4 is the center
        assert sorted(g.neighbors[4]) == [1, 3, 5, 7]

    def test_grid_hex(self):
        g = grid_hex(2, 3)
        assert g.max_degree() == 3
        assert g.is_bipartite()
        # every face is a hexagon, so girth parity keeps it bipartite at any size
        assert grid_hex(1, 1).num_nodes == 6
        assert len(grid_hex(1, 1).edges) == 6

    # sha256 prefixes of format_graph(grid_hex(r, c)): a saved graph file,
    # and every plan on it, keeps its meaning only while the numbering holds.
    HEX_DIGESTS = {
        (1, 1): "92503a469868e476", (1, 2): "be5586c839cf093d",
        (1, 3): "c8cd710ebb32532b", (1, 4): "7d5a16704b824f64",
        (2, 1): "e8c465ba0e6e6df6", (2, 2): "c7d64f9661ec712a",
        (2, 3): "fa44298b04067525", (2, 4): "6d5f3575e11809a3",
        (3, 1): "7ca84dbb2e0b5fe4", (3, 2): "055ff7d886cb91f4",
        (3, 3): "908c75d5548e2cf5", (3, 4): "fb785e7dcc93b8ce",
        (4, 1): "9f3dd83c7aa1416f", (4, 2): "b8344287e7ce7a30",
        (4, 3): "65c0e72de3634363", (4, 4): "488c7f9c206189b4",
    }

    def test_grid_hex_numbering_is_fixed(self):
        for (r, c), digest in self.HEX_DIGESTS.items():
            text = format_graph(grid_hex(r, c))
            assert hashlib.sha256(text.encode()).hexdigest()[:16] == digest, (r, c)

    # The same for format_graph(grid_triangle(r, c)).
    TRIANGLE_DIGESTS = {
        (1, 1): "83ef32f61e95d9d1", (1, 2): "9b3eabecd68d3db3",
        (1, 3): "71c6baf9ecb0926a", (1, 4): "fa18fe85fdc06486",
        (2, 1): "bfdfb54d05c1026e", (2, 2): "9f24af798995b212",
        (2, 3): "4696434c7dce4591", (2, 4): "f94d4a3d2459702b",
        (3, 1): "f56849aaf37f8803", (3, 2): "6f17694b14e0373c",
        (3, 3): "84b0c81a608e923e", (3, 4): "45148fb74851b9c1",
        (4, 1): "d60840dc7d967d4a", (4, 2): "b28fffc23c97ae3d",
        (4, 3): "3d784c704476ba5a", (4, 4): "a78e38f74cf14655",
    }

    def test_grid_triangle_numbering_is_fixed(self):
        for (r, c), digest in self.TRIANGLE_DIGESTS.items():
            text = format_graph(grid_triangle(r, c))
            assert hashlib.sha256(text.encode()).hexdigest()[:16] == digest, (r, c)

    def test_grid_triangle(self):
        g = grid_triangle(2, 2)
        assert g.num_nodes == 9
        assert g.max_degree() == 6
        assert not g.is_bipartite()

    def test_tokyo(self):
        g = tokyo()
        assert g.num_nodes == 20
        assert len(g.edges) == 43
        assert g.diameter <= 5

    def test_aspen(self):
        g = aspen()
        assert g.num_nodes == 16
        assert len(g.edges) == 18
        assert g.max_degree() == 3

    def test_gen_dispatch(self):
        assert gen("linear", 4) == linear(4)
        assert gen("grid_square", 2, 3) == grid_square(2, 3)
        assert gen("tokyo") == tokyo()
        with pytest.raises(ValueError):
            gen("moebius", 4)
        with pytest.raises(ValueError):
            gen("tokyo", 20)
        with pytest.raises(ValueError, match="linear takes 1 size parameter, got 2"):
            gen("linear", 4, 5)
        with pytest.raises(ValueError, match="grid_square takes 2 size parameters, got 1"):
            gen("grid_square", 3)

    def test_every_family_listed_generates(self):
        sizes = {"linear": (4,), "cycle": (5,), "clique": (4,),
                 "grid_square": (2, 2), "grid_hex": (1, 2), "grid_triangle": (2, 2),
                 "tokyo": (), "aspen": ()}
        for fam in FAMILIES:
            g = gen(fam, *sizes[fam])
            assert g.num_nodes >= 1


class TestMetrics:
    def test_distances_match_floyd_warshall(self):
        rng = random.Random(5)
        graphs = [tokyo(), aspen(), grid_square(3, 4), grid_hex(2, 2)]
        graphs += [random_connected_graph(rng, rng.randrange(2, 10), rng.randrange(0, 4))
                   for _ in range(10)]
        for g in graphs:
            fw = floyd_warshall(g)
            for i in range(g.num_nodes):
                for j in range(g.num_nodes):
                    assert g.distance(i, j) == fw[i][j]

    def test_distance_symmetry_and_adjacency(self):
        g = tokyo()
        for a, b in g.edges:
            assert g.distance(a, b) == g.distance(b, a) == 1
            assert g.has_edge(a, b) and g.has_edge(b, a)

    def test_adjacency_masks(self):
        g = grid_square(2, 2)
        for v in range(4):
            mask = g.adjacency_masks[v]
            assert {w for w in range(4) if mask >> w & 1} == set(g.neighbors[v])


class TestWithin:
    def test_room_tables_match_distances(self):
        # The definition, restated from the distance table: reach[v] holds
        # the other nodes at most hops away, fits[c] the nodes that reach at
        # least c of them.  One copy of each graph gives the reference
        # distances; two fresh copies build their tables before their own
        # distance table exists, one from 1 hop up and one from diameter+1
        # down to 0.
        rng = random.Random(76)
        family_params = {"linear": (7,), "cycle": (9,), "clique": (6,), "grid_square": (3, 4),
                         "grid_hex": (2, 2), "grid_triangle": (2, 3), "tokyo": (), "aspen": ()}
        makers = [*(lambda f=f: gen(f, *family_params[f]) for f in FAMILIES),
                  lambda: CouplingGraph(12, [(0, leaf) for leaf in range(1, 12)]),
                  lambda: CouplingGraph(1, []),
                  *(lambda g=random_connected_graph(rng, rng.randrange(2, 12), rng.randrange(0, 8)):
                    CouplingGraph(g.num_nodes, g.edges) for _ in range(8))]
        for make in makers:
            ref = make()
            n = ref.num_nodes
            top = ref.diameter + 1
            tables = {}
            for hops in range(top + 1):
                near = [{w for w in range(n) if w != v and ref.distance(v, w) <= hops}
                        for v in range(n)]
                tables[hops] = (tuple(sum(1 << w for w in ws) for ws in near),
                                tuple(sum(1 << v for v in range(n) if len(near[v]) >= c)
                                      for c in range(n + 1)))
            for hop_order in (range(1, top + 1), range(top, -1, -1)):
                g = make()
                for hops in hop_order:
                    assert g.within(hops) == tables[hops], (g, hops)
                assert "distances" not in vars(g), g


class TestAutomorphisms:
    @staticmethod
    def relabeled(g: CouplingGraph, perm) -> CouplingGraph:
        return CouplingGraph(g.num_nodes, [(perm[a], perm[b]) for a, b in g.edges])

    def test_elements_are_non_identity_edge_maps(self):
        rng = random.Random(71)
        graphs = [grid_square(3, 3), cycle(8), aspen(), tokyo(), grid_hex(2, 2),
                  clique(5), *(random_connected_graph(rng, 7, 3) for _ in range(4))]
        for g in graphs:
            identity = tuple(range(g.num_nodes))
            for p in g.automorphisms:
                assert sorted(p) == list(identity), g
                assert p != identity, g
                assert all(g.has_edge(p[a], p[b]) for a, b in g.edges), g

    def test_small_groups_match_every_edge_map(self):
        # Every permutation of a small graph, checked directly; each group
        # here has fewer than 2 * num_nodes elements, so none is truncated.
        for g in (cycle(5), linear(5), grid_square(2, 3), clique(3)):
            nodes = range(g.num_nodes)
            every = {p for p in itertools.permutations(nodes)
                     if all(g.has_edge(p[a], p[b]) for a, b in g.edges)}
            every.discard(tuple(nodes))
            assert set(g.automorphisms) == every, g
            assert len(g.automorphisms) == len(every), g

    @pytest.mark.parametrize("g, count", [
        (grid_square(3, 3), 7), (cycle(8), 15), (cycle(5), 9), (linear(5), 1),
        (aspen(), 3), (tokyo(), 1),
    ])
    def test_counts(self, g, count):
        assert len(g.automorphisms) == count
        perm = random.Random(g.num_nodes).sample(range(g.num_nodes), g.num_nodes)
        assert len(self.relabeled(g, perm).automorphisms) == count

    def test_huge_group_is_truncated_quickly(self):
        # A 12-leaf star has 12! automorphisms; the search stops at 2 * 13.
        star = CouplingGraph(13, [(0, leaf) for leaf in range(1, 13)])
        t0 = time.perf_counter()
        group = star.automorphisms
        assert time.perf_counter() - t0 < 1.0
        assert len(group) == len(set(group)) == 26
        assert all(p[0] == 0 for p in group)


class TestSerialization:
    def test_round_trip(self):
        for g in (linear(5), tokyo(), grid_triangle(2, 2)):
            assert parse_graph(format_graph(g)) == g

    def test_text_shape(self):
        assert format_graph(linear(3)).splitlines() == ["nodes 3", "edge 0 1", "edge 1 2"]

    def test_parse_errors(self):
        with pytest.raises(ParseError) as e:
            parse_graph("nodes 3\nedge 0 5\n")
        assert "0, 5" in str(e.value) or "outside" in str(e.value)
        with pytest.raises(ParseError) as e:
            parse_graph("nodes 3\nvertex 0 1\n")
        assert e.value.line == 2
        with pytest.raises(ParseError):
            parse_graph("")

    def test_large_header_without_edges_is_rejected_cheaply(self):
        tracemalloc.start()
        try:
            with pytest.raises(ParseError, match="not connected"):
                parse_graph("nodes 1000000\n")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "dev.cg"
        save_graph(aspen(), path)
        assert load_graph(path) == aspen()
