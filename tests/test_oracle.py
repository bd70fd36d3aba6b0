import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gpm import oracle
from gpm.graph import Graph
from gpm.patterns import (Pattern, canonical_code, clique, cycle, named_motifs,
                          triangle, wedge)

from conftest import random_graph


class TestVertexInduced:
    def test_k4_triangles(self, k4):
        assert oracle.count_vertex_induced(k4, 3) == {canonical_code(triangle()): 4}

    def test_diamond_graph(self, diamond_graph):
        counts = oracle.count_vertex_induced(diamond_graph, 3)
        assert counts == {canonical_code(triangle()): 2, canonical_code(wedge()): 2}

    def test_k5_four_cliques(self, k5):
        assert oracle.count_vertex_induced(k5, 4) == {canonical_code(clique(4)): 5}

    def test_bounds(self):
        g = Graph.from_edges(2, [(0, 1)])
        with pytest.raises(ValueError):
            oracle.count_vertex_induced(g, 6)

    @pytest.mark.parametrize("k", [0, -1])
    def test_size_below_one_refused(self, k):
        g = Graph.from_edges(2, [(0, 1)])
        with pytest.raises(ValueError, match="at least 1"):
            oracle.count_vertex_induced(g, k)

    def test_total_equals_connected_sets(self, rng):
        g = random_graph(rng, 30, 0.2)
        counts = oracle.count_vertex_induced(g, 4)
        sets = list(oracle.connected_vertex_sets(g, 4))
        assert sum(counts.values()) == len(sets)
        assert len(set(sets)) == len(sets)

    def test_connected_sets_unique_and_complete(self, rng):
        for _ in range(10):
            n = rng.randint(4, 12)
            g = random_graph(rng, n, 0.4)
            adj = [set(a) for a in g.adjacency()]
            for k in (2, 3, 4):
                got = sorted(oracle.connected_vertex_sets(g, k))
                expect = sorted(tuple(sorted(s))
                                for s in combinations(range(n), k)
                                if _connected(adj, s))
                assert got == expect


def _connected(adj, verts):
    verts = set(verts)
    stack = [next(iter(verts))]
    seen = {stack[0]}
    while stack:
        v = stack.pop()
        for u in adj[v] & verts:
            if u not in seen:
                seen.add(u)
                stack.append(u)
    return seen == verts


class TestEdgeInduced:
    def test_k4_diamond(self, k4):
        assert oracle.count_edge_induced(k4, named_motifs(4)["diamond"]) == 6

    def test_k4_cycle(self, k4):
        assert oracle.count_edge_induced(k4, cycle(4)) == 3

    def test_path_wedge(self, path3):
        assert oracle.count_edge_induced(path3, wedge()) == 1

    def test_pattern_bound(self, k4):
        with pytest.raises(ValueError):
            oracle.count_edge_induced(k4, Pattern(5, [(a, b) for a in range(5)
                                                      for b in range(a + 1, 5)][:7]))


class TestMni:
    def test_uniform_triangle_edge(self):
        g = Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)], labels=[0, 0, 0])
        p = Pattern(2, [(0, 1)], labels=(0, 0))
        assert oracle.mni_oracle(g, p) == 3

    def test_two_disjoint_edges(self):
        g = Graph.from_edges(4, [(0, 1), (2, 3)], labels=[0, 1, 0, 1])
        p = Pattern(2, [(0, 1)], labels=(0, 1))
        assert oracle.mni_oracle(g, p) == 2

    def test_no_embedding(self):
        g = Graph.from_edges(2, [(0, 1)], labels=[0, 1])
        p = Pattern(2, [(0, 1)], labels=(0, 0))
        assert oracle.mni_oracle(g, p) == 0


def test_labeled_pattern_on_unlabeled_graph_refused():
    g = Graph.from_edges(3, [(0, 1), (1, 2)])
    p = Pattern(2, [(0, 1)], labels=(0, 1))
    for count in (oracle.count_edge_induced, oracle.mni_oracle):
        with pytest.raises(ValueError, match="vertex labels but the graph has none"):
            count(g, p)


@given(seed=st.integers(0, 10 ** 6))
@settings(max_examples=20, deadline=None)
def test_permutation_invariance(seed):
    rng = random.Random(seed)
    n = rng.randint(4, 20)
    g = random_graph(rng, n, 0.3)
    perm = list(range(n))
    rng.shuffle(perm)
    h = Graph.from_edges(n, [(perm[u], perm[v])
                             for u in range(n) for v in g.adjacency()[u] if u < v])
    for k in (3, 4):
        assert oracle.count_vertex_induced(g, k) == oracle.count_vertex_induced(h, k)
    p = named_motifs(4)["diamond"]
    assert oracle.count_edge_induced(g, p) == oracle.count_edge_induced(h, p)
