import random
from math import comb

import pytest

from gpm import apps
from gpm.graph import Graph, orient
from gpm.localgraph import init_local_graph

from conftest import random_graph


class TestInit:
    def test_k4_vertex_root(self, k4):
        og = orient(k4, "degree")
        lg = init_local_graph(og, 1)
        assert lg.candidates(0) == [2, 3]
        lg.shrink(0, 2)
        assert lg.candidates(1) == [3]
        lg.shrink(0, 3)
        assert lg.candidates(1) == []

    def test_vertex_root_uses_out_neighbors(self, k5):
        og = orient(k5, "degree")
        lg = init_local_graph(og, 0)
        assert lg.vertices == [1, 2, 3, 4]
        lg.shrink(0, 1)
        assert lg.candidates(1) == [2, 3, 4]
        lg.shrink(0, 4)
        assert lg.candidates(1) == []


class TestShrink:
    def test_k5_vertex_root_choose(self, k5):
        og = orient(k5, "degree")
        lg = init_local_graph(og, 1)
        assert lg.candidates(0) == [2, 3, 4]
        lg.shrink(0, 2)
        assert lg.candidates(1) == [3, 4]
        lg.shrink(1, 3)
        assert lg.candidates(2) == [4]

    def test_empty_next_level(self):
        g = Graph.from_edges(5, [(0, 1), (0, 2), (1, 2), (0, 3), (1, 3), (0, 4), (1, 4)])
        lg = init_local_graph(orient(g, "id"), 1)  # members {2, 3, 4}, no edges among them
        assert lg.candidates(0) == [2, 3, 4]
        lg.shrink(0, 2)
        assert lg.candidates(1) == []

    def test_random_shrinks_keep_lower_levels(self, rng):
        for _ in range(20):
            g = random_graph(rng, 30, 0.4)
            og = orient(g, "core")
            adj = og.adjacency()
            root = max(range(30), key=og.out_degree)
            lg = init_local_graph(og, root)
            if lg is None:
                continue
            assert lg.candidates(0) == sorted(adj[root])
            top = 0
            for _ in range(30):
                level = rng.randrange(top + 1)
                cands = lg.candidates(level)
                if not cands:
                    top = level
                    continue
                v = rng.choice(cands)
                below = [list(lg.candidates(l)) for l in range(level + 1)]
                lg.shrink(level, v)
                assert [lg.candidates(l) for l in range(level + 1)] == below
                assert lg.candidates(level + 1) == sorted(set(cands) & set(adj[v]))
                top = level + 1

    def test_deep_levels_consistent(self, k5):
        og = orient(k5, "degree")
        lg = init_local_graph(og, 0)
        lg.shrink(0, 1)
        assert lg.candidates(1) == [2, 3, 4]
        lg.shrink(1, 2)
        assert lg.candidates(2) == [3, 4]
        lg.shrink(1, 3)
        assert lg.candidates(2) == [4]
        lg.shrink(0, 2)
        assert lg.candidates(1) == [3, 4]
        with pytest.raises(IndexError):
            lg.candidates(2)
        assert lg.candidates(0) == [1, 2, 3, 4]


class TestCliqueCounts:
    def test_complete_graphs(self):
        for n in range(4, 11):
            kn = Graph.from_edges(n, [(a, b) for a in range(n) for b in range(a + 1, n)])
            for k in range(3, min(n, 7) + 1):
                count, _ = apps.count_cliques(kn, k, level="lo")
                assert count == comb(n, k)

    @pytest.mark.parametrize("k", [4, 5, 6, 7])
    def test_matches_high_level(self, rng, k):
        for _ in range(4):
            g = random_graph(rng, rng.randint(20, 60), 0.3)
            hi, hi_run = apps.count_cliques(g, k, level="hi")
            lo, lo_run = apps.count_cliques(g, k, level="lo")
            assert hi == lo
            assert lo_run.enumerated <= hi_run.enumerated

    def test_core_orientation_variant(self, rng):
        g = random_graph(rng, 40, 0.3)
        a, _ = apps.count_cliques(g, 5, level="lo", orientation="core")
        b, _ = apps.count_cliques(g, 5, level="hi")
        assert a == b


def test_large_clique_sizes_bypass_pattern_machinery():
    # workloads reach 9-vertex cliques; these never touch the permutation
    # canonicalizer
    k10 = Graph.from_edges(10, [(a, b) for a in range(10) for b in range(a + 1, 10)])
    for k in (8, 9):
        hi, _ = apps.count_cliques(k10, k)
        lo, _ = apps.count_cliques(k10, k, level="lo")
        assert hi == lo == comb(10, k)
