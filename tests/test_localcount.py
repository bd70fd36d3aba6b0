import random
from fractions import Fraction
from itertools import combinations

from gpm import apps, localcount, oracle
from gpm.graph import Graph
from gpm.localcount import (MC4_CORRECTIONS, calibrate_corrections,
                            local_wedge_count, mc3_local_counts, mc4_local_counts,
                            wedge_kernel)
from gpm.patterns import canonical_code, named_motifs, triangle, wedge

from conftest import edge_case_graphs, random_graph


def _reference_terms(g):
    """The kernel's terms by set intersection over every vertex pair."""
    adj = [set(a) for a in g.adjacency()]
    terms = dict.fromkeys(("noninduced_c4", "raw_diamond", "raw_tailed",
                           "raw_path", "raw_star"), 0)
    for u, v in combinations(range(g.vertex_count), 2):
        common = len(adj[u] & adj[v])
        terms["noninduced_c4"] += common * (common - 1) // 2
        if v not in adj[u]:
            continue
        su = len(adj[u]) - common - 1
        sv = len(adj[v]) - common - 1
        terms["raw_diamond"] += common * (common - 1)
        terms["raw_tailed"] += common * (su + sv)
        terms["raw_path"] += su * sv
        terms["raw_star"] += su * (su - 1) + sv * (sv - 1)
    terms["noninduced_c4"] //= 2
    return terms


def test_edge_wedge_formula_example():
    # local triangle count 2 on an edge with endpoint degrees 4 and 5
    assert local_wedge_count(4, 5, 2) == 3


class TestThreeMotifs:
    def test_diamond(self, diamond_graph):
        counts, _ = mc3_local_counts(diamond_graph)
        # star sum 8, triangles 2 -> wedges 8 - 6 = 2
        assert counts[canonical_code(wedge())] == 2
        assert counts[canonical_code(triangle())] == 2

    def test_triangle_graph(self):
        g = Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
        counts, _ = mc3_local_counts(g)
        assert counts[canonical_code(wedge())] == 0
        assert counts[canonical_code(triangle())] == 1

    def test_three_star(self):
        g = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
        counts, _ = mc3_local_counts(g)
        assert counts[canonical_code(wedge())] == 3
        assert counts[canonical_code(triangle())] == 0


class TestFourMotifs:
    def test_path_graph(self):
        g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
        counts, _, _, _ = mc4_local_counts(g)
        names = named_motifs(4)
        assert counts[canonical_code(names["4-path"])] == 1
        assert sum(counts.values()) == 1

    def test_k4_diamond_correction(self, k4):
        counts, _, _, _ = mc4_local_counts(k4)
        names = named_motifs(4)
        assert counts[canonical_code(names["diamond"])] == 0
        assert counts[canonical_code(names["4-clique"])] == 1

    def test_every_single_motif_graph(self):
        names = named_motifs(4)
        for name, pattern in names.items():
            g = Graph.from_edges(4, list(pattern.edges))
            counts, _, _, _ = mc4_local_counts(g)
            for other, p in names.items():
                expect = 1 if other == name else 0
                assert counts[canonical_code(p)] == expect, (name, other)


class TestOracleAgreement:
    def test_many_random_graphs(self, rng):
        # the module-level contract: formula counts are exact
        graphs = edge_case_graphs() + [
            random_graph(rng, rng.randint(8, 45), rng.uniform(0.08, 0.35))
            for _ in range(50)]
        for trial, g in enumerate(graphs):
            counts3, _ = mc3_local_counts(g)
            expect3 = oracle.count_vertex_induced(g, 3)
            assert {k: v for k, v in counts3.items() if v} == expect3, trial
            counts4, _, _, _ = mc4_local_counts(g)
            expect4 = oracle.count_vertex_induced(g, 4)
            assert {k: v for k, v in counts4.items() if v} == expect4, trial

    def test_workers_agree(self, rng):
        for g in edge_case_graphs()[-2:] + [random_graph(rng, 60, 0.15)]:
            one = apps.count_motifs(g, 4, level="lo", workers=1)[0]
            assert apps.count_motifs(g, 4, level="lo", workers=2)[0] == one

    def test_search_space_below_high_level(self, rng):
        g = random_graph(rng, 200, 0.05)
        _, _, _, lo_enumerated = mc4_local_counts(g)
        _, hi_enumerated, _ = apps.count_motifs(g, 4, level="hi")
        assert lo_enumerated < hi_enumerated


class TestWedgeKernel:
    def test_chunked_terms_match_reference(self, rng, monkeypatch):
        graphs = edge_case_graphs() + [random_graph(rng, 40, 0.2) for _ in range(5)]
        whole = [wedge_kernel(g) for g in graphs]
        # a few wedges per chunk; the hub's pairs overflow it and form their own
        monkeypatch.setattr(localcount, "PAIR_BUDGET", 3)
        for g, (terms, run) in zip(graphs, whole):
            chunked_terms, chunked_run = wedge_kernel(g)
            assert terms == chunked_terms == _reference_terms(g)
            deg = g.degrees()
            assert run.enumerated == chunked_run.enumerated == sum(deg * (deg - 1) // 2)


class TestCalibration:
    def test_rederives_frozen_constants(self):
        derived = calibrate_corrections()
        assert derived == MC4_CORRECTIONS

    def test_holdout_graphs(self):
        rng = random.Random(0xBEEF)
        for _ in range(20):
            g = random_graph(rng, rng.randint(6, 30), rng.uniform(0.15, 0.5))
            counts, _, _, _ = mc4_local_counts(g)
            expect = oracle.count_vertex_induced(g, 4)
            assert {k: v for k, v in counts.items() if v} == expect

    def test_constants_are_exact_fractions(self):
        assert MC4_CORRECTIONS["diamond"]["raw"] == Fraction(1, 2)
        assert MC4_CORRECTIONS["diamond"]["4-clique"] == -6
        assert MC4_CORRECTIONS["3-star"]["raw"] == Fraction(1, 6)
