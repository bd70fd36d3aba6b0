"""Brute-force validation of the benchmark's reference counts.

Run with `python3 -m pytest benchmark/test_reference.py` from the repository
root. The brute force enumerates vertex subsets and edge subsets directly and
shares no code with `reference.py` or with gpm.
"""
from __future__ import annotations

import itertools
import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import gen  # noqa: E402
import reference  # noqa: E402

# induced 4-vertex motifs by (edge count, sorted degree sequence)
MOTIF4 = {
    (3, (1, 1, 2, 2)): "4-path",
    (3, (1, 1, 1, 3)): "3-star",
    (4, (2, 2, 2, 2)): "4-cycle",
    (4, (1, 2, 2, 3)): "tailed-triangle",
    (5, (2, 2, 3, 3)): "diamond",
    (6, (3, 3, 3, 3)): "4-clique",
}


def _edge_set(edges):
    return {(u, v) for u, v in edges.tolist()}


def _brute_induced(es, n, k):
    counts = {}
    for vs in itertools.combinations(range(n), k):
        sub = [(a, b) for a, b in itertools.combinations(vs, 2) if (a, b) in es]
        deg = tuple(sorted(sum(1 for e in sub if v in e) for v in vs))
        if k == 3:
            name = {2: "wedge", 3: "triangle"}.get(len(sub))
        else:
            name = MOTIF4.get((len(sub), deg))
        if name:
            counts[name] = counts.get(name, 0) + 1
    return counts


def _brute_subgraphs(es, n, pattern_edges, k):
    """Distinct edge sets of k-vertex subgraphs isomorphic to the pattern."""
    found = set()
    for vs in itertools.permutations(range(n), k):
        image = frozenset((min(vs[a], vs[b]), max(vs[a], vs[b])) for a, b in pattern_edges)
        if image <= es:
            found.add(image)
    return len(found)


def _graphs():
    rng = np.random.default_rng(5)
    for n, m in ((6, 9), (7, 12), (8, 14), (8, 20), (9, 16)):
        yield gen.erdos_renyi(n, m, rng), n
    yield np.array([(a, b) for a, b in itertools.combinations(range(6), 2)]), 6


@pytest.mark.parametrize("edges,n", list(_graphs()))
def test_motifs_and_matches_equal_brute_force(edges, n):
    es = _edge_set(edges)
    ref = reference.motif_counts(edges, n, kmax_clique=5)
    for k, key in ((3, "motif3"), (4, "motif4")):
        brute = _brute_induced(es, n, k)
        assert {m: c for m, c in ref[key].items() if c} == brute
    assert ref["match"]["4-cycle"] == _brute_subgraphs(es, n, [(0, 1), (1, 2), (2, 3), (3, 0)], 4)
    assert ref["match"]["4-path"] == _brute_subgraphs(es, n, [(0, 1), (1, 2), (2, 3)], 4)
    assert ref["match"]["wedge"] == _brute_subgraphs(es, n, [(0, 1), (1, 2)], 3)
    for k in (3, 4, 5):
        brute = sum(1 for vs in itertools.combinations(range(n), k)
                    if all(p in es for p in itertools.combinations(vs, 2)))
        assert ref["cliques"][k] == brute


def test_generators_are_seeded():
    a = gen.chung_lu(500, 6, 2.5, np.random.default_rng(3))
    b = gen.chung_lu(500, 6, 2.5, np.random.default_rng(3))
    assert np.array_equal(a, b)
    e = gen.erdos_renyi(100, 300, np.random.default_rng(3))
    assert len(e) == 300 and np.all(e[:, 0] < e[:, 1])
    assert len({(u, v) for u, v in e.tolist()}) == 300


def test_single_edge_supports():
    edges = np.array([(0, 1), (1, 2), (2, 0), (2, 3)])
    labels = np.array([0, 1, 1, 1])
    sup = reference.single_edge_supports(edges, labels)
    # A-B: one A vertex, two B vertices next to it -> min(1, 2)
    assert sup == {(0, 1): 1, (1, 1): 3}
    assert reference.labeled_edge_count(edges, labels, 1, 1) == 2
    assert reference.labeled_edge_count(edges, labels, 0, 1) == 2


def test_listing_check(tmp_path):
    from run import check_listing

    # a triangle 0-1-2 with a tail 2-3: three wedges on the triangle, two open
    edges = np.array([(0, 1), (1, 2), (0, 2), (2, 3)])
    adj = reference.adjacency_sets(edges, 4)
    good = ["1 0 2", "0 1 2", "0 2 1", "0 2 3", "1 2 3"]
    path = tmp_path / "list.txt"

    def check(lines):
        path.write_text("".join(line + "\n" for line in lines))
        return check_listing(path, adj, 5)

    assert check(good) is None
    assert check(good[:-1]) is not None                       # one missing
    assert check(good[:-1] + ["3 2 0"]) is not None           # open wedge twice
    assert check(good[1:] + ["1 3 0"]) is not None            # not a wedge
    assert check(good[:3] + ["0 1 2", "0 2 3"]) is not None   # triangle 4 times
    assert check(good[:-1] + ["1 2 x"]) is not None           # not vertex ids
