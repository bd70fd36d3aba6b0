import random
from itertools import combinations

import pytest

from gpm.graph import Graph


def random_graph(rng, n, p, labels=None):
    edges = [(a, b) for a in range(n) for b in range(a + 1, n) if rng.random() < p]
    lab = None
    if labels:
        lab = [rng.randrange(labels) for _ in range(n)]
    return Graph.from_edges(n, edges, labels=lab)


def _disjoint_union(*graphs):
    edges, n = [], 0
    for g in graphs:
        adj = g.adjacency()
        edges += [(n + u, n + v) for u in range(g.vertex_count) for v in adj[u] if u < v]
        n += g.vertex_count
    return Graph.from_edges(n, edges)


def _hub_and_communities(rng, communities=4, size=6, density=0.7):
    """Vertex 0 adjacent to everything, plus dense random communities."""
    n = 1 + communities * size
    edges = [(0, v) for v in range(1, n)]
    for c in range(communities):
        members = range(1 + c * size, 1 + (c + 1) * size)
        edges += [(a, b) for a, b in combinations(members, 2) if rng.random() < density]
    return Graph.from_edges(n, edges)


def edge_case_graphs():
    """No edges, no wedges, one hub, complete, disjoint parts, hub plus communities."""
    rng = random.Random(0xED6E)
    k6 = Graph.from_edges(6, list(combinations(range(6), 2)))
    return [
        Graph.from_edges(0, []),
        Graph.from_edges(5, []),
        Graph.from_edges(8, [(2 * i, 2 * i + 1) for i in range(4)]),
        Graph.from_edges(9, [(0, i) for i in range(1, 9)]),
        k6,
        _disjoint_union(k6, Graph.from_edges(5, [(i, (i + 1) % 5) for i in range(5)]),
                        random_graph(rng, 12, 0.3)),
        _hub_and_communities(rng),
    ]


@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)


@pytest.fixture
def k4():
    return Graph.from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])


@pytest.fixture
def k5():
    return Graph.from_edges(5, [(a, b) for a in range(5) for b in range(a + 1, 5)])


@pytest.fixture
def path3():
    return Graph.from_edges(3, [(0, 1), (1, 2)])


@pytest.fixture
def diamond_graph():
    # edges 01, 02, 12, 13, 23: vertices 1 and 2 are the degree-3 chord ends
    return Graph.from_edges(4, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)])
