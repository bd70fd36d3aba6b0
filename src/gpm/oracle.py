"""Brute-force reference counters for calibration and acceptance testing.

Deliberately simple and slow. Vertex-set enumeration follows the classic
exclusive-neighborhood extension scheme (each connected set produced exactly
once from its smallest vertex), and subgraph matching is naive backtracking
with set-based deduplication; neither shares search logic with the engine.
Only canonical pattern codes are shared, for keying the output.
"""
from __future__ import annotations

from .patterns import Pattern, canonical_code

MAX_ORACLE_VERTICES = 200
MAX_ORACLE_SIZE = 5
MAX_ORACLE_PATTERN_EDGES = 6


def _bit_adjacency(g):
    masks = [0] * g.vertex_count
    adj = g.adjacency()
    for v in range(g.vertex_count):
        m = 0
        for u in adj[v]:
            m |= 1 << u
        masks[v] = m
    return masks


def connected_vertex_sets(g, k):
    """Yield every connected k-vertex set exactly once (as a sorted tuple).

    Sets are rooted at their smallest vertex. A popped frontier vertex never
    re-enters a sibling branch (frontiers only admit vertices that are not yet
    neighbors of the growing set), which is what guarantees uniqueness.
    """
    masks = _bit_adjacency(g)
    n = g.vertex_count
    if k == 1:
        yield from ((v,) for v in range(n))
        return

    def extend(sub, ext, nbhd, above):
        if len(sub) == k:
            yield tuple(sorted(sub))
            return
        while ext:
            low = ext & -ext
            ext &= ext - 1
            w = low.bit_length() - 1
            frontier = masks[w] & ~nbhd & above
            yield from extend(sub + [w], ext | frontier, nbhd | masks[w] | low, above)

    for v in range(n):
        above = -1 << (v + 1)
        yield from extend([v], masks[v] & above, masks[v] | (1 << v), above)


def count_vertex_induced(g, k):
    """Map canonical pattern code -> number of connected induced k-subgraphs."""
    if k < 1:
        raise ValueError(f"motif size k must be at least 1, got {k}")
    if g.vertex_count > MAX_ORACLE_VERTICES or k > MAX_ORACLE_SIZE:
        raise ValueError("instance exceeds oracle bounds")
    masks = _bit_adjacency(g)
    labels = g.labels.tolist() if g.labels is not None else None
    counts = {}
    key_cache = {}
    for sub in connected_vertex_sets(g, k):
        sig = 0
        for a in range(k):
            ma = masks[sub[a]]
            for b in range(a + 1, k):
                sig = (sig << 1) | ((ma >> sub[b]) & 1)
        if labels is not None:
            sig = (sig, tuple(labels[v] for v in sub))
        key = key_cache.get(sig)
        if key is None:
            if labels is None:
                bits, lbl = sig, None
            else:
                bits, lbl = sig
            key = canonical_code(_subset_pattern(k, bits, lbl))
            key_cache[sig] = key
        counts[key] = counts.get(key, 0) + 1
    return counts


def _subset_pattern(k, bits, lbl):
    edges = []
    total = k * (k - 1) // 2
    i = 0
    for a in range(k):
        for b in range(a + 1, k):
            if (bits >> (total - 1 - i)) & 1:
                edges.append((a, b))
            i += 1
    return Pattern(k, edges, labels=lbl)


def _iter_edge_preserving_maps(g, pattern):
    """Yield every injective map pattern-vertex -> graph-vertex that carries
    each pattern edge onto a graph edge (non-induced). Naive backtracking,
    anchored on an arbitrary connected order of the pattern.
    """
    if pattern.labels is not None and g.labels is None:
        raise ValueError("the pattern has vertex labels but the graph has none")
    k = pattern.vertex_count
    p_adj = pattern.adjacency_sets()
    # connected visit order with, per step, the earlier neighbors to check
    order = [0]
    seen = {0}
    while len(order) < k:
        nxt = min(v for v in range(k) if v not in seen and p_adj[v] & seen)
        order.append(nxt)
        seen.add(nxt)
    earlier = []
    for idx, v in enumerate(order):
        earlier.append([(order.index(u)) for u in sorted(p_adj[v]) if u in set(order[:idx])])

    g_adj = [set(a) for a in g.adjacency()]
    g_labels = g.labels.tolist() if g.labels is not None else None
    p_labels = pattern.labels

    assign = [None] * k

    def ok_label(pv, gv):
        return p_labels is None or p_labels[pv] == g_labels[gv]

    def backtrack(idx, used):
        if idx == k:
            mapping = [None] * k
            for pos, pv in enumerate(order):
                mapping[pv] = assign[pos]
            yield tuple(mapping)
            return
        pv = order[idx]
        anchors = earlier[idx]
        cands = g_adj[assign[anchors[0]]] if anchors else range(g.vertex_count)
        for gv in cands:
            if gv in used or not ok_label(pv, gv):
                continue
            if any(assign[a] not in g_adj[gv] for a in anchors):
                continue
            assign[idx] = gv
            yield from backtrack(idx + 1, used | {gv})
            assign[idx] = None

    yield from backtrack(0, set())


def count_edge_induced(g, pattern):
    """Number of distinct edge subsets whose edge-induced subgraph matches."""
    if pattern.edge_count() > MAX_ORACLE_PATTERN_EDGES:
        raise ValueError("pattern exceeds oracle edge bound")
    subsets = set()
    p_edges = pattern.edges
    for mapping in _iter_edge_preserving_maps(g, pattern):
        es = frozenset((min(mapping[a], mapping[b]), max(mapping[a], mapping[b]))
                       for a, b in p_edges)
        subsets.add(es)
    return len(subsets)


def mni_oracle(g, pattern):
    """Domain support: enumerate every embedding, collect the distinct graph
    vertices seen at each pattern position, return the minimum domain size.
    """
    domains = [set() for _ in range(pattern.vertex_count)]
    found = False
    for mapping in _iter_edge_preserving_maps(g, pattern):
        found = True
        for pos, gv in enumerate(mapping):
            domains[pos].add(gv)
    if not found:
        return 0
    return min(len(d) for d in domains)
