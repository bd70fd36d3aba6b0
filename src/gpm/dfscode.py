"""Minimum DFS codes for labeled patterns.

A code is a tuple of edge tuples (i, j, label_i, label_j) over pattern
positions in discovery order: forward edges (i < j) extend the rightmost path
with position j = max + 1, backward edges (i > j) close a cycle from the
rightmost vertex to a rightmost-path position it is not yet joined to
(gSpan's rightmost extension, Yan and Han, ICDM 2002). Two codes compare at
their first differing edge, and those two edges extend the same code: a
backward edge precedes a forward one, backward edges go by target position
ascending, forward edges by source position descending, and ties go to the
labels (`extension_key`). The minimal code over all DFS walks is the
canonical key used to deduplicate patterns during frequent subgraph mining.
"""
from __future__ import annotations

from .patterns import Pattern, connected

MAX_CODE_EDGES = 10


def extension_key(edge):
    """The order above, as a sort key over the extensions of one code: they
    leave the rightmost vertex (backward, j - i < 0) or reach the new
    position (forward, j - i > 0), so `j - i` ranks the positions."""
    i, j, li, lj = edge
    return j - i, li, lj


def code_vertex_count(code):
    return 1 + max(max(e[0], e[1]) for e in code)


def rightmost_path(code):
    """Positions on the rightmost path, rightmost vertex first, root last."""
    target = None
    path_ = []
    for e in reversed(code):
        i, j = e[0], e[1]
        if i < j and (target is None or j == target):
            if target is None:
                path_.append(j)
            path_.append(i)
            target = i
    return path_


def backward_targets(code, rmp):
    """The positions of the rightmost path `rmp` (rightmost vertex first) that
    the rightmost vertex may still close a backward edge to: those the code
    does not already join to it. Embeddings are injective, so a graph edge
    between the images of two positions is used by an embedding exactly when
    the code joins the two positions, and this holds for every embedding."""
    r = rmp[0]
    joined = {p for i, j, _, _ in code if r in (i, j) for p in (i, j)}
    return [p for p in rmp[1:] if p not in joined]


def _code_labels(code):
    """Each position's label, taken from the first code edge that names it."""
    labels = [None] * code_vertex_count(code)
    for i, j, li, lj in code:
        if labels[i] is None:
            labels[i] = li
        if labels[j] is None:
            labels[j] = lj
    if any(l is None for l in labels):
        raise ValueError("code does not define every vertex label")
    return labels


def decode(code):
    """Rebuild the labeled pattern a code describes (positions become vertices)."""
    labels = _code_labels(code)
    return Pattern(len(labels), [(min(i, j), max(i, j)) for i, j, _, _ in code],
                   labels=tuple(labels))


def _grow_min(adj, labels, target=None):
    """Grow the minimal DFS code of a connected labeled graph one edge at a time.

    `adj` holds each vertex's neighbour set. With `target` given, compare each
    chosen edge against the target code and stop early on mismatch (returns
    False); otherwise returns the full code.
    """
    n_edges = sum(map(len, adj)) // 2
    if n_edges > MAX_CODE_EDGES:
        raise ValueError(f"pattern exceeds the {MAX_CODE_EDGES}-edge DFS-code bound")

    # seed: minimal ordered label pair over all directed edges
    best = None
    for u, nbrs in enumerate(adj):
        for v in nbrs:
            key = (labels[u], labels[v])
            if best is None or key < best:
                best = key
    code = [(0, 1, best[0], best[1])]
    if target is not None and code[0] != target[0]:
        return False
    embs = [(u, v) for u, nbrs in enumerate(adj) for v in nbrs
            if (labels[u], labels[v]) == best]

    while len(code) < n_edges:
        nv = code_vertex_count(code)
        rmp = rightmost_path(code)
        r = rmp[0]
        targets = backward_targets(code, rmp)
        cands = {}
        for verts in embs:
            vr = verts[r]
            for p in targets:
                vp = verts[p]
                if vp in adj[vr]:
                    cands.setdefault((r, p, labels[vr], labels[vp]), []).append(verts)
            for p in rmp:
                vp = verts[p]
                for w in adj[vp]:
                    if w not in verts:
                        cands.setdefault((p, nv, labels[vp], labels[w]), []).append(verts + (w,))
        chosen = min(cands, key=extension_key)
        if target is not None and chosen != target[len(code)]:
            return False
        code.append(chosen)
        embs = cands[chosen]
    return True if target is not None else tuple(code)


def min_dfs_code(pattern):
    """The lexicographically minimal DFS code of a labeled pattern."""
    if pattern.edge_count() == 0:
        raise ValueError("DFS codes require at least one edge")
    labels = pattern.labels if pattern.labels is not None else (0,) * pattern.vertex_count
    return _grow_min(pattern.adjacency_sets(), labels)


def is_min_extension(code):
    """True iff `code` equals the minimal DFS code of the pattern it encodes."""
    code = tuple(code)
    if len(code) == 1:
        i, j, li, lj = code[0]
        return (i, j) == (0, 1) and li <= lj
    # the code's own labels and adjacency, checked as `Pattern` checks them
    labels = _code_labels(code)
    adj = [set() for _ in labels]
    for i, j, _, _ in code:
        if i == j or min(i, j) < 0:
            raise ValueError(f"code edge ({i}, {j}) does not join two positions")
        adj[i].add(j)
        adj[j].add(i)
    if not connected(adj):
        raise ValueError("pattern must be connected")
    return _grow_min(adj, labels, target=code)


def render_code(code, label_names=None):
    """Human-readable rendering, e.g. "(0,1,A,B)(1,2,B,A)"."""

    def name(l):
        if label_names is not None and 0 <= l < len(label_names):
            return str(label_names[l])
        return str(l)

    return "".join(f"({i},{j},{name(li)},{name(lj)})" for i, j, li, lj in code)
