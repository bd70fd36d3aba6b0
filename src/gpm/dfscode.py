"""Minimum DFS codes for labeled patterns.

A code is a tuple of edge tuples (i, j, label_i, label_j) over pattern
positions in discovery order: forward edges (i < j) extend the rightmost path
with position j = max + 1, backward edges (i > j) close a cycle from the
rightmost vertex. The lexicographically minimal code over all DFS walks is the
canonical key used to deduplicate patterns during frequent subgraph mining.
"""
from __future__ import annotations

from .patterns import Pattern

MAX_CODE_EDGES = 10


def edge_lt(a, b):
    """Strict order on code edges: structure first, then labels."""
    ia, ja = a[0], a[1]
    ib, jb = b[0], b[1]
    afwd = ia < ja
    bfwd = ib < jb
    if afwd != bfwd:
        if not afwd:
            return ia < jb
        return ja <= ib
    if not afwd:
        if ia != ib:
            return ia < ib
        if ja != jb:
            return ja < jb
        return a[2:] < b[2:]
    if ja != jb:
        return ja < jb
    if ia != ib:
        return ia > ib
    return a[2:] < b[2:]


def _min_edge(edges):
    it = iter(edges)
    best = next(it)
    for e in it:
        if edge_lt(e, best):
            best = e
    return best


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
    if not path_:
        # single backward-only code cannot occur; a lone first edge is forward
        path_ = [code[0][1], code[0][0]]
    return path_


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
        cands = {}
        for verts in embs:
            used = {(min(verts[e[0]], verts[e[1]]), max(verts[e[0]], verts[e[1]]))
                    for e in code}
            image = set(verts)
            vr = verts[r]
            for p in rmp[1:]:
                vp = verts[p]
                if vp in adj[vr] and (min(vr, vp), max(vr, vp)) not in used:
                    key = (r, p, labels[vr], labels[vp])
                    cands.setdefault(key, []).append(verts)
            for p in rmp:
                vp = verts[p]
                for w in adj[vp]:
                    if w not in image:
                        key = (p, nv, labels[vp], labels[w])
                        cands.setdefault(key, []).append(verts + (w,))
        chosen = _min_edge(cands.keys())
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
    seen, stack = {0}, [0]
    while stack:
        for u in adj[stack.pop()] - seen:
            seen.add(u)
            stack.append(u)
    if len(seen) < len(labels):
        raise ValueError("pattern must be connected")
    return _grow_min(adj, labels, target=code)


def render_code(code, label_names=None):
    """Human-readable rendering, e.g. "(0,1,A,B)(1,2,B,A)"."""

    def name(l):
        if label_names is not None and 0 <= l < len(label_names):
            return str(label_names[l])
        return str(l)

    return "".join(f"({i},{j},{name(li)},{name(lj)})" for i, j, li, lj in code)
