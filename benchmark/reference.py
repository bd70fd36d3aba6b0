"""Reference counts computed without gpm.

Closed forms over degrees, per-edge triangle counts and pair co-degrees (the
local counting of ESCAPE, Pinar, Seshadhri & Vishal, WWW 2017), plus a plain
set-intersection clique count. Nothing here imports gpm, so a count the
engine gets wrong cannot be reproduced by sharing its code.

Graphs are numpy arrays of undirected edges (u < v, no loops, no
duplicates) over vertices 0..n-1.
"""
from __future__ import annotations

import numpy as np


def adjacency_sets(edges, n):
    adj = [set() for _ in range(n)]
    for u, v in edges.tolist():
        adj[u].add(v)
        adj[v].add(u)
    return adj


def degrees(edges, n):
    return np.bincount(edges.ravel(), minlength=n).astype(np.int64)


def edge_triangles(edges, adj):
    """Triangles through each edge: |N(u) & N(v)|, in edge order."""
    return np.array([len(adj[u] & adj[v]) for u, v in edges.tolist()], dtype=np.int64)


def four_cycles(adj, n):
    """Non-induced 4-cycles: sum over pairs u < w of C(codeg(u, w), 2), halved.

    Each cycle has two opposite pairs, hence the halving. Co-degrees come from
    listing every wedge (pair of neighbours of a centre) as an integer key.
    """
    keys = []
    for v in range(n):
        nb = np.fromiter(sorted(adj[v]), dtype=np.int64, count=len(adj[v]))
        if len(nb) < 2:
            continue
        i, j = np.triu_indices(len(nb), k=1)
        keys.append(nb[i] * n + nb[j])
    if not keys:
        return 0
    _, codeg = np.unique(np.concatenate(keys), return_counts=True)
    return int((codeg * (codeg - 1) // 2).sum()) // 2


def clique_counts(adj, n, kmax):
    """Number of k-cliques for every 3 <= k <= kmax.

    Vertices are ranked by (degree, id); each clique is counted once from its
    lowest-ranked vertex by intersecting higher-ranked neighbour sets.
    """
    rank = {v: (len(adj[v]), v) for v in range(n)}
    out = [{w for w in adj[v] if rank[w] > rank[v]} for v in range(n)]
    counts = [0] * (kmax + 1)

    def grow(cands, size):
        for w in cands:
            counts[size + 1] += 1
            if size + 1 < kmax:
                nxt = cands & out[w]
                if nxt:
                    grow(nxt, size + 1)

    for v in range(n):
        if out[v]:
            grow(out[v], 1)
    return {k: counts[k] for k in range(3, kmax + 1)}


def motif_counts(edges, n, kmax_clique=4):
    """Induced 3- and 4-vertex motif counts and non-induced match counts.

    Non-induced counts (subgraphs isomorphic to the pattern, not necessarily
    induced):
      star3   = sum C(d, 3)
      path4   = sum over edges (d_u - 1)(d_v - 1) - 3 T
      tailed  = sum over vertices t_v (d_v - 2)
      cycle4  = sum over pairs C(codeg, 2) / 2
      diamond = sum over edges C(t_e, 2)
    Induced counts follow by subtracting each denser motif times the number
    of copies of the sparser one it contains.
    """
    adj = adjacency_sets(edges, n)
    d = degrees(edges, n)
    te = edge_triangles(edges, adj)
    tri = int(te.sum()) // 3
    tv = np.zeros(n, dtype=np.int64)
    np.add.at(tv, edges[:, 0], te)
    np.add.at(tv, edges[:, 1], te)
    tv //= 2
    du, dv = d[edges[:, 0]], d[edges[:, 1]]

    cliques = clique_counts(adj, n, kmax_clique)
    k4 = cliques[4]
    star_ni = int((d * (d - 1) * (d - 2) // 6).sum())
    path_ni = int(((du - 1) * (dv - 1)).sum()) - 3 * tri
    tailed_ni = int((tv * (d - 2)).sum())
    cycle_ni = four_cycles(adj, n)
    diamond_ni = int((te * (te - 1) // 2).sum())

    diamond = diamond_ni - 6 * k4
    cycle = cycle_ni - diamond - 3 * k4
    tailed = tailed_ni - 4 * diamond - 12 * k4
    path = path_ni - 2 * tailed - 4 * cycle - 6 * diamond - 12 * k4
    star = star_ni - tailed - 2 * diamond - 4 * k4
    wedges_ni = int((d * (d - 1) // 2).sum())
    return {
        "motif3": {"wedge": wedges_ni - 3 * tri, "triangle": tri},
        "motif4": {"4-path": path, "3-star": star, "4-cycle": cycle,
                   "tailed-triangle": tailed, "diamond": diamond, "4-clique": k4},
        "cliques": cliques,
        "match": {"wedge": wedges_ni, "4-path": path_ni, "4-cycle": cycle_ni},
    }


def labeled_edge_count(edges, labels, a, b):
    """Edges with one endpoint labelled a and the other labelled b."""
    lu, lv = labels[edges[:, 0]], labels[edges[:, 1]]
    return int((((lu == a) & (lv == b)) | ((lu == b) & (lv == a))).sum())


def single_edge_supports(edges, labels):
    """Minimum-image support of every one-edge labelled pattern (a <= b).

    For a != b the two positions hold the a-vertices with a b-neighbour and
    the b-vertices with an a-neighbour; for a == b both positions hold the
    a-vertices with an a-neighbour.
    """
    lu, lv = labels[edges[:, 0]], labels[edges[:, 1]]
    domains = {}
    for (x, y, lx, ly) in ((edges[:, 0], edges[:, 1], lu, lv),
                           (edges[:, 1], edges[:, 0], lv, lu)):
        for vx, lab_x, lab_y in zip(x.tolist(), lx.tolist(), ly.tolist()):
            domains.setdefault((lab_x, lab_y), set()).add(vx)
    support = {}
    for (a, b), dom in domains.items():
        if a <= b:
            support[(a, b)] = min(len(dom), len(domains[(b, a)]))
    return support
