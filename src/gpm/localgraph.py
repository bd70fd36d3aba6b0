"""Shrinking local search graph for clique-style exploration.

A local graph snapshots the induced neighborhood of a root (the vertex's
out-neighbors under an orientation, or the common neighbors of an edge) and
then shrinks level by level as vertices are chosen: the level-(l+1) candidate
set is the level-l set intersected with the chosen vertex's neighbors, and
each member's adjacency array is compacted in place so its first degree(l, u)
entries are exactly its neighbors inside the level-l set. Compaction swaps are
logged so popping a level restores the arrays bit-identically.
"""
from __future__ import annotations


class LocalGraph:
    """Level-indexed view of an induced subgraph around one search root.

    `adjacency[i]` lists, in ascending order, the global ids of the members
    adjacent to `vertices[i]`; `vertices` is ascending too, so the lists
    stay sorted once translated to local ids.
    """

    __slots__ = ("vertices", "index", "adj", "deg", "cand", "_stamp", "_stamp_val",
                 "_swaplog")

    def __init__(self, vertices, adjacency):
        self.vertices = list(vertices)              # local id -> global id
        index = self.index = {g: i for i, g in enumerate(self.vertices)}
        self.adj = [[index[w] for w in a] for a in adjacency]
        n = len(self.vertices)
        self.deg = [[len(a) for a in self.adj]]     # deg[level][local]
        self.cand = [list(range(n))]                # cand[level] = local ids
        self._stamp = [0] * n
        self._stamp_val = 0
        self._swaplog = {}

    def candidates(self, level):
        """Global vertex ids in the level's candidate set."""
        verts = self.vertices
        return [verts[i] for i in self.cand[level]]

    def neighbors_at(self, level, global_v):
        """Global ids of global_v's neighbors inside the level's candidate set."""
        u = self.index[global_v]
        verts = self.vertices
        return [verts[w] for w in self.adj[u][:self.deg[level][u]]]

    def shrink(self, level, chosen_global):
        """Build level+1 as (level candidates) intersect N(chosen).

        The chosen vertex's compacted prefix already lists exactly those
        neighbors, so the new candidate list is a slice; every survivor's
        adjacency prefix is then partitioned against the new set with
        swap-to-tail compaction (logged for exact restore).
        """
        c = self.index[chosen_global]
        old_deg = self.deg[level]
        new_cand = self.adj[c][:old_deg[c]]

        self._stamp_val += 1
        stamp = self._stamp
        val = self._stamp_val
        for w in new_cand:
            stamp[w] = val

        log = []
        new_deg = list(old_deg)
        for u in new_cand:
            row = self.adj[u]
            keep = 0
            tail = old_deg[u]
            i = 0
            while i < tail:
                w = row[i]
                if stamp[w] == val:
                    keep += 1
                    i += 1
                else:
                    tail -= 1
                    if i != tail:
                        row[i], row[tail] = row[tail], row[i]
                        log.append((u, i, tail))
            new_deg[u] = keep

        level_new = level + 1
        if len(self.deg) <= level_new:
            self.deg.append(new_deg)
            self.cand.append(list(new_cand))
        else:
            self.deg[level_new] = new_deg
            self.cand[level_new] = list(new_cand)
        self._swaplog[level_new] = log

    def pop_level(self, level):
        """Undo the shrink that created `level`; adjacency arrays are restored
        to the exact state they had before."""
        log = self._swaplog.pop(level, ())
        adj = self.adj
        for u, i, j in reversed(log):
            row = adj[u]
            row[i], row[j] = row[j], row[i]


def _sorted_intersect(a, b):
    out = []
    i = j = 0
    na, nb = len(a), len(b)
    while i < na and j < nb:
        x, y = a[i], b[j]
        if x < y:
            i += 1
        elif y < x:
            j += 1
        else:
            out.append(x)
            i += 1
            j += 1
    return out


def init_local_graph(g, root):
    """Build the local graph for a root vertex or root edge.

    Vertex root: membership is the root's neighbor list (out-neighbors when
    the graph is oriented). Edge root (u, v): membership is the common
    neighborhood of u and v. Edges inside the local graph come from pairwise
    sorted-list intersections against the host graph. Returns None when the
    membership set is empty.
    """
    adj = g.adjacency()
    if isinstance(root, tuple):
        u, v = root
        members = _sorted_intersect(adj[u], adj[v])
    else:
        members = list(adj[root])
    if not members:
        return None
    return LocalGraph(members, [_sorted_intersect(members, adj[u]) for u in members])
