"""Shrinking local search graph for clique-style exploration.

A local graph snapshots the induced neighborhood of a root (the vertex's
out-neighbors under an orientation, or the common neighbors of an edge) and
then shrinks level by level as vertices are chosen: the level-(l+1) candidate
list is the level-l list filtered to the chosen vertex's neighbors. Every
level is ascending in global ids, so a walk over the levels lists its
embeddings in lexicographic order. Building level l+1 replaces any deeper
levels and leaves levels 0..l as they were, so nothing is undone on the way
back up.
"""
from __future__ import annotations


class LocalGraph:
    """Level-indexed view of an induced subgraph around one search root.

    `vertices` lists the members in ascending global ids, `neighbors[v]` is
    the set of members adjacent to member `v`, and `cand[l]` is level l's
    candidate list (`cand[0]` is `vertices`).
    """

    __slots__ = ("vertices", "neighbors", "cand")

    def __init__(self, vertices, neighbors):
        self.vertices = vertices
        self.neighbors = neighbors
        self.cand = [vertices]

    def candidates(self, level):
        """The level's candidate list, ascending; callers must not modify it."""
        return self.cand[level]

    def neighbors_at(self, level, v):
        """Ascending ids of member v's neighbors inside the level's candidates."""
        nv = self.neighbors[v]
        return [w for w in self.cand[level] if w in nv]

    def shrink(self, level, v):
        """Build level+1 as the level's candidates adjacent to v, dropping
        any levels above `level`."""
        del self.cand[level + 1:]
        self.cand.append(self.neighbors_at(level, v))


def init_local_graph(g, root):
    """Build the local graph for a root vertex or root edge.

    Vertex root: membership is the root's neighbor list (out-neighbors when
    the graph is oriented). Edge root (u, v): membership is the common
    neighborhood of u and v. Each member's neighbors are its host-graph
    neighbors intersected with the membership. Returns None when the
    membership is empty.
    """
    adj = g.adjacency()
    if isinstance(root, tuple):
        u, v = root
        members = sorted(set(adj[u]).intersection(adj[v]))
    else:
        members = list(adj[root])
    if not members:
        return None
    member_set = set(members)
    return LocalGraph(members, {w: member_set.intersection(adj[w]) for w in members})
