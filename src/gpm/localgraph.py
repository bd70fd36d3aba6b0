"""Shrinking local search graph for clique-style exploration.

A local graph snapshots the induced neighborhood of a root vertex (its
out-neighbors under an orientation) and then shrinks level by level as
vertices are chosen: the level-(l+1) candidate list is the level-l list
filtered to the chosen vertex's neighbors. Every level is ascending in
global ids, so a walk over the levels lists its embeddings in lexicographic
order. Building level l+1 replaces any deeper levels and leaves levels 0..l
as they were, so nothing is undone on the way back up.
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

    def shrink(self, level, v):
        """Build level+1 as the level's candidates adjacent to v, dropping
        any levels above `level`."""
        nv = self.neighbors[v]
        del self.cand[level + 1:]
        self.cand.append([w for w in self.cand[level] if w in nv])


def init_local_graph(g, root):
    """Build the local graph of a root vertex.

    Its members are the root's neighbor list (out-neighbors when the graph
    is oriented); each member's neighbors are its host-graph neighbors among
    the members. Returns None when the root has no neighbors.
    """
    adj = g.adjacency()
    members = list(adj[root])
    if not members:
        return None
    member_set = set(members)
    return LocalGraph(members, {w: member_set.intersection(adj[w]) for w in members})
