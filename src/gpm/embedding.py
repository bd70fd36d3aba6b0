"""The embedding a walk grows and the connectivity map that memoizes it.

`Embedding` is the object every per-embedding hook of the vertex walk
receives: the DFS stack of graph vertices plus one connectivity code per
level. `ConnectivityMap` keeps, for the vertices next to the embedding, the
bit-set of embedding positions each one touches (`bits`, absent meaning 0).
"""
from __future__ import annotations


class Embedding:
    """DFS stack of graph vertices with per-level connectivity codes.

    `codes[l]` has bit i set iff the level-l vertex is adjacent to the level-i
    ancestor; concatenating the codes reconstructs the induced subgraph.
    """

    __slots__ = ("graph", "vertices", "codes", "members")

    def __init__(self, graph):
        self.graph = graph
        self.vertices = []
        self.codes = []
        self.members = set()

    def push(self, v, code):
        self.vertices.append(v)
        self.codes.append(code)
        self.members.add(v)

    @property
    def depth(self):
        return len(self.vertices) - 1

    def __repr__(self):
        return f"Embedding({self.vertices})"


class ConnectivityMap:
    """The walk's map: graph vertex -> bit-set of adjacent embedding positions.

    Pushing the level-d vertex sets bit d for each of its neighbors outside
    the embedding; the per-level undo log makes pop restore the exact
    pre-push state.
    """

    __slots__ = ("adj", "bits", "log")

    def __init__(self, adj):
        self.adj = adj
        self.bits = {}
        self.log = []

    def push(self, v, depth, members):
        bit = 1 << depth
        bits = self.bits
        touched = []
        for w in self.adj[v]:
            if w not in members:
                bits[w] = bits.get(w, 0) | bit
                touched.append(w)
        self.log.append(touched)

    def pop(self, depth):
        mask = ~(1 << depth)
        bits = self.bits
        for w in self.log.pop():
            nb = bits[w] & mask
            if nb:
                bits[w] = nb
            else:
                del bits[w]
