"""The embedding a walk grows and the connectivity map that memoizes it.

`Embedding` is the object every per-embedding hook receives: the DFS stack
of graph vertices plus one connectivity code per level. `embedding_code`
and `decode_embedding_code` convert the codes to and from a '0'/'1' string,
and `ConnectivityMap` keeps, for the vertices next to the embedding, the
bit-set of embedding positions each one touches.
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

    def pop(self):
        v = self.vertices.pop()
        self.codes.pop()
        self.members.discard(v)
        return v

    @property
    def depth(self):
        return len(self.vertices) - 1

    def __repr__(self):
        return f"Embedding({self.vertices})"


def embedding_code(emb):
    """Concatenated per-level connectivity codes as a '0'/'1' string."""
    parts = []
    for level in range(1, len(emb.vertices)):
        c = emb.codes[level]
        parts.append("".join("1" if (c >> i) & 1 else "0" for i in range(level)))
    return "".join(parts)


def decode_embedding_code(code_str):
    """Rebuild the induced adjacency (as level-pair edges) from a code string."""
    edges = []
    pos = 0
    level = 1
    while pos < len(code_str):
        for i in range(level):
            if code_str[pos] == "1":
                edges.append((i, level))
            pos += 1
        level += 1
    if pos != len(code_str):
        raise ValueError("code length is not a triangular number")
    return edges


class ConnectivityMap:
    """Worker-private map: graph vertex -> bit-set of adjacent embedding positions.

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

    def lookup(self, u):
        return self.bits.get(u, 0)
