"""Undirected graph storage in compressed sparse row form.

Loading, validation, k-core decomposition, and acyclic orientation live here,
and so does what the numpy kernels derive from the CSR: the source of every
entry (`CSRGraph.sources`), the cached edge-key index (`CSRGraph.edge_keys`)
with its one vectorised lookup (`CSRGraph.find_edges`, behind `has_edges`)
and the range gather (`gather`). Graphs are immutable after construction.
"""
from __future__ import annotations

from itertools import islice

import numpy as np


class GraphParseError(ValueError):
    """Edge-list or label file could not be parsed."""


class CSRGraph:
    """Compressed sparse row storage shared by `Graph` and `OrientedGraph`.

    `row_offsets` has length `vertex_count + 1`; the neighbors of v occupy
    `neighbors[row_offsets[v]:row_offsets[v+1]]` in ascending order. Optional
    dense integer vertex labels, with the original label strings kept in
    `label_names` for output.
    """

    def __init__(self, vertex_count, row_offsets, neighbors, labels=None, label_names=None):
        self.vertex_count = int(vertex_count)
        self.row_offsets = np.asarray(row_offsets, dtype=np.int64)
        self.neighbors = np.asarray(neighbors, dtype=np.int64)
        self.labels = None if labels is None else np.asarray(labels, dtype=np.int64)
        self.label_names = None if label_names is None else tuple(label_names)
        self._adj = None
        self._keys = None

    def neighbors_of(self, v):
        return self.neighbors[self.row_offsets[v]:self.row_offsets[v + 1]]

    def sources(self):
        """Source vertex of every CSR entry, aligned with `neighbors`."""
        return np.repeat(np.arange(self.vertex_count), np.diff(self.row_offsets))

    def edge_keys(self):
        """Keys u * n + v of the CSR entries (u, v), cached; ascending, as the
        CSR is sorted by source, then neighbor."""
        if self._keys is None:
            self._keys = self.sources() * self.vertex_count + self.neighbors
        return self._keys

    def find_edges(self, u, v):
        """`(at, found)` over the broadcast id arrays: is `(u, v)` a CSR entry,
        and where `found`, its index `at` into `neighbors`."""
        q = np.asarray(u, dtype=np.int64) * self.vertex_count + v
        keys = self.edge_keys()
        if not len(keys):
            return np.zeros(q.shape, dtype=np.int64), np.zeros(q.shape, dtype=bool)
        at = np.minimum(np.searchsorted(keys, q), len(keys) - 1)
        return at, keys[at] == q

    def has_edges(self, u, v):
        """`find_edges`'s `found`: the vectorised `has_edge`."""
        return self.find_edges(u, v)[1]

    def adjacency(self):
        """Neighbor lists as plain Python lists (cached); used by hot loops."""
        if self._adj is None:
            offs = self.row_offsets.tolist()
            flat = self.neighbors.tolist()
            self._adj = [flat[offs[v]:offs[v + 1]] for v in range(self.vertex_count)]
        return self._adj


class Graph(CSRGraph):
    """Simple undirected graph: sorted neighbor lists, no loops, no duplicates."""

    @classmethod
    def from_edges(cls, vertex_count, edges, labels=None, label_names=None):
        """Build a graph from (u, v) pairs: an iterable of them or an `(m, 2)`
        integer array.

        Input is normalized: self-loops dropped, duplicates merged, both
        directions stored, neighbor lists sorted. An edge outside the vertex
        range raises ValueError naming the first such pair in input order.
        """
        pairs = np.asarray(edges if isinstance(edges, np.ndarray) else list(edges),
                           dtype=np.int64)
        pairs = pairs.reshape(len(pairs), 2)
        pairs = pairs[pairs[:, 0] != pairs[:, 1]]
        bad = np.flatnonzero(((pairs < 0) | (pairs >= vertex_count)).any(axis=1))
        if len(bad):
            u, v = pairs[bad[0]].tolist()
            raise ValueError(f"edge ({u}, {v}) outside vertex range 0..{vertex_count - 1}")
        u, v = pairs[:, 0], pairs[:, 1]
        offsets, nbrs = _build_csr(vertex_count, np.concatenate([u, v]), np.concatenate([v, u]))
        return cls(vertex_count, offsets, nbrs, labels=labels, label_names=label_names)

    @property
    def edge_count(self):
        return len(self.neighbors) // 2

    def degree(self, v):
        return int(self.row_offsets[v + 1] - self.row_offsets[v])

    def degrees(self):
        return np.diff(self.row_offsets)

    def __repr__(self):
        lbl = ", labeled" if self.labels is not None else ""
        return f"Graph(n={self.vertex_count}, m={self.edge_count}{lbl})"


class OrientedGraph(CSRGraph):
    """Each undirected edge of the source graph stored in one direction only.

    Directions follow a total order on vertices, so the digraph is acyclic.
    `degree(v)` reports the degree in the source graph (needed for degree
    filtering and per-edge counting formulas); `out_degree(v)` is the number
    of stored out-neighbors.
    """

    def __init__(self, vertex_count, row_offsets, neighbors, source_degrees, labels=None,
                 label_names=None):
        super().__init__(vertex_count, row_offsets, neighbors, labels, label_names)
        self.source_degrees = np.asarray(source_degrees, dtype=np.int64)

    @property
    def edge_count(self):
        return len(self.neighbors)

    def degree(self, v):
        return int(self.source_degrees[v])

    def out_degree(self, v):
        return int(self.row_offsets[v + 1] - self.row_offsets[v])

    def __repr__(self):
        return f"OrientedGraph(n={self.vertex_count}, m={self.edge_count})"


def _build_csr(n, src, dst):
    """CSR row offsets and sorted neighbors of the distinct directed edges
    (src[i], dst[i])."""
    order = np.lexsort((dst, src))
    src, dst = src[order], dst[order]
    first = np.ones(len(src), dtype=bool)
    first[1:] = (src[1:] != src[:-1]) | (dst[1:] != dst[:-1])
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(src[first], minlength=n), out=offsets[1:])
    return offsets, dst[first]


def gather(starts, counts):
    """`(range index, position)` of every element of the concatenated ranges
    `[starts[i], starts[i] + counts[i])`, range by range, in order."""
    ranges = np.repeat(np.arange(len(counts)), counts)
    first = np.cumsum(counts) - counts
    return ranges, np.arange(len(ranges)) + np.repeat(starts - first, counts)


def has_edge(g, u, v):
    """True iff v is a neighbor of u; binary search over the sorted list."""
    if u == v:
        return False
    lo = int(g.row_offsets[u])
    hi = int(g.row_offsets[u + 1])
    i = lo + int(np.searchsorted(g.neighbors[lo:hi], v))
    return i < hi and int(g.neighbors[i]) == v


def load_edge_list(path, labels_path=None):
    """Read a graph from text: one "u v" pair per line, '#' starts a comment.

    The loader normalizes rather than rejects: self-loops are dropped,
    duplicate and reversed edges merged, neighbor lists sorted. Vertex count
    is max id + 1; a count whose arrays cannot be allocated raises
    MemoryError naming it. An optional label file has one "id label" line
    per vertex and must cover every vertex; label tokens are mapped to dense
    integers. A file that `_tokens` and `_digits` accept is parsed in numpy,
    any other by the line loop, which names the first bad line.
    """
    with open(path, "rb") as f:
        ids = _digits(_tokens(f.read()))
    if ids is None:
        edges, n = _edge_lines(path)
    else:
        edges, n = ids.reshape(-1, 2), int(ids.max(initial=-1)) + 1
    too_big = MemoryError(f"{path}: {n} vertices (largest id + 1) do not fit in memory")
    # numpy's size limit for the n + 1 int64 row offsets
    if n >= np.iinfo(np.int64).max // 8:
        raise too_big

    labels = label_names = None
    if labels_path is not None:
        labels, label_names = _load_labels(labels_path, n)
    try:
        return Graph.from_edges(n, edges, labels=labels, label_names=label_names)
    except MemoryError:
        raise too_big from None


# bytes that send a file to the line loop: '#' starts a comment, and
# str.split() splits on the others where bytes.split() does not
_REFUSED = b"#\x0b\x0c\x1c\x1d\x1e\x1f"


def _tokens(data):
    """`(data, starts, ends)`, the byte bounds of the tokens of an ASCII text
    whose every line holds two blank-separated tokens or none, its "\r\n" and
    "\r" line breaks made "\n" as text mode reads them; None for other text."""
    if b"\r" in data:
        data = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    if not data.isascii() or len(data.translate(None, _REFUSED)) < len(data):
        return None
    b = np.frombuffer(data, dtype=np.uint8)
    step = np.diff(((b != 32) & (b != 9) & (b != 10)).view(np.int8), prepend=0, append=0)
    starts, ends = np.flatnonzero(step == 1), np.flatnonzero(step == -1)
    line = np.searchsorted(np.flatnonzero(b == 10), starts)
    # tokens 2i and 2i + 1 share a line, and token 2i + 2 starts a later one
    if len(line) % 2 or np.any(line[0::2] != line[1::2]) or np.any(line[2::2] == line[1:-1:2]):
        return None
    return data, starts, ends


def _digits(found, pick=slice(None)):
    """The tokens `_tokens` found (those `pick` selects) as an int64 array;
    None if `found` is None or a token is not 1 to 18 ASCII digits."""
    if found is None:
        return None
    data, starts, ends = found[0], found[1][pick], found[2][pick]
    lengths = ends - starts
    if lengths.max(initial=0) > 18:
        return None
    token, at = gather(starts, lengths)
    digit = np.frombuffer(data, dtype=np.uint8)[at] - 48
    if np.any(digit > 9):
        return None
    return np.add.reduceat(digit * 10 ** (ends[token] - at - 1), np.cumsum(lengths) - lengths)


def split_lines(path):
    """`(line number, line, tokens)` of each line of a text file that holds a
    token before any '#' comment; the line loop of every loader."""
    with open(path, "r", encoding="utf-8") as f:
        try:
            for lineno, raw in enumerate(f, start=1):
                parts = raw.split("#", 1)[0].split()
                if parts:
                    yield lineno, raw, parts
        except UnicodeDecodeError as exc:
            raise GraphParseError(f"{path}: not UTF-8 text ({exc.reason})") from None


def _edge_lines(path):
    """`(pairs, vertex count)` of an edge-list file, or GraphParseError
    naming its first bad line."""
    edges = []
    max_id = -1
    for lineno, raw, parts in split_lines(path):
        if len(parts) != 2:
            raise GraphParseError(f"{path}:{lineno}: expected 'u v', got {raw.strip()!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise GraphParseError(f"{path}:{lineno}: non-integer vertex id in {raw.strip()!r}")
        if u < 0 or v < 0:
            raise GraphParseError(f"{path}:{lineno}: negative vertex id")
        max_id = max(max_id, u, v)
        edges.append((u, v))
    return edges, max_id + 1


def _load_labels(path, vertex_count):
    """Dense label ids of a label file and the token each stands for; in
    numpy when its ids are digits naming each vertex once, else by the line
    loop."""
    with open(path, "rb") as f:
        found = _tokens(f.read())
    ids = _digits(found, slice(0, None, 2))
    if ids is not None and len(ids) == vertex_count:
        order = np.argsort(ids)
        if np.array_equal(ids[order], np.arange(vertex_count)):
            tokens = found[0].decode("ascii").split()[1::2]
            ids, names = label_ids([tokens[i] for i in order.tolist()])
            return np.array(ids, dtype=np.int64), names
    return _label_lines(path, vertex_count)


def _label_lines(path, vertex_count):
    """The line loop of `_load_labels`, which names the first bad line."""
    raw_labels = {}
    for lineno, raw, parts in split_lines(path):
        if len(parts) != 2:
            raise GraphParseError(f"{path}:{lineno}: expected 'id label', got {raw.strip()!r}")
        try:
            v = int(parts[0])
        except ValueError:
            raise GraphParseError(f"{path}:{lineno}: non-integer vertex id")
        if v < 0 or v >= vertex_count:
            raise GraphParseError(
                f"{path}:{lineno}: vertex id {v} outside graph range 0..{vertex_count - 1}")
        if v in raw_labels:
            raise GraphParseError(f"{path}:{lineno}: duplicate label for vertex {v}")
        raw_labels[v] = parts[1]
    # ids in the file are distinct and in range, so the count tells
    if len(raw_labels) < vertex_count:
        raise GraphParseError(f"{path}: missing labels for vertices "
                              f"{missing_ids(raw_labels, vertex_count)}")
    ids, names = label_ids([raw_labels[v] for v in range(vertex_count)])
    return np.array(ids, dtype=np.int64), names


def missing_ids(present, count):
    """The first five ids of 0..count-1 not in `present`, "..." if more."""
    missing = list(islice((v for v in range(count) if v not in present), 6))
    return f"{missing[:5]}" + ("..." if len(missing) > 5 else "")


def label_ids(tokens, names=None):
    """Dense integer ids for label tokens, and the token each id stands for.

    Without `names` the distinct tokens are numbered in numeric order when
    all parse as integers, else in string order. With `names` (a graph's
    `label_names`) each token takes its index there, so a pattern's labels
    share the graph's numbering; a token not in `names` raises
    GraphParseError.
    """
    if names is None:
        try:
            names = sorted(set(tokens), key=int)
        except ValueError:
            names = sorted(set(tokens))
    index = {t: i for i, t in enumerate(names)}
    unknown = [t for t in tokens if t not in index]
    if unknown:
        raise GraphParseError(f"label {unknown[0]!r} does not occur in the graph's labels")
    return [index[t] for t in tokens], tuple(names)


def validate_graph(g):
    """Full scan of the CSR invariants; raises ValueError on violation."""
    n = g.vertex_count
    if len(g.row_offsets) != n + 1 or g.row_offsets[0] != 0:
        raise ValueError("bad row_offsets shape")
    if np.any(np.diff(g.row_offsets) < 0):
        raise ValueError("row_offsets not monotone")
    if int(g.row_offsets[-1]) != len(g.neighbors):
        raise ValueError("row_offsets do not cover neighbors")
    if n and len(g.neighbors) and (g.neighbors.min() < 0 or g.neighbors.max() >= n):
        raise ValueError("neighbor id out of range")
    for v in range(n):
        nbrs = g.neighbors_of(v)
        if len(nbrs) == 0:
            continue
        if np.any(np.diff(nbrs) <= 0):
            raise ValueError(f"neighbor list of {v} not strictly ascending")
        if np.any(nbrs == v):
            raise ValueError(f"self loop at {v}")
        for u in nbrs:
            if not has_edge(g, int(u), v):
                raise ValueError(f"edge ({v}, {u}) not symmetric")
    if g.labels is not None and len(g.labels) != n:
        raise ValueError("label array length mismatch")
    return True


def core_numbers(g):
    """k-core number of each vertex via the standard linear-time peeling."""
    n = g.vertex_count
    if n == 0:
        return np.zeros(0, dtype=np.int64)
    adj = g.adjacency()
    deg = [len(a) for a in adj]
    md = max(deg)
    # bucket sort vertices by degree
    bin_count = [0] * (md + 1)
    for d in deg:
        bin_count[d] += 1
    start = [0] * (md + 1)
    s = 0
    for d in range(md + 1):
        start[d] = s
        s += bin_count[d]
    pos = [0] * n
    vert = [0] * n
    nxt = start.copy()
    for v in range(n):
        pos[v] = nxt[deg[v]]
        vert[pos[v]] = v
        nxt[deg[v]] += 1
    for i in range(n):
        v = vert[i]
        for u in adj[v]:
            if deg[u] > deg[v]:
                du = deg[u]
                pu = pos[u]
                pw = start[du]
                w = vert[pw]
                if u != w:
                    vert[pu], vert[pw] = w, u
                    pos[u], pos[w] = pw, pu
                start[du] += 1
                deg[u] -= 1
    return np.array(deg, dtype=np.int64)


def orient(g, strategy="degree"):
    """Direct each edge along a total vertex order, producing an acyclic graph.

    Each edge points to the larger id (id strategy), the higher degree, ties
    by id (degree), or the higher core number, ties by degree then id (core).
    """
    n = g.vertex_count
    deg = g.degrees()
    ids = np.arange(n, dtype=np.int64)
    if strategy == "id":
        order = ids
    elif strategy == "degree":
        order = np.lexsort((ids, deg))
    elif strategy == "core":
        order = np.lexsort((ids, deg, core_numbers(g)))
    else:
        raise ValueError(f"unknown orientation strategy {strategy!r}")
    rank = np.empty(n, dtype=np.int64)
    rank[order] = ids

    src, dst = g.sources(), g.neighbors
    keep = rank[src] < rank[dst]
    offsets, nbrs = _build_csr(n, src[keep], dst[keep])
    return OrientedGraph(n, offsets, nbrs, deg, labels=g.labels, label_names=g.label_names)

