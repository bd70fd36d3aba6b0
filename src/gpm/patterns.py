"""Small-pattern algebra: canonical codes, automorphisms, matching orders with
their symmetry-breaking partial orders, and pattern enumeration.

Canonical codes and automorphisms come from one brute-force scan over vertex
permutations (`_scan`), bounded at 8 vertices; the mining workloads only ever
analyze patterns this small (larger cliques take a fast path that never
touches isomorphism machinery).
"""
from __future__ import annotations

from contextlib import suppress
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, permutations

from .graph import GraphParseError, label_ids, missing_ids, split_lines

BRUTE_FORCE_BOUND = 8


class Pattern:
    """Connected simple graph on local vertex ids 0..k-1, optionally labeled."""

    __slots__ = ("vertex_count", "edges", "labels", "_hash")

    def __init__(self, vertex_count, edges, labels=None):
        self.vertex_count = int(vertex_count)
        es = set()
        for u, v in edges:
            if u == v:
                raise ValueError("pattern has a self loop")
            if not (0 <= u < vertex_count and 0 <= v < vertex_count):
                raise ValueError(f"pattern edge ({u}, {v}) out of range")
            es.add((min(u, v), max(u, v)))
        self.edges = tuple(sorted(es))
        self.labels = None if labels is None else tuple(labels)
        if self.labels is not None and len(self.labels) != vertex_count:
            raise ValueError("label tuple length mismatch")
        # k vertices need k - 1 edges: counted first, so a huge k builds nothing
        if len(self.edges) < self.vertex_count - 1 or not connected(self.adjacency_sets()):
            raise ValueError("pattern must be connected")
        self._hash = hash((self.vertex_count, self.edges, self.labels))

    def adjacency(self):
        return [sorted(a) for a in self.adjacency_sets()]

    def adjacency_sets(self):
        adj = [set() for _ in range(self.vertex_count)]
        for u, v in self.edges:
            adj[u].add(v)
            adj[v].add(u)
        return adj

    def degree(self, v):
        return sum(1 for e in self.edges if v in e)

    def edge_count(self):
        return len(self.edges)

    def __eq__(self, other):
        return (isinstance(other, Pattern)
                and self.vertex_count == other.vertex_count
                and self.edges == other.edges
                and self.labels == other.labels)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        lbl = f", labels={self.labels}" if self.labels else ""
        return f"Pattern(k={self.vertex_count}, edges={list(self.edges)}{lbl})"


def connected(adj):
    """True iff every vertex of the neighbour sets `adj` is reached from
    vertex 0; an empty graph is connected."""
    if not adj:
        return True
    seen, stack = {0}, [0]
    while stack:
        for u in adj[stack.pop()] - seen:
            seen.add(u)
            stack.append(u)
    return len(seen) == len(adj)


# -- common pattern constructors ------------------------------------------------

def wedge():
    return Pattern(3, [(0, 1), (1, 2)])


def triangle():
    return clique(3)


def clique(k):
    return Pattern(k, list(combinations(range(k), 2)))


def cycle(k):
    return Pattern(k, [(i, (i + 1) % k) for i in range(k)])


def path(k):
    return Pattern(k, [(i, i + 1) for i in range(k - 1)])


def star(leaves):
    return Pattern(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def is_clique(p):
    """True iff the pattern has every possible edge."""
    k = p.vertex_count
    return len(p.edges) == k * (k - 1) // 2


def load_pattern(path_, label_names=None):
    """Read a pattern file: "u v" edge lines plus optional "v id label" lines.

    Label tokens resolve through `label_names`, the graph's `label_names`, so
    pattern and graph number labels alike; without it the pattern's own
    tokens are numbered (see `graph.label_ids`).
    """
    edges = set()
    raw_labels = {}
    for lineno, _, parts in split_lines(path_):
        if parts[0] == "v":
            if len(parts) != 3:
                raise GraphParseError(f"{path_}:{lineno}: expected 'v id label'")
            try:
                v = int(parts[1])
            except ValueError:
                raise GraphParseError(f"{path_}:{lineno}: non-integer vertex id")
            if v < 0:
                raise GraphParseError(f"{path_}:{lineno}: negative vertex id {v}")
            if v in raw_labels:
                raise GraphParseError(f"{path_}:{lineno}: duplicate label for vertex {v}")
            raw_labels[v] = parts[2]
            continue
        if len(parts) != 2:
            raise GraphParseError(f"{path_}:{lineno}: expected 'u v' or 'v id label'")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise GraphParseError(f"{path_}:{lineno}: non-integer vertex id")
        if u < 0 or v < 0:
            raise GraphParseError(f"{path_}:{lineno}: negative vertex id")
        if u == v:
            raise GraphParseError(f"{path_}:{lineno}: self loop")
        edges.add((min(u, v), max(u, v)))
    if not edges:
        raise GraphParseError(f"{path_}: pattern has no edges")
    n = max(max(v for _, v in edges), max(raw_labels, default=0)) + 1
    if len(edges) < n - 1:  # refused before any work that grows with n
        raise GraphParseError(f"{path_}: pattern must be connected")
    labels = None
    if raw_labels:
        if len(raw_labels) < n:
            raise GraphParseError(f"{path_}: pattern labels missing for vertices "
                                  f"{missing_ids(raw_labels, n)}")
        labels, _ = label_ids([raw_labels[v] for v in range(n)], label_names)
    try:
        return Pattern(n, edges, labels=labels)
    except ValueError as exc:  # only a disconnected pattern gets here
        raise GraphParseError(f"{path_}: {exc}") from None


# -- canonical form and automorphisms -------------------------------------------

def _edge_bits(k, edge_set, perm):
    """Upper-triangle adjacency bits of the pattern relabeled by perm.

    perm[new_id] = old_id; bit order (0,1), (0,2), ..., (k-2,k-1), MSB first.
    """
    bits = 0
    for a in range(k):
        pa = perm[a]
        for b in range(a + 1, k):
            bits <<= 1
            pb = perm[b]
            if (pa, pb) in edge_set or (pb, pa) in edge_set:
                bits |= 1
    return bits


def _check_bound(k, what):
    if k > BRUTE_FORCE_BOUND:
        raise ValueError(f"pattern too large for brute-force {what} "
                         f"(k={k} > {BRUTE_FORCE_BOUND})")


@lru_cache(maxsize=4096)
def _scan(vertex_count, edges, labels):
    """One pass over every relabeling: the least `(edge bits, labels)` key,
    and the permutations whose key equals the identity's (the label- and
    edge-preserving ones, the automorphisms), in `permutations` order."""
    edge_set = set(edges)
    # every relabeling of a clique has all its edges
    complete = 2 * len(edges) == vertex_count * (vertex_count - 1)
    best = ident = None
    autos = []
    for perm in permutations(range(vertex_count)):
        key = ((1 << len(edges)) - 1 if complete else _edge_bits(vertex_count, edge_set, perm),
               tuple(labels[v] for v in perm) if labels is not None else ())
        if ident is None:  # the first permutation is the identity
            ident = key
        if key == ident:
            autos.append(perm)
        if best is None or key < best:
            best = key
    return best, tuple(autos)


def canonical_code(p):
    """Canonical byte string: equal codes iff isomorphic (labels respected).

    Layout: vertex count, then the minimal upper-triangle adjacency bits
    (big-endian), then the vertex labels when labeled: one byte each when
    every label is below 256, else four big-endian bytes each. The two label
    widths give different lengths for one vertex count, so they cannot
    collide.
    """
    k = p.vertex_count
    if is_clique(p):
        # cliques bypass the permutation search: every relabeling is identical
        bits, lbl = (1 << len(p.edges)) - 1, tuple(sorted(p.labels or ()))
    else:
        _check_bound(k, "canonicalization")
        bits, lbl = _scan(k, p.edges, p.labels)[0]
    nbytes = max(1, (k * (k - 1) // 2 + 7) // 8)
    out = bytes([k]) + bits.to_bytes(nbytes, "big")
    if p.labels is not None:
        width = 1 if all(l < 256 for l in lbl) else 4
        out += b"".join(int(l).to_bytes(width, "big") for l in lbl)
    return out


def automorphisms(p):
    """All vertex permutations mapping the pattern onto itself."""
    _check_bound(p.vertex_count, "automorphisms")
    return _scan(p.vertex_count, p.edges, p.labels)[1]


# -- matching orders and their symmetry-breaking partial orders ------------------

@dataclass(frozen=True)
class MatchingOrder:
    """Vertex visit order plus the per-position constraints the engine checks.

    required[i]: earlier positions that must be adjacent to the vertex matched
    at position i. orders: (i, j) position pairs meaning the graph id matched
    at i is smaller than at j.
    """
    sequence: tuple
    required: tuple
    orders: tuple


def matching_order(p):
    """Choose a matching order greedily: prefer candidates that pick up
    symmetry-breaking constraints early, then those with more edges into the
    prefix; ties fall back to vertex id. All start vertices are tried and the
    best score vector wins, ties to the smallest start. Scores are kept
    negated (constraints and edges) so that the best is the smallest.

    The walk carries the stabilizer chain along the prefix: orbits[j] is the
    orbit of sequence[j] under the automorphisms fixing sequence[:j]. A
    candidate's constraint count is the number of those orbits holding it,
    and every other member of orbits[j] must receive a larger graph id than
    position j. Together these orders admit exactly one matched sequence per
    automorphism class; `orders` keeps their transitive reduction.
    """
    k = p.vertex_count
    adj = p.adjacency_sets()

    def grow(start):
        seq, orbits, score = [], [], []
        group = list(automorphisms(p))
        c = start
        while True:
            seq.append(c)
            orbits.append({perm[c] for perm in group})
            group = [perm for perm in group if perm[c] == c]
            if len(seq) == k:
                return tuple(score), tuple(seq), orbits
            prefix = set(seq)
            key = min((-sum(1 for ob in orbits if c in ob), -len(adj[c] & prefix), c)
                      for c in {u for v in seq for u in adj[v]} - prefix)
            c = key[2]
            score.append(key[:2])

    _, seq, orbits = min(grow(start) for start in range(k))
    pos = {v: i for i, v in enumerate(seq)}
    # the stabilizers nest, so these pairs are transitively closed: a pair is
    # implied by the others exactly when some middle position links its ends
    pairs = {(j, pos[w]) for j, orbit in enumerate(orbits) for w in orbit if w != seq[j]}
    orders = tuple(sorted((a, b) for a, b in pairs
                          if not any((a, c) in pairs and (c, b) in pairs for c in range(a + 1, b))))
    required = tuple(frozenset(j for j in range(i) if seq[j] in adj[v])
                     for i, v in enumerate(seq))
    return MatchingOrder(seq, required, orders)


# -- pattern enumeration ----------------------------------------------------------

def all_patterns(k):
    """All connected unlabeled patterns on k vertices, one per isomorphism class."""
    if not (3 <= k <= 5):
        raise ValueError("all_patterns supports 3 <= k <= 5")
    pairs = list(combinations(range(k), 2))
    seen, found = set(), []
    for mask in range(1 << len(pairs)):
        edges = {e for i, e in enumerate(pairs) if mask >> i & 1}
        if _edge_bits(k, edges, range(k)) not in seen:  # first of its orbit
            seen.update(_edge_bits(k, edges, p) for p in permutations(range(k)))
            with suppress(ValueError):
                found.append(Pattern(k, edges))
    return sorted(found, key=lambda p: (len(p.edges), canonical_code(p)))


# -- motif naming -----------------------------------------------------------------

def named_motifs(k):
    if k == 3:
        return {"wedge": wedge(), "triangle": triangle()}
    if k == 4:
        return {
            "4-path": path(4),
            "3-star": star(3),
            "4-cycle": cycle(4),
            "tailed-triangle": Pattern(4, [(0, 1), (0, 2), (1, 2), (0, 3)]),
            "diamond": Pattern(4, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)]),
            "4-clique": clique(4),
        }
    return {}


@lru_cache(maxsize=None)
def _code_names(k):
    return {canonical_code(p): name for name, p in named_motifs(k).items()}


def motif_name(code):
    """Readable name for a 3- or 4-motif canonical code; hex string otherwise."""
    if isinstance(code, bytes) and len(code) >= 1:
        name = _code_names(code[0]).get(code)
        if name:
            return name
    if isinstance(code, bytes):
        return code.hex()
    return str(code)
