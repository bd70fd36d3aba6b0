"""Frequent subgraph mining on a single labeled graph.

Depth-first walk over the sub-pattern tree: seeds are single-edge label
pairs, children extend a pattern by one edge along the rightmost path, and
only extensions whose DFS code is minimal survive (each pattern is therefore
reached from exactly one seed). Embeddings of a pattern are gathered into
its node during extension, except at the last level, whose children are
counted from their parent's rows and built only when read; support is the
minimum image count over pattern positions (domain support, `mni`), which is
anti-monotone and drives subtree pruning. A spec's `get_support(node)` hook
replaces `mni`: it sees each node once, with all of its rows. The walk lives
in `mine_spec` alone (seeds in order, one thread); `mine_fsm` is a preset
that builds a spec and runs it, and ignores its `workers` argument.

A node holds its embeddings as one `(E, positions)` int64 array, one row per
vertex assignment (structure-of-arrays embedding lists, as in Pangolin).
Every position's label is fixed by the code, so a child's code edge depends
only on the extended position and the new vertex's label: extension works
one rightmost-path position at a time over all rows at once (backward edges
are looked up in the graph's edge-key index, forward edges gathered from its
CSR ranges), and domain support is a distinct count per column: `_distinct`
scatters row indices into a table indexed by vertex id and counts the rows
that read their own index back, for `mni` and the last level alike. Automorphic
duplicates (two rows covering the same edge set) are kept: domains are sets,
so duplicates cannot inflate the support, and dropping them would shrink the
domains. At the last level, with the default support and no edge filter,
each child's distinct count per column is taken straight from the parent's
rows and its extension bin, so its own array is never built (Peregrine
computes MNI domains while matching in the same way).
"""
from __future__ import annotations

from contextlib import closing
from dataclasses import dataclass
from functools import partial

import numpy as np

from .dfscode import (MAX_CODE_EDGES, _code_labels, backward_targets, code_vertex_count,
                      is_min_extension, rightmost_path)
from .graph import gather

DEFAULT_MEMORY_CAP = 4 * 2 ** 30
# charged per node on top of its embedding array: the node, the array
# header and the code tuple
NODE_OVERHEAD_BYTES = 256


class FsmMemoryError(MemoryError):
    """Embedding arrays exceeded the configured memory cap."""


@dataclass
class FsmEmbedding:
    """One realization of a DFS code: graph vertex per pattern position."""

    vertices: tuple
    code: tuple


class PatternNode:
    """A sub-pattern-tree node: DFS code plus its gathered embedding array.

    `emb` is an `(E, positions)` int64 array, one row per embedding, and
    `n_emb` is E. A last-level node made by `counted` already knows its
    support and E, and builds `emb` on first read.
    """

    __slots__ = ("code", "n_emb", "_emb", "_build", "_support")

    def __init__(self, code, embeddings):
        self.code = code
        self._emb = np.asarray(embeddings, dtype=np.int64).reshape(
            -1, code_vertex_count(code))
        self.n_emb = len(self._emb)
        self._build = None
        self._support = None

    @classmethod
    def counted(cls, code, n_emb, support, build):
        """A node whose rows `build()` makes when `emb` is first read."""
        node = cls.__new__(cls)
        node.code, node.n_emb, node._support = code, n_emb, support
        node._emb, node._build = None, build
        return node

    @property
    def emb(self):
        if self._emb is None:
            self._emb, self._build = self._build(), None
        return self._emb

    @property
    def edge_count(self):
        return len(self.code)

    @property
    def support(self):
        if self._support is None:
            self._support = mni(self)
        return self._support

    def __repr__(self):
        return f"PatternNode(code={self.code}, n_emb={self.n_emb})"


def mni(node):
    """Minimum image support: the fewest distinct vertices in any position,
    each column counted by `_distinct`."""
    emb = node.emb
    table = np.empty(int(emb.max(initial=-1)) + 1, dtype=np.int64)
    index = np.arange(len(emb))
    return min(_distinct(col, table, index) for col in emb.T)


class _MemoryBudget:
    def __init__(self, cap):
        self.cap = cap
        self.used = 0

    def add(self, nbytes):
        self.used += nbytes
        if self.used > self.cap:
            raise FsmMemoryError(f"embedding arrays exceed the {self.cap} byte cap")

    def sub(self, nbytes):
        self.used -= nbytes


def _node_bytes(node):
    built = 0 if node._emb is None else node._emb.nbytes
    return built + NODE_OVERHEAD_BYTES


def _stable_order(values):
    """Stable argsort of non-negative values; narrowed to 16 bits where they
    fit, so that numpy sorts them as a radix sort."""
    if values.max(initial=0) < 2 ** 16:
        values = values.astype(np.uint16)
    return np.argsort(values, kind="stable")


def _runs(sorted_keys):
    """(start, end) of each run of equal values in a sorted 1-D array."""
    if not len(sorted_keys):
        return []
    cut = (np.flatnonzero(sorted_keys[1:] != sorted_keys[:-1]) + 1).tolist()
    return list(zip([0] + cut, cut + [len(sorted_keys)]))


def _seed_nodes(g):
    """Frequent-candidate seeds: one node per ordered label pair (a <= b)."""
    src, dst = g.sources(), g.neighbors
    lu, lv = g.labels[src], g.labels[dst]
    keep = lu <= lv
    src, dst, lu, lv = src[keep], dst[keep], lu[keep], lv[keep]
    key = lu * (int(lv.max(initial=0)) + 1) + lv
    # stable, so each bin keeps CSR order: source, then neighbour
    order = _stable_order(key)
    pairs = np.stack([src[order], dst[order]], axis=1)
    return [PatternNode(((0, 1, int(lu[order[a]]), int(lv[order[a]])),), pairs[a:b])
            for a, b in _runs(key[order])]


def _allowed(edge_filter, node, rows, a, b):
    """`edge_filter`'s verdict on each candidate edge (a[i], b[i]) of a row."""
    parents = node.emb[rows].tolist()
    return np.array([edge_filter(FsmEmbedding(tuple(verts), node.code),
                                 (x, y) if x < y else (y, x))
                     for verts, x, y in zip(parents, a.tolist(), b.tolist())],
                    dtype=bool)


def _bins(node, g, budget, edge_filter=None, only=None):
    """Yield `(key, rows, w)` for each non-empty one-edge extension bin whose
    extended code is minimal.

    `key` is the child's code edge. The child's rows are `node.emb[rows]`,
    with `w` appended as a last column for a forward edge (`w` is None for a
    backward one). Bins come backward edges first, then forward edges by
    rightmost-path position and new vertex label, each bin's rows in parent
    order and then neighbour order; minimality is checked per non-empty bin,
    in that order. With `only=(i, j)`, only the bins of code edges from
    position i to position j are made. `budget` is charged each forward
    gather's working arrays while its bins are yielded.
    """
    code, emb = node.code, node.emb
    rmp = rightmost_path(code)
    r = rmp[0]
    nv = emb.shape[1]
    lab = _code_labels(code)

    # backward edges: v_r to each rightmost-path position it may still close to
    vr = emb[:, r]
    for p in backward_targets(code, rmp):
        if only not in (None, (r, p)):
            continue
        vp = emb[:, p]
        rows = np.flatnonzero(g.has_edges(vr, vp))
        if edge_filter is not None:
            rows = rows[_allowed(edge_filter, node, rows, vr[rows], vp[rows])]
        key = (r, p, lab[r], lab[p])
        if len(rows) and is_min_extension(code + (key,)):
            yield key, rows, None

    # forward edges: every neighbour w of v_p outside the row's image
    offs = g.row_offsets
    for p in rmp:
        if only not in (None, (p, nv)):
            continue
        vp = emb[:, p]
        counts = offs[vp + 1] - offs[vp]
        # rows, at, w, keep and the column compares, charged as nv + 4 words
        # a candidate
        work = int(counts.sum()) * (nv + 4) * 8
        budget.add(work)
        try:
            rows, at = gather(offs[vp], counts)
            w = g.neighbors[at]
            # w neighbours v_p, so only the row's other positions can hold it
            others = [c for c in range(nv) if c != p]
            keep = emb[:, others[0]][rows] != w
            for c in others[1:]:
                keep &= emb[:, c][rows] != w
            if edge_filter is not None:
                keep[keep] = _allowed(edge_filter, node, rows[keep], vp[rows[keep]], w[keep])
            sel = np.flatnonzero(keep)
            wl = g.labels[w[sel]]
            # only the candidates of minimal bins are sorted into their bins
            minimal = np.bincount(wl) > 0
            for l in np.flatnonzero(minimal).tolist():
                minimal[l] = is_min_extension(code + ((p, nv, lab[p], l),))
            into = np.flatnonzero(minimal[wl])
            sel, wl = sel[into], wl[into]
            # stable, so each label's rows stay in parent order, then neighbour order
            order = _stable_order(wl)
            sel, wl = sel[order], wl[order]
            rows, w = rows[sel], w[sel]
            for a, b in _runs(wl):
                yield (p, nv, lab[p], int(wl[a])), rows[a:b], w[a:b]
            # free the gather's arrays before their charge is released
            del rows, at, w, keep, sel, wl, into, order
        finally:
            budget.sub(work)


def _child_rows(emb, rows, w, budget):
    """One bin's child array, charged to `budget` before it is built."""
    budget.add(len(rows) * (emb.shape[1] + (w is not None)) * 8)
    if w is None:
        return emb[rows]
    return np.column_stack([emb[:, c][rows] for c in range(emb.shape[1])] + [w])


def rightmost_extensions(node, g, budget=None, edge_filter=None):
    """Children of a node: distinct minimal-code one-edge extensions.

    Each parent embedding contributes its backward edges (rightmost vertex to
    an earlier rightmost-path vertex, edge unused) and forward edges (new
    vertex hanging off any rightmost-path vertex); extensions are binned by
    code edge, rows in parent order and then neighbour order, and a bin is
    built only when its extended code is minimal. `edge_filter(embedding,
    (a, b))` can veto individual graph edges before they are binned.
    `budget` is charged each bin as it is built, and each forward gather's
    working arrays while they live.
    """
    if budget is None:
        budget = _MemoryBudget(float("inf"))
    bins = {key: _child_rows(node.emb, rows, w, budget)
            for key, rows, w in _bins(node, g, budget, edge_filter)}
    children = []
    for key in sorted(bins):
        budget.add(NODE_OVERHEAD_BYTES)
        children.append(PatternNode(node.code + (key,), bins[key]))
    return children


def _distinct(values, table, index):
    """Number of distinct vertex ids in `values`: each value's index is
    scattered into its slot of `table`, and one index per slot reads back."""
    table[values] = index
    return int(np.count_nonzero(table[values] == index))


def _rebuild(parent, g, key, budget):
    """A counted child's rows, exactly as `rightmost_extensions` builds them."""
    with closing(_bins(parent, g, budget, only=key[:2])) as bins:
        return next(_child_rows(parent.emb, rows, w, budget)
                    for found, rows, w in bins if found == key)


def _count_leaves(node, g, budget):
    """The children `rightmost_extensions` would return, with their `mni`
    support and row count taken from the parent's rows; a child's array is
    built, and charged, only when its `emb` is read."""
    emb = node.emb
    table = np.empty(g.vertex_count, dtype=np.int64)
    counts = {}
    for key, rows, w in _bins(node, g, budget):
        index = np.arange(len(rows))
        columns = [emb[:, c][rows] for c in range(emb.shape[1])]
        if w is not None:
            columns.append(w)
        counts[key] = (len(rows), min(_distinct(col, table, index) for col in columns))
    children = []
    for key in sorted(counts):
        budget.add(NODE_OVERHEAD_BYTES)
        children.append(PatternNode.counted(node.code + (key,), *counts[key],
                                            partial(_rebuild, node, g, key, budget)))
    return children


def mine_fsm(g, k_edges, min_sup, *, workers=1, prune=True,
             memory_cap=DEFAULT_MEMORY_CAP):
    """Patterns with at most k_edges edges whose domain support is >= min_sup.

    The threshold comparison is inclusive (support >= min_sup). `prune=False`
    disables anti-monotone subtree pruning (the full tree up to k_edges is
    enumerated and filtered afterwards); the result is identical and the flag
    exists for validation. `k_edges` is at most `dfscode.MAX_CODE_EDGES`, the
    longest code the minimality check handles; `k_edges=None` means that
    bound. `memory_cap`, at least 1, caps the bytes of the live embedding
    arrays: every single-edge seed's from the start, and each other
    pattern's from when it is built, until its subtree is walked; plus each
    extension's gather.
    """
    from .engine import ProblemSpec  # here, so that `import gpm.cli` loads no engine
    if min_sup < 1:
        raise ValueError("min_sup must be >= 1")
    if k_edges is None:
        k_edges = MAX_CODE_EDGES
    if k_edges < 1:
        raise ValueError("k_edges must be >= 1")
    spec = ProblemSpec(vertex_induced=False, explicit=False, k=k_edges,
                       is_implicit_pattern=lambda node: node.support >= min_sup,
                       support_anti_monotonic=prune)
    return mine_spec(g, spec, memory_cap)[0]


def mine_spec(g, spec, memory_cap=DEFAULT_MEMORY_CAP):
    """fsm's one driver: walk the sub-pattern tree of an edge-induced implicit
    spec; returns ({code: support}, embeddings considered).

    `spec.is_implicit_pattern` (given a PatternNode) selects the patterns of
    interest; with `spec.support_anti_monotonic` the same test prunes
    subtrees. `spec.get_support(node)` replaces `mni` as the support of a
    node, called once per node with its `code` and `(E, positions)` `emb`
    rows. `to_add_edge` vetoes extension edges. Without either hook, the last
    level's nodes are counted from their parents' rows, and a node's `emb` is
    built only if `is_implicit_pattern` reads it. Hooks the walk never calls,
    `reduce` among them, are refused. Seeds are charged before the walk, and
    a node's charge is released after its subtree.
    """
    for hook in ("reduce", "process", "process_rows", "terminate", "to_add", "to_extend",
                 "get_pattern", "local_reduce", "init_local", "update_local"):
        if getattr(spec, hook) is not None:
            raise ValueError(f"a {hook} hook would never be called: "
                             "fsm walks pattern nodes, one support each")
    if g.labels is None:
        raise ValueError("frequent subgraph mining requires a labeled graph")
    k = spec.k
    # the DFS-code minimality check refuses longer codes; fail before mining
    if k > MAX_CODE_EDGES:
        raise ValueError(f"fsm supports at most {MAX_CODE_EDGES} pattern edges, got k = {k}")
    if memory_cap < 1:
        raise ValueError(f"the memory cap must be at least 1 byte, got {memory_cap}")
    budget = _MemoryBudget(memory_cap)
    accept_hook, edge_filter = spec.is_implicit_pattern, spec.to_add_edge
    # looked up per run, so that a wrapped `mni` is the one called
    support = spec.get_support or mni
    count_leaves = spec.get_support is None and edge_filter is None
    results = {}

    def walk(nodes):
        """Walk the charged `nodes` and their subtrees in order, popping each
        so that its array is freed with its charge; returns their embeddings."""
        considered = 0
        nodes.reverse()
        while nodes:
            node = nodes.pop()
            try:
                considered += node.n_emb
                if node._support is None:
                    node._support = support(node)
                accepted = accept_hook is None or bool(accept_hook(node))
                if accepted:
                    results[node.code] = node.support
                if (accepted or not spec.support_anti_monotonic) and node.edge_count < k:
                    if count_leaves and node.edge_count + 1 == k:
                        children = _count_leaves(node, g, budget)
                    else:
                        children = rightmost_extensions(node, g, budget, edge_filter)
                    considered += walk(children)
            finally:
                budget.sub(_node_bytes(node))
        return considered

    seeds = _seed_nodes(g)
    budget.add(sum(_node_bytes(seed) for seed in seeds))
    return results, walk(seeds)
