"""Array route of the engine's generic, match, clique and local plans:
counting and listing without per-embedding hooks.

Instead of walking one candidate at a time, each level extends a slice of
embeddings at once, in the structure-of-arrays form Pangolin keeps its
embedding lists in. Rows are an `(R, d)` int64 array of graph vertices, one
row per embedding. A level gathers the rows' CSR neighbours with
`graph.gather`, tests adjacency with `CSRGraph.has_edges` and applies the
walk's filters as vector masks, each in the walk's counting position, so
what it counts into the plan (`considered`, `accepted`, `map`) equals what
the walk counts there. Each plan's route is one function whose nested
`level` extends one slice and recurses. The match plan, and with it the
clique plan, grows one anchor position's neighbours per level
(`count_match`) and hands each slice of finished rows to `process_rows`:
rows are gathered in row order and candidates ascending, and slices are
extended depth-first, so the rows arrive in the walk's (lexicographic)
order. The generic plan (`count_generic`) extends every position and
materialises nothing at size k: it counts each distinct packed
connectivity code (`np.unique`) and classifies it once.

The local plan keeps kClist's shrinking local graph as bitsets instead
(`count_local`): a row is a root and one uint64 mask over the root's
out-neighbours, and a level shrinks a mask with one AND.

A frontier is cut into slices of at most ROW_BUDGET gathered candidates by
a prefix sum of its rows' degrees, and each slice is extended depth-first,
so memory stays O(k * ROW_BUDGET) whatever the degrees.
"""
from __future__ import annotations

import numpy as np

from .graph import gather

# Candidates one slice of a frontier gathers at once; a row whose own
# candidates are more forms a slice alone.
ROW_BUDGET = 2 ** 14

# the local route keeps a root's out-neighbours as the bits of one uint64;
# a plan with a root of more walks
MAX_LOCAL_MEMBERS = 64

# the generic route packs a row's connectivity codes into one int64, level l
# at bit l(l-1)/2, and k(k-1)/2 <= 62 bits fit
MAX_GENERIC_K = 11


def _slices(cost, budget=None):
    """Consecutive row ranges whose `cost` (candidates gathered per row) sums
    to at most `budget`, else ROW_BUDGET as it is at the call; a row costing
    more is a range of its own."""
    budget = ROW_BUDGET if budget is None else budget
    ends = np.cumsum(cost)
    a, n = 0, len(ends)
    while a < n:
        b = int(np.searchsorted(ends, (ends[a - 1] if a else 0) + budget, side="right"))
        b = max(b, a + 1)
        yield slice(a, b)
        a = b


def count_match(plan, roots):
    """Count (and hand to `process_rows`) the embeddings of a `_MatchPlan`'s
    pattern grown from `roots`, a clique's included.

    Position `depth` extends each row by the CSR neighbours of its position
    `plan.anchors[depth]`, slice by slice and depth-first. A plan that is
    not `distinct` (a clique on an acyclic orientation) skips the test that
    a candidate is not already in the row.
    """
    g, k = plan.g, plan.k
    deg, out = plan.degrees, np.diff(g.row_offsets)
    emit = plan.spec.process_rows
    # every candidate is a neighbour of the anchor; test the other checked positions
    tested = [[i for i in range(d) if plan.check_mask[d] >> i & 1
               and not (i == plan.anchors[d] and plan.req[d] >> i & 1)] for d in range(k)]
    required = [np.array([bool(plan.req[d] >> i & 1) for i in t]) for d, t in enumerate(tested)]

    def level(rows, depth):
        if depth == k:
            if emit is not None:
                emit(rows)
            return len(rows)
        found = 0
        a = plan.anchors[depth]
        for s in _slices(out[rows[:, a]]):
            part = rows[s]
            at_row, at = gather(g.row_offsets[part[:, a]], out[part[:, a]])
            par, u = part[at_row], g.neighbors[at]
            # True keeps every row without building (and indexing by) a mask
            ok = True
            if plan.distinct:
                ok = (par != u[:, None]).all(axis=1)
                plan.considered += int(np.count_nonzero(ok))
            else:
                plan.considered += len(u)
            if plan.use_df and plan.df_thresh[depth]:
                ok &= deg[u] >= plan.df_thresh[depth]
            if plan.g_labels is not None:
                ok &= g.labels[u] == plan.want_label[depth]
            for j in plan.smaller[depth]:
                ok &= par[:, j] < u
            if ok is not True:
                u, par = u[ok], par[ok]
            if tested[depth]:
                fit = (g.has_edges(par[:, tested[depth]], u[:, None]) == required[depth]).all(axis=1)
                u, par = u[fit], par[fit]
            plan.accepted += len(u)
            if len(u):
                found += level(np.column_stack((par, u)), depth + 1)
        return found

    found = level(roots[:, None], 1) if len(roots) else 0
    if found:
        plan.map[plan.key] = found


def count_generic(plan, roots):
    """Count a `_GenericPlan`'s connected induced k-subgraphs grown from
    `roots` by pattern into `plan.map`.

    A level extends `rows` (positions 0..depth-1, packed codes `keys`) by
    position `depth` through the walk's filters, slice by slice; at size k
    it adds each distinct packed code's count to the tally. Rows of size k
    are never built.
    """
    g, k, deg = plan.g, plan.k, plan.degrees
    tally = {}

    def level(rows, keys, depth):
        if depth == k:
            packed, counts = np.unique(keys, return_counts=True)
            for key, count in zip(packed.tolist(), counts.tolist()):
                tally[key] = tally.get(key, 0) + count
            return
        weights = 1 << np.arange(depth)
        shift = depth * (depth - 1) // 2
        for s in _slices(deg[rows].sum(axis=1)):
            part, part_keys = rows[s], keys[s]
            grown_rows, grown_keys = [], []
            for p in range(depth):
                at_row, at = gather(g.row_offsets[part[:, p]], deg[part[:, p]])
                u = g.neighbors[at]
                par = part[at_row]
                keep = (par != u[:, None]).all(axis=1)
                if p:
                    # a candidate counts once, from its lowest adjacent position
                    keep &= ~g.has_edges(par[:, :p], u[:, None]).any(axis=1)
                plan.considered += int(np.count_nonzero(keep))
                # canonical-sequence filter (`engine._floors`): with u's lowest
                # adjacent position at p, u must exceed the root and every vertex after p
                keep &= u > par[:, [0, *range(p + 1, depth)]].max(axis=1)
                at_row, u, par = at_row[keep], u[keep], par[keep]
                plan.accepted += len(u)
                code = (1 << p) + g.has_edges(par[:, p + 1:], u[:, None]) @ weights[p + 1:]
                grown_keys.append(part_keys[at_row] | code << shift)
                if depth + 1 < k:
                    grown_rows.append(np.column_stack((par, u)))
            grown_keys = np.concatenate(grown_keys)
            if len(grown_keys):
                level(np.concatenate(grown_rows) if depth + 1 < k else None, grown_keys,
                      depth + 1)

    level(roots[:, None], np.zeros(len(roots), dtype=np.int64), 1)
    for packed, count in tally.items():
        codes = tuple(packed >> (l * (l - 1) // 2) & ((1 << l) - 1) for l in range(1, k))
        key, wanted = plan.pattern_key(codes)
        if wanted:
            plan.map[key] = plan.map.get(key, 0) + count


def _set_bits(masks):
    """`(row, bit)` of every set bit of the uint64 array `masks`, row by row
    and bits ascending; only the nonzero masks are unpacked."""
    rows = np.flatnonzero(masks)
    flat = np.unpackbits(masks[rows].astype("<u8").view(np.uint8), bitorder="little")
    at, bit = np.divmod(np.flatnonzero(flat), 64)
    return rows[at], bit


def _local_masks(g, min_deg):
    """`(members, passes, adj)` of the oriented graph `g` as uint64 bitsets.

    Member i of root r is r's i-th out-neighbour, bit i. `members[r]` sets
    every member, `passes[r]` those of source degree at least `min_deg`,
    and `adj[e]`, for the CSR entry e = (r, v), the members of r that are
    out-neighbours of v: one bit per oriented triangle (r, v, w), found by
    looking (r, w) up with `find_edges`.
    """
    n, offsets, nbrs = g.vertex_count, g.row_offsets, g.neighbors
    src = g.sources()
    bit = np.left_shift(np.uint64(1), (np.arange(len(nbrs)) - offsets[src]).astype(np.uint64))
    members = np.zeros(n, dtype=np.uint64)
    passes = np.zeros(n, dtype=np.uint64)
    np.bitwise_or.at(members, src, bit)
    ok = g.source_degrees[nbrs] >= min_deg
    np.bitwise_or.at(passes, src[ok], bit[ok])
    adj = np.zeros(len(nbrs), dtype=np.uint64)
    out = np.diff(offsets)
    for s in _slices(out[nbrs]):
        at_e, at = gather(offsets[nbrs[s]], out[nbrs[s]])
        e = at_e + s.start
        pos, hit = g.find_edges(src[e], nbrs[at])
        np.bitwise_or.at(adj, e[hit], bit[pos[hit]])
    return members, passes, adj


def count_local(plan, roots):
    """Count (and hand to `process_rows`) the k-cliques of a `_LocalPlan`
    from `roots` over the built-in local graph on bitsets (`_local_masks`).

    A row at position d >= 1 is a root and the mask of its level-(d-1)
    candidates, as the walk's `LocalGraph` lists them. Every candidate
    counts as considered and those `passes` keeps as accepted; each of
    those, in ascending order, makes a row at position d+1 whose mask is
    the parent's ANDed with its `adj`. Position k-1 counts by popcount, or
    builds the vertex rows for `process_rows`.
    """
    g, k = plan.g, plan.k
    emit = plan.spec.process_rows
    if k == 1:
        found = len(roots)
        if emit is not None and found:
            emit(roots[:, None])
    else:
        members, passes, adj = _local_masks(g, k - 1 if plan.use_df else 0)
        offsets, nbrs = g.row_offsets, g.neighbors

        def level(roots, masks, rows, depth):
            kept = masks & passes[roots]
            took = np.bitwise_count(kept).astype(np.int64)
            plan.considered += int(np.bitwise_count(masks).sum())
            plan.accepted += int(took.sum())
            last = depth == k - 1
            if last and emit is None:
                return int(took.sum())
            found = 0
            for s in _slices(took):
                r, b = _set_bits(kept[s])
                r += s.start
                e = offsets[roots[r]] + b
                grown = None if rows is None else np.column_stack((rows[r], nbrs[e]))
                if last:
                    if len(r):
                        emit(grown)
                    found += len(r)
                    continue
                child = masks[r] & adj[e]
                live = child != 0
                if live.any():
                    found += level(roots[r[live]], child[live],
                                   None if grown is None else grown[live], depth + 1)
            return found

        found = level(roots, members[roots], None if emit is None else roots[:, None], 1)
    if found:
        plan.map[plan.key] = found
