"""Depth-first subgraph mining engine.

The walk runs on one thread, one root vertex after another in id order.
A plan object is the whole state of its run: the embedding stack, the
connectivity map, the partial pattern map and the counters.
The `workers` argument is validated and echoed in the result but does not
start threads: the walk is pure Python, so threads only contend for the GIL.

Problem analysis picks one of a few execution plans. Each plan only filters
the candidates for the next embedding position; all of them share one
descend step (`_PlanBase._descend`) that pushes an accepted candidate, runs
`local_reduce`, then finalizes the embedding at size k or updates the
connectivity map and extends again, and pops.

* match: matching-order guided search for one explicit pattern with
  per-position adjacency / non-adjacency constraints and symmetry-breaking
  id orders;
* clique: the match pipeline on the graph oriented by degree, core or
  (orientation "none") vertex id, each position anchored on the last and
  adjacent to all earlier ones; the orientation replaces the id orders and
  the test that a candidate is not already embedded;
* local: the clique walk over a user-maintained shrinking local graph
  (see `localgraph`), reading only its `candidates(level)`;
* generic: pattern-oblivious vertex extension for implicit-pattern problems,
  deduplicated by a canonical-sequence filter (exactly one accepted DFS
  sequence per connected vertex set), stated once in `_floors`; the array
  route applies the same rule as a vector mask.

Without per-embedding hooks every plan takes the array route instead:
`arrayroute` extends whole slices of numpy embedding rows per level (the
local plan's rows are a root and a uint64 bitset of its local graph),
reports the walk's counters and hands finished rows to `process_rows` in
walk order. `_plans` alone picks the route, recognising the built-in
local graph by identity, and its docstring lists every reason a plan walks;
`extend()` always walks. `MiningResult.plans` names each route, e.g.
"clique:array".

Edge-induced implicit problems (frequent subgraph mining) traverse the
sub-pattern tree instead; see `fsm`.
"""
from __future__ import annotations

import operator
import os
import time
from bisect import bisect_left
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from . import arrayroute
from .embedding import ConnectivityMap, Embedding
from .graph import OrientedGraph, orient
from .patterns import Pattern, canonical_code, is_clique, matching_order


# hooks that need one embedding object per candidate: any of them, when set,
# keeps a problem on the walk
_WALK_HOOKS = ("process", "terminate", "get_support", "reduce", "to_add", "to_extend",
               "get_pattern", "local_reduce")

ORIENTATIONS = {"auto": "degree", "degree": "degree", "core": "core", "none": "id", "id": "id"}


class HookMisuseError(RuntimeError):
    """A low-level hook violated an engine invariant (debug mode only)."""


class _StopMining(Exception):
    """Internal control flow for early termination."""


@dataclass
class ProblemSpec:
    """Declarative description of one mining run plus optional hooks.

    Flags: `vertex_induced` picks vertex or edge extension; `explicit` means
    `patterns` enumerates the targets, otherwise `is_implicit_pattern`
    (default: accept all) selects patterns on the fly. `k` is the maximum
    embedding size: vertices when vertex-induced, edges when edge-induced.
    The vertex walk calls `process(emb)` on each embedding it counts, then
    `terminate(emb)`, which can end the run. `process_rows(rows)` receives
    the counted embeddings as `(R, k)` int64 arrays in walk order (roots,
    then each position's candidates, ascending). It keeps the match and
    clique plans on the array route, one slice per call; the walk (generic
    problems with it) hands over up to `arrayroute.ROW_BUDGET` rows per
    call.

    Support: the walk combines `get_support(emb)` (default 1) by `reduce`
    (default +); fsm calls `get_support(node)` once per pattern node and
    refuses `reduce`. The low-level hooks mirror the extension pipeline:
    `to_extend(emb, pos)` selects which embedding positions spawn
    candidates, `to_add(emb, u)` / `to_add_edge(emb, e)` veto extensions,
    `get_pattern(emb)` overrides pattern classification,
    `local_reduce(emb, depth, acc)` streams per-vertex or per-edge counts,
    `init_local(g, root)` builds a local graph and `update_local(lg, level,
    v)` its level+1, keeping levels 0..level; nothing is popped.
    """

    vertex_induced: bool
    k: int
    explicit: bool = True
    patterns: tuple = None
    is_implicit_pattern: callable = None
    process: callable = None
    process_rows: callable = None
    terminate: callable = None
    support_anti_monotonic: bool = True
    get_support: callable = None
    reduce: callable = None
    to_extend: callable = None
    to_add: callable = None
    to_add_edge: callable = None
    get_pattern: callable = None
    local_reduce: callable = None
    init_local: callable = None
    update_local: callable = None

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if self.explicit:
            if not self.patterns:
                raise ValueError("explicit problems need a nonempty pattern list")
            self.patterns = tuple(self.patterns)

    def reducer(self):
        return self.reduce if self.reduce is not None else operator.add


@dataclass
class MiningResult:
    """Reduced supports plus search-space accounting.

    `enumerated` counts extension candidates the walk materialized (the
    search-space measure; unaffected by memoization), `accepted` counts the
    ones that survived every filter including `to_add`. `workers` echoes the
    requested worker count; the walk always runs on one thread. `plans`
    names what ran, one "plan:route" entry per plan (for example
    "generic:array" or "match:walk"), or "fsm".
    """

    pattern_map: dict
    enumerated: int = 0
    accepted: int = 0
    terminated: bool = False
    wall_ms: float = 0.0
    workers: int = 1
    plans: tuple = ()


def _code(adj, verts, u):
    """The adjacency code of u to the embedding `verts`: bit i is set iff
    u is in the sorted neighbour list `adj[verts[i]]`."""
    code = 0
    for i, v in enumerate(verts):
        lst = adj[v]
        j = bisect_left(lst, u)
        if j < len(lst) and lst[j] == u:
            code |= 1 << i
    return code


class _PlanBase:
    """A run's context and state, and the descend step every walk takes.

    A plan supplies `_extend(depth)`, which filters the candidates for
    embedding position `depth` and hands each accepted one to `_descend`.
    Both routes count into the plan's `map`, `considered` and `accepted`,
    and the walk's counters reach them even when `terminate` raises. Both
    routes start from `roots()`; `array`, which `_plans` sets, runs
    `run_array(roots)` in place of the walk.
    """

    key = None
    name = None

    def __init__(self, g, spec, opts):
        self.g = g
        self.spec = spec
        self.array = opts.get("array", False)
        self.terminated = False
        self.debug = opts.get("debug", False)
        self.use_mnc = opts.get("use_mnc", False)
        self.use_df = opts.get("use_df", True)
        self._reduce = spec.reducer()
        self._get_support = spec.get_support
        self._process = spec.process
        self._process_rows = spec.process_rows
        self._rows = []
        self._terminate = spec.terminate
        self._local_reduce = spec.local_reduce
        self._dbg_tick = 0
        self.map = {}
        self.considered = self.accepted = 0
        self.lg = None
        # the degree filters read degrees in the source graph
        self.degrees = g.source_degrees if isinstance(g, OrientedGraph) else g.degrees()

    def start_walk(self):
        """Build what only the walk reads: the neighbour lists, the degree
        list, the embedding stack and, with `use_mnc`, its connectivity map."""
        self.adj = self.g.adjacency()
        self.deg = self.degrees.tolist()
        self.emb = Embedding(self.g)
        self.mnc = ConnectivityMap(self.adj) if self.use_mnc else None

    def roots(self):
        """The ascending root vertices; the base plan starts at every vertex."""
        return np.arange(self.g.vertex_count)

    def run_root(self, root):
        self._descend(root, 0, 0)

    def _descend(self, u, code, depth):
        """Push u at position `depth`, then finalize or extend, then pop."""
        if self.debug:
            self._debug_check(u, code, depth)
        emb = self.emb
        # the stack is edited in place: this runs once per accepted candidate
        emb.vertices.append(u)
        emb.codes.append(code)
        emb.members.add(u)
        try:
            if self._local_reduce is not None:
                self._local_reduce(emb, depth, self.map)
            if depth == self.k - 1:
                self._finalize(self.key)
            elif self.mnc is None:
                self._extend(depth + 1)
            else:
                self.mnc.push(u, depth, emb.members)
                try:
                    self._extend(depth + 1)
                finally:
                    self.mnc.pop(depth)
        finally:
            emb.vertices.pop()
            emb.codes.pop()
            emb.members.discard(u)

    def _finalize(self, key):
        emb = self.emb
        m = self.map
        sup = 1 if self._get_support is None else self._get_support(emb)
        if key in m:
            m[key] = self._reduce(m[key], sup)
        else:
            m[key] = sup
        if self._process is not None:
            self._process(emb)
        if self._process_rows is not None:
            self._rows.append(emb.vertices[:])
            if len(self._rows) >= arrayroute.ROW_BUDGET:
                self.flush_rows()
        if self._terminate is not None and self._terminate(emb):
            raise _StopMining

    def flush_rows(self):
        """Hand the rows the walk has buffered to `process_rows` as one batch."""
        if self._rows:
            self._process_rows(np.array(self._rows, dtype=np.int64))
            self._rows.clear()

    def _debug_check(self, u, mask, depth):
        # sampled soundness checks: map bits and codes agree with the graph
        self._dbg_tick += 1
        if self._dbg_tick % 32:
            return
        emb = self.emb
        if len(emb.members) != len(emb.vertices):
            raise HookMisuseError("duplicate vertex admitted into a vertex-induced embedding")
        if mask != _code(self.adj, emb.vertices, u):
            raise HookMisuseError("connectivity map disagrees with the graph")


class _MatchPlan(_PlanBase):
    """Single explicit pattern guided by a matching order.

    Candidates come from one required-adjacent anchor position; the
    connectivity map supplies the full adjacency bit-set, which must match the
    order's required mask on the position's check mask (every earlier position
    when vertex-induced); symmetry-breaking id orders close the pipeline.
    """

    name = "match"
    run_array = arrayroute.count_match
    # candidates that are already embedded are skipped
    distinct = True
    # labeled matching: the graph's labels and each position's pattern label
    g_labels = want_label = None

    def __init__(self, g, spec, opts, pattern, key):
        super().__init__(g, spec, opts)
        self.key = key
        self.k = pattern.vertex_count
        order = matching_order(pattern)
        self.anchors = [min(order.required[i]) if order.required[i] else 0
                        for i in range(self.k)]
        self.req = [sum(1 << j for j in order.required[i]) for i in range(self.k)]
        if spec.vertex_induced:
            self.check_mask = [(1 << i) - 1 for i in range(self.k)]
        else:
            self.check_mask = list(self.req)
        self.smaller = [[a for a, b in order.orders if b == i] for i in range(self.k)]
        seq = order.sequence
        self.df_thresh = [pattern.degree(seq[i]) for i in range(self.k)]
        if pattern.labels is not None:
            self.g_labels = g.labels.tolist()
            self.want_label = [pattern.labels[seq[i]] for i in range(self.k)]

    def roots(self):
        roots = super().roots()
        if self.use_df:
            roots = roots[self.degrees >= self.df_thresh[0]]
        if self.g_labels is not None:
            roots = roots[self.g.labels[roots] == self.want_label[0]]
        return roots

    def _extend(self, depth):
        emb = self.emb
        members = emb.members
        verts = emb.vertices
        bits = self.mnc.bits if self.mnc is not None else None
        adj = self.adj
        to_add = self.spec.to_add
        anchor_v = verts[self.anchors[depth]]
        req = self.req[depth]
        cmask = self.check_mask[depth]
        smaller = self.smaller[depth]
        df_t = self.df_thresh[depth] if self.use_df else 0
        deg = self.deg
        g_labels = self.g_labels
        want = None if g_labels is None else self.want_label[depth]
        distinct = self.distinct
        considered = accepted = 0
        try:
            for u in adj[anchor_v]:
                if distinct and u in members:
                    continue
                considered += 1
                if df_t and deg[u] < df_t:
                    continue
                if g_labels is not None and g_labels[u] != want:
                    continue
                mask = bits.get(u, 0) if bits is not None else _code(adj, verts, u)
                if mask & cmask != req:
                    continue
                ok = True
                for j in smaller:
                    if verts[j] >= u:
                        ok = False
                        break
                if not ok:
                    continue
                if to_add is not None and not to_add(emb, u):
                    continue
                accepted += 1
                self._descend(u, mask, depth)
        finally:
            self.considered += considered
            self.accepted += accepted


class _CliquePlan(_MatchPlan):
    """Explicit k-clique on an oriented graph: the match pipeline with each
    position anchored on the previous one and adjacent to every earlier one.
    The orientation breaks the symmetry, so there are no id orders, and a
    candidate (an out-neighbour of the last position) is never a member."""

    name = "clique"
    distinct = False

    def __init__(self, g, spec, opts, k, key):
        _PlanBase.__init__(self, g, spec, opts)
        self.k = k
        self.key = key
        self.anchors = list(range(-1, k - 1))
        self.req = self.check_mask = [(1 << i) - 1 for i in range(k)]
        self.smaller = [[]] * k
        self.df_thresh = [k - 1] * k


class _LocalPlan(_CliquePlan):
    """Extension candidates come from a per-root local graph the hooks shrink."""

    name = "local"
    run_array = arrayroute.count_local

    def run_root(self, root):
        self.lg = self.spec.init_local(self.g, root)
        self._descend(root, 0, 0)

    def _extend(self, depth):
        lg = self.lg
        if lg is None:
            return
        spec = self.spec
        emb = self.emb
        level = depth - 1
        if depth >= 2:
            spec.update_local(lg, level - 1, emb.vertices[-1])
        need = (1 << depth) - 1
        for u in lg.candidates(level):
            self.considered += 1
            if self.use_df and self.deg[u] < self.k - 1:
                continue
            if spec.to_add is not None and not spec.to_add(emb, u):
                continue
            self.accepted += 1
            self._descend(u, need, depth)


def _floors(verts):
    """The canonical-sequence filter's one statement: a candidate whose
    lowest adjacent position is i extends the greedy sequence `verts` (start
    at the minimum, then always take the least vertex adjacent to the prefix)
    iff it exceeds floors[i], the larger of the root and every vertex after
    position i. Prefix-closed, so it is safe to prune on."""
    return list(accumulate(reversed(verts[1:]), max, initial=verts[0]))[::-1]


def _is_canonical_extension(verts, codes, u, umask):
    """True iff the walk accepts u, adjacent to the positions set in `umask`,
    after the greedy sequence `verts` (whose `codes` the rule never reads)."""
    return u > _floors(verts)[(umask & -umask).bit_length() - 1]


class _GenericPlan(_PlanBase):
    """Pattern-oblivious vertex extension for implicit-pattern problems.

    Each connected vertex set is reached through exactly one accepted DFS
    sequence: a candidate must exceed its `_floors` entry, which `_extend`
    computes once per prefix and `arrayroute.count_generic`'s level
    vectorises as a mask over its rows. Embeddings at size k are classified
    by the canonical code of their induced subgraph, or by `get_pattern`.
    The array route counts without rows.
    """

    name = "generic"
    run_array = arrayroute.count_generic

    def __init__(self, g, spec, opts):
        super().__init__(g, spec, opts)
        self.k = spec.k
        self.labels = g.labels.tolist() if g.labels is not None else None
        self._key_cache = {}

    def _classify(self, emb):
        if self.spec.get_pattern is not None:
            return self.spec.get_pattern(emb), True
        labels = None
        if self.labels is not None:
            labels = tuple(self.labels[v] for v in emb.vertices)
        return self.pattern_key(tuple(emb.codes[1:]), labels)

    def pattern_key(self, codes, labels=None):
        """`(canonical code, wanted)` of the pattern whose level-l vertex has
        the adjacency bit-set `codes[l - 1]` to levels 0..l-1; cached."""
        cached = self._key_cache.get((codes, labels))
        if cached is None:
            edges = [(b, level) for level, c in enumerate(codes, start=1)
                     for b in range(level) if c >> b & 1]
            p = Pattern(len(codes) + 1, edges, labels=labels)
            wanted = (self.spec.is_implicit_pattern is None
                      or bool(self.spec.is_implicit_pattern(p)))
            cached = (canonical_code(p), wanted)
            self._key_cache[(codes, labels)] = cached
        return cached

    def _finalize(self, key):
        key, wanted = self._classify(self.emb)
        if wanted:
            _PlanBase._finalize(self, key)

    def _extend(self, depth):
        emb = self.emb
        members = emb.members
        verts = emb.vertices
        bits = self.mnc.bits if self.mnc is not None else None
        adj = self.adj
        to_extend = self.spec.to_extend
        to_add = self.spec.to_add
        depth_mask = (1 << depth) - 1
        positions, ext_mask = range(depth), depth_mask
        if to_extend is not None:
            positions = [p for p in positions if to_extend(emb, p)]
            ext_mask = sum(1 << p for p in positions)
        floors = _floors(verts)
        considered = accepted = 0
        try:
            for p in positions:
                vp = verts[p]
                for u in adj[vp]:
                    if u in members:
                        continue
                    mask = bits.get(u, 0) if bits is not None else _code(adj, verts, u)
                    umask = mask & depth_mask
                    pmask = umask & ext_mask
                    if (pmask & -pmask).bit_length() - 1 != p:
                        continue
                    considered += 1
                    if u <= floors[(umask & -umask).bit_length() - 1]:
                        continue
                    if to_add is not None and not to_add(emb, u):
                        continue
                    accepted += 1
                    self._descend(u, umask, depth)
        finally:
            self.considered += considered
            self.accepted += accepted


def _run_plan(plan):
    """Run `plan` from its `roots()`: its array route when `plan.array`,
    else the walk, one root after another. Either counts into the plan.

    Returns `[plan]`, the run's one state; the benchmark tracer sums the
    counters over this list. A `terminate` hook that fires ends the walk and
    sets `plan.terminated`.
    """
    roots = plan.roots()
    if plan.array:
        plan.run_array(roots)
        return [plan]
    plan.start_walk()
    try:
        for root in roots.tolist():
            plan.run_root(root)
    except _StopMining:
        plan.terminated = True
    plan.flush_rows()
    return [plan]


def _resolve_orientation(g, orientation):
    if isinstance(g, OrientedGraph):
        return g
    return orient(g, ORIENTATIONS[orientation])


def _build_explicit_plan(g, pattern, spec, opts, orientation):
    key = canonical_code(pattern)
    # the clique plans are label-blind; labeled cliques take the matching-order
    # route like any other labeled pattern
    if is_clique(pattern) and pattern.labels is None:
        return _CliquePlan(_resolve_orientation(g, orientation), spec, opts,
                           pattern.vertex_count, key)
    if isinstance(g, OrientedGraph):
        raise TypeError("non-clique patterns need the undirected graph")
    return _MatchPlan(g, spec, opts, pattern, key)


def _plans(g, spec, opts, orientation, use_mnc):
    """The plans that run a vertex-induced or explicit `spec`, built one at
    a time: the local-graph plan, one plan per explicit pattern, or the
    generic plan. `use_mnc` None is the per-plan connectivity-map policy.
    Only here is a plan's route set: it walks on a hook in `_WALK_HOOKS`,
    `debug` or an explicit `use_mnc`; a local plan also walks unless its
    local graph is the built-in one (by identity) and no root has more than
    `MAX_LOCAL_MEMBERS` out-neighbours; a generic plan also walks on a
    labeled graph, with `process_rows` or with k past `MAX_GENERIC_K`."""
    if spec.explicit and g.labels is None and any(p.labels is not None for p in spec.patterns):
        raise ValueError("the pattern has vertex labels but the graph has none")
    array = (use_mnc is None and not opts.get("debug")
             and all(getattr(spec, hook) is None for hook in _WALK_HOOKS))
    if spec.init_local is not None:
        if not spec.explicit or len(spec.patterns) != 1 or not is_clique(spec.patterns[0]):
            raise ValueError("local-graph search is wired for single explicit cliques")
        from . import localgraph
        pattern = spec.patterns[0]
        og = _resolve_orientation(g, orientation)
        array = (array and spec.init_local is localgraph.init_local_graph
                 and spec.update_local is localgraph.LocalGraph.shrink
                 and np.diff(og.row_offsets).max(initial=0) <= arrayroute.MAX_LOCAL_MEMBERS)
        yield _LocalPlan(og, spec, dict(opts, use_mnc=False, array=array),
                         pattern.vertex_count, canonical_code(pattern))
    elif spec.explicit:
        for pattern in spec.patterns:
            if use_mnc is None:
                mnc = pattern.vertex_count > 3
            else:
                mnc = use_mnc and pattern.vertex_count > 2
            yield _build_explicit_plan(g, pattern, spec, dict(opts, array=array, use_mnc=mnc),
                                       orientation)
    else:
        if isinstance(g, OrientedGraph):
            raise TypeError("implicit-pattern problems need the undirected graph")
        array = (array and g.labels is None and spec.process_rows is None
                 and spec.k <= arrayroute.MAX_GENERIC_K)
        yield _GenericPlan(g, spec, dict(opts, array=array,
                                         use_mnc=True if use_mnc is None else use_mnc))


def workers_from_env():
    """Worker count from the GPM_THREADS environment variable, else 1."""
    raw = os.environ.get("GPM_THREADS", "1")
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"GPM_THREADS must be an integer, got {raw!r}") from None


def mine(g, spec, *, workers=None, orientation="auto", use_mnc=None, use_df=True,
         debug=False):
    """Run one mining problem to completion and return a `MiningResult`.

    `workers` (default: `GPM_THREADS`, else 1) must be >= 1 and is echoed in
    the result; every run walks its roots on one thread. `orientation` in
    `ORIENTATIONS` controls the acyclic orientation used for clique patterns
    ("none" and "id" orient by vertex id). `use_mnc` toggles the
    neighborhood connectivity map; passing it at all runs the walk (the
    ablation), while None lets hook-free counting take the array route.
    `use_df` toggles degree filtering.
    """
    if workers is None:
        workers = workers_from_env()
    if workers < 1:
        raise ValueError("workers must be >= 1")
    if orientation not in ORIENTATIONS:
        raise ValueError(f"unknown orientation {orientation!r}")
    t0 = time.perf_counter()
    merged = {}
    enumerated = accepted = 0
    terminated = False
    plans = []

    if not spec.vertex_induced and not spec.explicit:
        from .fsm import mine_spec as _fsm_mine_spec
        merged, enumerated = _fsm_mine_spec(g, spec)
        accepted = enumerated
        plans.append("fsm")
    else:
        reduce_fn = spec.reducer()
        opts = {"use_df": use_df, "debug": debug}
        for plan in _plans(g, spec, opts, orientation, use_mnc):
            plans.append(f"{plan.name}:{'array' if plan.array else 'walk'}")
            _run_plan(plan)
            enumerated += plan.considered
            accepted += plan.accepted
            for key, val in plan.map.items():
                merged[key] = reduce_fn(merged[key], val) if key in merged else val
            if plan.terminated:
                terminated = True
                break

    wall = (time.perf_counter() - t0) * 1000.0
    return MiningResult(pattern_map=merged, enumerated=enumerated, accepted=accepted,
                        terminated=terminated, wall_ms=wall, workers=workers,
                        plans=tuple(plans))


def extend(g, spec, vertices, *, orientation="auto", use_df=False):
    """Accepted extension candidates for one partial embedding.

    Builds the plan `mine` would run, pushes `vertices` onto its walk's
    embedding (for the local-graph plan, also building the root's local graph
    and shrinking it for every prefix level below the last) and runs the
    plan's own extension step one level deep, with the descend step
    replaced by a sink that records each candidate. The answer is therefore
    exactly what `mine` would descend into from that prefix (dedup, degree
    filter, symmetry breaking, matching-order constraints, local graph),
    and the `to_extend` / `to_add` hooks apply. Root checks are not
    replayed.
    """
    if spec.explicit and len(spec.patterns) != 1:
        raise ValueError("extend needs a single-pattern spec")
    if not spec.explicit and not spec.vertex_induced:
        raise ValueError("extend supports vertex-induced problems")
    if orientation not in ORIENTATIONS:
        raise ValueError(f"unknown orientation {orientation!r}")
    opts = {"use_df": use_df}
    plan = next(_plans(g, spec, opts, orientation, False))
    plan.start_walk()
    verts = list(vertices)
    for depth, v in enumerate(verts):
        plan.emb.push(v, _code(plan.adj, verts[:depth], v))
    if isinstance(plan, _LocalPlan):
        plan.lg = spec.init_local(plan.g, verts[0])
        if plan.lg is not None:
            for depth in range(2, len(verts)):
                spec.update_local(plan.lg, depth - 2, verts[depth - 1])
    found = []
    plan._descend = lambda u, code, depth: found.append(u)
    plan._extend(len(verts))
    return found
