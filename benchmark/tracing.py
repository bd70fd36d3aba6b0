"""Spans around gpm's cross-module calls, recorded from outside the package.

`Tracer.install` replaces the module attributes through which one gpm module
calls into another (for example `gpm.cli.mine` or `gpm.engine.orient`) with
wrappers that record a span per call; `uninstall` puts the originals back.
Spans stay in memory as (id, name, start, end, parent, op, attrs) tuples and
`per_layer_metrics` turns them into self times and counts.
"""
from __future__ import annotations

import functools
import itertools
import sys
import threading
import time
from collections import defaultdict

# (module, attribute) pairs timed as "patterns.analysis". A module attribute
# is the name its caller looks up at call time, so patching it intercepts
# exactly that boundary.
PATTERN_ANALYSIS = (
    ("gpm.cli", "load_pattern"),
    ("gpm.cli", "canonical_code"),
    ("gpm.engine", "matching_order"),
    ("gpm.engine", "canonical_code"),
    ("gpm.apps", "canonical_code"),
    ("gpm.apps", "all_patterns"),
    ("gpm.localcount", "canonical_code"),
)

# the plan objects `gpm.engine._run_plan` runs, by class name
PLAN_CLASSES = {"_GenericPlan": "generic", "_MatchPlan": "match",
                "_TrianglePlan": "triangle", "_CliquePlan": "clique",
                "_LocalPlan": "local"}
ENGINE_PLANS = tuple(PLAN_CLASSES.values())


def plan_span(plan, *args):
    return "engine." + PLAN_CLASSES.get(type(plan).__name__, type(plan).__name__)


def _walk_counts(states):
    return {"enumerated": sum(st.considered for st in states),
            "accepted": sum(st.accepted for st in states)}


def _adjacency_unbuilt(g, *args):
    # adjacency() caches its lists; only the call that builds them is a span
    return getattr(g, "_adj", None) is None


class Tracer:
    """In-memory spans; `with tracer:` wraps gpm for the block's duration."""

    def __init__(self):
        self.spans = []
        self.op = None
        self.missing = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main = []
        self._saved = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, owner, attr, name, *, classify=None, finish=None, when=None):
        orig = getattr(owner, attr, None)
        if orig is None:
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        tracer = self

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            if when is not None and not when(*args):
                return orig(*args, **kwargs)
            stack = tracer._stack()
            # a worker thread's first span hangs off the span that started it
            parent = stack[-1] if stack else (tracer._main[-1] if tracer._main else None)
            sid = next(tracer._ids)
            label = classify(*args, **kwargs) if classify else name
            stack.append(sid)
            result = attrs = None
            start = time.perf_counter()
            try:
                result = orig(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                if finish is not None and result is not None:
                    attrs = finish(result)
                tracer.spans.append((sid, label, start, end, parent, tracer.op, attrs))

        self._saved.append((owner, attr, orig))
        setattr(owner, attr, wrapper)

    def install(self):
        import gpm.apps
        import gpm.cli
        import gpm.engine
        import gpm.fsm
        import gpm.graph
        import gpm.localcount
        import gpm.localgraph

        self._local.stack = self._main
        self.missing = []
        mods = sys.modules
        self.wrap(gpm.cli, "load_edge_list", "graph.load")
        for cls in (gpm.graph.Graph, gpm.graph.OrientedGraph):
            self.wrap(cls, "adjacency", "graph.adjacency", when=_adjacency_unbuilt)
        self.wrap(gpm.engine, "orient", "graph.orient")
        self.wrap(gpm.graph, "core_numbers", "graph.core_numbers")
        for mod, attr in PATTERN_ANALYSIS:
            self.wrap(mods[mod], attr, "patterns.analysis")
        for mod in (gpm.cli, gpm.apps, gpm.localcount):
            self.wrap(mod, "mine", "engine.mine")
        # every plan `mine` builds runs through this one function; the span is
        # named after the plan object, so the engine's own choice labels it
        self.wrap(gpm.engine, "_run_plan", None, classify=plan_span, finish=_walk_counts)
        self.wrap(gpm.localcount, "mc3_local_counts", "localcount.mc3")
        self.wrap(gpm.localcount, "mc4_local_counts", "localcount.mc4")
        self.wrap(gpm.localgraph, "init_local_graph", "localgraph.init")
        self.wrap(gpm.cli, "fsm_mine_spec", "fsm.mine",
                  finish=lambda r: {"embeddings": r[1]})
        self.wrap(gpm.fsm, "rightmost_extensions", "fsm.extend")
        self.wrap(gpm.fsm, "mni", "fsm.support")
        self.wrap(gpm.fsm, "is_min_extension", "dfscode.min_check",
                  finish=lambda ok: {"rejected": 0 if ok else 1})
        return self

    def uninstall(self):
        while self._saved:
            owner, attr, orig = self._saved.pop()
            setattr(owner, attr, orig)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    def to_json(self, origin=None):
        origin = min((s[2] for s in self.spans), default=0.0) if origin is None else origin
        return [{"id": sid, "name": name, "start": start - origin, "end": end - origin,
                 "parent": parent, "op": op, "attrs": attrs}
                for sid, name, start, end, parent, op, attrs in self.spans]


def self_times(spans):
    """Span id -> duration minus the union of its children's intervals."""
    children = defaultdict(list)
    for sid, _, start, end, parent, _, _ in spans:
        if parent is not None:
            children[parent].append((start, end))
    out = {}
    for sid, _, start, end, _, _, _ in spans:
        covered = 0.0
        cur_s = cur_e = None
        for cs, ce in sorted(children.get(sid, ())):
            cs, ce = max(cs, start), min(ce, end)
            if ce <= cs:
                continue
            if cur_e is None or cs > cur_e:
                if cur_e is not None:
                    covered += cur_e - cur_s
                cur_s, cur_e = cs, ce
            else:
                cur_e = max(cur_e, ce)
        if cur_e is not None:
            covered += cur_e - cur_s
        out[sid] = (end - start) - covered
    return out


def per_layer_metrics(spans):
    """Layer self times (s), counts and ratios from one traced pass."""
    self_t = self_times(spans)
    by_name = defaultdict(list)
    for span in spans:
        by_name[span[1]].append(span)

    def self_sum(name):
        return sum(self_t[s[0]] for s in by_name.get(name, ()))

    def attr_sum(name, key):
        return sum((s[6] or {}).get(key, 0) for s in by_name.get(name, ()))

    m = {
        "graph.load_s": self_sum("graph.load"),
        "graph.adjacency_s": self_sum("graph.adjacency"),
        "graph.orient_s": self_sum("graph.orient"),
        "graph.core_numbers_s": self_sum("graph.core_numbers"),
        "patterns.analysis_s": self_sum("patterns.analysis"),
        "localgraph.init_s": self_sum("localgraph.init"),
    }
    for plan in ENGINE_PLANS:
        name = f"engine.{plan}"
        enumerated = attr_sum(name, "enumerated")
        accepted = attr_sum(name, "accepted")
        m[f"{name}_s"] = self_sum(name)
        m[f"{name}.enumerated"] = enumerated
        m[f"{name}.accepted"] = accepted
        m[f"{name}.accept_ratio"] = accepted / enumerated if enumerated else 0.0

    # local counters run their per-edge hooks inside the engine walk, so they
    # are reported inclusive of it; the 4-cycle walk is the match plan they call
    parent = {s[0]: s[4] for s in spans}
    mc4_ids = {s[0] for s in by_name.get("localcount.mc4", ())}

    def under_mc4(sid):
        while sid is not None:
            if sid in mc4_ids:
                return True
            sid = parent.get(sid)
        return False

    m["localcount.mc3_s"] = sum(s[3] - s[2] for s in by_name.get("localcount.mc3", ()))
    m["localcount.mc4_s"] = sum(s[3] - s[2] for s in by_name.get("localcount.mc4", ()))
    m["localcount.mc4.cycle_walk_s"] = sum(
        s[3] - s[2] for s in by_name.get("engine.match", ()) if under_mc4(s[4]))

    checks = len(by_name.get("dfscode.min_check", ()))
    m["fsm.mine_s"] = self_sum("fsm.mine")
    m["fsm.extend_s"] = self_sum("fsm.extend")
    m["fsm.support_s"] = self_sum("fsm.support")
    m["fsm.nodes"] = len(by_name.get("fsm.support", ()))
    m["fsm.embeddings"] = attr_sum("fsm.mine", "embeddings")
    m["dfscode.min_check_s"] = self_sum("dfscode.min_check")
    m["dfscode.min_checks"] = checks
    m["dfscode.min_reject_ratio"] = (attr_sum("dfscode.min_check", "rejected") / checks
                                     if checks else 0.0)
    return m
