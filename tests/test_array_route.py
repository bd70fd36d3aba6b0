"""The array route of the generic, match, clique and local plans against
the walk.

`mine(g, spec)` takes the array route for hook-free counting and for
`process_rows` listing; passing `use_mnc` forces the walk. Pattern maps,
`enumerated`, `accepted` and the listed rows must agree, at the default
`ROW_BUDGET` and at budgets small enough that every level is cut into many
slices.
"""
import random
from contextlib import contextmanager
from dataclasses import replace
from functools import partial
from itertools import combinations
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gpm.arrayroute
from gpm import apps, mine
from gpm.arrayroute import MAX_GENERIC_K
from gpm.engine import _WALK_HOOKS, HookMisuseError, ProblemSpec, _CliquePlan
from gpm import localgraph
from gpm.graph import CSRGraph, Graph
from gpm.patterns import (Pattern, all_patterns, canonical_code, clique, named_motifs, triangle,
                          wedge)

from conftest import edge_case_graphs, random_graph

BUDGETS = [None, 1, 3]
SMALL_PATTERNS = all_patterns(3) + all_patterns(4)


@contextmanager
def _row_budget(budget):
    saved = gpm.arrayroute.ROW_BUDGET
    if budget is not None:
        gpm.arrayroute.ROW_BUDGET = budget
    try:
        yield
    finally:
        gpm.arrayroute.ROW_BUDGET = saved


def _expected_route(walk_route, g):
    name = walk_route.split(":")[0]
    if (name in ("match", "clique", "local")
            or (name == "generic" and g.labels is None)):
        return f"{name}:array"
    return walk_route


def _assert_routes_agree(g, spec, budget, **options):
    with _row_budget(budget):
        array = mine(g, spec, **options)
    walk = mine(g, spec, use_mnc=True, **options)
    assert walk.plans and all(route.endswith(":walk") for route in walk.plans)
    assert array.plans == tuple(_expected_route(route, g) for route in walk.plans)
    assert array.pattern_map == walk.pattern_map
    assert (array.enumerated, array.accepted) == (walk.enumerated, walk.accepted)
    return array


def _graph(seed, labels=None):
    rng = random.Random(seed)
    return random_graph(rng, rng.randint(0, 18), rng.uniform(0.05, 0.5), labels=labels)


@pytest.mark.parametrize("budget", BUDGETS)
@given(seed=st.integers(0, 10 ** 6), k=st.sampled_from([3, 4, 5]))
@settings(max_examples=15, deadline=None)
def test_motifs(budget, seed, k):
    result = _assert_routes_agree(_graph(seed), apps.motif_spec(k), budget)
    assert result.plans == ("generic:array",)


@pytest.mark.parametrize("budget", BUDGETS)
@given(seed=st.integers(0, 10 ** 6))
@settings(max_examples=8, deadline=None)
def test_every_small_pattern_both_inductions(budget, seed):
    g = _graph(seed)
    for pattern in SMALL_PATTERNS:
        for induced in (False, True):
            spec = ProblemSpec(vertex_induced=induced, k=pattern.vertex_count,
                               patterns=(pattern,))
            _assert_routes_agree(g, spec, budget)


@pytest.mark.parametrize("budget", BUDGETS)
@given(seed=st.integers(0, 10 ** 6))
@settings(max_examples=8, deadline=None)
def test_labeled_patterns_on_labeled_graphs(budget, seed):
    rng = random.Random(seed)
    g = _graph(seed, labels=2)
    for pattern in SMALL_PATTERNS:
        labeled = Pattern(pattern.vertex_count, pattern.edges,
                          labels=[rng.randrange(2) for _ in range(pattern.vertex_count)])
        for induced in (False, True):
            spec = ProblemSpec(vertex_induced=induced, k=pattern.vertex_count,
                               patterns=(labeled,))
            _assert_routes_agree(g, spec, budget)
    # labeled motif counting stays on the walk
    assert _assert_routes_agree(g, apps.motif_spec(3), budget).plans == ("generic:walk",)


@pytest.mark.parametrize("budget", BUDGETS)
@given(seed=st.integers(0, 10 ** 6), k=st.sampled_from([3, 4]))
@settings(max_examples=10, deadline=None)
def test_implicit_pattern_filter(budget, seed, k):
    spec = apps.motif_spec(k, is_implicit_pattern=lambda p: p.edge_count() % 2 == 0)
    _assert_routes_agree(_graph(seed), spec, budget)


@pytest.mark.parametrize("budget", BUDGETS)
@given(seed=st.integers(0, 10 ** 6))
@settings(max_examples=10, deadline=None)
def test_multi_pattern_explicit_spec(budget, seed):
    names = named_motifs(4)
    spec = ProblemSpec(vertex_induced=False, k=4,
                       patterns=(names["4-cycle"], triangle(), names["diamond"], wedge(),
                                 names["4-path"]))
    result = _assert_routes_agree(_graph(seed), spec, budget)
    assert result.plans == ("match:array", "clique:array", "match:array", "match:array",
                            "match:array")


@pytest.mark.parametrize("budget", BUDGETS)
def test_edge_case_graphs(budget):
    names = named_motifs(4)
    specs = [apps.motif_spec(k) for k in (1, 2, 3, 4, 5)] + [
        apps.subgraph_listing_spec(p) for p in (wedge(), names["4-cycle"], names["3-star"])]
    for g in edge_case_graphs():
        for spec in specs:
            _assert_routes_agree(g, spec, budget)


# one case per hook in `engine._WALK_HOOKS`, and the ablations
WALK_CASES = ["process", "to_extend", "debug", "no-mnc", "terminate", "get_support",
              "motif-rows", "reduce", "to_add", "get_pattern", "local_reduce"]


@pytest.mark.parametrize("make, options", [
    (lambda: apps.motif_spec(3, process=lambda emb: None), {}),
    (lambda: apps.motif_spec(3, to_extend=lambda emb, pos: True), {}),
    (lambda: apps.motif_spec(3), {"debug": True}),
    (lambda: apps.motif_spec(3), {"use_mnc": False}),
    (lambda: apps.subgraph_listing_spec(wedge(), terminate=lambda emb: False), {}),
    (lambda: apps.subgraph_listing_spec(wedge(), get_support=lambda emb: 1), {}),
    (lambda: apps.motif_spec(3, process_rows=lambda rows: None), {}),
    (lambda: apps.motif_spec(3, reduce=lambda a, b: a + b), {}),
    (lambda: apps.subgraph_listing_spec(wedge(), to_add=lambda emb, u: True), {}),
    (lambda: apps.motif_spec(3, get_pattern=lambda emb: 0), {}),
    (lambda: apps.clique_spec(3, local_reduce=lambda emb, depth, acc: None), {}),
], ids=WALK_CASES)
def test_hooks_and_ablations_keep_the_walk(make, options):
    g = random_graph(random.Random(5), 20, 0.3)
    assert all(route.endswith(":walk") for route in mine(g, make(), **options).plans)


def test_every_walk_hook_has_a_case():
    assert set(_WALK_HOOKS) <= set(WALK_CASES)


@pytest.mark.parametrize("k, route", [(MAX_GENERIC_K, "generic:array"),
                                      (MAX_GENERIC_K + 1, "generic:walk")])
def test_generic_size_limit(k, route):
    # every k-set of K(k+1) is a clique, so each of the k+1 classifies once
    g = Graph.from_edges(k + 1, list(combinations(range(k + 1), 2)))
    result = mine(g, apps.motif_spec(k))
    assert result.plans == (route,)
    assert result.pattern_map == {canonical_code(clique(k)): k + 1}


ORIENTATIONS = ["degree", "core", "none"]


@pytest.mark.parametrize("budget", BUDGETS)
@given(seed=st.integers(0, 10 ** 6), k=st.integers(1, 6),
       orientation=st.sampled_from(ORIENTATIONS), use_df=st.booleans())
@settings(max_examples=25, deadline=None)
def test_cliques(budget, seed, k, orientation, use_df):
    rng = random.Random(seed)
    g = random_graph(rng, rng.randint(0, 16), rng.uniform(0.2, 0.9))
    result = _assert_routes_agree(g, apps.clique_spec(k), budget, orientation=orientation,
                                  use_df=use_df)
    assert result.plans == ("clique:array",)


@pytest.mark.parametrize("budget", BUDGETS)
def test_cliques_on_edge_case_graphs(budget):
    for g in edge_case_graphs():
        for k in range(1, 7):
            for orientation in ORIENTATIONS:
                for use_df in (True, False):
                    result = _assert_routes_agree(g, apps.clique_spec(k), budget,
                                                  orientation=orientation, use_df=use_df)
                    assert result.plans == ("clique:array",)


@given(seed=st.integers(0, 10 ** 6), k=st.integers(3, 6),
       orientation=st.sampled_from(["degree", "core", "id"]))
@settings(max_examples=25, deadline=None)
def test_cliques_need_no_distinctness_test(seed, k, orientation):
    """A clique candidate is an out-neighbour of the last position on an
    acyclic orientation, so it is never in the embedding: testing for that
    anyway (`distinct`) changes no count, counter or listed row, on the
    array route or on the connectivity-map walk."""
    rng = random.Random(seed)
    g = random_graph(rng, rng.randint(0, 16), rng.uniform(0.2, 0.9))

    def runs():
        found = []
        for use_mnc in (None, True):
            batches = []
            result = mine(g, apps.clique_spec(k, process_rows=batches.append),
                          orientation=orientation, use_mnc=use_mnc)
            found.append((result.plans, result.pattern_map, result.enumerated, result.accepted,
                          [tuple(r) for b in batches for r in b.tolist()]))
        return found

    skipped = runs()
    assert [plans[0].split(":")[1] for plans, *_ in skipped] == ["array", "walk"]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_CliquePlan, "distinct", True)
        assert runs() == skipped


@pytest.mark.parametrize("use_mnc", [None, True, False], ids=["array", "mnc", "no-mnc"])
@given(seed=st.integers(0, 10 ** 6), orientation=st.sampled_from(ORIENTATIONS),
       use_df=st.booleans())
@settings(max_examples=20, deadline=None)
def test_triangles_are_the_3_clique(use_mnc, seed, orientation, use_df):
    rng = random.Random(seed)
    g = random_graph(rng, rng.randint(0, 16), rng.uniform(0.2, 0.9))
    options = {"orientation": orientation, "use_df": use_df}
    if use_mnc is not None:
        options["use_mnc"] = use_mnc
    runs = []
    for count in (apps.count_triangles, partial(apps.count_cliques, k=3)):
        batches = []
        found, result = count(g, process_rows=batches.append, **options)
        runs.append((found, result.pattern_map, result.enumerated, result.accepted,
                     result.plans, [tuple(r) for b in batches for r in b.tolist()]))
    assert runs[0] == runs[1]
    assert runs[0][4] == (("clique:array",) if use_mnc is None else ("clique:walk",))


def _c4():
    return named_motifs(4)["4-cycle"]


LISTED = {
    "triangle": apps.triangle_spec,
    "4-clique": lambda **h: apps.clique_spec(4, **h),
    "5-clique": lambda **h: apps.clique_spec(5, **h),
    "wedge": lambda **h: apps.subgraph_listing_spec(wedge(), **h),
    "4-cycle": lambda **h: apps.subgraph_listing_spec(_c4(), **h),
    "induced 4-cycle": lambda **h: ProblemSpec(vertex_induced=True, k=4, patterns=(_c4(),), **h),
    "induced diamond": lambda **h: ProblemSpec(vertex_induced=True, k=4,
                                               patterns=(named_motifs(4)["diamond"],), **h),
}


def _assert_listing_agrees(g, make, budget):
    """Rows `process_rows` gets on the array route equal, in order, the
    embeddings `process` gets on the walk and the rows the ablation walk
    hands `process_rows`; that order is lexicographic."""
    batches, ablation, walked = [], [], []
    with _row_budget(budget):
        array = mine(g, make(process_rows=batches.append))
        mine(g, make(process_rows=ablation.append), use_mnc=False)
    walk = mine(g, make(process=lambda emb: walked.append(tuple(emb.vertices))))
    assert array.plans[0].endswith(":array") and walk.plans[0].endswith(":walk")
    for b in batches + ablation:
        assert b.dtype == np.int64 and b.ndim == 2 and len(b)
    rows = [tuple(r) for b in batches for r in b.tolist()]
    assert rows == walked == sorted(walked)
    assert rows == [tuple(r) for b in ablation for r in b.tolist()]
    assert len(rows) == sum(array.pattern_map.values())


@pytest.mark.parametrize("budget", BUDGETS)
@given(seed=st.integers(0, 10 ** 6))
@settings(max_examples=10, deadline=None)
def test_listed_rows_are_the_walks(budget, seed):
    rng = random.Random(seed)
    g = random_graph(rng, rng.randint(0, 16), rng.uniform(0.1, 0.8))
    for make in LISTED.values():
        _assert_listing_agrees(g, make, budget)


@pytest.mark.parametrize("budget", BUDGETS)
def test_listed_rows_on_edge_case_graphs(budget):
    for g in edge_case_graphs():
        for make in LISTED.values():
            _assert_listing_agrees(g, make, budget)


@pytest.mark.parametrize("hooks", [{}, {"process_rows": lambda rows: None}],
                         ids=["count", "list"])
def test_array_route_builds_no_neighbour_lists(monkeypatch, hooks):
    g = random_graph(random.Random(7), 30, 0.3)

    def refuse(self):
        raise AssertionError("the array route built the walk's neighbour lists")

    monkeypatch.setattr(CSRGraph, "adjacency", refuse)
    for count, args in ((apps.count_triangles, ()), (apps.count_cliques, (4,)),
                        (partial(apps.count_cliques, level="lo"), (4,)),
                        (apps.count_subgraphs, (_c4(),))):
        found, result = count(g, *args, **hooks)
        assert found and result.plans[0].endswith(":array")


@pytest.mark.parametrize("budget", BUDGETS)
def test_walk_hands_over_the_rows_a_terminate_hook_stopped_at(budget):
    g = edge_case_graphs()[4]
    batches = []
    with _row_budget(budget):
        result = mine(g, apps.clique_spec(4, process_rows=batches.append,
                                          terminate=lambda emb: emb.vertices[-1] == 5))
    rows = [tuple(r) for b in batches for r in b.tolist()]
    assert result.terminated and result.plans == ("clique:walk",)
    assert rows and rows[-1][-1] == 5 and len(rows) == sum(result.pattern_map.values())


LOCAL_ORIENTATIONS = ["degree", "core", "none"]


def _assert_local_routes_agree(g, k, budget, orientation, use_df):
    """Counts, counters and `process_rows` rows of the local plan's bitset
    route equal its walk's, row for row. Unlike degree or core order, the
    vertex-id orientation ("none") lets the degree filter reject local-graph
    candidates."""
    listed, walked = [], []
    result = _assert_routes_agree(g, apps.clique_local_spec(k), budget,
                                  orientation=orientation, use_df=use_df)
    assert result.plans == ("local:array",)
    with _row_budget(budget):
        mine(g, apps.clique_local_spec(k, process_rows=listed.append),
             orientation=orientation, use_df=use_df)
    walk = mine(g, apps.clique_local_spec(k, process_rows=walked.append),
                orientation=orientation, use_df=use_df, use_mnc=False)
    assert walk.plans == ("local:walk",)
    for b in listed:
        assert b.dtype == np.int64 and b.shape[1:] == (k,) and len(b)
    rows = [tuple(r) for b in listed for r in b.tolist()]
    assert rows == [tuple(r) for b in walked for r in b.tolist()]
    assert len(rows) == sum(result.pattern_map.values())
    return result


@pytest.mark.parametrize("budget", BUDGETS)
@given(seed=st.integers(0, 10 ** 6), k=st.integers(1, 6),
       orientation=st.sampled_from(LOCAL_ORIENTATIONS), use_df=st.booleans())
@settings(max_examples=25, deadline=None)
def test_local_cliques(budget, seed, k, orientation, use_df):
    rng = random.Random(seed)
    g = random_graph(rng, rng.randint(0, 20), rng.uniform(0.2, 0.9))
    _assert_local_routes_agree(g, k, budget, orientation, use_df)


@pytest.mark.parametrize("budget", BUDGETS)
def test_local_cliques_on_edge_case_graphs(budget):
    for g in edge_case_graphs():
        for k in range(1, 7):
            for orientation in LOCAL_ORIENTATIONS:
                for use_df in (True, False):
                    _assert_local_routes_agree(g, k, budget, orientation, use_df)


@pytest.mark.parametrize("leaves, route", [(64, "local:array"), (65, "local:walk")])
def test_local_hub_root(leaves, route):
    # a star whose leaves also form a clique: every degree ties, so degree
    # orientation points the centre 0 at all its leaves, one bit per leaf
    g = Graph.from_edges(leaves + 1, list(combinations(range(leaves + 1), 2)))
    spec = apps.clique_local_spec(3)
    result = mine(g, spec, orientation="degree")
    assert result.plans == (route,)
    assert result.pattern_map == mine(g, spec, orientation="degree", use_mnc=False).pattern_map
    assert sum(result.pattern_map.values()) == comb(leaves + 1, 3)


@pytest.mark.parametrize("change", [
    {"init_local": lambda g, root: localgraph.init_local_graph(g, root)},
    {"update_local": lambda lg, level, v: localgraph.LocalGraph.shrink(lg, level, v)},
    {"process": lambda emb: None},
], ids=["init_local", "update_local", "process"])
def test_custom_local_graphs_keep_the_walk(change):
    g = random_graph(random.Random(11), 20, 0.5)
    spec = replace(apps.clique_local_spec(4), **change)
    result = mine(g, spec, orientation="core")
    assert result.plans == ("local:walk",)
    assert result.pattern_map == mine(g, apps.clique_local_spec(4), orientation="core").pattern_map


def _later_vertices(g, root):
    """A faulty local graph: every later vertex, adjacent or not, all
    joined to each other."""
    members = list(range(root + 1, g.vertex_count))
    return localgraph.LocalGraph(members, {w: set(members) - {w} for w in members})


def _root_twice(g, root):
    """A faulty local graph: the built-in one with the root also a level-0
    candidate, joined to every member."""
    lg = localgraph.init_local_graph(g, root)
    if lg is not None:
        lg.cand[0] = [root, *lg.cand[0]]
        lg.neighbors[root] = set(lg.vertices)
    return lg


@pytest.mark.parametrize("init_local, message", [
    (_later_vertices, "connectivity map disagrees with the graph"),
    (_root_twice, "duplicate vertex admitted into a vertex-induced embedding"),
], ids=["later-vertices", "root-twice"])
def test_debug_catches_a_faulty_local_graph(init_local, message):
    g = random_graph(random.Random(11), 20, 0.5)
    spec = replace(apps.clique_local_spec(4), init_local=init_local)
    assert mine(g, spec, orientation="core").plans == ("local:walk",)
    with pytest.raises(HookMisuseError, match=f"^{message}$"):
        mine(g, spec, orientation="core", debug=True)


@given(seed=st.integers(0, 10 ** 6), k=st.integers(3, 5))
@settings(max_examples=15, deadline=None)
def test_local_walk_applies_the_to_add_veto(seed, k):
    def veto(emb, u):
        return u % 3 != 0

    rng = random.Random(seed)
    g = random_graph(rng, rng.randint(0, 20), rng.uniform(0.2, 0.9))
    local = mine(g, apps.clique_local_spec(k, to_add=veto), orientation="core")
    plain = mine(g, apps.clique_spec(k, to_add=veto), orientation="core")
    assert (local.plans, plain.plans) == (("local:walk",), ("clique:walk",))
    assert local.pattern_map == plain.pattern_map


def test_budget_one_cuts_every_slice_to_one_row_or_the_budget(monkeypatch):
    """The slicer reads ROW_BUDGET at each call: at budget 1 every slice a
    route cuts is a single row or gathers at most one candidate."""
    slices, cut = gpm.arrayroute._slices, []

    def spy(cost, *budget):
        for s in slices(cost, *budget):
            cut.append((s.stop - s.start, int(np.sum(cost[s]))))
            yield s

    monkeypatch.setattr(gpm.arrayroute, "_slices", spy)
    g = random_graph(random.Random(3), 20, 0.4)
    for spec in (apps.motif_spec(4), apps.clique_spec(4), apps.clique_local_spec(4),
                 apps.subgraph_listing_spec(_c4())):
        _assert_routes_agree(g, spec, 1)
    assert cut and all(rows == 1 or cost <= 1 for rows, cost in cut)
