"""The array route of the generic and match plans against the walk.

`mine(g, spec)` takes the array route for hook-free counting; passing
`use_mnc=True` forces the walk. Pattern maps, `enumerated` and `accepted`
must agree, at the default `ROW_BUDGET` and at budgets small enough that
every level is cut into many slices.
"""
import random
from contextlib import contextmanager

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gpm.arrayroute
from gpm import apps, mine
from gpm.engine import ProblemSpec
from gpm.patterns import Pattern, all_patterns, named_motifs, triangle, wedge

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
    if name == "match" or (name == "generic" and g.labels is None):
        return f"{name}:array"
    return walk_route


def _assert_routes_agree(g, spec, budget):
    with _row_budget(budget):
        array = mine(g, spec)
    walk = mine(g, spec, use_mnc=True)
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
    assert result.plans == ("match:array", "triangle:walk", "match:array", "match:array",
                            "match:array")


@pytest.mark.parametrize("budget", BUDGETS)
def test_edge_case_graphs(budget):
    names = named_motifs(4)
    specs = [apps.motif_spec(k) for k in (1, 2, 3, 4, 5)] + [
        apps.subgraph_listing_spec(p) for p in (wedge(), names["4-cycle"], names["3-star"])]
    for g in edge_case_graphs():
        for spec in specs:
            _assert_routes_agree(g, spec, budget)


@pytest.mark.parametrize("make, options", [
    (lambda: apps.motif_spec(3, process=lambda emb: None), {}),
    (lambda: apps.motif_spec(3, to_extend=lambda emb, pos: True), {}),
    (lambda: apps.motif_spec(3), {"debug": True}),
    (lambda: apps.motif_spec(3), {"use_mnc": False}),
    (lambda: apps.subgraph_listing_spec(wedge(), terminate=lambda emb: False), {}),
    (lambda: apps.subgraph_listing_spec(wedge(), get_support=lambda emb: 1), {}),
], ids=["process", "to_extend", "debug", "no-mnc", "terminate", "get_support"])
def test_hooks_and_ablations_keep_the_walk(make, options):
    g = random_graph(random.Random(5), 20, 0.3)
    assert all(route.endswith(":walk") for route in mine(g, make(), **options).plans)
