import gc
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gpm import fsm, oracle
from gpm.dfscode import decode, is_min_extension, render_code
from gpm.engine import ProblemSpec, mine
from gpm.fsm import FsmMemoryError, PatternNode, mine_fsm, mni, rightmost_extensions
from gpm.graph import Graph

from conftest import random_graph


def labeled(n, edges, labels, names=None):
    return Graph.from_edges(n, edges, labels=labels,
                            label_names=names or tuple("ABCD"[:max(labels) + 1]))


class TestExamples:
    def test_two_disjoint_edges(self):
        g = labeled(4, [(0, 1), (2, 3)], [0, 1, 0, 1])
        result = mine_fsm(g, 1, 2)
        assert result == {((0, 1, 0, 1),): 2}

    def test_single_edge_below_threshold(self):
        g = labeled(2, [(0, 1)], [0, 1])
        assert mine_fsm(g, 1, 2) == {}

    def test_uniform_triangle(self):
        g = labeled(3, [(0, 1), (1, 2), (0, 2)], [0, 0, 0], ("A",))
        result = mine_fsm(g, 3, 3)
        edge_code = ((0, 1, 0, 0),)
        assert result[edge_code] == 3
        assert len(result) == 3  # edge, wedge, triangle all have support 3

    def test_unlabeled_graph_rejected(self, k4):
        with pytest.raises(ValueError, match="label"):
            mine_fsm(k4, 2, 1)

    def test_path_aba_wedge(self):
        g = labeled(3, [(0, 1), (1, 2)], [0, 1, 0])
        seeds = _seeds(g)
        assert len(seeds) == 1
        children = rightmost_extensions(seeds[0], g)
        assert len(children) == 1
        child = children[0]
        # both outer edges fold into the single wedge pattern: one edge set,
        # two automorphic assignments
        assert len(child.emb) == 2
        edge_sets = {frozenset(_edges_of(child.code, verts))
                     for verts in child.emb.tolist()}
        assert len(edge_sets) == 1
        assert child.support == 1

    def test_no_extensions_from_single_edge(self):
        g = labeled(2, [(0, 1)], [0, 1])
        seeds = _seeds(g)
        assert rightmost_extensions(seeds[0], g) == []

    def test_automorphic_codes_collapse(self):
        # uniform wedge: extending the seed in either direction produces one child
        g = labeled(3, [(0, 1), (1, 2)], [0, 0, 0], ("A",))
        seeds = _seeds(g)
        children = rightmost_extensions(seeds[0], g)
        assert len(children) == 1


def _seeds(g):
    from gpm.fsm import _seed_nodes
    return _seed_nodes(g)


def _edges_of(code, verts):
    return [(min(verts[i], verts[j]), max(verts[i], verts[j]))
            for i, j, _, _ in code]


class TestMni:
    def test_single_embedding(self):
        node = PatternNode(((0, 1, 0, 0),), [(3, 5)])
        assert mni(node) == 1

    def test_uniform_triangle_edge(self):
        g = labeled(3, [(0, 1), (1, 2), (0, 2)], [0, 0, 0], ("A",))
        seeds = _seeds(g)
        assert seeds[0].support == 3  # domains {0,1,2} x {0,1,2}

    def test_min_rule(self):
        node = PatternNode(((0, 1, 0, 0),), [(0, 9), (1, 9), (2, 9)])
        assert mni(node) == 1

    def test_helper_hooks_match_default(self):
        g = labeled(3, [(0, 1), (1, 2)], [0, 1, 0])

        def domain_support(node):
            return min(len(set(col)) for col in zip(*node.emb.tolist()))

        spec = ProblemSpec(vertex_induced=False, explicit=False, k=2,
                           is_implicit_pattern=lambda node: node.support >= 1,
                           get_support=domain_support)
        result = mine(g, spec)
        assert result.pattern_map == mine_fsm(g, 2, 1)

    def test_get_support_reduces_by_sum_by_default(self):
        g = labeled(4, [(0, 1), (1, 2), (2, 3), (3, 0)], [0, 0, 1, 1])
        calls = []

        def rows(node):
            calls.append(node.code)
            return len(node.emb)

        summed = mine(g, ProblemSpec(vertex_induced=False, explicit=False, k=2,
                                     get_support=rows))
        assert summed.pattern_map[((0, 1, 0, 0),)] == 2   # edge 0-1, both directions
        assert sorted(calls) == sorted(summed.pattern_map)   # once per node
        with pytest.raises(ValueError, match="reduce"):
            mine(g, ProblemSpec(vertex_induced=False, explicit=False, k=2,
                                get_support=rows, reduce=lambda a, b: a + b))


class TestAgainstOracle:
    @given(seed=st.integers(0, 10 ** 6))
    @settings(max_examples=15, deadline=None)
    def test_supports_match_mni_oracle(self, seed):
        rng = random.Random(seed)
        g = random_graph(rng, rng.randint(4, 25), 0.25, labels=3)
        result = mine_fsm(g, 2, 2)
        for code, support in result.items():
            assert support == oracle.mni_oracle(g, decode(code))

    @given(seed=st.integers(0, 10 ** 6), minsup=st.sampled_from([2, 5]))
    @settings(max_examples=12, deadline=None)
    def test_prune_matches_noprune(self, seed, minsup):
        rng = random.Random(seed)
        g = random_graph(rng, rng.randint(6, 30), 0.2, labels=4)
        pruned = mine_fsm(g, 3, minsup)
        unpruned = mine_fsm(g, 3, minsup, prune=False)
        assert pruned == unpruned

    def test_pattern_uniqueness_and_min_codes(self, rng):
        g = random_graph(rng, 30, 0.15, labels=3)
        result = mine_fsm(g, 3, 2)
        assert all(is_min_extension(code) for code in result)
        # each reported code decodes to a distinct isomorphism class
        from gpm.patterns import canonical_code
        classes = {canonical_code(decode(code)) for code in result}
        assert len(classes) == len(result)

    def test_anti_monotone_observed(self, rng):
        g = random_graph(rng, 25, 0.2, labels=2)
        support = mine_fsm(g, 3, 1)  # everything reported
        for code, sup in support.items():
            if len(code) == 1:
                continue
            parent = code[:-1]
            if parent in support:
                assert sup <= support[parent]

    def test_each_embedding_in_one_bin(self, rng):
        g = random_graph(rng, 15, 0.3, labels=2)
        seeds = _seeds(g)
        for seed_node in seeds:
            children = rightmost_extensions(seed_node, g)
            seen = {}
            for child in children:
                for verts in child.emb.tolist():
                    key = (frozenset(_edges_of(child.code, verts)), tuple(verts))
                    assert key not in seen
                    seen[key] = child.code


class TestWorkersAndLimits:
    def test_worker_determinism(self, rng):
        g = random_graph(rng, 30, 0.2, labels=3)
        base = mine_fsm(g, 3, 2, workers=1)
        for w in (2, 4, 8):
            assert mine_fsm(g, 3, 2, workers=w) == base

    def test_memory_cap_aborts(self, rng):
        g = random_graph(rng, 40, 0.3, labels=1)
        with pytest.raises(FsmMemoryError):
            mine_fsm(g, 3, 1, memory_cap=1024)

    @pytest.mark.parametrize("seed, n, p, k", [(7, 30, 0.2, 3), (3, 25, 0.3, 4)])
    def test_budget_covers_live_node_arrays(self, monkeypatch, seed, n, p, k):
        # at every charge, the arrays of the pattern nodes alive at that
        # moment, plus the fixed charge per node, are within what is charged
        g = random_graph(random.Random(seed), n, p, labels=2)
        add = fsm._MemoryBudget.add
        excess = []

        def checked(budget, nbytes):
            add(budget, nbytes)
            live = sum((0 if o._emb is None else o._emb.nbytes) + fsm.NODE_OVERHEAD_BYTES
                       for o in gc.get_objects() if type(o) is PatternNode)
            excess.append(live - budget.used)

        monkeypatch.setattr(fsm._MemoryBudget, "add", checked)
        mine_fsm(g, k, 1)
        assert excess and max(excess) <= 0

    def test_memory_cap_bounds_traced_memory(self):
        # power-law graph (Chung-Lu, n = 3000, average degree 6, exponent
        # 2.5, seed 5; m = 8766, max degree 348), 5 uniform labels: the
        # extension's gathers over the hubs' neighbours, not the live nodes,
        # dominate its memory, so the cap holds only if they are charged
        n, rng = 3000, np.random.default_rng(5)
        weight = np.arange(1, n + 1, dtype=np.float64) ** (-1.0 / 1.5)
        p = weight / weight.sum()
        ends = rng.choice(n, size=(2, n * 3), p=p)
        g = Graph.from_edges(n, ends.T, labels=rng.integers(0, 5, size=n))
        assert (g.edge_count, int(g.degrees().max())) == (8766, 348)
        cap = 8 * 2 ** 20
        tracemalloc.start()
        try:
            try:
                mine_fsm(g, 3, 100, memory_cap=cap)
            except FsmMemoryError:
                pass
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * cap + 16 * 2 ** 20

    def test_unbounded_k(self):
        g = labeled(3, [(0, 1), (1, 2)], [0, 1, 0])
        result = mine_fsm(g, None, 1)
        assert len(result) == 2  # edge and wedge exhaust the graph

    def test_unbounded_k_stops_at_code_bound(self):
        # a 13-vertex path has paths of every length up to 12 edges; without
        # a size bound the walk stops at the longest code it can check
        from gpm.dfscode import MAX_CODE_EDGES
        g = labeled(13, [(i, i + 1) for i in range(12)], [0] * 13)
        result = mine_fsm(g, None, 1)
        assert len(result) == MAX_CODE_EDGES == 10
        assert result == mine_fsm(g, 10, 1)

    def test_validation(self):
        g = labeled(2, [(0, 1)], [0, 1])
        with pytest.raises(ValueError):
            mine_fsm(g, 1, 0)
        with pytest.raises(ValueError):
            mine_fsm(g, 0, 1)


def test_render_used_for_output():
    g = labeled(3, [(0, 1), (1, 2)], [0, 1, 0], ("A", "B"))
    result = mine_fsm(g, 2, 1)
    rendered = sorted(render_code(c, g.label_names) for c in result)
    assert rendered == ["(0,1,A,B)", "(0,1,A,B)(1,2,B,A)"]


def test_to_add_edge_vetoes_extensions():
    from gpm.engine import ProblemSpec
    from gpm.engine import mine as engine_mine
    g = labeled(3, [(0, 1), (1, 2)], [0, 1, 0])
    spec = ProblemSpec(vertex_induced=False, explicit=False, k=2,
                       is_implicit_pattern=lambda node: node.support >= 1,
                       to_add_edge=lambda emb, e: False)
    result = engine_mine(g, spec)
    # only the seed survives: every extension edge is vetoed
    assert set(result.pattern_map) == {((0, 1, 0, 1),)}

    # vetoing one concrete edge drops exactly the embeddings extended by it
    seed = _seeds(g)[0]
    full = rightmost_extensions(seed, g)
    filtered = rightmost_extensions(seed, g,
                                    edge_filter=lambda emb, e: e != (1, 2))
    assert len(full) == 1 and len(full[0].emb) == 2
    assert len(filtered) == 1 and len(filtered[0].emb) == 1
    assert filtered[0].emb.tolist() == [[2, 1, 0]]


def _tuple_extensions(node, g, edge_filter=None):
    """Reference: the per-embedding tuple loop, as (code, rows) per child."""
    from gpm.dfscode import code_vertex_count, rightmost_path
    from gpm.fsm import FsmEmbedding
    labels = g.labels.tolist()
    adj = g.adjacency()
    code = node.code
    rmp = rightmost_path(code)
    r = rmp[0]
    nv = code_vertex_count(code)
    bins = {}

    def allowed(verts, a, b):
        return edge_filter is None or edge_filter(FsmEmbedding(tuple(verts), code),
                                                  (min(a, b), max(a, b)))

    for verts in node.emb.tolist():
        used = {frozenset((verts[i], verts[j])) for i, j, _, _ in code}
        vr = verts[r]
        for p in rmp[1:]:
            vp = verts[p]
            if vp in adj[vr] and frozenset((vr, vp)) not in used and allowed(verts, vr, vp):
                bins.setdefault((r, p, labels[vr], labels[vp]), []).append(verts)
        for p in rmp:
            vp = verts[p]
            for w in adj[vp]:
                if w not in verts and allowed(verts, vp, w):
                    bins.setdefault((p, nv, labels[vp], labels[w]), []).append(verts + [w])
    return [(code + (key,), bins[key]) for key in sorted(bins)
            if is_min_extension(code + (key,))]


def _nodes_to_depth(g, depth):
    """Every sub-pattern-tree node up to `depth` edges, with no pruning."""
    nodes, frontier = [], _seeds(g)
    while frontier:
        nodes += frontier
        frontier = [c for n in frontier if n.edge_count < depth
                    for c in rightmost_extensions(n, g)]
    return nodes


class TestEmbeddingArrays:
    @given(seed=st.integers(0, 10 ** 6), veto=st.integers(0, 10 ** 6))
    @settings(max_examples=25, deadline=None)
    def test_mni_and_edge_filter_against_tuples(self, seed, veto):
        rng = random.Random(seed)
        g = random_graph(rng, rng.randint(3, 14), 0.3, labels=rng.randint(1, 3))
        edges = sorted({tuple(sorted(e)) for n in _seeds(g) for e in n.emb.tolist()})
        for node in _nodes_to_depth(g, 3):
            assert mni(node) == min(len(set(col)) for col in zip(*node.emb.tolist()))
            if node.edge_count == 3:
                continue
            # same children, rows in the same order, as the tuple loop
            assert [(c.code, c.emb.tolist()) for c in rightmost_extensions(node, g)] \
                == _tuple_extensions(node, g)
            # vetoing one graph edge removes exactly the child rows whose new
            # code edge maps onto it, and children left with no rows
            bad = edges[veto % len(edges)]
            want = {}
            for child in rightmost_extensions(node, g):
                i, j = child.code[-1][:2]
                rows = [v for v in child.emb.tolist()
                        if (min(v[i], v[j]), max(v[i], v[j])) != bad]
                if rows:
                    want[child.code] = rows
            keep = lambda emb, e: e != bad  # noqa: E731
            got = [(c.code, c.emb.tolist())
                   for c in rightmost_extensions(node, g, edge_filter=keep)]
            assert dict(got) == want
            assert got == _tuple_extensions(node, g, keep)

    def test_graph_without_edges(self):
        g = labeled(3, [], [0, 1, 0])
        assert _seeds(g) == []
        assert mine_fsm(g, 3, 1) == {}

    def test_single_label_graph(self, rng):
        g = random_graph(rng, 12, 0.35, labels=1)
        result = mine_fsm(g, 3, 1)
        assert result == mine_fsm(g, 3, 1, prune=False)
        assert {len(code) for code in result} == {1, 2, 3}
        for code, support in result.items():
            assert support == oracle.mni_oracle(g, decode(code))

    def test_size_bound_checked_before_mining(self, monkeypatch):
        import gpm.fsm
        from gpm.dfscode import MAX_CODE_EDGES
        from gpm.fsm import mine_spec

        def never(*args, **kwargs):
            raise AssertionError("mining started")

        monkeypatch.setattr(gpm.fsm, "_seed_nodes", never)
        g = labeled(3, [(0, 1), (1, 2)], [0, 1, 0])
        with pytest.raises(ValueError, match="at most"):
            mine_fsm(g, MAX_CODE_EDGES + 1, 1)
        spec = ProblemSpec(vertex_induced=False, explicit=False, k=MAX_CODE_EDGES + 1)
        with pytest.raises(ValueError, match="at most"):
            mine_spec(g, spec)


def _reference_seeds(g):
    """One-edge nodes from the graph alone, rows in CSR order."""
    bins = {}
    labels = g.labels.tolist()
    for u, v in zip(g.sources().tolist(), g.neighbors.tolist()):
        if labels[u] <= labels[v]:
            bins.setdefault((labels[u], labels[v]), []).append((u, v))
    return [PatternNode(((0, 1) + key,), bins[key]) for key in sorted(bins)]


def _reference_walk(g, k, min_sup, prune):
    """fsm from the public `rightmost_extensions` and `mni` alone: returns
    ({code: support}, rows considered, {code: rows} of every node visited)."""
    results, rows = {}, {}

    def walk(node):
        rows[node.code] = node.emb.tolist()
        support = mni(node)
        if support >= min_sup:
            results[node.code] = support
        elif prune:
            return
        if node.edge_count < k:
            for child in rightmost_extensions(node, g):
                walk(child)

    for seed in _reference_seeds(g):
        walk(seed)
    return results, sum(map(len, rows.values())), rows


class TestLeafCounting:
    @given(seed=st.integers(0, 10 ** 6), labels=st.integers(1, 4), k=st.integers(1, 4),
           prune=st.booleans(), min_sup=st.integers(1, 3))
    @settings(max_examples=40, deadline=None)
    def test_against_reference_walk(self, seed, labels, k, prune, min_sup):
        with pytest.MonkeyPatch.context() as monkeypatch:
            self._against_reference_walk(monkeypatch, seed, labels, k, prune, min_sup)

    @staticmethod
    def _against_reference_walk(monkeypatch, seed, labels, k, prune, min_sup):
        import gpm.fsm
        from gpm.fsm import mine_spec
        rng = random.Random(seed)
        g = random_graph(rng, rng.randint(2, 12), 0.35, labels=labels)
        want, considered, rows = _reference_walk(g, k, min_sup, prune)
        assert mine_fsm(g, k, min_sup, prune=prune) == want

        def spec(**hooks):
            hooks.setdefault("is_implicit_pattern", lambda node: node.support >= min_sup)
            return ProblemSpec(vertex_induced=False, explicit=False, k=k,
                               support_anti_monotonic=prune, **hooks)

        # `mni` runs on the seeds and on every node above the last level;
        # the last level's nodes below a seed are counted from their parents
        calls = []
        monkeypatch.setattr(gpm.fsm, "mni", lambda node: calls.append(node.code) or mni(node))
        assert mine_spec(g, spec()) == (want, considered)
        assert sorted(calls) == sorted(code for code in rows if len(code) == 1 or len(code) < k)

        # a hook that reads `emb` gets the rows `rightmost_extensions` builds
        seen = {}

        def reads_rows(node):
            seen[node.code] = node.emb.tolist()
            return node.support >= min_sup

        assert mine_spec(g, spec(is_implicit_pattern=reads_rows)) == (want, considered)
        assert seen == rows

        # `get_support` and `to_add_edge` see every node built, leaves included
        seen.clear()

        def support_from_rows(node):
            seen[node.code] = node.emb.tolist()
            return mni(node)

        assert mine_spec(g, spec(get_support=support_from_rows)) == (want, considered)
        assert seen == rows
        calls.clear()
        assert mine_spec(g, spec(to_add_edge=lambda emb, e: True)) == (want, considered)
        assert sorted(calls) == sorted(rows)

    def test_cap_met_only_by_leaf_arrays(self):
        from gpm.fsm import mine_spec
        g = random_graph(random.Random(7), 30, 0.2, labels=2)
        cap = 200_000
        want = mine_fsm(g, 3, 1)
        # counted leaves keep the charged peak near 170 kB; building them,
        # as a `get_support` hook needs, takes it near 300 kB
        assert mine_fsm(g, 3, 1, memory_cap=cap) == want
        built = ProblemSpec(vertex_induced=False, explicit=False, k=3,
                            is_implicit_pattern=lambda node: node.support >= 1,
                            get_support=mni)
        assert mine_spec(g, built)[0] == want
        with pytest.raises(FsmMemoryError):
            mine_spec(g, built, memory_cap=cap)


_UNCALLED = ["reduce", "process", "process_rows", "terminate", "to_add", "to_extend",
             "get_pattern", "local_reduce", "init_local", "update_local"]


@pytest.mark.parametrize("hook", _UNCALLED)
def test_hooks_the_walk_never_calls_are_refused(monkeypatch, hook):
    import gpm.fsm
    monkeypatch.setattr(gpm.fsm, "_seed_nodes", None)
    calls = []
    spec = ProblemSpec(vertex_induced=False, explicit=False, k=2,
                       **{hook: lambda *args: calls.append(args)})
    g = labeled(3, [(0, 1), (1, 2)], [0, 1, 0])
    with pytest.raises(ValueError, match=f"^a {hook} hook would never be called: "):
        mine(g, spec)
    assert calls == []


def test_mine_fsm_is_a_spec_preset(monkeypatch):
    import gpm.fsm
    from gpm.dfscode import MAX_CODE_EDGES
    g = random_graph(random.Random(9), 14, 0.35, labels=2)
    cap = 10 ** 8
    want = mine_fsm(g, 3, 2, prune=False, memory_cap=cap)
    calls = []
    driver = gpm.fsm.mine_spec

    def recorded(g, spec, memory_cap):
        calls.append((spec, memory_cap))
        return driver(g, spec, memory_cap)

    monkeypatch.setattr(gpm.fsm, "mine_spec", recorded)
    assert mine_fsm(g, 3, 2, prune=False, memory_cap=cap) == want
    (spec, memory_cap), = calls
    assert (spec.k, spec.support_anti_monotonic, memory_cap) == (3, False, cap)
    assert spec.get_support is None and spec.to_add_edge is None
    calls.clear()
    mine_fsm(labeled(3, [(0, 1), (1, 2)], [0, 1, 0]), None, 1)
    assert [spec.k for spec, _ in calls] == [MAX_CODE_EDGES]
