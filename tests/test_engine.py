import random
from dataclasses import replace
from itertools import combinations
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gpm import apps, localgraph, oracle
from gpm.embedding import ConnectivityMap
from gpm.engine import ProblemSpec, _is_canonical_extension, extend, mine
from gpm.graph import Graph, has_edge, orient
from gpm.patterns import canonical_code, clique, named_motifs, triangle, wedge

from conftest import random_graph


class TestBasicCounts:
    def test_tc_k4(self, k4):
        count, _ = apps.count_triangles(k4)
        assert count == 4

    def test_4cl_k5(self, k5):
        count, _ = apps.count_cliques(k5, 4)
        assert count == 5

    def test_3mc_diamond(self, diamond_graph):
        counts, _, _ = apps.count_motifs(diamond_graph, 3)
        assert counts[canonical_code(wedge())] == 2
        assert counts[canonical_code(triangle())] == 2

    def test_diamond_pattern_on_diamond_graph(self, diamond_graph):
        count, _ = apps.count_subgraphs(diamond_graph, named_motifs(4)["diamond"])
        assert count == 1

    def test_empty_graph(self):
        g = Graph.from_edges(0, [])
        counts, _, _ = apps.count_motifs(g, 3)
        assert all(v == 0 for v in counts.values())

    def test_k_larger_than_graph(self, path3):
        count, _ = apps.count_cliques(path3, 4)
        assert count == 0


class TestExtend:
    def test_tc_dag_intersection(self, k4):
        og = orient(k4, "degree")
        spec = apps.triangle_spec()
        assert sorted(extend(og, spec, [0, 1])) == [2, 3]

    def test_generic_filter_path(self, path3):
        spec = apps.motif_spec(3)
        assert extend(path3, spec, [0]) == [1]
        assert extend(path3, spec, [1]) == [2]  # {0,1} only reachable from 0
        assert extend(path3, spec, [0, 1]) == [2]

    def test_match_plan_diamond(self, diamond_graph):
        spec = apps.subgraph_listing_spec(named_motifs(4)["diamond"])
        # chords of the diamond graph are vertices 1 and 2; without the degree
        # filter the pole 3 also passes this level (rejected deeper)
        assert extend(diamond_graph, spec, [1]) == [2, 3]
        assert extend(diamond_graph, spec, [1], use_df=True) == [2]


class TestConnectivityMap:
    def test_positions_returned(self):
        # v3 adjacent to the vertices at positions 0 and 2
        g = Graph.from_edges(5, [(0, 1), (0, 2), (1, 2), (0, 3), (2, 3), (2, 4)])
        mnc = ConnectivityMap(g.adjacency())
        members = set()
        for depth, v in enumerate([0, 1, 2]):
            members.add(v)
            mnc.push(v, depth, members)
        assert mnc.bits.get(3, 0) == 0b101  # positions {0, 2}
        assert mnc.bits.get(4, 0) == 0b100  # position {2}

    def test_no_neighbors_empty(self):
        g = Graph.from_edges(3, [(0, 1)])
        mnc = ConnectivityMap(g.adjacency())
        mnc.push(0, 0, {0})
        assert mnc.bits.get(2, 0) == 0

    def test_pop_restores_exactly(self, rng):
        g = random_graph(rng, 30, 0.2)
        mnc = ConnectivityMap(g.adjacency())
        members = set()
        stack = []
        snapshots = [dict(mnc.bits)]
        for depth in range(6):
            v = rng.randrange(30)
            while v in members:
                v = rng.randrange(30)
            members.add(v)
            stack.append(v)
            mnc.push(v, depth, members)
            snapshots.append(dict(mnc.bits))
        for depth in range(5, -1, -1):
            mnc.pop(depth)
            members.discard(stack.pop())
            assert mnc.bits == snapshots[depth]

    def test_lookup_matches_has_edge(self, rng):
        for _ in range(10):
            g = random_graph(rng, 25, 0.25)
            mnc = ConnectivityMap(g.adjacency())
            verts = rng.sample(range(25), 4)
            members = set()
            for depth, v in enumerate(verts):
                members.add(v)
                mnc.push(v, depth, members)
            for u in range(25):
                if u in members:
                    continue
                expect = sum(1 << i for i, v in enumerate(verts) if has_edge(g, v, u))
                assert mnc.bits.get(u, 0) == expect


class TestCanonicalFilter:
    @given(seed=st.integers(0, 10 ** 6))
    @settings(max_examples=50, deadline=None)
    def test_exactly_one_sequence_per_set(self, seed):
        rng = random.Random(seed)
        n = rng.randint(2, 20)
        g = random_graph(rng, n, rng.uniform(0.1, 0.6))
        k = rng.randint(2, 4)
        accepted = _accepted_sequences(g, k)
        per_set = {}
        for seq in accepted:
            per_set.setdefault(frozenset(seq), []).append(seq)
        # exactly one accepted sequence per connected set of size k
        expected = {frozenset(s) for s in oracle.connected_vertex_sets(g, k)}
        assert set(per_set) == expected
        assert all(len(v) == 1 for v in per_set.values())

    def test_incremental_equals_full_recomputation(self, rng):
        """On a greedy prefix, `_is_canonical_extension` (the walk's
        `_floors` rule) accepts exactly the unused neighbours u for which
        prefix + [u] is still the greedy sequence of its vertex set."""
        for _ in range(200):
            n = rng.randint(3, 12)
            adj = random_graph(rng, n, 0.4).adjacency()
            prefix = _greedy_prefix(rng, adj, rng.randint(1, 4))
            for u in sorted({u for v in prefix for u in adj[v]} - set(prefix)):
                full = _greedy_order(adj, prefix + [u]) == prefix + [u]
                assert _is_canonical_extension(prefix, _codes(adj, prefix), u,
                                               _codes(adj, prefix + [u])[-1]) == full

    @given(seed=st.integers(0, 10 ** 6), every_other=st.booleans())
    @settings(max_examples=100, deadline=None)
    def test_walk_extends_by_the_predicate(self, seed, every_other):
        """From a random greedy prefix, the generic walk's one-level
        extension is exactly the unused neighbours whose lowest adjacent
        extended position reaches them and that `_is_canonical_extension`
        accepts, in walk order."""
        rng = random.Random(seed)
        n = rng.randint(2, 16)
        g = random_graph(rng, n, rng.uniform(0.1, 0.6))
        adj = g.adjacency()
        prefix = _greedy_prefix(rng, adj, rng.randint(1, 5))
        hooks = {}
        if every_other:
            hooks["to_extend"] = lambda emb, pos: pos % 2 == 0
        spec = apps.motif_spec(len(prefix) + 1, **hooks)
        expected = []
        for p in range(len(prefix)):
            if every_other and p % 2:
                continue
            for u in adj[prefix[p]]:
                umask = _codes(adj, prefix + [u])[-1]
                reach = umask & (0x5555 if every_other else -1)
                if u in prefix or (reach & -reach).bit_length() - 1 != p:
                    continue
                if _is_canonical_extension(prefix, _codes(adj, prefix), u, umask):
                    expected.append(u)
        assert extend(g, spec, prefix) == expected


def _codes(adj, verts):
    """Each vertex's adjacency bit-set to the positions before it."""
    return [sum(1 << i for i, v in enumerate(verts[:d]) if u in adj[v])
            for d, u in enumerate(verts)]


def _greedy_order(adj, verts):
    """The greedy canonical sequence of the connected set `verts`: start at
    the minimum, then always take the least vertex adjacent to the prefix."""
    rest = set(verts)
    order = [min(rest)]
    rest.discard(order[0])
    while rest:
        order.append(min(u for u in rest if any(u in adj[v] for v in order)))
        rest.discard(order[-1])
    return order


def _greedy_prefix(rng, adj, size):
    """The greedy sequence of a random connected vertex set of up to `size`."""
    verts = [rng.randrange(len(adj))]
    while len(verts) < size:
        frontier = sorted({u for v in verts for u in adj[v]} - set(verts))
        if not frontier:
            break
        verts.append(rng.choice(frontier))
    return _greedy_order(adj, verts)


def _accepted_sequences(g, k):
    """All embeddings the generic plan enumerates, captured via process."""
    seqs = []
    spec = apps.motif_spec(k, process=lambda e: seqs.append(tuple(e.vertices)))
    mine(g, spec)
    return seqs


class TestOracleEquivalence:
    @pytest.mark.parametrize("k", [3, 4])
    def test_motifs_match_oracle(self, rng, k):
        for _ in range(6):
            g = random_graph(rng, rng.randint(20, 60), rng.uniform(0.05, 0.2))
            counts, _, _ = apps.count_motifs(g, k)
            assert {c: v for c, v in counts.items() if v} == \
                   oracle.count_vertex_induced(g, k)

    def test_subgraph_listing_matches_oracle(self, rng):
        patterns = [named_motifs(4)["diamond"], named_motifs(4)["4-cycle"],
                    named_motifs(4)["tailed-triangle"], wedge()]
        for _ in range(4):
            g = random_graph(rng, rng.randint(15, 40), 0.2)
            for p in patterns:
                count, _ = apps.count_subgraphs(g, p)
                assert count == oracle.count_edge_induced(g, p)

    def test_cliques_match_oracle(self, rng):
        for _ in range(4):
            g = random_graph(rng, rng.randint(15, 50), 0.3)
            for k in (3, 4, 5):
                count, _ = apps.count_cliques(g, k)
                key = canonical_code(clique(k))
                assert count == oracle.count_vertex_induced(g, k).get(key, 0)


@given(seed=st.integers(0, 10 ** 6), k=st.integers(2, 4), labels=st.integers(1, 3))
@settings(max_examples=30, deadline=None)
def test_labeled_motifs_match_oracle(seed, k, labels):
    # a labeled graph keeps the generic plan on the walk, and its pattern
    # keys carry the labels; the oracle's labeled branch is the reference
    rng = random.Random(seed)
    g = random_graph(rng, rng.randint(k, 16), rng.uniform(0.1, 0.5), labels=labels)
    assert mine(g, apps.motif_spec(k)).pattern_map == oracle.count_vertex_induced(g, k)


class TestDeterminismAndToggles:
    def test_worker_counts_identical(self, rng):
        g = random_graph(rng, 50, 0.12)
        base = None
        for w in (1, 2, 4, 8):
            counts, enum, run = apps.count_motifs(g, 4, workers=w)
            snap = (counts, enum, run.accepted)
            if base is None:
                base = snap
            else:
                assert snap == base

    def test_mnc_toggle_neutral(self, rng):
        g = random_graph(rng, 40, 0.15)
        on = mine(g, apps.motif_spec(4), use_mnc=True)
        off = mine(g, apps.motif_spec(4), use_mnc=False)
        assert on.pattern_map == off.pattern_map
        assert on.enumerated == off.enumerated
        assert on.accepted == off.accepted

    def test_df_toggle_counts_only(self, rng):
        g = random_graph(rng, 40, 0.15)
        p = named_motifs(4)["tailed-triangle"]
        on = mine(g, apps.subgraph_listing_spec(p), use_df=True)
        off = mine(g, apps.subgraph_listing_spec(p), use_df=False)
        assert on.pattern_map == off.pattern_map

    def test_orientation_none_matches_dag(self, rng):
        g = random_graph(rng, 40, 0.25)
        for k in (3, 4):
            a, _ = apps.count_cliques(g, k, orientation="auto")
            b, _ = apps.count_cliques(g, k, orientation="none")
            c, _ = apps.count_cliques(g, k, orientation="core")
            assert a == b == c

    @pytest.mark.parametrize("use_mnc", [None, True, False])
    @pytest.mark.parametrize("use_df", [True, False])
    def test_orientation_none_is_the_id_orientation(self, rng, use_df, use_mnc):
        # counts, counters, routes and listed rows of orientation "none" are
        # those of the caller orienting every edge toward the larger id
        for _ in range(6):
            g = random_graph(rng, rng.randint(0, 16), rng.uniform(0.2, 0.9))
            for k in range(1, 7):
                runs = []
                for graph, orientation in ((g, "none"), (orient(g, "id"), "auto")):
                    rows = []
                    r = mine(graph, apps.clique_spec(k, process_rows=rows.append),
                             orientation=orientation, use_df=use_df, use_mnc=use_mnc)
                    runs.append((r.pattern_map, r.enumerated, r.accepted, r.plans,
                                 [row for b in rows for row in b.tolist()]))
                assert runs[0] == runs[1]


class TestHooks:
    def test_terminate_on_first_triangle(self, k4):
        spec = apps.triangle_spec(terminate=lambda emb: True)
        result = mine(k4, spec)
        assert result.terminated
        assert sum(result.pattern_map.values()) >= 1

    def test_terminate_stops_the_walk_at_once(self, k4):
        # roots run in order on one thread, so the hook fires exactly once
        runs = [mine(k4, apps.triangle_spec(terminate=lambda emb: True), workers=w)
                for w in (1, 2)]
        for result in runs:
            assert result.terminated
            assert result.pattern_map == {canonical_code(triangle()): 1}
        assert runs[0].enumerated == runs[1].enumerated

    def test_terminate_skips_later_patterns(self, k4):
        from gpm.engine import ProblemSpec
        spec = ProblemSpec(vertex_induced=True, k=4, patterns=(triangle(), clique(4)),
                           terminate=lambda emb: True)
        result = mine(k4, spec)
        assert result.terminated
        assert result.pattern_map == {canonical_code(triangle()): 1}

    @pytest.mark.parametrize("make", [
        apps.triangle_spec,
        lambda **hooks: apps.clique_spec(4, **hooks),
        lambda **hooks: apps.subgraph_listing_spec(named_motifs(4)["diamond"], **hooks),
        lambda **hooks: apps.motif_spec(3, **hooks),
    ], ids=["triangle", "4-clique", "diamond-match", "motif-3"])
    def test_terminate_keeps_the_counters(self, k4, make):
        # every level below the first embedding has accepted a candidate
        result = mine(k4, make(terminate=lambda emb: True))
        assert result.terminated
        assert result.enumerated >= result.accepted >= 2

    def test_custom_support_and_reduce_default_equivalence(self, k4):
        default, _ = apps.count_triangles(k4)
        spec = apps.triangle_spec(get_support=lambda emb: 1,
                                  reduce=lambda a, b: a + b)
        result = mine(k4, spec)
        assert result.pattern_map[canonical_code(triangle())] == default

    def test_custom_pattern_classifier_symmetric_key(self):
        # labeled wedge keyed by (sorted endpoint labels, center label)
        g = Graph.from_edges(4, [(0, 1), (1, 2), (1, 3)], labels=[0, 1, 2, 0])

        def classify(emb):
            a, b, c = emb.vertices
            _, c1, c2 = emb.codes
            labels = g.labels
            if c2 == 0b01:  # wedge centered at position 0
                ends, center = (labels[b], labels[c]), labels[a]
            elif c2 == 0b10:  # wedge centered at position 1
                ends, center = (labels[a], labels[c]), labels[b]
            else:
                ends, center = (labels[a], labels[b]), labels[c]
            return (tuple(sorted(ends)), center, "tri" if c1 and c2 == 0b11 else "wedge")

        spec = apps.motif_spec(3, get_pattern=classify)
        result = mine(g, spec)
        # wedges 0-1-2 and 2-1-3 share the key ((0,2),1,...); 0-1-3 keys ((0,0),1,...)
        assert result.pattern_map[((0, 2), 1, "wedge")] == 2
        assert result.pattern_map[((0, 0), 1, "wedge")] == 1

    def test_to_add_restricts(self, k4):
        spec = apps.triangle_spec(to_add=lambda emb, u: u != 3)
        result = mine(k4, spec)
        assert result.pattern_map[canonical_code(triangle())] == 1  # only {0,1,2}

    def test_to_extend_last_only_on_clique_graph(self, k5):
        # cliques: restricting extension to the last position keeps counts
        spec = apps.motif_spec(3, to_extend=lambda emb, pos: pos == emb.depth)
        full = mine(k5, apps.motif_spec(3))
        restricted = mine(k5, spec)
        key = canonical_code(triangle())
        assert restricted.pattern_map[key] == full.pattern_map[key]

    def test_listing_delivers_each_once(self, rng):
        g = random_graph(rng, 25, 0.2)
        seen = []
        spec = apps.motif_spec(3, process=lambda emb: seen.append(frozenset(emb.vertices)))
        mine(g, spec)
        assert len(seen) == len(set(seen))
        assert len(seen) == sum(oracle.count_vertex_induced(g, 3).values())


class TestCounters:
    def test_counter_at_least_reported(self, rng):
        g = random_graph(rng, 40, 0.15)
        result = mine(g, apps.motif_spec(4))
        assert result.enumerated >= result.accepted
        assert result.accepted >= sum(result.pattern_map.values())

    def test_implicit_filter(self, rng):
        g = random_graph(rng, 30, 0.2)
        spec = apps.motif_spec(3, is_implicit_pattern=lambda p: len(p.edges) == 3)
        result = mine(g, spec)
        assert set(result.pattern_map) == {canonical_code(triangle())}


def test_closed_form_cliques():
    for n in range(3, 9):
        kn = Graph.from_edges(n, list(combinations(range(n), 2)))
        tc, _ = apps.count_triangles(kn)
        assert tc == comb(n, 3)
        for k in range(2, min(n, 6) + 1):
            c, _ = apps.count_cliques(kn, k)
            assert c == comb(n, k)


def test_debug_mode_clean_run(rng):
    g = random_graph(rng, 30, 0.2)
    result = mine(g, apps.motif_spec(4), debug=True)
    ref = mine(g, apps.motif_spec(4))
    assert result.pattern_map == ref.pattern_map


class TestSpecRouting:
    def test_caller_supplied_oriented_graph(self, k5):
        from gpm.graph import orient
        og = orient(k5, "degree")
        result = mine(og, apps.clique_spec(4))
        assert result.pattern_map[canonical_code(clique(4))] == 5

    def test_oriented_graph_rejected_for_non_clique(self, k5):
        from gpm.graph import orient
        og = orient(k5, "degree")
        with pytest.raises(TypeError):
            mine(og, apps.motif_spec(3))

    def test_multi_pattern_explicit_spec(self, rng):
        from gpm.engine import ProblemSpec
        from gpm.patterns import named_motifs
        names = named_motifs(4)
        targets = (names["4-clique"], names["4-cycle"])
        g = random_graph(rng, 30, 0.25)
        result = mine(g, ProblemSpec(vertex_induced=True, k=4, patterns=targets))
        expect = oracle.count_vertex_induced(g, 4)
        for p in targets:
            key = canonical_code(p)
            assert result.pattern_map.get(key, 0) == expect.get(key, 0)

    def test_vertex_induced_explicit_single_pattern(self, rng):
        from gpm.engine import ProblemSpec
        p = named_motifs(4)["tailed-triangle"]
        for _ in range(5):
            g = random_graph(rng, 25, 0.25)
            result = mine(g, ProblemSpec(vertex_induced=True, k=4, patterns=(p,)))
            expect = oracle.count_vertex_induced(g, 4).get(canonical_code(p), 0)
            assert result.pattern_map.get(canonical_code(p), 0) == expect

    def test_spec_validation(self):
        from gpm.engine import ProblemSpec
        with pytest.raises(ValueError, match="nonempty"):
            ProblemSpec(vertex_induced=True, k=3, explicit=True, patterns=())
        with pytest.raises(ValueError, match="k must be"):
            ProblemSpec(vertex_induced=True, k=0, explicit=False)


class TestLabeledMatching:
    def test_labeled_pattern_counts_match_oracle(self, rng):
        from gpm.patterns import Pattern
        for _ in range(8):
            n = rng.randint(8, 30)
            g = random_graph(rng, n, 0.25, labels=2)
            # labeled wedge: distinct end labels pin the orientation
            p = Pattern(3, [(0, 1), (1, 2)], labels=(0, 1, 0))
            from gpm.engine import ProblemSpec
            spec = ProblemSpec(vertex_induced=False, k=2, patterns=(p,))
            result = mine(g, spec)
            got = result.pattern_map.get(canonical_code(p), 0)
            assert got == oracle.count_edge_induced(g, p)

    def test_labeled_triangle_patterns(self, rng):
        from gpm.patterns import Pattern
        for labels in [(0, 0, 1), (0, 1, 1), (0, 0, 0)]:
            p = Pattern(3, [(0, 1), (1, 2), (0, 2)], labels=labels)
            for _ in range(3):
                g = random_graph(rng, 20, 0.35, labels=2)
                count, _ = apps.count_subgraphs(g, p)
                assert count == oracle.count_edge_induced(g, p)

    def test_motif_counts_ignore_labels(self, rng):
        from gpm.graph import Graph
        g = random_graph(rng, 25, 0.25, labels=3)
        plain = Graph(g.vertex_count, g.row_offsets, g.neighbors)
        for k in (3, 4):
            a, _, _ = apps.count_motifs(g, k)
            b, _, _ = apps.count_motifs(plain, k)
            assert a == b

    @pytest.mark.parametrize("labeled_clique", [False, True])
    def test_labeled_pattern_on_unlabeled_graph_refused(self, rng, labeled_clique):
        from gpm.patterns import Pattern
        g = random_graph(rng, 12, 0.4)
        p = (Pattern(3, [(0, 1), (1, 2), (0, 2)], labels=(0, 0, 1)) if labeled_clique
             else Pattern(2, [(0, 1)], labels=(0, 1)))
        # refused before any plan runs, even after an unlabeled pattern
        both = replace(apps.subgraph_listing_spec(wedge(), process=lambda emb: pytest.fail("ran")),
                       patterns=(wedge(), p))
        for spec in (apps.subgraph_listing_spec(p), both):
            with pytest.raises(ValueError, match="vertex labels but the graph has none"):
                mine(g, spec)


def test_count_motifs_checks_k_before_mining(monkeypatch):
    def no_mining(*args, **kwargs):
        pytest.fail("mined")

    monkeypatch.setattr(apps, "mine", no_mining)
    g = random_graph(random.Random(3), 10, 0.5)
    for level in ("hi", "lo"):
        for k in (2, 6):
            with pytest.raises(ValueError, match="3 <= k <= 5"):
                apps.count_motifs(g, k, level=level)


def test_count_cliques_checks_k_before_building_a_pattern(monkeypatch):
    def no_pattern(k):
        pytest.fail("built a pattern")

    monkeypatch.setattr(apps, "clique", no_pattern)
    g = random_graph(random.Random(3), 10, 0.5)
    for level in ("hi", "lo"):
        for k in (256, 10 ** 5):
            with pytest.raises(ValueError, match=f"<= 255, got {k}"):
                apps.count_cliques(g, k, level=level)


@pytest.mark.parametrize("count", [apps.count_cliques, apps.count_motifs],
                         ids=["cliques", "motifs"])
@pytest.mark.parametrize("k", [3, 4])
def test_level_other_than_hi_or_lo_refused(monkeypatch, count, k):
    monkeypatch.setattr(apps, "mine", lambda *args, **kwargs: pytest.fail("mined"))
    g = random_graph(random.Random(3), 10, 0.5)
    with pytest.raises(ValueError, match="level must be 'hi' or 'lo', got 'middle'"):
        count(g, k, level="middle")


@pytest.mark.parametrize("spec", [apps.motif_spec(3), apps.subgraph_listing_spec(wedge())],
                         ids=["motif", "match"])
def test_unknown_orientation_refused(spec):
    g = random_graph(random.Random(3), 10, 0.5)
    with pytest.raises(ValueError, match="unknown orientation 'bogus'"):
        mine(g, spec, orientation="bogus")
    with pytest.raises(ValueError, match="unknown orientation 'bogus'"):
        extend(g, spec, [0], orientation="bogus")
    assert mine(g, spec, orientation="id").pattern_map == mine(g, spec).pattern_map


@pytest.mark.parametrize("level", ["hi", "lo"])
@pytest.mark.parametrize("k", [3, 4])
def test_count_motifs_workers_default_to_the_environment(monkeypatch, level, k):
    monkeypatch.setenv("GPM_THREADS", "3")
    g = random_graph(random.Random(4), 12, 0.4)
    assert apps.count_motifs(g, k, level=level)[2].workers == 3
    assert apps.count_motifs(g, k, level=level, workers=2)[2].workers == 2


def _pinned_graph():
    # Erdős–Rényi core plus a pendant vertex and a pendant path, so the
    # degree filters have something to reject
    rng = random.Random(20260418)
    edges = [(a, b) for a in range(45) for b in range(a + 1, 45) if rng.random() < 0.18]
    return Graph.from_edges(48, edges + [(0, 45), (1, 46), (46, 47)])


@pytest.mark.parametrize("spec, plan, expect", [
    (apps.triangle_spec(), "_CliquePlan", (655, 293, 103)),
    (apps.clique_spec(4), "_CliquePlan", (770, 304, 12)),
    (apps.subgraph_listing_spec(named_motifs(4)["4-cycle"]), "_MatchPlan", (6205, 1263, 532)),
    (apps.motif_spec(4), "_GenericPlan", (29360, 12239, 10699)),
    (apps.clique_local_spec(4), "_LocalPlan", (304, 304, 12)),
], ids=["triangle", "clique", "match", "generic", "local"])
def test_plan_counters_pinned(monkeypatch, spec, plan, expect):
    import gpm.engine
    ran = []
    run_plan = gpm.engine._run_plan

    def record(p):
        ran.append(type(p).__name__)
        return run_plan(p)

    monkeypatch.setattr(gpm.engine, "_run_plan", record)
    g = _pinned_graph()
    for workers in (1, 2):
        result = mine(g, spec, workers=workers)
        assert (result.enumerated, result.accepted, sum(result.pattern_map.values())) == expect
    assert ran == [plan, plan]


def _sequences_by_extend(g, spec, size):
    seqs = []

    def grow(prefix):
        if len(prefix) == size:
            seqs.append(tuple(prefix))
            return
        for u in extend(g, spec, prefix):
            grow(prefix + [u])

    for root in range(g.vertex_count):
        grow([root])
    return seqs


_EXTEND_CASES = [
    ("triangle", lambda **h: apps.triangle_spec(**h), 3),
    ("4-clique", lambda **h: apps.clique_spec(4, **h), 4),
    ("diamond", lambda **h: apps.subgraph_listing_spec(named_motifs(4)["diamond"], **h), 4),
    ("4-cycle", lambda **h: apps.subgraph_listing_spec(named_motifs(4)["4-cycle"], **h), 4),
    ("motif3", lambda **h: apps.motif_spec(3, **h), 3),
    ("motif4", lambda **h: apps.motif_spec(4, **h), 4),
    ("local-4-clique", lambda **h: apps.clique_local_spec(4, **h), 4),
]


@given(seed=st.integers(0, 10 ** 6))
@settings(max_examples=25, deadline=None)
def test_extend_replays_the_walk(seed):
    # every sequence mine() lists is reached by extend() from its root, in
    # the same order, and nothing else is
    rng = random.Random(seed)
    n = rng.randint(1, 12)
    g = random_graph(rng, n, rng.uniform(0.15, 0.7))
    for name, make, size in _EXTEND_CASES:
        listed = []
        mine(g, make(process=lambda emb: listed.append(tuple(emb.vertices))),
             use_df=False, workers=1)
        assert _sequences_by_extend(g, make(), size) == listed, name


def test_extend_runs_the_local_graph_walk():
    # the local graph is shrunk only below depth 2, which the small graphs
    # above rarely reach; extend() must build and shrink the
    # root's local graph as mine() does
    g = random_graph(random.Random(3), 30, 0.4)
    listed = []
    mine(g, apps.clique_local_spec(4, process=lambda emb: listed.append(tuple(emb.vertices))),
         use_df=False)
    roots = []

    def init_local(og, root):
        roots.append(root)
        return localgraph.init_local_graph(og, root)

    assert len(listed) == 133
    spec = replace(apps.clique_local_spec(4), init_local=init_local)
    assert _sequences_by_extend(g, spec, 4) == listed
    assert roots and set(roots) == set(range(g.vertex_count))


@pytest.mark.parametrize("make, graph, prefix, allowed", [
    (lambda **h: apps.triangle_spec(**h), "k4", [0, 1], [2, 3]),
    (lambda **h: apps.clique_spec(4, **h), "k4", [0, 1], [2, 3]),
    (lambda **h: apps.subgraph_listing_spec(named_motifs(4)["diamond"], **h),
     "diamond_graph", [1], [2, 3]),
    (lambda **h: apps.motif_spec(3, **h), "path3", [0, 1], [2]),
], ids=["triangle", "clique", "match", "generic"])
def test_extend_honours_to_add(request, make, graph, prefix, allowed):
    g = request.getfixturevalue(graph)
    assert sorted(extend(g, make(), prefix)) == allowed
    veto = allowed[-1]
    seen = []

    def to_add(emb, u):
        seen.append(list(emb.vertices))
        return u != veto

    assert sorted(extend(g, make(to_add=to_add), prefix)) == allowed[:-1]
    assert seen and all(v == prefix for v in seen)


def test_raising_hook_propagates():
    # the first error ends the walk and reaches the caller; nothing runs after it
    calls = []

    def to_add(emb, u):
        calls.append(u)
        raise RuntimeError("boom")

    g = Graph.from_edges(5, [(a, b) for a in range(5) for b in range(a + 1, 5)])
    with pytest.raises(RuntimeError, match="boom"):
        mine(g, apps.triangle_spec(to_add=to_add), workers=2)
    assert len(calls) == 1


def test_public_names_resolve():
    import gpm
    assert len(gpm.__all__) == len(set(gpm.__all__))
    assert [name for name in gpm.__all__ if not hasattr(gpm, name)] == []


@pytest.mark.parametrize("run, message", [
    (lambda g: mine(g, apps.motif_spec(3), workers=0), "workers must be >= 1"),
    (lambda g: extend(g, ProblemSpec(vertex_induced=True, k=3, patterns=(triangle(), wedge())),
                      [0]), "extend needs a single-pattern spec"),
    (lambda g: extend(g, ProblemSpec(vertex_induced=False, k=2, explicit=False), [0]),
     "extend supports vertex-induced problems"),
    (lambda g: mine(g, replace(apps.clique_local_spec(3), patterns=(wedge(),))),
     "local-graph search is wired for single explicit cliques"),
], ids=["workers-0", "extend-two-patterns", "extend-edge-induced", "init-local-non-clique"])
def test_library_refusals(run, message):
    g = random_graph(random.Random(3), 10, 0.5)
    with pytest.raises(ValueError, match=f"^{message}$"):
        run(g)


def test_non_clique_pattern_on_an_oriented_graph_is_refused():
    g = orient(random_graph(random.Random(3), 10, 0.5), "degree")
    with pytest.raises(TypeError, match="^non-clique patterns need the undirected graph$"):
        mine(g, apps.subgraph_listing_spec(wedge()))
