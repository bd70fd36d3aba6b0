import random
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gpm import patterns
from gpm.graph import GraphParseError
from gpm.patterns import (Pattern, all_patterns, automorphisms, canonical_code, clique,
                          cycle, is_clique, load_pattern, matching_order, motif_name,
                          named_motifs, path, star, triangle, wedge)


def _relabel(p, perm):
    edges = [(perm[u], perm[v]) for u, v in p.edges]
    labels = None
    if p.labels is not None:
        labels = [None] * p.vertex_count
        for v in range(p.vertex_count):
            labels[perm[v]] = p.labels[v]
    return Pattern(p.vertex_count, edges, labels=labels)


def _random_connected_pattern(rng, k, labeled=False, density=0.5):
    while True:
        edges = [e for e in combinations(range(k), 2) if rng.random() < density]
        try:
            labels = [rng.randrange(3) for _ in range(k)] if labeled else None
            return Pattern(k, edges, labels=labels)
        except ValueError:
            continue


class TestPattern:
    def test_rejects_disconnected(self):
        with pytest.raises(ValueError, match="connected"):
            Pattern(4, [(0, 1), (2, 3)])

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError, match="self loop"):
            Pattern(2, [(0, 0)])

    def test_huge_vertex_count_refused_at_once(self, monkeypatch):
        # a connected pattern on k vertices has at least k - 1 edges, so this
        # is refused before any per-vertex list is built
        for name in ("adjacency", "adjacency_sets"):
            monkeypatch.setattr(Pattern, name, lambda self: pytest.fail("built adjacency"))
        with pytest.raises(ValueError, match="pattern must be connected"):
            Pattern(10 ** 12, [(0, 1)])

    def test_is_clique(self):
        assert is_clique(triangle())
        assert is_clique(clique(5))
        assert not is_clique(named_motifs(4)["diamond"])


class TestCanonicalCode:
    def test_triangle_numbering_invariant(self):
        a = Pattern(3, [(0, 1), (1, 2), (0, 2)])
        b = Pattern(3, [(2, 0), (0, 1), (2, 1)])
        assert canonical_code(a) == canonical_code(b)

    def test_wedge_differs_from_triangle(self):
        assert canonical_code(wedge()) != canonical_code(triangle())

    def test_diamond_differs_from_cycle(self):
        assert canonical_code(named_motifs(4)["diamond"]) != canonical_code(cycle(4))

    def test_labels_respected(self):
        a = Pattern(2, [(0, 1)], labels=(0, 1))
        b = Pattern(2, [(0, 1)], labels=(1, 0))
        c = Pattern(2, [(0, 1)], labels=(0, 0))
        assert canonical_code(a) == canonical_code(b)
        assert canonical_code(a) != canonical_code(c)

    def test_label_width(self):
        # labels below 256 keep one byte each; any larger label switches the
        # whole code to four big-endian bytes per label
        assert canonical_code(Pattern(2, [(0, 1)], labels=(7, 3))) == bytes([2, 1, 3, 7])
        wide = canonical_code(Pattern(2, [(0, 1)], labels=(300, 3)))
        assert wide == bytes([2, 1]) + (3).to_bytes(4, "big") + (300).to_bytes(4, "big")

    def test_labels_above_255_in_implicit_mining(self):
        from gpm.engine import ProblemSpec, mine
        from gpm.graph import Graph
        n = 400
        g = Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)], labels=list(range(n)))
        result = mine(g, ProblemSpec(vertex_induced=True, k=3, explicit=False))
        # every labelled wedge of the cycle is its own pattern
        assert len(result.pattern_map) == n
        assert set(result.pattern_map.values()) == {1}

    @given(k=st.integers(3, 6), seed=st.integers(0, 10 ** 6))
    @settings(max_examples=60, deadline=None)
    def test_matches_brute_force_isomorphism(self, k, seed):
        rng = random.Random(seed)
        p1 = _random_connected_pattern(rng, k)
        p2 = _random_connected_pattern(rng, k)
        same_code = canonical_code(p1) == canonical_code(p2)
        iso = _brute_isomorphic(p1, p2)
        assert same_code == iso

    @given(k=st.integers(2, 6), seed=st.integers(0, 10 ** 6))
    @settings(max_examples=60, deadline=None)
    def test_relabeling_invariance(self, k, seed):
        rng = random.Random(seed)
        p = _random_connected_pattern(rng, k, labeled=True)
        perm = list(range(k))
        rng.shuffle(perm)
        assert canonical_code(p) == canonical_code(_relabel(p, perm))


def _brute_isomorphic(p1, p2):
    if p1.vertex_count != p2.vertex_count or len(p1.edges) != len(p2.edges):
        return False
    e2 = set(p2.edges)
    for perm in permutations(range(p1.vertex_count)):
        if all((min(perm[u], perm[v]), max(perm[u], perm[v])) in e2
               for u, v in p1.edges):
            return True
    return False


def _orbits(p):
    """Vertex orbits under `automorphisms(p)`, as sorted tuples."""
    group = automorphisms(p)
    return sorted({tuple(sorted({perm[v] for perm in group}))
                   for v in range(p.vertex_count)})


class TestOrbits:
    def test_triangle_single_orbit(self):
        assert _orbits(triangle()) == [(0, 1, 2)]

    def test_cycle4_single_orbit(self):
        assert _orbits(cycle(4)) == [(0, 1, 2, 3)]

    def test_diamond_two_orbits(self):
        p = named_motifs(4)["diamond"]  # chord ends 1, 2 have degree 3
        assert _orbits(p) == [(0, 3), (1, 2)]

    def test_orbit_members_equivalent(self):
        p = named_motifs(4)["tailed-triangle"]
        orbits = {frozenset(o) for o in _orbits(p)}
        degrees = {frozenset(v for v in range(4) if p.degree(v) == d)
                   for d in {p.degree(v) for v in range(4)}}
        assert orbits == degrees

    @pytest.mark.parametrize("p, size", [
        (triangle(), 6), (cycle(4), 8), (named_motifs(4)["diamond"], 4),
        (named_motifs(4)["tailed-triangle"], 2),
    ], ids=["triangle", "C4", "diamond", "tailed-triangle"])
    def test_group_size_and_edges_preserved(self, p, size):
        group = automorphisms(p)
        assert len(group) == len(set(group)) == size
        for perm in group:
            assert sorted(tuple(sorted((perm[u], perm[v]))) for u, v in p.edges) \
                == sorted(p.edges)

    @given(k=st.integers(2, 6), seed=st.integers(0, 10 ** 6), labeled=st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_automorphisms_are_the_preserving_permutations(self, k, seed, labeled):
        p = _random_connected_pattern(random.Random(seed), k, labeled=labeled)
        edges = set(p.edges)
        brute = tuple(perm for perm in permutations(range(k))
                      if {tuple(sorted((perm[u], perm[v]))) for u, v in edges} == edges
                      and (p.labels is None or all(p.labels[perm[v]] == p.labels[v]
                                                   for v in range(k))))
        assert automorphisms(p) == brute

    def test_code_and_automorphisms_share_one_scan(self, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(args)
            return permutations(*args)

        monkeypatch.setattr(patterns, "permutations", counted)
        # labels no other test uses, so the pattern is in no cache
        p = Pattern(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (0, 3)],
                    labels=(7001, 7002, 7001, 7002, 7001, 7002))
        canonical_code(p)
        automorphisms(p)
        assert len(calls) == 1

    def test_labeled_clique_scans_no_edge_bits(self, monkeypatch):
        # every relabeling of a clique has all its edges
        calls = []

        def counted(*args):
            calls.append(args)
            return edge_bits(*args)

        edge_bits = patterns._edge_bits
        monkeypatch.setattr(patterns, "_edge_bits", counted)
        # labels no other test uses, so the pattern is in no cache
        labels = (7101, 7102) * 3 + (7101,)
        p = Pattern(7, list(combinations(range(7), 2)), labels=labels)
        want = tuple(perm for perm in permutations(range(7))
                     if all(labels[perm[v]] == labels[v] for v in range(7)))
        assert automorphisms(p) == want
        assert len(want) == 4 * 3 * 2 * 3 * 2 and not calls


class TestSymmetryOrders:
    def test_triangle_identity(self):
        # (0, 2) follows from the other two, so the reduction drops it
        assert matching_order(triangle()).orders == ((0, 1), (1, 2))

    def test_single_edge(self):
        assert matching_order(Pattern(2, [(0, 1)])).orders == ((0, 1),)

    def test_diamond_chosen_order_constrains_first_pair(self):
        p = named_motifs(4)["diamond"]
        mo = matching_order(p)
        assert (0, 1) in mo.orders

    @given(seed=st.integers(0, 10 ** 6), k=st.integers(2, 5), labeled=st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_exactly_one_sequence_per_class(self, seed, k, labeled):
        """Engine-free uniqueness check: the constrained sequence count must
        equal the number of embeddings divided by the automorphism count.
        """
        rng = random.Random(seed)
        pattern = _random_connected_pattern(rng, k, labeled=labeled)
        n = rng.randint(k, 8)
        g_edges = {(a, b) for a in range(n) for b in range(a + 1, n)
                   if rng.random() < 0.5}
        g_labels = [rng.choice(pattern.labels) for _ in range(n)] if labeled else None
        adj = {v: set() for v in range(n)}
        for a, b in g_edges:
            adj[a].add(b)
            adj[b].add(a)
        mo = matching_order(pattern)
        seq = mo.sequence
        p_adj = pattern.adjacency_sets()

        # ordered induced embeddings along the matching order; the order
        # constraints must accept exactly one per automorphism class
        total = 0
        accepted = 0
        for perm in permutations(range(n), k):
            ok = all((perm[b] in adj[perm[a]]) == (seq[b] in p_adj[seq[a]])
                     for a in range(k) for b in range(a + 1, k))
            if labeled:
                ok = ok and all(g_labels[perm[i]] == pattern.labels[seq[i]] for i in range(k))
            if not ok:
                continue
            total += 1
            if all(perm[i] < perm[j] for i, j in mo.orders):
                accepted += 1
        aut = len(automorphisms(pattern))
        assert total % aut == 0
        assert accepted == total // aut

    @given(seed=st.integers(0, 10 ** 6), k=st.integers(6, 8), labeled=st.booleans(),
           density=st.sampled_from([0.3, 0.5, 0.7]))
    @settings(max_examples=100, deadline=None)
    def test_exactly_one_sequence_per_class_up_to_8_vertices(self, seed, k, labeled, density):
        """The graph is the pattern under a random relabeling, so its ordered
        embeddings along the matching order are the relabeled automorphisms;
        the orders must accept exactly one of them."""
        rng = random.Random(seed)
        pattern = _random_connected_pattern(rng, k, labeled=labeled, density=density)
        ids = list(range(k))
        rng.shuffle(ids)
        graph = _relabel(pattern, ids)
        group = automorphisms(pattern)
        mo = matching_order(pattern)
        embeddings = {tuple(ids[perm[v]] for v in mo.sequence) for perm in group}
        assert len(embeddings) == len(group)
        for emb in embeddings:
            assert all(tuple(sorted((emb[i], emb[j]))) in graph.edges
                       for i, req in enumerate(mo.required) for j in req)
            assert not labeled or all(graph.labels[emb[i]] == pattern.labels[v]
                                      for i, v in enumerate(mo.sequence))
        accepted = [emb for emb in embeddings if all(emb[i] < emb[j] for i, j in mo.orders)]
        assert len(accepted) == 1


class TestMatchingOrder:
    def test_computes_no_canonical_code(self, monkeypatch, rng):
        monkeypatch.setattr(patterns, "canonical_code",
                            lambda p: pytest.fail("computed a canonical code"))
        labeled = Pattern(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 2)],
                          labels=(0, 1, 1, 0, 1))
        for p in (labeled, cycle(6), _random_connected_pattern(rng, 7)):
            mo = matching_order(p)
            assert sorted(mo.sequence) == list(range(p.vertex_count))

    def test_diamond_triangle_first(self):
        p = named_motifs(4)["diamond"]
        mo = matching_order(p)
        assert [p.degree(v) for v in mo.sequence[:2]] == [3, 3]
        prefix = set(mo.sequence[:3])
        prefix_edges = [e for e in p.edges if e[0] in prefix and e[1] in prefix]
        assert len(prefix_edges) == 3  # triangle matched first

    def test_triangle_deterministic(self):
        assert matching_order(triangle()) == matching_order(triangle())
        assert matching_order(triangle()).sequence == (0, 1, 2)

    def test_clique_levels_fully_connected(self):
        mo = matching_order(clique(4))
        for i in range(1, 4):
            assert mo.required[i] == frozenset(range(i))

    def test_connected_extension_invariant(self, rng):
        for _ in range(20):
            p = _random_connected_pattern(rng, rng.randint(2, 5))
            mo = matching_order(p)
            for i in range(1, p.vertex_count):
                assert mo.required[i], f"position {i} has no earlier neighbor"

    def test_cycle4_wedge_core(self):
        mo = matching_order(cycle(4))
        # the first three matched vertices form a wedge whose closing vertex
        # is constrained by two required adjacencies
        assert mo.required[3] and len(mo.required[3]) == 2


class TestAllPatterns:
    @pytest.mark.parametrize("k,count", [(3, 2), (4, 6), (5, 21)])
    def test_counts(self, k, count):
        ps = all_patterns(k)
        assert len(ps) == count
        codes = {canonical_code(p) for p in ps}
        assert len(codes) == count

    def test_bounds(self):
        with pytest.raises(ValueError):
            all_patterns(2)
        with pytest.raises(ValueError):
            all_patterns(6)

    def test_named_motifs_complete(self):
        for k in (3, 4):
            names = named_motifs(k)
            assert {canonical_code(p) for p in names.values()} == \
                   {canonical_code(p) for p in all_patterns(k)}


def test_motif_names():
    assert motif_name(canonical_code(triangle())) == "triangle"
    assert motif_name(canonical_code(named_motifs(4)["diamond"])) == "diamond"
    code5 = canonical_code(star(4))
    assert motif_name(code5) == code5.hex()


def test_load_pattern(tmp_path):
    p = tmp_path / "pat.el"
    p.write_text("0 1\n0 2\n1 2\n")
    pat = load_pattern(str(p))
    assert canonical_code(pat) == canonical_code(triangle())

    q = tmp_path / "lab.el"
    q.write_text("v 0 A\nv 1 B\nv 2 A\n0 1\n1 2\n")
    pat = load_pattern(str(q))
    assert pat.labels == (0, 1, 0)


def test_load_pattern_names_at_most_five_missing_labels(tmp_path):
    q = tmp_path / "path.el"
    q.write_text("v 0 A\n" + "".join(f"{i} {i + 1}\n" for i in range(19)))
    with pytest.raises(GraphParseError) as exc:
        load_pattern(str(q))
    assert str(exc.value) == f"{q}: pattern labels missing for vertices [1, 2, 3, 4, 5]..."


def test_load_pattern_refuses_a_huge_vertex_id_at_once(tmp_path, monkeypatch):
    for name in ("adjacency", "adjacency_sets"):
        monkeypatch.setattr(Pattern, name, lambda self: pytest.fail("built adjacency"))
    for text in ("0 1\n1 3000000000000\n", "v 0 A\nv 1 B\n0 1\n1 1000000\n"):
        q = tmp_path / "huge.pat"
        q.write_text(text)
        with pytest.raises(GraphParseError) as exc:
            load_pattern(str(q))
        assert str(exc.value) == f"{q}: pattern must be connected"


def test_brute_force_bound_enforced():
    almost = Pattern(9, [e for e in combinations(range(9), 2) if e != (7, 8)])
    with pytest.raises(ValueError, match="brute-force"):
        canonical_code(almost)


def test_brute_force_bound_names_the_size():
    labeled = Pattern(9, list(combinations(range(9), 2)), labels=[0] * 9)
    with pytest.raises(ValueError, match=r"^pattern too large for brute-force automorphisms "
                                         r"\(k=9 > 8\)$"):
        automorphisms(labeled)


def test_large_cliques_bypass_bound():
    # cliques skip the permutation search entirely
    for k in (9, 10, 12):
        code = canonical_code(clique(k))
        assert code[0] == k
    assert canonical_code(clique(9)) != canonical_code(clique(10))
