import random
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gpm.dfscode import (backward_targets, code_vertex_count, decode, extension_key,
                         is_min_extension, min_dfs_code, render_code, rightmost_path)
from gpm.patterns import Pattern, canonical_code


def _all_dfs_codes(pattern):
    """Every DFS code of a small pattern, by explicit walk enumeration."""
    labels = pattern.labels if pattern.labels is not None else (0,) * pattern.vertex_count
    adj = pattern.adjacency_sets()
    n_edges = pattern.edge_count()
    out = []

    def walk(code, assign, used):
        if len(code) == n_edges:
            out.append(tuple(code))
            return
        rmp = rightmost_path(code) if code else []
        nv = 1 + max(max(e[0], e[1]) for e in code) if code else 0
        r = rmp[0] if rmp else None
        # backward edges from the rightmost vertex
        if code:
            vr = assign[r]
            for p in rmp[1:]:
                vp = assign[p]
                e = (min(vr, vp), max(vr, vp))
                if vp in adj[vr] and e not in used:
                    code.append((r, p, labels[vr], labels[vp]))
                    used.add(e)
                    walk(code, assign, used)
                    used.discard(e)
                    code.pop()
            for p in rmp:
                vp = assign[p]
                for w in sorted(adj[vp]):
                    if w in assign.values():
                        continue
                    code.append((p, nv, labels[vp], labels[w]))
                    assign[nv] = w
                    used.add((min(vp, w), max(vp, w)))
                    walk(code, assign, used)
                    used.discard((min(vp, w), max(vp, w)))
                    del assign[nv]
                    code.pop()
        else:
            for u in range(pattern.vertex_count):
                for v in sorted(adj[u]):
                    code.append((0, 1, labels[u], labels[v]))
                    walk(code, {0: u, 1: v}, {(min(u, v), max(u, v))})
                    code.pop()

    walk([], {}, set())
    return out


def _edge_lt(a, b):
    """gSpan's pairwise order on code edges, kept as the reference that
    `extension_key` must agree with."""
    ia, ja = a[0], a[1]
    ib, jb = b[0], b[1]
    afwd = ia < ja
    bfwd = ib < jb
    if afwd != bfwd:
        if not afwd:
            return ia < jb
        return ja <= ib
    if not afwd:
        if ia != ib:
            return ia < ib
        if ja != jb:
            return ja < jb
        return a[2:] < b[2:]
    if ja != jb:
        return ja < jb
    if ia != ib:
        return ia > ib
    return a[2:] < b[2:]


def _lex_min(codes):
    # two codes first differ at edges that extend the same prefix
    return min(codes, key=lambda code: [extension_key(e) for e in code])


def _random_labeled_pattern(rng, k, n_labels=2):
    from itertools import combinations
    while True:
        edges = [e for e in combinations(range(k), 2) if rng.random() < 0.6]
        try:
            return Pattern(k, edges, labels=[rng.randrange(n_labels) for _ in range(k)])
        except ValueError:
            continue


class TestMinCode:
    def test_single_edge_minimal(self):
        p = Pattern(2, [(0, 1)], labels=(0, 1))
        assert min_dfs_code(p) == ((0, 1, 0, 1),)
        assert is_min_extension(((0, 1, 0, 1),))
        assert not is_min_extension(((0, 1, 1, 0),))

    def test_triangle_minimum_over_all_walks(self):
        p = Pattern(3, [(0, 1), (1, 2), (0, 2)], labels=(1, 0, 1))
        codes = _all_dfs_codes(p)
        assert min_dfs_code(p) == _lex_min(codes)

    def test_isomorphic_wedges_same_code(self):
        a = Pattern(3, [(0, 1), (1, 2)], labels=(0, 1, 0))
        b = Pattern(3, [(2, 1), (1, 0)], labels=(0, 1, 0))
        c = Pattern(3, [(1, 0), (0, 2)], labels=(1, 0, 1))  # center label 0
        assert min_dfs_code(a) == min_dfs_code(b)
        assert min_dfs_code(a) != min_dfs_code(c)

    @given(seed=st.integers(0, 10 ** 6), k=st.integers(2, 5))
    @settings(max_examples=40, deadline=None)
    def test_min_is_least_of_all_walks(self, seed, k):
        rng = random.Random(seed)
        p = _random_labeled_pattern(rng, k)
        codes = _all_dfs_codes(p)
        assert min_dfs_code(p) == _lex_min(codes)

    @given(seed=st.integers(0, 10 ** 6), k=st.integers(2, 5))
    @settings(max_examples=40, deadline=None)
    def test_is_min_agrees_with_recomputation(self, seed, k):
        rng = random.Random(seed)
        p = _random_labeled_pattern(rng, k)
        codes = _all_dfs_codes(p)
        mn = _lex_min(codes)
        for code in codes[:40]:
            assert is_min_extension(code) == (code == mn)

    @given(seed=st.integers(0, 10 ** 6), k=st.integers(2, 5))
    @settings(max_examples=30, deadline=None)
    def test_decode_roundtrip(self, seed, k):
        rng = random.Random(seed)
        p = _random_labeled_pattern(rng, k)
        code = min_dfs_code(p)
        q = decode(code)
        assert canonical_code(p) == canonical_code(q)
        assert min_dfs_code(q) == code

    def test_isomorphism_invariance(self):
        rng = random.Random(7)
        for _ in range(25):
            p = _random_labeled_pattern(rng, rng.randint(2, 5))
            perm = list(range(p.vertex_count))
            rng.shuffle(perm)
            edges = [(perm[u], perm[v]) for u, v in p.edges]
            labels = [0] * p.vertex_count
            for v in range(p.vertex_count):
                labels[perm[v]] = p.labels[v]
            q = Pattern(p.vertex_count, edges, labels=labels)
            assert min_dfs_code(p) == min_dfs_code(q)


_code_edges = st.tuples(st.integers(0, 4), st.integers(0, 4), st.integers(0, 2),
                        st.integers(0, 2))


@given(code=st.lists(_code_edges, min_size=2, max_size=6))
@settings(max_examples=300, deadline=None)
def test_is_min_extension_on_any_code(code):
    # the verdict of growing the decoded pattern's minimal code against
    # `code`, or the ValueError of a code that is not a connected pattern
    code = tuple(code)
    try:
        mn = min_dfs_code(decode(code))
        want = code[:len(mn)] == mn
    except ValueError:
        want = ValueError
    try:
        got = is_min_extension(code)
    except ValueError:
        got = ValueError
    assert got == want


@given(seed=st.integers(0, 10 ** 6), k=st.integers(2, 5))
@settings(max_examples=40, deadline=None)
def test_extension_key_agrees_with_the_pairwise_rule(seed, k):
    # every syntactic extension of every prefix of a minimal code, in pairs
    rng = random.Random(seed)
    code = min_dfs_code(_random_labeled_pattern(rng, k, n_labels=3))
    for n in range(1, len(code) + 1):
        prefix = code[:n]
        labels = decode(prefix).labels
        rmp, nv = rightmost_path(prefix), code_vertex_count(prefix)
        exts = [(rmp[0], p, labels[rmp[0]], labels[p]) for p in rmp[1:]]
        exts += [(p, nv, labels[p], l) for p in rmp for l in range(3)]
        for a, b in permutations(exts, 2):
            assert _edge_lt(a, b) == (extension_key(a) < extension_key(b))


def test_backward_targets():
    # the rightmost vertex 3 is joined to 2 (forward) and 0 (backward)
    code = ((0, 1, 0, 0), (1, 2, 0, 0), (2, 3, 0, 0), (3, 0, 0, 0))
    assert backward_targets(code, rightmost_path(code)) == [1]


def test_edge_count_bound():
    with pytest.raises(ValueError, match="bound"):
        min_dfs_code(Pattern(6, [(a, b) for a in range(6) for b in range(a + 1, 6)]))


def test_edgeless_pattern_refused():
    with pytest.raises(ValueError, match="^DFS codes require at least one edge$"):
        min_dfs_code(Pattern(1, []))


def test_rightmost_path():
    code = ((0, 1, 0, 0), (1, 2, 0, 0), (2, 0, 0, 0), (1, 3, 0, 0))
    assert rightmost_path(code) == [3, 1, 0]


def test_render_code():
    code = ((0, 1, 0, 1), (1, 2, 1, 0))
    assert render_code(code, ("A", "B")) == "(0,1,A,B)(1,2,B,A)"
    assert render_code(code) == "(0,1,0,1)(1,2,1,0)"
