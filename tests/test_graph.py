import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gpm import graph
from gpm.graph import (CSRGraph, Graph, GraphParseError, OrientedGraph, core_numbers, gather,
                       has_edge, load_edge_list, orient, validate_graph)

from conftest import random_graph


def _write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


class TestLoader:
    def test_path_of_three(self, tmp_path):
        g = load_edge_list(_write(tmp_path, "g.el", "0 1\n1 2\n"))
        assert g.vertex_count == 3
        assert list(g.neighbors_of(0)) == [1]
        assert list(g.neighbors_of(1)) == [0, 2]
        assert list(g.neighbors_of(2)) == [1]

    def test_duplicates_and_self_loops_dropped(self, tmp_path):
        g = load_edge_list(_write(tmp_path, "g.el", "0 1\n1 0\n0 0\n"))
        assert g.vertex_count == 2
        assert g.edge_count == 1
        assert list(g.neighbors_of(0)) == [1]

    def test_complete_graph(self, tmp_path):
        lines = "\n".join(f"{a} {b}" for a in range(4) for b in range(a + 1, 4))
        g = load_edge_list(_write(tmp_path, "k4.el", lines))
        assert all(g.degree(v) == 3 for v in range(4))

    def test_comments_and_blank_lines(self, tmp_path):
        g = load_edge_list(_write(tmp_path, "g.el", "# header\n\n0 1  # trailing\n"))
        assert g.edge_count == 1

    def test_malformed_line_reports_lineno(self, tmp_path):
        with pytest.raises(GraphParseError, match=":2:"):
            load_edge_list(_write(tmp_path, "g.el", "0 1\n0 one\n"))

    def test_wrong_field_count(self, tmp_path):
        with pytest.raises(GraphParseError, match=":1:"):
            load_edge_list(_write(tmp_path, "g.el", "0 1 2\n"))

    def test_label_id_out_of_range(self, tmp_path):
        gpath = _write(tmp_path, "g.el", "0 1\n")
        lpath = _write(tmp_path, "g.lbl", "0 A\n1 B\n7 C\n")
        with pytest.raises(GraphParseError, match="outside graph range"):
            load_edge_list(gpath, labels_path=lpath)

    def test_labels_mapped_dense(self, tmp_path):
        gpath = _write(tmp_path, "g.el", "0 1\n1 2\n")
        lpath = _write(tmp_path, "g.lbl", "0 B\n1 A\n2 B\n")
        g = load_edge_list(gpath, labels_path=lpath)
        assert g.label_names == ("A", "B")
        assert list(g.labels) == [1, 0, 1]

    def test_non_integer_label_id_in_the_line_loop(self, tmp_path):
        # "x" is not a digit, so the file takes the line loop, which names the line
        gpath = _write(tmp_path, "g.el", "0 1\n")
        lpath = _write(tmp_path, "g.lbl", "0 A\nx B\n")
        with pytest.raises(GraphParseError, match=r"g\.lbl:2: non-integer vertex id$"):
            load_edge_list(gpath, labels_path=lpath)

    def test_missing_label_rejected(self, tmp_path):
        gpath = _write(tmp_path, "g.el", "0 1\n1 2\n")
        lpath = _write(tmp_path, "g.lbl", "0 A\n1 A\n")
        with pytest.raises(GraphParseError, match="missing labels"):
            load_edge_list(gpath, labels_path=lpath)

    def test_missing_labels_on_a_huge_id_range(self, tmp_path):
        # the check names the first missing ids without scanning 10**12 ids
        gpath = _write(tmp_path, "g.el", "0 1000000000000\n")
        lpath = _write(tmp_path, "g.lbl", "0 A\n1 A\n")
        with pytest.raises(GraphParseError, match=r"vertices \[2, 3, 4, 5, 6\]\.\.\.$"):
            load_edge_list(gpath, labels_path=lpath)


edge_lists = st.lists(
    st.tuples(st.integers(0, 30), st.integers(0, 30)), min_size=1, max_size=120)


@given(edges=edge_lists)
@settings(max_examples=60, deadline=None)
def test_loaded_graph_invariants(edges):
    n = max(max(u, v) for u, v in edges) + 1
    g = Graph.from_edges(n, edges)
    assert validate_graph(g)


@pytest.mark.parametrize("n, offsets, nbrs, labels, message", [
    (3, [0, 1, 2], [1, 0], None, "bad row_offsets shape"),
    (2, [1, 1, 2], [1, 0], None, "bad row_offsets shape"),
    (2, [0, 2, 1], [1, 0], None, "row_offsets not monotone"),
    (2, [0, 1, 3], [1, 0], None, "row_offsets do not cover neighbors"),
    (2, [0, 1, 2], [2, 0], None, "neighbor id out of range"),
    (3, [0, 2, 3, 4], [2, 1, 0, 0], None, "neighbor list of 0 not strictly ascending"),
    (3, [0, 1, 3, 4], [1, 0, 1, 1], None, "self loop at 1"),
    (3, [0, 1, 2, 3], [1, 0, 0], None, r"edge \(2, 0\) not symmetric"),
    (2, [0, 1, 2], [1, 0], [0, 0, 0], "label array length mismatch"),
], ids=["length", "first-offset", "monotone", "cover", "range", "ascending", "loop",
        "symmetric", "labels"])
def test_validate_graph_refusals(n, offsets, nbrs, labels, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        validate_graph(Graph(n, offsets, nbrs, labels=labels))


def _entry_faults(g):
    """Every per-entry fault of a CSR with sound offsets, by a loop over the
    rows: the reference `validate_graph`'s vectorised checks must agree with."""
    faults = []
    for v in range(g.vertex_count):
        nbrs = g.neighbors_of(v).tolist()
        if any(b <= a for a, b in zip(nbrs, nbrs[1:])):
            faults.append(f"neighbor list of {v} not strictly ascending")
        if v in nbrs:
            faults.append(f"self loop at {v}")
        faults += [f"edge ({v}, {u}) not symmetric" for u in nbrs
                   if v not in g.neighbors_of(u).tolist()]
    return faults


@given(edges=edge_lists, fault=st.sampled_from(["none", "drop", "loop", "reverse"]),
       at=st.integers(0, 10 ** 6))
@settings(max_examples=100, deadline=None)
def test_validate_graph_agrees_with_a_loop_over_the_rows(edges, fault, at):
    n = max(max(u, v) for u, v in edges) + 1
    g = Graph.from_edges(n, edges)
    offsets, nbrs = g.row_offsets.copy(), g.neighbors.copy()
    if len(nbrs) and fault == "drop":  # one direction of one edge
        i = at % len(nbrs)
        nbrs = np.delete(nbrs, i)
        offsets[np.searchsorted(offsets, i, side="right"):] -= 1
    elif len(nbrs) and fault == "loop":
        i = at % len(nbrs)
        nbrs[i] = g.sources()[i]
    elif fault == "reverse":
        v = at % n
        nbrs[offsets[v]:offsets[v + 1]] = nbrs[offsets[v]:offsets[v + 1]][::-1]
    bad = Graph(n, offsets, nbrs)
    faults = _entry_faults(bad)
    try:
        validate_graph(bad)
        got = None
    except ValueError as exc:
        got = str(exc)
    assert got in faults if faults else got is None


@given(edges=edge_lists)
@settings(max_examples=60, deadline=None)
def test_from_edges_takes_pairs_or_an_array(edges):
    n = max(max(u, v) for u, v in edges) + 1
    # reference normalization: a set of (low, high) pairs, loops dropped
    pairs = {(min(u, v), max(u, v)) for u, v in edges if u != v}
    adj = [sorted({b for a, b in pairs if a == v} | {a for a, b in pairs if b == v})
           for v in range(n)]
    for given_edges in (edges, np.array(edges, dtype=np.int64), iter(edges)):
        g = Graph.from_edges(n, given_edges)
        assert [g.neighbors_of(v).tolist() for v in range(n)] == adj


def test_from_edges_names_the_first_edge_out_of_range():
    # the self loop (5, 5) is dropped before the range check, as the loader does
    for edges in ([(0, 1), (5, 5), (4, 0), (1, -2)], np.array([[0, 1], [5, 5], [4, 0], [1, -2]])):
        with pytest.raises(ValueError, match=r"^edge \(4, 0\) outside vertex range 0\.\.2$"):
            Graph.from_edges(3, edges)
    with pytest.raises(ValueError):
        Graph.from_edges(3, [(0, 1, 2)])


# Files for the loader's two paths: clean lines (two ids, or none) take the
# numpy path, and every other line sends the whole file to the line loop.
_IDS = [str(i) for i in range(6)]
_ODD_IDS = ["007", "+1", "-1", "1_0", "\u0663", "x", "#", "# c", "1#2", "é"]
_LABELS = ["A", "B", "7", "10", "A\x00", "x#", "é"]
_BLANKS = [" ", "\t", " \t ", "\x0b", "\x0c", "\x1c", "\xa0"]
_BREAKS = ["\n", "\r", "\r\n"]
# mostly blanks, sometimes a line break that splits the pair
_PAIR_SEPARATORS = [" ", "\t", "  ", " \t", "\r", "\n"]


@pytest.fixture(scope="module")
def parity_dir(tmp_path_factory):
    # one directory for every example; each overwrites the files
    return tmp_path_factory.mktemp("parity")


@st.composite
def _lines(draw, first, second):
    """A text of lines: two clean tokens, or 0-3 tokens of any kind."""
    out = []
    for _ in range(draw(st.integers(0, 6))):
        if draw(st.booleans()):
            line = draw(st.sampled_from(first)) + draw(st.sampled_from(_PAIR_SEPARATORS)) \
                + draw(st.sampled_from(second))
        else:
            tokens = draw(st.lists(st.sampled_from(first + second + _ODD_IDS), max_size=3))
            line = draw(st.sampled_from(_BLANKS)).join(tokens)
        out.append(line + draw(st.sampled_from(_BREAKS)))
    return "".join(out)


def _outcome(load):
    try:
        g = load()
    except GraphParseError as exc:
        return str(exc)
    labels = None if g.labels is None else g.labels.tolist()
    return (g.vertex_count, g.row_offsets.tolist(), g.neighbors.tolist(), labels,
            g.label_names)


def _by_line_loop(path, labels_path=None):
    edges, n = graph._edge_lines(path)
    labels = names = None
    if labels_path is not None:
        labels, names = graph._label_lines(labels_path, n)
    return Graph.from_edges(n, edges, labels=labels, label_names=names)


@given(text=_lines(_IDS, _IDS))
@example(text="0 1\n2 3 4\n5\n")     # a 3-token and a 1-token line pair up
@example(text="0\r1\n")               # "\r" ends a line, as in text mode
@example(text="0 1\r\n\r\n2\t3\r")
@settings(max_examples=300, deadline=None)
def test_fast_edge_path_agrees_with_the_line_loop(parity_dir, text):
    path = parity_dir / "g.el"
    path.write_bytes(text.encode("utf-8"))
    assert _outcome(lambda: load_edge_list(str(path))) == \
        _outcome(lambda: _by_line_loop(str(path)))


@st.composite
def _label_files(draw):
    """A label line per vertex of a 4-vertex graph, in shuffled order with
    drawn separators, often with drawn lines after it or in its place."""
    text = ""
    if draw(st.booleans()):
        for v in draw(st.permutations(range(4))):
            text += (f"{v}{draw(st.sampled_from(_PAIR_SEPARATORS))}{_LABELS[v]}"
                     + draw(st.sampled_from(_BREAKS)))
    return text + draw(_lines(["0", "1", "2", "3"], _LABELS))


@given(text=_label_files())
@example(text="0 A 1\nB\n2 A\n3 B\n")   # a 3-token and a 1-token line pair up
@example(text="0\rA\n1 B\n2 A\n3 B\n")  # "\r" ends a line, as in text mode
@example(text="3 B\r\n0 A\r2\t10\n1 A\n")
@settings(max_examples=300, deadline=None)
def test_fast_label_path_agrees_with_the_line_loop(parity_dir, text):
    (parity_dir / "g4.el").write_text("0 1\n2 3\n")
    (parity_dir / "g4.lbl").write_bytes(text.encode("utf-8"))
    paths = str(parity_dir / "g4.el"), str(parity_dir / "g4.lbl")
    assert _outcome(lambda: load_edge_list(paths[0], labels_path=paths[1])) == \
        _outcome(lambda: _by_line_loop(*paths))


def test_fast_paths_take_the_benchmark_shaped_files(tmp_path, monkeypatch):
    def refuse(*args):
        raise AssertionError("line loop called")
    monkeypatch.setattr(graph, "_edge_lines", refuse)
    monkeypatch.setattr(graph, "_label_lines", refuse)
    gpath = _write(tmp_path, "g.el", "3 1\n1 3\n\n0\t2\r\n2 2\n")
    lpath = _write(tmp_path, "g.lbl", "3 B\n0 A\r1 10\n2 B\n")
    g = load_edge_list(gpath, labels_path=lpath)
    assert [g.neighbors_of(v).tolist() for v in range(4)] == [[2], [3], [0], [1]]
    assert g.label_names == ("10", "A", "B") and g.labels.tolist() == [1, 0, 2, 2]


@given(edges=edge_lists)
@settings(max_examples=40, deadline=None)
def test_has_edge_matches_membership(edges):
    n = max(max(u, v) for u, v in edges) + 1
    g = Graph.from_edges(n, edges)
    present = {(min(u, v), max(u, v)) for u, v in edges if u != v}
    for u in range(n):
        assert not has_edge(g, u, u)
    for u, v in present:
        assert has_edge(g, u, v) and has_edge(g, v, u)


def test_has_edge_examples(k4, path3):
    assert has_edge(k4, 0, 3)
    assert not has_edge(path3, 0, 2)
    assert not has_edge(k4, 1, 1)


class TestCoreNumbers:
    def test_complete_graph(self, k4):
        assert list(core_numbers(k4)) == [3, 3, 3, 3]

    def test_path(self, path3):
        assert list(core_numbers(path3)) == [1, 1, 1]

    def test_diamond(self, diamond_graph):
        assert list(core_numbers(diamond_graph)) == [2, 2, 2, 2]

    def test_matches_naive_peeling(self, rng):
        for _ in range(15):
            g = random_graph(rng, rng.randint(2, 60), rng.uniform(0.02, 0.3))
            assert list(core_numbers(g)) == _naive_cores(g)

    def test_matches_naive_peeling_large(self, rng):
        g = random_graph(rng, 200, 0.03)
        assert list(core_numbers(g)) == _naive_cores(g)


def _naive_cores(g):
    # repeated minimum-degree removal, independent of the bucket version
    alive = set(range(g.vertex_count))
    adj = [set(a) for a in g.adjacency()]
    core = [0] * g.vertex_count
    k = 0
    while alive:
        k_removed = True
        while k_removed:
            k_removed = False
            for v in sorted(alive):
                if len(adj[v] & alive) <= k:
                    core[v] = k
                    alive.discard(v)
                    k_removed = True
        k += 1
    return core


class TestOrientation:
    def test_path_degree(self, path3):
        og = orient(path3, "degree")
        assert list(og.neighbors_of(0)) == [1]
        assert list(og.neighbors_of(2)) == [1]
        assert list(og.neighbors_of(1)) == []

    def test_tie_points_to_larger_id(self):
        g = Graph.from_edges(2, [(0, 1)])
        og = orient(g, "degree")
        assert list(og.neighbors_of(0)) == [1]

    def test_k4_out_degrees(self, k4):
        og = orient(k4, "degree")
        assert [og.out_degree(v) for v in range(4)] == [3, 2, 1, 0]

    def test_full_degrees_preserved(self, k4):
        og = orient(k4, "degree")
        assert [og.degree(v) for v in range(4)] == [3, 3, 3, 3]

    @pytest.mark.parametrize("strategy", ["degree", "core", "id"])
    def test_acyclic_and_edge_preserving(self, rng, strategy):
        for _ in range(10):
            g = random_graph(rng, rng.randint(2, 50), 0.2)
            og = orient(g, strategy)
            assert og.edge_count == g.edge_count
            assert _is_acyclic(og)
            for v in range(og.vertex_count):
                nbrs = list(og.neighbors_of(v))
                assert nbrs == sorted(nbrs)

    def test_id_orientation_points_at_the_larger_id(self, rng):
        g = random_graph(rng, 30, 0.3)
        og = orient(g, "id")
        assert og.sources().tolist() == g.sources()[g.sources() < g.neighbors].tolist()
        assert og.neighbors.tolist() == g.neighbors[g.sources() < g.neighbors].tolist()
        assert og.source_degrees.tolist() == g.degrees().tolist()

    def test_unknown_strategy(self, k4):
        with pytest.raises(ValueError):
            orient(k4, "random")

    def test_shares_csr_storage_with_graph_but_is_not_one(self, k4):
        # the engine tells the two apart by isinstance; storage, neighbor
        # slices and the cached adjacency come from one base class
        og = orient(Graph.from_edges(4, [(0, 1), (1, 2), (1, 3), (2, 3)],
                                     labels=[0, 1, 1, 0], label_names=["A", "B"]))
        assert not isinstance(og, Graph) and not issubclass(Graph, OrientedGraph)
        assert isinstance(og, CSRGraph) and isinstance(k4, CSRGraph)
        assert og.label_names == ("A", "B") and og.labels.tolist() == [0, 1, 1, 0]
        assert og.adjacency() == [[1], [], [1, 3], [1]]
        assert og.adjacency() is og.adjacency()
        assert [list(og.neighbors_of(v)) for v in range(4)] == og.adjacency()


def _is_acyclic(og):
    n = og.vertex_count
    indeg = [0] * n
    adj = og.adjacency()
    for v in range(n):
        for u in adj[v]:
            indeg[u] += 1
    stack = [v for v in range(n) if indeg[v] == 0]
    seen = 0
    while stack:
        v = stack.pop()
        seen += 1
        for u in adj[v]:
            indeg[u] -= 1
            if indeg[u] == 0:
                stack.append(u)
    return seen == n


def test_vertex_ids_define_count(tmp_path):
    # ids need not be dense: n = max id + 1, gaps become isolated vertices
    p = tmp_path / "gap.el"
    p.write_text("0 5\n")
    g = load_edge_list(str(p))
    assert g.vertex_count == 6
    assert g.degree(3) == 0
    assert validate_graph(g)


class TestCsrIndex:
    """The arrays every CSR kernel shares: sources, edge keys, range gather."""

    @pytest.mark.parametrize("starts, counts", [
        ([], []),
        ([5], [0]),
        ([3, 0, 7, 2], [2, 0, 3, 0]),
        ([0, 0, 4], [1, 1, 4]),
    ])
    def test_gather_matches_a_loop_over_ranges(self, starts, counts):
        assert _gathered(starts, counts) == _gathered_by_loop(starts, counts)

    def test_gather_random_ranges(self, rng):
        for _ in range(20):
            counts = [rng.choice([0, 0, 1, rng.randint(2, 9)]) for _ in range(rng.randint(0, 30))]
            starts = [rng.randint(0, 100) for _ in counts]
            assert _gathered(starts, counts) == _gathered_by_loop(starts, counts)

    @pytest.mark.parametrize("strategy", [None, "degree", "core", "id"])
    def test_edge_keys_are_the_sorted_edges(self, rng, strategy):
        for _ in range(10):
            g = random_graph(rng, rng.randint(1, 40), 0.2)
            if strategy is not None:
                g = orient(g, strategy)
            n = g.vertex_count
            adj = g.adjacency()
            edges = [(u, v) for u in range(n) for v in adj[u]]
            assert g.sources().tolist() == [u for u, _ in edges]
            keys = g.edge_keys()
            assert keys.tolist() == sorted(u * n + v for u, v in edges)
            assert np.all(np.diff(keys) > 0)
            assert g.edge_keys() is keys

    def test_edge_keys_of_an_edgeless_graph(self):
        g = Graph.from_edges(3, [])
        assert g.sources().tolist() == [] and g.edge_keys().tolist() == []

    @pytest.mark.parametrize("strategy", [None, "degree", "core", "id"])
    def test_has_edges_matches_has_edge(self, rng, strategy):
        for _ in range(10):
            g = random_graph(rng, rng.randint(1, 30), rng.uniform(0.05, 0.5))
            if strategy is not None:
                g = orient(g, strategy)
            n = g.vertex_count
            u, v = np.divmod(np.arange(n * n), n)
            assert g.has_edges(u, v).tolist() == [has_edge(g, a, b) for a, b in zip(u, v)]
            # where an entry is found, `at` is its index into the CSR arrays
            at, found = g.find_edges(u, v)
            assert g.sources()[at[found]].tolist() == u[found].tolist()
            assert g.neighbors[at[found]].tolist() == v[found].tolist()
            # the ids broadcast: column u of a matrix against one vertex per row
            rows = np.arange(n)[:, None]
            assert g.has_edges(rows, rows.T).tolist() == [
                [has_edge(g, a, b) for b in range(n)] for a in range(n)]

    def test_has_edges_of_an_edgeless_graph(self):
        g = Graph.from_edges(4, [])
        found = g.has_edges(np.array([[0, 1], [2, 3]]), np.array([1, 2]))
        assert found.shape == (2, 2) and not found.any()
        assert g.has_edges(np.array([], dtype=np.int64), np.array([], dtype=np.int64)).shape == (0,)
        at, found = g.find_edges(np.array([[0, 1], [2, 3]]), np.array([1, 2]))
        assert at.shape == found.shape == (2, 2) and not found.any()


def _gathered(starts, counts):
    ranges, positions = gather(np.array(starts, dtype=np.int64), np.array(counts, dtype=np.int64))
    return list(zip(ranges.tolist(), positions.tolist()))


def _gathered_by_loop(starts, counts):
    return [(i, s + j) for i, (s, c) in enumerate(zip(starts, counts)) for j in range(c)]
