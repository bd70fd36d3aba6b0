"""Formula-based local counting for 3- and 4-vertex motifs.

Instead of enumerating every motif, count per-vertex and per-edge quantities
and recover the motif counts with closed-form corrections. For 3-motifs the
wedge total is Σ C(d, 2) over vertex degrees and only triangles are
enumerated. For 4-motifs one numpy wedge kernel (`wedge_kernel`) computes,
from the graph's CSR ranges and edge-key index, every pair's co-degree and
every edge's triangle count: the co-degrees give the non-induced 4-cycle
count, the triangle counts give the raw diamond / tailed-triangle / 4-path /
3-star terms (the closed forms of ESCAPE and PGD). `mine` counts the
triangles and 4-cliques on `clique:array`, with the walk's counters. The
correction constants are calibrated once against the brute-force oracle on
a basis of small graphs (see `calibrate_corrections`) and frozen below;
tests re-derive and assert them.
"""
from __future__ import annotations

import time
from fractions import Fraction

import numpy as np

from .arrayroute import _slices
from .engine import MiningResult, ProblemSpec, mine
from .graph import gather
from .patterns import canonical_code, clique, named_motifs, triangle

# Wedges one `wedge_kernel` chunk may hold. Each wedge costs a few int64 words
# in the chunk's arrays, so this bounds the kernel's working memory.
PAIR_BUDGET = 1 << 20

# frozen oracle-calibrated corrections (exact rationals):
#   diamond        = raw_diamond / 2 - 6 * cliques4
#   tailed-tri     = (raw_tailed - 4 * diamond) / 2
#   4-path         = raw_path - 4 * cycles4
#   3-star         = (raw_star - 2 * tailed-tri) / 6
#   wedge          = raw_wedge - 3 * triangles
MC4_CORRECTIONS = {
    "diamond": {"raw": Fraction(1, 2), "4-clique": Fraction(-6)},
    "tailed-triangle": {"raw": Fraction(1, 2), "diamond": Fraction(-2)},
    "4-path": {"raw": Fraction(1), "4-cycle": Fraction(-4)},
    "3-star": {"raw": Fraction(1, 6), "tailed-triangle": Fraction(-1, 3)},
}
MC3_WEDGE_TRIANGLE_FACTOR = 3


def local_wedge_count(deg_u, deg_v, tri):
    """Wedges through an edge from its endpoint degrees and triangle count."""
    return (deg_u - tri - 1) + (deg_v - tri - 1)


def _apply_correction(row, raw, helpers):
    total = Fraction(raw) * row["raw"]
    for name, coef in row.items():
        if name != "raw":
            total += Fraction(helpers[name]) * coef
    if total.denominator != 1:
        raise ArithmeticError("correction did not produce an integer count")
    return int(total)


def wedge_kernel(g):
    """Non-induced 4-cycles and the raw 4-motif terms, from the CSR arrays.

    Forms every wedge a-w-b with a < b (w any common neighbor), in chunks of
    consecutive smaller endpoints `a` holding at most PAIR_BUDGET wedges (a
    vertex with more forms a chunk of its own), so each chunk holds complete
    co-degrees for its pairs. Returns `(terms, run)`. `terms` holds the
    non-induced 4-cycle count Σ_{a<b} C(codeg(a, b), 2) / 2 under
    "noninduced_c4", and under "raw_diamond", "raw_tailed", "raw_path" and
    "raw_star" the per-edge sums of the formulas over each edge's triangle
    count t = codeg(u, v). `run` records the wedges formed as `enumerated`
    and the kernel's own `wall_ms`.
    """
    t0 = time.perf_counter()
    n = g.vertex_count
    offs, nbr = g.row_offsets, g.neighbors
    deg = np.diff(offs)
    src, edge_keys = g.sources(), g.edge_keys()
    # directed edge (a, w) -> the neighbors b > a of w, the slice nbr[lo:offs[w + 1]]
    lo = np.searchsorted(edge_keys, nbr * n + src, side="right")
    span = offs[nbr + 1] - lo
    edge_prefix = np.concatenate(([0], np.cumsum(span)))
    vertex_prefix = edge_prefix[offs]

    cycle_diagonals = diamond = tailed = path = star = 0
    for s in _slices(np.diff(vertex_prefix), PAIR_BUDGET):
        e0, e1 = int(offs[s.start]), int(offs[s.stop])
        # every wedge a-w-b of the chunk: edge (a, w), far endpoint b
        edge, far = gather(lo[e0:e1], span[e0:e1])
        keys, codeg = np.unique(src[e0 + edge] * n + nbr[far], return_counts=True)
        # each 4-cycle is counted once per diagonal
        cycle_diagonals += int(np.sum(codeg * (codeg - 1) // 2))

        u, v = src[e0:e1], nbr[e0:e1]
        up = v > u
        u, v, uv = u[up], v[up], edge_keys[e0:e1][up]
        t = np.zeros(len(u), dtype=np.int64)
        if len(keys):
            at = np.minimum(np.searchsorted(keys, uv), len(keys) - 1)
            t = np.where(keys[at] == uv, codeg[at], 0)
        su = deg[u] - t - 1
        sv = deg[v] - t - 1
        diamond += int(np.sum(t * (t - 1)))
        tailed += int(np.sum(t * (su + sv)))
        path += int(np.sum(su * sv))
        star += int(np.sum(su * (su - 1) + sv * (sv - 1)))

    wedges = int(edge_prefix[-1])
    terms = {"noninduced_c4": cycle_diagonals // 2, "raw_diamond": diamond, "raw_tailed": tailed,
             "raw_path": path, "raw_star": star}
    run = MiningResult(pattern_map={}, enumerated=wedges, accepted=wedges,
                       wall_ms=(time.perf_counter() - t0) * 1000.0)
    return terms, run


def mc3_local_counts(g, **options):
    """3-motif counts {wedge, triangle} without enumerating wedges.

    One triangle count (`clique:array`); the wedge total is the star sum
    Σ C(d, 2) over vertex degrees minus three per triangle. `options`
    (orientation, use_df, use_mnc, ...) go to that count's `mine` call.
    """
    deg = g.degrees()
    raw_wedge = int(np.sum(deg * (deg - 1) // 2))
    result = mine(g, ProblemSpec(vertex_induced=True, k=3, patterns=(triangle(),)), **options)
    tri = result.pattern_map.get(canonical_code(triangle()), 0)
    counts = {
        canonical_code(named_motifs(3)["wedge"]): raw_wedge - MC3_WEDGE_TRIANGLE_FACTOR * tri,
        canonical_code(triangle()): tri,
    }
    return counts, result


def mc4_local_counts(g, **options):
    """All six 4-motif counts from one wedge kernel and one 4-clique count.

    `wedge_kernel` gives the non-induced 4-cycle count C4 and the raw
    diamond / tailed-triangle / 4-path / 3-star terms; the 4-clique count
    (`clique:array`) gives K4. The frozen corrections turn the raw terms
    into exact vertex-induced counts, and the induced 4-cycles are
    C4 - diamond - 3 * K4. `options` (orientation, use_df, use_mnc, ...) go
    to the 4-clique count's `mine` call.

    Returns `(counts, clique_run, kernel_run, enumerated)`, where
    `enumerated` is the 4-clique count's candidates plus the kernel's wedges.
    """
    terms, kernel_run = wedge_kernel(g)
    clique_spec = ProblemSpec(vertex_induced=True, k=4, patterns=(clique(4),))
    clique_run = mine(g, clique_spec, **options)

    names = named_motifs(4)
    k4 = clique_run.pattern_map.get(canonical_code(names["4-clique"]), 0)
    cor = MC4_CORRECTIONS
    diamond = _apply_correction(cor["diamond"], terms["raw_diamond"], {"4-clique": k4})
    c4 = terms["noninduced_c4"] - diamond - 3 * k4
    tailed = _apply_correction(cor["tailed-triangle"], terms["raw_tailed"],
                               {"diamond": diamond})
    path4 = _apply_correction(cor["4-path"], terms["raw_path"], {"4-cycle": c4})
    star3 = _apply_correction(cor["3-star"], terms["raw_star"], {"tailed-triangle": tailed})

    counts = {
        canonical_code(names["4-path"]): path4,
        canonical_code(names["3-star"]): star3,
        canonical_code(names["4-cycle"]): c4,
        canonical_code(names["tailed-triangle"]): tailed,
        canonical_code(names["diamond"]): diamond,
        canonical_code(names["4-clique"]): k4,
    }
    enumerated = clique_run.enumerated + kernel_run.enumerated
    return counts, clique_run, kernel_run, enumerated


def calibrate_corrections(sample_graphs=None):
    """Re-derive the frozen corrections from the oracle over a graph basis.

    Solves, per motif, the small linear system exact = a * raw + b * helper
    over the basis and verifies a zero residual; returns the coefficients in
    the same shape as MC4_CORRECTIONS.
    """
    from .oracle import count_vertex_induced

    if sample_graphs is None:
        sample_graphs = _calibration_basis()

    rows = []
    names = named_motifs(4)
    keys = {m: canonical_code(p) for m, p in names.items()}
    for g in sample_graphs:
        oc = count_vertex_induced(g, 4)
        terms, _ = wedge_kernel(g)
        rows.append((terms, {m: oc.get(k, 0) for m, k in keys.items()}))

    def solve(feature_names, target):
        a = np.array([[float(r[0][f]) if f in r[0] else float(r[1][f])
                       for f in feature_names] for r in rows])
        y = np.array([float(r[1][target]) for r in rows])
        coef, residuals, rank, _ = np.linalg.lstsq(a, y, rcond=None)
        pred = a @ coef
        if not np.allclose(pred, y, atol=1e-6):
            raise ArithmeticError(f"calibration failed for {target}")
        return [Fraction(c).limit_denominator(64) for c in coef]

    c_d = solve(["raw_diamond", "4-clique"], "diamond")
    c_t = solve(["raw_tailed", "diamond"], "tailed-triangle")
    c_p = solve(["raw_path", "4-cycle"], "4-path")
    c_s = solve(["raw_star", "tailed-triangle"], "3-star")
    return {
        "diamond": {"raw": c_d[0], "4-clique": c_d[1]},
        "tailed-triangle": {"raw": c_t[0], "diamond": c_t[1]},
        "4-path": {"raw": c_p[0], "4-cycle": c_p[1]},
        "3-star": {"raw": c_s[0], "tailed-triangle": c_s[1]},
    }


def _calibration_basis():
    from .graph import Graph

    def G(n, edges):
        return Graph.from_edges(n, edges)

    basis = [
        G(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]),   # K4
        G(4, [(0, 1), (1, 2), (2, 3), (3, 0)]),                   # C4
        G(4, [(0, 1), (0, 2), (0, 3)]),                           # star
        G(4, [(0, 1), (1, 2), (2, 3)]),                           # path
        G(4, [(0, 1), (0, 2), (1, 2), (0, 3)]),                   # tailed triangle
        G(4, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)]),           # diamond
        G(5, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (1, 3),
              (1, 4), (2, 3), (2, 4), (3, 4)]),                   # K5
        G(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 2)]),   # C5 + chord
        G(6, [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (3, 5), (4, 5), (1, 4)]),
    ]
    return basis
