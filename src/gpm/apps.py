"""Built-in applications wired onto the engine.

High level: triangle counting, k-clique counting, subgraph listing for an
explicit pattern, and k-motif counting. Low level: clique search over a
shrinking local graph, and formula-based motif counting (see `localcount`).
"""
from __future__ import annotations

import time
from dataclasses import replace

from .engine import ProblemSpec, mine
from .graph import Graph
from .patterns import all_patterns, canonical_code, clique

# a canonical code stores the vertex count in one byte
MAX_CLIQUE_K = 255


def triangle_spec(**hooks):
    return clique_spec(3, **hooks)


def clique_spec(k, **hooks):
    return ProblemSpec(vertex_induced=True, k=k, patterns=(clique(k),), **hooks)


def clique_local_spec(k, **hooks):
    from . import localgraph
    return ProblemSpec(vertex_induced=True, k=k, patterns=(clique(k),),
                       init_local=localgraph.init_local_graph,
                       update_local=localgraph.LocalGraph.shrink, **hooks)


def motif_spec(k, **hooks):
    return ProblemSpec(vertex_induced=True, k=k, explicit=False, **hooks)


def subgraph_listing_spec(pattern, **hooks):
    return ProblemSpec(vertex_induced=False, k=pattern.edge_count(),
                       patterns=(pattern,), **hooks)


def count_triangles(g, *, process_rows=None, **options):
    """`(count, MiningResult)` of the 3-clique. `process_rows(rows)`, when
    given, receives the embeddings counted as `(R, k)` int64 arrays in walk
    order (see `ProblemSpec`), as in `count_cliques` and `count_subgraphs`."""
    return count_cliques(g, 3, process_rows=process_rows, **options)


def _check_level(level):
    if level not in ("hi", "lo"):
        raise ValueError(f"level must be 'hi' or 'lo', got {level!r}")


def count_cliques(g, k, *, level="hi", process_rows=None, **options):
    _check_level(level)
    if k > MAX_CLIQUE_K:
        raise ValueError(f"clique size must be <= {MAX_CLIQUE_K}, got {k}")
    spec = (clique_spec if level == "hi" else clique_local_spec)(k, process_rows=process_rows)
    result = mine(g, spec, **options)
    return result.pattern_map.get(canonical_code(clique(k)), 0), result


def count_motifs(g, k, *, level="hi", **options):
    """Vertex-induced motif counts keyed by canonical pattern code.

    Motifs are structural, so labels are ignored; every motif of size k
    appears in the map, zero counts included. Returns `(counts, enumerated,
    run)`; at level "lo" `run` covers the whole local count (for k = 4 the
    wedge kernel plus the 4-clique count), `enumerated` adds the kernel's
    wedges, and `run.plans` leads with "formula:mc3" or "formula:mc4".
    `options` go to every `mine` call, including the local counters'
    3- or 4-clique count (`clique:array`).
    """
    _check_level(level)
    patterns = all_patterns(k)
    if g.labels is not None:
        g = Graph(g.vertex_count, g.row_offsets, g.neighbors)
    if level == "hi":
        run = mine(g, motif_spec(k), **options)
        counts = dict(run.pattern_map)
    elif k in (3, 4):
        from . import localcount
        t0 = time.perf_counter()
        if k == 3:
            counts, found = localcount.mc3_local_counts(g, **options)
            wedges = 0
        else:
            counts, found, kernel, _ = localcount.mc4_local_counts(g, **options)
            wedges = kernel.enumerated
        run = replace(found, pattern_map=counts, enumerated=found.enumerated + wedges,
                      accepted=found.accepted + wedges,
                      wall_ms=(time.perf_counter() - t0) * 1000.0,
                      plans=(f"formula:mc{k}",) + found.plans)
    else:
        raise ValueError("formula-based motif counting supports k in {3, 4}")
    for p in patterns:
        counts.setdefault(canonical_code(p), 0)
    return counts, run.enumerated, run


def count_subgraphs(g, pattern, *, process_rows=None, **options):
    spec = subgraph_listing_spec(pattern, process_rows=process_rows)
    result = mine(g, spec, **options)
    return result.pattern_map.get(canonical_code(pattern), 0), result
