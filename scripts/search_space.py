#!/usr/bin/env python3
"""Compare the search space of the automatic plans against the low-level ones.

Builds a seeded random graph, runs 4-motif counting (formula-based local
counting vs full enumeration) and k-clique counting (local-graph search vs
the oriented walk), and reports the enumerated-embedding counters and wall
times for each.
"""
import argparse
import random

from gpm import apps
from gpm.graph import Graph


def build_graph(n, m, seed):
    rng = random.Random(seed)
    edges = set()
    while len(edges) < m:
        a, b = rng.randrange(n), rng.randrange(n)
        if a != b:
            edges.add((min(a, b), max(a, b)))
    return Graph.from_edges(n, edges)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("-n", type=int, default=10_000, help="vertices")
    parser.add_argument("-m", type=int, default=30_000, help="edges")
    parser.add_argument("-k", type=int, default=6, help="clique size")
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()

    g = build_graph(args.n, args.m, args.seed)
    print(f"graph: n={g.vertex_count} m={g.edge_count} "
          f"avg_deg={g.average_degree():.1f}")

    _, enum_hi, run_hi = apps.count_motifs(g, 4, level="hi")
    _, enum_lo, run_lo = apps.count_motifs(g, 4, level="lo")
    print(f"4-motif  enumerated hi={enum_hi:>12d}  lo={enum_lo:>12d}  "
          f"ratio={enum_hi / max(1, enum_lo):6.2f}  "
          f"wall hi={run_hi.wall_ms:8.0f}ms lo={run_lo.wall_ms:8.0f}ms")

    chi, rhi = apps.count_cliques(g, args.k, level="hi")
    clo, rlo = apps.count_cliques(g, args.k, level="lo")
    assert chi == clo
    print(f"{args.k}-clique enumerated hi={rhi.enumerated:>12d}  "
          f"lo={rlo.enumerated:>12d}  "
          f"ratio={rhi.enumerated / max(1, rlo.enumerated):6.2f}  "
          f"wall hi={rhi.wall_ms:8.0f}ms lo={rlo.wall_ms:8.0f}ms  count={chi}")


if __name__ == "__main__":
    main()
