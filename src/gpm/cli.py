"""Command-line driver.

Subcommands: tc, clique, match, motif, fsm, oracle. Results go to stdout as
JSON (an array of {"pattern", "support"} records, plus a trailing {"stats"}
record with --stats) or TSV ("pattern<TAB>support" lines, stats as '#'
comment lines). Exit codes: 0 success, 2 usage or input error, 3 resource
abort (frequent-subgraph memory cap, or a graph too large to allocate).
"""
from __future__ import annotations

import argparse
import json
import sys
import time

from . import apps, oracle
from .dfscode import MAX_CODE_EDGES, render_code
from .engine import ProblemSpec, mine, workers_from_env
from .fsm import NODE_OVERHEAD_BYTES, FsmMemoryError
from .fsm import mine_spec as fsm_mine_spec
from .graph import GraphParseError, load_edge_list
from .patterns import canonical_code, load_pattern, motif_name

USAGE_ERROR = 2
RESOURCE_ERROR = 3


def _add_common(parser, *, level=False, pattern=False, fsm=False):
    parser.add_argument("graph", help="edge-list file ('u v' per line, '#' comments)")
    parser.add_argument("--labels", help="vertex label file ('id label' per line)")
    parser.add_argument("--threads", type=int,
                        help="worker count, >= 1, echoed as 'workers' in --stats "
                             "(default: env GPM_THREADS, else 1); every run uses one thread")
    parser.add_argument("--orient", choices=["degree", "core", "none", "auto"],
                        default="auto", help="orientation for clique search")
    parser.add_argument("--format", choices=["json", "tsv"], default="json")
    parser.add_argument("--stats", action="store_true",
                        help="also report enumerated embeddings, wall time, workers")
    parser.add_argument("--list", dest="list_path",
                        help="write one matched embedding per line to this file")
    parser.add_argument("--no-mnc", action="store_true",
                        help="disable connectivity-map memoization (ablation)")
    parser.add_argument("--no-df", action="store_true",
                        help="disable degree filtering (ablation)")
    parser.add_argument("--no-mo", action="store_true",
                        help="disable matching-order guidance (ablation)")
    parser.add_argument("--no-sb", action="store_true",
                        help="refused: disabling symmetry breaking changes counts")
    if level:
        parser.add_argument("--level", choices=["hi", "lo"], default="hi",
                            help="hi: automatic plan; lo: algorithm-specific hooks")
    if pattern:
        parser.add_argument("-p", "--pattern", required=True,
                            help="pattern edge-list file (optional 'v id label' lines)")
    if fsm:
        parser.add_argument("-k", type=int, required=True,
                            help=f"maximum pattern edges (at most {MAX_CODE_EDGES})")
        parser.add_argument("--minsup", type=int, required=True,
                            help="support threshold, at least 1 (frequent: support >= minsup)")
        parser.add_argument("--mem-cap", type=int, default=4 * 2 ** 30,
                            help="memory cap in bytes, at least 1, for the embedding arrays "
                                 "of the patterns alive at once (8 bytes per pattern vertex "
                                 f"per embedding, plus {NODE_OVERHEAD_BYTES} per pattern)")


def _build_parser():
    top = argparse.ArgumentParser(prog="gpm", description=__doc__,
                                  formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("tc", help="triangle counting")
    _add_common(p)

    p = sub.add_parser("clique", help="k-clique counting")
    p.add_argument("-k", type=int, required=True)
    _add_common(p, level=True)

    p = sub.add_parser("match", help="edge-induced subgraph listing for a pattern")
    _add_common(p, pattern=True)

    p = sub.add_parser("motif", help="vertex-induced k-motif counting")
    p.add_argument("-k", type=int, required=True, choices=[3, 4, 5])
    _add_common(p, level=True)

    p = sub.add_parser("fsm", help="frequent subgraph mining (domain support)")
    _add_common(p, fsm=True)

    o = sub.add_parser("oracle", help="brute-force reference counters")
    osub = o.add_subparsers(dest="oracle_command", required=True)
    om = osub.add_parser("motif", help="vertex-induced motif counts by enumeration")
    om.add_argument("-k", type=int, required=True)
    _add_common(om)
    op = osub.add_parser("match", help="edge-induced embedding count by enumeration")
    _add_common(op, pattern=True)
    on = osub.add_parser("mni", help="domain support of a labeled pattern")
    _add_common(on, pattern=True)
    return top


def _fail(msg, code=USAGE_ERROR):
    print(f"gpm: {msg}", file=sys.stderr)
    return code


def _emit(rows, args, result=None, stats=None):
    if args.stats and stats is None and result is not None:
        stats = {"enumerated_embeddings": result.enumerated,
                 "wall_ms": round(result.wall_ms, 3),
                 "workers": result.workers}
    if not args.stats:
        stats = None
    if args.format == "json":
        payload = [{"pattern": p, "support": s} for p, s in rows]
        if stats:
            payload.append({"stats": stats})
        json.dump(payload, sys.stdout, indent=None)
        sys.stdout.write("\n")
    else:
        for p, s in rows:
            sys.stdout.write(f"{p}\t{s}\n")
        if stats:
            for k, v in stats.items():
                sys.stdout.write(f"# {k}\t{v}\n")
    return 0


def _sorted_rows(counts, render=motif_name):
    rows = [(render(key), support) for key, support in counts.items()]
    rows.sort()
    return rows


def _listing_hooks(args):
    if not args.list_path:
        return {}
    sink = open(args.list_path, "w", encoding="utf-8")

    def process(emb):
        sink.write(" ".join(str(v) for v in emb.vertices) + "\n")

    return {"listing": True, "process": process, "_sink": sink}


def _mine_options(args):
    return {
        "workers": args.threads,
        "orientation": args.orient,
        "use_mnc": False if args.no_mnc else None,
        "use_df": not args.no_df,
        "use_mo": not args.no_mo,
    }


def run(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else USAGE_ERROR

    if getattr(args, "no_sb", False):
        return _fail("--no-sb is refused: every subcommand reports counts and "
                     "disabling symmetry breaking changes them")
    if args.threads is None:
        try:
            args.threads = workers_from_env()
        except ValueError as exc:
            return _fail(str(exc))
    if args.threads < 1:
        return _fail("--threads must be >= 1")

    try:
        g = load_edge_list(args.graph, labels_path=args.labels)
    except (OSError, GraphParseError) as exc:
        return _fail(str(exc))
    except MemoryError as exc:
        return _fail(str(exc), RESOURCE_ERROR)

    try:
        if args.command == "tc":
            return _run_tc(args, g)
        if args.command == "clique":
            return _run_clique(args, g)
        if args.command == "match":
            return _run_match(args, g)
        if args.command == "motif":
            return _run_motif(args, g)
        if args.command == "fsm":
            return _run_fsm(args, g)
        if args.command == "oracle":
            return _run_oracle(args, g)
    except FsmMemoryError as exc:
        return _fail(str(exc), RESOURCE_ERROR)
    except MemoryError:
        return _fail(f"out of memory mining a graph with {g.vertex_count} vertices",
                     RESOURCE_ERROR)
    except (GraphParseError, OSError) as exc:
        return _fail(str(exc))
    except ValueError as exc:
        return _fail(str(exc))
    return _fail(f"unknown command {args.command!r}")


def _run_tc(args, g):
    hooks = _listing_hooks(args)
    sink = hooks.pop("_sink", None)
    spec = apps.triangle_spec(**hooks)
    try:
        result = mine(g, spec, **_mine_options(args))
    finally:
        if sink:
            sink.close()
    count = next(iter(result.pattern_map.values()), 0)
    return _emit([("triangle", count)], args, result)


def _run_clique(args, g):
    if args.k < 2:
        return _fail("clique size must be >= 2")
    hooks = _listing_hooks(args)
    sink = hooks.pop("_sink", None)
    if args.level == "lo":
        if args.orient == "none":
            return _fail("--level lo requires an orientation")
        spec = apps.clique_local_spec(args.k, **hooks)
    else:
        spec = apps.clique_spec(args.k, **hooks)
    try:
        result = mine(g, spec, **_mine_options(args))
    finally:
        if sink:
            sink.close()
    count = next(iter(result.pattern_map.values()), 0)
    return _emit([(f"{args.k}-clique", count)], args, result)


def _run_match(args, g):
    if args.no_mo:
        return _fail("--no-mo is not supported for edge-induced matching")
    pattern = load_pattern(args.pattern, g.label_names)
    hooks = _listing_hooks(args)
    sink = hooks.pop("_sink", None)
    spec = apps.subgraph_listing_spec(pattern, **hooks)
    try:
        result = mine(g, spec, **_mine_options(args))
    finally:
        if sink:
            sink.close()
    count = result.pattern_map.get(canonical_code(pattern), 0)
    return _emit([(motif_name(canonical_code(pattern)), count)], args, result)


def _run_motif(args, g):
    if args.level == "lo" and args.k == 5:
        return _fail("--level lo supports k in {3, 4}")
    counts, _, run = apps.count_motifs(g, args.k, level=args.level, **_mine_options(args))
    return _emit(_sorted_rows(counts), args, run)


def _run_fsm(args, g):
    if args.minsup < 1:
        return _fail("--minsup must be at least 1")
    if g.labels is None:
        return _fail("fsm requires --labels")
    minsup = args.minsup
    spec = ProblemSpec(vertex_induced=False, explicit=False, k=args.k,
                       is_implicit_pattern=lambda node: node.support >= minsup)
    t0 = time.perf_counter()
    results, considered = fsm_mine_spec(g, spec, workers=args.threads,
                                        memory_cap=args.mem_cap)
    wall = (time.perf_counter() - t0) * 1000.0
    rows = sorted((render_code(code, g.label_names), support)
                  for code, support in results.items())
    stats = {"enumerated_embeddings": considered, "wall_ms": round(wall, 3),
             "workers": args.threads}
    return _emit(rows, args, stats=stats)


def _run_oracle(args, g):
    if args.oracle_command == "motif":
        counts = oracle.count_vertex_induced(g, args.k)
        return _emit(_sorted_rows(counts), args)
    pattern = load_pattern(args.pattern, g.label_names)
    if args.oracle_command == "match":
        count = oracle.count_edge_induced(g, pattern)
        return _emit([(motif_name(canonical_code(pattern)), count)], args)
    if args.oracle_command == "mni":
        support = oracle.mni_oracle(g, pattern)
        return _emit([(motif_name(canonical_code(pattern)), support)], args)
    return _fail("unknown oracle subcommand")


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
