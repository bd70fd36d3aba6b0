"""Command-line driver.

Subcommands: tc, clique, match, motif, fsm, oracle. Results go to stdout as
JSON (an array of {"pattern", "support"} records, plus a trailing {"stats"}
record with --stats) or TSV ("pattern<TAB>support" lines, stats as '#'
comment lines). Exit codes: 0 success, 2 usage or input error, 3 resource
abort (frequent-subgraph memory cap, or a graph too large to allocate).
"""
from __future__ import annotations

import argparse
import gc
import json
import sys
import time
from contextlib import nullcontext

# the help text and the benchmark tracer read these; each subcommand imports
# the mining modules it runs
from .dfscode import MAX_CODE_EDGES, render_code
from .fsm import NODE_OVERHEAD_BYTES, FsmMemoryError
from .fsm import mine_spec as fsm_mine_spec
from .graph import GraphParseError, load_edge_list
from .patterns import canonical_code, load_pattern, motif_name

USAGE_ERROR = 2
RESOURCE_ERROR = 3


def _add_input(parser, *, pattern=False, labels=True):
    parser.add_argument("graph", help="edge-list file ('u v' per line, '#' comments)")
    if labels:
        parser.add_argument("--labels", help="vertex label file ('id label' per line)")
    parser.add_argument("--format", choices=["json", "tsv"], default="json")
    if pattern:
        parser.add_argument("-p", "--pattern", required=True,
                            help="pattern edge-list file (optional 'v id label' lines)")


def _add_run(parser):
    parser.add_argument("--threads", type=int,
                        help="worker count, >= 1, echoed as 'workers' in --stats "
                             "(default: env GPM_THREADS, else 1); every run uses one thread")
    parser.add_argument("--stats", action="store_true",
                        help="also report enumerated embeddings, wall time, workers "
                             "and the plans that ran")


def _add_walk(parser, *, mnc=True):
    parser.add_argument("--orient", choices=["degree", "core", "none", "auto"], default="auto",
                        help="orientation for clique search (ignored by motif --level hi)")
    if mnc:
        parser.add_argument("--no-mnc", action="store_true",
                            help="run the walk without connectivity-map memoization "
                                 "(ablation; counts and listings otherwise take the "
                                 "array route; clique --level lo then runs the "
                                 "local-graph walk, which keeps no map)")
    parser.add_argument("--no-df", action="store_true",
                        help="disable degree filtering (ablation; ignored by motif --level hi)")


def _add_list(parser):
    parser.add_argument("--list", dest="list_path",
                        help="write one matched embedding per line to this file")


def _add_level(parser):
    parser.add_argument("--level", choices=["hi", "lo"], default="hi",
                        help="hi: automatic plan; lo: algorithm-specific hooks")


def _build_parser():
    top = argparse.ArgumentParser(prog="gpm", description=__doc__,
                                  formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = top.add_subparsers(dest="command", required=True)

    # the triangle, clique and motif counts are label-blind, so those
    # subcommands take no --labels
    p = sub.add_parser("tc", help="triangle counting")
    _add_input(p, labels=False)
    _add_run(p)
    # a 3-clique keeps no map; `clique -k 3 --no-mnc` reaches its walk
    _add_walk(p, mnc=False)
    _add_list(p)

    p = sub.add_parser("clique", help="k-clique counting")
    p.add_argument("-k", type=int, required=True)
    _add_input(p, labels=False)
    _add_run(p)
    _add_walk(p)
    _add_list(p)
    _add_level(p)

    p = sub.add_parser("match", help="edge-induced subgraph listing for a pattern")
    _add_input(p, pattern=True)
    _add_run(p)
    _add_walk(p)
    _add_list(p)

    p = sub.add_parser("motif", help="vertex-induced k-motif counting")
    p.add_argument("-k", type=int, required=True, choices=[3, 4, 5])
    _add_input(p, labels=False)
    _add_run(p)
    _add_walk(p)
    _add_level(p)

    p = sub.add_parser("fsm", help="frequent subgraph mining (domain support)")
    p.add_argument("-k", type=int, required=True,
                   help=f"maximum pattern edges (at most {MAX_CODE_EDGES})")
    p.add_argument("--minsup", type=int, required=True,
                   help="support threshold, at least 1 (frequent: support >= minsup)")
    p.add_argument("--mem-cap", type=int, default=4 * 2 ** 30,
                   help="memory cap in bytes, at least 1, for the embedding arrays "
                        "of the patterns alive at once (8 bytes per pattern vertex "
                        f"per embedding, plus {NODE_OVERHEAD_BYTES} per pattern) and "
                        "the extension's gather (8 bytes per pattern vertex, plus 32, "
                        "per neighbour gathered); patterns of -k edges are counted "
                        "from their parents' rows, and their arrays are never built")
    _add_input(p)
    _add_run(p)

    o = sub.add_parser("oracle", help="brute-force reference counters")
    osub = o.add_subparsers(dest="oracle_command", required=True)
    om = osub.add_parser("motif", help="vertex-induced motif counts by enumeration")
    om.add_argument("-k", type=int, required=True)
    _add_input(om)
    _add_input(osub.add_parser("match", help="edge-induced embedding count by enumeration"),
               pattern=True)
    _add_input(osub.add_parser("mni", help="domain support of a labeled pattern"),
               pattern=True)
    return top


def _fail(msg, code=USAGE_ERROR):
    print(f"gpm: {msg}", file=sys.stderr)
    return code


def _emit(rows, args, result=None):
    stats = None
    if result is not None and args.stats:
        stats = {"enumerated_embeddings": result.enumerated,
                 "wall_ms": round(result.wall_ms, 3),
                 "workers": result.workers,
                 "plans": list(result.plans)}
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
            stats["plans"] = ",".join(stats["plans"])
            for k, v in stats.items():
                sys.stdout.write(f"# {k}\t{v}\n")
    return 0


def _sorted_rows(counts, render=motif_name):
    rows = [(render(key), support) for key, support in counts.items()]
    rows.sort()
    return rows


def _mine_options(args):
    return {
        "workers": args.threads,
        "orientation": args.orient,
        "use_mnc": False if getattr(args, "no_mnc", False) else None,
        "use_df": not args.no_df,
    }


def _count_listed(args, count, *count_args, **count_kwargs):
    """Run one `apps.count_*` with the walk flags, writing each batch of
    embedding rows it counts to the --list file, a line per row; returns its
    `(count, result)`."""
    with open(args.list_path, "w", encoding="utf-8") if args.list_path else nullcontext() as sink:
        process_rows = None
        if sink is not None:
            def process_rows(rows):
                line = " ".join(["%d"] * rows.shape[1]) + "\n"
                sink.write(line * len(rows) % tuple(rows.ravel().tolist()))
        return count(*count_args, **count_kwargs, **_mine_options(args),
                     process_rows=process_rows)


def run(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else USAGE_ERROR

    if args.command != "oracle":
        if args.threads is None:
            from .engine import workers_from_env
            try:
                args.threads = workers_from_env()
            except ValueError as exc:
                return _fail(str(exc))
        if args.threads < 1:
            return _fail("--threads must be >= 1")

    try:
        g = load_edge_list(args.graph, labels_path=getattr(args, "labels", None))
    except (OSError, GraphParseError) as exc:
        return _fail(str(exc))
    except MemoryError as exc:
        return _fail(str(exc), RESOURCE_ERROR)

    runner = {"tc": _run_tc, "clique": _run_clique, "match": _run_match,
              "motif": _run_motif, "fsm": _run_fsm, "oracle": _run_oracle}[args.command]
    try:
        return runner(args, g)
    except FsmMemoryError as exc:
        return _fail(str(exc), RESOURCE_ERROR)
    except MemoryError:
        return _fail(f"out of memory mining a graph with {g.vertex_count} vertices",
                     RESOURCE_ERROR)
    except (GraphParseError, OSError, ValueError) as exc:
        return _fail(str(exc))


def _run_tc(args, g):
    from . import apps
    count, result = _count_listed(args, apps.count_triangles, g)
    return _emit([("triangle", count)], args, result)


def _run_clique(args, g):
    from . import apps
    if args.k < 2:
        return _fail("clique size must be >= 2")
    count, result = _count_listed(args, apps.count_cliques, g, args.k, level=args.level)
    return _emit([(f"{args.k}-clique", count)], args, result)


def _run_match(args, g):
    from . import apps
    pattern = load_pattern(args.pattern, g.label_names)
    count, result = _count_listed(args, apps.count_subgraphs, g, pattern)
    return _emit([(motif_name(canonical_code(pattern)), count)], args, result)


def _run_motif(args, g):
    from . import apps
    counts, _, result = apps.count_motifs(g, args.k, level=args.level, **_mine_options(args))
    return _emit(_sorted_rows(counts), args, result)


def _run_fsm(args, g):
    from .engine import MiningResult, ProblemSpec
    if args.minsup < 1:
        return _fail("--minsup must be at least 1")
    minsup = args.minsup
    spec = ProblemSpec(vertex_induced=False, explicit=False, k=args.k,
                       is_implicit_pattern=lambda node: node.support >= minsup)
    t0 = time.perf_counter()
    results, considered = fsm_mine_spec(g, spec, memory_cap=args.mem_cap)
    result = MiningResult(results, enumerated=considered, accepted=considered,
                          wall_ms=(time.perf_counter() - t0) * 1000.0, workers=args.threads,
                          plans=("fsm",))
    return _emit(_sorted_rows(results, lambda code: render_code(code, g.label_names)),
                 args, result)


def _run_oracle(args, g):
    from . import oracle
    if args.oracle_command == "motif":
        return _emit(_sorted_rows(oracle.count_vertex_induced(g, args.k)), args)
    pattern = load_pattern(args.pattern, g.label_names)
    if args.oracle_command == "match":
        count = oracle.count_edge_induced(g, pattern)
    else:
        count = oracle.mni_oracle(g, pattern)
    return _emit([(motif_name(canonical_code(pattern)), count)], args)


def main():
    code = run()
    # what is left is mostly module objects; frozen, the interpreter's final
    # collection has nothing to walk
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    main()
