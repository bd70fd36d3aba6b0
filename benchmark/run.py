#!/usr/bin/env python3
"""gpm benchmark: seeded graphs, gpm CLI runs timed from outside, counts
checked against closed-form references.

    python3 benchmark/run.py --workload sparse-count --seed 1 --seconds 30 --trace 0

Run from the repository root; gpm is imported from ./src (no install step).
With --trace 0 every CLI command runs as its own process and the run reports
setup_s, wall_s and peak_rss_mb. With --trace 1 each command also runs in
this process through gpm.cli.run, once plain and once with spans recorded
around gpm's cross-module calls, and the run reports the per-layer metrics.
Either way the last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}. See benchmark/README.md.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
import reference  # noqa: E402

RUN_LIMIT_S = 150.0

# input sizes; the README records them with their degree statistics
SPARSE_N = 2000                 # Erdős–Rényi, m = 3n (average degree 6)
SKEWED_N = 1600                 # Chung–Lu, average degree 6, exponent 2.5
SKEWED_COMMUNITIES = (8, 30, 0.6)   # count, size, edge density
LABELED_N = 4000                # Erdős–Rényi, m = 3n, 5 uniform labels
FSM_MINSUP = 250
# The labelled B-C match runs on one fixed graph whatever --seed says: it
# fails on every run (pattern labels are numbered apart from graph labels),
# and a fixed input keeps that failure the same share of every run.
BC_N, BC_SEED = 2000, 20201106
WORKLOADS = ("sparse-count", "skewed-t2", "labeled-list")


@dataclass
class Op:
    name: str
    argv: list
    check: object                 # rows -> error string or None
    list_path: Path | None = None
    same_as: str | None = None    # another op whose rows must be identical


@dataclass
class Workload:
    ops: list
    load_args: tuple              # (graph, labels) for the setup probe
    speedup_op: str               # op timed at 1 and 2 workers in traced runs
    info: dict = field(default_factory=dict)


def expect_rows(want):
    want = {k: int(v) for k, v in want.items()}

    def check(rows):
        return None if rows == want else f"got {rows}, want {want}"
    return check


def expect_single(value):
    def check(rows):
        if len(rows) != 1:
            return f"expected one row, got {rows}"
        got = next(iter(rows.values()))
        return None if got == value else f"support {got}, want {value}"
    return check


def check_listing(path, adj, want):
    """Every line a wedge of the graph, each vertex set listed as often as it
    holds wedges, and `want` = Σ C(d, 2) lines in all.

    An open wedge's set may appear once and a triangle's at most 3 times (one
    per centre); with the total fixed at Σ C(d, 2), both bounds are then met
    exactly.
    """
    per_set = Counter()
    lines = 0
    with open(path, encoding="utf-8") as f:
        for raw in f:
            lines += 1
            try:
                vs = tuple(int(x) for x in raw.split())
            except ValueError:
                vs = ()
            if len(vs) != 3 or len(set(vs)) != 3:
                return f"line {lines}: expected 3 distinct vertices"
            centres = sum(all(vs[j] in adj[vs[i]] for j in range(3) if j != i)
                          for i in range(3))
            if not centres:
                return f"line {lines}: {vs} is not a wedge"
            key = frozenset(vs)
            per_set[key] += 1
            if per_set[key] > centres:
                return f"line {lines}: {vs} listed more often than it holds wedges"
    if lines != want:
        return f"{lines} lines, want {want}"
    return None


_CODE_EDGE = re.compile(r"\((\d+),(\d+),([^,()]+),([^,()]+)\)")


def check_fsm(rows, one_edge, minsup):
    """Supports >= minsup, one-edge supports exact, every parent reported."""
    codes = {}
    for text, sup in rows.items():
        code = tuple(_CODE_EDGE.findall(text))
        if not code or "".join(f"({i},{j},{a},{b})" for i, j, a, b in code) != text:
            return f"unparsable pattern {text!r}"
        if sup < minsup:
            return f"{text} has support {sup} < minsup {minsup}"
        codes[code] = sup
    got = {(c[0][2], c[0][3]): s for c, s in codes.items() if len(c) == 1}
    want = {k: v for k, v in one_edge.items() if v >= minsup}
    if got != want:
        return f"one-edge supports {got}, want {want}"
    for code, sup in codes.items():
        if len(code) > 1:
            parent = codes.get(code[:-1])
            if parent is None or parent < sup:
                return f"parent of {code} missing or smaller"
    return None


def _rng(seed, workload):
    return np.random.default_rng([seed, WORKLOADS.index(workload)])


def build(workload, seed, d):
    """Write the workload's inputs under d and return its operations."""
    rng = _rng(seed, workload)
    pat = {}
    for name in gen.PATTERNS:
        pat[name] = str(d / f"{name}.pat")
        gen.write_pattern(pat[name], name)

    if workload == "sparse-count":
        n = SPARSE_N
        edges = gen.erdos_renyi(n, 3 * n, rng)
        g = str(d / "er.el")
        gen.write_edges(g, edges)
        ref = reference.motif_counts(edges, n)
        t1 = [g, "--threads", "1"]
        ops = [
            Op("tc", ["tc"] + t1, expect_rows({"triangle": ref["motif3"]["triangle"]})),
            Op("motif3-hi", ["motif", "-k", "3"] + t1, expect_rows(ref["motif3"])),
            Op("motif3-lo", ["motif", "-k", "3", "--level", "lo"] + t1,
               expect_rows(ref["motif3"]), same_as="motif3-hi"),
            Op("motif4-hi", ["motif", "-k", "4"] + t1, expect_rows(ref["motif4"])),
            Op("motif4-lo", ["motif", "-k", "4", "--level", "lo"] + t1,
               expect_rows(ref["motif4"]), same_as="motif4-hi"),
            Op("match-c4", ["match", "-p", pat["c4"]] + t1,
               expect_rows({"4-cycle": ref["match"]["4-cycle"]})),
            Op("match-p4", ["match", "-p", pat["p4"]] + t1,
               expect_rows({"4-path": ref["match"]["4-path"]})),
        ]
        return Workload(ops, (g, ""), "motif3-hi", gen.degree_stats(edges, n))

    if workload == "skewed-t2":
        n = SKEWED_N
        edges = gen.chung_lu(n, 6, 2.5, rng)
        edges = gen.plant_communities(edges, n, *SKEWED_COMMUNITIES, rng)
        g = str(d / "cl.el")
        gen.write_edges(g, edges)
        ref = reference.motif_counts(edges, n, kmax_clique=6)
        t2 = [g, "--threads", "2"]
        lo = ["--level", "lo", "--orient", "core"]

        def clique(k):
            return expect_rows({f"{k}-clique": ref["cliques"][k]})
        ops = [
            Op("tc", ["tc"] + t2, expect_rows({"triangle": ref["motif3"]["triangle"]})),
            Op("clique4-hi", ["clique", "-k", "4"] + t2, clique(4)),
            Op("clique5-hi", ["clique", "-k", "5"] + t2, clique(5)),
            Op("clique5-lo", ["clique", "-k", "5"] + lo + t2, clique(5), same_as="clique5-hi"),
            Op("clique6-lo", ["clique", "-k", "6"] + lo + t2, clique(6)),
            Op("motif3-lo", ["motif", "-k", "3", "--level", "lo"] + t2,
               expect_rows(ref["motif3"])),
            Op("motif4-lo", ["motif", "-k", "4", "--level", "lo"] + t2,
               expect_rows(ref["motif4"])),
        ]
        return Workload(ops, (g, ""), "clique5-hi", gen.degree_stats(edges, n))

    if workload == "labeled-list":
        n = LABELED_N
        edges = gen.erdos_renyi(n, 3 * n, rng)
        labels = gen.uniform_labels(n, rng)
        g, lbl = str(d / "lab.el"), str(d / "lab.lbl")
        gen.write_edges(g, edges)
        gen.write_labels(lbl, labels)
        adj = reference.adjacency_sets(edges, n)
        wedges = int(sum(len(a) * (len(a) - 1) // 2 for a in adj))
        names = gen.LABEL_TOKENS
        one_edge = {(names[a], names[b]): s
                    for (a, b), s in reference.single_edge_supports(edges, labels).items()}

        fixed = np.random.default_rng(BC_SEED)
        bc_edges = gen.erdos_renyi(BC_N, 3 * BC_N, fixed)
        bc_labels = gen.uniform_labels(BC_N, fixed)
        bg, blbl = str(d / "bc.el"), str(d / "bc.lbl")
        gen.write_edges(bg, bc_edges)
        gen.write_labels(blbl, bc_labels)
        bc_count = reference.labeled_edge_count(
            bc_edges, bc_labels, names.index("B"), names.index("C"))

        list_path = d / "wedges.txt"
        t1 = ["--threads", "1"]

        def listing(rows):
            err = expect_rows({"wedge": wedges})(rows)
            return err or check_listing(list_path, adj, wedges)
        ops = [
            Op("fsm", ["fsm", "-k", "3", "--minsup", str(FSM_MINSUP), g, "--labels", lbl] + t1,
               lambda rows: check_fsm(rows, one_edge, FSM_MINSUP)),
            Op("match-wedge-list", ["match", "-p", pat["wedge"], "--list", str(list_path), g] + t1,
               listing, list_path=list_path),
            Op("match-bc", ["match", "-p", pat["bc"], bg, "--labels", blbl] + t1,
               expect_single(bc_count)),
        ]
        info = gen.degree_stats(edges, n)
        info["bc_fixed_graph"] = gen.degree_stats(bc_edges, BC_N)
        return Workload(ops, (g, lbl), "match-wedge-list", info)

    raise ValueError(workload)


def parse_rows(text):
    """{pattern: support} from gpm's JSON output; None if it is not that."""
    try:
        payload = json.loads(text)
        return {r["pattern"]: int(r["support"]) for r in payload if "pattern" in r}
    except (ValueError, TypeError, KeyError):
        return None


def subprocess_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"]
                                    if env.get("PYTHONPATH") else "")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env.pop("GPM_THREADS", None)
    # fixed string hashing, so set and dict layouts repeat from run to run
    env["PYTHONHASHSEED"] = "0"
    return env


class Runner:
    """Runs processes one at a time and kills any that outlive the run limit."""

    def __init__(self, started, workdir):
        self.started = started
        self.env = subprocess_env()
        self.out = workdir / "stdout.txt"
        self.err = workdir / "stderr.txt"

    def spawn(self, argv):
        """(wall s, exit code, peak RSS MB, stdout) for one process."""
        limit = max(1.0, RUN_LIMIT_S - (time.perf_counter() - self.started))
        with open(self.out, "wb") as out, open(self.err, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=self.env, cwd=ROOT)
            timer = threading.Timer(limit, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return wall, proc.returncode, usage.ru_maxrss / 1024.0, self.out.read_text("utf-8")

    def gpm(self, argv):
        return self.spawn([sys.executable, "-m", "gpm.cli"] + argv)


def judge(op, code, stdout):
    """(rows, error) for one operation's exit code and output."""
    if code != 0:
        return None, f"exit code {code}"
    rows = parse_rows(stdout)
    if rows is None:
        return None, "output is not gpm's JSON"
    return rows, op.check(rows)


def consistent(ops, rows_by_op):
    """Properties across operations of one pass, e.g. hi counts == lo counts."""
    for op in ops:
        if op.same_as and rows_by_op.get(op.name) != rows_by_op.get(op.same_as):
            return False
    return True


def process_round(wl, runner, log, setup):
    walls, rss, rows_by_op, failed = [], [], {}, 0
    for i, op in enumerate(wl.ops):
        if i in (0, len(wl.ops) // 2):
            # two set-up samples a round, apart: the machine's slow spells
            # last seconds, so a burst of samples would often share one
            setup.append(setup_sample(wl, runner))
        wall, code, peak, out = runner.gpm(op.argv)
        rows, err = judge(op, code, out)
        if err:
            failed += 1
            log[op.name] = err
        walls.append(wall)
        rss.append(peak)
        rows_by_op[op.name] = rows
    return walls, rss, failed, consistent(wl.ops, rows_by_op)


def setup_sample(wl, runner):
    """Wall time of a fresh process that imports gpm and loads the graph."""
    graph, labels = wl.load_args
    probe = ("import sys, gpm, gpm.graph; "
             "gpm.graph.load_edge_list(sys.argv[1], labels_path=sys.argv[2] or None)")
    wall, code, _, _ = runner.spawn([sys.executable, "-c", probe, graph, labels])
    if code != 0:
        raise RuntimeError(f"setup probe exited with {code}")
    return wall


def out_of_time(runner):
    # stop starting rounds well before the run limit; a round can take a while
    return time.perf_counter() - runner.started > RUN_LIMIT_S / 3


def run_untraced(wl, runner, seconds):
    deadline = time.perf_counter() + seconds
    setup, rounds, log = [], [], {}
    while True:
        rounds.append(process_round(wl, runner, log, setup))
        if time.perf_counter() >= deadline or out_of_time(runner):
            break
    per_op = list(zip(*(r[0] for r in rounds)))
    for op, walls in zip(wl.ops, per_op):
        failure = f"   FAILED: {log[op.name][:120]}" if op.name in log else ""
        print(f"  {op.name:18s} wall min {min(walls):7.3f} s"
              f"  median {statistics.median(walls):7.3f} s{failure}")
    print(f"  median round total {statistics.median(sum(r[0]) for r in rounds):.3f} s")
    # Neighbours on a shared machine slow it in bursts of seconds; a fastest
    # sample is the program's own cost, a median is partly theirs.
    metrics = {
        "setup_s": (min(setup), "s"),
        "wall_s": (sum(min(walls) for walls in per_op), "s"),
        "peak_rss_mb": (statistics.median(max(r[1]) for r in rounds), "MB"),
    }
    attempted = len(rounds) * len(wl.ops)
    failed = sum(r[2] for r in rounds)
    return metrics, attempted, failed, all(r[3] for r in rounds), len(rounds)


def run_inprocess(argv):
    import gpm.cli

    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = gpm.cli.run(argv)
    except Exception as exc:  # a crash is a failed operation, not a failed benchmark
        code = f"exception {exc!r}"
    return time.perf_counter() - t0, code, out.getvalue()


def traced_round(wl, runner, log, flip):
    """Each command as a process, in-process plain and in-process traced.

    The three runs of a command are back to back, so they see the same
    machine; plain and traced swap order when `flip` is set, so neither
    always gets the warmer caches. Returns the per-layer metrics, per-command
    times by mode, the operation counts, the property result and the tracer.
    """
    from tracing import Tracer, per_layer_metrics

    attempted = failed = 0
    modes = ("process", "traced", "plain") if flip else ("process", "plain", "traced")
    times = {mode: [] for mode in modes}
    rows_by_mode = {mode: {} for mode in modes}
    list_lines = 0
    tracer = Tracer()
    for i, op in enumerate(wl.ops):
        for mode in modes:
            if mode == "process":
                wall, code, _, out = runner.gpm(op.argv)
            elif mode == "plain":
                wall, code, out = run_inprocess(op.argv)
            else:
                tracer.op = i
                with tracer:
                    wall, code, out = run_inprocess(op.argv)
                if op.list_path is not None and op.list_path.exists():
                    with open(op.list_path, "rb") as f:
                        list_lines += sum(1 for _ in f)
            times[mode].append(wall)
            rows, err = judge(op, code, out)
            attempted += 1
            if err:
                failed += 1
                log[f"{op.name} ({mode})"] = err
            rows_by_mode[mode][op.name] = rows
    ok = all(consistent(wl.ops, rows) for rows in rows_by_mode.values())

    # the same command at 1 and at 2 workers: time in the engine, same counts
    op = next(o for o in wl.ops if o.name == wl.speedup_op)
    engine_s, rows_by_w = {}, {}
    for workers in (1, 2):
        t = Tracer()
        with t:
            _, code, out = run_inprocess(op.argv + ["--threads", str(workers)])
        engine_s[workers] = sum(s[3] - s[2] for s in t.spans
                                if s[1] == "engine.mine" and s[4] is None)
        rows, err = judge(op, code, out)
        attempted += 1
        if err:
            failed += 1
            log[f"{op.name} (workers={workers})"] = err
        rows_by_w[workers] = rows
    ok = ok and rows_by_w[1] == rows_by_w[2]

    layer = per_layer_metrics(tracer.spans)
    layer["engine.workers.speedup"] = (engine_s[1] / engine_s[2]) if engine_s[2] else 0.0
    layer["cli.list_lines"] = list_lines
    return layer, times, attempted, failed, ok, tracer


LAYER_UNITS = {"_s": "s", ".speedup": "x", "_ratio": "ratio"}


def layer_unit(name):
    for suffix, unit in LAYER_UNITS.items():
        if name.endswith(suffix):
            return unit
    return "count"


def run_traced(wl, runner, seconds, workload):
    deadline = time.perf_counter() + seconds
    rounds, log = [], {}
    while True:
        rounds.append(traced_round(wl, runner, log, flip=len(rounds) % 2 == 1))
        if time.perf_counter() >= deadline or out_of_time(runner):
            break
    for key, err in log.items():
        print(f"  FAILED {key}: {err[:120]}")
    tracer = rounds[-1][5]
    if tracer.missing:
        print("  not traced (attribute missing): " + ", ".join(sorted(set(tracer.missing))))
    metrics = {}
    for name in rounds[0][0]:
        unit = layer_unit(name)
        # counts repeat exactly from round to round; times are medians
        values = [r[0][name] for r in rounds]
        metrics[name] = (values[-1] if unit == "count" else statistics.median(values), unit)
    # the same estimator as wall_s: each command at its fastest round
    fastest = {mode: sum(min(walls) for walls in zip(*(r[1][mode] for r in rounds)))
               for mode in rounds[0][1]}
    metrics["cli.overhead_s"] = (fastest["process"] - fastest["plain"], "s")
    metrics["trace.overhead_s"] = (fastest["traced"] - fastest["plain"], "s")
    WORK.mkdir(exist_ok=True)
    spans_path = WORK / f"spans-{workload}.json"
    with open(spans_path, "w", encoding="utf-8") as f:
        json.dump({"ops": [op.argv for op in wl.ops], "spans": tracer.to_json()}, f)
    print(f"  spans of the last traced pass: {spans_path.relative_to(ROOT)}")
    attempted = sum(r[2] for r in rounds)
    failed = sum(r[3] for r in rounds)
    return metrics, attempted, failed, all(r[4] for r in rounds), len(rounds)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)

    started = time.perf_counter()
    # a terminated run still kills and reaps the gpm process it is waiting on
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    if not (SRC / "gpm" / "cli.py").is_file():
        print(f"benchmark: no gpm sources under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    try:
        import gpm.cli  # noqa: F401
    except ImportError as exc:
        print(f"benchmark: cannot import gpm from {SRC}: {exc}", file=sys.stderr)
        return 2

    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        wl = build(args.workload, args.seed, workdir)
        print(f"{args.workload} seed {args.seed}: {json.dumps(wl.info)}")
        runner = Runner(started, workdir)
        if args.trace:
            metrics, attempted, failed, ok, rounds = run_traced(wl, runner, args.seconds,
                                                                args.workload)
        else:
            metrics, attempted, failed, ok, rounds = run_untraced(wl, runner, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    print(f"  rounds {rounds}, operations attempted {attempted}, failed {failed}")
    print(json.dumps({
        "correct": ok,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
