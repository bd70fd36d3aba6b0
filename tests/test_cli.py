import gc
import importlib.util
import json
import os
import random
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import gpm.arrayroute
from gpm import localcount, oracle
from gpm.apps import clique_local_spec, clique_spec, subgraph_listing_spec, triangle_spec
from gpm.cli import run
from gpm.engine import mine
from gpm.graph import Graph, load_edge_list
from gpm.patterns import Pattern, load_pattern

from conftest import random_graph


@pytest.fixture
def files(tmp_path):
    paths = {}

    def write(name, text):
        p = tmp_path / name
        p.write_text(text)
        paths[name] = str(p)
        return str(p)

    write("k4.el", "0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n")
    write("diamond.el", "0 1\n0 2\n1 2\n1 3\n2 3\n")
    write("two_edges.el", "0 1\n2 3\n")
    write("two_edges.lbl", "0 A\n1 B\n2 A\n3 B\n")
    write("tri.pat", "0 1\n0 2\n1 2\n")
    write("c4.pat", "0 1\n1 2\n2 3\n3 0\n")
    write("wedge.pat", "0 1\n1 2\n")
    write("tailed.el", "0 1\n1 2\n2 0\n2 3\n")
    write("tailed.lbl", "0 A\n1 B\n2 B\n3 B\n")
    write("bb.pat", "v 0 B\nv 1 B\n0 1\n")
    write("bz.pat", "v 0 B\nv 1 Z\n0 1\n")
    paths["tmp"] = str(tmp_path)
    paths["out.txt"] = str(tmp_path / "out.txt")
    return paths


def _capture(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out
    return code, out


class TestSubcommands:
    def test_tc_tsv(self, files, capsys):
        code, out = _capture(capsys, ["tc", files["k4.el"], "--format", "tsv"])
        assert code == 0
        assert out == "triangle\t4\n"

    def test_motif_lo_tsv(self, files, capsys):
        code, out = _capture(capsys, ["motif", "-k", "3", files["diamond.el"],
                                      "--level", "lo", "--format", "tsv"])
        assert code == 0
        rows = dict(line.split("\t") for line in out.strip().splitlines())
        assert rows == {"wedge": "2", "triangle": "2"}

    def test_fsm(self, files, capsys):
        code, out = _capture(capsys, ["fsm", "-k", "1", files["two_edges.el"],
                                      "--labels", files["two_edges.lbl"],
                                      "--minsup", "2", "--format", "tsv"])
        assert code == 0
        assert out == "(0,1,A,B)\t2\n"

    def test_clique_levels_agree(self, files, capsys):
        results = {}
        for level in ("hi", "lo"):
            code, out = _capture(capsys, ["clique", "-k", "3", files["k4.el"],
                                          "--level", level, "--format", "tsv"])
            assert code == 0
            results[level] = out
        assert results["hi"] == results["lo"] == "3-clique\t4\n"

    def test_motif_levels_agree(self, files, capsys):
        outs = set()
        for level in ("hi", "lo"):
            code, out = _capture(capsys, ["motif", "-k", "4", files["diamond.el"],
                                          "--level", level, "--format", "tsv"])
            assert code == 0
            outs.add(out)
        assert len(outs) == 1

    def test_match(self, files, capsys):
        code, out = _capture(capsys, ["match", "-p", files["c4.pat"],
                                      files["k4.el"], "--format", "tsv"])
        assert code == 0
        assert out == "4-cycle\t3\n"

    def test_oracle_subcommands(self, files, capsys):
        code, out = _capture(capsys, ["oracle", "motif", "-k", "3",
                                      files["k4.el"], "--format", "tsv"])
        assert code == 0
        assert out == "triangle\t4\n"
        code, out = _capture(capsys, ["oracle", "match", "-p", files["tri.pat"],
                                      files["k4.el"], "--format", "tsv"])
        assert code == 0
        assert out == "triangle\t4\n"

    def test_json_with_stats(self, files, capsys):
        code, out = _capture(capsys, ["tc", files["k4.el"], "--stats"])
        assert code == 0
        payload = json.loads(out)
        assert payload[0] == {"pattern": "triangle", "support": 4}
        stats = payload[-1]["stats"]
        assert set(stats) == {"enumerated_embeddings", "wall_ms", "workers", "plans"}

    def test_fsm_stats_have_the_tc_keys(self, files, capsys):
        keys = []
        for argv in (["tc", files["k4.el"]],
                     ["fsm", "-k", "1", files["two_edges.el"], "--labels",
                      files["two_edges.lbl"], "--minsup", "2"]):
            code, out = _capture(capsys, argv + ["--stats"])
            assert code == 0
            keys.append(list(json.loads(out)[-1]["stats"]))
        assert keys[0] == keys[1] == ["enumerated_embeddings", "wall_ms", "workers", "plans"]

    @pytest.mark.parametrize("argv, plans", [
        (["motif", "-k", "4", "@diamond.el"], ["generic:array"]),
        (["motif", "-k", "4", "@diamond.el", "--no-mnc"], ["generic:walk"]),
        (["motif", "-k", "4", "@diamond.el", "--level", "lo"], ["formula:mc4", "clique:array"]),
        (["match", "-p", "@c4.pat", "@k4.el"], ["match:array"]),
        (["match", "-p", "@c4.pat", "@k4.el", "--list", "@out.txt"], ["match:array"]),
        (["match", "-p", "@c4.pat", "@k4.el", "--list", "@out.txt", "--no-mnc"], ["match:walk"]),
        (["tc", "@k4.el"], ["clique:array"]),
        (["clique", "-k", "4", "@k4.el", "--no-mnc"], ["clique:walk"]),
        (["clique", "-k", "4", "@k4.el", "--level", "lo", "--orient", "core"], ["local:array"]),
        (["clique", "-k", "4", "@k4.el", "--level", "lo", "--orient", "core", "--no-mnc"],
         ["local:walk"]),
        (["fsm", "-k", "1", "@two_edges.el", "--labels", "@two_edges.lbl", "--minsup", "2"],
         ["fsm"]),
    ])
    def test_stats_name_the_plans(self, files, capsys, argv, plans):
        argv = [files[a[1:]] if a.startswith("@") else a for a in argv]
        code, out = _capture(capsys, argv + ["--stats"])
        assert code == 0
        assert json.loads(out)[-1]["stats"]["plans"] == plans
        code, out = _capture(capsys, argv + ["--stats", "--format", "tsv"])
        assert code == 0
        assert out.splitlines()[-1] == "# plans\t" + ",".join(plans)

    def test_motif_lo_stats_cover_kernel_and_walk(self, files, capsys, monkeypatch):
        parts = []
        counts4 = localcount.mc4_local_counts

        def recorded(*args, **kwargs):
            parts.append(counts4(*args, **kwargs))
            return parts[-1]

        monkeypatch.setattr(localcount, "mc4_local_counts", recorded)
        code, out = _capture(capsys, ["motif", "-k", "4", files["diamond.el"],
                                      "--level", "lo", "--stats"])
        assert code == 0
        stats = json.loads(out)[-1]["stats"]
        (_, walk, kernel, enumerated), = parts
        # wall_ms is printed rounded to three decimals
        assert stats["wall_ms"] >= walk.wall_ms + kernel.wall_ms - 0.0005
        assert stats["enumerated_embeddings"] == enumerated
        assert enumerated == walk.enumerated + kernel.enumerated

    def test_pattern_labels_use_graph_numbering(self, files, capsys):
        # graph labels A B B B; the edges 1-2 and 2-3 join two B vertices
        g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 0), (2, 3)], labels=[0, 1, 1, 1])
        assert oracle.count_edge_induced(g, Pattern(2, [(0, 1)], labels=(1, 1))) == 2
        for cmd in (["match"], ["oracle", "match"]):
            code, out = _capture(capsys, cmd + ["-p", files["bb.pat"], files["tailed.el"],
                                                "--labels", files["tailed.lbl"]])
            assert code == 0
            assert json.loads(out)[0]["support"] == 2

    def test_listing_output(self, files, capsys, tmp_path):
        out_path = tmp_path / "tris.txt"
        code, _ = _capture(capsys, ["tc", files["k4.el"], "--list", str(out_path)])
        assert code == 0
        lines = out_path.read_text().strip().splitlines()
        assert len(lines) == 4
        assert {frozenset(map(int, l.split())) for l in lines} == {
            frozenset(s) for s in [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]}


    @pytest.mark.parametrize("level, spec", [("hi", clique_spec), ("lo", clique_local_spec)])
    def test_clique_listing_is_what_mine_hands_process(self, capsys, tmp_path, level, spec):
        g_path = tmp_path / "dense.el"
        g_path.write_text("".join(f"{a} {b}\n" for a in range(12) for b in range(a + 1, 12)
                                  if (a * b) % 5 != 1))
        lines = []
        mine(load_edge_list(str(g_path)),
             spec(4, process=lambda emb: lines.append(" ".join(map(str, emb.vertices)))))
        out_path = tmp_path / "cliques.txt"
        code, out = _capture(capsys, ["clique", "-k", "4", str(g_path), "--level", level,
                                      "--list", str(out_path)])
        assert code == 0
        assert json.loads(out)[0]["support"] == len(lines) > 20
        assert out_path.read_text().splitlines() == lines

    @pytest.mark.parametrize("orient", ["degree", "core"])
    @pytest.mark.parametrize("k", ["4", "5"])
    def test_clique_lo_listing_is_the_hi_listing(self, capsys, tmp_path, k, orient):
        g = random_graph(random.Random(3), 30, 0.4)
        g_path = tmp_path / "g.el"
        g_path.write_text("".join(f"{u} {v}\n" for u in range(g.vertex_count)
                                  for v in g.adjacency()[u] if u < v))
        written = []
        for level in ("hi", "lo"):
            out_path = tmp_path / f"{level}.txt"
            code, out = _capture(capsys, ["clique", "-k", k, str(g_path), "--level", level,
                                          "--orient", orient, "--list", str(out_path)])
            assert code == 0
            written.append(out_path.read_bytes())
        assert written[0].count(b"\n") > 20
        assert written[0] == written[1]

    @pytest.mark.parametrize("budget", [None, 1, 3])
    @pytest.mark.parametrize("argv, walk_argv, spec", [
        (["tc"], ["clique", "-k", "3", "--no-mnc"], lambda files, **h: triangle_spec(**h)),
        (["clique", "-k", "4"], ["clique", "-k", "4", "--no-mnc"],
         lambda files, **h: clique_spec(4, **h)),
        (["match", "-p", "@wedge.pat"], ["match", "-p", "@wedge.pat", "--no-mnc"],
         lambda files, **h: subgraph_listing_spec(load_pattern(files["wedge.pat"]), **h)),
        (["match", "-p", "@c4.pat"], ["match", "-p", "@c4.pat", "--no-mnc"],
         lambda files, **h: subgraph_listing_spec(load_pattern(files["c4.pat"]), **h)),
    ], ids=["tc", "clique4", "match-wedge", "match-c4"])
    def test_array_listing_is_the_walks(self, files, capsys, tmp_path, monkeypatch, budget,
                                        argv, walk_argv, spec):
        g_path = tmp_path / "dense.el"
        g_path.write_text("".join(f"{a} {b}\n" for a in range(12) for b in range(a + 1, 12)
                                  if (a * b) % 5 != 1))
        if budget is not None:
            monkeypatch.setattr(gpm.arrayroute, "ROW_BUDGET", budget)
        lines = []
        mine(load_edge_list(str(g_path)),
             spec(files, process=lambda emb: lines.append(" ".join(map(str, emb.vertices)))))
        written = []
        for cmd, route in ((argv, "array"), (walk_argv, "walk")):
            out_path = tmp_path / f"{route}.txt"
            cmd = [files[a[1:]] if a.startswith("@") else a for a in cmd]
            code, out = _capture(capsys, cmd + [str(g_path), "--list", str(out_path), "--stats"])
            assert code == 0
            assert json.loads(out)[-1]["stats"]["plans"][0].endswith(":" + route)
            written.append(out_path.read_bytes())
        assert len(lines) > 20
        assert written[0] == written[1] == "".join(l + "\n" for l in lines).encode()

    @pytest.mark.parametrize("argv", [["tc"], ["clique", "-k", "4"], ["match", "-p", "@tri.pat"]])
    def test_listing_without_matches_writes_an_empty_file(self, files, capsys, argv):
        with open(files["out.txt"], "w") as f:
            f.write("stale\n")
        argv = [files[a[1:]] if a.startswith("@") else a for a in argv]
        code, out = _capture(capsys, argv + [files["two_edges.el"], "--list", files["out.txt"]])
        assert code == 0 and json.loads(out)[0]["support"] == 0
        with open(files["out.txt"], "rb") as f:
            assert f.read() == b""

    def test_listing_is_the_same_for_any_thread_count(self, files, capsys, tmp_path):
        g = tmp_path / "grid.el"
        g.write_text("".join(f"{v} {w}\n" for v in range(40)
                             for w in (v + 1, v + 7, v + 13) if w < 40))
        written = []
        for threads in ("1", "2"):
            out_path = tmp_path / f"wedges-{threads}.txt"
            code, _ = _capture(capsys, ["match", "-p", files["wedge.pat"], str(g),
                                        "--list", str(out_path), "--threads", threads])
            assert code == 0
            written.append(out_path.read_bytes())
        assert written[0] == written[1] and written[0].count(b"\n") > 100


class TestErrorsAndToggles:
    def test_fsm_size_bound(self, files, capsys):
        assert run(["fsm", "-k", "11", files["two_edges.el"],
                    "--labels", files["two_edges.lbl"], "--minsup", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "gpm: fsm supports at most 10 pattern edges, got k = 11\n"

    @pytest.mark.parametrize("minsup", ["0", "-5"])
    def test_fsm_minsup_below_one(self, files, capsys, minsup):
        assert run(["fsm", "-k", "2", files["two_edges.el"],
                    "--labels", files["two_edges.lbl"], "--minsup", minsup]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "gpm: --minsup must be at least 1\n"

    @pytest.mark.parametrize("cap", ["0", "-1"])
    def test_fsm_mem_cap_below_one(self, files, capsys, cap):
        assert run(["fsm", "-k", "2", files["two_edges.el"], "--labels", files["two_edges.lbl"],
                    "--minsup", "1", "--mem-cap", cap]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"gpm: the memory cap must be at least 1 byte, got {cap}\n"

    def test_motif_lo_honours_mine_flags(self, files, capsys):
        def stats_run(flags):
            code, out = _capture(capsys, ["motif", "-k", "4", files["diamond.el"],
                                          "--level", "lo", "--stats", *flags])
            assert code == 0
            rows = json.loads(out)
            return rows[:-1], rows[-1]["stats"]["enumerated_embeddings"]

        base_rows, base_enumerated = stats_run([])
        for flags in (["--orient", "none"], ["--no-df"]):
            rows, enumerated = stats_run(flags)
            assert rows == base_rows
            assert enumerated != base_enumerated

    @pytest.mark.parametrize("argv", [
        ["motif", "-k", "3", "@k4.el", "--list", "@out.txt"],
        ["fsm", "-k", "1", "--minsup", "1", "@two_edges.el", "--labels", "@two_edges.lbl",
         "--list", "@out.txt"],
        ["fsm", "-k", "1", "--minsup", "1", "@two_edges.el", "--labels", "@two_edges.lbl",
         "--orient", "core"],
        ["oracle", "motif", "-k", "3", "@k4.el", "--threads", "2"],
        ["oracle", "motif", "-k", "3", "@k4.el", "--stats"],
        ["tc", "@k4.el", "--no-mo"],
        ["tc", "@k4.el", "--no-mnc"],
        ["match", "-p", "@c4.pat", "@k4.el", "--no-mo"],
        # triangle, clique and motif counts are label-blind
        ["tc", "@k4.el", "--labels", "@two_edges.lbl"],
        ["clique", "-k", "3", "@k4.el", "--labels", "@two_edges.lbl"],
        ["motif", "-k", "3", "@k4.el", "--level", "lo", "--labels", "@two_edges.lbl"],
    ])
    def test_flags_a_subcommand_ignores_are_refused(self, files, capsys, argv):
        assert run([files[a[1:]] if a.startswith("@") else a for a in argv]) == 2
        assert capsys.readouterr().out == ""

    def test_no_sb_refused(self, files, capsys):
        assert run(["tc", files["k4.el"], "--no-sb"]) == 2

    @pytest.mark.parametrize("k", ["0", "-1"])
    def test_oracle_motif_size_below_one_refused(self, files, capsys, k):
        assert run(["oracle", "motif", "-k", k, files["k4.el"]]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"gpm: motif size k must be at least 1, got {k}\n"

    def test_oracle_motif_single_vertex(self, files, capsys):
        code, out = _capture(capsys, ["oracle", "motif", "-k", "1", files["k4.el"],
                                      "--format", "tsv"])
        assert code == 0
        assert out == "0100\t4\n"

    def test_missing_file(self, capsys):
        assert run(["tc", "/nonexistent/path.el"]) == 2

    def test_malformed_graph(self, files, capsys, tmp_path):
        bad = tmp_path / "bad.el"
        bad.write_text("0 x\n")
        assert run(["tc", str(bad)]) == 2

    def test_vertex_count_too_large_to_allocate(self, capsys, tmp_path):
        # n = 10**12 + 1 needs terabytes of offsets; numpy refuses at once
        huge = tmp_path / "huge.el"
        huge.write_text("0 1000000000000\n")
        assert run(["tc", str(huge)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert "1000000000001 vertices" in captured.err

    @pytest.mark.parametrize("big", ["1152921504606846974", "9223372036854775807",
                                     "9223372036854775808", "99999999999999999999"])
    def test_vertex_id_beyond_int64_offsets(self, capsys, tmp_path, big):
        # ids of 2^63 or more overflow int64, and from 2^60 - 2 on the row
        # offsets alone are past the largest array numpy allows
        huge = tmp_path / "huge.el"
        huge.write_text(f"0 1\n0 {big}\n")
        assert run(["tc", str(huge)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"gpm: {huge}: {int(big) + 1} vertices (largest id + 1) "
                                "do not fit in memory\n")

    @pytest.mark.parametrize("loader", ["graph", "labels", "pattern"])
    def test_non_utf8_input(self, files, capsys, tmp_path, loader):
        bad = tmp_path / "bad.txt"
        bad.write_bytes(b"0 1\n\xff 2\n" if loader != "labels" else b"0 A\n1 \xff\n2 A\n3 B\n")
        argv = {"graph": ["tc", str(bad)],
                "labels": ["match", "-p", files["wedge.pat"], files["two_edges.el"],
                           "--labels", str(bad)],
                "pattern": ["match", "-p", str(bad), files["k4.el"]]}[loader]
        assert run(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"gpm: {bad}: not UTF-8 text (invalid start byte)\n"

    def test_negative_label_id(self, files, capsys, tmp_path):
        bad = tmp_path / "bad.lbl"
        bad.write_text("0 A\n1 B\n-2 A\n3 B\n")
        assert run(["fsm", "-k", "1", "--minsup", "1", files["two_edges.el"],
                    "--labels", str(bad)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"gpm: {bad}:3: negative vertex id\n"

    def test_usage_error(self, capsys):
        assert run(["clique"]) == 2

    def test_fsm_memory_cap(self, files, capsys, tmp_path):
        g = tmp_path / "dense.el"
        lbl = tmp_path / "dense.lbl"
        n = 30
        g.write_text("\n".join(f"{a} {b}" for a in range(n)
                               for b in range(a + 1, n) if (a + b) % 2))
        lbl.write_text("\n".join(f"{v} A" for v in range(n)))
        code = run(["fsm", "-k", "3", str(g), "--labels", str(lbl),
                    "--minsup", "1", "--mem-cap", "512"])
        assert code == 3

    @pytest.mark.parametrize("case, want", [("tc", 0), ("usage", 2), ("mem-cap", 3)])
    def test_console_entry_matches_run(self, files, capsys, tmp_path, case, want):
        # `python -m gpm.cli` goes through `main`, whose exit path `run` skips
        g, lbl = tmp_path / "dense.el", tmp_path / "dense.lbl"
        g.write_text("\n".join(f"{a} {b}" for a in range(30)
                               for b in range(a + 1, 30) if (a + b) % 2))
        lbl.write_text("\n".join(f"{v} A" for v in range(30)))
        argv = {"tc": ["tc", files["k4.el"]],
                "usage": ["clique", files["k4.el"]],
                "mem-cap": ["fsm", "-k", "3", str(g), "--labels", str(lbl),
                            "--minsup", "1", "--mem-cap", "512"]}[case]
        code = run(argv)
        captured = capsys.readouterr()
        src = str(Path(gpm.arrayroute.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-m", "gpm.cli", *argv], env=env,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                              timeout=120)
        assert code == want
        assert (proc.returncode, proc.stdout, proc.stderr) == (code, captured.out, captured.err)

    def test_mnc_df_toggles_keep_counts(self, files, capsys):
        base = None
        for flags in ([], ["--no-mnc"], ["--no-df"], ["--no-mnc", "--no-df"]):
            code, out = _capture(capsys, ["motif", "-k", "4", files["diamond.el"],
                                          "--format", "tsv", *flags])
            assert code == 0
            base = base or out
            assert out == base

    def test_threads_env_default(self, files, capsys, monkeypatch):
        monkeypatch.setenv("GPM_THREADS", "3")
        code, out = _capture(capsys, ["tc", files["k4.el"], "--stats"])
        assert code == 0
        assert json.loads(out)[-1]["stats"]["workers"] == 3

    def test_unknown_pattern_label(self, files, capsys):
        assert run(["match", "-p", files["bz.pat"], files["tailed.el"],
                    "--labels", files["tailed.lbl"]]) == 2
        assert capsys.readouterr().err.count("\n") == 1

    @pytest.mark.parametrize("text, line, message", [
        ("v 0 A\nv 1 B\nv 1 A\n0 1\n", 3, "duplicate label for vertex 1"),
        ("v 0 A\nv 1 B\nv -1 A\n0 1\n", 3, "negative vertex id -1"),
        ("0 1\nv x A\n", 2, "non-integer vertex id"),
        ("0 1\n-1 0\n", 2, "negative vertex id"),
        ("0 1\n1 1\n", 2, "self loop"),
        ("0 1\nv 1\n", 2, "expected 'v id label'"),
        ("0 1\n1 2 3\n", 2, "expected 'u v' or 'v id label'"),
        ("0 1\n1 x\n", 2, "non-integer vertex id"),
    ], ids=["repeated", "negative", "non-integer", "negative-edge", "self-loop",
            "short-v-line", "long-edge-line", "non-integer-edge"])
    def test_bad_pattern_label_line(self, files, capsys, tmp_path, text, line, message):
        pat = tmp_path / "bad.pat"
        pat.write_text(text)
        assert run(["match", "-p", str(pat), files["tailed.el"],
                    "--labels", files["tailed.lbl"]]) == 2
        assert capsys.readouterr().err == f"gpm: {pat}:{line}: {message}\n"

    @pytest.mark.parametrize("text, message", [
        ("", "pattern has no edges"),
        ("v 0 A\nv 1 B\n", "pattern has no edges"),
        ("0 1\n2 3\n", "pattern must be connected"),
        ("0 1\n1 2\n0 2\n3 4\n", "pattern must be connected"),
    ], ids=["empty", "labels-only", "disconnected", "disconnected-enough-edges"])
    def test_bad_pattern_file(self, files, capsys, tmp_path, text, message):
        pat = tmp_path / "bad.pat"
        pat.write_text(text)
        assert run(["match", "-p", str(pat), files["tailed.el"]]) == 2
        assert capsys.readouterr().err == f"gpm: {pat}: {message}\n"

    @pytest.mark.parametrize("text", ["0 1\n1 3000000000000\n",
                                      "v 0 A\nv 1 B\n0 1\n1 1000000\n"],
                             ids=["unlabeled", "labeled"])
    def test_pattern_with_a_huge_vertex_id(self, files, capsys, tmp_path, monkeypatch, text):
        # k vertices need k - 1 edges, so nothing is built per vertex
        monkeypatch.setattr(Pattern, "adjacency_sets", lambda self: pytest.fail("built adjacency"))
        pat = tmp_path / "huge.pat"
        pat.write_text(text)
        assert run(["match", "-p", str(pat), files["tailed.el"],
                    "--labels", files["tailed.lbl"]]) == 2
        assert capsys.readouterr().err == f"gpm: {pat}: pattern must be connected\n"

    @pytest.mark.parametrize("text, graph, what", [
        ("".join(f"{i} {i + 1}\n" for i in range(8)), [], "canonicalization"),
        ("".join(f"v {i} A\n" for i in range(9))
         + "".join(f"{a} {b}\n" for a in range(9) for b in range(a + 1, 9)),
         ["--labels", "tailed.lbl"], "automorphisms"),
    ], ids=["9-path", "labeled-9-clique"])
    def test_pattern_past_the_brute_force_bound(self, files, capsys, tmp_path, text, graph,
                                                what):
        pat = tmp_path / "big.pat"
        pat.write_text(text)
        assert run(["match", "-p", str(pat), files["tailed.el"]]
                   + [files.get(arg, arg) for arg in graph]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"gpm: pattern too large for brute-force {what} (k=9 > 8)\n"

    def test_bad_threads_env(self, files, capsys, monkeypatch):
        monkeypatch.setenv("GPM_THREADS", "abc")
        assert run(["tc", files["k4.el"]]) == 2
        assert capsys.readouterr().err == "gpm: GPM_THREADS must be an integer, got 'abc'\n"
        assert run(["tc", files["k4.el"], "--threads", "1"]) == 0
        with pytest.raises(ValueError, match="GPM_THREADS"):
            mine(Graph.from_edges(3, [(0, 1)]), triangle_spec())

    def test_level_lo_runs_without_orientation(self, capsys, tmp_path):
        g = random_graph(random.Random(5), 40, 0.4)
        path = tmp_path / "g.el"
        path.write_text("".join(f"{u} {v}\n" for u in range(g.vertex_count)
                                for v in g.adjacency()[u] if u < v))
        for k in (4, 5):
            outs = [_capture(capsys, ["clique", "-k", str(k), str(path), "--level", "lo",
                                      "--orient", orient]) for orient in ("none", "core")]
            assert outs[0] == outs[1]
            assert outs[0][0] == 0 and json.loads(outs[0][1])[0]["support"] > 0

    def test_labeled_pattern_on_unlabeled_graph_refused(self, files, capsys):
        for cmd in (["match"], ["oracle", "match"], ["oracle", "mni"]):
            assert run(cmd + ["-p", files["bb.pat"], files["k4.el"]]) == 2
            assert capsys.readouterr().err == (
                "gpm: the pattern has vertex labels but the graph has none\n")

    def test_list_file_closed_when_the_run_is_refused(self, files, capsys):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run(["match", "-p", files["bb.pat"], files["k4.el"],
                        "--list", files["out.txt"]]) == 2
            gc.collect()
        assert not [w for w in caught if issubclass(w.category, ResourceWarning)]

    @pytest.mark.parametrize("level", ["hi", "lo"])
    def test_clique_size_bound(self, files, capsys, level):
        assert run(["clique", "-k", "256", files["k4.el"], "--level", level]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "gpm: clique size must be <= 255, got 256\n"
        code, out = _capture(capsys, ["clique", "-k", "255", files["k4.el"], "--level", level])
        assert code == 0
        assert json.loads(out) == [{"pattern": "255-clique", "support": 0}]

    @pytest.mark.parametrize("argv, message", [
        (["clique", "-k", "1"], "clique size must be >= 2"),
        (["tc", "--threads", "0"], "--threads must be >= 1"),
    ], ids=["clique-k1", "threads-0"])
    def test_size_and_thread_refusals(self, files, capsys, argv, message):
        assert run(argv + [files["k4.el"]]) == 2
        assert capsys.readouterr() == ("", f"gpm: {message}\n")

    def test_motif_lo_k5_rejected(self, files):
        assert run(["motif", "-k", "5", files["k4.el"], "--level", "lo"]) == 2


def _load_tracing():
    path = Path(__file__).resolve().parents[1] / "benchmark" / "tracing.py"
    spec = importlib.util.spec_from_file_location("tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_benchmark_tracer_reads_the_engine(capsys, tmp_path):
    # benchmark/tracing.py wraps gpm's cross-module calls by name and sums
    # each plan's counters from what `engine._run_plan` returns; every name
    # it wraps but `gpm.cli.mine` must exist, and each plan span's
    # `enumerated` must be what `--stats` prints
    tracing = _load_tracing()
    g = random_graph(random.Random(5), 30, 0.25)
    graph = tmp_path / "g.el"
    graph.write_text("".join(f"{u} {v}\n" for u in range(g.vertex_count)
                             for v in g.adjacency()[u] if u < v))
    plan_spans = {f"engine.{plan}" for plan in tracing.ENGINE_PLANS}
    tracer = tracing.Tracer()
    with tracer:
        assert set(tracer.missing) <= {"gpm.cli.mine"}
        for argv in (["clique", "-k", "3"], ["motif", "-k", "4", "--no-mnc"]):
            start = len(tracer.spans)
            assert run(argv + [str(graph), "--stats", "--format", "json"]) == 0
            stats = json.loads(capsys.readouterr().out)[-1]["stats"]
            spans = [s for s in tracer.spans[start:] if s[1] in plan_spans]
            assert len(spans) == 1
            assert spans[0][6]["enumerated"] == stats["enumerated_embeddings"] > 0


def test_benchmark_tracer_reads_fsm(capsys, tmp_path):
    # the tracer wraps `fsm_mine_spec` in the CLI and `mni` and
    # `is_min_extension` in `gpm.fsm`, so fsm must keep calling them through
    # those module names; `fsm.mine`'s embeddings are what `--stats` prints
    tracing = _load_tracing()
    rng = random.Random(5)
    g = random_graph(rng, 30, 0.25)
    graph, labels = tmp_path / "g.el", tmp_path / "g.lbl"
    graph.write_text("".join(f"{u} {v}\n" for u in range(g.vertex_count)
                             for v in g.adjacency()[u] if u < v))
    labels.write_text("".join(f"{v} {rng.choice('AB')}\n" for v in range(g.vertex_count)))
    tracer = tracing.Tracer()
    with tracer:
        assert run(["fsm", "-k", "3", "--minsup", "2", str(graph), "--labels", str(labels),
                    "--stats", "--format", "json"]) == 0
    stats = json.loads(capsys.readouterr().out)[-1]["stats"]
    names = {s[1] for s in tracer.spans}
    assert {"fsm.mine", "fsm.support", "dfscode.min_check"} <= names
    mined = [s for s in tracer.spans if s[1] == "fsm.mine"]
    assert len(mined) == 1
    assert mined[0][6]["embeddings"] == stats["enumerated_embeddings"] > 0
