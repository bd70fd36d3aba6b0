"""Which modules a process imports: `import gpm` loads no submodule, loading
a graph loads `gpm.graph` alone, and a subcommand loads only what it runs.

Each case runs in a fresh interpreter and reads its `sys.modules`.
"""
import os
import subprocess
import sys

import pytest

import gpm

SRC = os.path.dirname(os.path.dirname(os.path.abspath(gpm.__file__)))
REPORT = ("\nimport sys\n"
          "print(' '.join(sorted(m for m in sys.modules\n"
          "                      if m == 'numpy' or m.split('.')[0] == 'gpm')))\n")


def _modules(code, *args):
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run([sys.executable, "-c", code + REPORT, *args], env=env,
                         capture_output=True, text=True, check=True)
    return set(out.stdout.split())


@pytest.fixture
def graph_files(tmp_path):
    g, lbl, pat = tmp_path / "g.el", tmp_path / "g.lbl", tmp_path / "c4.pat"
    g.write_text("0 1\n1 2\n2 3\n3 0\n0 2\n")
    lbl.write_text("0 A\n1 B\n2 A\n3 B\n")
    pat.write_text("0 1\n1 2\n2 3\n3 0\n")
    return str(g), str(lbl), str(pat)


def test_import_gpm_loads_no_submodule_and_not_numpy():
    assert _modules("import gpm") == {"gpm"}


def test_loading_a_graph_loads_only_the_graph_module(graph_files):
    g, lbl, _ = graph_files
    code = ("import sys, gpm, gpm.graph\n"
            "gpm.graph.load_edge_list(sys.argv[1], labels_path=sys.argv[2])")
    assert _modules(code, g, lbl) == {"gpm", "gpm.graph", "numpy"}


def test_cli_module_loads_no_mining_module():
    assert _modules("import gpm.cli") == {
        "gpm", "gpm.cli", "gpm.dfscode", "gpm.fsm", "gpm.graph", "gpm.patterns", "numpy"}


def _run_cli(graph_files, argv):
    g, _, pat = graph_files
    argv = [pat if a == "PATTERN" else a for a in argv] + [g, "--threads", "1"]
    code = "import sys\nfrom gpm.cli import run\nassert run(sys.argv[1:]) == 0"
    return _modules(code, *argv)


@pytest.mark.parametrize("argv", [["tc"], ["match", "-p", "PATTERN"], ["motif", "-k", "3"]])
def test_tc_and_match_load_no_oracle_or_local_modules(graph_files, argv):
    loaded = _run_cli(graph_files, argv)
    assert "gpm.apps" in loaded
    assert not loaded & {"gpm.oracle", "gpm.localcount", "gpm.localgraph"}


def test_clique_lo_loads_the_local_graph_module(graph_files):
    assert "gpm.localgraph" in _run_cli(graph_files, ["clique", "-k", "3", "--level", "lo"])


def test_names_resolve_on_first_use():
    code = "import gpm\nassert gpm.mine.__module__ == 'gpm.engine'"
    assert "gpm.engine" in _modules(code)
    assert set(dir(gpm)) >= set(gpm.__all__)
    with pytest.raises(AttributeError, match="no attribute 'nope'"):
        gpm.nope
