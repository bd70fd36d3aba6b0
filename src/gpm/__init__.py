"""Graph pattern mining: a two-level engine with built-in applications.

High-level use: describe the problem with a `ProblemSpec` (or one of the
presets in `gpm.apps`) and call `mine`. Low-level hooks on the spec customize
pruning, pattern classification, local counting, and local-graph search.

`import gpm` loads no submodule: each exported name imports its module on
first use, so a process pays only for the modules it runs.
"""

from importlib import import_module

__version__ = "0.1.0"

__all__ = [
    "ConnectivityMap", "Embedding", "Graph", "MatchingOrder", "MiningResult",
    "OrientedGraph", "Pattern", "PatternNode", "ProblemSpec", "all_patterns",
    "canonical_code", "core_numbers", "extend", "has_edge", "is_clique",
    "is_min_extension", "load_edge_list", "load_pattern", "matching_order",
    "min_dfs_code", "mine", "mine_fsm", "mni", "orient", "rightmost_extensions",
    "validate_graph",
]

# the submodule that defines each name of __all__
_HOME = {name: module for module, names in [
    ("embedding", "ConnectivityMap Embedding"),
    ("engine", "MiningResult ProblemSpec extend mine"),
    ("fsm", "PatternNode mine_fsm mni rightmost_extensions"),
    ("graph", "Graph OrientedGraph core_numbers has_edge load_edge_list orient validate_graph"),
    ("patterns", "MatchingOrder Pattern all_patterns canonical_code is_clique load_pattern "
                 "matching_order"),
    ("dfscode", "is_min_extension min_dfs_code")] for name in names.split()}


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
