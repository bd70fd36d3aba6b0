"""Graph pattern mining: a two-level engine with built-in applications.

High-level use: describe the problem with a `ProblemSpec` (or one of the
presets in `gpm.apps`) and call `mine`. Low-level hooks on the spec customize
pruning, pattern classification, local counting, and local-graph search.
"""

from .embedding import ConnectivityMap, Embedding
from .engine import MiningResult, ProblemSpec, extend, mine
from .fsm import PatternNode, mine_fsm, mni, rightmost_extensions
from .graph import (Graph, OrientedGraph, core_numbers, has_edge, load_edge_list, orient,
                    validate_graph)
from .patterns import (MatchingOrder, Pattern, all_patterns, canonical_code, is_clique,
                       load_pattern, matching_order, symmetry_orders)
from .dfscode import is_min_extension, min_dfs_code

__version__ = "0.1.0"

__all__ = [
    "ConnectivityMap", "Embedding", "Graph", "MatchingOrder", "MiningResult",
    "OrientedGraph", "Pattern", "PatternNode", "ProblemSpec", "all_patterns",
    "canonical_code", "core_numbers", "extend", "has_edge", "is_clique",
    "is_min_extension", "load_edge_list", "load_pattern", "matching_order",
    "min_dfs_code", "mine", "mine_fsm", "mni", "orient", "rightmost_extensions",
    "symmetry_orders", "validate_graph",
]
