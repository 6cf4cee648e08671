"""Optimal quantum layout synthesis with maximal subarchitectures.

The benchmark's baseline: a frozen copy of src/subarchmap as of commit
f67811b, which the benchmark times alternately with the program. The only
edit is that load_platform finds its built-in platforms in this package.
"""

from .circuits import (Allocation, Circuit, Gate, apply_swap, circuits_equal,
                       emit_qasm, parse_qasm, unmap)
from .graphs import (CouplingGraph, connected_components, induced_subgraph,
                     is_connected, load_platform, parse_platform, spanning_tree)
from .iso import find_embedding, is_isomorphic, subgraph_isomorphic, wl_hash
from .mapper import MapResult, brute_force_optimal, map_optimal
from .maximal import SubarchSet, max_subarchitectures
from .strategy import StrategyConfig, StrategyReport, map_with_subarch, optimality_certificate
from .subgraphs import connected_subgraphs, count_all_subsets
from .verify import Verdict, check_equivalence, check_feasibility, lift_to_platform

__all__ = [
    "Allocation", "Circuit", "CouplingGraph", "Gate", "MapResult",
    "StrategyConfig", "StrategyReport", "SubarchSet", "Verdict",
    "apply_swap", "brute_force_optimal", "check_equivalence",
    "check_feasibility", "circuits_equal", "connected_components",
    "connected_subgraphs", "count_all_subsets", "emit_qasm", "find_embedding",
    "induced_subgraph", "is_connected", "is_isomorphic", "lift_to_platform",
    "load_platform", "map_optimal", "map_with_subarch",
    "max_subarchitectures", "optimality_certificate", "parse_platform",
    "parse_qasm", "spanning_tree", "subgraph_isomorphic", "unmap", "wl_hash",
]

__version__ = "0.1.0"
