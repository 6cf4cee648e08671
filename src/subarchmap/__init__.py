"""Optimal quantum layout synthesis with maximal subarchitectures."""

from .circuits import (Allocation, Circuit, Gate, circuits_equal, emit_qasm,
                       parse_qasm, unmap)
from .graphs import (CouplingGraph, induced_subgraph, is_connected, load_platform,
                     parse_platform)
from .iso import is_isomorphic, subgraph_isomorphic, wl_hash
from .mapper import MapResult, brute_force_optimal, map_optimal
from .maximal import SubarchSet, max_subarchitectures, subarchitectures
from .strategy import StrategyConfig, StrategyReport, map_with_subarch, optimality_certificate
from .subgraphs import connected_subgraphs
from .verify import Verdict, check_equivalence, check_feasibility, verify_result

__all__ = [
    "Allocation", "Circuit", "CouplingGraph", "Gate", "MapResult",
    "StrategyConfig", "StrategyReport", "SubarchSet", "Verdict",
    "brute_force_optimal", "check_equivalence", "check_feasibility",
    "circuits_equal", "connected_subgraphs", "emit_qasm",
    "induced_subgraph", "is_connected", "is_isomorphic",
    "load_platform", "map_optimal", "map_with_subarch",
    "max_subarchitectures", "optimality_certificate", "parse_platform",
    "parse_qasm", "subarchitectures", "subgraph_isomorphic", "unmap",
    "verify_result", "wl_hash",
]

__version__ = "0.1.0"
