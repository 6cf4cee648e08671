"""Mapping with maximal subarchitectures and an increasing ancilla budget.

For each size k from n upward, the circuit is mapped onto every maximal
k-subarchitecture, densest first, under the current swap bound; every success
tightens the bound to S-1, and a zero-swap success returns immediately. Levels
the top level proves hopeless are recorded as bound failures without a search.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from .circuits import Circuit
from .graphs import CouplingGraph, is_connected
from .mapper import MapResult, map_optimal
from .maximal import Deadline, subarchitectures


@dataclass
class StrategyConfig:
    max_ancillas: int | None = 2  # None: keep going until k = |P|
    initial_bound: int | None = None  # None: unbounded, as in the base loop
    cache_dir: str | Path | None = None


@dataclass
class MemberOutcome:
    k: int
    subarch_vertices: tuple[int, ...]
    status: str  # "success" | "bound-fail"
    swaps: int | None = None
    inferred: bool = False  # decided by the k_max members, with no call


@dataclass
class StrategyReport:
    """The best result, one outcome per member reached in level order, the real
    map_optimal calls (inferred outcomes made none) and the budget searched."""
    result: MapResult | None = None
    outcomes: list[MemberOutcome] = field(default_factory=list)
    map_calls: int = 0
    max_ancillas: int | None = 2  # as in StrategyConfig

    @property
    def success(self) -> bool:
        return self.result is not None

    @property
    def swaps(self) -> int | None:
        return None if self.result is None else self.result.swaps

    @property
    def ancillas(self) -> int | None:
        # the mapper allocates every logical qubit, so the rest are ancillas
        r = self.result
        return None if r is None else r.subarch.num_vertices - len(r.initial)


def map_with_subarch(g: CouplingGraph, c: Circuit,
                     cfg: StrategyConfig | None = None,
                     deadline: Deadline | None = None) -> StrategyReport:
    """Best mapping of c onto g using at most cfg.max_ancillas ancilla qubits.

    Before a level n < k < k_max starts under bound B, the k_max members are
    mapped at B; if all fail, so does every member of levels k..k_max-1, with
    no call. Proof (Peham, Burgholzer & Wille, ACM TQC 2023): g is connected,
    so a connected k-subset grows one neighbour at a time into a connected
    k_max-subset holding all its edges, whose class embeds into a kept k_max
    member by maximality; a mapping onto the k-subset within B swaps uses
    only its edges, so it carries over. Each member goes to map_optimal at
    most once: the bound never rises, and a bounded success returns the
    unbounded witness, so its record answers later attempts as a call would.
    """
    cfg = cfg or StrategyConfig()
    n = c.n_qubits
    if n > g.num_vertices:
        raise ValueError("circuit larger than platform")
    if not is_connected(g):
        raise ValueError("platform must be connected")
    if cfg.max_ancillas is not None and cfg.max_ancillas < 0:
        raise ValueError("max_ancillas must be non-negative")

    k_max = g.num_vertices if cfg.max_ancillas is None \
        else min(g.num_vertices, n + cfg.max_ancillas)
    bound = cfg.initial_bound
    report = StrategyReport(max_ancillas=cfg.max_ancillas)
    records: dict[tuple[int, ...], MapResult | None] = {}

    def level(k: int) -> list[CouplingGraph]:  # stable: equal edge counts keep their order
        members = subarchitectures(g, k, deadline=deadline, cache_dir=cfg.cache_dir).members
        return sorted(members, key=lambda m: -m.num_edges)

    def attempt(member: CouplingGraph) -> MapResult | None:
        if member.vertices not in records:
            report.map_calls += 1
            records[member.vertices] = map_optimal(c, member, bound=bound, deadline=deadline)
        r = records[member.vertices]
        return r if r is not None and (bound is None or r.swaps <= bound) else None

    hopeless = False  # every member below k_max fails under the bound in force
    for k in range(n, k_max + 1):
        if not hopeless and n < k < k_max:
            hopeless = all(attempt(m) is None for m in level(k_max))
        for member in level(k):
            inferred = hopeless and k < k_max
            result = None if inferred else attempt(member)
            if result is None:
                report.outcomes.append(
                    MemberOutcome(k, member.vertices, "bound-fail", inferred=inferred))
                continue
            report.outcomes.append(
                MemberOutcome(k, member.vertices, "success", result.swaps))
            report.result = result
            if result.swaps == 0:
                return report
            bound = result.swaps - 1
    return report


def optimality_certificate(report: StrategyReport, g: CouplingGraph,
                           cfg: StrategyConfig | None = None) -> dict:
    """Structured argument that the achieved swap count is minimal for the ancilla budget.

    Every maximal subarchitecture at every visited size either failed under
    the bound in force or produced at least the final count; maximality makes
    those calls exhaustive over all connected subarchitectures of each size.
    It states the budget the report was searched with; a cfg with another raises.
    """
    if cfg is not None and cfg.max_ancillas != report.max_ancillas:
        raise ValueError(f"cfg.max_ancillas != {report.max_ancillas!r}, the budget searched")
    budget = "unbounded" if report.max_ancillas is None else report.max_ancillas
    chain = [
        {"k": o.k, "subarch": list(o.subarch_vertices), "status": o.status,
         "swaps": o.swaps}
        for o in report.outcomes
    ]
    if not report.success:
        return {"optimal": False, "reason": "no mapping within the initial bound",
                "ancilla_budget": budget, "bound_chain": chain}
    statement = (f"{report.swaps} swaps is minimal among all mappings onto the "
                 f"platform using at most {budget} ancilla qubits")
    return {"optimal": True, "swaps": report.swaps, "ancillas": report.ancillas,
            "ancilla_budget": budget, "statement": statement,
            "bound_chain": chain}
