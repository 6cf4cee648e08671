"""Independent checking of mapped circuits: feasibility and equivalence.

This module is the trusted base for the test suite: it shares the data types
with the mapper but none of its search code, and no isomorphism code at all.
Relaxed equivalence holds iff every qubit sees the same gates in the same order.
The modes STRICT and RELAXED are defined in circuits and re-exported here.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .circuits import RELAXED, STRICT, Allocation, Circuit, UnmapError, circuits_equal, unmap
from .graphs import CouplingGraph
from .mapper import MapResult


@dataclass
class Verdict:
    feasible: bool
    equivalent: bool
    mode: str
    swap_count: int
    violations: list[tuple[int, str]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.feasible and self.equivalent

    def to_dict(self) -> dict:
        return {"feasible": self.feasible, "equivalent": self.equivalent,
                "mode": self.mode, "swap_count": self.swap_count,
                "violations": [{"gate": i, "reason": r} for i, r in self.violations]}


def check_feasibility(mapped: Circuit, g: CouplingGraph,
                      layout: Allocation) -> list[tuple[int, str]]:
    """Violations for every layout entry or gate on a qubit off the platform
    (a layout entry's gate is -1) and every cx/swap off a coupling edge."""
    vset = set(g.vertices)
    violations = [(-1, f"layout puts logical qubit {q} on non-platform qubit {p}")
                  for q, p in layout.forward if p not in vset]
    for i, gate in enumerate(mapped.gates):
        if not set(gate.qubits) <= vset:
            violations.append((i, f"{gate.name} on non-platform qubit(s) {gate.qubits}"))
        elif gate.is_binary and not g.has_edge(*gate.qubits):
            violations.append((i, f"{gate.name} on disconnected qubits {gate.qubits}"))
    return violations


def check_equivalence(original: Circuit, mapped: Circuit, a: Allocation,
                      mode: str = STRICT) -> list[tuple[int, str]]:
    """Violations if the layout is not for the input's qubits or unmapping
    the physical circuit does not recover the input."""
    logical, wanted = {q for q, _ in a.forward}, set(range(original.n_qubits))
    if logical != wanted:
        return ([(-1, f"layout lacks logical qubit {q}") for q in sorted(wanted - logical)]
                + [(-1, f"layout has logical qubit {q}, not in the input")
                   for q in sorted(logical - wanted)])
    try:
        recovered = unmap(mapped, a)
    except UnmapError as exc:
        return [(-1, str(exc))]
    if not circuits_equal(original, recovered, mode):
        return [(-1, f"unmapped circuit differs from input ({mode} comparison)")]
    return []


def make_verdict(mapped: Circuit, feas: list[tuple[int, str]],
                 equiv: list[tuple[int, str]], mode: str) -> Verdict:
    """Verdict from the violations check_feasibility and check_equivalence found."""
    return Verdict(feasible=not feas, equivalent=not equiv, mode=mode,
                   swap_count=mapped.swap_count(), violations=feas + equiv)


def verify_result(original: Circuit, result: MapResult, g: CouplingGraph,
                  mode: str = STRICT) -> Verdict:
    """Full verdict for a mapping result against a target coupling graph."""
    feas = check_feasibility(result.mapped, g, result.initial)
    equiv = check_equivalence(original, result.mapped, result.initial, mode)
    return make_verdict(result.mapped, feas, equiv, mode)
