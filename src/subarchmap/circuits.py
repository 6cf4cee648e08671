"""Circuit model, OpenQASM-2 subset I/O, allocations, unmap, and equality wire by wire
(strict order puts every gate on one wire; relaxed order has a wire per qubit)."""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import accumulate
from typing import Mapping

LOGICAL = "logical"
PHYSICAL = "physical"
STRICT = "strict"
RELAXED = "relaxed"


class QasmError(ValueError):
    """Raised for programs outside the supported OpenQASM-2 subset."""


class UnmapError(ValueError):
    """Raised when a mapped circuit touches an unallocated physical qubit."""


@dataclass(frozen=True)
class Gate:
    """One gate: "cx" and "swap" are binary, anything else is a unary gate name.

    Unary parameters (e.g. rotation angles) are kept as opaque text so
    programs round-trip without interpreting arithmetic.
    """

    name: str
    qubits: tuple[int, ...]
    params: str = ""

    def __post_init__(self):
        if self.name in ("cx", "swap"):
            if len(self.qubits) != 2 or self.qubits[0] == self.qubits[1]:
                raise ValueError(f"{self.name} needs two distinct operands: {self.qubits}")
        elif len(self.qubits) != 1:
            raise ValueError(f"unary gate {self.name!r} needs one operand: {self.qubits}")

    @property
    def is_binary(self) -> bool:
        return self.name in ("cx", "swap")

    def relabel(self, table: Mapping[int, int]) -> "Gate":
        return Gate(self.name, tuple(table[q] for q in self.qubits), self.params)

    def render(self) -> str:
        head = f"{self.name}({self.params})" if self.params else self.name
        return f"{head} " + ", ".join(f"q[{q}]" for q in self.qubits) + ";"


@dataclass(frozen=True)
class Circuit:
    """An ordered gate list over logical or physical qubits."""

    n_qubits: int
    gates: tuple[Gate, ...]
    space: str = LOGICAL

    def __post_init__(self):
        if self.space not in (LOGICAL, PHYSICAL):
            raise ValueError(f"bad space tag {self.space!r}")
        for g in self.gates:
            if self.space == LOGICAL:
                if g.name == "swap":
                    raise ValueError("logical circuits contain no swap gates")
                if any(not 0 <= q < self.n_qubits for q in g.qubits):
                    raise ValueError(f"operand out of range in {g}")
            elif any(q < 0 for q in g.qubits):
                raise ValueError(f"negative physical label in {g}")

    def swap_count(self) -> int:
        return sum(1 for g in self.gates if g.name == "swap")


@dataclass(frozen=True)
class Allocation:
    """Injective map from logical qubits to physical qubit labels."""

    forward: tuple[tuple[int, int], ...]

    @classmethod
    def from_dict(cls, mapping: Mapping[int, int]) -> "Allocation":
        return cls(tuple(sorted(mapping.items())))

    def __post_init__(self):
        targets = [p for _, p in self.forward]
        if len(set(targets)) != len(targets):
            raise ValueError("allocation is not injective")

    def inverse(self) -> dict[int, int]:
        """Physical -> logical for allocated qubits; missing keys mean unallocated."""
        return {p: q for q, p in self.forward}

    def __len__(self) -> int:
        return len(self.forward)


def unmap(c: Circuit, a: Allocation) -> Circuit:
    """Strip swaps and relabel a physical circuit back to logical qubits.

    Unary and cx gates are renamed through the inverse of the running
    allocation; swap gates are consumed by composing their transposition into
    it. Touching an unallocated qubit, or a logical one >= len(a), is an error.
    """
    if c.space != PHYSICAL:
        raise ValueError("unmap expects a physical circuit")
    inv = a.inverse()
    out: list[Gate] = []
    for idx, g in enumerate(c.gates):
        if g.name == "swap":
            i, j = g.qubits
            qi, qj = inv.pop(i, None), inv.pop(j, None)
            if qi is not None:
                inv[j] = qi
            if qj is not None:
                inv[i] = qj
        else:
            try:
                out.append(g.relabel(inv))
            except KeyError as exc:
                raise UnmapError(f"gate {idx} ({g.name}) acts on unallocated qubit "
                                 f"{exc.args[0]}") from exc
            if (q := max(out[-1].qubits)) >= len(a):
                raise UnmapError(f"gate {idx} ({g.name}) acts on logical qubit {q}, "
                                 f"beyond the {len(a)} allocated")
    return Circuit(len(a), tuple(out), LOGICAL)


_QREG_RE = re.compile(r"qreg\s+(\w+)\s*\[\s*(\d+)\s*\]")
_GATE_RE = re.compile(r"^(?P<name>[A-Za-z_]\w*)\s*(?:\((?P<params>.*)\))?\s*(?P<args>.*)$")
_OPERAND_RE = re.compile(r"^(\w+)\s*\[\s*(\d+)\s*\]$")


def parse_qasm(text: str, space: str = LOGICAL) -> Circuit:
    """Parse an OpenQASM 2.0 subset: one qreg, unary gates, cx, swap.

    Barriers, comments, include and creg lines are ignored. Anything else is
    rejected rather than silently skipped.
    """
    reg_name: str | None = None
    n_qubits = 0
    gates: list[Gate] = []
    body = re.sub(r"//[^\n]*", "", text)
    for stmt in body.split(";"):
        stmt = " ".join(stmt.split())
        if not stmt:
            continue
        if stmt.startswith(("OPENQASM", "include", "creg", "barrier")):
            continue
        m = _QREG_RE.match(stmt)
        if m:
            if reg_name is not None:
                raise QasmError("multi-register programs are unsupported")
            reg_name, n_qubits = m.group(1), int(m.group(2))
            continue
        if reg_name is None:
            raise QasmError(f"gate before qreg declaration: {stmt!r}")
        m = _GATE_RE.match(stmt)
        if not m or not m.group("args") or m.group("name").lower() in (
                "measure", "reset", "if", "gate", "opaque"):
            raise QasmError(f"unsupported statement: {stmt!r}")
        name, params = m.group("name").lower(), (m.group("params") or "").strip()
        depth = [0, *accumulate((ch == "(") - (ch == ")") for ch in params)]
        if min(depth) < 0 or depth[-1]:  # the first "(" must close at the last ")"
            raise QasmError(f"unbalanced parentheses in {stmt!r}")
        operands = []
        for arg in m.group("args").split(","):
            om = _OPERAND_RE.match(arg.strip())
            if not om or om.group(1) != reg_name:
                raise QasmError(f"bad operand {arg.strip()!r} in {stmt!r}")
            if (q := int(om.group(2))) >= n_qubits:
                raise QasmError(f"operand {arg.strip()!r} is beyond qreg {reg_name}[{n_qubits}] "
                                f"in {stmt!r}")
            operands.append(q)
        if len(operands) > 2:
            raise QasmError(f"gates of arity >= 3 are unsupported: {stmt!r}")
        if name in ("cx", "swap") and len(operands) != 2:
            raise QasmError(f"{name} needs two operands: {stmt!r}")
        if name not in ("cx", "swap") and len(operands) != 1:
            raise QasmError(f"unsupported binary gate {name!r}: {stmt!r}")
        gates.append(Gate(name, tuple(operands), params))
    if reg_name is None:
        raise QasmError("no qreg declaration found")
    return Circuit(n_qubits, tuple(gates), space)


def emit_qasm(c: Circuit, layout: Allocation | None = None) -> str:
    """Serialize a circuit; an optional initial layout is prepended as comments."""
    lines = []
    if layout is not None:
        for q, p in layout.forward:
            lines.append(f"// q[{q}] -> Q[{p}]")
    n = c.n_qubits
    if c.space == PHYSICAL and c.gates:
        n = max(n, max(max(g.qubits) for g in c.gates) + 1)
    lines += ["OPENQASM 2.0;", 'include "qelib1.inc";', f"qreg q[{n}];"]
    lines += [g.render() for g in c.gates]
    return "\n".join(lines) + "\n"


_LAYOUT_RE = re.compile(r"//\s*q\[(\d+)\]\s*->\s*Q\[(\d+)\]")


def parse_layout_comments(text: str) -> Allocation | None:
    """Recover an initial layout from `// q[i] -> Q[j]` comment lines.

    Raises ValueError when a logical qubit is laid out twice.
    """
    found = [(int(q), int(p)) for q, p in _LAYOUT_RE.findall(text)]
    pairs = dict(found)
    if len(pairs) != len(found):
        raise ValueError("a logical qubit is laid out twice in the layout comments")
    return Allocation.from_dict(pairs) if pairs else None


def _wires(c: Circuit, mode: str) -> dict[int, list[Gate]]:
    """The gates on each wire, in circuit order: one wire per qubit in relaxed
    order, and in strict order one wire, -1, that every gate shares."""
    if mode not in (STRICT, RELAXED):
        raise ValueError(f"unknown mode {mode!r}")
    wires: dict[int, list[Gate]] = {}
    for g in c.gates:
        for w in g.qubits if mode == RELAXED else (-1,):
            wires.setdefault(w, []).append(g)
    return wires


def circuits_equal(a: Circuit, b: Circuit, mode: str = STRICT) -> bool:
    """Equality of the register size and of the gates on each wire (see _wires).

    Strict order puts every gate on one wire, so its wires agree iff the gate
    lists do. In relaxed order, lists that differ by swaps of adjacent gates
    on disjoint qubits are exactly those whose per-qubit wires agree (the
    projection lemma of trace theory; Cori & Perrin 1985).
    """
    return _wires(a, mode) == _wires(b, mode) and a.n_qubits == b.n_qubits
