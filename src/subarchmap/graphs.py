"""Coupling graphs: undirected graphs over physical qubits with stable labels."""

from __future__ import annotations

import hashlib
import json
from importlib import resources
from pathlib import Path
from typing import Iterable

MAX_QUBITS = 1 << 16  # far above any device; a larger count is refused before allocation


class PlatformError(ValueError):
    """Raised for malformed platform descriptions."""


class CouplingGraph:
    """Undirected graph of physical qubits.

    Vertex labels are preserved through every operation (never re-indexed),
    so an allocation onto an induced subgraph is directly an allocation onto
    the platform it was cut from. Instances are immutable, hashable and picklable.

    `(vertices, _rows)` is the graph: `_rows[i]` has bit j set iff `vertices[j]`
    is a neighbour of `vertices[i]`, and `_rank[v]` is the index of label v in
    `vertices`. `vertices` is sorted, so ascending bits are ascending labels and
    equal rows are equal edge sets. The rows are the only adjacency structure:
    `edges` is built from them on each read, and `num_vertices` and `num_edges`
    are counted at construction. Other modules keep what they derive from the
    rows alone in `_derived`, each under its own key. It starts empty and
    enters no equality, hashing, copies or pickles.
    """

    __slots__ = ("name", "vertices", "num_vertices", "num_edges", "_rank", "_rows", "_derived")

    def __init__(self, vertices: Iterable[int], edges: Iterable[tuple[int, int]],
                 name: str = ""):
        vs = tuple(sorted(vertices))
        rank = dict(zip(vs, range(len(vs))))
        if len(rank) != len(vs):
            raise PlatformError("duplicate vertex labels")
        rows = [0] * len(vs)
        for u, v in edges:
            if u == v:
                raise PlatformError(f"self-loop on vertex {u}")
            if u not in rank or v not in rank:
                raise PlatformError(f"edge ({u},{v}) has endpoint outside vertex set")
            rows[rank[u]] |= 1 << rank[v]
            rows[rank[v]] |= 1 << rank[u]
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "vertices", vs)
        object.__setattr__(self, "num_vertices", len(vs))
        object.__setattr__(self, "num_edges", sum(r.bit_count() for r in rows) // 2)
        object.__setattr__(self, "_rank", rank)
        object.__setattr__(self, "_rows", tuple(rows))
        object.__setattr__(self, "_derived", {})

    def __setattr__(self, key, value):
        raise AttributeError("CouplingGraph is immutable")

    @property
    def edges(self) -> frozenset[tuple[int, int]]:
        """Edges as (low, high) label pairs, built from the rows on each read."""
        vs = self.vertices
        return frozenset((vs[i], vs[j]) for i, row in enumerate(self._rows)
                         for j in bits(row) if i < j)

    def has_edge(self, u: int, v: int) -> bool:
        rank = self._rank
        return u in rank and v in rank and self._rows[rank[u]] >> rank[v] & 1 == 1

    def __eq__(self, other) -> bool:
        if not isinstance(other, CouplingGraph):
            return NotImplemented
        return self.vertices == other.vertices and self._rows == other._rows

    def __hash__(self) -> int:
        return hash((self.vertices, self._rows))

    def __reduce__(self):
        # copy and pickle rebuild through __init__, as __setattr__ refuses them
        return type(self), (self.vertices, sorted(self.edges), self.name)

    def __repr__(self) -> str:
        tag = f" {self.name!r}" if self.name else ""
        return f"<CouplingGraph{tag} |V|={self.num_vertices} |E|={self.num_edges}>"

    def digest(self) -> str:
        """Content digest of the labeled graph; perfbench's tracer keys results by it."""
        payload = json.dumps({"v": list(self.vertices),
                              "e": sorted(self.edges)}).encode()
        return hashlib.sha256(payload).hexdigest()


def _decode_json(text: str) -> object:
    """Decode JSON; ValueError if it is malformed, nests too deep or repeats a key."""
    def unique_keys(pairs: list[tuple[str, object]]) -> dict:
        if len(doc := dict(pairs)) != len(pairs):
            raise ValueError("duplicate key in JSON object")
        return doc
    try:
        return json.loads(text, object_pairs_hook=unique_keys)
    except RecursionError:
        raise ValueError("JSON nested too deeply") from None


def parse_platform(text: str) -> CouplingGraph:
    """Parse a platform JSON document: {"name", "qubits": N, "edges": [[u,v],...]}."""
    try:
        doc = _decode_json(text)
    except ValueError as exc:
        raise PlatformError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict) or "qubits" not in doc:
        raise PlatformError("platform document must be an object with a 'qubits' field")
    n = doc["qubits"]
    if type(n) is not int or n < 0:  # JSON true/false are bools, an int subclass
        raise PlatformError("'qubits' must be a non-negative integer")
    if n > MAX_QUBITS:
        raise PlatformError(f"'qubits' is {n}, above the limit of {MAX_QUBITS}")
    items = doc.get("edges", [])
    if not isinstance(items, list):
        raise PlatformError(f"'edges' must be a list of [u, v] pairs: {items!r}")
    edges = []
    for item in items:
        if not (isinstance(item, list) and len(item) == 2):
            raise PlatformError(f"malformed edge entry: {item!r}")
        u, v = item
        if not (type(u) is int and type(v) is int):  # CouplingGraph would take true as 1
            raise PlatformError(f"edge endpoints must be integers: {item!r}")
        edges.append((u, v))
    name = doc.get("name", "")
    if not isinstance(name, str):
        raise PlatformError(f"'name' must be a string: {name!r}")
    return CouplingGraph(range(n), edges, name=name)


def load_platform(spec: str | Path) -> CouplingGraph:
    """Load a platform from a file path, or by built-in name (e.g. "guadalupe",
    "tokyo") when spec is a plain name, with no directory part."""
    path = Path(spec)
    if path.is_file():
        try:
            text = path.read_text()
        except (OSError, UnicodeDecodeError) as exc:
            raise PlatformError(f"cannot read platform file {spec!r}: {exc}") from exc
        return parse_platform(text)
    builtin = resources.files("subarchmap.platforms").joinpath(f"{path.name}.json")
    if path.name == str(spec) and builtin.is_file():
        return parse_platform(builtin.read_text())
    raise PlatformError(f"unknown platform {spec!r}: not a file or built-in name")


def bits(mask: int) -> list[int]:
    """Indices of the set bits of mask, ascending."""
    out = []
    while mask:
        top = mask.bit_length() - 1  # from the top: one big-int operation per bit
        out.append(top)
        mask ^= 1 << top
    out.reverse()
    return out


def bfs(g: CouplingGraph, sources: Iterable[int]) -> tuple[list[int], list[int]]:
    """Breadth-first search from the vertex ranks `sources`, neighbours in rank
    order: the ranks reached, in visit order, and each rank's hop distance
    from the sources, -1 where it is unreachable."""
    rows = g._rows
    order, dist, seen = list(sources), [-1] * len(rows), 0
    for i in order:
        dist[i] = 0
        seen |= 1 << i
    for i in order:  # appended to while iterated: a FIFO queue
        fresh = rows[i] & ~seen
        seen |= fresh
        for j in bits(fresh):
            dist[j] = dist[i] + 1
            order.append(j)
    return order, dist


def is_connected(g: CouplingGraph) -> bool:
    """True iff every vertex pair is joined by a path. Empty and singleton graphs count."""
    return g.num_vertices <= 1 or len(bfs(g, [0])[0]) == g.num_vertices


def induced_subgraph(g: CouplingGraph, members: Iterable[int]) -> CouplingGraph:
    """Induced subgraph on `members`, keeping original vertex labels."""
    rank, rows, vs = g._rank, g._rows, g.vertices
    s = set(members)
    missing = s.difference(rank)  # walks s, not the platform
    if missing:
        raise ValueError(f"not vertices of the graph: {sorted(missing)}")
    mask = 0
    for v in s:
        mask |= 1 << rank[v]
    kept = [(vs[i], vs[j]) for i in bits(mask) for j in bits(rows[i] & mask) if i < j]
    return CouplingGraph(s, kept, name=g.name)
