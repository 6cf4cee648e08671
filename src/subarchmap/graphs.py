"""Coupling graphs: undirected graphs over physical qubits with stable labels."""

from __future__ import annotations

import hashlib
import json
from collections import deque
from importlib import resources
from pathlib import Path
from typing import Iterable


class PlatformError(ValueError):
    """Raised for malformed platform descriptions."""


class CouplingGraph:
    """Undirected graph of physical qubits.

    Vertex labels are preserved through every operation (never re-indexed),
    so an allocation onto an induced subgraph is directly an allocation onto
    the platform it was cut from. Instances are immutable, hashable and picklable.

    Each instance also caches data derived from its vertices and edges, each
    built at most once, on first use: `_rows[i]` is the neighbour bitmask of
    `vertices[i]` (bit j set iff `vertices[j]` is a neighbour; `vertices` is
    sorted, so ascending bits are ascending labels), and the isomorphism
    module keeps its search plan and degree masks in `_plan` and `_at_least`.
    None of it enters equality or hashing.
    """

    __slots__ = ("name", "vertices", "edges", "_adj", "_rows", "_plan", "_at_least")

    def __init__(self, vertices: Iterable[int], edges: Iterable[tuple[int, int]],
                 name: str = ""):
        vlist = list(vertices)
        vset = set(vlist)
        if len(vset) != len(vlist):
            raise PlatformError("duplicate vertex labels")
        vs = tuple(sorted(vset))
        norm = set()
        for u, v in edges:
            if u == v:
                raise PlatformError(f"self-loop on vertex {u}")
            if u not in vset or v not in vset:
                raise PlatformError(f"edge ({u},{v}) has endpoint outside vertex set")
            norm.add((u, v) if u < v else (v, u))
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "vertices", vs)
        object.__setattr__(self, "edges", frozenset(norm))
        adj = {v: [] for v in vs}
        for u, v in norm:
            adj[u].append(v)
            adj[v].append(u)
        object.__setattr__(self, "_adj", {v: tuple(sorted(ns)) for v, ns in adj.items()})
        for derived in ("_rows", "_plan", "_at_least"):
            object.__setattr__(self, derived, None)

    def __setattr__(self, key, value):
        raise AttributeError("CouplingGraph is immutable")

    @property
    def num_vertices(self) -> int:
        return len(self.vertices)

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def neighbors(self, v: int) -> tuple[int, ...]:
        return self._adj[v]

    def has_edge(self, u: int, v: int) -> bool:
        return ((u, v) if u < v else (v, u)) in self.edges

    def _neighbour_rows(self) -> tuple[int, ...]:
        """`_rows`, built on first use: graphs that are never matched, such as
        most platforms, never pay for them."""
        if self._rows is None:
            pos = {v: i for i, v in enumerate(self.vertices)}
            rows = [0] * len(pos)
            for u, v in self.edges:
                rows[pos[u]] |= 1 << pos[v]
                rows[pos[v]] |= 1 << pos[u]
            object.__setattr__(self, "_rows", tuple(rows))
        return self._rows

    def __eq__(self, other) -> bool:
        if not isinstance(other, CouplingGraph):
            return NotImplemented
        return self.vertices == other.vertices and self.edges == other.edges

    def __hash__(self) -> int:
        return hash((self.vertices, self.edges))

    def __reduce__(self):
        # copy and pickle rebuild through __init__, as __setattr__ refuses them
        return type(self), (self.vertices, sorted(self.edges), self.name)

    def __repr__(self) -> str:
        tag = f" {self.name!r}" if self.name else ""
        return f"<CouplingGraph{tag} |V|={self.num_vertices} |E|={self.num_edges}>"

    def digest(self) -> str:
        """Content digest of the labeled graph, used as a cache key."""
        payload = json.dumps({"v": list(self.vertices),
                              "e": sorted(self.edges)}).encode()
        return hashlib.sha256(payload).hexdigest()


def parse_platform(text: str) -> CouplingGraph:
    """Parse a platform JSON document: {"name", "qubits": N, "edges": [[u,v],...]}."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise PlatformError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict) or "qubits" not in doc:
        raise PlatformError("platform document must be an object with a 'qubits' field")
    n = doc["qubits"]
    if type(n) is not int or n < 0:  # JSON true/false are bools, an int subclass
        raise PlatformError("'qubits' must be a non-negative integer")
    items = doc.get("edges", [])
    if not isinstance(items, list):
        raise PlatformError(f"'edges' must be a list of [u, v] pairs: {items!r}")
    edges = []
    for item in items:
        if not (isinstance(item, list) and len(item) == 2):
            raise PlatformError(f"malformed edge entry: {item!r}")
        u, v = item
        if not (type(u) is int and type(v) is int):
            raise PlatformError(f"edge endpoints must be integers: {item!r}")
        if not (0 <= u < n and 0 <= v < n):
            raise PlatformError(f"edge ({u},{v}) out of range for {n} qubits")
        edges.append((u, v))
    name = doc.get("name", "")
    if not isinstance(name, str):
        raise PlatformError(f"'name' must be a string: {name!r}")
    return CouplingGraph(range(n), edges, name=name)


def load_platform(spec: str | Path) -> CouplingGraph:
    """Load a platform by built-in name (e.g. "guadalupe", "tokyo") or file path."""
    path = Path(spec)
    if path.is_file():
        try:
            text = path.read_text()
        except (OSError, UnicodeDecodeError) as exc:
            raise PlatformError(f"cannot read platform file {spec!r}: {exc}") from exc
        return parse_platform(text)
    builtin = resources.files("subarchmap.platforms").joinpath(f"{spec}.json")
    if builtin.is_file():
        return parse_platform(builtin.read_text())
    raise PlatformError(f"unknown platform {spec!r}: not a file or built-in name")


def distances(g: CouplingGraph, source: int) -> dict[int, int]:
    """Hop distance from `source` to every vertex reachable from it, by BFS."""
    dist = {source: 0}
    queue = deque([source])
    while queue:
        v = queue.popleft()
        for w in g.neighbors(v):
            if w not in dist:
                dist[w] = dist[v] + 1
                queue.append(w)
    return dist


def is_connected(g: CouplingGraph) -> bool:
    """True iff every vertex pair is joined by a path. Empty and singleton graphs count."""
    return g.num_vertices <= 1 or len(distances(g, g.vertices[0])) == g.num_vertices


def induced_subgraph(g: CouplingGraph, members: Iterable[int]) -> CouplingGraph:
    """Induced subgraph on `members`, keeping original vertex labels."""
    s = set(members)
    adj = g._adj
    missing = [v for v in s if v not in adj]
    if missing:
        raise ValueError(f"not vertices of the graph: {sorted(missing)}")
    kept = [(u, v) for u in s for v in adj[u] if u < v and v in s]
    return CouplingGraph(s, kept, name=g.name)
