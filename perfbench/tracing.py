"""Outside-in tracing: spans recorded by wrappers at the program's call sites.

Each wrapper replaces a function at the module attribute its caller looks up
(`subarchmap.maximal.wl_hash` is what `max_subarchitectures` calls), so no
program file changes. Wrappers exist only while a Tracer is installed, which
the benchmark does for its traced passes alone.
"""

from __future__ import annotations

import importlib
import json
import statistics
from collections import Counter
from pathlib import Path
from time import perf_counter


def _is_true(args, kwargs, result):
    return bool(result)


def _is_none(args, kwargs, result):
    return result is None


def _value(args, kwargs, result):
    return result


def _subarch_key(args, kwargs, result):
    return (result.platform.digest(), result.k), dict(result.stage_times)


GENERATOR = "generator"

# (module, attribute, span name, what to note from the call). Several call
# sites of one function share its span name.
TARGETS = [
    ("maximal", "connected_subgraphs", "subgraphs.connected_subgraphs", GENERATOR),
    ("maximal", "induced_subgraph", "graphs.induced_subgraph", None),
    ("maximal", "wl_hash", "iso.wl_hash", _value),
    ("maximal", "is_isomorphic", "iso.is_isomorphic", _is_true),
    ("maximal", "subgraph_isomorphic", "iso.subgraph_isomorphic", _is_true),
    ("maximal", "max_subarchitectures", "maximal.max_subarchitectures", _subarch_key),
    ("strategy", "max_subarchitectures", "maximal.max_subarchitectures", _subarch_key),
    ("strategy", "map_optimal", "mapper.map_optimal", _is_none),
    ("mapper", "map_optimal", "mapper.map_optimal", _is_none),
    ("strategy", "map_with_subarch", "strategy.map_with_subarch", None),
    ("cli", "map_with_subarch", "strategy.map_with_subarch", None),
    ("cli", "parse_qasm", "circuits.parse_qasm", None),
    ("cli", "emit_qasm", "circuits.emit_qasm", None),
    ("cli", "check_feasibility", "verify.check_feasibility", None),
    ("cli", "check_equivalence", "verify.check_equivalence", None),
]

# The benchmark's own span around each CliRunner invocation.
CLI_SPAN = "cli"

# Per-layer metric -> (unit, better, span whose wrappers produce it).
LAYER_METRICS = {
    "subgraphs.yielded": ("count", "lower", "subgraphs.connected_subgraphs"),
    "subgraphs.self_s": ("s", "lower", "subgraphs.connected_subgraphs"),
    "graphs.induced_subgraph.calls": ("count", "lower", "graphs.induced_subgraph"),
    "graphs.induced_subgraph.self_s": ("s", "lower", "graphs.induced_subgraph"),
    "iso.wl_hash.calls": ("count", "lower", "iso.wl_hash"),
    "iso.wl_hash.self_s": ("s", "lower", "iso.wl_hash"),
    "iso.wl_buckets": ("count", "higher", "iso.wl_hash"),
    "iso.wl_max_bucket": ("count", "lower", "iso.wl_hash"),
    "iso.is_isomorphic.calls": ("count", "lower", "iso.is_isomorphic"),
    "iso.is_isomorphic.true_ratio": ("ratio", "higher", "iso.is_isomorphic"),
    "iso.is_isomorphic.self_s": ("s", "lower", "iso.is_isomorphic"),
    "iso.subgraph_isomorphic.calls": ("count", "lower", "iso.subgraph_isomorphic"),
    "iso.subgraph_isomorphic.true_ratio": ("ratio", "higher", "iso.subgraph_isomorphic"),
    "iso.subgraph_isomorphic.self_s": ("s", "lower", "iso.subgraph_isomorphic"),
    "maximal.max_subarchitectures.calls": ("count", "lower", "maximal.max_subarchitectures"),
    "maximal.max_subarchitectures.self_s": ("s", "lower", "maximal.max_subarchitectures"),
    "maximal.stage_connected_s": ("s", "lower", "maximal.max_subarchitectures"),
    "maximal.stage_noniso_s": ("s", "lower", "maximal.max_subarchitectures"),
    "maximal.stage_max_s": ("s", "lower", "maximal.max_subarchitectures"),
    "mapper.map_optimal.calls": ("count", "lower", "mapper.map_optimal"),
    "mapper.map_optimal.bound_fail_ratio": ("ratio", "lower", "mapper.map_optimal"),
    "mapper.map_optimal.self_s": ("s", "lower", "mapper.map_optimal"),
    "strategy.map_with_subarch.calls": ("count", "lower", "strategy.map_with_subarch"),
    "strategy.map_with_subarch.self_s": ("s", "lower", "strategy.map_with_subarch"),
    "strategy.subarch_s": ("s", "lower", "maximal.max_subarchitectures"),
    "strategy.subarch_repeat_ratio": ("ratio", "lower", "maximal.max_subarchitectures"),
    "verify.check_feasibility.self_s": ("s", "lower", "verify.check_feasibility"),
    "verify.check_equivalence.self_s": ("s", "lower", "verify.check_equivalence"),
    "circuits.parse_qasm.self_s": ("s", "lower", "circuits.parse_qasm"),
    "circuits.emit_qasm.self_s": ("s", "lower", "circuits.emit_qasm"),
    "cli.invocations": ("count", "lower", CLI_SPAN),
    "cli.self_s": ("s", "lower", CLI_SPAN),
    "trace.overhead_ratio": ("ratio", "lower", None),
}


class Span:
    __slots__ = ("name", "start", "end", "parent", "run", "note")

    def __init__(self, name: str, parent: int, run: str):
        self.name = name
        self.parent = parent
        self.run = run
        self.start = self.end = 0.0
        self.note = None


class Tracer:
    """Spans of one traced pass, kept in memory until the run writes them out.

    A span's parent is the span open when it started; `run` names the
    benchmark operation (one request) it belongs to.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self.run = ""
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self.absent: set[str] = set()

    def _open(self, name: str) -> Span:
        span = Span(name, self._stack[-1] if self._stack else -1, self.run)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span.start = perf_counter()
        return span

    def _close(self, span: Span) -> None:
        span.end = perf_counter()
        self._stack.pop()

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn inside a span recorded by the benchmark itself."""
        span = self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(span)

    def _wrap(self, name: str, fn, note):
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if note is not None:
                span.note = note(args, kwargs, result)
            return result
        return traced

    def _wrap_generator(self, name: str, fn):
        def traced(*args, **kwargs):
            return self._iterate(name, fn(*args, **kwargs))
        return traced

    def _iterate(self, name: str, items):
        # One span per next(); the caller's span is the parent, and a span
        # whose note is True produced an item.
        while True:
            span = self._open(name)
            try:
                item = next(items)
            except StopIteration:
                return
            finally:
                self._close(span)
            span.note = True
            yield item

    def __enter__(self) -> "Tracer":
        present: set[str] = set()
        for module, attr, name, note in TARGETS:
            mod = importlib.import_module(f"subarchmap.{module}")
            fn = getattr(mod, attr, None)
            if fn is None:
                continue  # call site removed from the program
            present.add(name)
            wrapper = self._wrap_generator(name, fn) if note == GENERATOR \
                else self._wrap(name, fn, note)
            self._saved.append((mod, attr, fn))
            setattr(mod, attr, wrapper)
        self.absent = {name for _, _, name, _ in TARGETS} - present
        return self

    def __exit__(self, *exc) -> None:
        for mod, attr, fn in reversed(self._saved):
            setattr(mod, attr, fn)
        self._saved.clear()

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer counts, self times and ratios of this pass.

        Self time is a span's duration minus the durations of its child
        spans; spans of one thread nest, so children never overlap. A ratio
        whose base count is 0 is reported as 0.
        """
        spans = self.spans
        child_s = [0.0] * len(spans)
        for s in spans:
            if s.parent >= 0:
                child_s[s.parent] += s.end - s.start
        calls: Counter = Counter()
        trues: Counter = Counter()
        self_s: Counter = Counter()
        for i, s in enumerate(spans):
            calls[s.name] += 1
            trues[s.name] += s.note is True
            self_s[s.name] += s.end - s.start - child_s[i]

        def ratio(num, den):
            return num / den if den else 0.0

        buckets = _wl_buckets(spans)
        seen: set = set()
        repeats = 0
        stages: Counter = Counter()
        subarch_s = 0.0
        for s in spans:
            if s.name != "maximal.max_subarchitectures":
                continue
            key, stage_times = s.note
            repeats += key in seen
            seen.add(key)
            stages.update(stage_times)
            if s.parent >= 0 and spans[s.parent].name == "strategy.map_with_subarch":
                subarch_s += s.end - s.start

        gen, mx = "subgraphs.connected_subgraphs", "maximal.max_subarchitectures"
        out = {
            "subgraphs.yielded": trues[gen],
            "subgraphs.self_s": self_s[gen],
            "iso.wl_buckets": len(buckets),
            "iso.wl_max_bucket": max(buckets.values(), default=0),
            "maximal.stage_connected_s": stages["connected"],
            "maximal.stage_noniso_s": stages["noniso"],
            "maximal.stage_max_s": stages["max"],
            "mapper.map_optimal.bound_fail_ratio":
                ratio(trues["mapper.map_optimal"], calls["mapper.map_optimal"]),
            "strategy.subarch_s": subarch_s,
            "strategy.subarch_repeat_ratio": ratio(repeats, calls[mx]),
            "cli.invocations": calls[CLI_SPAN],
            "cli.self_s": self_s[CLI_SPAN],
        }
        for name in ("graphs.induced_subgraph", "iso.wl_hash", "iso.is_isomorphic",
                     "iso.subgraph_isomorphic", mx, "mapper.map_optimal",
                     "strategy.map_with_subarch"):
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.self_s"] = self_s[name]
        for name in ("iso.is_isomorphic", "iso.subgraph_isomorphic"):
            out[f"{name}.true_ratio"] = ratio(trues[name], calls[name])
        for name in ("verify.check_feasibility", "verify.check_equivalence",
                     "circuits.parse_qasm", "circuits.emit_qasm"):
            out[f"{name}.self_s"] = self_s[name]
        return {m: v for m, v in out.items()
                if LAYER_METRICS[m][2] not in self.absent}

    def stage_crosscheck(self) -> tuple[dict[str, list[float]], bool]:
        """Program-reported stage times beside the wrapper spans they enclose.

        Returns {stage: [program seconds, wrapper seconds]} and whether they
        agree: each stage timer in max_subarchitectures encloses its wrapped
        calls, so it reads at least their summed durations, and the stages
        together fit inside the max_subarchitectures calls that report them.
        """
        total: Counter = Counter()
        stages: Counter = Counter()
        for s in self.spans:
            total[s.name] += s.end - s.start
            if s.name == "maximal.max_subarchitectures":
                stages.update(s.note[1])
        table = {
            "connected": [stages["connected"], total["subgraphs.connected_subgraphs"]],
            "noniso": [stages["noniso"], total["graphs.induced_subgraph"]
                       + total["iso.wl_hash"] + total["iso.is_isomorphic"]],
            "max": [stages["max"], total["iso.subgraph_isomorphic"]],
            "total": [stages["total"], total["maximal.max_subarchitectures"]],
        }
        ok = all(table[k][0] >= table[k][1] for k in ("connected", "noniso", "max")) \
            and table["total"][0] <= table["total"][1]
        return table, ok

    def write(self, path: Path, pass_index: int, append: bool) -> None:
        """Write this pass's spans, one JSON object per line."""
        with path.open("a" if append else "w") as out:
            for i, s in enumerate(self.spans):
                out.write(json.dumps({
                    "pass": pass_index, "id": i, "parent": s.parent, "run": s.run,
                    "name": s.name, "start": s.start, "end": s.end}) + "\n")


def _wl_buckets(spans: list[Span]) -> Counter:
    """Non-isomorphic classes per (max_subarchitectures call, WL hash).

    A subset opens a new class in its hash bucket unless one of the exact
    isomorphism checks that follow its hash returned True.
    """
    classes: Counter = Counter()
    pending: dict[int, list] = {}  # parent span -> [hash, matched]

    def settle(parent: int) -> None:
        digest, matched = pending.pop(parent)
        classes[parent, digest] += not matched

    for s in spans:
        if s.name == "iso.wl_hash":
            if s.parent in pending:
                settle(s.parent)
            pending[s.parent] = [s.note, False]
        elif s.name == "iso.is_isomorphic" and s.note is True and s.parent in pending:
            pending[s.parent][1] = True
    for parent in list(pending):
        settle(parent)
    return classes


def median_metrics(per_pass: list[dict[str, float]]) -> dict[str, float]:
    """Median of each metric over the traced passes."""
    return {m: statistics.median(p[m] for p in per_pass) for m in per_pass[0]}
