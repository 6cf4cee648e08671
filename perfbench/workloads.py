"""The four workloads: their inputs, their operations, and the output check.

A workload is set up and run for one package at a time: `subarchmap`, the
program, or `perfbench.baseline`, the frozen copy it is timed against. Its
inputs come from its --seed and the frozen pools in expected.json. Every call
into a package looks the function up on its module at call time, so the
wrappers of a traced pass see it.
"""

from __future__ import annotations

import importlib
import json
import random
import signal
import statistics
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

from perfbench.heavyhex import heavy_hex

ANCILLAS = 2


class OpTimeout(Exception):
    """An operation ran past its time limit."""


def _alarm(signum, frame):
    raise OpTimeout("time limit exceeded")


@dataclass
class Op:
    name: str
    seconds: float
    output: object = None  # released once the pass is checked
    error: str | None = None
    map_s: float = 0.0  # map-batch: the `map` invocation alone


def run_op(name: str, fn, limit: float, tracer) -> Op:
    """Time one operation; an exception or a passed time limit fails it."""
    if tracer is not None:
        tracer.run = name
    previous = signal.signal(signal.SIGALRM, _alarm)
    t0 = perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, limit)
        try:
            output = fn()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except Exception:  # the run goes on; the op counts as failed
        return Op(name, perf_counter() - t0, error=traceback.format_exc())
    finally:
        signal.signal(signal.SIGALRM, previous)
    return Op(name, perf_counter() - t0, output)


def module(package: str, name: str):
    """The package's submodule `name`, as imported now."""
    return importlib.import_module(f"{package}.{name}")


def run_pass(workload, package: str, inputs, tracer) -> list[Op]:
    """Every operation of the workload on one package, in order."""
    return [run_op(name, fn, limit, tracer)
            for name, fn, limit in workload.operations(package, inputs, tracer)]


def fastest(passes: list[list[Op]]) -> list[Op]:
    """Each operation at its fastest over the passes.

    Passes repeat the same operations in the same order. Other work on the
    host only ever adds time, so the fastest repetition is the closest
    estimate of the program's own cost.
    """
    return [min(reps, key=lambda op: op.seconds) for reps in zip(*passes)]


def pool_circuit(case: dict, perm: list[int], package: str = "subarchmap"):
    """The pool circuit of `case` with logical qubit q renamed perm[q]."""
    circuits = module(package, "circuits")
    return circuits.Circuit(case["n"], tuple(circuits.Gate("cx", (perm[a], perm[b]))
                                             for a, b in case["cx"]))


def _permutation(rng: random.Random, n: int) -> list[int]:
    perm = list(range(n))
    rng.shuffle(perm)
    return perm


class Subarch:
    """max_subarchitectures(platform, k) once per pass.

    The input is the platform itself, so the seed does not change it: a
    relabeled platform yields other member vertex sets and, through the
    enumeration order, other work.
    """

    time_limit = 120.0

    def __init__(self, name: str, platform: str, k: int):
        self.name, self.platform, self.k = name, platform, k

    def setup(self, package: str, seed: int, expected: dict, workdir: Path):
        graphs = module(package, "graphs")
        if self.platform == "heavy-hex":
            n, edges = heavy_hex()
            return graphs.CouplingGraph(range(n), edges, name="heavy-hex-127")
        return graphs.load_platform(self.platform)

    def operations(self, package: str, g, tracer):
        maximal = module(package, "maximal")
        return [(f"{self.name}/k{self.k}",
                 lambda: maximal.max_subarchitectures(g, self.k), self.time_limit)]

    def check(self, g, ops: list[Op], expected: dict) -> list[str]:
        exp = expected[self.name]
        (op,) = ops
        if op.error:
            return [f"{op.name}: {op.error}"]
        row = list(op.output.counts_row())
        members = sorted(list(m.vertices) for m in op.output.members)
        if row != exp["counts_row"]:
            return [f"{op.name}: counts row {row} != {exp['counts_row']}"]
        if members != exp["members"]:
            return [f"{op.name}: member vertex sets differ from the expected file"]
        return []

    def details(self, ops: list[Op]) -> dict:
        return {}


class MapHard:
    """Strict map_with_subarch on hard circuits, relaxed map_optimal on the platform.

    The seed renames each circuit's logical qubits, which changes no swap
    count, ancilla count or amount of search.
    """

    name = "map-hard"
    time_limit = 60.0

    def setup(self, package: str, seed: int, expected: dict, workdir: Path):
        rng = random.Random(f"{self.name}:{seed}")
        pools = expected[self.name]
        cases = [(mode, case, pool_circuit(case, _permutation(rng, case["n"]), package))
                 for mode in ("strict", "relaxed") for case in pools[mode]]
        return module(package, "graphs").load_platform("guadalupe"), cases

    def operations(self, package: str, inputs, tracer):
        mapper, strategy = module(package, "mapper"), module(package, "strategy")
        g, cases = inputs
        ops = []
        for mode, case, c in cases:
            if mode == "strict":
                fn = lambda c=c: strategy.map_with_subarch(
                    g, c, strategy.StrategyConfig(max_ancillas=ANCILLAS))
            else:
                fn = lambda c=c: mapper.map_optimal(c, g, relaxed=True)
            ops.append((f"{mode}/{case['name']}", fn, self.time_limit))
        return ops

    def check(self, inputs, ops: list[Op], expected: dict) -> list[str]:
        from subarchmap.strategy import StrategyConfig, optimality_certificate
        from subarchmap.verify import RELAXED, STRICT, verify_result
        g, cases = inputs
        failures = []
        for (mode, case, c), op in zip(cases, ops):
            if op.error:
                failures.append(f"{op.name}: {op.error}")
                continue
            if mode == "strict":
                report = op.output
                got = (report.swaps, report.ancillas)
                want = (case["swaps"], case["ancillas"])
                cert = optimality_certificate(
                    report, g, StrategyConfig(max_ancillas=ANCILLAS))
                ok = report.success and got == want and cert["optimal"] \
                    and verify_result(c, report.result, g, STRICT).ok
            else:
                got, want = op.output and op.output.swaps, case["swaps"]
                ok = got == want and verify_result(c, op.output, g, RELAXED).ok
            if not ok:
                failures.append(f"{op.name}: got {got}, expected {want} "
                                "with a verified, optimal mapping")
        return failures

    def details(self, ops: list[Op]) -> dict:
        return {f"{mode}_s": (sum(op.seconds for op in ops
                                  if op.name.startswith(mode + "/")), "s")
                for mode in ("strict", "relaxed")}


class MapBatch:
    """CLI map then verify on many small circuits, in process through CliRunner.

    Each pool circuit is written as QASM during set-up with its logical
    qubits renamed by the seed, and the seed also shuffles the order.
    """

    name = "map-batch"
    time_limit = 30.0

    def setup(self, package: str, seed: int, expected: dict, workdir: Path):
        from click.testing import CliRunner
        rng = random.Random(f"{self.name}:{seed}")
        cases = list(expected[self.name]["circuits"])
        rng.shuffle(cases)
        workdir.mkdir(parents=True, exist_ok=True)
        files = []
        for i, case in enumerate(cases):
            perm = _permutation(rng, case["n"])
            path = workdir / f"c{i:03d}.qasm"
            path.write_text(_qasm(case["n"], [(perm[a], perm[b]) for a, b in case["cx"]]))
            files.append((case, path))
        return CliRunner(), files

    def operations(self, package: str, inputs, tracer):
        cli = module(package, "cli")
        runner, files = inputs

        def invoke(args):
            if tracer is None:
                return runner.invoke(cli.main, args)
            return tracer.call("cli", runner.invoke, cli.main, args)

        def one(path: Path):
            t0 = perf_counter()
            mapped = invoke(["map", "--platform", "guadalupe", "--circuit", str(path),
                             "--ancillas", str(ANCILLAS),
                             "--out", f"{path}.mapped", "--report", f"{path}.json"])
            map_s = perf_counter() - t0
            verified = invoke(["verify", "--platform", "guadalupe", "--circuit",
                               str(path), "--mapped", f"{path}.mapped"])
            return mapped, verified, map_s

        return [(path.name, lambda p=path: one(p), self.time_limit) for _, path in files]

    def check(self, inputs, ops: list[Op], expected: dict) -> list[str]:
        _, files = inputs
        failures = []
        for (case, path), op in zip(files, ops):
            if op.error:
                failures.append(f"{op.name}: {op.error}")
                continue
            mapped, verified, op.map_s = op.output
            if mapped.exit_code != 0 or verified.exit_code != 0:
                failures.append(f"{op.name}: exit codes map={mapped.exit_code} "
                                f"verify={verified.exit_code}")
                continue
            try:
                report = json.loads(Path(f"{path}.json").read_text())
                summary, optimal = report["summary"], report["certificate"]["optimal"]
                got = (summary["swaps"], summary["qubits_used"] - case["n"])
                verdict = json.loads(verified.stdout)
                verified_ok = verdict["feasible"] and verdict["equivalent"]
            except (OSError, ValueError, KeyError, TypeError) as exc:
                failures.append(f"{op.name}: unreadable report or verdict: {exc!r}")
                continue
            if got != (case["swaps"], case["ancillas"]) or optimal is not True \
                    or not verified_ok:
                failures.append(f"{op.name}: got (swaps, ancillas) {got}, expected "
                                f"{(case['swaps'], case['ancillas'])} with an optimal "
                                "certificate and a passing verify")
        return failures

    def details(self, ops: list[Op]) -> dict:
        map_ms = [op.map_s * 1e3 for op in ops if not op.error]
        return {"circuits_per_s": (len(ops) / sum(op.seconds for op in ops), "1/s"),
                "map_p50_ms": (statistics.median(map_ms), "ms"),
                "map_p90_ms": (statistics.quantiles(map_ms, n=10)[8], "ms"),
                "map_samples": (len(map_ms), "count")}


def _qasm(n: int, cx: list[tuple[int, int]]) -> str:
    lines = ["OPENQASM 2.0;", 'include "qelib1.inc";', f"qreg q[{n}];"]
    lines += [f"cx q[{a}],q[{b}];" for a, b in cx]
    return "\n".join(lines) + "\n"


WORKLOADS = {
    "subarch-wide": Subarch("subarch-wide", "heavy-hex", 8),
    "subarch-deep": Subarch("subarch-deep", "tokyo", 8),
    "map-hard": MapHard(),
    "map-batch": MapBatch(),
}
