"""Benchmark of the subarchmap pipeline: one workload per run, one process.

Usage, from the repository root:

    python3 perfbench/run.py --workload subarch-deep --seed 1 --seconds 40 --trace 0

One closed-loop client runs passes of the workload, each after the previous
one completes, until the next pass would end past --seconds. After a warm-up
pass of the program alone, every pass is paired: each operation runs on the
program and, right before or after it, on the baseline, a frozen copy of the
program in perfbench/baseline. The host's speed changes from second to
second, and both halves of a pair see nearly the same host, so the program's
time over the baseline's steadies what seconds alone cannot (NOTES.md,
"Noise"). Every program pass is checked against expected.json outside its
timing. With --trace 0 the last line holds the end-to-end metrics; with
--trace 1 paired passes alternate untraced and traced, and the last line
holds the per-layer metrics of the traced ones. Spans are written to
perfbench/out/trace-<workload>.jsonl.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_WARMUPS = 8
SETUPS_PER_PASS = 3

sys.path.insert(0, str(ROOT))
from perfbench.tracing import LAYER_METRICS, Tracer, median_metrics  # noqa: E402
from perfbench.workloads import WORKLOADS, fastest, run_op, run_pass  # noqa: E402

PROGRAM, BASELINE = "subarchmap", "perfbench.baseline"


def fresh_import(package: str) -> None:
    """Drop the package's modules and import it again, CLI included."""
    for name in [m for m in sys.modules if m == package or m.startswith(package + ".")]:
        del sys.modules[name]
    importlib.import_module(f"{package}.cli")


def setup_once(workload, package: str, seed: int, expected: dict, workdir: Path):
    """Import the package afresh and build the workload's inputs for it."""
    t0 = perf_counter()
    fresh_import(package)
    inputs = workload.setup(package, seed, expected, workdir / package)
    return perf_counter() - t0, inputs


def environment(seed: int) -> dict:
    cpu = ""
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), "")
    except OSError:
        pass
    return {"python": platform.python_version(), "nproc": len(os.sched_getaffinity(0)),
            "cpu": cpu, "seed": seed}


def paired_pass(workload, inputs, baseline_inputs, tracer, flip: int):
    """Each operation on the program and on the baseline, one right after the other.

    Which of the two goes first alternates from operation to operation, and
    between passes through `flip`.
    """
    program = workload.operations(PROGRAM, inputs, tracer)
    baseline = workload.operations(BASELINE, baseline_inputs, None)
    program_ops, baseline_ops = [], []
    for i, (p, b) in enumerate(zip(program, baseline, strict=True)):
        pair = [(p, program_ops, tracer), (b, baseline_ops, None)]
        for (name, fn, limit), ops, t in pair[::1 if (i + flip) % 2 == 0 else -1]:
            ops.append(run_op(name, fn, limit, t))
    return program_ops, baseline_ops


def seconds_of(ops) -> float:
    return sum(op.seconds for op in ops)


def measure(workload, setup, expected: dict, seconds: float, trace: bool,
            trace_path: Path):
    """A checked warm-up pass, then checked paired passes until `seconds` would overrun.

    The warm-up pass runs the program alone, before the baseline is first
    imported, so the peak memory taken after it is the program's. A paired
    pass starts only if a cycle (set-ups, pass and check) as long as the
    slowest so far would still end in time; a run makes at least one, and
    two (untraced, traced) with tracing on. Each pass runs on inputs from
    set-ups of its own, so set-up times are sampled across the whole run. The
    heap is collected before each pass, outside its timing, so every pass
    starts from the same garbage-collector state.
    """
    plain, traced = [], []  # (ratio to the baseline, program ops, baseline ops)
    setups = []
    layers, crosschecks, tracers = [], [], []
    t_start = perf_counter()
    setup_s, inputs = setup(PROGRAM)
    setups.append(setup_s)
    gc.collect()
    warmup = run_pass(workload, PROGRAM, inputs, None)
    failures = workload.check(inputs, warmup, expected)
    attempted = len(warmup)
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    longest = 0.0
    while True:
        t_cycle = perf_counter()
        tracer = Tracer() if trace and len(plain) > len(traced) else None
        for _ in range(SETUPS_PER_PASS):  # the pass runs on the last one's inputs
            setup_s, inputs = setup(PROGRAM)
            setups.append(setup_s)
        _, baseline_inputs = setup(BASELINE)
        gc.collect()
        flip = len(plain) + len(traced)
        if tracer is None:
            ops, baseline_ops = paired_pass(workload, inputs, baseline_inputs, None, flip)
        else:
            with tracer:
                ops, baseline_ops = paired_pass(workload, inputs, baseline_inputs,
                                                tracer, flip)
        failures += workload.check(inputs, ops, expected)
        attempted += len(ops)
        for op in ops + baseline_ops:
            op.output = None
        record = (seconds_of(ops) / seconds_of(baseline_ops), ops, baseline_ops)
        if tracer is None:
            plain.append(record)
        else:
            traced.append(record)
            layers.append(tracer.layer_metrics())
            crosschecks.append(tracer.stage_crosscheck())
            tracers.append((len(plain) + len(traced) - 1, tracer))
        done = len(plain) + len(traced)
        longest = max(longest, perf_counter() - t_cycle)
        if done >= (2 if trace else 1) and \
                perf_counter() - t_start + longest > seconds:
            break
    result = {"plain": plain, "traced": traced, "failures": failures,
              "attempted": attempted, "setups": setups, "peak_rss_mib": peak_rss_mib}
    for i, (pass_index, tracer) in enumerate(tracers):
        tracer.write(trace_path, pass_index, append=i > 0)
    if trace:
        absent = tracers[-1][1].absent
        metrics = median_metrics(layers)
        metrics["trace.overhead_ratio"] = median_ratio(traced) / median_ratio(plain)
        result.update(layers=metrics, crosschecks=crosschecks, absent=sorted(absent))
    return result


def median_ratio(passes) -> float:
    """Median over the passes of the program's time over the baseline's."""
    return statistics.median(ratio for ratio, _, _ in passes)


def pass_seconds(passes) -> float:
    """A pass's time with each operation at its fastest over the passes."""
    return sum(op.seconds for op in fastest(passes))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "subarchmap" / "__init__.py").is_file():
        print(f"error: no program source at {src}; run from a checkout of the "
              "repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    expected = json.loads((BENCH / "expected.json").read_text())
    workload = WORKLOADS[args.workload]
    out_dir = BENCH / "out"
    workdir = out_dir / f"work-{args.workload}-{os.getpid()}"
    out_dir.mkdir(exist_ok=True)

    def setup(package: str):
        return setup_once(workload, package, args.seed, expected, workdir)

    try:
        warmups = [setup(PROGRAM)[0] for _ in range(SETUP_WARMUPS)]
        run = measure(workload, setup, expected, args.seconds, bool(args.trace),
                      out_dir / f"trace-{args.workload}.jsonl")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    plain = run["plain"]
    attempted, failed = run["attempted"], len(run["failures"])
    for failure in run["failures"][:20]:
        print(f"FAILED {failure}", file=sys.stderr)
    plain_ops = [ops for _, ops, _ in plain]
    details = {"failed_ratio": (failed / attempted, "ratio"),
               "paired_passes": (len(plain), "count"),
               "wall_s": (pass_seconds(plain_ops), "s"),
               "baseline_wall_s": (pass_seconds([ops for _, _, ops in plain]), "s"),
               "wall_median_s": (statistics.median(seconds_of(ops) for ops in plain_ops),
                                 "s"),
               **workload.details(fastest(plain_ops))}
    if args.trace:
        metrics = {m: (v, LAYER_METRICS[m][0]) for m, v in run["layers"].items()}
        details["absent_layers"] = (run["absent"], "names")
        for table, ok in run["crosschecks"]:
            details["stage_crosscheck"] = ({k: [round(x, 4) for x in v]
                                            for k, v in table.items()}, "s")
            if not ok:
                print("warning: program stage times disagree with the wrapper "
                      f"spans: {table}", file=sys.stderr)
    else:
        metrics = {
            "wall_vs_baseline": (median_ratio(plain), "ratio"),
            "setup_s": (min(warmups + run["setups"]), "s"),
            "peak_rss_mib": (run["peak_rss_mib"], "MiB"),
        }
    print(json.dumps({"workload": args.workload, "trace": args.trace,
                      "env": environment(args.seed)}))
    for name, (value, unit) in {**details, **metrics}.items():
        print(f"{name:40s} {value} {unit}")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
