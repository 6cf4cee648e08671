"""Command-line surface: subarch, map, verify, bench."""

from __future__ import annotations

import json
import sys
from pathlib import Path

import click

from .circuits import (LOGICAL, PHYSICAL, RELAXED, STRICT, Allocation, Circuit, emit_qasm,
                       parse_layout_comments, parse_qasm)
from .graphs import CouplingGraph, PlatformError, _decode_json, load_platform
from .maximal import BudgetExceeded, Deadline, subarchitectures
from .mapper import check_mappable, map_optimal
from .strategy import StrategyConfig, map_with_subarch, optimality_certificate
from .subgraphs import connected_subgraphs
from .verify import check_equivalence, check_feasibility, make_verdict

EXIT_FAILURE = 1
EXIT_BUDGET = 3
_INPUT_FILE = click.Path(exists=True, dir_okay=False)


@click.group()
def main():
    """Optimal quantum layout synthesis with maximal subarchitectures."""


def _row_dict(platform_name: str, p: int, ss) -> dict:
    return {
        "platform": platform_name, "P": p, "k": ss.k,
        **{key: ss.stage_counts[key] for key in ("all_subsets", "connected", "noniso", "max")},
        "cached": ss.cached,
        "stage_seconds": {key: round(ss.stage_times[key], 4)
                          for key in ("connected", "noniso", "max", "total")},
    }


_ROW_FMT = "{:<12} {:>4} {:>4} {:>16} {:>10} {:>8} {:>6}   {:>9} {:>9} {:>9} {:>9}"


def _print_row_table(rows: list[dict]) -> None:
    click.echo(_ROW_FMT.format("Platform", "|P|", "k", "All Subsets", "Connected",
                               "NonIso", "Max", "Conn (s)", "NonIso(s)", "Max (s)",
                               "Total (s)"))
    for r in rows:
        t = r["stage_seconds"]
        click.echo(_ROW_FMT.format(
            r["platform"], r["P"], r["k"], str(r["all_subsets"]), r["connected"],
            r["noniso"], r["max"], t["connected"], t["noniso"], t["max"], t["total"]))


def _check_budget(ctx, param, budget: float | None) -> float | None:
    if budget is not None and not budget > 0:  # also rejects nan
        raise click.BadParameter("must be a number of seconds > 0")
    return budget


def _check_ancillas(ctx, param, ancillas: str | None) -> int | str | None:
    if ancillas is None or ancillas == "until-full":
        return ancillas
    try:
        return int(ancillas)  # its sign is the library's to judge
    except ValueError:
        raise click.BadParameter('must be an integer or "until-full"') from None


def _check_nonempty(ctx, param, path: str | None) -> str | None:
    if path == "":
        raise click.BadParameter("must not be empty")
    return path


def _check_target(ctx, param, path: str | None) -> str | None:
    if _check_nonempty(ctx, param, path) is not None and not Path(path).parent.is_dir():
        raise click.BadParameter(f"no directory {str(Path(path).parent)!r} to write into")
    return path


@main.command()
@click.option("--platform", required=True, help="Built-in name or platform JSON path.")
@click.option("--size", "k", type=int, required=True, help="Subarchitecture size k.")
@click.option("--stage", type=click.Choice(["connected", "full"]), default="full")
@click.option("--list", "list_members", is_flag=True,
              help="Print each vertex set, one sorted set per line.")
@click.option("--emit", "emit_dir", type=click.Path(file_okay=False), default=None,
              callback=_check_nonempty,
              help="Write each maximal member as a platform JSON file.")
@click.option("--budget", type=float, default=None, callback=_check_budget,
              help="Wall-clock budget (s), > 0.")
@click.option("--json", "as_json", is_flag=True)
def subarch(platform, k, stage, list_members, emit_dir, budget, as_json):
    """Enumerate subarchitectures; prints a benchmark-table style row."""
    g = _load(platform)
    if stage == "connected" and emit_dir:
        raise click.UsageError("--emit needs --stage full")
    stem = f"{g.name or 'platform'}-k{k}"
    if emit_dir and (Path(stem).name != stem or "\0" in stem):
        raise click.BadParameter(f"platform name {g.name!r} is not a plain file name",
                                 param_hint="--emit")
    deadline = Deadline(budget)
    try:
        if stage == "connected":
            count = 0
            for subset in connected_subgraphs(g, k):
                deadline.check()
                count += 1
                if list_members:
                    click.echo(" ".join(map(str, subset)))
            out = {"platform": g.name or platform, "k": k, "connected": count}
            click.echo(json.dumps(out) if as_json else f"connected: {count}")
            return
        ss = subarchitectures(g, k, deadline=deadline)
    except BudgetExceeded:
        click.echo("TO")
        sys.exit(EXIT_BUDGET)
    except ValueError as exc:
        raise click.UsageError(str(exc)) from None
    row = _row_dict(g.name or platform, g.num_vertices, ss)
    if as_json:
        click.echo(json.dumps(row))
    else:
        _print_row_table([row])
    if list_members:
        for member in ss.members:
            click.echo(" ".join(map(str, member.vertices)))
    if emit_dir:
        out = Path(emit_dir)
        try:
            out.mkdir(parents=True, exist_ok=True)
            for i, member in enumerate(ss.members):
                relabel = {v: j for j, v in enumerate(member.vertices)}
                doc = {"name": f"{stem}-{i}", "qubits": member.num_vertices,
                       "edges": sorted([relabel[u], relabel[v]] for u, v in member.edges)}
                (out / f"{doc['name']}.json").write_text(json.dumps(doc, indent=1))
        except OSError as exc:
            raise click.BadParameter(str(exc), param_hint="--emit")


@main.command(name="map")
@click.option("--platform", required=True)
@click.option("--circuit", "circuit_path", type=_INPUT_FILE, required=True)
@click.option("--bound", type=int, default=None, help="Initial swap bound.")
@click.option("--full-architecture", is_flag=True,
              help="Map directly onto the whole platform, no subarchitectures.")
@click.option("--ancillas", default=None, callback=_check_ancillas,
              help='Max ancilla qubits (default 2), or "until-full".')
@click.option("--out", "out_path", type=click.Path(dir_okay=False), default=None,
              callback=_check_target, help="Write mapped QASM here (default: stdout).")
@click.option("--report", "report_path", type=click.Path(dir_okay=False), default=None,
              callback=_check_target, help="Write the machine-readable run report here.")
@click.option("--budget", type=float, default=None, callback=_check_budget,
              help="Wall-clock budget (s), > 0.")
def map_cmd(platform, circuit_path, bound, full_architecture, ancillas, out_path,
            report_path, budget):
    """Map a circuit; emits mapped QASM plus a JSON summary."""
    if full_architecture and ancillas is not None:
        raise click.UsageError("--ancillas needs subarchitectures, not --full-architecture")
    g = _load(platform)
    _, circ = _parse(circuit_path, "--circuit")
    deadline = None if budget is None else Deadline(budget)
    try:
        if full_architecture:
            result = map_optimal(circ, g, bound=bound, deadline=deadline)
        else:
            cfg = StrategyConfig(initial_bound=bound, max_ancillas=None if ancillas == "until-full"
                                 else 2 if ancillas is None else ancillas)
            strat = map_with_subarch(g, circ, cfg, deadline)
            result = strat.result
    except BudgetExceeded:
        click.echo("TO")
        sys.exit(EXIT_BUDGET)
    except ValueError as exc:  # the library's refusal of the target
        raise click.UsageError(str(exc)) from None
    if full_architecture:
        report_doc = {"map_calls": 1}  # written only on success
    else:
        cert = optimality_certificate(strat, g, cfg)
        report_doc = {"map_calls": strat.map_calls,
                      "outcomes": cert["bound_chain"], "certificate": cert}
    if result is None:
        click.echo(json.dumps({"success": False}))
        sys.exit(EXIT_FAILURE)
    qasm = emit_qasm(result.mapped, layout=result.initial)
    summary = {
        "success": True,
        "swaps": result.swaps,
        "gate_equivalent": 3 * result.swaps,  # each swap costs 3 cx gates when decomposed
        "qubits_used": result.subarch.num_vertices,
        "subarch_vertices": list(result.subarch.vertices),
    }
    if report_path:
        report_doc["summary"] = summary
        Path(report_path).write_text(json.dumps(report_doc, indent=1))
    if out_path:
        Path(out_path).write_text(qasm)
        click.echo(json.dumps(summary))
    else:
        click.echo(qasm, nl=False)
        click.echo(json.dumps(summary), err=True)


@main.command()
@click.option("--platform", required=True)
@click.option("--circuit", "circuit_path", type=_INPUT_FILE, required=True)
@click.option("--mapped", "mapped_path", type=_INPUT_FILE, required=True)
@click.option("--layout", default="auto",
              help='"auto" (from QASM comments) or a JSON file {logical: physical}.')
@click.option("--mode", type=click.Choice([STRICT, RELAXED]), default=STRICT)
def verify(platform, circuit_path, mapped_path, layout, mode):
    """Check feasibility and equivalence of a mapped circuit. Exit 0/1."""
    g = _load(platform)
    _, original = _parse(circuit_path, "--circuit")
    try:
        check_mappable(original, g, None)  # also keeps check_equivalence's qubit set small
    except ValueError as exc:
        raise click.BadParameter(str(exc), param_hint="--circuit") from None
    mapped_text, mapped = _parse(mapped_path, "--mapped", PHYSICAL)
    try:
        if layout == "auto":
            alloc = parse_layout_comments(mapped_text)
        else:
            doc = _decode_json(Path(layout).read_text())
            if not isinstance(doc, dict):
                raise ValueError("must be a JSON object {\"logical\": physical, ...}")
            if not all(q.isascii() and q.isdigit() and str(int(q)) == q for q in doc):
                raise ValueError("layout keys must be non-negative integers in "
                                 "decimal, such as \"0\"")
            alloc = Allocation.from_dict({int(q): p for q, p in doc.items()})
    except (OSError, ValueError) as exc:  # Allocation judges the values
        raise click.BadParameter(str(exc), param_hint="--layout")
    if alloc is None:
        raise click.UsageError("no layout comments in mapped file; pass --layout FILE")
    feas = check_feasibility(mapped, g, alloc)
    equiv = check_equivalence(original, mapped, alloc, mode)
    verdict = make_verdict(mapped, feas, equiv, mode)
    click.echo(json.dumps(verdict.to_dict()))
    sys.exit(0 if verdict.ok else EXIT_FAILURE)


@main.command()
@click.option("--manifest", type=_INPUT_FILE, required=True,
              help='JSON list of {"platform": ..., "k": ...} entries.')
@click.option("--budget", type=float, default=None, callback=_check_budget,
              help="Per-row budget (s), > 0.")
@click.option("--json", "as_json", is_flag=True)
def bench(manifest, budget, as_json):
    """Run the subarchitecture pipeline over a manifest and render a table."""
    try:
        entries = [(entry["platform"], entry["k"])
                   for entry in _decode_json(Path(manifest).read_text())]
        if not all(type(p) is str and type(k) is int for p, k in entries):  # not bool
            raise ValueError("platform must be a JSON string and k a JSON integer")
    except (ValueError, KeyError, TypeError) as exc:
        raise click.BadParameter(f"not a list of {{platform, k}} rows: {exc!r}",
                                 param_hint="--manifest")
    rows, errors, timeouts = [], 0, 0
    for name, k in entries:
        try:
            g = load_platform(name)
            ss = subarchitectures(g, k, deadline=Deadline(budget))
            rows.append(_row_dict(g.name or name, g.num_vertices, ss))
        except BudgetExceeded:
            timeouts += 1
            rows.append({"platform": name, "P": None, "k": k, "error": "TO"})
        except ValueError as exc:
            errors += 1
            rows.append({"platform": name, "P": None, "k": k, "error": str(exc)})
    if as_json:
        click.echo(json.dumps({"rows": rows}))
    else:
        ok_rows = [r for r in rows if "error" not in r]
        if ok_rows:
            _print_row_table(ok_rows)
        for r in rows:
            if "error" in r:
                click.echo(f"{r['platform']} k={r['k']}: {r['error']}")
    if timeouts:
        sys.exit(EXIT_BUDGET)
    if errors:
        sys.exit(EXIT_FAILURE)


def _load(platform: str) -> CouplingGraph:
    try:
        return load_platform(platform)
    except PlatformError as exc:
        raise click.UsageError(str(exc))


def _parse(path: str, option: str, space: str = LOGICAL) -> tuple[str, Circuit]:
    try:
        text = Path(path).read_text()
        return text, parse_qasm(text, space=space)
    except (OSError, ValueError) as exc:  # UnicodeDecodeError is a ValueError
        raise click.BadParameter(str(exc), param_hint=option)


if __name__ == "__main__":
    main()
