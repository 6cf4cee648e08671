"""Write expected.json: the workloads' circuit pools and the program's outputs.

Usage, from the repository root:

    python3 perfbench/freeze.py

The file was frozen from the program as it stood when the benchmark was
defined. A change that keeps the program's outputs must pass against it
unchanged; rewrite it only for a change meant to alter what is computed,
and say so.
"""

from __future__ import annotations

import json
import random
import re
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent), str(BENCH.parent / "src")]

from perfbench.workloads import ANCILLAS, WORKLOADS, pool_circuit  # noqa: E402
from subarchmap import (StrategyConfig, load_platform, map_optimal,  # noqa: E402
                        map_with_subarch, max_subarchitectures)

BATCH_CIRCUITS = 150


def random_case(name: str, rng: random.Random, n: int, gates: int) -> dict:
    return {"name": name, "n": n,
            "cx": [rng.sample(range(n), 2) for _ in range(gates)]}


def ring_case(n: int) -> dict:
    return {"name": f"ring-{n}", "n": n, "cx": [[i, (i + 1) % n] for i in range(n)]}


def strict_outcome(g, case: dict) -> dict:
    report = map_with_subarch(g, pool_circuit(case, list(range(case["n"]))),
                              StrategyConfig(max_ancillas=ANCILLAS))
    return {**case, "swaps": report.swaps, "ancillas": report.ancillas}


def main() -> None:
    doc: dict = {}
    for name in ("subarch-wide", "subarch-deep"):
        w = WORKLOADS[name]
        ss = max_subarchitectures(w.setup("subarchmap", 0, {}, BENCH), w.k)
        doc[name] = {"platform": w.platform, "k": w.k,
                     "counts_row": list(ss.counts_row()),
                     "members": sorted(list(m.vertices) for m in ss.members)}

    g = load_platform("guadalupe")
    # The random circuits were picked from the first ten of each stream as
    # ones that need 6 (strict) and 3 (relaxed) swaps, about 1-2 s each.
    strict = [ring_case(7),
              random_case("random-6x14", random.Random("map-hard:strict:9"), 6, 14)]
    relaxed = random_case("random-6x12", random.Random("map-hard:relaxed:8"), 6, 12)
    relaxed["swaps"] = map_optimal(pool_circuit(relaxed, list(range(6))), g,
                                   relaxed=True).swaps
    doc["map-hard"] = {"platform": "guadalupe",
                       "strict": [strict_outcome(g, c) for c in strict],
                       "relaxed": [relaxed]}

    rng = random.Random("map-batch:pool")
    pool = [random_case(f"batch-{i}", rng, rng.randint(3, 6), rng.randint(4, 12))
            for i in range(BATCH_CIRCUITS)]
    doc["map-batch"] = {"platform": "guadalupe",
                        "circuits": [strict_outcome(g, c) for c in pool]}

    text = json.dumps(doc, indent=1)
    # One line per number list, and one per circuit's gate list.
    text = re.sub(r"\[[\d,\s]*\]", lambda m: json.dumps(json.loads(m.group())), text)
    text = re.sub(r'"cx": \[[\d,\s\[\]]*\]',
                  lambda m: '"cx": ' + json.dumps(json.loads(m.group()[6:])), text)
    (BENCH / "expected.json").write_text(text + "\n")


if __name__ == "__main__":
    main()
