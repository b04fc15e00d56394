#!/usr/bin/env python3
"""Compare two result sets of the benchmark.

A result set is a directory of the per-run records ``run.py`` writes (see
``stability.py --out``). For every workload and metric this prints one row:
the median and quartiles of each set, the change of the medians, and a flag
when an end-to-end metric got worse (or better) by more than its bound in
BENCHMARK.json. Per-layer metrics have no bound and are never flagged.
Records from different backends or with different inputs for the same seed
are flagged too, so such runs are never compared silently.

    python3 perfbench/compare.py SET_A SET_B

Exits 1 when any row is flagged as worse.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load_benchmark() -> dict:
    return json.loads(BENCHMARK.read_text())


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def load_set(directory: Path) -> dict[tuple[str, int], list[dict]]:
    """Records grouped by (workload, trace flag)."""
    out: dict[tuple[str, int], list[dict]] = defaultdict(list)
    for path in sorted(directory.glob("*.json")):
        record = json.loads(path.read_text())
        out[(record["workload"], record["trace"])].append(record)
    return out


def provenance_flags(a: list[dict], b: list[dict]) -> list[str]:
    flags = []
    backends = {(r["backend"], r["kernel_module"]) for r in a + b}
    if len(backends) > 1:
        flags.append(f"BACKENDS DIFFER {sorted(backends)}")
    inputs_a = {r["seed"]: r["inputs_sha256"] for r in a}
    for r in b:
        if r["seed"] in inputs_a and inputs_a[r["seed"]] != r["inputs_sha256"]:
            flags.append(f"INPUTS DIFFER for seed {r['seed']}")
    return flags


def compare(set_a: Path, set_b: Path) -> int:
    bench = load_benchmark()
    specs = {0: bench["end_to_end"], 1: bench["per_layer"]}
    a, b = load_set(set_a), load_set(set_b)
    worse = 0
    print(f"{'workload':14s} {'metric':44s} {'A median [q1, q3]':>32s} {'B median [q1, q3]':>32s} {'change':>8s}")
    for key in sorted(set(a) | set(b)):
        workload, trace = key
        ra, rb = a.get(key, []), b.get(key, [])
        if not ra or not rb:
            print(f"{workload:14s} trace={trace}: only in {'A' if ra else 'B'}, not compared")
            continue
        for flag in provenance_flags(ra, rb):
            print(f"{workload:14s} {flag}")
            worse += 1
        for spec in specs[trace]:
            name = spec["name"]
            qa = quartiles([r["metrics"][name]["value"] for r in ra])
            qb = quartiles([r["metrics"][name]["value"] for r in rb])
            change = (qb[1] - qa[1]) / qa[1] if qa[1] else float("nan")
            flag = ""
            if "bound" in spec:
                loss = change if spec["better"] == "lower" else -change
                if loss > spec["bound"]:
                    flag = f"WORSE (bound {spec['bound']:.0%})"
                    worse += 1
                elif -loss > spec["bound"]:
                    flag = f"better (bound {spec['bound']:.0%})"
            cell_a = f"{qa[1]:.5g} [{qa[0]:.5g}, {qa[2]:.5g}]"
            cell_b = f"{qb[1]:.5g} [{qb[0]:.5g}, {qb[2]:.5g}]"
            print(f"{workload:14s} {name:44s} {cell_a:>32s} {cell_b:>32s} {change:+8.1%} {spec['unit']} {flag}")
    return 1 if worse else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("set_a", type=Path)
    parser.add_argument("set_b", type=Path)
    args = parser.parse_args(argv)
    return compare(args.set_a, args.set_b)


if __name__ == "__main__":
    sys.exit(main())
