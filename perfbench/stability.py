#!/usr/bin/env python3
"""Check that the benchmark is steady, and collect a result set.

For each workload in BENCHMARK.json it runs ``run.py`` once for each of
the seeds 1 to 10 (untraced, one process each, one at a time) and copies
every run's record into ``--out``. It then prints, for each end-to-end
metric, set-up time included, the spread of its values: the distance between
the first and third quartile as a share of the median. A spread above the
metric's bound in BENCHMARK.json fails the check; a spread above a third of
the bound is marked as noisy.

Unless ``--no-counts`` is given it also runs the traced run twice on the
first seed and checks that every exact count (per-layer metrics with unit
``count``, apart from garbage collections, which depend on how many queries
fit in the time) repeats exactly.

    python3 perfbench/stability.py --out .perfbench/sets/a

Exits 1 on a failed run, a wrong answer, a spread above its bound or a count
that did not repeat.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
from pathlib import Path

from compare import load_benchmark, quartiles

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = ROOT / ".perfbench" / "results"
INEXACT_COUNTS = {"py.gc_collections"}
SEEDS = range(1, 11)


def run_once(workload: str, seed: int, seconds: int, trace: int, out: Path, tag: str = "") -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}\n{proc.stderr[-2000:]}")
    name = f"{workload}-seed{seed}-trace{trace}.json"
    shutil.copy(RESULTS / name, out / (tag + name))
    return json.loads(proc.stdout.splitlines()[-1])


def main(argv: list[str] | None = None) -> int:
    bench = load_benchmark()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", type=Path, required=True, help="directory for this result set")
    parser.add_argument("--no-counts", action="store_true", help="skip the exact-count check")
    args = parser.parse_args(argv)
    args.out.mkdir(parents=True, exist_ok=True)
    seconds = bench["run_seconds"]
    bad = 0
    for workload in (w["name"] for w in bench["workloads"]):
        results = []
        for seed in SEEDS:
            result = run_once(workload, seed, seconds, 0, args.out)
            if not result["correct"]:
                print(f"{workload} seed {seed}: {result['failed']} of {result['attempted']} operations failed")
                bad += 1
            results.append(result)
        for spec in bench["end_to_end"]:
            name, bound = spec["name"], spec["bound"]
            values = [r["metrics"][name]["value"] for r in results]
            q1, med, q3 = quartiles(values)
            spread = (q3 - q1) / med
            if spread > bound:
                status = "TOO WIDE"
                bad += 1
            else:
                status = "noisy" if spread > bound / 3 else "ok"
            print(f"{workload:14s} {name:24s} median {med:12.5g} {spec['unit']:7s} "
                  f"spread {spread:6.1%} bound {bound:4.0%}  {status}")
        if args.no_counts:
            continue
        first, second = (
            run_once(workload, SEEDS[0], seconds, 1, args.out, tag=tag) for tag in ("", "repeat-")
        )
        counts = [s["name"] for s in bench["per_layer"] if s["unit"] == "count" and s["name"] not in INEXACT_COUNTS]
        differ = [c for c in counts if first["metrics"][c]["value"] != second["metrics"][c]["value"]]
        print(f"{workload:14s} exact counts: {len(counts) - len(differ)} of {len(counts)} repeat"
              + (f"; DIFFER: {', '.join(differ)}" if differ else ""))
        bad += len(differ)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
