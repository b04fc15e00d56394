#!/usr/bin/env python3
"""strsearch benchmark: one workload per process, closed loop, one client.

Run from the root of a checkout:

    python3 perfbench/run.py --workload dna-fasta --seed 1 --seconds 30 --trace 0

Before measuring, it builds the package in place the way the README says
(``python setup.py build_ext --inplace``), imports it from ``src/`` and
records which kernel loaded. It never compiles kernel sources itself.

With ``--trace 0`` it reports the end-to-end metrics; with ``--trace 1`` the
per-layer metrics of a traced run, whose spans go to ``.perfbench/traces/``.
Every metric is printed with its unit, then the last line of standard output
is one JSON object with the keys correct, attempted, failed and metrics. The
full record of the run (sample counts, input SHA-256, backend) is written to
``.perfbench/results/``. The exit code is 0 whenever a result was printed,
also when answers were wrong; a run that cannot build or import the package
exits 1 without a result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

from measure import Checker, Cli, run_end_to_end, run_traced
from workloads import WORKLOADS, Inputs

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench"


def build_in_place() -> None:
    proc = subprocess.run(
        [sys.executable, "setup.py", "build_ext", "--inplace"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise SystemExit(f"perfbench: in-place build failed (exit {proc.returncode})\n{proc.stderr[-2000:]}")


def import_library():
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import strsearch
        from strsearch import _backend
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import strsearch from {ROOT / 'src'}: {exc}")
    return strsearch, _backend.kernel()


def run(ss, kernel, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Measure one workload in this process; returns the full record."""
    inp = Inputs(WORKLOADS[workload], seed)
    check = Checker()
    (OUT / "tmp").mkdir(parents=True, exist_ok=True)
    text_path = OUT / "tmp" / f"{workload}-{seed}-{os.getpid()}.txt"
    text_path.write_bytes(inp.scan_text)
    cli = Cli(ROOT, text_path)
    extra: dict = {}
    try:
        if trace:
            metrics, tracer = run_traced(ss, kernel, inp, seconds, check, cli)
        else:
            metrics, extra = run_end_to_end(ss, inp, seconds, check, cli)
    finally:
        text_path.unlink(missing_ok=True)
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "backend": ss.active_backend(),
        "kernel_module": kernel.__name__,
        "kernel_file": os.path.relpath(kernel.__file__, ROOT),
        "python": platform.python_version(),
        "inputs_sha256": inp.sha256(),
        "attempted": check.attempted,
        "failed": check.failed,
        "failed_frac": check.failed / check.attempted,
        "failure_notes": check.notes,
        "metrics": metrics,
        **extra,
    }
    if trace:
        (OUT / "traces").mkdir(parents=True, exist_ok=True)
        header = {k: record[k] for k in ("workload", "seed", "backend", "kernel_module", "kernel_file")}
        tracer.dump(OUT / "traces" / f"{workload}-seed{seed}.json", header)
    return record


def report(record: dict) -> None:
    print(
        f"perfbench {record['workload']} seed={record['seed']} trace={record['trace']} "
        f"backend={record['backend']} kernel={record['kernel_module']} ({record['kernel_file']})"
    )
    print("inputs sha256: " + " ".join(f"{k}={v[:16]}" for k, v in record["inputs_sha256"].items()))
    for name, m in record["metrics"].items():
        print(f"  {name:44s} {m['value']:14.6g} {m['unit']:8s} ({m['samples']} samples)")
    print(
        f"  {'failed_frac':44s} {record['failed_frac']:14.6g} {'ratio':8s} "
        f"({record['failed']} of {record['attempted']} operations)"
    )
    for note in record["failure_notes"]:
        print(f"perfbench: failed {note}", file=sys.stderr)
    print(json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {k: {"value": m["value"], "unit": m["unit"]} for k, m in record["metrics"].items()},
    }))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    build_in_place()
    ss, kernel = import_library()
    record = run(ss, kernel, args.workload, args.seed, args.seconds, bool(args.trace))
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    path = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    report(record)
    return 0


if __name__ == "__main__":
    sys.exit(main())
