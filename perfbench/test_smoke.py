"""Smoke test of the benchmark at tiny sizes.

    python3 -m pytest perfbench/test_smoke.py

It checks that each workload reports exactly the metrics BENCHMARK.json
names, that a clean run fails no operation, and that the correctness gate
counts a wrong or raising matcher or index in ``failed`` instead of passing
it or crashing.
"""

from __future__ import annotations

import dataclasses

import pytest

import run as bench
from compare import load_benchmark
from workloads import WORKLOADS, Inputs

SECONDS = 0.3


@pytest.fixture(scope="module")
def lib():
    return bench.import_library()


@pytest.fixture(autouse=True)
def tiny(monkeypatch):
    for name, w in list(WORKLOADS.items()):
        monkeypatch.setitem(
            WORKLOADS, name, dataclasses.replace(w, n=3000, pool=12, window=0, setup_reps=2)
        )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_clean_run_reports_every_metric(lib, workload, trace):
    ss, kernel = lib
    record = bench.run(ss, kernel, workload, 3, SECONDS, bool(trace))
    spec = load_benchmark()["per_layer" if trace else "end_to_end"]
    assert sorted(record["metrics"]) == sorted(m["name"] for m in spec)
    assert all(record["metrics"][m["name"]]["unit"] == m["unit"] for m in spec)
    assert record["failed"] == 0, record["failure_notes"]
    assert record["attempted"] > 0


def test_wrong_matcher_counts_as_failed(lib, monkeypatch):
    ss, kernel = lib
    real = ss.bm_find_all
    monkeypatch.setattr(ss, "bm_find_all", lambda text, pat, **kw: real(text, pat)[1:] + [len(text)])
    record = bench.run(ss, kernel, "oneshot", 3, SECONDS, False)
    assert record["failed_frac"] > 0
    assert all(note.startswith("bm_find_all") for note in record["failure_notes"])


def test_raising_index_counts_as_failed(lib, monkeypatch):
    ss, kernel = lib

    def broken(self, pattern):
        raise RuntimeError("deliberately broken")

    monkeypatch.setattr(ss.SuffixTreeIndex, "count", broken)
    for trace in (False, True):
        record = bench.run(ss, kernel, "ascii-lookup", 3, SECONDS, trace)
        assert record["failed_frac"] > 0


def test_inputs_depend_only_on_seed():
    w = WORKLOADS["dna-fasta"]
    assert Inputs(w, 5).sha256() == Inputs(w, 5).sha256()
    assert Inputs(w, 5).sha256()["text"] != Inputs(w, 6).sha256()["text"]
