"""Acceptance criteria, one test per criterion.

Each test prints a single ``ACCEPTANCE n <name>: PASS|FAIL`` line (visible
with ``pytest -s`` or in the captured output section). The banner test
prints the name of the kernel the library runs on.
"""

import os
import random
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import strsearch
from strsearch import (
    Counters,
    bm_find_all,
    build_suffix_tree,
    build_suffix_trie,
    kmp_find_all,
    naive_find_all,
    rk_find_all,
    run_accuracy_experiment,
    sample_patterns,
)
from strsearch.datagen import DNA_UNIFORM, GenSpec, generate_text

from helpers import ALPHABETS, compact_trie
from test_suffix_tree import check_structure

SRC = str(Path(__file__).resolve().parent.parent / "src")


@contextmanager
def criterion(num, name):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num} {name}: FAIL ({time.perf_counter() - t0:.1f}s)")
        raise
    print(f"ACCEPTANCE {num} {name}: PASS ({time.perf_counter() - t0:.1f}s)")


def run_cli(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-m", "strsearch", *args],
        capture_output=True, env=env, timeout=300,
    )


def test_criterion_1_node_count_reproduction(tmp_path):
    with criterion(1, "node-count reproduction"):
        path = tmp_path / "m.txt"
        path.write_bytes(b"Mississippi")
        t0 = time.perf_counter()
        r = run_cli("stats", "--text", str(path), "--lowercase", "--index", "stree")
        assert time.perf_counter() - t0 < 1.0
        assert r.returncode == 0
        assert r.stdout.decode().splitlines()[0] == "node_count: 19"
        t0 = time.perf_counter()
        r = run_cli("stats", "--text", str(path), "--lowercase", "--index", "strie")
        assert time.perf_counter() - t0 < 1.0
        assert r.returncode == 0
        assert r.stdout.decode().splitlines()[0] == "node_count: 66"


def test_criterion_2_oracle_equivalence():
    with criterion(2, "oracle equivalence, 1000 cases per alphabet"):
        t0 = time.perf_counter()
        rng = random.Random(0xACCE97)
        texts_per_alphabet = 10
        patterns_per_text = 100
        for symbols in ALPHABETS.values():
            cases = 0
            lengths = [1, 2] + [rng.randint(1, 2000) for _ in range(texts_per_alphabet - 2)]
            for n in lengths:
                body = bytes(rng.choice(symbols) for _ in range(n))
                trie = build_suffix_trie(body)
                tree = build_suffix_tree(body)
                for _ in range(patterns_per_text):
                    m = rng.randint(1, 32)
                    if rng.random() < 0.5 and m <= n:
                        i = rng.randrange(n - m + 1)
                        pat = body[i : i + m]
                    else:
                        pat = bytes(rng.choice(symbols) for _ in range(m))
                    want = naive_find_all(body, pat)
                    assert kmp_find_all(body, pat) == want
                    assert rk_find_all(body, pat) == want
                    assert bm_find_all(body, pat) == want
                    assert trie.find_all(pat) == want
                    assert tree.find_all(pat) == want
                    cases += 1
                del trie, tree
            assert cases >= 1000
        assert time.perf_counter() - t0 < 60


def test_criterion_3_structural_oracle():
    with criterion(3, "trie compaction is isomorphic to the tree"):
        rng = random.Random(0x57A7)
        names = sorted(ALPHABETS)
        for i in range(200):
            symbols = ALPHABETS[names[i % len(names)]]
            n = rng.randint(1, 200)
            body = bytes(rng.choice(symbols) for _ in range(n))
            want_count, want_labels = compact_trie(body + b"\x00")
            index = build_suffix_tree(body)
            assert index.node_count == want_count
            assert sorted(index.edge_labels()) == want_labels


def test_criterion_4_genomic_accuracy():
    with criterion(4, "100kb DNA accuracy 1.0"):
        t0 = time.perf_counter()
        text = generate_text(GenSpec(alphabet=DNA_UNIFORM, length=100_000, seed=0xD9A))
        report = run_accuracy_experiment(text, pattern_count=100, seed=31, len_min=5, len_max=50)
        assert report.patterns == 100
        assert report.precision == 1.0
        assert report.recall == 1.0
        assert time.perf_counter() - t0 < 10


def test_criterion_5_linear_construction():
    with criterion(5, "construction cost per character is flat 1e3..1e6"):
        t0 = time.perf_counter()
        per_char = {}
        for n in (1_000, 10_000, 100_000, 1_000_000):
            body = generate_text(GenSpec(alphabet=DNA_UNIFORM, length=n, seed=n + 1)).body
            index = build_suffix_tree(body)
            assert index.node_count <= 2 * (n + 1) - 1
            per_char[n] = index.build_steps / n
            del index
        ratio = per_char[1_000_000] / per_char[1_000]
        assert ratio < 3 and 1 / ratio < 3, per_char
        assert time.perf_counter() - t0 < 60


def test_criterion_6_descent_cost():
    with criterion(6, "descent never compares more than pattern length"):
        rng = random.Random(0xDE5C)
        queries = 0
        for symbols, n in ((b"ACGT", 20_000), (bytes(range(1, 256)), 5_000), (b"ab", 5_000)):
            body = bytes(rng.choice(symbols) for _ in range(n))
            index = build_suffix_tree(body)
            for _ in range(3_400):
                m = rng.randint(1, 64)
                if rng.random() < 0.5 and m <= n:
                    i = rng.randrange(n - m + 1)
                    pat = body[i : i + m]
                else:
                    pat = bytes(rng.choice(symbols) for _ in range(m))
                c = Counters()
                index.descend(pat, counters=c)
                assert c.comparisons <= m
                queries += 1
        assert queries >= 10_000


def test_criterion_7_query_speedup_over_naive():
    with criterion(7, "amortized tree query beats naive 10x at n=10000"):
        t0 = time.perf_counter()
        text = generate_text(GenSpec(alphabet=DNA_UNIFORM, length=10_000, seed=0xF16))
        pattern = sample_patterns(text, 1, 10, 10, seed=3)[0]
        index = build_suffix_tree(text.body)
        # warm-up both paths, then time 1000 repeated queries each
        expected = naive_find_all(text, pattern)
        assert index.find_all(pattern) == expected
        reps = 1000
        t1 = time.perf_counter_ns()
        for _ in range(reps):
            index.find_all(pattern)
        tree_ns = (time.perf_counter_ns() - t1) / reps
        t1 = time.perf_counter_ns()
        for _ in range(reps):
            naive_find_all(text, pattern)
        naive_ns = (time.perf_counter_ns() - t1) / reps
        assert naive_ns >= 10 * tree_ns, (naive_ns, tree_ns)
        assert time.perf_counter() - t0 < 30


def test_criterion_8_bench_determinism(tmp_path):
    with criterion(8, "bench --seed 42 reproduces data columns byte for byte"):
        outputs = []
        for name in ("a.csv", "b.csv"):
            out = tmp_path / name
            r = run_cli("bench", "--seed", "42", "--out", str(out))
            assert r.returncode == 0
            outputs.append(out.read_text())

        def drop_time_columns(csv_text):
            rows = []
            for line in csv_text.strip().split("\n"):
                cells = line.split(",")
                del cells[5:7]  # build_ns, query_total_ns
                rows.append(",".join(cells))
            return "\n".join(rows)

        assert outputs[0]
        assert drop_time_columns(outputs[0]) == drop_time_columns(outputs[1])


def test_criterion_9_tree_invariant_suites():
    with criterion(9, "suffix-link and leaf-count invariants on 500 texts"):
        rng = random.Random(0x1EAF)
        names = sorted(ALPHABETS)
        for i in range(500):
            symbols = ALPHABETS[names[i % len(names)]]
            n = rng.randint(1, 500)
            body = bytes(rng.choice(symbols) for _ in range(n))
            check_structure(build_suffix_tree(body), body)


def test_acceptance_backend_banner():
    print(f"acceptance backend: {strsearch.active_backend()}")
