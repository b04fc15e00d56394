import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

from strsearch.bench import ALL_ALGORITHMS
from strsearch.suffix_trie import BODY_CAP

SRC = str(Path(__file__).resolve().parent.parent / "src")


def run_cli(*args, stdin=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-m", "strsearch", *args],
        input=stdin,
        capture_output=True,
        env=env,
        timeout=120,
    )


@pytest.fixture
def mississippi(tmp_path):
    path = tmp_path / "text.txt"
    path.write_bytes(b"mississippi")
    return str(path)


def test_search_stree(mississippi):
    r = run_cli("search", "--algo", "stree", "--text", mississippi, "--pattern", "issi")
    assert r.returncode == 0
    assert r.stdout == b"1\n4\ncount: 2\n"


def test_search_all_algorithms_agree(mississippi):
    for algo in ("naive", "kmp", "rk", "bm", "strie", "stree"):
        r = run_cli("search", "--algo", algo, "--text", mississippi, "--pattern", "ssi")
        assert r.returncode == 0, algo
        assert r.stdout == b"2\n5\ncount: 2\n", algo


def test_search_no_match_exit_code(tmp_path):
    path = tmp_path / "t.txt"
    path.write_bytes(b"abc")
    r = run_cli("search", "--algo", "naive", "--text", str(path), "--pattern", "zzz")
    assert r.returncode == 1
    assert r.stdout == b"count: 0\n"


@pytest.mark.parametrize("algo", ALL_ALGORITHMS)
def test_search_empty_text_is_no_match(tmp_path, algo):
    path = tmp_path / "empty.txt"
    path.write_bytes(b"")
    for extra in ((), ("--count-only",)):
        r = run_cli("search", "--algo", algo, "--text", str(path), "--pattern", "a", *extra)
        assert (r.returncode, r.stdout, r.stderr) == (1, b"count: 0\n", b""), (algo, extra)


def test_search_empty_pattern_is_usage_error(mississippi):
    r = run_cli("search", "--algo", "stree", "--text", mississippi, "--pattern", "")
    assert r.returncode == 2


def test_search_count_only(mississippi):
    r = run_cli("search", "--algo", "stree", "--text", mississippi, "--pattern", "issi", "--count-only")
    assert r.returncode == 0
    assert r.stdout == b"count: 2\n"


def test_search_stdin():
    r = run_cli("search", "--algo", "kmp", "--stdin", "--pattern", "ana", stdin=b"banana")
    assert r.returncode == 0
    assert r.stdout == b"1\n3\ncount: 2\n"


def test_search_pattern_file(tmp_path, mississippi):
    pf = tmp_path / "pat.bin"
    pf.write_bytes(b"ssi")
    r = run_cli("search", "--algo", "bm", "--text", mississippi, "--pattern-file", str(pf))
    assert r.returncode == 0
    assert r.stdout == b"2\n5\ncount: 2\n"


def test_search_requires_exactly_one_pattern_source(mississippi, tmp_path):
    r = run_cli("search", "--algo", "naive", "--text", mississippi)
    assert r.returncode == 2
    pf = tmp_path / "p.bin"
    pf.write_bytes(b"x")
    r = run_cli("search", "--algo", "naive", "--text", mississippi,
                "--pattern", "x", "--pattern-file", str(pf))
    assert r.returncode == 2


def test_unknown_flag_is_fatal(mississippi):
    r = run_cli("search", "--algo", "naive", "--text", mississippi, "--pattern", "a", "--frobnicate")
    assert r.returncode == 2


def test_unreadable_file_is_data_error():
    r = run_cli("search", "--algo", "naive", "--text", "/nonexistent/x", "--pattern", "a")
    assert r.returncode == 3


def test_stats_node_counts(tmp_path):
    path = tmp_path / "m.txt"
    path.write_bytes(b"Mississippi")
    r = run_cli("stats", "--text", str(path), "--lowercase", "--index", "stree")
    assert r.returncode == 0
    lines = r.stdout.decode().splitlines()
    assert lines[0] == "node_count: 19"
    assert "leaf_count: 12" in lines
    r = run_cli("stats", "--text", str(path), "--lowercase", "--index", "strie")
    assert r.returncode == 0
    assert r.stdout.decode().splitlines()[0] == "node_count: 66"


def test_stats_single_char(tmp_path):
    path = tmp_path / "a.txt"
    path.write_bytes(b"a")
    r = run_cli("stats", "--text", str(path), "--index", "stree")
    assert r.returncode == 0
    assert r.stdout.decode().splitlines()[0] == "node_count: 3"


def over_trie_cap(tmp_path):
    """A random DNA file one byte longer than the suffix trie's cap."""
    rng = random.Random(3)
    path = tmp_path / "big.txt"
    path.write_bytes(bytes(rng.choice(b"ACGT") for _ in range(BODY_CAP + 1)))
    return str(path)


def assert_trie_refused(*args):
    t0 = time.perf_counter()
    r = run_cli(*args)
    # refused before building: the trie would take seconds and about 0.8 GB
    assert time.perf_counter() - t0 < 1.0
    assert r.returncode == 3, r.stderr
    assert f"exceeds the suffix trie's cap of {BODY_CAP} bytes" in r.stderr.decode()
    return r


def test_stats_trie_cap_breach(tmp_path):
    path = over_trie_cap(tmp_path)
    assert_trie_refused("stats", "--text", path, "--index", "strie")
    assert_trie_refused("search", "--algo", "strie", "--text", path, "--pattern", "ACGT")
    # the cap is not an option
    for args in (("stats", "--index", "strie"), ("search", "--algo", "strie", "--pattern", "A")):
        r = run_cli(*args, "--text", path, "--trie-cap", "10")
        assert r.returncode == 2
        assert b"unrecognized arguments: --trie-cap" in r.stderr


def test_bench_trie_cap_breach():
    assert_trie_refused("bench", "--algos", "strie", "--sizes", str(BODY_CAP + 1), "--seed", "1")


def test_bench_trie_cap_checked_before_any_build():
    # the default sizes end at 10000: refused before the smaller sizes' tries
    r = assert_trie_refused("bench", "--algos", "naive,strie", "--seed", "1")
    assert r.stdout == b""


def test_gen_deterministic(tmp_path):
    out1, out2 = tmp_path / "a.bin", tmp_path / "b.bin"
    for out in (out1, out2):
        r = run_cli("gen", "--alphabet", "dna", "--len", "1000", "--seed", "7", "--out", str(out))
        assert r.returncode == 0
    data = out1.read_bytes()
    assert data == out2.read_bytes()
    assert len(data) == 1000
    assert set(data) <= set(b"ACGT")


def test_gen_bad_freqs(tmp_path):
    r = run_cli("gen", "--alphabet", "custom", "--freqs", "A=0.5,C=0.5,G=0.25",
                "--len", "10", "--seed", "1", "--out", str(tmp_path / "x.bin"))
    assert r.returncode == 2


def test_gen_custom_single_symbol(tmp_path):
    out = tmp_path / "aaa.bin"
    r = run_cli("gen", "--alphabet", "custom", "--freqs", "A=1.0",
                "--len", "3", "--seed", "1", "--out", str(out))
    assert r.returncode == 0
    assert out.read_bytes() == b"AAA"


def test_gen_custom_requires_freqs(tmp_path):
    r = run_cli("gen", "--alphabet", "custom", "--len", "3", "--seed", "1",
                "--out", str(tmp_path / "x.bin"))
    assert r.returncode == 2


def test_bench_seed_determinism(tmp_path):
    args = ("bench", "--sizes", "100,200", "--pattern-len", "5", "--trials", "2",
            "--queries", "2", "--seed", "42")
    outputs = []
    for name in ("r1.csv", "r2.csv"):
        out = tmp_path / name
        r = run_cli(*args, "--out", str(out))
        assert r.returncode == 0
        outputs.append(out.read_text())

    def drop_time_columns(csv_text):
        rows = []
        for line in csv_text.strip().split("\n"):
            cells = line.split(",")
            del cells[5:7]  # build_ns, query_total_ns
            rows.append(",".join(cells))
        return "\n".join(rows)

    assert outputs[0] != "" and drop_time_columns(outputs[0]) == drop_time_columns(outputs[1])


def test_bench_pattern_longer_than_smallest_size(tmp_path):
    r = run_cli("bench", "--sizes", "200", "--pattern-len", "300", "--seed", "1",
                "--out", str(tmp_path / "x.csv"))
    assert r.returncode == 2


def test_bench_result_to_stdout():
    r = run_cli("bench", "--sizes", "100", "--pattern-len", "4", "--trials", "1",
                "--queries", "1", "--seed", "3")
    assert r.returncode == 0
    head = r.stdout.decode().split("\n", 1)[0]
    assert head == ("algorithm,text_len,pattern_len,trial,queries,"
                    "build_ns,query_total_ns,matches,nodes,logical_bytes")
    assert b"size 100" in r.stderr


def test_search_fasta(tmp_path):
    path = tmp_path / "seq.fa"
    path.write_bytes(b">chr1\nACGTAC\nGTACGT\n")
    r = run_cli("search", "--algo", "stree", "--text", str(path), "--fasta", "--pattern", "CGTA")
    assert r.returncode == 0
    assert r.stdout == b"1\n5\ncount: 2\n"


def test_search_malformed_fasta(tmp_path):
    path = tmp_path / "bad.fa"
    path.write_bytes(b"ACGT\n")
    r = run_cli("search", "--algo", "stree", "--text", str(path), "--fasta", "--pattern", "AC")
    assert r.returncode == 3


def test_accuracy_generated_dna():
    r = run_cli("accuracy", "--gen-dna", "2000", "--patterns", "10", "--seed", "5")
    assert r.returncode == 0
    out = r.stdout.decode()
    assert "precision: 1.0" in out
    assert "recall: 1.0" in out
    assert "patterns: 10" in out
