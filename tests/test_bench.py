import io

import pytest

from strsearch import BenchConfig, run_accuracy_experiment, run_benchmark_matrix, write_csv
from strsearch import bench as bench_mod
from strsearch.bench import CSV_HEADER, read_csv
from strsearch.core import Pattern
from strsearch.datagen import DNA_UNIFORM, GenSpec, generate_text
from strsearch.errors import InvalidConfig, ResultMismatch, TrieCapExceeded
from strsearch.suffix_trie import BODY_CAP, TRIE_NODE_BYTES


def small_config(**kw):
    defaults = dict(sizes=(200,), algorithms=("naive", "kmp", "rk", "bm", "strie", "stree"),
                    pattern_length=5, trials=1, queries_per_trial=2, seed=7)
    defaults.update(kw)
    return BenchConfig(**defaults)


def test_config_validation():
    with pytest.raises(InvalidConfig):
        BenchConfig(sizes=())
    with pytest.raises(InvalidConfig):
        BenchConfig(sizes=(200,), pattern_length=300)
    with pytest.raises(InvalidConfig):
        BenchConfig(algorithms=("naive", "grep"))
    with pytest.raises(InvalidConfig):
        BenchConfig(trials=0)
    with pytest.raises(InvalidConfig):
        BenchConfig(queries_per_trial=0)
    with pytest.raises(InvalidConfig):
        BenchConfig(alphabet="klingon")
    with pytest.raises(TrieCapExceeded):
        BenchConfig(sizes=(200, BODY_CAP + 1), algorithms=("naive", "strie"))
    BenchConfig(sizes=(200, BODY_CAP + 1), algorithms=("naive", "stree"))


def test_matrix_one_size_all_algorithms():
    records = run_benchmark_matrix(small_config())
    assert len(records) == 6
    matches = {r.matches for r in records}
    assert len(matches) == 1
    for r in records:
        assert r.text_len == 200 and r.pattern_len == 5 and r.queries == 2
        assert r.build_ns >= 0 and r.query_total_ns >= 0
        if r.algorithm in ("strie", "stree"):
            assert r.nodes > 0 and r.logical_bytes > 0
        else:
            assert r.nodes == 0 and r.logical_bytes == 0


def test_matrix_trie_bytes_are_nodes_times_node_bytes():
    records = run_benchmark_matrix(small_config(sizes=(150, 300), trials=2, algorithms=("naive", "strie")))
    tries = [r for r in records if r.algorithm == "strie"]
    assert len(tries) == 4
    for r in tries:
        assert r.logical_bytes == r.nodes * TRIE_NODE_BYTES


def test_matrix_data_columns_deterministic():
    config = small_config(sizes=(150, 300), trials=2, pattern_length=4)
    a = run_benchmark_matrix(config)
    b = run_benchmark_matrix(config)
    key = lambda recs: [(r.algorithm, r.text_len, r.trial, r.matches, r.nodes, r.logical_bytes) for r in recs]
    assert key(a) == key(b)


def test_matrix_detects_wrong_algorithm(monkeypatch):
    def broken(text, pattern, queries):
        return [0, 1, 2], 0, 0, 0, 0

    monkeypatch.setitem(bench_mod._RUNNERS, "kmp", broken)
    with pytest.raises(ResultMismatch):
        run_benchmark_matrix(small_config())


def test_csv_format_and_round_trip():
    records = run_benchmark_matrix(small_config())
    buf = io.StringIO()
    write_csv(records, buf)
    text = buf.getvalue()
    lines = text.split("\n")
    assert lines[0] == ",".join(CSV_HEADER)
    assert len(lines) == len(records) + 2  # header + rows + trailing LF
    assert lines[-1] == ""
    assert "\r" not in text
    assert read_csv(io.StringIO(text)) == records


def test_csv_refuses_empty():
    with pytest.raises(ValueError):
        write_csv([], io.StringIO())


def test_repeated_tree_queries_amortize_below_naive():
    config = BenchConfig(sizes=(10_000,), algorithms=("naive", "stree"),
                         pattern_length=10, trials=1, queries_per_trial=200, seed=11)
    records = {r.algorithm: r for r in run_benchmark_matrix(config)}
    per_query = {a: r.query_total_ns / r.queries for a, r in records.items()}
    assert per_query["stree"] < per_query["naive"]


def test_accuracy_experiment():
    text = generate_text(GenSpec(alphabet=DNA_UNIFORM, length=2000, seed=3))
    report = run_accuracy_experiment(text, pattern_count=20, seed=9, len_min=3, len_max=15)
    assert report.patterns == 20
    assert report.precision == 1.0 and report.recall == 1.0
    assert report.failures == 0


def test_accuracy_vacuous():
    text = generate_text(GenSpec(alphabet=DNA_UNIFORM, length=200, seed=3))
    report = run_accuracy_experiment(text, pattern_count=0, seed=0)
    assert (report.precision, report.recall, report.patterns) == (1.0, 1.0, 0)


def test_accuracy_adversarial_runs_of_a():
    from strsearch import make_text

    text = make_text(b"a" * 10_000)
    patterns = [Pattern(b"a" * k) for k in (1, 2, 3, 10, 100, 9999, 10_000)]
    report = run_accuracy_experiment(text, pattern_count=0, seed=0, patterns=patterns)
    assert report.precision == 1.0 and report.recall == 1.0
    assert report.patterns == len(patterns)
