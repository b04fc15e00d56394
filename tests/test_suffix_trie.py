import random
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from strsearch import build_suffix_trie, make_text, suffix_trie
from strsearch.errors import MissingSentinel, SentinelCollision, TrieCapExceeded

from helpers import distinct_substring_count, random_body, scan_oracle


def test_node_count_mississippi():
    assert build_suffix_trie(b"mississippi").node_count == 66


def test_node_count_small():
    assert build_suffix_trie(b"abab").node_count == 13
    assert build_suffix_trie(b"a").node_count == 4  # root, "a", "a$", "$"


@settings(max_examples=80, deadline=None)
@given(st.binary(min_size=1, max_size=60).filter(lambda b: 0 not in b))
def test_node_count_is_distinct_substrings_plus_root(body):
    index = build_suffix_trie(body)
    assert index.node_count == distinct_substring_count(body + b"\x00") + 1


def test_leaf_count_is_body_len_plus_one():
    rng = random.Random(5)
    for _ in range(25):
        body = random_body(rng, b"ab", rng.randint(1, 160))
        stats = build_suffix_trie(body).stats()
        assert stats.leaf_count == len(body) + 1
        assert stats.node_count == stats.internal_count + stats.leaf_count + 1
        assert stats.max_depth == len(body) + 1


def test_find_all_examples():
    trie = build_suffix_trie(b"banana")
    assert trie.find_all(b"ana") == [1, 3]
    assert trie.find_all(b"x") == []
    assert build_suffix_trie(b"mississippi").find_all(b"issi") == [1, 4]


@settings(max_examples=100, deadline=None)
@given(
    st.binary(min_size=1, max_size=120).filter(lambda b: 0 not in b),
    st.binary(min_size=1, max_size=6).filter(lambda b: 0 not in b),
)
def test_find_all_equals_scan(body, pat):
    assert build_suffix_trie(body).find_all(pat) == scan_oracle(body, pat)


def test_pattern_with_sentinel_rejected():
    trie = build_suffix_trie(b"abc")
    with pytest.raises(SentinelCollision):
        trie.find_all(b"a\x00")


def test_missing_sentinel():
    with pytest.raises(MissingSentinel):
        build_suffix_trie(make_text(b"abc"))


def traced(fn, *args):
    """(result or raised exception, bytes held after the call, peak bytes)"""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        try:
            result = fn(*args)
        except Exception as exc:
            result = exc
        held, peak = tracemalloc.get_traced_memory()
        return result, held - base, peak - base
    finally:
        tracemalloc.stop()


def test_body_cap(monkeypatch):
    # one byte over the real cap: refused before any node exists (a trie of
    # this body would take about 0.8 GB)
    body = random_body(random.Random(11), b"ACGT", suffix_trie.BODY_CAP + 1)
    refused, _held, peak = traced(build_suffix_trie, body)
    assert isinstance(refused, TrieCapExceeded)
    assert str(suffix_trie.BODY_CAP) in str(refused)
    assert peak < 4 * len(body)
    # the boundary itself, at a cap small enough to build
    monkeypatch.setattr(suffix_trie, "BODY_CAP", 100)
    with pytest.raises(TrieCapExceeded):
        build_suffix_trie(b"a" * 101)
    assert build_suffix_trie(b"a" * 100).node_count == 202


def test_logical_bytes_match_allocation():
    body = random_body(random.Random(5), b"ACGT", 1000)
    trie, held, _peak = traced(build_suffix_trie, body)
    logical = trie.stats().logical_bytes
    assert 0.8 * held <= logical <= 1.2 * held, (logical, held)
