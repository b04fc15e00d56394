import pytest
from hypothesis import given, strategies as st

import strsearch
from strsearch import (
    bm_find_all,
    build_suffix_tree,
    build_suffix_trie,
    make_text,
    naive_find_all,
    verify_occurrences,
)
from strsearch.core import Pattern, Text, gold_standard_matches
from strsearch.errors import SentinelCollision

from helpers import scan_oracle


def test_make_text_plain():
    t = make_text("abc")
    assert len(t) == 3
    assert not t.has_sentinel
    assert t.body == b"abc"


def test_make_text_with_sentinel():
    t = make_text("abc", append_sentinel=True)
    assert len(t.data) == 4
    assert t.data[-1] == 0
    assert t.has_sentinel
    assert t.body == b"abc"
    assert t.body_len == 3


def test_bytes_like_inputs_accepted_and_bytes_not_copied():
    raw = b"ACGTACGT"
    assert make_text(raw).data is raw
    for text in (bytearray(raw), memoryview(raw), raw.decode()):
        assert naive_find_all(text, memoryview(b"GTA")) == [2]
        assert make_text(text, append_sentinel=True).data == raw + b"\0"


@pytest.mark.parametrize("value", [3, 0, [65, 66], (65,), None, 2.0])
def test_non_bytes_inputs_raise_type_error(value):
    # bytes(3) would be three NULs and bytes([65, 66]) b"AB": both must fail
    index = build_suffix_tree(b"axxxb")
    calls = [
        lambda: naive_find_all(b"a\0\0\0b", value),
        lambda: bm_find_all(value, b"A"),
        lambda: index.count(value),
        lambda: index.find_all(value),
        lambda: build_suffix_tree(value),
        lambda: build_suffix_trie(value),
        lambda: make_text(value),
    ]
    for call in calls:
        with pytest.raises(TypeError):
            call()


def test_star_import_resolves_every_public_name():
    namespace = {}
    exec("from strsearch import *", namespace)
    for name in strsearch.__all__:
        assert name in namespace, name
        assert namespace[name] is getattr(strsearch, name)


def test_make_text_sentinel_collision():
    with pytest.raises(SentinelCollision):
        make_text(b"a\x00b", append_sentinel=True)


def test_text_invariant_enforced():
    with pytest.raises(ValueError):
        Text(b"abc", has_sentinel=True)  # does not end with sentinel
    with pytest.raises(SentinelCollision):
        Text(b"a\x00b\x00", has_sentinel=True)  # sentinel also inside body


def test_empty_pattern_rejected():
    with pytest.raises(ValueError):
        Pattern(b"")


def test_verify_examples():
    r = verify_occurrences(b"abab", b"ab", [0, 2])
    assert (r.precision, r.recall) == (1.0, 1.0)
    r = verify_occurrences(b"abab", b"ab", [0])
    assert (r.precision, r.recall) == (1.0, 0.5)
    r = verify_occurrences(b"abab", b"zz", [])
    assert (r.precision, r.recall) == (1.0, 1.0)


def test_verify_counts_false_positives():
    r = verify_occurrences(b"abab", b"ab", [0, 1, 2])
    assert r.precision == pytest.approx(2 / 3)
    assert r.recall == 1.0
    assert r.n_true == 2 and r.n_claimed == 3 and r.n_agree == 2


@given(st.binary(min_size=0, max_size=80), st.binary(min_size=1, max_size=6))
def test_gold_standard_matches_direct_scan(body, pat):
    assert gold_standard_matches(body, pat) == scan_oracle(body, pat)


@given(st.binary(min_size=0, max_size=120), st.binary(min_size=1, max_size=5))
def test_naive_is_gold_standard(body, pat):
    r = verify_occurrences(body, pat, naive_find_all(body, pat))
    assert (r.precision, r.recall) == (1.0, 1.0)
