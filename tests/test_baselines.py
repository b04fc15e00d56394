import random
from unittest import mock

from hypothesis import given, settings, strategies as st

from strsearch import (
    Counters,
    baselines,
    bm_build_tables,
    bm_find_all,
    build_lps,
    kmp_find_all,
    naive_find_all,
    rk_find_all,
    rk_hash,
)

from helpers import ALPHABETS, all_borders, random_body, scan_oracle

MATCHERS = {
    "naive": naive_find_all,
    "kmp": kmp_find_all,
    "rk": rk_find_all,
    "bm": bm_find_all,
}


# --- naive ------------------------------------------------------------------

def test_naive_overlaps(kernel):
    assert naive_find_all("aaaa", "aa") == [0, 1, 2]


def test_naive_examples(kernel):
    assert naive_find_all("mississippi", "issi") == [1, 4]
    assert naive_find_all("abc", "abcd") == []


# --- LPS / KMP ---------------------------------------------------------------

def test_lps_examples(kernel):
    assert build_lps("ABCDE") == [0, 0, 0, 0, 0]
    assert build_lps("AAAA") == [0, 1, 2, 3]
    assert build_lps("AABAACAABAA") == [0, 1, 0, 1, 2, 0, 1, 2, 3, 4, 5]


@given(st.binary(min_size=1, max_size=12))
def test_lps_definition_and_monotonicity(pat):
    lps = build_lps(pat)
    assert lps[0] == 0
    for i in range(len(pat)):
        # definition check against brute force over all prefix/suffix pairs
        prefix = pat[: i + 1]
        want = max(k for k in range(i + 1) if prefix[:k] == prefix[i + 1 - k : i + 1])
        assert lps[i] == want
        if i >= 1:
            assert lps[i] <= lps[i - 1] + 1


@given(st.binary(min_size=1, max_size=12))
def test_lps_chase_enumerates_borders(pat):
    lps = build_lps(pat)
    chased = []
    k = lps[-1]
    while k > 0:
        chased.append(k)
        k = lps[k - 1]
    chased.append(0)
    assert chased == all_borders(pat)


def test_kmp_examples(kernel):
    assert kmp_find_all("aabaacaadaabaaba", "aaba") == [0, 9, 12]
    assert kmp_find_all("aaaa", "aa") == [0, 1, 2]
    assert kmp_find_all("", "a") == []


@given(st.binary(min_size=0, max_size=300), st.binary(min_size=1, max_size=8))
def test_kmp_comparison_bound_and_forward_cursor(body, pat):
    c = Counters()
    kmp_find_all(body, pat, counters=c)
    # the text cursor is the loop index of one forward pass, so it cannot
    # move backward; the comparison bound is what that pass guarantees
    assert c.comparisons <= 2 * len(body)


# --- Rabin-Karp ---------------------------------------------------------------

def test_rk_hash_examples(kernel, monkeypatch):
    monkeypatch.setattr(baselines, "RK_MODULUS", 101)
    assert rk_hash("a") == 97
    assert rk_hash("ab") == 84
    assert rk_hash("bc") == 38


def test_rk_examples(kernel):
    assert rk_find_all("abab", "ab") == [0, 2]
    assert rk_find_all("mississippi", "ssi") == [2, 5]


@given(st.binary(min_size=0, max_size=200), st.binary(min_size=1, max_size=6))
def test_rk_modulus_two_still_exact(body, pat):
    # maximal collisions: verification must keep the result exact
    with mock.patch.object(baselines, "RK_MODULUS", 2):
        assert rk_find_all(body, pat) == scan_oracle(body, pat)


@given(st.binary(min_size=1, max_size=120), st.binary(min_size=1, max_size=6))
def test_rk_rolling_matches_scratch_hash(body, pat):
    # a small modulus makes false hits common: the rolling hash must flag
    # exactly the windows whose hash from scratch equals the pattern's
    with mock.patch.object(baselines, "RK_MODULUS", 7):
        c = Counters()
        rk_find_all(body, pat, counters=c)
        m = len(pat)
        target = rk_hash(pat)
        want = sum(rk_hash(body[i : i + m]) == target for i in range(len(body) - m + 1))
    assert c.hash_hits == want


# --- Boyer-Moore ----------------------------------------------------------------

def test_bm_bad_char_example(kernel):
    tables = bm_build_tables("ABCB")
    expect = {ord("A"): 0, ord("B"): 3, ord("C"): 2}
    for byte in range(256):
        assert tables.bad_char[byte] == expect.get(byte, -1)


def test_bm_good_suffix_length_one(kernel):
    for pat in (b"x", b"A", b"\xff"):
        tables = bm_build_tables(pat)
        assert tables.good_suffix == (1, 1)


def test_bm_good_suffix_abcd(kernel):
    # matched suffix "D" reoccurs nowhere: shift past the whole pattern
    tables = bm_build_tables("ABCD")
    assert tables.good_suffix[1] == 4


@given(st.binary(min_size=1, max_size=16))
def test_bm_shifts_in_range(pat):
    tables = bm_build_tables(pat)
    m = len(pat)
    assert len(tables.good_suffix) == m + 1
    assert all(1 <= s <= m for s in tables.good_suffix)
    assert tables.bad_char[pat[-1]] == m - 1


def test_bm_examples(kernel):
    assert bm_find_all("HERE IS A SIMPLE EXAMPLE", "EXAMPLE") == [17]
    assert bm_find_all("aaaa", "aa") == [0, 1, 2]
    assert bm_find_all("abcabcabc", "cab") == [2, 5]


@given(st.binary(min_size=0, max_size=250), st.binary(min_size=1, max_size=8))
def test_bm_never_skips_occurrences(body, pat):
    # bm_search reports only alignments it visited and compared in full, so
    # an equal match set means no occurrence was shifted over
    c = Counters()
    got = bm_find_all(body, pat, counters=c)
    want = scan_oracle(body, pat)
    assert got == want
    assert len(want) <= c.alignments <= max(0, len(body) - len(pat) + 1)


# --- equivalence across all matchers ----------------------------------------------

@settings(max_examples=150, deadline=None)
@given(st.data())
def test_matchers_agree_with_oracle(data):
    alphabet = data.draw(st.sampled_from(sorted(ALPHABETS)))
    symbols = ALPHABETS[alphabet]
    body = bytes(data.draw(st.lists(st.sampled_from(symbols), min_size=0, max_size=120)))
    if data.draw(st.booleans()) and body:
        m = data.draw(st.integers(1, min(8, len(body))))
        start = data.draw(st.integers(0, len(body) - m))
        pat = body[start : start + m]
    else:
        pat = bytes(data.draw(st.lists(st.sampled_from(symbols), min_size=1, max_size=8)))
    want = scan_oracle(body, pat)
    for name, fn in MATCHERS.items():
        assert fn(body, pat) == want, name


def test_matchers_agree_randomized(kernel):
    rng = random.Random(20240817)
    for _ in range(120):
        symbols = ALPHABETS[rng.choice(sorted(ALPHABETS))]
        body = random_body(rng, symbols, rng.randint(0, 400))
        m = rng.randint(1, 12)
        if body and rng.random() < 0.6 and m <= len(body):
            i = rng.randrange(len(body) - m + 1)
            pat = body[i : i + m]
        else:
            pat = random_body(rng, symbols, m)
        want = scan_oracle(body, pat)
        for name, fn in MATCHERS.items():
            assert fn(body, pat) == want, name


# --- exact counts -------------------------------------------------------------------

# Exact (comparisons, alignments, hash_hits) per matcher, recorded from the
# scans as they stood before they moved into strsearch.baselines. Bounds
# alone would let a changed loop through; these pin every add.
PIN_DNA = random_body(random.Random(14), b"ACGT", 3000)
PINNED_COUNTS = [
    (b"mississippi", b"issi", [1, 4], {
        "naive": (15, 8, 0), "kmp": (12, 0, 0), "rk": (8, 0, 2), "bm": (11, 4, 0)}),
    (b"ab" * 500, b"abab", list(range(0, 997, 2)), {
        "naive": (2494, 997, 0), "kmp": (1000, 0, 0), "rk": (1996, 0, 499), "bm": (1996, 499, 0)}),
    (b"a" * 10, b"aaa", list(range(8)), {
        "naive": (24, 8, 0), "kmp": (10, 0, 0), "rk": (24, 0, 8), "bm": (24, 8, 0)}),
    (PIN_DNA, PIN_DNA[1200:1206], [730, 1128, 1200], {
        "naive": (4004, 2995, 0), "kmp": (3742, 0, 0), "rk": (18, 0, 3), "bm": (1235, 863, 0)}),
    (PIN_DNA, b"GATTACA", [2671], {
        "naive": (4011, 2994, 0), "kmp": (3747, 0, 0), "rk": (7, 0, 1), "bm": (1117, 812, 0)}),
]


def test_matchers_pinned_counts(kernel):
    assert PIN_DNA[1200:1206] == b"GACGAG"
    for body, pat, matches, counts in PINNED_COUNTS:
        for name, fn in MATCHERS.items():
            c = Counters()
            assert fn(body, pat, counters=c) == matches, (pat, name)
            assert (c.comparisons, c.alignments, c.hash_hits) == counts[name], (pat, name)


def test_rk_pinned_counts_under_collisions(kernel, monkeypatch):
    # modulus 7 makes most hash hits false; each costs its verification
    monkeypatch.setattr(baselines, "RK_MODULUS", 7)
    for body, pat, matches, counts in ((b"mississippi", b"issi", [1, 4], (9, 0, 3)),
                                       (PIN_DNA, b"GATTACA", [2671], (586, 0, 416))):
        c = Counters()
        assert rk_find_all(body, pat, counters=c) == matches
        assert (c.comparisons, c.alignments, c.hash_hits) == counts
