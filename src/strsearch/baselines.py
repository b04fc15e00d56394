"""Classical single-pattern matchers: naive, KMP, Rabin-Karp, Boyer-Moore.

All four return the same match set as the naive scan (all overlapping
occurrences, ascending) and take ``(text, pattern, counters=None)``. Pass
a Counters object to collect per-call instrumentation: byte comparisons,
alignments visited and hash hits.

The naive scan doubles as the in-library reference; verification against the
runtime-independent gold standard lives in strsearch.core.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import SENTINEL, Counters, Pattern, Text, as_pattern, as_text
from .errors import SentinelCollision

# The rolling hash is base 256 over bytes, modulo a prime below 2**31 so every
# intermediate of the rolling update fits in 64-bit arithmetic. Each hash hit
# is verified by direct comparison, so the modulus sets only the collision
# rate, never the answer (Karp and Rabin, 1987).
RK_BASE = 256
RK_MODULUS = 1_000_000_007


@dataclass(frozen=True)
class BmTables:
    """Boyer-Moore shift tables.

    ``bad_char[b]`` is the rightmost index of byte b in the pattern (-1 if
    absent). ``good_suffix[k]`` is the shift to apply when a suffix of
    length k has matched, k = 0..m; entry m is the full-match shift.
    """

    bad_char: tuple[int, ...]
    good_suffix: tuple[int, ...]


def _prep(text: Text | bytes | str, pattern: Pattern | bytes | str) -> tuple[bytes, bytes]:
    t = as_text(text)
    p = as_pattern(pattern)
    if t.has_sentinel and SENTINEL in p.data:
        raise SentinelCollision("pattern contains the text's sentinel byte")
    return t.body, p.data


def naive_find_all(
    text: Text | bytes | str,
    pattern: Pattern | bytes | str,
    counters: Counters | None = None,
) -> list[int]:
    """Direct comparison at every alignment; the in-library reference."""
    text, pat = _prep(text, pattern)
    n = len(text)
    m = len(pat)
    out = []
    comps = 0
    aligns = 0
    for i in range(n - m + 1):
        aligns += 1
        j = 0
        while j < m:
            comps += 1
            if text[i + j] != pat[j]:
                break
            j += 1
        if j == m:
            out.append(i)
    if counters is not None:
        counters.comparisons += comps
        counters.alignments += aligns
    return out


def build_lps(pattern: Pattern | bytes | str) -> list[int]:
    """lps[i] = length of the longest proper prefix of pattern[:i+1] that is
    also a suffix of it."""
    pat = as_pattern(pattern).data
    m = len(pat)
    lps = [0] * m
    length = 0
    i = 1
    while i < m:
        if pat[i] == pat[length]:
            length += 1
            lps[i] = length
            i += 1
        elif length != 0:
            length = lps[length - 1]
        else:
            lps[i] = 0
            i += 1
    return lps


def kmp_find_all(
    text: Text | bytes | str,
    pattern: Pattern | bytes | str,
    counters: Counters | None = None,
) -> list[int]:
    """Prefix-function matcher; the text cursor never moves backward."""
    text, pat = _prep(text, pattern)
    n = len(text)
    m = len(pat)
    out = []
    if n < m:
        return out
    lps = build_lps(pat)
    comps = 0
    j = 0
    for i in range(n):
        c = text[i]
        while True:
            comps += 1
            if c == pat[j]:
                j += 1
                break
            if j == 0:
                break
            j = lps[j - 1]
        if j == m:
            out.append(i - m + 1)
            j = lps[j - 1]
    if counters is not None:
        counters.comparisons += comps
    return out


def rk_hash(data: Pattern | bytes | str) -> int:
    """Polynomial hash: (sum data[i] * RK_BASE^(len-1-i)) mod RK_MODULUS."""
    base = RK_BASE
    mod = RK_MODULUS
    h = 0
    for c in as_pattern(data).data:
        h = (h * base + c) % mod
    return h


def rk_find_all(
    text: Text | bytes | str,
    pattern: Pattern | bytes | str,
    counters: Counters | None = None,
) -> list[int]:
    """Rolling-hash scan with mandatory verification on every hash hit, so
    collisions cost time but never correctness."""
    text, pat = _prep(text, pattern)
    base = RK_BASE
    mod = RK_MODULUS
    n = len(text)
    m = len(pat)
    out = []
    if n < m:
        return out
    target = rk_hash(pat)
    lead = pow(base, m - 1, mod)
    h = rk_hash(text[:m])
    hits = 0
    comps = 0
    i = 0
    while True:
        if h == target:
            hits += 1
            j = 0
            while j < m:
                comps += 1
                if text[i + j] != pat[j]:
                    break
                j += 1
            if j == m:
                out.append(i)
        if i == n - m:
            break
        h = ((h - text[i] * lead) * base + text[i + m]) % mod
        i += 1
    if counters is not None:
        counters.hash_hits += hits
        counters.comparisons += comps
    return out


def _bm_suffixes(pat: bytes) -> list[int]:
    # suff[i] = length of the longest common suffix of pat and pat[:i+1]
    m = len(pat)
    suff = [0] * m
    suff[m - 1] = m
    g = m - 1
    f = m - 1
    for i in range(m - 2, -1, -1):
        if i > g and suff[i + m - 1 - f] < i - g:
            suff[i] = suff[i + m - 1 - f]
        else:
            if i < g:
                g = i
            f = i
            while g >= 0 and pat[g] == pat[g + m - 1 - f]:
                g -= 1
            suff[i] = f - g
    return suff


def bm_build_tables(pattern: Pattern | bytes | str) -> BmTables:
    """The bad-character table and the strong good-suffix shifts.

    A shorter reoccurrence of a matched suffix counts only when preceded by
    a different byte; otherwise the shift falls back to the longest border
    of the pattern. good_suffix[m] is the full-match shift (the pattern
    period).
    """
    pat = as_pattern(pattern).data
    m = len(pat)
    bad = [-1] * 256
    for i, c in enumerate(pat):
        bad[c] = i
    suff = _bm_suffixes(pat)
    by_pos = [m] * m  # shift when mismatch occurs at pattern index j
    j = 0
    for i in range(m - 1, -1, -1):
        if suff[i] == i + 1:  # pat[:i+1] is a border of the pattern
            while j < m - 1 - i:
                if by_pos[j] == m:
                    by_pos[j] = m - 1 - i
                j += 1
    for i in range(m - 1):
        by_pos[m - 1 - suff[i]] = m - 1 - i
    gs = [0] * (m + 1)
    for k in range(m):  # matched suffix length k corresponds to mismatch at m-1-k
        gs[k] = by_pos[m - 1 - k]
    border = build_lps(pat)[m - 1]
    gs[m] = m - border
    return BmTables(bad_char=tuple(bad), good_suffix=tuple(gs))


def bm_find_all(
    text: Text | bytes | str,
    pattern: Pattern | bytes | str,
    counters: Counters | None = None,
) -> list[int]:
    """Right-to-left scan shifting by max(bad character, strong good suffix, 1)."""
    text, pat = _prep(text, pattern)
    n = len(text)
    m = len(pat)
    out = []
    if n < m:
        return out
    tables = bm_build_tables(pat)
    bad = tables.bad_char
    gs = tables.good_suffix
    comps = 0
    aligns = 0
    s = 0
    while s <= n - m:
        aligns += 1
        j = m - 1
        while j >= 0:
            comps += 1
            if text[s + j] != pat[j]:
                break
            j -= 1
        if j < 0:
            out.append(s)
            s += gs[m]
        else:
            shift = gs[m - 1 - j]
            bc = j - bad[text[s + j]]
            if bc > shift:
                shift = bc
            if shift < 1:
                shift = 1
            s += shift
    if counters is not None:
        counters.comparisons += comps
        counters.alignments += aligns
    return out
