"""Classical single-pattern matchers: naive, KMP, Rabin-Karp, Boyer-Moore.

All four return the same match set as the naive scan (all overlapping
occurrences, ascending) and takes ``(text, pattern, counters=None)``. Pass
a Counters object to collect per-call instrumentation: byte comparisons,
alignments visited and hash hits.

The naive scan doubles as the in-library reference; verification against the
runtime-independent gold standard lives in strsearch.core.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import _pykernel
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
    body, pat = _prep(text, pattern)
    return _pykernel.naive_search(body, pat, counters)


def build_lps(pattern: Pattern | bytes | str) -> list[int]:
    """Longest-proper-prefix-that-is-also-suffix length per pattern prefix."""
    pat = as_pattern(pattern)
    return list(_pykernel.lps_table(pat.data))


def kmp_find_all(
    text: Text | bytes | str,
    pattern: Pattern | bytes | str,
    counters: Counters | None = None,
) -> list[int]:
    """Prefix-function matcher; the text cursor never moves backward."""
    body, pat = _prep(text, pattern)
    return _pykernel.kmp_search(body, pat, counters)


def rk_hash(data: Pattern | bytes | str) -> int:
    """Polynomial hash: (sum data[i] * RK_BASE^(len-1-i)) mod RK_MODULUS."""
    return _pykernel.poly_hash(as_pattern(data).data, RK_BASE, RK_MODULUS)


def rk_find_all(
    text: Text | bytes | str,
    pattern: Pattern | bytes | str,
    counters: Counters | None = None,
) -> list[int]:
    """Rolling-hash scan with mandatory verification on every hash hit, so
    collisions cost time but never correctness."""
    body, pat = _prep(text, pattern)
    return _pykernel.rk_search(body, pat, RK_BASE, RK_MODULUS, counters)


def bm_build_tables(pattern: Pattern | bytes | str) -> BmTables:
    pat = as_pattern(pattern).data
    return BmTables(
        bad_char=tuple(_pykernel.bm_bad_char(pat)),
        good_suffix=tuple(_pykernel.bm_good_suffix(pat)),
    )


def bm_find_all(
    text: Text | bytes | str,
    pattern: Pattern | bytes | str,
    counters: Counters | None = None,
) -> list[int]:
    """Right-to-left scan shifting by max(bad character, strong good suffix, 1)."""
    body, pat = _prep(text, pattern)
    return _pykernel.bm_search(body, pat, counters)
