"""Classical single-pattern matchers: naive, KMP, Rabin-Karp, Boyer-Moore.

All four return the same match set as the naive scan (all overlapping
occurrences, ascending). Pass a Counters object to collect per-call
instrumentation: byte comparisons, alignments visited, hash hits, and the
KMP cursor-regression count.

The naive scan doubles as the in-library reference; verification against the
runtime-independent gold standard lives in strsearch.core.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import _pykernel
from .core import SENTINEL, Counters, Pattern, Text, as_pattern, as_text
from .errors import SentinelCollision

RK_DEFAULT_BASE = 256
RK_DEFAULT_MODULUS = 1_000_000_007


@dataclass(frozen=True)
class RollingHashParams:
    """Base and modulus of the polynomial rolling hash.

    Defaults follow the usual choice (base 256 over the byte alphabet, a
    large prime modulus). Small or non-prime moduli are accepted: they only
    raise the collision rate, and every hash hit is verified by direct
    comparison anyway. The modulus must stay below 2**31 so every
    intermediate of the rolling update fits in 64-bit arithmetic.
    """

    base: int = RK_DEFAULT_BASE
    modulus: int = RK_DEFAULT_MODULUS

    def __post_init__(self) -> None:
        if self.base < 2:
            raise ValueError("base must be >= 2")
        if not (2 <= self.modulus < 2**31):
            raise ValueError("modulus must be in [2, 2**31)")


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


def rk_hash(
    data: Pattern | bytes | str,
    params: RollingHashParams = RollingHashParams(),
) -> int:
    """Polynomial hash: (sum data[i] * base^(len-1-i)) mod modulus."""
    raw = as_pattern(data).data
    return _pykernel.poly_hash(raw, params.base, params.modulus)


def rk_find_all(
    text: Text | bytes | str,
    pattern: Pattern | bytes | str,
    params: RollingHashParams = RollingHashParams(),
    counters: Counters | None = None,
) -> list[int]:
    """Rolling-hash scan with mandatory verification on every hash hit, so
    collisions cost time but never correctness."""
    body, pat = _prep(text, pattern)
    return _pykernel.rk_search(body, pat, params.base, params.modulus, counters)


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
