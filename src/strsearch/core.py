"""Shared text/pattern types, match semantics, and gold-standard verification.

All matching in this library is byte-exact and case-sensitive, and every
matcher returns *all* overlapping occurrences as a strictly increasing list
of 0-based start offsets (a match set). The sentinel byte used to terminate
indexed text is NUL (0x00), which is outside printable text and outside the
DNA alphabet.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import SentinelCollision

SENTINEL = 0x00


@dataclass(frozen=True)
class Text:
    """An immutable haystack, optionally terminated by a unique sentinel byte.

    ``data`` holds the raw bytes including the sentinel when ``has_sentinel``
    is set. Offsets are 0-based into the body.
    """

    data: bytes
    has_sentinel: bool = False
    sentinel: int = SENTINEL

    def __post_init__(self) -> None:
        if self.has_sentinel:
            if not self.data or self.data[-1] != self.sentinel:
                raise ValueError("sentinel-bearing text must end with the sentinel byte")
            if self.sentinel in self.data[:-1]:
                raise SentinelCollision("sentinel byte occurs inside the text body")

    @property
    def body(self) -> bytes:
        """The searchable bytes, excluding any sentinel."""
        return self.data[:-1] if self.has_sentinel else self.data

    @property
    def body_len(self) -> int:
        return len(self.data) - 1 if self.has_sentinel else len(self.data)

    def __len__(self) -> int:
        return self.body_len


@dataclass(frozen=True)
class Pattern:
    """A non-empty needle. Empty patterns are rejected at construction."""

    data: bytes

    def __post_init__(self) -> None:
        if len(self.data) == 0:
            raise ValueError("empty pattern is not allowed")

    def __len__(self) -> int:
        return len(self.data)


@dataclass
class Counters:
    """Per-call instrumentation sink, filled only when passed in explicitly.

    ``window_hashes`` and ``alignment_trace`` must be preset to lists by the
    caller to collect a rolling-hash scan's per-window hashes or the exact
    alignments a shifting matcher visited.
    """

    comparisons: int = 0
    alignments: int = 0
    cursor_regressions: int = 0
    hash_hits: int = 0
    window_hashes: list[int] | None = None
    alignment_trace: list[int] | None = None


@dataclass(frozen=True)
class VerificationReport:
    precision: float
    recall: float
    n_true: int = 0
    n_claimed: int = 0
    n_agree: int = 0


def as_text(value: Text | bytes | str) -> Text:
    """Coerce raw bytes or str (UTF-8) into a sentinel-free Text."""
    if isinstance(value, Text):
        return value
    if isinstance(value, str):
        value = value.encode("utf-8")
    return Text(bytes(value))


def as_pattern(value: Pattern | bytes | str) -> Pattern:
    if isinstance(value, Pattern):
        return value
    if isinstance(value, str):
        value = value.encode("utf-8")
    return Pattern(bytes(value))


def make_text(raw: bytes | str, append_sentinel: bool = False, sentinel: int = SENTINEL) -> Text:
    """Wrap raw bytes as a Text, optionally appending the terminal sentinel.

    Raises SentinelCollision if the sentinel byte already occurs in ``raw``
    and ``append_sentinel`` is set.
    """
    if isinstance(raw, str):
        raw = raw.encode("utf-8")
    raw = bytes(raw)
    if not append_sentinel:
        return Text(raw)
    if sentinel in raw:
        raise SentinelCollision(f"input already contains sentinel byte {sentinel:#04x}")
    return Text(raw + bytes([sentinel]), has_sentinel=True, sentinel=sentinel)


def gold_standard_matches(text: Text | bytes | str, pattern: Pattern | bytes | str) -> list[int]:
    """All overlapping occurrences by direct comparison at every position.

    This is the reference answer every matcher in the library is checked
    against. It deliberately relies on ``bytes.find`` (a plain left-to-right
    byte comparison in the interpreter runtime) rather than any of the
    library's own kernels, so it stays independent of the code it verifies.
    """
    body = as_text(text).body
    needle = as_pattern(pattern).data
    out: list[int] = []
    i = body.find(needle)
    while i != -1:
        out.append(i)
        i = body.find(needle, i + 1)
    return out


def verify_occurrences(
    text: Text | bytes | str,
    pattern: Pattern | bytes | str,
    claimed: list[int],
) -> VerificationReport:
    """Score a claimed match set against the gold standard.

    precision = |claimed & true| / |claimed| (1.0 when claimed is empty),
    recall = |claimed & true| / |true| (1.0 when true is empty).
    """
    true_set = set(gold_standard_matches(text, pattern))
    claimed_set = set(claimed)
    agree = len(true_set & claimed_set)
    precision = agree / len(claimed_set) if claimed_set else 1.0
    recall = agree / len(true_set) if true_set else 1.0
    return VerificationReport(
        precision=precision,
        recall=recall,
        n_true=len(true_set),
        n_claimed=len(claimed_set),
        n_agree=agree,
    )
