"""Shared text/pattern types, match semantics, and gold-standard verification.

All matching in this library is byte-exact and case-sensitive, and every
matcher returns *all* overlapping occurrences as a strictly increasing list
of 0-based start offsets (a match set). The sentinel byte used to terminate
indexed text is NUL (0x00), which is outside printable text and outside the
DNA alphabet; it is the only one, and not configurable.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import MissingSentinel, SentinelCollision

SENTINEL = 0x00


@dataclass(frozen=True)
class Text:
    """An immutable haystack, optionally terminated by NUL (``SENTINEL``).

    ``data`` holds the raw bytes including the NUL when ``has_sentinel`` is
    set, and then no other NUL. Offsets are 0-based into the body.
    """

    data: bytes
    has_sentinel: bool = False

    def __post_init__(self) -> None:
        if self.has_sentinel:
            if not self.data or self.data[-1] != SENTINEL:
                raise ValueError("sentinel-bearing text must end with the sentinel byte")
            if self.data.find(SENTINEL, 0, -1) >= 0:
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

    Every field is an integer that calls add to: byte comparisons, alignments
    a scan visited, and rolling-hash windows whose hash equalled the
    pattern's.
    """

    comparisons: int = 0
    alignments: int = 0
    hash_hits: int = 0


@dataclass(frozen=True)
class VerificationReport:
    precision: float
    recall: float
    n_true: int = 0
    n_claimed: int = 0
    n_agree: int = 0


def _raw_bytes(value: bytes | bytearray | memoryview | str) -> bytes:
    # exact bytes come back as the same object, uncopied
    if isinstance(value, str):
        return value.encode("utf-8")
    if isinstance(value, (bytes, bytearray, memoryview)):
        return bytes(value)
    raise TypeError(f"expected str or a bytes-like object, got {type(value).__name__}")


def as_text(value: Text | bytes | str) -> Text:
    """Coerce raw bytes or str (UTF-8) into a sentinel-free Text."""
    if isinstance(value, Text):
        return value
    return Text(_raw_bytes(value))


def as_pattern(value: Pattern | bytes | str) -> Pattern:
    if isinstance(value, Pattern):
        return value
    return Pattern(_raw_bytes(value))


def make_text(raw: bytes | str, append_sentinel: bool = False) -> Text:
    """Wrap raw bytes (str as UTF-8) as a Text, optionally appending NUL.

    Raises TypeError for anything but str or a bytes-like object, and
    SentinelCollision if ``append_sentinel`` is set and ``raw`` already
    holds a NUL.
    """
    raw = _raw_bytes(raw)
    if not append_sentinel:
        return Text(raw)
    return Text(raw + b"\0", has_sentinel=True)


def index_text(text: Text | bytes | str, index: str) -> Text:
    """The NUL-terminated, non-empty Text an index is built over; raw bytes
    or str get NUL appended. ``index`` names the index in error messages."""
    if not isinstance(text, Text):
        text = make_text(text, append_sentinel=True)
    if not text.has_sentinel:
        raise MissingSentinel(f"{index} requires sentinel-terminated text")
    if text.body_len < 1:
        raise ValueError(f"{index} requires a non-empty body")
    return text


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
