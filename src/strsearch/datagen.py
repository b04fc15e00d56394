"""Dataset provisioning: seeded generation, FASTA and plain-text ingestion.

Reproducibility contract
------------------------
All randomness flows through SplitMix64, pinned here by its standard
constants so identical (seed, spec) inputs give identical bytes on every
platform and in every implementation language:

    state += 0x9E3779B97F4A7C15            (mod 2**64)
    z = state
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB
    output = z ^ (z >> 31)

Symbols are drawn by cumulative-weight inversion: a unit-interval draw
u = (output >> 11) * 2**-53 is matched against the running IEEE-double sum
of the weights, left to right, picking the first index with u < cumulative.
Bounded integers use unbiased rejection on the 64-bit output.
"""

from __future__ import annotations

import bisect
import io
from dataclasses import dataclass

from .core import SENTINEL, Pattern, Text, _raw_bytes
from .errors import BadRange, IllegalBase, InvalidWeights, MalformedFasta

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


class SplitMix64:
    """The 64-bit mixer behind every deterministic draw in this package."""

    __slots__ = ("state",)

    def __init__(self, seed: int):
        self.state = seed & _MASK64

    def next_u64(self) -> int:
        self.state = (self.state + _GAMMA) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return (z ^ (z >> 31)) & _MASK64

    def unit(self) -> float:
        # top 53 bits, exact in an IEEE double, always < 1.0
        return (self.next_u64() >> 11) * 2.0**-53

    def below(self, bound: int) -> int:
        """Unbiased integer in [0, bound) via rejection of the partial block."""
        if bound <= 0:
            raise ValueError("bound must be positive")
        limit = ((1 << 64) // bound) * bound
        while True:
            x = self.next_u64()
            if x < limit:
                return x % bound


@dataclass(frozen=True)
class AlphabetSpec:
    """Symbols with sampling weights. Weights must sum to 1 within 1e-9."""

    symbols: bytes
    weights: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.symbols) != len(self.weights) or not self.symbols:
            raise InvalidWeights("need one weight per symbol, at least one symbol")
        if len(set(self.symbols)) != len(self.symbols):
            raise InvalidWeights("symbols must be distinct")
        if SENTINEL in self.symbols:
            raise InvalidWeights("alphabet may not contain the sentinel byte")
        if any(w < 0 for w in self.weights):
            raise InvalidWeights("weights must be non-negative")
        if abs(sum(self.weights) - 1.0) > 1e-9:
            raise InvalidWeights(f"weights sum to {sum(self.weights)!r}, expected 1")


def uniform_alphabet(symbols: bytes) -> AlphabetSpec:
    k = len(symbols)
    return AlphabetSpec(symbols=symbols, weights=(1.0 / k,) * k)


DNA_UNIFORM = uniform_alphabet(b"ACGT")
ASCII_PRINTABLE = uniform_alphabet(bytes(range(32, 127)))


@dataclass(frozen=True)
class GenSpec:
    alphabet: AlphabetSpec
    length: int
    seed: int

    def __post_init__(self) -> None:
        if self.length < 1:
            raise ValueError("length must be >= 1")


def generate_text(spec: GenSpec) -> Text:
    """Deterministic random text over the alphabet; no sentinel appended."""
    cum = []
    acc = 0.0
    for w in spec.alphabet.weights:
        acc += w
        cum.append(acc)
    symbols = spec.alphabet.symbols
    last = len(symbols) - 1
    rng = SplitMix64(spec.seed)
    out = bytearray(spec.length)
    for i in range(spec.length):
        # the first index with u < cumulative, or the last if rounding leaves u above all
        out[i] = symbols[min(bisect.bisect_right(cum, rng.unit()), last)]
    return Text(bytes(out))


_FASTA_ALLOWED = b"ACGTN"
_NOT_SENTINEL = bytes(b for b in range(256) if b != SENTINEL)


def _source_bytes(source: bytes | bytearray | memoryview | str | io.IOBase) -> bytes:
    """The bytes of a bytes-like or str source, or of what its read() returns."""
    return _raw_bytes(source.read() if hasattr(source, "read") else source)


def read_fasta(source: bytes | bytearray | memoryview | str | io.IOBase, permissive: bool = False) -> Text:
    """Concatenate the sequence lines of all records, uppercased.

    Strict mode accepts only A, C, G, T, N after uppercasing; permissive
    mode accepts anything except the sentinel byte.
    """
    allowed = _NOT_SENTINEL if permissive else _FASTA_ALLOWED
    body = bytearray()
    saw_header = False
    for line in _source_bytes(source).splitlines():
        line = line.strip()
        if not line:
            continue
        if line.startswith(b">"):
            saw_header = True
            continue
        if not saw_header:
            raise MalformedFasta("sequence data before any '>' header")
        seq = b"".join(line.split()).upper()
        if seq.translate(None, allowed):
            # something is left over: name the first byte at fault
            for c in seq:
                if c == SENTINEL:
                    raise IllegalBase("NUL byte in sequence data")
                if c not in allowed:
                    raise IllegalBase(f"unexpected base {chr(c)!r} (use permissive mode to keep it)")
        body.extend(seq)
    if not saw_header:
        raise MalformedFasta("no '>' header found")
    return Text(bytes(body))


def read_text_file(source: bytes | bytearray | memoryview | str | io.IOBase) -> tuple[Text, int]:
    """Pass bytes through unchanged except for removal of sentinel bytes.

    Returns (text, removed_count).
    """
    data = _source_bytes(source)
    removed = data.count(SENTINEL)
    if removed:
        data = data.replace(bytes([SENTINEL]), b"")
    return Text(data), removed


def sample_patterns(
    text: Text,
    count: int,
    len_min: int,
    len_max: int,
    seed: int,
) -> list[Pattern]:
    """Seeded substrings of the body, so each pattern occurs at least once.

    Lengths are uniform in [len_min, len_max], start positions uniform over
    the valid range for the drawn length.
    """
    n = text.body_len
    if count < 0:
        raise BadRange("count must be >= 0")
    if len_min < 1 or len_max < len_min or len_max > n:
        raise BadRange(f"bad length range [{len_min}, {len_max}] for body of {n}")
    body = text.body
    rng = SplitMix64(seed)
    out = []
    for _ in range(count):
        length = len_min + rng.below(len_max - len_min + 1)
        start = rng.below(n - length + 1)
        out.append(Pattern(body[start : start + length]))
    return out
