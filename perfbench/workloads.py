"""Benchmark workloads and their seeded inputs.

Every input is a function of (workload, seed) alone. Bytes come from
SHAKE-256 streams keyed by the workload name, the seed and a label, so the
inputs depend on nothing in the library under test (not even its own
generator in ``strsearch.datagen``) and repeat on any platform and Python
version. The SHA-256 of each input is recorded with every result, so runs on
two commits can prove they measured identical inputs.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

DNA = b"ACGT"
PRINTABLE = bytes(range(32, 127))

# one random byte per base: A and T 76/256 (0.297), C and G 52/256 (0.203)
_DNA_TABLE = b"A" * 76 + b"C" * 52 + b"G" * 52 + b"T" * 76
# bytes below 190 = 2 x 95 map uniformly onto the printable range
_PRINTABLE_TABLE = bytes(32 + b % 95 for b in range(256))
_PRINTABLE_REJECT = bytes(range(190, 256))

FASTA_WIDTH = 60
# the one-shot matchers and CLI processes use these patterns on every workload
SCAN_LEN = 16
SCAN_PATTERNS = 16
SCAN_ABSENT_EVERY = 4


@dataclass(frozen=True)
class Workload:
    name: str
    n: int                       # text length in bytes
    symbols: bytes               # DNA or PRINTABLE
    fasta: bool                  # the index ingests FASTA (read_fasta), else plain bytes (read_text_file)
    count_len: tuple[int, int]   # pattern length range for count()
    find_len: tuple[int, int]    # pattern length range for find_all()
    absent_every: int            # every k-th query pattern gets one substituted byte
    pool: int                    # patterns per query pool
    window: int                  # bytes the matchers and the CLI see; 0 = the whole text
    shares: tuple[float, float, float, float]  # set-up, query, scan and CLI share of the measured seconds
    setup_reps: int              # fewest set-ups in a run


# Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="dna-fasta",
            n=1_000_000, symbols=DNA, fasta=True,
            count_len=(8, 32), find_len=(5, 7), absent_every=5, pool=400,
            window=50_000, shares=(0.45, 0.3, 0.12, 0.13), setup_reps=3,
        ),
        Workload(
            name="ascii-lookup",
            n=100_000, symbols=PRINTABLE, fasta=False,
            count_len=(4, 24), find_len=(4, 24), absent_every=4, pool=1000,
            window=50_000, shares=(0.15, 0.45, 0.2, 0.2), setup_reps=5,
        ),
        Workload(
            name="oneshot",
            n=200_000, symbols=DNA, fasta=False,
            count_len=(8, 32), find_len=(5, 7), absent_every=5, pool=1000,
            window=0, shares=(0.2, 0.1, 0.35, 0.35), setup_reps=3,
        ),
    )
}


def occurrences(body: bytes, pat: bytes) -> list[int]:
    """Reference answer: every overlapping start offset, by ``bytes.find``."""
    out = []
    i = body.find(pat)
    while i != -1:
        out.append(i)
        i = body.find(pat, i + 1)
    return out


class Inputs:
    """The generated bytes of one (workload, seed) and their reference answers."""

    def __init__(self, w: Workload, seed: int):
        self.w = w
        self.seed = seed
        self.body = self._text()
        lines = [self.body[i : i + FASTA_WIDTH] for i in range(0, w.n, FASTA_WIDTH)]
        self.fasta = b">perfbench " + w.name.encode() + b"\n" + b"\n".join(lines) + b"\n"
        self.raw = self.fasta if w.fasta else self.body
        self.count_pats = self._sample("count", self.body, w.pool, w.count_len, w.absent_every)
        self.find_pats = self._sample("find", self.body, w.pool, w.find_len, w.absent_every)
        self.scan_text = self.body[: w.window] if w.window else self.body
        self.scan_pats = self._sample(
            "scan", self.scan_text, SCAN_PATTERNS, (SCAN_LEN, SCAN_LEN), SCAN_ABSENT_EVERY
        )
        # reference answers, computed here so no timed region pays for them
        self.count_gold = [len(occurrences(self.body, p)) for p in self.count_pats]
        self.find_gold = [occurrences(self.body, p) for p in self.find_pats]
        self.scan_gold = [occurrences(self.scan_text, p) for p in self.scan_pats]
        # the CLI's patterns: one present, one absent
        self.cli_pats = [self.scan_pats[0], self.scan_pats[SCAN_ABSENT_EVERY - 1]]
        self.cli_gold = [len(occurrences(self.scan_text, p)) for p in self.cli_pats]

    def _stream(self, label: str, nbytes: int) -> bytes:
        key = f"perfbench/{self.w.name}/{self.seed}/{label}".encode()
        return hashlib.shake_256(key).digest(nbytes)

    def _text(self) -> bytes:
        n = self.w.n
        if self.w.symbols == DNA:
            return self._stream("text", n).translate(_DNA_TABLE)
        out = b""
        block = 0
        while len(out) < n:
            out += self._stream(f"text{block}", n).translate(None, _PRINTABLE_REJECT)
            block += 1
        return out[:n].translate(_PRINTABLE_TABLE)

    def _sample(self, label, body, k, lengths, absent_every) -> list[bytes]:
        """k substrings of body; lengths cycle through the range so every seed
        draws the same length mix, and every absent_every-th pattern gets one
        byte replaced by another symbol."""
        raw = self._stream(label, 24 * k)
        draws = [int.from_bytes(raw[i : i + 8], "little") for i in range(0, 24 * k, 8)]
        symbols = self.w.symbols
        lo, hi = lengths
        out = []
        for i in range(k):
            length = lo + i % (hi - lo + 1)
            start = draws[3 * i] % (len(body) - length + 1)
            pat = bytearray(body[start : start + length])
            if (i + 1) % absent_every == 0:
                j = draws[3 * i + 1] % length
                old = symbols.index(pat[j])
                pat[j] = symbols[(old + 1 + draws[3 * i + 2] % (len(symbols) - 1)) % len(symbols)]
            out.append(bytes(pat))
        return out

    def sha256(self) -> dict[str, str]:
        def digest(*parts: bytes) -> str:
            h = hashlib.sha256()
            for part in parts:
                h.update(len(part).to_bytes(8, "little"))
                h.update(part)
            return h.hexdigest()

        return {
            "text": digest(self.body),
            "ingested": digest(self.raw),
            "count_patterns": digest(*self.count_pats),
            "find_patterns": digest(*self.find_pats),
            "scan_patterns": digest(*self.scan_pats),
        }
