"""Benchmark harness: timing matrices, accuracy runs, CSV emission.

Timing uses the monotonic nanosecond clock, with index build time recorded
separately from query time so either reading of "search time" can be
reconstructed downstream. Memory is reported as deterministic logical bytes,
never process RSS: for the tree, the bytes its kernel's node arrays hold; for
the trie, node count times a measured per-node constant. Every trial
cross-checks all algorithms' match sets and aborts loudly on any
disagreement; a mismatch is a correctness failure, not a data point.

Benchmarks run strictly sequentially on one thread to keep timings honest.
"""

from __future__ import annotations

import csv
import io
import time
from dataclasses import dataclass
from functools import partial

from .baselines import bm_find_all, kmp_find_all, naive_find_all, rk_find_all
from .core import Pattern, Text, verify_occurrences
from .datagen import ASCII_PRINTABLE, DNA_UNIFORM, GenSpec, SplitMix64, generate_text, sample_patterns
from .errors import BadRange, InvalidConfig, IoFailure, ResultMismatch
from .suffix_tree import build_suffix_tree
from .suffix_trie import build_suffix_trie, check_body_cap

# the single-pattern matchers, each called as (text, pattern)
MATCHERS = {
    "naive": naive_find_all,
    "kmp": kmp_find_all,
    "rk": rk_find_all,
    "bm": bm_find_all,
}

# the index builders, each called with the text's body
INDEXES = {
    "strie": build_suffix_trie,
    "stree": build_suffix_tree,
}

ALL_ALGORITHMS = (*MATCHERS, *INDEXES)

# The default set mirrors the speed experiments: the four classical matchers
# against the suffix tree. The suffix trie is opt-in because its node count
# grows quadratically; it belongs in node-count comparisons at small sizes,
# not in timing runs at 10k characters.
DEFAULT_ALGORITHMS = ("naive", "kmp", "rk", "bm", "stree")

DEFAULT_SIZES = (200, 500, 1000, 10000)

ALPHABETS = {"dna": DNA_UNIFORM, "ascii": ASCII_PRINTABLE}

CSV_HEADER = (
    "algorithm", "text_len", "pattern_len", "trial", "queries",
    "build_ns", "query_total_ns", "matches", "nodes", "logical_bytes",
)

@dataclass(frozen=True)
class BenchConfig:
    sizes: tuple[int, ...] = DEFAULT_SIZES
    algorithms: tuple[str, ...] = DEFAULT_ALGORITHMS
    pattern_length: int = 10
    trials: int = 5
    queries_per_trial: int = 10
    seed: int = 0
    alphabet: str = "dna"

    def __post_init__(self) -> None:
        if not self.sizes or any(s < 1 for s in self.sizes):
            raise InvalidConfig("sizes must be a non-empty list of positive ints")
        if not self.algorithms:
            raise InvalidConfig("need at least one algorithm")
        for a in self.algorithms:
            if a not in ALL_ALGORITHMS:
                raise InvalidConfig(f"unknown algorithm {a!r}")
        if self.pattern_length < 1 or self.pattern_length > min(self.sizes):
            raise InvalidConfig("pattern_length must be in [1, min(sizes)]")
        if self.trials < 1:
            raise InvalidConfig("trials must be >= 1")
        if self.queries_per_trial < 1:
            raise InvalidConfig("queries_per_trial must be >= 1")
        if self.alphabet not in ALPHABETS:
            raise InvalidConfig(f"unknown alphabet {self.alphabet!r}")
        # refused before any trie is built, not after the smaller sizes' ones
        if "strie" in self.algorithms:
            check_body_cap(max(self.sizes))


@dataclass(frozen=True)
class BenchRecord:
    algorithm: str
    text_len: int
    pattern_len: int
    trial: int
    queries: int
    build_ns: int
    query_total_ns: int
    matches: int
    nodes: int
    logical_bytes: int


def _run_matcher(find_all, text: Text, pattern: Pattern, queries: int):
    # single-pattern matchers have no index: build_ns is 0 and each query
    # pays its own preprocessing
    t0 = time.perf_counter_ns()
    for _ in range(queries):
        result = find_all(text, pattern)
    query_ns = time.perf_counter_ns() - t0
    return result, 0, query_ns, 0, 0


def _run_index(build, text: Text, pattern: Pattern, queries: int):
    t0 = time.perf_counter_ns()
    index = build(text.body)
    build_ns = time.perf_counter_ns() - t0
    t0 = time.perf_counter_ns()
    for _ in range(queries):
        result = index.find_all(pattern)
    query_ns = time.perf_counter_ns() - t0
    return result, build_ns, query_ns, index.node_count, index.stats().logical_bytes


_RUNNERS = {
    **{name: partial(_run_matcher, fn) for name, fn in MATCHERS.items()},
    **{name: partial(_run_index, build) for name, build in INDEXES.items()},
}


def run_benchmark_matrix(config: BenchConfig, progress=None) -> list[BenchRecord]:
    """One record per (size, trial, algorithm).

    Texts and patterns are derived deterministically from config.seed, so the
    data columns (matches, nodes) are identical across runs; only the clock
    columns vary. ``progress`` is an optional callable fed one summary string
    per size.
    """
    rng = SplitMix64(config.seed)
    alphabet = ALPHABETS[config.alphabet]
    records = []
    for size in config.sizes:
        trials_data = []
        for trial in range(config.trials):
            text = generate_text(GenSpec(alphabet=alphabet, length=size, seed=rng.next_u64()))
            pattern = sample_patterns(
                text, 1, config.pattern_length, config.pattern_length, seed=rng.next_u64()
            )[0]
            trials_data.append((trial, text, pattern))

        # one untimed warm-up per (algorithm, size) to absorb first-run effects
        warm_text, warm_pat = trials_data[0][1], trials_data[0][2]
        for algo in config.algorithms:
            _RUNNERS[algo](warm_text, warm_pat, 1)

        for trial, text, pattern in trials_data:
            results = {}
            for algo in config.algorithms:
                result, build_ns, query_ns, nodes, logical = _RUNNERS[algo](
                    text, pattern, config.queries_per_trial
                )
                results[algo] = result
                records.append(
                    BenchRecord(
                        algorithm=algo,
                        text_len=size,
                        pattern_len=config.pattern_length,
                        trial=trial,
                        queries=config.queries_per_trial,
                        build_ns=build_ns,
                        query_total_ns=query_ns,
                        matches=len(result),
                        nodes=nodes,
                        logical_bytes=logical,
                    )
                )
            first_algo = config.algorithms[0]
            expected = results[first_algo]
            for algo, got in results.items():
                if got != expected:
                    raise ResultMismatch(
                        f"size {size} trial {trial}: {algo} found {len(got)} matches "
                        f"but {first_algo} found {len(expected)}"
                    )
        if progress is not None:
            progress(f"size {size}: {config.trials} trials x {len(config.algorithms)} algorithms done")
    return records


@dataclass(frozen=True)
class AccuracyReport:
    precision: float
    recall: float
    patterns: int
    failures: int


def run_accuracy_experiment(
    text: Text,
    pattern_count: int,
    seed: int,
    len_min: int = 5,
    len_max: int = 50,
    patterns: list[Pattern] | None = None,
) -> AccuracyReport:
    """Sample patterns from the text, search with the suffix tree, verify
    against the gold standard. Precision and recall are aggregated over all
    patterns (micro-average of agreement counts).
    """
    if patterns is None:
        if pattern_count == 0:
            return AccuracyReport(precision=1.0, recall=1.0, patterns=0, failures=0)
        if text.body_len < 100:
            raise BadRange("accuracy experiment expects a body of at least 100 bytes")
        patterns = sample_patterns(text, pattern_count, len_min, min(len_max, text.body_len), seed)
    if not patterns:
        return AccuracyReport(precision=1.0, recall=1.0, patterns=0, failures=0)
    index = build_suffix_tree(text.body)
    agree = claimed = true = failures = 0
    for pat in patterns:
        found = index.find_all(pat)
        report = verify_occurrences(text, pat, found)
        agree += report.n_agree
        claimed += report.n_claimed
        true += report.n_true
        if report.precision < 1.0 or report.recall < 1.0:
            failures += 1
    return AccuracyReport(
        precision=agree / claimed if claimed else 1.0,
        recall=agree / true if true else 1.0,
        patterns=len(patterns),
        failures=failures,
    )


def write_csv(records: list[BenchRecord], stream: io.TextIOBase) -> None:
    """Fixed header, one row per record, base-10 integers, LF line endings."""
    if not records:
        raise ValueError("no records to write")
    try:
        writer = csv.writer(stream, lineterminator="\n")
        writer.writerow(CSV_HEADER)
        for r in records:
            writer.writerow([getattr(r, name) for name in CSV_HEADER])
    except OSError as exc:
        raise IoFailure(str(exc)) from exc


def read_csv(stream: io.TextIOBase) -> list[BenchRecord]:
    """Inverse of write_csv, for round-trip checks and downstream tooling."""
    reader = csv.reader(stream)
    header = next(reader)
    if tuple(header) != CSV_HEADER:
        raise IoFailure(f"unexpected header {header!r}")
    out = []
    for row in reader:
        values = dict(zip(CSV_HEADER, row))
        out.append(
            BenchRecord(
                algorithm=values["algorithm"],
                **{name: int(values[name]) for name in CSV_HEADER[1:]},
            )
        )
    return out
