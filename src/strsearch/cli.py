"""Command-line interface.

Exit codes: 0 success, 1 no match (search only), 2 usage error, 3 data error.
All randomness flows from an explicit --seed, so identical invocations
produce identical data output (clock columns exempt).
"""

from __future__ import annotations

import argparse
import sys

from .bench import (
    ALL_ALGORITHMS,
    ALPHABETS,
    DEFAULT_ALGORITHMS,
    DEFAULT_SIZES,
    INDEXES,
    MATCHERS,
    BenchConfig,
    run_accuracy_experiment,
    run_benchmark_matrix,
    write_csv,
)
from .core import SENTINEL, Pattern, Text
from .datagen import (
    DNA_UNIFORM,
    AlphabetSpec,
    GenSpec,
    generate_text,
    read_fasta,
    read_text_file,
)
from .errors import (
    BadRange,
    InvalidConfig,
    InvalidWeights,
    StrSearchError,
)

USAGE_ERROR = 2
DATA_ERROR = 3


class UsageError(Exception):
    pass


def _add_text_source(parser: argparse.ArgumentParser) -> argparse._MutuallyExclusiveGroup:
    """The text options; the returned group takes further text sources."""
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--text", metavar="FILE", help="read the text from FILE")
    group.add_argument("--stdin", action="store_true", help="read the text from standard input")
    parser.add_argument("--fasta", action="store_true", help="parse the input as FASTA")
    parser.add_argument(
        "--permissive-fasta", action="store_true",
        help="with --fasta, keep bases outside A/C/G/T/N",
    )
    parser.add_argument(
        "--lowercase", action="store_true",
        help="case-fold the ingested text to lowercase before indexing",
    )
    return group


def _ingest_text(args: argparse.Namespace) -> Text:
    if args.stdin:
        raw = sys.stdin.buffer.read()
    else:
        with open(args.text, "rb") as fh:
            raw = fh.read()
    if args.fasta:
        text = read_fasta(raw, permissive=args.permissive_fasta)
    else:
        text, removed = read_text_file(raw)
        if removed:
            print(f"note: removed {removed} NUL byte(s) from input", file=sys.stderr)
    if args.lowercase:
        text = Text(text.data.lower())
    return text


def _read_pattern(args: argparse.Namespace) -> Pattern:
    if args.pattern_file is not None:
        with open(args.pattern_file, "rb") as fh:
            raw = fh.read()
    else:
        raw = args.pattern.encode("utf-8")
    if len(raw) == 0:
        raise UsageError("pattern must be non-empty")
    if SENTINEL in raw:
        raise UsageError("pattern may not contain the NUL byte (reserved as index terminator)")
    return Pattern(raw)


def _parse_int_list(raw: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in raw.split(",") if part != "")
    except ValueError as exc:
        raise UsageError(f"bad integer list {raw!r}") from exc


def _parse_freqs(raw: str) -> AlphabetSpec:
    symbols = bytearray()
    weights = []
    for item in raw.split(","):
        if "=" not in item:
            raise InvalidWeights(f"expected SYMBOL=WEIGHT, got {item!r}")
        sym, _, value = item.partition("=")
        if len(sym) != 1:
            raise InvalidWeights(f"symbol must be a single character, got {sym!r}")
        symbols.extend(sym.encode("utf-8"))
        try:
            weights.append(float(value))
        except ValueError as exc:
            raise InvalidWeights(f"bad weight {value!r}") from exc
    return AlphabetSpec(symbols=bytes(symbols), weights=tuple(weights))


def cmd_search(args: argparse.Namespace) -> int:
    pattern = _read_pattern(args)
    text = _ingest_text(args)
    algo = args.algo
    if algo in MATCHERS:
        matches = MATCHERS[algo](text, pattern)
        count = len(matches)
    elif text.body_len == 0:
        # an index needs a body, and a non-empty pattern occurs in none
        matches, count = [], 0
    elif args.count_only and algo == "stree":
        # only the tree counts without enumerating
        matches, count = [], INDEXES[algo](text.body).count(pattern)
    else:
        matches = INDEXES[algo](text.body).find_all(pattern)
        count = len(matches)
    if not args.count_only:
        for offset in matches:
            print(offset)
    print(f"count: {count}")
    return 0 if count > 0 else 1


def cmd_stats(args: argparse.Namespace) -> int:
    text = _ingest_text(args)
    if text.body_len < 1:
        raise StrSearchError("text body is empty after ingestion")
    stats = INDEXES[args.index](text.body).stats()
    print(f"node_count: {stats.node_count}")
    print(f"leaf_count: {stats.leaf_count}")
    print(f"internal_count: {stats.internal_count}")
    print(f"max_depth: {stats.max_depth}")
    print(f"logical_bytes: {stats.logical_bytes}")
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    config = BenchConfig(
        sizes=_parse_int_list(args.sizes),
        algorithms=tuple(args.algos.split(",")),
        pattern_length=args.pattern_len,
        trials=args.trials,
        queries_per_trial=args.queries,
        seed=args.seed,
        alphabet=args.alphabet,
    )
    records = run_benchmark_matrix(config, progress=lambda line: print(line, file=sys.stderr))
    if args.out is not None:
        with open(args.out, "w", newline="") as fh:
            write_csv(records, fh)
    else:
        write_csv(records, sys.stdout)
    return 0


def cmd_gen(args: argparse.Namespace) -> int:
    if args.freqs is not None:
        alphabet = _parse_freqs(args.freqs)
    elif args.alphabet in ALPHABETS:
        alphabet = ALPHABETS[args.alphabet]
    else:
        raise UsageError("--alphabet custom requires --freqs")
    text = generate_text(GenSpec(alphabet=alphabet, length=args.len, seed=args.seed))
    with open(args.out, "wb") as fh:
        fh.write(text.data)
    return 0


def cmd_accuracy(args: argparse.Namespace) -> int:
    if args.gen_dna is not None:
        text = generate_text(GenSpec(alphabet=DNA_UNIFORM, length=args.gen_dna, seed=args.seed))
    else:
        text = _ingest_text(args)
    report = run_accuracy_experiment(
        text,
        pattern_count=args.patterns,
        seed=args.seed,
        len_min=args.len_min,
        len_max=args.len_max,
    )
    print(f"patterns: {report.patterns}")
    print(f"precision: {report.precision}")
    print(f"recall: {report.recall}")
    print(f"failures: {report.failures}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="strsearch",
        description="Exact string matching: suffix tree index, classical matchers, benchmarks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("search", help="find a pattern in a text")
    p.add_argument("--algo", required=True, choices=ALL_ALGORITHMS)
    _add_text_source(p)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--pattern", help="pattern as a UTF-8 string")
    group.add_argument("--pattern-file", metavar="FILE", help="pattern as raw bytes from FILE")
    p.add_argument("--count-only", action="store_true", help="print only the occurrence count")
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("bench", help="run the timing matrix and emit CSV")
    p.add_argument("--sizes", default=",".join(map(str, DEFAULT_SIZES)), help="comma-separated text sizes")
    p.add_argument("--algos", default=",".join(DEFAULT_ALGORITHMS), help="comma-separated algorithms")
    p.add_argument("--pattern-len", type=int, default=BenchConfig.pattern_length)
    p.add_argument("--trials", type=int, default=BenchConfig.trials)
    p.add_argument("--queries", type=int, default=BenchConfig.queries_per_trial,
                   help="repeated queries per trial")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--alphabet", choices=tuple(ALPHABETS), default=BenchConfig.alphabet)
    p.add_argument("--out", metavar="FILE", help="write CSV here instead of stdout")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("stats", help="index structure report")
    _add_text_source(p)
    p.add_argument("--index", required=True, choices=tuple(INDEXES))
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("gen", help="write a seeded random text")
    p.add_argument("--alphabet", choices=(*ALPHABETS, "custom"), default="dna")
    p.add_argument("--freqs", help="SYMBOL=WEIGHT list, e.g. A=0.3,C=0.2,G=0.2,T=0.3")
    p.add_argument("--len", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", metavar="FILE", required=True)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("accuracy", help="suffix-tree accuracy against the gold standard")
    group = _add_text_source(p)
    group.add_argument("--gen-dna", type=int, metavar="LEN",
                       help="generate uniform DNA of this length instead of reading a file")
    p.add_argument("--patterns", type=int, default=100)
    p.add_argument("--len-min", type=int, default=5)
    p.add_argument("--len-max", type=int, default=50)
    p.add_argument("--seed", type=int, required=True)
    p.set_defaults(func=cmd_accuracy)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (UsageError, InvalidConfig, InvalidWeights, BadRange, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except (StrSearchError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return DATA_ERROR


if __name__ == "__main__":
    sys.exit(main())
