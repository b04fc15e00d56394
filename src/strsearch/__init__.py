"""Exact string matching over bytes.

The centerpiece is a suffix tree index built online in linear time, whose
per-node path depths and suffix-array intervals make occurrence counting a
single descent and enumeration proportional to the output. Alongside it:
an uncompressed suffix trie for structural comparison, the four classical
single-pattern matchers (naive, KMP, Rabin-Karp, Boyer-Moore), seeded
dataset generation, and a benchmark harness with CSV output.

The suffix tree is a C extension, ``strsearch._tree``, compiled by
``python setup.py build_ext --inplace``; ``active_backend()`` names it. The
classical scans run in pure Python, in ``strsearch.baselines``.
"""

# suffix_tree first: it raises the ImportError that names the build command
from .suffix_tree import Locus, SuffixTreeIndex, build_suffix_tree
from ._backend import active_backend
from .baselines import (
    BmTables,
    bm_build_tables,
    bm_find_all,
    build_lps,
    kmp_find_all,
    naive_find_all,
    rk_find_all,
    rk_hash,
)
from .bench import (
    AccuracyReport,
    BenchConfig,
    BenchRecord,
    run_accuracy_experiment,
    run_benchmark_matrix,
    write_csv,
)
from .core import (
    SENTINEL,
    Counters,
    Pattern,
    Text,
    VerificationReport,
    gold_standard_matches,
    make_text,
    verify_occurrences,
)
from .datagen import (
    DNA_UNIFORM,
    AlphabetSpec,
    GenSpec,
    SplitMix64,
    generate_text,
    read_fasta,
    read_text_file,
    sample_patterns,
)
from .suffix_trie import IndexStats, SuffixTrieIndex, build_suffix_trie

__version__ = "0.1.0"

__all__ = [
    "SENTINEL",
    "AccuracyReport",
    "AlphabetSpec",
    "BenchConfig",
    "BenchRecord",
    "BmTables",
    "Counters",
    "DNA_UNIFORM",
    "GenSpec",
    "IndexStats",
    "Locus",
    "Pattern",
    "SplitMix64",
    "SuffixTreeIndex",
    "SuffixTrieIndex",
    "Text",
    "VerificationReport",
    "active_backend",
    "bm_build_tables",
    "bm_find_all",
    "build_lps",
    "build_suffix_tree",
    "build_suffix_trie",
    "generate_text",
    "gold_standard_matches",
    "kmp_find_all",
    "make_text",
    "naive_find_all",
    "read_fasta",
    "read_text_file",
    "rk_find_all",
    "rk_hash",
    "run_accuracy_experiment",
    "run_benchmark_matrix",
    "sample_patterns",
    "verify_occurrences",
    "write_csv",
]
