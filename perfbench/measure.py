"""The measured phases of one benchmark run.

``run_end_to_end`` produces the metrics a user of the library sees, with
tracing off. ``run_traced`` repeats the same phases with spans around every
call into a layer and derives the per-layer metrics from those spans. Both
are closed loops with one client on one thread, and both check every answer
against a ``bytes.find`` reference computed outside the timed regions.
"""

from __future__ import annotations

import gc
import math
import os
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter, perf_counter_ns

from spans import Tracer
from workloads import DNA, Inputs, Workload, occurrences

MATCHERS = ("naive", "kmp", "rk", "bm")
MIN_SCAN_ROUNDS = 1
MIN_CLI_ROUNDS = 2
P99_SAMPLES = 1000  # ten samples beyond the 99th percentile
TRACED_CLI_RUNS = 4
KERNEL_PASSES = 3
MAX_TRACED_QUERY_PAIRS = 20
INGEST_REPS = 3
CLI_TIMEOUT_S = 150


class Checker:
    """Counts operations attempted and failed (a wrong answer or an exception)."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def record(self, what: str, ok: bool, detail: str = "wrong answer") -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.notes) < 10:
                self.notes.append(f"{what}: {detail}")
        return ok

    def call(self, what: str, expected, fn, *args) -> tuple[object, int, int]:
        """Call fn(*args) between two clock reads and check its answer.

        Returns (answer, start ns, end ns). A call that raises is a failed
        operation like a wrong answer, timed up to the exception, and its
        answer is None.
        """
        t0 = perf_counter_ns()
        try:
            got = fn(*args)
        except Exception as exc:  # a raising call is a failed operation, not a benchmark crash
            t1 = perf_counter_ns()
            self.record(what, False, repr(exc))
            return None, t0, t1
        t1 = perf_counter_ns()
        self.record(what, got == expected)
        return got, t0, t1

    def timed(self, what: str, expected, fn, *args) -> int:
        """Elapsed ns of one checked call."""
        _got, t0, t1 = self.call(what, expected, fn, *args)
        return t1 - t0


class Cli:
    """The library's command-line interface, run as a child process from the
    checkout root against a text file holding the one-shot text."""

    def __init__(self, root: Path, text_path: Path):
        self.root = root
        self.text_path = str(text_path)
        self.env = {**os.environ, "PYTHONPATH": str(root / "src")}

    def run(self, *args: str) -> tuple[float, subprocess.CompletedProcess]:
        t0 = perf_counter()
        proc = subprocess.run(
            [sys.executable, *args], cwd=self.root, env=self.env,
            capture_output=True, timeout=CLI_TIMEOUT_S,
        )
        return perf_counter() - t0, proc

    def search(self, check: Checker, algo: str, pat: bytes, expected: int) -> float:
        elapsed, proc = self.run(
            "-m", "strsearch", "search", "--algo", algo, "--count-only",
            "--text", self.text_path, "--pattern=" + pat.decode("ascii"),
        )
        lines = proc.stdout.decode("ascii", "replace").splitlines()
        ok = proc.returncode == (0 if expected else 1) and lines[-1:] == [f"count: {expected}"]
        check.record(f"cli search --algo {algo}", ok, f"exit {proc.returncode}, output {lines[-1:]}")
        return elapsed


def maxrss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def gc_collections() -> int:
    return sum(gen["collections"] for gen in gc.get_stats())


def pct(values, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def block_pct(values, block: int, q: float) -> float:
    """Median, over consecutive blocks of ``block`` samples, of each block's
    nearest-rank percentile; a last partial block is left out.

    A tail percentile of all of a run's samples is set by the few stretches
    in which the machine ran slowest; the median over blocks is not, while
    each block still holds enough samples for its own percentile.
    """
    return statistics.median(pct(values[i : i + block], q) for i in range(0, len(values) - block + 1, block))


def metric(value: float, unit: str, samples: int = 1) -> dict:
    return {"value": value, "unit": unit, "samples": samples}


def ingest(ss, w: Workload, raw: bytes):
    if w.fasta:
        return ss.read_fasta(raw)
    text, _removed = ss.read_text_file(raw)
    return text


def check_index(check: Checker, inp: Inputs, text, index) -> None:
    check.record(
        "setup", text.body == inp.body and index.leaf_count_total == len(inp.body) + 1,
        "ingested text or leaf total differs from the input",
    )


# ---------------------------------------------------------------------------
# end-to-end run (tracing off)
# ---------------------------------------------------------------------------

def run_end_to_end(ss, inp: Inputs, seconds: float, check: Checker, cli: Cli) -> tuple[dict, dict]:
    w = inp.w
    gc.collect()
    rss_before = maxrss_kb()
    setups = SetupPhase(ss, check, inp)
    growth_kb = maxrss_kb() - rss_before
    queries = QueryPhase(check, setups, inp)
    scans = ScanPhase(ss, check, inp)
    clis = CliPhase(check, cli, inp)
    gc0 = gc_collections()
    interleave([setups, queries, scans, clis], w.shares, seconds)
    gcs = gc_collections() - gc0

    count_ns, find_ns = queries.count_ns, queries.find_ns
    query_ns = count_ns + find_ns
    metrics = {
        "setup_s": metric(statistics.median(setups.seconds), "s", len(setups.seconds)),
        "index_bytes_per_char": metric(growth_kb * 1024 / w.n, "B/char"),
        "count_us.p50": metric(statistics.median(count_ns) / 1e3, "us", len(count_ns)),
        "count_us.p99": metric(block_pct(count_ns, queries.block, 0.99) / 1e3, "us", len(count_ns)),
        "find_all_us.p50": metric(statistics.median(find_ns) / 1e3, "us", len(find_ns)),
        "find_all_us.p99": metric(block_pct(find_ns, queries.block, 0.99) / 1e3, "us", len(find_ns)),
        "queries_per_s": metric(len(query_ns) / (sum(query_ns) / 1e9), "1/s", len(query_ns)),
        **{
            f"scan_{m}_ms": metric(statistics.median(scans.round_ns[m]) / 1e6, "ms", len(scans.round_ns[m]))
            for m in MATCHERS
        },
        "cli_search_s": metric(statistics.median(clis.seconds), "s", len(clis.seconds)),
    }
    return metrics, {"gc_collections": gcs}


def interleave(phases, shares, seconds: float) -> None:
    """Run the phases' units in turn, always the phase furthest behind its
    share of the time spent so far, until the time is used and every phase
    has run its minimum number of units and ended on a whole round.

    On a shared machine the CPU's speed can change by a third or more from
    one second to the next, so phases run one after the other would each see
    a different part of that drift; interleaved, every metric samples the
    whole run. Whole rounds give every pattern of a phase the same weight.
    """
    spent = [0.0] * len(phases)
    done = [0] * len(phases)
    total = 0.0
    while True:
        short = [k for k, p in enumerate(phases) if done[k] < p.minimum or done[k] % p.round]
        if total >= seconds and not short:
            return
        live = short if total >= seconds else range(len(phases))
        k = max(live, key=lambda k: shares[k] * total - spent[k])
        t0 = perf_counter()
        phases[k].unit()
        elapsed = perf_counter() - t0
        spent[k] += elapsed
        done[k] += 1
        total += elapsed


class SetupPhase:
    """Raw input bytes to a finalized index, one set-up per unit. The first
    runs before any other phase; each later one replaces the index the
    queries use, and the old index is dropped first so that set-ups never
    overlap in memory."""

    round = 1

    def __init__(self, ss, check: Checker, inp: Inputs):
        self.ss, self.check, self.inp = ss, check, inp
        self.seconds: list[float] = []
        self.minimum = inp.w.setup_reps - 1
        self.index = None
        self.unit()

    def unit(self) -> None:
        ss, inp = self.ss, self.inp
        self.index = None
        gc.collect()
        t0 = perf_counter()
        text = ingest(ss, inp.w, inp.raw)
        index = ss.build_suffix_tree(ss.make_text(text.body, append_sentinel=True))
        self.seconds.append(perf_counter() - t0)
        check_index(self.check, inp, text, index)
        self.index = index


class QueryPhase:
    """Alternating count and find_all calls over the two pattern pools, a
    block of pairs per unit; a round is one pass over the pools. The 99th
    percentiles are taken in blocks of whole rounds with at least
    P99_SAMPLES samples each, and a run makes at least one such block."""

    UNIT_PAIRS = 50

    def __init__(self, check: Checker, setups: SetupPhase, inp: Inputs):
        self.check, self.setups, self.inp = check, setups, inp
        self.count_ns: list[int] = []
        self.find_ns: list[int] = []
        self.next = 0
        pool = len(inp.count_pats)
        self.round = math.ceil(pool / self.UNIT_PAIRS)
        self.block = pool * math.ceil(P99_SAMPLES / pool)
        self.minimum = self.round * self.block // pool
        # one untimed pass first, so caches fill and first-call costs stay out of the samples
        index = setups.index
        for j in range(pool):
            check.timed("count", inp.count_gold[j], index.count, inp.count_pats[j])
            check.timed("find_all", inp.find_gold[j], index.find_all, inp.find_pats[j])

    def unit(self) -> None:
        check, index, inp = self.check, self.setups.index, self.inp
        cp, fp, cg, fg = inp.count_pats, inp.find_pats, inp.count_gold, inp.find_gold
        start = self.next
        self.next = min(start + self.UNIT_PAIRS, len(cp))
        for j in range(start, self.next):
            self.count_ns.append(check.timed("count", cg[j], index.count, cp[j]))
            self.find_ns.append(check.timed("find_all", fg[j], index.find_all, fp[j]))
        self.next %= len(cp)


class ScanPhase:
    """Each public matcher on one scan pattern per unit; a round is every
    pattern once, and each matcher's sample is its mean call time over one
    round. A single call lasts a few milliseconds and sees one speed state
    of the machine; a round's mean spans many, so the median of rounds does
    not jump between states the way the median of single calls would."""

    def __init__(self, ss, check: Checker, inp: Inputs):
        self.ss, self.check, self.inp = ss, check, inp
        self.round = len(inp.scan_pats)
        self.minimum = MIN_SCAN_ROUNDS * self.round
        self.round_ns: dict[str, list[float]] = {m: [] for m in MATCHERS}
        self._sum_ns = dict.fromkeys(MATCHERS, 0)
        self.j = 0

    def unit(self) -> None:
        inp = self.inp
        j = self.j
        for m in MATCHERS:
            fn = getattr(self.ss, f"{m}_find_all")
            self._sum_ns[m] += self.check.timed(f"{m}_find_all", inp.scan_gold[j], fn, inp.scan_text, inp.scan_pats[j])
        self.j = (j + 1) % self.round
        if self.j == 0:
            for m in MATCHERS:
                self.round_ns[m].append(self._sum_ns[m] / self.round)
                self._sum_ns[m] = 0


class CliPhase:
    """One CLI search process per unit; a round is each CLI pattern once."""

    def __init__(self, check: Checker, cli: Cli, inp: Inputs):
        self.check, self.cli, self.inp = check, cli, inp
        self.round = len(inp.cli_pats)
        self.minimum = MIN_CLI_ROUNDS * self.round
        self.seconds: list[float] = []
        cli.run("-m", "strsearch", "--help")  # untimed: leaves the CLI's bytecode cache written

    def unit(self) -> None:
        inp = self.inp
        j = len(self.seconds) % self.round
        self.seconds.append(self.cli.search(self.check, "stree", inp.cli_pats[j], inp.cli_gold[j]))


# ---------------------------------------------------------------------------
# traced run (per-layer metrics)
# ---------------------------------------------------------------------------

def run_traced(ss, kernel_module, inp: Inputs, seconds: float, check: Checker, cli: Cli):
    w = inp.w
    n = w.n
    tr = Tracer()
    span = tr.span
    m: dict[str, dict] = {}

    def med(name: str) -> float:
        return statistics.median(tr.durations(name))

    def timing(name: str, scale: float, unit: str) -> dict:
        """Median duration of the spans called name, divided by scale."""
        return metric(med(name) / scale, unit, len(tr.durations(name)))

    def call(name: str, expected, fn, *args, request: int = -1):
        """One checked call into a layer, recorded as a span; None if it raised."""
        got, t0, t1 = check.call(name, expected, fn, *args)
        tr.add(name, t0, t1, request)
        return got

    # ingestion, sentinel wrap, construction and finalize, each its own span
    with span("setup"):
        with span("datagen.read_fasta" if w.fasta else "datagen.read_text_file"):
            text = ingest(ss, w, inp.raw)
        with span("core.make_text"):
            wrapped = ss.make_text(text.body, append_sentinel=True)
        with span("suffix_tree.build"):
            index = ss.build_suffix_tree(wrapped, finalize=False)
        rss_build = maxrss_kb()
        with span("suffix_tree.finalize"):
            index.finalize()
        rss_final = maxrss_kb()
    check_index(check, inp, text, index)
    m["mem.build_peak_rss_mb"] = metric(rss_build / 1024, "MB")
    m["mem.finalize_peak_rss_mb"] = metric(rss_final / 1024, "MB")
    m["suffix_tree.build_ns_per_char"] = timing("suffix_tree.build", n, "ns/char")
    m["suffix_tree.finalize_ns_per_char"] = timing("suffix_tree.finalize", n, "ns/char")
    m["suffix_tree.build_steps_per_char"] = metric(index.build_steps / n, "count")
    m["suffix_tree.nodes_per_char"] = metric(index.node_count / n, "count")

    # both ingestion paths on this workload's own bytes; printable text goes
    # through the permissive FASTA parser, which rewrites it (uppercase, no
    # blanks), so only DNA can be compared with the input
    dna = w.symbols == DNA
    for _ in range(INGEST_REPS):
        with span("datagen.read_text_file"):
            plain, _removed = ss.read_text_file(inp.body)
        check.record("read_text_file", plain.body == inp.body)
        with span("datagen.read_fasta"):
            parsed = ss.read_fasta(inp.fasta, permissive=not dna)
        check.record("read_fasta", not dna or parsed.body == inp.body)
        with span("core.make_text"):
            ss.make_text(text.body, append_sentinel=True)
    m["datagen.read_fasta_ns_per_byte"] = timing("datagen.read_fasta", len(inp.fasta), "ns/byte")
    m["datagen.read_text_file_ns_per_byte"] = timing("datagen.read_text_file", n, "ns/byte")
    m["core.make_text_ms"] = timing("core.make_text", 1e6, "ms")

    # the reference floor: bytes.find over the whole text, same patterns
    for p in inp.count_pats:
        with span("floor.bytes_find"):
            occurrences(inp.body, p)
    m["floor.bytes_find_ns_per_byte"] = timing("floor.bytes_find", n, "ns/byte")

    cp, fp, cg, fg = inp.count_pats, inp.find_pats, inp.count_gold, inp.find_gold
    counters = ss.Counters()
    for p, g in zip(cp, cg):
        call("suffix_tree.descend", g > 0, lambda p: index.descend(p, counters) is not None, p)
    m["suffix_tree.descend_us.p50"] = timing("suffix_tree.descend", 1e3, "us")
    m["suffix_tree.descend_comparisons_per_query"] = metric(counters.comparisons / len(cp), "count", len(cp))

    # query passes, untraced and traced in turn: their wall-time ratio is the
    # tracing overhead; garbage collections are counted in the untraced passes,
    # since span records are themselves allocations the collector tracks
    plain_ns = traced_ns = gcs = 0
    occ = []
    deadline = perf_counter() + seconds * w.shares[1]
    request = 0
    for _pair in range(MAX_TRACED_QUERY_PAIRS):
        gc0 = gc_collections()
        t0 = perf_counter_ns()
        for j in range(len(cp)):
            check.timed("suffix_tree.count", cg[j], index.count, cp[j])
            check.timed("suffix_tree.find_all", fg[j], index.find_all, fp[j])
        t1 = perf_counter_ns()
        gcs += gc_collections() - gc0
        for j in range(len(cp)):
            with span("request", request):
                call("suffix_tree.count", cg[j], index.count, cp[j], request=request)
            request += 1
            with span("request", request):
                got = call("suffix_tree.find_all", fg[j], index.find_all, fp[j], request=request)
            request += 1
            occ.append(len(got or ()))
        plain_ns += t1 - t0
        traced_ns += perf_counter_ns() - t1
        if perf_counter() >= deadline:
            break
    m["py.gc_collections"] = metric(gcs, "count")
    m["trace.overhead_frac"] = metric(traced_ns / plain_ns - 1, "ratio")
    m["suffix_tree.occurrences_per_find_all"] = metric(sum(occ[: len(fp)]) / len(fp), "count", len(fp))
    find_spans = tr.durations("suffix_tree.find_all")
    m["suffix_tree.find_all_ns_per_occurrence"] = metric(
        sum(find_spans) / max(1, sum(occ)), "ns", len(find_spans)
    )
    public_count = med("suffix_tree.count")
    index = None
    gc.collect()

    # the kernel entry point, built and queried directly
    with span("kernel.build"):
        kernel = kernel_module.TreeKernel(wrapped.data)
        kernel.build()
    with span("kernel.finalize"):
        kernel.finalize()
    for _ in range(KERNEL_PASSES):
        for j in range(len(cp)):
            call("kernel.count", cg[j], kernel.count, cp[j])
            call("kernel.collect", fg[j], kernel.collect, fp[j])
    kernel = None
    m["kernel.build_ns_per_char"] = timing("kernel.build", n, "ns/char")
    m["kernel.finalize_ns_per_char"] = timing("kernel.finalize", n, "ns/char")
    m["kernel.count_us.p50"] = timing("kernel.count", 1e3, "us")
    m["kernel.collect_us.p50"] = timing("kernel.collect", 1e3, "us")
    m["suffix_tree.wrapper_count_us"] = metric(
        (public_count - med("kernel.count")) / 1e3, "us", len(tr.durations("kernel.count"))
    )

    # classical scans: timed rounds, then one round that collects counters
    scan_bytes = len(inp.scan_text)
    for _ in range(MIN_SCAN_ROUNDS):
        for name in MATCHERS:
            fn = getattr(ss, f"{name}_find_all")
            for p, g in zip(inp.scan_pats, inp.scan_gold):
                call(f"baselines.{name}", g, fn, inp.scan_text, p)
    for name in MATCHERS:
        fn = getattr(ss, f"{name}_find_all")
        c = ss.Counters()
        for p, g in zip(inp.scan_pats, inp.scan_gold):
            check.timed(f"{name}_find_all", g, lambda: fn(inp.scan_text, p, counters=c))
        scanned = scan_bytes * len(inp.scan_pats)
        m[f"baselines.{name}_ns_per_byte"] = timing(f"baselines.{name}", scan_bytes, "ns/byte")
        m[f"baselines.{name}_comparisons_per_byte"] = metric(c.comparisons / scanned, "count")
        if name == "bm":
            m["baselines.bm_alignments_per_byte"] = metric(c.alignments / scanned, "count")
        if name == "rk":
            m["baselines.rk_hash_hits"] = metric(c.hash_hits, "count")

    # the CLI process: bare import, then one search per run with each algorithm
    cli.run("-m", "strsearch", "--help")
    for i in range(TRACED_CLI_RUNS):
        with span("cli.import"):
            _elapsed, proc = cli.run("-c", "import strsearch")
        check.record("cli import", proc.returncode == 0, proc.stderr.decode("ascii", "replace")[-200:])
        j = i % len(inp.cli_pats)
        for algo in ("stree", "bm"):
            with span(f"cli.search_{algo}"):
                cli.search(check, algo, inp.cli_pats[j], inp.cli_gold[j])
    for name in ("import", "search_stree", "search_bm"):
        m[f"cli.{name}_s"] = timing(f"cli.{name}", 1e9, "s")
    return m, tr
