"""Differential test of the two suffix tree kernels.

The C kernel (``strsearch._tree``) must answer every ``TreeKernel`` method
and, through it, every public ``SuffixTreeIndex`` method exactly as the
Python reference (``tests/reference_tree.py``) does: the same value, or an
exception of the same type. Each script below runs one sequence of calls,
valid and invalid, on one kernel and logs every outcome; the two logs must
be equal. A crash of the C kernel takes the test process down with it.
"""

import random
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from strsearch import Counters, _tree, build_suffix_tree, suffix_tree

import reference_tree

ALPHABETS = {
    "dna": b"ACGT",
    "binary": b"ab",
    "printable": bytes(range(32, 127)),
}

INTROSPECTION = (
    "is_leaf", "children_of", "edge_span", "suffix_link_of",
    "suffix_index_of", "leaf_count_of", "path_depth_of",
)

# empty, the sentinel alone, sentinel-bearing, and bytes no body holds
FIXED_PATTERNS = (b"", b"\x00", b"a\x00", b"\x00\x00", b"\xff", b"\x7f\x7f")


def outcome(fn, *args):
    try:
        return ("ok", fn(*args))
    except Exception as exc:  # the exception type is the outcome compared
        return ("raised", type(exc))


class Log(list):
    def call(self, label, fn, *args):
        self.append((label, outcome(fn, *args)))


def node_ids(n_nodes):
    return [*range(n_nodes), -1, n_nodes, 2**40]


def kernel_script(kmod, data, allow_implicit, patterns):
    log = Log()
    k = kmod.TreeKernel(data)

    def state(tag):
        log.call(f"{tag}: attributes", lambda: (
            k.n_nodes, k.n_leaves, k.max_depth, k.build_steps, k.built, k.finalized,
        ))
        for v in node_ids(k.n_nodes):
            for name in INTROSPECTION:
                log.call(f"{tag}: {name}({v})", getattr(k, name), v)
        for p in patterns:
            for name in ("descend", "count", "collect"):
                log.call(f"{tag}: {name}({p!r})", getattr(k, name), p)

    state("new")
    log.call("build", k.build, allow_implicit)
    state("built")
    log.call("build again", k.build)
    log.call("finalize", k.finalize)
    state("finalized")
    log.call("finalize again", k.finalize)
    log.call("build after finalize", k.build)
    return log


def index_script(kmod, body, patterns):
    log = Log()
    with mock.patch.object(suffix_tree, "TreeKernel", kmod.TreeKernel):
        index = build_suffix_tree(body, finalize=False)

    def descend(p):
        c = Counters()
        return index.descend(p, counters=c), c.comparisons

    def state(tag):
        for name in ("finalized", "node_count", "build_steps", "leaf_count_total", "internal_count"):
            log.call(f"{tag}: {name}", getattr, index, name)
        log.call(f"{tag}: stats", index.stats)
        log.call(f"{tag}: edge_labels", lambda: sorted(index.edge_labels()))
        for v in node_ids(index.node_count):
            for name in INTROSPECTION:
                log.call(f"{tag}: {name}({v})", getattr(index, name), v)
        for p in patterns:
            log.call(f"{tag}: descend({p!r})", descend, p)
            log.call(f"{tag}: count({p!r})", index.count, p)
            log.call(f"{tag}: find_all({p!r})", index.find_all, p)

    state("built")
    log.call("finalize", lambda: index.finalize() is index)
    state("finalized")
    log.call("finalize again", index.finalize)
    return log


@st.composite
def body_and_patterns(draw, min_size):
    symbols = ALPHABETS[draw(st.sampled_from(sorted(ALPHABETS)))]
    body = bytes(draw(st.lists(st.sampled_from(symbols), min_size=min_size, max_size=60)))
    patterns = list(FIXED_PATTERNS)
    for _ in range(4):
        if body and draw(st.booleans()):
            start = draw(st.integers(0, len(body) - 1))
            patterns.append(body[start : start + draw(st.integers(1, 8))])
        else:
            patterns.append(bytes(draw(st.lists(st.sampled_from(symbols), min_size=1, max_size=8))))
    return body, patterns


@settings(max_examples=150, deadline=None)
@given(body_and_patterns(min_size=0), st.booleans(), st.booleans())
def test_kernels_agree_on_every_method(case, terminated, allow_implicit):
    body, patterns = case
    data = body + b"\x00" if terminated else body
    want = kernel_script(reference_tree, data, allow_implicit, patterns)
    assert kernel_script(_tree, data, allow_implicit, patterns) == want


@settings(max_examples=100, deadline=None)
@given(body_and_patterns(min_size=1))
def test_kernels_agree_through_public_index(case):
    body, patterns = case
    want = index_script(reference_tree, body, patterns)
    assert index_script(_tree, body, patterns) == want


# Hypothesis bodies are too short to give a node of path depth 1 many
# children; these bodies are not. "every byte" makes, with the sentinel, all
# 256 byte values occur. Only "twenty" has few enough symbols for the C
# kernel to keep its depth-1 child table at this size.
WIDE_SYMBOLS = {
    "printable": ALPHABETS["printable"],
    "every byte": bytes(range(1, 256)),
    "twenty": b"abcdefghijklmnopqrst",
}


@pytest.mark.parametrize("name", sorted(WIDE_SYMBOLS))
def test_kernels_agree_below_wide_depth_one_nodes(name):
    symbols = WIDE_SYMBOLS[name]
    rng = random.Random(13)
    # every symbol once, then pairs led by one hub byte, so that the hub's
    # depth-1 node has a child on most symbols
    hub = symbols[rng.randrange(len(symbols))]
    body = bytes(rng.sample(symbols, len(symbols)))
    body += bytes(b for _ in range(1400) for b in (hub, rng.choice(symbols)))
    patterns = [*FIXED_PATTERNS, bytes([hub]), bytes([hub, hub])]
    for _ in range(12):
        start = rng.randrange(len(body))
        patterns.append(body[start : start + rng.randint(1, 6)])
    # the hub's depth-1 node followed by every byte of the text, one it
    # lacks if any, and NUL: every column of the hub's table row
    absent = sorted(set(range(1, 256)) - set(symbols))[:1]
    patterns += [bytes([hub, b]) for b in (*symbols, *absent, 0)]
    for data, allow_implicit in ((body + b"\x00", False), (body[:2000], True)):
        ref = reference_tree.TreeKernel(data)
        ref.build(allow_implicit)
        fan_out = [
            len(ref.children_of(v)) for _, v in ref.children_of(0)
            if not ref.is_leaf(v) and ref.edge_span(v)[1] - ref.edge_span(v)[0] == 1
        ]
        assert max(fan_out) >= min(64, len(symbols))
        want = kernel_script(reference_tree, data, allow_implicit, patterns)
        assert kernel_script(_tree, data, allow_implicit, patterns) == want
        k = _tree.TreeKernel(data)
        k.build(allow_implicit)
        assert (k.table_bytes > 0) == (name == "twenty")
    assert len(set(body + b"\x00")) == len(symbols) + 1


def test_kernels_reject_non_bytes_text():
    for arg in ("banana", bytearray(b"banana"), memoryview(b"banana"), 7, None):
        want = outcome(reference_tree.TreeKernel, arg)
        assert want == ("raised", TypeError)
        assert outcome(_tree.TreeKernel, arg) == want


@pytest.mark.parametrize("data", [b"", b"\x00", b"abc\x00", b"ab"])
def test_kernels_agree_when_finalized_before_build(data):
    patterns = [*FIXED_PATTERNS, b"a", b"b", b"abc"]

    def script(kmod):
        log = Log()
        k = kmod.TreeKernel(data)
        log.call("finalize", k.finalize)
        log.call("attributes", lambda: (
            k.n_nodes, k.n_leaves, k.max_depth, k.build_steps, k.built, k.finalized,
        ))
        for v in node_ids(k.n_nodes):
            for name in INTROSPECTION:
                log.call(f"{name}({v})", getattr(k, name), v)
        for p in patterns:
            for name in ("descend", "count", "collect"):
                log.call(f"{name}({p!r})", getattr(k, name), p)
        log.call("build after finalize", k.build)
        return log

    want = script(reference_tree)
    assert want[-1][1][0] == "raised"
    assert script(_tree) == want
