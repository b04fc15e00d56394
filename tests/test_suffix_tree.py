import random
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import given, settings, strategies as st

from strsearch import Counters, Pattern, build_suffix_tree, make_text
from strsearch.errors import AlreadyFinalized, MissingSentinel, NotFinalized, SentinelCollision

from helpers import ALPHABETS, compact_trie, random_body, scan_oracle


def tree_for(body):
    return build_suffix_tree(body)


# --- construction ------------------------------------------------------------

def test_node_count_mississippi(tree_kernel):
    assert tree_for(b"mississippi").node_count == 19


def test_node_count_banana(tree_kernel):
    index = tree_for(b"banana")
    assert index.node_count == 11
    assert index.internal_count == 3
    assert index.leaf_count_total == 7


def test_degenerate_text_aaa(tree_kernel):
    index = tree_for(b"aaa")
    assert index.leaf_count_total == 4
    # unary spine: root -> "a" -> "a" with leaves hanging off each level
    assert index.internal_count == 2
    assert index.node_count == 7


def test_missing_sentinel(tree_kernel):
    with pytest.raises(MissingSentinel):
        build_suffix_tree(make_text(b"abc"))


def test_empty_body_rejected(tree_kernel):
    with pytest.raises(ValueError):
        build_suffix_tree(b"")


# --- finalize ------------------------------------------------------------------

def test_finalize_required_for_queries(tree_kernel):
    index = build_suffix_tree(b"banana", finalize=False)
    with pytest.raises(NotFinalized):
        index.find_all(b"a")
    with pytest.raises(NotFinalized):
        index.count(b"a")
    with pytest.raises(NotFinalized):
        index.descend(b"a")
    index.finalize()
    assert index.find_all(b"ana") == [1, 3]


def test_finalize_twice_rejected(tree_kernel):
    index = build_suffix_tree(b"banana")
    with pytest.raises(AlreadyFinalized):
        index.finalize()


def test_root_leaf_count_banana(tree_kernel):
    index = tree_for(b"banana")
    assert index.leaf_count_of(0) == 7


def test_leaf_suffix_indexes_are_permutation(tree_kernel):
    rng = random.Random(11)
    for _ in range(20):
        body = random_body(rng, b"abc", rng.randint(1, 90))
        index = tree_for(body)
        leaves = [v for v in range(index.node_count) if index.is_leaf(v)]
        assert sorted(index.suffix_index_of(v) for v in leaves) == list(range(len(body) + 1))


def test_leaf_count_under_a_in_banana(tree_kernel):
    index = tree_for(b"banana")
    locus = index.descend(b"a")
    assert locus is not None
    assert index.leaf_count_of(locus.node) == 3  # suffixes at 1, 3, 5


# --- descend -----------------------------------------------------------------------

def test_descend_examples(tree_kernel):
    index = tree_for(b"banana")
    locus = index.descend(b"ana")
    assert index.leaf_count_of(locus.node) == 2
    assert index.descend(b"nab") is None
    locus = index.descend(b"b")
    assert index.is_leaf(locus.node)
    assert index.suffix_index_of(locus.node) == 0
    assert locus.edge_offset == 1


def test_descend_comparisons_at_most_pattern_length(tree_kernel):
    rng = random.Random(13)
    for _ in range(60):
        body = random_body(rng, b"ab", rng.randint(1, 200))
        index = tree_for(body)
        for _ in range(10):
            m = rng.randint(1, 16)
            if rng.random() < 0.5 and m <= len(body):
                i = rng.randrange(len(body) - m + 1)
                pat = body[i : i + m]
            else:
                pat = random_body(rng, b"ab", m)
            c = Counters()
            index.descend(pat, counters=c)
            assert c.comparisons <= m


def test_pattern_with_sentinel_rejected(tree_kernel):
    index = tree_for(b"abc")
    with pytest.raises(SentinelCollision):
        index.find_all(b"a\x00")


QUERY_INPUTS = {
    "bytes": bytes,
    "bytearray": bytearray,
    "str": lambda b: b.decode("ascii"),
    "Pattern": Pattern,
}


@pytest.mark.parametrize("wrap", QUERY_INPUTS.values(), ids=QUERY_INPUTS.keys())
def test_query_input_types_agree(wrap):
    index = tree_for(b"mississippi")
    for pat, want in [(b"issi", [1, 4]), (b"s", [2, 3, 5, 6]), (b"q", [])]:
        assert index.count(wrap(pat)) == len(want)
        assert index.find_all(wrap(pat)) == want
        assert (index.descend(wrap(pat)) is None) == (not want)
    queries = (index.count, index.find_all, index.descend)
    for pat, error in [(b"", ValueError), (b"s\x00", SentinelCollision)]:
        for query in queries:
            with pytest.raises(error):
                query(wrap(pat))
    # the finalize check comes before the pattern checks
    raw = build_suffix_tree(b"mississippi", finalize=False)
    for query in (raw.count, raw.find_all, raw.descend):
        with pytest.raises(NotFinalized):
            query(wrap(b"s\x00"))


# --- count / find_all -----------------------------------------------------------

def test_count_examples(tree_kernel):
    index = tree_for(b"mississippi")
    assert index.count(b"issi") == 2
    assert index.count(b"q") == 0
    assert tree_for(b"aaaa").count(b"a") == 4


def test_find_all_examples(tree_kernel):
    assert tree_for(b"banana").find_all(b"ana") == [1, 3]
    assert tree_for(b"mississippi").find_all(b"issi") == [1, 4]
    assert tree_for(b"banana").find_all(b"banana") == [0]


def test_find_all_many_occurrences(tree_kernel):
    # occurrence lists long enough to take collect's radix sort, with
    # offsets of more than one 11-bit digit
    rng = random.Random(907)
    for symbols in (b"ab", b"ACGT"):
        body = random_body(rng, symbols, 5000)
        index = tree_for(body)
        for m in (1, 2, 3, 4, 5):
            pat = body[rng.randrange(len(body) - m) :][:m]
            want = scan_oracle(body, pat)
            assert index.find_all(pat) == want
            assert index.count(pat) == len(want)


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_queries_match_scan_oracle(data):
    symbols = ALPHABETS[data.draw(st.sampled_from(sorted(ALPHABETS)))]
    body = bytes(data.draw(st.lists(st.sampled_from(symbols), min_size=1, max_size=150)))
    pats = []
    for _ in range(3):
        if data.draw(st.booleans()):
            m = data.draw(st.integers(1, min(8, len(body))))
            start = data.draw(st.integers(0, len(body) - m))
            pats.append(body[start : start + m])
        else:
            pats.append(bytes(data.draw(st.lists(st.sampled_from(symbols), min_size=1, max_size=8))))
    index = tree_for(body)
    for pat in pats:
        want = scan_oracle(body, pat)
        assert index.find_all(pat) == want
        assert index.count(pat) == len(want)


# --- structure invariants ----------------------------------------------------------

def _representative_leaf_starts(index):
    """suffix start of one leaf in each node's subtree, by reverse DFS order."""
    order = []
    stack = [0]
    while stack:
        v = stack.pop()
        order.append(v)
        stack.extend(w for _b, w in index.children_of(v))
    rep = [-1] * index.node_count
    for v in reversed(order):
        if index.is_leaf(v):
            rep[v] = index.suffix_index_of(v)
        else:
            rep[v] = rep[index.children_of(v)[0][1]]
    return rep


def check_structure(index, body):
    n = len(body)
    data = body + b"\x00"
    assert index.leaf_count_total == n + 1
    assert n + 2 <= index.node_count <= 2 * (n + 1) - 1
    rep = _representative_leaf_starts(index)
    for v in range(index.node_count):
        kids = index.children_of(v)
        if index.is_leaf(v):
            assert not kids
            continue
        if v != 0:
            assert len(kids) >= 2  # internal nodes are true branch points
        # sibling edges start with distinct bytes, ascending
        first_bytes = [b for b, _w in kids]
        assert first_bytes == sorted(set(first_bytes))
        # leaf counts add up
        assert index.leaf_count_of(v) == sum(index.leaf_count_of(w) for _b, w in kids)
        # suffix link drops exactly the first character of the path string
        if v != 0:
            link = index.suffix_link_of(v)
            d = index.path_depth_of(v)
            dl = index.path_depth_of(link)
            assert dl == d - 1
            path = data[rep[v] : rep[v] + d]
            link_path = data[rep[link] : rep[link] + dl]
            assert link_path == path[1:]
    # edge lengths >= 1 and path depths consistent with spans
    for v in range(1, index.node_count):
        s, e = index.edge_span(v)
        assert e - s >= 1


def test_structure_invariants(tree_kernel):
    rng = random.Random(402)
    for body in [b"mississippi", b"banana", b"aaaa", b"ab"]:
        check_structure(tree_for(body), body)
    for _ in range(40):
        symbols = ALPHABETS[rng.choice(sorted(ALPHABETS))]
        body = random_body(rng, symbols, rng.randint(1, 250))
        check_structure(tree_for(body), body)


def test_compacted_trie_is_isomorphic(tree_kernel):
    rng = random.Random(77)
    for _ in range(60):
        symbols = ALPHABETS[rng.choice(sorted(ALPHABETS))]
        body = random_body(rng, symbols, rng.randint(1, 160))
        data = body + b"\x00"
        want_count, want_labels = compact_trie(data)
        index = tree_for(body)
        assert index.node_count == want_count
        assert sorted(index.edge_labels()) == want_labels


def test_stats_report(tree_kernel):
    stats = tree_for(b"mississippi").stats()
    assert stats.node_count == 19
    assert stats.leaf_count == 12
    assert stats.internal_count == 6
    assert stats.max_depth == 12
    # 7 internal nodes (the root included) at 33 B, 12 leaves at 13 B
    assert stats.logical_bytes == 7 * 33 + 12 * 13
    assert tree_for(b"a").stats().node_count == 3
    assert tree_for(b"abab").stats().leaf_count == 5


def test_node_ids_internal_first_then_leaves_by_suffix(tree_kernel):
    # internal nodes take ids 0..I-1, the root at 0; the leaf of suffix j
    # takes I + j, also in an implicit tree over an unterminated text
    rng = random.Random(606)
    for _ in range(40):
        body = random_body(rng, rng.choice([b"ab", b"ACGT"]), rng.randint(1, 120))
        for data, implicit in ((body + b"\x00", False), (body, True)):
            k = tree_kernel.TreeKernel(data)
            k.build(implicit)
            k.finalize()
            internal = k.n_nodes - k.n_leaves
            assert [k.is_leaf(v) for v in range(k.n_nodes)] == [False] * internal + [True] * k.n_leaves
            for j in range(k.n_leaves):
                assert k.suffix_index_of(internal + j) == j
                assert k.path_depth_of(internal + j) == len(data) - j
                assert k.leaf_count_of(internal + j) == 1
            if not implicit:
                assert k.n_leaves == len(data)


INTROSPECTION = (
    "is_leaf", "children_of", "edge_span", "suffix_link_of",
    "suffix_index_of", "leaf_count_of", "path_depth_of",
)


def test_introspection_rejects_bad_node_ids():
    index = tree_for(b"banana")
    for bad in (-1, -5, index.node_count, 10**7):
        for name in INTROSPECTION:
            with pytest.raises(IndexError):
                getattr(index, name)(bad)
    last = index.node_count - 1
    for name in INTROSPECTION:
        getattr(index, name)(0)
        getattr(index, name)(last)


# --- online construction ---------------------------------------------------------

def _spelled_strings(kernel, data):
    """Every string readable from the root, byte by byte, incl. mid-edge."""
    n = len(data)
    spelled = set()
    stack = [(0, b"")]
    while stack:
        v, path = stack.pop()
        for _b, w in kernel.children_of(v):
            s, e = kernel.edge_span(w)
            if e == -1:
                e = n
            for k in range(s + 1, e + 1):
                spelled.add(path + data[s:k])
            stack.append((w, path + data[s:e]))
    return spelled


def test_online_property_implicit_prefixes(tree_kernel):
    # after processing any prefix, the implicit tree spells exactly the
    # substrings of that prefix (hence covers all its suffixes)
    rng = random.Random(31)
    for _ in range(12):
        body = random_body(rng, b"ab", rng.randint(1, 40))
        for i in range(1, len(body) + 1):
            prefix = body[:i]
            tree = tree_kernel.TreeKernel(prefix)
            tree.build(True)
            substrings = {
                prefix[a:b] for a in range(i) for b in range(a + 1, i + 1)
            }
            assert _spelled_strings(tree, prefix) == substrings


# --- scaling -----------------------------------------------------------------------

def test_build_steps_scale_linearly(tree_kernel):
    from strsearch.datagen import DNA_UNIFORM, GenSpec, generate_text

    per_char = {}
    for n in (1_000, 10_000, 100_000):
        body = generate_text(GenSpec(alphabet=DNA_UNIFORM, length=n, seed=n)).body
        index = tree_for(body)
        per_char[n] = index.build_steps / n
        assert index.build_steps <= 20 * n
        assert index.node_count <= 2 * (n + 1) - 1
    ratio = max(per_char.values()) / min(per_char.values())
    assert ratio < 3


# --- concurrency ----------------------------------------------------------------

def test_concurrent_queries(tree_kernel):
    rng = random.Random(88)
    body = random_body(rng, b"ACGT", 5000)
    index = tree_for(body)
    pats = [body[rng.randrange(0, 4990) :][:10] for _ in range(40)]
    want = [scan_oracle(body, p) for p in pats]
    with ThreadPoolExecutor(max_workers=4) as pool:
        got = list(pool.map(index.find_all, pats))
    assert got == want
