"""Uncompressed suffix trie, used for node-count comparison and as an oracle.

One trie node per distinct non-empty substring of the NUL-terminated text,
plus the root, so ``node_count`` equals the distinct-substring count plus
one. Because the NUL is unique, every suffix (including the NUL-only one)
ends at its own leaf: exactly body_len + 1 leaves.

Construction is deliberately the naive per-suffix insertion. The trie exists
for structural comparison against the compressed tree, not for speed, and the
simple build keeps it trustworthy. Inserting suffix i walks or adds n - i
nodes, so builds take quadratic time (and, without long repeats, memory: a
random 4096-base body takes 8.4 million nodes, 0.8 GB and 8 s); bodies
longer than ``BODY_CAP`` bytes are refused before any node is made.

Counting convention: the root and sentinel-bearing nodes are included. This
is the convention under which "mississippi" yields 66 nodes.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import SENTINEL, Pattern, Text, as_pattern, index_text
from .errors import SentinelCollision, TrieCapExceeded

BODY_CAP = 4096

# bytes per node for the logical memory report, as tracemalloc measures it
# (106-107) for 1000-byte bodies over 2, 4 and 255 symbols
TRIE_NODE_BYTES = 106


@dataclass(frozen=True)
class IndexStats:
    node_count: int
    internal_count: int
    leaf_count: int
    max_depth: int
    logical_bytes: int


class SuffixTrieIndex:
    """Immutable after construction; safe for concurrent reads.

    Nodes are ints, the root 0, and there are no node objects. ``children``
    maps ``(node << 8) | byte`` to the child on that byte. Inserting a
    suffix adds one chain of fresh nodes, numbered consecutively and ending
    in the suffix's leaf, hung below the node where its walk left the
    existing trie. ``branches`` maps that node to the first nodes of the
    chains hung below it, and ``leaf_suffix`` each leaf to its suffix start.
    The children of a node are thus the chain heads in ``branches``, plus the
    next node up when the node is neither the root nor a leaf.
    """

    def __init__(
        self,
        text: Text,
        children: dict[int, int],
        branches: dict[int, list[int]],
        leaf_suffix: dict[int, int],
        node_count: int,
    ):
        self.text = text
        self.children = children
        self.branches = branches
        self.leaf_suffix = leaf_suffix
        self.node_count = node_count

    def find_all(self, pattern: Pattern | bytes | str) -> list[int]:
        """Descend one byte per pattern character, then gather the subtree."""
        pat = as_pattern(pattern)
        if SENTINEL in pat.data:
            raise SentinelCollision("pattern contains the text's sentinel byte")
        children = self.children
        node = 0
        for c in pat.data:
            node = children.get((node << 8) | c)
            if node is None:
                return []
        # the pattern is not empty, so the root is not in this subtree
        leaf_suffix = self.leaf_suffix
        branches = self.branches
        out = []
        stack = [node]
        while stack:
            v = stack.pop()
            start = leaf_suffix.get(v)
            if start is not None:
                out.append(start)
                continue
            stack.append(v + 1)
            heads = branches.get(v)
            if heads is not None:
                stack.extend(heads)
        out.sort()
        return out

    def stats(self) -> IndexStats:
        # one leaf per suffix, since the NUL is unique; the deepest node is
        # the leaf of suffix 0
        leaves = len(self.leaf_suffix)
        return IndexStats(
            node_count=self.node_count,
            internal_count=self.node_count - leaves - 1,
            leaf_count=leaves,
            max_depth=len(self.text.data),
            logical_bytes=self.node_count * TRIE_NODE_BYTES,
        )


def check_body_cap(body_len: int) -> None:
    """Raise TrieCapExceeded for a body longer than ``BODY_CAP`` bytes."""
    if body_len > BODY_CAP:
        raise TrieCapExceeded(
            f"body length {body_len} exceeds the suffix trie's cap of {BODY_CAP} bytes")


def build_suffix_trie(text: Text | bytes | str) -> SuffixTrieIndex:
    """Insert every suffix of the NUL-terminated text, one path each.

    Accepts raw bytes or str for convenience, appending NUL; a Text argument
    must already carry it. Bodies longer than ``BODY_CAP`` raise
    TrieCapExceeded.
    """
    text = index_text(text, "suffix trie")
    check_body_cap(text.body_len)

    data = text.data
    n_total = len(data)
    children: dict[int, int] = {}
    branches: dict[int, list[int]] = {}
    leaf_suffix: dict[int, int] = {}
    count = 1
    for i in range(n_total):
        node = 0
        j = i
        # walk the shared prefix, then grow a fresh chain for the rest; the
        # unique sentinel ends every suffix in a fresh leaf
        while j < n_total:
            nxt = children.get((node << 8) | data[j])
            if nxt is None:
                break
            node = nxt
            j += 1
        branches.setdefault(node, []).append(count)
        while j < n_total:
            children[(node << 8) | data[j]] = count
            node = count
            count += 1
            j += 1
        leaf_suffix[node] = i
    return SuffixTrieIndex(text, children, branches, leaf_suffix, count)
