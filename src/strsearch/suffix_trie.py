"""Uncompressed suffix trie, used for node-count comparison and as an oracle.

One trie node per distinct non-empty substring of the sentinel-terminated
text, plus the root, so ``node_count`` equals the distinct-substring count
plus one. Because the sentinel is unique, every suffix (including the
sentinel-only one) ends at its own leaf: exactly body_len + 1 leaves.

Construction is deliberately the naive per-suffix insertion. The trie exists
for structural comparison against the compressed tree, not for speed, and the
simple build keeps it trustworthy. Quadratic node growth makes long bodies
expensive, so builds refuse bodies beyond a configurable cap.

Counting convention: the root and sentinel-bearing nodes are included. This
is the convention under which "mississippi" yields 66 nodes.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import Text, Pattern, as_pattern
from .errors import MissingSentinel, SentinelCollision, TrieCapExceeded

DEFAULT_BODY_CAP = 100_000

# per-node accounting size for the logical memory report: one child-map slot
# (32) plus the stored suffix start (8)
TRIE_NODE_BYTES = 40


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

    def _kids(self, v: int) -> list[int]:
        heads = self.branches.get(v, [])
        if v == 0 or v in self.leaf_suffix:
            return heads
        return [v + 1, *heads]

    def find_all(self, pattern: Pattern | bytes | str) -> list[int]:
        """Descend one byte per pattern character, then gather the subtree."""
        pat = as_pattern(pattern)
        if self.text.sentinel in pat.data:
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
        leaves = 0
        max_depth = 0
        stack = [(0, 0)]
        while stack:
            v, d = stack.pop()
            if d > max_depth:
                max_depth = d
            kids = self._kids(v)
            if kids:
                stack.extend((w, d + 1) for w in kids)
            else:
                leaves += 1
        return IndexStats(
            node_count=self.node_count,
            internal_count=self.node_count - leaves - 1,
            leaf_count=leaves,
            max_depth=max_depth,
            logical_bytes=self.node_count * TRIE_NODE_BYTES,
        )


def build_suffix_trie(text: Text | bytes | str, body_cap: int = DEFAULT_BODY_CAP) -> SuffixTrieIndex:
    """Insert every suffix of the sentinel-terminated text, one path each.

    Accepts raw bytes or str for convenience, appending the sentinel; a Text
    argument must already carry one.
    """
    if not isinstance(text, Text):
        from .core import make_text

        text = make_text(text, append_sentinel=True)
    if not text.has_sentinel:
        raise MissingSentinel("suffix trie requires sentinel-terminated text")
    if text.body_len < 1:
        raise ValueError("suffix trie requires a non-empty body")
    if text.body_len > body_cap:
        raise TrieCapExceeded(f"body length {text.body_len} exceeds cap {body_cap}")

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
