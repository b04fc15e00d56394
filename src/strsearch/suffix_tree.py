"""Compressed suffix tree with online construction and leaf-count queries.

The tree is built in a single left-to-right pass (Ukkonen's online method):
each new text position advances a shared open edge end, and pending suffixes
are inserted by walking the active point and following suffix links, so total
construction work is linear in the text length. Edge labels are (start, end)
coordinates into the shared text, never copied substrings.

A build is a two-step affair: construction over the sentinel-terminated text,
then finalize(), a single depth-first pass in byte order that freezes the
open leaf ends, lists the leaves' suffix starts in lexicographic order (the
suffix array), and gives every internal node its path depth and the interval
of that list its subtree covers. Queries are only legal on a finalized
index: counting an occurrence total is then a descent plus one interval
length, and enumeration a sorted copy of the interval.

Node ids: internal nodes take 0..I-1 in creation order, the root at 0, and
the leaf of suffix j takes I + j.

The tree itself lives in the C kernel ``strsearch._tree``, built by
``python setup.py build_ext --inplace``.

A finalized index is deeply immutable and safe for concurrent readers.
"""

from __future__ import annotations

from dataclasses import dataclass

try:
    from ._tree import INTERNAL_NODE_BYTES, LEAF_NODE_BYTES, TreeKernel
except ImportError as exc:
    raise ImportError(
        "strsearch._tree is not built; run `python setup.py build_ext --inplace` "
        "in the source checkout (it needs a C compiler and the Python headers)"
    ) from exc

from .core import Counters, Pattern, Text, as_pattern, make_text
from .errors import AlreadyFinalized, MissingSentinel, NotFinalized, SentinelCollision
from .suffix_trie import IndexStats


@dataclass(frozen=True)
class Locus:
    """Where a pattern's descent ends: a node and an offset into its edge.

    ``edge_offset`` counts matched bytes on the edge leading into ``node``
    and equals the full edge length when the pattern ends exactly at the
    node.
    """

    node: int
    edge_offset: int


class SuffixTreeIndex:
    def __init__(self, kernel, text: Text):
        self._k = kernel
        self.text = text

    # -- lifecycle ----------------------------------------------------------

    @property
    def finalized(self) -> bool:
        return self._k.finalized

    def finalize(self) -> "SuffixTreeIndex":
        if self._k.finalized:
            raise AlreadyFinalized("index is already finalized")
        self._k.finalize()
        return self

    def _require_finalized(self) -> None:
        if not self._k.finalized:
            raise NotFinalized("finalize() the index before querying")

    def _query_bytes(self, pattern: Pattern | bytes | str) -> bytes:
        if not self._k.finalized:
            raise NotFinalized("finalize() the index before querying")
        # exact bytes skip the Pattern wrapper; its one check is inlined
        if type(pattern) is bytes:
            if not pattern:
                raise ValueError("empty pattern is not allowed")
            pat = pattern
        else:
            pat = as_pattern(pattern).data
        if self.text.sentinel in pat:
            raise SentinelCollision("pattern contains the text's sentinel byte")
        return pat

    # -- queries ------------------------------------------------------------

    def descend(self, pattern: Pattern | bytes | str, counters: Counters | None = None) -> Locus | None:
        """Match the pattern against edge labels from the root.

        Consumes at most one byte comparison per pattern byte. Returns None
        at the first mismatch.
        """
        pat = self._query_bytes(pattern)
        node, off, comps = self._k.descend(pat)
        if counters is not None:
            counters.comparisons += comps
        if node < 0:
            return None
        return Locus(node=node, edge_offset=off)

    def count(self, pattern: Pattern | bytes | str) -> int:
        """Occurrence count: leaf count of the locus subtree, no enumeration."""
        pat = self._query_bytes(pattern)
        return self._k.count(pat)

    def find_all(self, pattern: Pattern | bytes | str) -> list[int]:
        """All occurrence start offsets, ascending."""
        pat = self._query_bytes(pattern)
        return self._k.collect(pat)

    # -- structure ----------------------------------------------------------

    @property
    def node_count(self) -> int:
        return self._k.n_nodes

    @property
    def leaf_count_total(self) -> int:
        self._require_finalized()
        return self._k.n_leaves

    @property
    def internal_count(self) -> int:
        self._require_finalized()
        return self._k.n_nodes - self._k.n_leaves - 1

    @property
    def build_steps(self) -> int:
        return self._k.build_steps

    def stats(self) -> IndexStats:
        """Shape of the finalized tree; ``logical_bytes`` is what the C
        kernel's node arrays hold for it, the root and the finalize arrays
        included, from the kernel's own per-node sizes."""
        self._require_finalized()
        internal = self.internal_count
        leaves = self.leaf_count_total
        return IndexStats(
            node_count=self.node_count,
            internal_count=internal,
            leaf_count=leaves,
            max_depth=self._k.max_depth,
            logical_bytes=(internal + 1) * INTERNAL_NODE_BYTES + leaves * LEAF_NODE_BYTES,
        )

    # -- introspection (used by invariant checks and tooling) ----------------

    # the kernel raises IndexError for an id outside [0, node_count)

    def is_leaf(self, node: int) -> bool:
        return self._k.is_leaf(node)

    def children_of(self, node: int) -> list[tuple[int, int]]:
        """(first byte, child id) pairs in ascending byte order."""
        return self._k.children_of(node)

    def edge_span(self, node: int) -> tuple[int, int]:
        return self._k.edge_span(node)

    def suffix_link_of(self, node: int) -> int:
        return self._k.suffix_link_of(node)

    def suffix_index_of(self, node: int) -> int:
        self._require_finalized()
        return self._k.suffix_index_of(node)

    def leaf_count_of(self, node: int) -> int:
        self._require_finalized()
        return self._k.leaf_count_of(node)

    def path_depth_of(self, node: int) -> int:
        self._require_finalized()
        return self._k.path_depth_of(node)

    def edge_labels(self) -> list[bytes]:
        """Every edge label in the tree, as concrete byte strings."""
        data = self.text.data
        out = []
        stack = [0]
        while stack:
            v = stack.pop()
            for _b, w in self._k.children_of(v):
                s, e = self._k.edge_span(w)
                out.append(data[s:e])
                stack.append(w)
        return out


def build_suffix_tree(
    text: Text | bytes | str,
    *,
    finalize: bool = True,
) -> SuffixTreeIndex:
    """Build the suffix tree index for sentinel-terminated text.

    Raw bytes or str arguments are wrapped with a sentinel appended; a Text
    argument must already carry one. With ``finalize=False`` the caller gets
    the raw constructed tree and must call finalize() before querying.
    """
    if not isinstance(text, Text):
        text = make_text(text, append_sentinel=True)
    if not text.has_sentinel:
        raise MissingSentinel("suffix tree requires sentinel-terminated text")
    if text.body_len < 1:
        raise ValueError("suffix tree requires a non-empty body")
    k = TreeKernel(text.data)
    k.build()
    index = SuffixTreeIndex(k, text)
    if finalize:
        index.finalize()
    return index
