"""Pure-Python kernels: the classical scans and the reference suffix tree.

The four classical scan loops run behind ``strsearch.baselines``. They fill a
caller-supplied Counters object with their comparison, alignment and hash-hit
counts when one is passed.

``TreeKernel`` is the reference implementation of the suffix tree kernel.
The public API runs on its C twin, ``strsearch._tree``, which builds the same
tree node for node; the tests compare the two.

Inputs are plain ``bytes``; validation and type wrapping happen in the public
modules (``strsearch.baselines``, ``strsearch.suffix_tree``).
"""

from __future__ import annotations

import gc

NAME = "py"


# ---------------------------------------------------------------------------
# classical matchers
# ---------------------------------------------------------------------------

def naive_search(text: bytes, pat: bytes, counters=None) -> list[int]:
    """Test every alignment 0..n-m by direct byte comparison."""
    n = len(text)
    m = len(pat)
    out = []
    comps = 0
    aligns = 0
    trace = counters.alignment_trace if counters is not None else None
    for i in range(n - m + 1):
        aligns += 1
        if trace is not None:
            trace.append(i)
        j = 0
        while j < m:
            comps += 1
            if text[i + j] != pat[j]:
                break
            j += 1
        if j == m:
            out.append(i)
    if counters is not None:
        counters.comparisons += comps
        counters.alignments += aligns
    return out


def lps_table(pat: bytes) -> list[int]:
    """lps[i] = length of the longest proper prefix of pat[:i+1] that is
    also a suffix of it."""
    m = len(pat)
    lps = [0] * m
    length = 0
    i = 1
    while i < m:
        if pat[i] == pat[length]:
            length += 1
            lps[i] = length
            i += 1
        elif length != 0:
            length = lps[length - 1]
        else:
            lps[i] = 0
            i += 1
    return lps


def kmp_search(text: bytes, pat: bytes, counters=None) -> list[int]:
    n = len(text)
    m = len(pat)
    out = []
    if n < m:
        return out
    lps = lps_table(pat)
    comps = 0
    regress = 0
    last_i = -1
    j = 0
    for i in range(n):
        if i < last_i:
            regress += 1
        last_i = i
        c = text[i]
        while True:
            comps += 1
            if c == pat[j]:
                j += 1
                break
            if j == 0:
                break
            j = lps[j - 1]
        if j == m:
            out.append(i - m + 1)
            j = lps[j - 1]
    if counters is not None:
        counters.comparisons += comps
        counters.cursor_regressions += regress
    return out


def poly_hash(data: bytes, base: int, mod: int) -> int:
    """(sum data[i] * base^(len-1-i)) mod mod."""
    h = 0
    for c in data:
        h = (h * base + c) % mod
    return h


def rk_search(text: bytes, pat: bytes, base: int, mod: int, counters=None) -> list[int]:
    """Rolling-hash scan; every hash hit is verified by direct comparison."""
    n = len(text)
    m = len(pat)
    out = []
    if n < m:
        return out
    target = poly_hash(pat, base, mod)
    lead = pow(base, m - 1, mod)
    h = poly_hash(text[:m], base, mod)
    hits = 0
    comps = 0
    track = counters.window_hashes if counters is not None else None
    i = 0
    while True:
        if track is not None:
            track.append(h)
        if h == target:
            hits += 1
            j = 0
            while j < m:
                comps += 1
                if text[i + j] != pat[j]:
                    break
                j += 1
            if j == m:
                out.append(i)
        if i == n - m:
            break
        h = ((h - text[i] * lead) * base + text[i + m]) % mod
        i += 1
    if counters is not None:
        counters.hash_hits += hits
        counters.comparisons += comps
    return out


def bm_bad_char(pat: bytes) -> list[int]:
    """256-entry table: rightmost index of each byte in the pattern, -1 if absent."""
    table = [-1] * 256
    for i, c in enumerate(pat):
        table[c] = i
    return table


def _bm_suffixes(pat: bytes) -> list[int]:
    # suff[i] = length of the longest common suffix of pat and pat[:i+1]
    m = len(pat)
    suff = [0] * m
    suff[m - 1] = m
    g = m - 1
    f = m - 1
    for i in range(m - 2, -1, -1):
        if i > g and suff[i + m - 1 - f] < i - g:
            suff[i] = suff[i + m - 1 - f]
        else:
            if i < g:
                g = i
            f = i
            while g >= 0 and pat[g] == pat[g + m - 1 - f]:
                g -= 1
            suff[i] = f - g
    return suff


def bm_good_suffix(pat: bytes) -> list[int]:
    """Strong good-suffix shifts indexed by matched suffix length 0..m.

    A shorter reoccurrence counts only when preceded by a different byte;
    otherwise the shift falls back to the longest border of the pattern.
    gs[m] is the full-match shift (the pattern period).
    """
    m = len(pat)
    suff = _bm_suffixes(pat)
    by_pos = [m] * m  # shift when mismatch occurs at pattern index j
    j = 0
    for i in range(m - 1, -1, -1):
        if suff[i] == i + 1:  # pat[:i+1] is a border of the pattern
            while j < m - 1 - i:
                if by_pos[j] == m:
                    by_pos[j] = m - 1 - i
                j += 1
    for i in range(m - 1):
        by_pos[m - 1 - suff[i]] = m - 1 - i
    gs = [0] * (m + 1)
    for k in range(m):  # matched suffix length k corresponds to mismatch at m-1-k
        gs[k] = by_pos[m - 1 - k]
    border = lps_table(pat)[m - 1]
    gs[m] = m - border
    return gs


def bm_search(text: bytes, pat: bytes, counters=None) -> list[int]:
    n = len(text)
    m = len(pat)
    out = []
    if n < m:
        return out
    bad = bm_bad_char(pat)
    gs = bm_good_suffix(pat)
    comps = 0
    aligns = 0
    trace = counters.alignment_trace if counters is not None else None
    s = 0
    while s <= n - m:
        aligns += 1
        if trace is not None:
            trace.append(s)
        j = m - 1
        while j >= 0:
            comps += 1
            if text[s + j] != pat[j]:
                break
            j -= 1
        if j < 0:
            out.append(s)
            s += gs[m]
        else:
            shift = gs[m - 1 - j]
            bc = j - bad[text[s + j]]
            if bc > shift:
                shift = bc
            if shift < 1:
                shift = 1
            s += shift
    if counters is not None:
        counters.comparisons += comps
        counters.alignments += aligns
    return out


# ---------------------------------------------------------------------------
# suffix tree kernel (online construction over the full byte alphabet)
# ---------------------------------------------------------------------------

class TreeKernel:
    """Suffix tree over sentinel-terminated bytes, nodes addressed by index.

    Node ids are the C kernel's. Internal nodes take 0..I-1 in creation
    order, the root at 0. The construction loop creates the leaf of suffix
    j as its j-th leaf, and that leaf takes the id I + j, so the ids stay
    dense. Inside the kernel a child reference is an internal id, or ``~j``
    for leaf j; ids are mapped only where a method takes or returns one.
    Unlike the C kernel, this one derives a leaf's suffix from its path
    depth rather than from its id, so comparing the two checks that order.

    A leaf keeps only its edge start; its edge ends at -1 (the shared open
    frontier) until finalize() freezes it to the text length. Children are
    per-node dicts keyed by first edge byte; iteration helpers report them
    in ascending byte order.
    """

    __slots__ = (
        "data", "n_total",
        "edge_start", "edge_end", "slink", "children", "leaf_start",
        "leaf_depth", "leaf_count", "path_depth",
        "n_leaves", "max_depth",
        "build_steps", "built", "finalized",
    )

    def __init__(self, data: bytes):
        if not isinstance(data, bytes):
            raise TypeError(f"TreeKernel() argument must be bytes, not {type(data).__name__}")
        self.data = data
        self.n_total = len(data)
        # internal nodes, by id
        self.edge_start = [0]
        self.edge_end = [0]
        self.slink = [0]
        self.children: list[dict] = [{}]
        # leaves, by suffix
        self.leaf_start: list[int] = []
        self.leaf_depth: list[int] = []
        # internal nodes, filled by finalize()
        self.leaf_count: list[int] = []
        self.path_depth: list[int] = []
        self.n_leaves = 0
        self.max_depth = 0
        self.build_steps = 0
        self.built = False
        self.finalized = False

    @property
    def n_nodes(self) -> int:
        return len(self.edge_start) + len(self.leaf_start)

    # -- construction -------------------------------------------------------

    def _new_leaf(self, start: int) -> int:
        j = len(self.leaf_start)
        self.leaf_start.append(start)
        return ~j

    def _new_internal(self, start: int, end: int) -> int:
        v = len(self.edge_start)
        self.edge_start.append(start)
        self.edge_end.append(end)
        self.slink.append(0)
        self.children.append({})
        return v

    def build(self, allow_implicit: bool = False) -> None:
        """One left-to-right pass; each phase extends all pending suffixes.

        With ``allow_implicit`` the text need not end in a unique terminator
        and the result may leave some suffixes implicit (ending mid-edge).
        """
        if self.built:
            raise RuntimeError("kernel already built")
        if self.finalized:
            raise RuntimeError("kernel already finalized")
        self.built = True
        gc_was_enabled = gc.isenabled()
        gc.disable()
        try:
            self._build(allow_implicit)
        finally:
            if gc_was_enabled:
                gc.enable()

    def _build(self, allow_implicit: bool) -> None:
        data = self.data
        n_total = self.n_total
        es = self.edge_start
        ee = self.edge_end
        sl = self.slink
        ch = self.children
        ls = self.leaf_start

        active_node = 0
        active_edge = 0  # text index of the first byte on the active edge
        active_len = 0
        remainder = 0
        steps = 0

        for pos in range(n_total):
            c_pos = data[pos]
            remainder += 1
            last_internal = -1
            while remainder > 0:
                steps += 1
                if active_len == 0:
                    active_edge = pos
                first = data[active_edge]
                kids = ch[active_node]
                nxt = kids.get(first)
                if nxt is None:
                    # new leaf edge hanging off an existing node
                    kids[first] = self._new_leaf(pos)
                    if last_internal >= 0:
                        sl[last_internal] = active_node
                        last_internal = -1
                else:
                    if nxt >= 0:
                        start = es[nxt]
                        edge_len = ee[nxt] - start
                    else:
                        start = ls[~nxt]
                        edge_len = pos + 1 - start
                    if active_len >= edge_len:
                        # canonicalize: hop over the whole edge (an internal
                        # one: a leaf edge reaches past the active point)
                        active_node = nxt
                        active_edge += edge_len
                        active_len -= edge_len
                        continue
                    if data[start + active_len] == c_pos:
                        # suffix already present implicitly; phase ends
                        if last_internal >= 0 and active_node != 0:
                            sl[last_internal] = active_node
                        active_len += 1
                        break
                    # split the edge, add a new leaf for the current byte
                    split = self._new_internal(start, start + active_len)
                    kids[first] = split
                    if nxt >= 0:
                        es[nxt] = start + active_len
                    else:
                        ls[~nxt] = start + active_len
                    split_kids = ch[split]
                    split_kids[data[start + active_len]] = nxt
                    split_kids[c_pos] = self._new_leaf(pos)
                    if last_internal >= 0:
                        sl[last_internal] = split
                    last_internal = split
                remainder -= 1
                if active_node == 0 and active_len > 0:
                    active_len -= 1
                    active_edge = pos - remainder + 1
                elif active_node != 0:
                    active_node = sl[active_node]

        self.build_steps = steps
        if remainder != 0 and not allow_implicit:
            raise RuntimeError("construction left pending suffixes; text lacks a unique terminator")

    def finalize(self) -> None:
        """Fill path depths and leaf counts; leaf edges end at the text's end."""
        if self.finalized:
            raise RuntimeError("kernel already finalized")
        self.finalized = True
        n_total = self.n_total
        es = self.edge_start
        ee = self.edge_end
        ch = self.children
        ls = self.leaf_start

        depth = [0] * len(es)
        lc = [0] * len(es)
        leaf_depth = [0] * len(ls)

        order = []
        stack = [0]
        n_leaves = 0
        while stack:
            v = stack.pop()
            order.append(v)
            for w in ch[v].values():
                if w >= 0:
                    depth[w] = depth[v] + ee[w] - es[w]
                    stack.append(w)
                else:
                    leaf_depth[~w] = depth[v] + n_total - ls[~w]
                    n_leaves += 1
        for v in reversed(order):
            lc[v] = sum(lc[w] if w >= 0 else 1 for w in ch[v].values())

        self.path_depth = depth
        self.leaf_depth = leaf_depth
        self.leaf_count = lc
        self.n_leaves = n_leaves
        self.max_depth = max(depth + leaf_depth)

    # -- queries (legal only after finalize) ---------------------------------

    def _descend(self, pat: bytes) -> tuple[int | None, int, int]:
        """descend() with the locus as a child reference, None on a mismatch."""
        self._require_finalized()
        if not pat:
            raise ValueError("empty pattern is not allowed")
        data = self.data
        es = self.edge_start
        ee = self.edge_end
        ch = self.children
        m = len(pat)
        v = 0
        i = 0
        comps = 0
        while True:
            comps += 1
            w = ch[v].get(pat[i])
            if w is None:
                return (None, -1, comps)
            i += 1
            if w >= 0:
                start = es[w]
                end = ee[w]
            else:
                start = self.leaf_start[~w]
                end = self.n_total
            k = start + 1
            while k < end and i < m:
                comps += 1
                if data[k] != pat[i]:
                    return (None, -1, comps)
                k += 1
                i += 1
            if i == m:
                return (w, k - start, comps)
            if w < 0:
                # the pattern runs past the end of a leaf
                return (None, -1, comps)
            v = w

    def descend(self, pat: bytes) -> tuple[int, int, int]:
        """Walk the pattern from the root.

        Returns (node, offset_within_edge, comparisons); node is -1 on a
        mismatch. Each consumed pattern byte costs exactly one comparison,
        so comparisons <= len(pat).
        """
        ref, off, comps = self._descend(pat)
        return (-1 if ref is None else self._public(ref), off, comps)

    def count(self, pat: bytes) -> int:
        ref, _off, _comps = self._descend(pat)
        if ref is None:
            return 0
        return self.leaf_count[ref] if ref >= 0 else 1

    def collect(self, pat: bytes) -> list[int]:
        """Sorted start offsets of every occurrence of ``pat`` in the body."""
        ref, _off, _comps = self._descend(pat)
        if ref is None:
            return []
        ch = self.children
        n_total = self.n_total
        leaf_depth = self.leaf_depth
        limit = n_total - len(pat)  # an occurrence must fit inside the text
        out = []
        stack = [ref]
        while stack:
            w = stack.pop()
            if w >= 0:
                stack.extend(ch[w].values())
                continue
            p = n_total - leaf_depth[~w]
            if p > limit:
                raise RuntimeError("leaf below the pattern locus maps past the text")
            out.append(p)
        out.sort()
        return out

    # -- introspection --------------------------------------------------------

    def _require_finalized(self) -> None:
        if not self.finalized:
            raise RuntimeError("finalize() the kernel before querying")

    def _public(self, ref: int) -> int:
        return ref if ref >= 0 else len(self.edge_start) + ~ref

    def _node(self, v: int) -> int:
        """The child reference for node id v; IndexError if v names no node."""
        if not 0 <= v < self.n_nodes:
            raise IndexError(f"node id {v} out of range [0, {self.n_nodes})")
        internal = len(self.edge_start)
        return v if v < internal else ~(v - internal)

    def is_leaf(self, v: int) -> bool:
        return self._node(v) < 0

    def children_of(self, v: int) -> list[tuple[int, int]]:
        ref = self._node(v)
        if ref < 0:
            return []
        return sorted((b, self._public(w)) for b, w in self.children[ref].items())

    def edge_span(self, v: int) -> tuple[int, int]:
        ref = self._node(v)
        if ref >= 0:
            return (self.edge_start[ref], self.edge_end[ref])
        return (self.leaf_start[~ref], self.n_total if self.finalized else -1)

    def suffix_link_of(self, v: int) -> int:
        ref = self._node(v)
        return self.slink[ref] if ref >= 0 else 0

    def suffix_index_of(self, v: int) -> int:
        ref = self._node(v)
        self._require_finalized()
        return self.n_total - self.leaf_depth[~ref] if ref < 0 else -1

    def leaf_count_of(self, v: int) -> int:
        ref = self._node(v)
        self._require_finalized()
        return self.leaf_count[ref] if ref >= 0 else 1

    def path_depth_of(self, v: int) -> int:
        ref = self._node(v)
        self._require_finalized()
        return self.path_depth[ref] if ref >= 0 else self.leaf_depth[~ref]
