/* Suffix tree kernel in C: the tree behind strsearch.SuffixTreeIndex.
 *
 * It runs the same Ukkonen loop as the Python reference TreeKernel in
 * tests/reference_tree.py and numbers nodes the same way, so node ids,
 * build_steps and every introspection answer equal the reference's; tests
 * compare the two.
 *
 * Ids. Internal nodes take ids 0..I-1 in creation order, the root at 0.
 * Ukkonen's loop creates the leaf of suffix j as its j-th leaf, so that
 * leaf takes the public id I + j and the ids stay dense. Inside the kernel
 * a child reference r names internal node r when r > 0 and leaf ~r when
 * r < 0; 0 means none, since the root is nobody's child or sibling.
 *
 * Layout. Every node has a next sibling (ns) and the first byte of its
 * edge (fb), in int32 and uint8 arrays indexed by the reference itself:
 * leaves grow down from index -1, internal nodes up from 0, so a sibling
 * hop of Ukkonen's pass is one load whatever kind of node it lands on, and
 * never reads the text. Only internal nodes have a label position (lp), a
 * suffix link (sl), a first child (fc) and a path depth (depth, set when
 * the node is made), in arrays indexed by id; the leaf of suffix j has
 * label position j. text[lp:lp + depth] is a node's path label, so the edge
 * into node w below v runs from lp[w] + depth[v] to lp[w] + depth[w], and
 * every walk that reaches w comes from v. A leaf's edge ends at the open
 * frontier (n once finalized), its suffix link is the root, its path depth
 * is n - j and its leaf count 1. Sibling chains are sorted by first byte.
 * Queries read a leaf's first byte from the text, at its suffix plus its
 * parent's depth, so finalize() drops the leaf half of fb. The root also
 * keeps a 256-entry child table, since on printable text it has about a
 * hundred children. So do the nodes of path depth 1, all of them root
 * children: build() ranks the sigma byte values that occur and gives them
 * a table (pair) of sigma rows, one per first byte, of sigma + 1 columns,
 * the last one all zero; an absent byte ranks sigma, so a lookup there
 * needs no branch; row_of(b) is the row of the root child on byte b. On
 * printable text nearly all sibling hops would otherwise be at those
 * nodes. In the pass, slot_of gives the cell that holds a child: in the
 * root's table, its parent's row, or its parent's chain. At its end the
 * pass links the root's table and each row into a sorted chain
 * (link_cells), so every node, the root included, has a chain, and the
 * tables only speed up lookups. The depth-1 table stays for queries only
 * while it holds at most as many cells as there are internal nodes, so
 * never more bytes than the suffix links finalize() frees; build() drops it
 * otherwise, and such a text's queries walk the chains (uniform printable
 * text below about 4e4 bytes). build() also gives back the room reserved
 * for internal nodes it did not make.
 *
 * finalize() first frees the suffix links, which no query reads; a suffix
 * link is then found again by a walk from the root. It is one iterative
 * depth-first pass in byte order over the internal nodes, from the root;
 * of a leaf it reads only the sibling link. It fills the suffix array
 * (leaves: the leaves' suffix starts in lexicographic order) and a leaf
 * interval [lo, hi) per internal node: the leaves below v are
 * leaves[lo[v]:hi[v]]. A leaf count is then hi - lo, and enumeration is a
 * sorted copy of one slice.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <structmember.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

/* Longest text accepted. Internal ids stay below n, leaf tags at or above
 * ~(n - 1) and label positions plus path depths at or below n, so int32
 * holds them all; the public ids (up to 2n) are Python ints. Tests compile
 * a small limit to reach it. */
#ifndef STRSEARCH_MAX_TEXT
#define STRSEARCH_MAX_TEXT INT32_MAX
#endif

typedef struct {
    PyObject_HEAD
    PyObject *text;           /* the bytes the tree indexes, kept alive */
    const unsigned char *d;
    Py_ssize_t n;             /* len(text) */
    Py_ssize_t cap;           /* room for cap leaves and cap internal nodes */
    int32_t *ns;              /* by reference, from -cap on */
    uint8_t *fb;              /* by reference, from fb_from on */
    Py_ssize_t fb_from;       /* -cap, or 0 once finalize drops the leaf half */
    int32_t *lp, *sl, *fc, *depth; /* by internal id; sl freed by finalize */
    int32_t root[256];        /* child of the root by first byte, or 0 */
    int32_t *pair;            /* depth-1 child table, or NULL */
    int32_t stride;           /* columns of pair: sigma + 1 */
    uint8_t rank[256];        /* rank of each byte that occurs; sigma if absent */
    Py_ssize_t table_bytes;   /* bytes of pair, 0 without it */
    int32_t *lo, *hi;         /* internal nodes, set by finalize */
    int32_t *leaves;          /* the suffix array, set by finalize */
    Py_ssize_t n_internal, n_built_leaves;
    Py_ssize_t n_nodes, n_leaves, max_depth, build_steps;
    char built, finalized;
} TreeKernel;

/* First byte of the edge into w, a child of a node of path depth dv, also
 * once finalize() has dropped the leaves' fb: a leaf's edge starts at its
 * suffix plus dv. */
static inline unsigned char
first_byte(const TreeKernel *t, int32_t w, int32_t dv)
{
    return w > 0 ? t->fb[w] : t->d[~w + dv];
}

/* The row of pair that holds the children of the root child on byte b. */
static inline int32_t *
row_of(const TreeKernel *t, unsigned char b)
{
    return &t->pair[t->rank[b] * t->stride];
}

static int32_t
child(const TreeKernel *t, int32_t v, unsigned char b)
{
    if (v == 0)
        return t->root[b];
    if (t->pair != NULL && t->depth[v] == 1)
        return row_of(t, t->fb[v])[t->rank[b]];
    int32_t w = t->fc[v], dv = t->depth[v];
    while (w != 0 && first_byte(t, w, dv) < b)
        w = t->ns[w];
    return (w != 0 && first_byte(t, w, dv) == b) ? w : 0;
}

/* ---- construction ------------------------------------------------------ */

static int32_t
new_leaf(TreeKernel *t, unsigned char first)
{
    int32_t j = (int32_t)t->n_built_leaves++;
    t->ns[~j] = 0;
    t->fb[~j] = first;
    return ~j;
}

static int32_t
new_internal(TreeKernel *t, int32_t label, int32_t depth, unsigned char first)
{
    int32_t v = (int32_t)t->n_internal++;
    t->lp[v] = label;
    t->depth[v] = depth;
    t->sl[v] = 0;
    t->fc[v] = 0;
    t->ns[v] = 0;
    t->fb[v] = first;
    return v;
}

/* The cell that holds, or would hold, the child on byte b of node v, of
 * path depth dv, during Ukkonen's pass: its root slot, its cell in v's row
 * when dv is 1, or else the link in v's sorted chain (fc[v], then ns[w])
 * that points at the first child whose byte is not below b. */
static inline int32_t *
slot_of(TreeKernel *t, int32_t v, int32_t dv, unsigned char b)
{
    if (v == 0)
        return &t->root[b];
    if (dv == 1)
        return &row_of(t, t->fb[v])[t->rank[b]];
    int32_t *slot = &t->fc[v];
    while (*slot != 0 && t->fb[*slot] < b)
        slot = &t->ns[*slot];
    return slot;
}

/* Links the non-zero cells[0..k), in order, into a chain from *head. */
static void
link_cells(int32_t *ns, const int32_t *cells, int32_t k, int32_t *head)
{
    for (int32_t i = 0; i < k; i++) {
        if (cells[i] != 0) {
            *head = cells[i];
            head = &ns[cells[i]];
        }
    }
    *head = 0;
}

/* Ukkonen's pass over the whole text; returns the suffixes left pending.
 * Every child is found, hung and replaced through its slot_of cell; those
 * of the root live in its table and those of a node of path depth 1 in its
 * row of pair until they are linked into sorted chains before it returns.
 * t is restrict: no node array overlaps *t, so a store into fb need not
 * make the pass reload t's fields. */
static Py_ssize_t
ukkonen(TreeKernel *restrict t)
{
    const unsigned char *d = t->d;
    int32_t *lp = t->lp, *depth = t->depth, *sl = t->sl, *fc = t->fc, *ns = t->ns;
    uint8_t *fb = t->fb;
    int32_t n = (int32_t)t->n;
    int32_t active_node = 0, active_edge = 0, active_len = 0, remainder = 0;
    int32_t active_depth = 0;  /* path depth of active_node */
    Py_ssize_t steps = 0;

    for (int32_t pos = 0; pos < n; pos++) {
        unsigned char c_pos = d[pos];
        int32_t last_internal = 0;  /* 0: none; the root is never split off */
        remainder++;
        while (remainder > 0) {
            steps++;
            if (active_len == 0)
                active_edge = pos;
            unsigned char first = d[active_edge];
            int32_t *slot = slot_of(t, active_node, active_depth, first);
            int32_t nxt = *slot;
            /* only a chain slot may hold a child on a later byte */
            if (active_depth > 1 && nxt != 0 && fb[nxt] != first)
                nxt = 0;
            if (nxt == 0) {
                /* new leaf edge hanging off an existing node */
                int32_t leaf = new_leaf(t, first);
                ns[leaf] = *slot;
                *slot = leaf;
                if (last_internal != 0) {
                    sl[last_internal] = active_node;
                    last_internal = 0;
                }
            }
            else {
                int32_t label = nxt > 0 ? lp[nxt] : ~nxt;
                int32_t start = label + active_depth;
                int32_t edge_len = nxt > 0 ? depth[nxt] - active_depth : pos + 1 - start;
                if (active_len >= edge_len) {
                    /* canonicalize: hop over the whole edge. A leaf edge
                     * always reaches past the active point, so nxt is an
                     * internal node here. */
                    active_node = nxt;
                    active_depth += edge_len;
                    active_edge += edge_len;
                    active_len -= edge_len;
                    continue;
                }
                if (d[start + active_len] == c_pos) {
                    /* suffix already present implicitly; phase ends */
                    if (last_internal != 0 && active_node != 0)
                        sl[last_internal] = active_node;
                    active_len++;
                    break;
                }
                /* split the edge; the split node takes nxt's slot, and its
                 * label is a prefix of nxt's, so it occurs there too */
                int32_t split = new_internal(t, label, active_depth + active_len, first);
                ns[split] = ns[nxt];
                *slot = split;
                unsigned char nb = d[start + active_len];
                fb[nxt] = nb;
                int32_t leaf = new_leaf(t, c_pos);
                if (active_node == 0 && active_len == 1) {
                    /* the split node has path depth 1: its children go in its row */
                    *slot_of(t, split, 1, nb) = nxt;
                    *slot_of(t, split, 1, c_pos) = leaf;
                }
                else if (nb < c_pos) {
                    fc[split] = nxt;
                    ns[nxt] = leaf;
                }
                else {
                    fc[split] = leaf;
                    ns[leaf] = nxt;
                    ns[nxt] = 0;
                }
                if (last_internal != 0)
                    sl[last_internal] = split;
                last_internal = split;
            }
            remainder--;
            if (active_node == 0 && active_len > 0) {
                active_len--;
                active_edge = pos - remainder + 1;
            }
            else if (active_node != 0) {
                active_node = sl[active_node];
                active_depth--;
            }
        }
    }
    /* chain the root's children, then each depth-1 node's, in byte order */
    link_cells(ns, t->root, 256, &fc[0]);
    for (int b = 0; b < 256; b++) {
        int32_t v = t->root[b];
        if (v > 0 && depth[v] == 1)
            link_cells(ns, row_of(t, b), t->stride - 1, &fc[v]);
    }
    t->build_steps = steps;
    return remainder;
}

/* Depth-first pass over the whole tree from the root, children in byte
 * order, filling the suffix array and every internal node's leaf interval;
 * returns the number of leaves. hi[v] holds v's parent while v is open (-1
 * for the root) and its interval end once closed, so the pass needs no
 * stack. */
static int32_t
number_leaves(TreeKernel *t)
{
    const int32_t *fc = t->fc, *ns = t->ns;
    int32_t *lo = t->lo, *hi = t->hi, *leaves = t->leaves;
    int32_t k = 0, v = 0, w;
    hi[0] = -1;
    for (;;) {
        /* open v */
        lo[v] = k;
        w = fc[v];
        for (;;) {
            /* pass the leaves before the next internal child w */
            while (w < 0) {
                leaves[k++] = ~w;
                w = ns[w];
            }
            if (w != 0)
                break;
            /* v has no children left: close it, go on with its sibling */
            int32_t p = hi[v];
            hi[v] = k;
            if (p < 0)
                return k;
            w = ns[v];
            v = p;
        }
        hi[w] = v;
        v = w;
    }
}

/* ---- Python type -------------------------------------------------------- */

static PyObject *
TreeKernel_new(PyTypeObject *type, PyObject *args, PyObject *kwds)
{
    static char *kwlist[] = {"data", NULL};
    PyObject *data;
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "O!:TreeKernel", kwlist, &PyBytes_Type, &data))
        return NULL;
    Py_ssize_t n = PyBytes_GET_SIZE(data);
    if (n > STRSEARCH_MAX_TEXT) {
        PyErr_Format(PyExc_ValueError,
                     "text of %zd bytes is too long for a suffix tree (at most %zd bytes)",
                     n, (Py_ssize_t)STRSEARCH_MAX_TEXT);
        return NULL;
    }
    TreeKernel *t = (TreeKernel *)type->tp_alloc(type, 0);
    if (t == NULL)
        return NULL;
    Py_INCREF(data);
    t->text = data;
    t->d = (const unsigned char *)PyBytes_AS_STRING(data);
    t->n = n;
    /* at most n leaves, and at most one internal node per leaf (the root
     * included); build() gives back the room of the nodes it did not make */
    Py_ssize_t cap = n + 1;
    t->cap = cap;
    int32_t *ns = PyMem_New(int32_t, 2 * cap);
    uint8_t *fb = PyMem_New(uint8_t, 2 * cap);
    t->ns = ns ? ns + cap : NULL;
    t->fb = fb ? fb + cap : NULL;
    t->fb_from = -cap;
    t->lp = PyMem_New(int32_t, cap);
    t->sl = PyMem_New(int32_t, cap);
    t->fc = PyMem_New(int32_t, cap);
    t->depth = PyMem_New(int32_t, cap);
    if (!ns || !fb || !t->lp || !t->sl || !t->fc || !t->depth) {
        Py_DECREF(t);
        return PyErr_NoMemory();
    }
    new_internal(t, 0, 0, 0);
    t->n_nodes = 1;
    return (PyObject *)t;
}

static void
TreeKernel_dealloc(TreeKernel *t)
{
    PyMem_Free(t->ns ? t->ns - t->cap : NULL);
    PyMem_Free(t->fb ? t->fb + t->fb_from : NULL);
    PyMem_Free(t->lp);
    PyMem_Free(t->sl);
    PyMem_Free(t->fc);
    PyMem_Free(t->depth);
    PyMem_Free(t->lo);
    PyMem_Free(t->hi);
    PyMem_Free(t->leaves);
    PyMem_Free(t->pair);
    Py_XDECREF(t->text);
    Py_TYPE(t)->tp_free((PyObject *)t);
}

/* The first size bytes of block, moved or not; the block itself if
 * realloc fails. */
static void *
shrink(void *block, size_t size)
{
    void *p = PyMem_Realloc(block, size);
    return p != NULL ? p : block;
}

static PyObject *
TreeKernel_build(TreeKernel *t, PyObject *args, PyObject *kwds)
{
    static char *kwlist[] = {"allow_implicit", NULL};
    int allow_implicit = 0;
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "|p:build", kwlist, &allow_implicit))
        return NULL;
    /* finalize() frees sl, so a kernel without it is finalized, or failed to */
    if (t->built || t->sl == NULL) {
        PyErr_SetString(PyExc_RuntimeError,
                        t->built ? "kernel already built" : "kernel already finalized");
        return NULL;
    }
    /* rank the bytes that occur, for the depth-1 child table */
    uint8_t seen[256] = {0};
    for (Py_ssize_t i = 0; i < t->n; i++)
        seen[t->d[i]] = 1;
    int32_t sigma = 0;
    for (int b = 0; b < 256; b++) {
        if (seen[b])
            t->rank[b] = (uint8_t)sigma++;
    }
    for (int b = 0; b < 256; b++) {
        if (!seen[b])
            t->rank[b] = (uint8_t)sigma;  /* sigma < 256 here */
    }
    size_t cells = (size_t)sigma * (sigma + 1);
    t->stride = sigma + 1;
    t->pair = PyMem_Calloc(cells, sizeof(int32_t));
    if (t->pair == NULL)
        return PyErr_NoMemory();
    t->built = 1;
    Py_ssize_t pending = ukkonen(t);
    if (cells <= (size_t)t->n_internal) {
        t->table_bytes = cells * sizeof(int32_t);
    }
    else {
        PyMem_Free(t->pair);
        t->pair = NULL;
    }
    t->n_nodes = t->n_internal + t->n_built_leaves;
    /* no node is made after build: keep only the internal nodes made, and
     * the leaf half of the by-reference blocks */
    Py_ssize_t cap = t->cap, internal = t->n_internal;
    t->ns = (int32_t *)shrink(t->ns - cap, (cap + internal) * sizeof(int32_t)) + cap;
    t->fb = (uint8_t *)shrink(t->fb - cap, cap + internal) + cap;
    t->lp = shrink(t->lp, internal * sizeof(int32_t));
    t->sl = shrink(t->sl, internal * sizeof(int32_t));
    t->fc = shrink(t->fc, internal * sizeof(int32_t));
    t->depth = shrink(t->depth, internal * sizeof(int32_t));
    if (pending != 0 && !allow_implicit) {
        PyErr_SetString(PyExc_RuntimeError,
                        "construction left pending suffixes; text lacks a unique terminator");
        return NULL;
    }
    Py_RETURN_NONE;
}

static void raise_library_error(const char *name, const char *message);

static PyObject *
TreeKernel_finalize(TreeKernel *t, PyObject *Py_UNUSED(ignored))
{
    if (t->finalized) {
        raise_library_error("AlreadyFinalized", "index is already finalized");
        return NULL;
    }
    /* no query reads a suffix link or a leaf's fb: drop them before the
     * arrays below are made, so the peak falls by as much */
    PyMem_Free(t->sl);
    t->sl = NULL;
    Py_ssize_t internal = t->n_internal;
    uint8_t *fb = memmove(t->fb + t->fb_from, t->fb, internal);
    t->fb = shrink(fb, internal);
    t->fb_from = 0;
    t->lo = PyMem_New(int32_t, internal);
    t->hi = PyMem_New(int32_t, internal);
    t->leaves = PyMem_New(int32_t, t->n_built_leaves + 1);
    if (!t->lo || !t->hi || !t->leaves) {
        PyMem_Free(t->lo);
        PyMem_Free(t->hi);
        PyMem_Free(t->leaves);
        t->lo = t->hi = t->leaves = NULL;
        return PyErr_NoMemory();
    }
    t->n_leaves = number_leaves(t);
    /* the leaf of suffix 0 is the deepest node */
    t->max_depth = t->n_leaves > 0 ? t->n : 0;
    t->finalized = 1;
    Py_RETURN_NONE;
}

/* Raises strsearch.errors.<name>. The class is looked up here, on the
 * error path, not at module init, so the module also loads on its own. */
static void
raise_library_error(const char *name, const char *message)
{
    PyObject *errors = PyImport_ImportModule("strsearch.errors");
    PyObject *cls = errors != NULL ? PyObject_GetAttrString(errors, name) : NULL;
    Py_XDECREF(errors);
    if (cls != NULL) {
        PyErr_SetString(cls, message);
        Py_DECREF(cls);
    }
}

static int
require_finalized(const TreeKernel *t)
{
    if (!t->finalized) {
        raise_library_error("NotFinalized", "finalize() the index before querying");
        return -1;
    }
    return 0;
}

static Py_ssize_t
public_id(const TreeKernel *t, int32_t r)
{
    return r >= 0 ? r : t->n_internal + ~r;
}

/* Walk a pattern from the root; sets *node to the reference of the locus
 * (0 on a mismatch), *off and *comps as the reference TreeKernel.descend
 * in tests/reference_tree.py does.
 * Returns -1 with an exception set before finalize() or on a bad argument:
 * NotFinalized, TypeError, ValueError if empty, SentinelCollision if it
 * holds a NUL, checked in that order. */
static int
walk(TreeKernel *t, PyObject *arg, int32_t *node, Py_ssize_t *off, Py_ssize_t *comps, Py_ssize_t *m_out)
{
    if (require_finalized(t) < 0)
        return -1;
    if (!PyBytes_Check(arg)) {
        PyErr_Format(PyExc_TypeError, "pattern must be bytes, not %.200s", Py_TYPE(arg)->tp_name);
        return -1;
    }
    const unsigned char *pat = (const unsigned char *)PyBytes_AS_STRING(arg);
    Py_ssize_t m = PyBytes_GET_SIZE(arg);
    if (m == 0) {
        PyErr_SetString(PyExc_ValueError, "empty pattern is not allowed");
        return -1;
    }
    if (memchr(pat, 0, m) != NULL) {
        raise_library_error("SentinelCollision", "pattern contains the text's sentinel byte");
        return -1;
    }
    *m_out = m;
    const unsigned char *d = t->d;
    int32_t v = 0;
    Py_ssize_t i = 0, c = 0;
    *node = 0;
    *off = -1;
    for (;;) {
        c++;
        int32_t w = child(t, v, pat[i]);
        if (w == 0)
            break;
        i++;
        Py_ssize_t label = w > 0 ? t->lp[w] : ~w, start = label + t->depth[v];
        Py_ssize_t end = w > 0 ? label + t->depth[w] : t->n, k = start + 1;
        while (k < end && i < m) {
            c++;
            if (d[k] != pat[i])
                goto done;
            k++;
            i++;
        }
        if (i == m) {
            *node = w;
            *off = k - start;
            break;
        }
        if (w < 0)
            break;  /* the pattern runs past the end of a leaf */
        v = w;
    }
done:
    *comps = c;
    return 0;
}

static PyObject *
TreeKernel_descend(TreeKernel *t, PyObject *arg)
{
    int32_t node;
    Py_ssize_t off, comps, m;
    if (walk(t, arg, &node, &off, &comps, &m) < 0)
        return NULL;
    return Py_BuildValue("(nnn)", node == 0 ? (Py_ssize_t)-1 : public_id(t, node), off, comps);
}

static PyObject *
TreeKernel_count(TreeKernel *t, PyObject *arg)
{
    int32_t node;
    Py_ssize_t off, comps, m;
    if (walk(t, arg, &node, &off, &comps, &m) < 0)
        return NULL;
    if (node == 0)
        return PyLong_FromLong(0);
    return PyLong_FromLong(node < 0 ? 1 : t->hi[node] - t->lo[node]);
}

/* Offsets up to this many are sorted by insertion, more by radix. */
#define INSERTION_SORT_MAX 64
#define RADIX_BITS 8
#define RADIX (1 << RADIX_BITS)

/* Sort k offsets in a, none above max_value, ascending. tmp has room for k
 * more; returns whichever of a and tmp holds the result. */
static int32_t *
sort_offsets(int32_t *a, int32_t *tmp, Py_ssize_t k, int32_t max_value)
{
    if (k <= INSERTION_SORT_MAX) {
        for (Py_ssize_t i = 1; i < k; i++) {
            int32_t x = a[i];
            Py_ssize_t j = i;
            for (; j > 0 && a[j - 1] > x; j--)
                a[j] = a[j - 1];
            a[j] = x;
        }
        return a;
    }
    /* least significant digit first; each pass is stable */
    uint32_t count[RADIX];
    for (int shift = 0; shift < 31 && (shift == 0 || (max_value >> shift) != 0); shift += RADIX_BITS) {
        memset(count, 0, sizeof count);
        for (Py_ssize_t j = 0; j < k; j++)
            count[(a[j] >> shift) & (RADIX - 1)]++;
        if (count[(a[0] >> shift) & (RADIX - 1)] == (uint32_t)k)
            continue;  /* every offset has the same digit here */
        uint32_t sum = 0;
        for (int b = 0; b < RADIX; b++) {
            uint32_t c = count[b];
            count[b] = sum;
            sum += c;
        }
        for (Py_ssize_t j = 0; j < k; j++)
            tmp[count[(a[j] >> shift) & (RADIX - 1)]++] = a[j];
        int32_t *swap = a;
        a = tmp;
        tmp = swap;
    }
    return a;
}

static PyObject *
TreeKernel_collect(TreeKernel *t, PyObject *arg)
{
    int32_t node;
    Py_ssize_t off, comps, m;
    if (walk(t, arg, &node, &off, &comps, &m) < 0)
        return NULL;
    if (node == 0)
        return PyList_New(0);
    int32_t leaf = ~node;
    const int32_t *src = &leaf;
    Py_ssize_t k = 1;
    if (node > 0) {
        src = t->leaves + t->lo[node];
        k = t->hi[node] - t->lo[node];
    }
    int32_t *buf = PyMem_New(int32_t, 2 * k);
    if (buf == NULL)
        return PyErr_NoMemory();
    Py_ssize_t limit = t->n - m;  /* an occurrence must fit inside the text */
    for (Py_ssize_t j = 0; j < k; j++) {
        buf[j] = src[j];
        if (buf[j] > limit) {
            PyMem_Free(buf);
            PyErr_SetString(PyExc_RuntimeError, "leaf below the pattern locus maps past the text");
            return NULL;
        }
    }
    const int32_t *sorted = sort_offsets(buf, buf + k, k, (int32_t)limit);
    PyObject *out = PyList_New(k);
    for (Py_ssize_t j = 0; out != NULL && j < k; j++) {
        PyObject *x = PyLong_FromLong(sorted[j]);
        if (x == NULL)
            Py_CLEAR(out);
        else
            PyList_SET_ITEM(out, j, x);
    }
    PyMem_Free(buf);
    return out;
}

/* ---- introspection ------------------------------------------------------ */

/* Sets *ref to the reference for the public node id arg (0 for the root);
 * returns -1 with IndexError (or TypeError) set if arg names no node. */
static int
node_arg(const TreeKernel *t, PyObject *arg, int32_t *ref)
{
    Py_ssize_t v = PyNumber_AsSsize_t(arg, PyExc_IndexError);
    if (v == -1 && PyErr_Occurred())
        return -1;
    if (v < 0 || v >= t->n_nodes) {
        PyErr_Format(PyExc_IndexError, "node id %zd out of range [0, %zd)", v, t->n_nodes);
        return -1;
    }
    *ref = v < t->n_internal ? (int32_t)v : ~(int32_t)(v - t->n_internal);
    return 0;
}

/* As node_arg, after the NotFinalized check, for what finalize() fills in. */
static int
finalized_node_arg(const TreeKernel *t, PyObject *arg, int32_t *ref)
{
    if (require_finalized(t) < 0 || node_arg(t, arg, ref) < 0)
        return -1;
    return 0;
}

static PyObject *
TreeKernel_is_leaf(TreeKernel *t, PyObject *arg)
{
    int32_t r;
    if (node_arg(t, arg, &r) < 0)
        return NULL;
    return PyBool_FromLong(r < 0);
}

static PyObject *
TreeKernel_children_of(TreeKernel *t, PyObject *arg)
{
    int32_t r;
    if (node_arg(t, arg, &r) < 0)
        return NULL;
    PyObject *out = PyList_New(0);
    for (int32_t w = r >= 0 ? t->fc[r] : 0; out != NULL && w != 0; w = t->ns[w]) {
        PyObject *pair = Py_BuildValue("(in)", first_byte(t, w, t->depth[r]), public_id(t, w));
        if (pair == NULL || PyList_Append(out, pair) < 0)
            Py_CLEAR(out);
        Py_XDECREF(pair);
    }
    return out;
}

static PyObject *
TreeKernel_edge_span(TreeKernel *t, PyObject *arg)
{
    int32_t r;
    if (node_arg(t, arg, &r) < 0)
        return NULL;
    if (r == 0)
        return Py_BuildValue("(ii)", 0, 0);
    /* walk r's path label down from the root to r's parent v */
    int32_t label = r > 0 ? t->lp[r] : ~r, v = 0, w;
    while ((w = child(t, v, t->d[label + t->depth[v]])) != r)
        v = w;
    Py_ssize_t end = r > 0 ? label + t->depth[r] : t->finalized ? t->n : -1;
    return Py_BuildValue("(in)", (int)(label + t->depth[v]), end);
}

static PyObject *
TreeKernel_suffix_link_of(TreeKernel *t, PyObject *arg)
{
    int32_t r;
    if (node_arg(t, arg, &r) < 0)
        return NULL;
    if (r <= 0)
        return PyLong_FromLong(0);
    if (t->sl != NULL)
        return PyLong_FromLong(t->sl[r]);
    /* sl is freed: the link is the internal node one shorter than r on
     * r's path label less its first byte, reached by whole edges */
    const unsigned char *rest = t->d + t->lp[r] + 1;
    int32_t v = 0;
    while (t->depth[v] < t->depth[r] - 1)
        v = child(t, v, rest[t->depth[v]]);
    return PyLong_FromLong(v);
}

static PyObject *
TreeKernel_suffix_index_of(TreeKernel *t, PyObject *arg)
{
    int32_t r;
    if (finalized_node_arg(t, arg, &r) < 0)
        return NULL;
    return PyLong_FromLong(r < 0 ? ~r : -1);
}

static PyObject *
TreeKernel_leaf_count_of(TreeKernel *t, PyObject *arg)
{
    int32_t r;
    if (finalized_node_arg(t, arg, &r) < 0)
        return NULL;
    return PyLong_FromLong(r < 0 ? 1 : t->hi[r] - t->lo[r]);
}

static PyObject *
TreeKernel_path_depth_of(TreeKernel *t, PyObject *arg)
{
    int32_t r;
    if (finalized_node_arg(t, arg, &r) < 0)
        return NULL;
    return PyLong_FromSsize_t(r < 0 ? t->n - ~r : t->depth[r]);
}

static PyMethodDef TreeKernel_methods[] = {
    {"build", (PyCFunction)(void (*)(void))TreeKernel_build, METH_VARARGS | METH_KEYWORDS,
     "build(allow_implicit=False): one Ukkonen pass over the text."},
    {"finalize", (PyCFunction)TreeKernel_finalize, METH_NOARGS,
     "Fill the suffix array and leaf intervals; free the suffix links."},
    {"descend", (PyCFunction)TreeKernel_descend, METH_O,
     "descend(pat) -> (node, offset_within_edge, comparisons); node is -1 on a mismatch."},
    {"count", (PyCFunction)TreeKernel_count, METH_O, "Occurrences of pat in the text."},
    {"collect", (PyCFunction)TreeKernel_collect, METH_O,
     "Sorted start offsets of every occurrence of pat."},
    {"is_leaf", (PyCFunction)TreeKernel_is_leaf, METH_O, NULL},
    {"children_of", (PyCFunction)TreeKernel_children_of, METH_O,
     "(first byte, child id) pairs in ascending byte order."},
    {"edge_span", (PyCFunction)TreeKernel_edge_span, METH_O, NULL},
    {"suffix_link_of", (PyCFunction)TreeKernel_suffix_link_of, METH_O, NULL},
    {"suffix_index_of", (PyCFunction)TreeKernel_suffix_index_of, METH_O, NULL},
    {"leaf_count_of", (PyCFunction)TreeKernel_leaf_count_of, METH_O, NULL},
    {"path_depth_of", (PyCFunction)TreeKernel_path_depth_of, METH_O, NULL},
    {NULL, NULL, 0, NULL},
};

static PyMemberDef TreeKernel_members[] = {
    {"n_nodes", T_PYSSIZET, offsetof(TreeKernel, n_nodes), READONLY, NULL},
    {"n_leaves", T_PYSSIZET, offsetof(TreeKernel, n_leaves), READONLY, NULL},
    {"max_depth", T_PYSSIZET, offsetof(TreeKernel, max_depth), READONLY, NULL},
    {"build_steps", T_PYSSIZET, offsetof(TreeKernel, build_steps), READONLY, NULL},
    {"table_bytes", T_PYSSIZET, offsetof(TreeKernel, table_bytes), READONLY,
     "Bytes of the depth-1 child table kept for queries, 0 if it was dropped."},
    {"built", T_BOOL, offsetof(TreeKernel, built), READONLY, NULL},
    {"finalized", T_BOOL, offsetof(TreeKernel, finalized), READONLY, NULL},
    {NULL, 0, 0, 0, NULL},
};

static PyTypeObject TreeKernelType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "strsearch._tree.TreeKernel",
    .tp_basicsize = sizeof(TreeKernel),
    .tp_dealloc = (destructor)TreeKernel_dealloc,
    .tp_flags = Py_TPFLAGS_DEFAULT,
    .tp_doc = "TreeKernel(data: bytes): suffix tree over sentinel-terminated bytes, "
              "nodes addressed by index; node 0 is the root.",
    .tp_methods = TreeKernel_methods,
    .tp_members = TreeKernel_members,
    .tp_new = TreeKernel_new,
};

static struct PyModuleDef tree_module = {
    PyModuleDef_HEAD_INIT,
    .m_name = "strsearch._tree",
    .m_doc = "Suffix tree kernel in C, with the interface of the reference TreeKernel in tests/reference_tree.py.",
    .m_size = -1,
};

PyMODINIT_FUNC
PyInit__tree(void)
{
    if (PyType_Ready(&TreeKernelType) < 0)
        return NULL;
    PyObject *m = PyModule_Create(&tree_module);
    if (m == NULL)
        return NULL;
    /* bytes per node once finalized: lp, ns, fb, fc, depth, lo and hi for
     * an internal node (sl is freed); ns and a suffix-array entry for a
     * leaf. The depth-1 child table, if kept, adds table_bytes. */
    if (PyModule_AddStringConstant(m, "NAME", "c") < 0 ||
        PyModule_AddIntConstant(m, "INTERNAL_NODE_BYTES", 6 * sizeof(int32_t) + sizeof(uint8_t)) < 0 ||
        PyModule_AddIntConstant(m, "LEAF_NODE_BYTES", 2 * sizeof(int32_t)) < 0 ||
        PyModule_AddObjectRef(m, "TreeKernel", (PyObject *)&TreeKernelType) < 0) {
        Py_DECREF(m);
        return NULL;
    }
    return m;
}
