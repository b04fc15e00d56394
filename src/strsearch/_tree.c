/* Suffix tree kernel in C: the tree behind strsearch.SuffixTreeIndex.
 *
 * It runs the same Ukkonen loop as strsearch._pykernel.TreeKernel and
 * numbers nodes the same way, so node ids, build_steps and every
 * introspection answer equal the Python kernel's; tests compare the two.
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
 * hop is one load whatever kind of node it lands on, and never reads the
 * text. Only internal nodes have an edge start (es), an edge end (ee), a
 * suffix link (sl), a first child (fc) and a path depth (depth, set when
 * the node is made), in arrays indexed by id. A leaf needs none of these:
 * the leaf of suffix j below node v starts its edge at j + depth[v], and
 * every walk that reaches a leaf comes from its parent; its edge ends at
 * the open frontier (n once finalized), its suffix link is the root, its
 * path depth is n - j and its leaf count 1. Sibling chains are sorted by
 * first byte. The root keeps a 256-entry child table instead of a chain,
 * since on printable text it has about a hundred children. While Ukkonen's
 * pass runs, so do the nodes of path depth 1: build() ranks the sigma byte
 * values that occur and lends the pass a sigma x sigma table of their
 * children, which the pass links into sorted chains at its end and build()
 * then frees. On printable text nearly all sibling hops of the pass would
 * otherwise be at those nodes. build() also gives back the room reserved
 * for internal nodes it did not make.
 *
 * finalize() is one iterative depth-first pass in byte order over the
 * internal nodes; of a leaf it reads only the sibling link. It fills the
 * suffix array (leaves: the leaves' suffix starts in lexicographic order)
 * and a leaf interval [lo, hi) per internal node: the leaves below v are
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
 * ~(n - 1) and edge ends at or below n, so int32 holds them all; the public
 * ids (up to 2n) are Python ints. Tests compile a small limit to reach it. */
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
    uint8_t *fb;              /* by reference, from -cap on */
    int32_t *es, *ee, *sl, *fc, *depth; /* by internal id */
    int32_t root[256];        /* child of the root by first byte, or 0 */
    int32_t *lo, *hi;         /* internal nodes, set by finalize */
    int32_t *leaves;          /* the suffix array, set by finalize */
    Py_ssize_t n_internal, n_built_leaves;
    Py_ssize_t n_nodes, n_leaves, max_depth, build_steps;
    char built, finalized;
} TreeKernel;

static int32_t
child(const TreeKernel *t, int32_t v, unsigned char b)
{
    if (v == 0)
        return t->root[b];
    int32_t w = t->fc[v];
    while (w != 0 && t->fb[w] < b)
        w = t->ns[w];
    return (w != 0 && t->fb[w] == b) ? w : 0;
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
new_internal(TreeKernel *t, int32_t start, int32_t end, int32_t depth, unsigned char first)
{
    int32_t v = (int32_t)t->n_internal++;
    t->es[v] = start;
    t->ee[v] = end;
    t->depth[v] = depth;
    t->sl[v] = 0;
    t->fc[v] = 0;
    t->ns[v] = 0;
    t->fb[v] = first;
    return v;
}

/* Ukkonen's pass over the whole text; returns the suffixes left pending.
 * The children of a node of path depth 1 live in its row of pair during
 * the pass: row rank[b] for the node on byte b, column rank[c] for the child
 * on byte c, sigma columns. The rows become sorted chains before it returns. */
static Py_ssize_t
ukkonen(TreeKernel *t, const uint8_t *rank, int32_t sigma, int32_t *pair)
{
    const unsigned char *d = t->d;
    int32_t *es = t->es, *ee = t->ee, *sl = t->sl, *fc = t->fc, *ns = t->ns;
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
            /* find the child on `first`: in its table slot, or in the chain
             * with the sibling before its slot */
            int32_t *slot = NULL, prev = 0, nxt;
            if (active_node == 0)
                slot = &t->root[first];
            else if (active_depth == 1)
                slot = &pair[rank[fb[active_node]] * sigma + rank[first]];
            if (slot != NULL) {
                nxt = *slot;
            }
            else {
                nxt = fc[active_node];
                while (nxt != 0 && fb[nxt] < first) {
                    prev = nxt;
                    nxt = ns[nxt];
                }
                if (nxt != 0 && fb[nxt] != first)
                    nxt = 0;
            }
            if (nxt == 0) {
                /* new leaf edge hanging off an existing node */
                int32_t leaf = new_leaf(t, first);
                if (slot != NULL)
                    *slot = leaf;
                else if (prev == 0) {
                    ns[leaf] = fc[active_node];
                    fc[active_node] = leaf;
                }
                else {
                    ns[leaf] = ns[prev];
                    ns[prev] = leaf;
                }
                if (last_internal != 0) {
                    sl[last_internal] = active_node;
                    last_internal = 0;
                }
            }
            else {
                int32_t start = nxt > 0 ? es[nxt] : ~nxt + active_depth;
                int32_t edge_len = (nxt > 0 ? ee[nxt] : pos + 1) - start;
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
                /* split the edge; the split node takes nxt's sibling slot */
                int32_t split = new_internal(t, start, start + active_len,
                                             active_depth + active_len, first);
                ns[split] = ns[nxt];
                if (slot != NULL)
                    *slot = split;
                else if (prev == 0)
                    fc[active_node] = split;
                else
                    ns[prev] = split;
                if (nxt > 0)
                    es[nxt] = start + active_len;  /* a leaf's start follows from its new parent */
                unsigned char nb = d[start + active_len];
                fb[nxt] = nb;
                int32_t leaf = new_leaf(t, c_pos);
                if (active_node == 0 && active_len == 1) {
                    /* the split node has path depth 1: its children go in its row */
                    int32_t *row = &pair[rank[first] * sigma];
                    row[rank[nb]] = nxt;
                    row[rank[c_pos]] = leaf;
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
    /* link each depth-1 node's children from its row, in byte order */
    for (int b = 0; b < 256; b++) {
        int32_t v = t->root[b];
        if (v <= 0 || t->depth[v] != 1)
            continue;
        const int32_t *row = &pair[rank[b] * sigma];
        int32_t chain = 0;
        for (int32_t k = sigma - 1; k >= 0; k--) {
            if (row[k] != 0) {
                ns[row[k]] = chain;
                chain = row[k];
            }
        }
        fc[v] = chain;
    }
    t->build_steps = steps;
    return remainder;
}

/* Depth-first pass over the subtree of root child c, children in byte
 * order, appending its leaves to the suffix array from *counter on. hi[v]
 * holds v's parent while v is open and its interval end once closed, so
 * the pass needs no stack. */
static void
number_subtree(TreeKernel *t, int32_t c, int32_t *counter)
{
    const int32_t *fc = t->fc, *ns = t->ns;
    int32_t *lo = t->lo, *hi = t->hi, *leaves = t->leaves;
    int32_t k = *counter;
    if (c < 0) {
        leaves[k++] = ~c;
        *counter = k;
        return;
    }
    int32_t v = c, w;
    hi[c] = 0;
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
            if (p == 0) {
                *counter = k;
                return;
            }
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
    t->es = PyMem_New(int32_t, cap);
    t->ee = PyMem_New(int32_t, cap);
    t->sl = PyMem_New(int32_t, cap);
    t->fc = PyMem_New(int32_t, cap);
    t->depth = PyMem_New(int32_t, cap);
    if (!ns || !fb || !t->es || !t->ee || !t->sl || !t->fc || !t->depth) {
        Py_DECREF(t);
        return PyErr_NoMemory();
    }
    new_internal(t, 0, 0, 0, 0);
    t->n_nodes = 1;
    return (PyObject *)t;
}

static void
TreeKernel_dealloc(TreeKernel *t)
{
    PyMem_Free(t->ns ? t->ns - t->cap : NULL);
    PyMem_Free(t->fb ? t->fb - t->cap : NULL);
    PyMem_Free(t->es);
    PyMem_Free(t->ee);
    PyMem_Free(t->sl);
    PyMem_Free(t->fc);
    PyMem_Free(t->depth);
    PyMem_Free(t->lo);
    PyMem_Free(t->hi);
    PyMem_Free(t->leaves);
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
    if (t->built || t->finalized) {
        PyErr_SetString(PyExc_RuntimeError,
                        t->built ? "kernel already built" : "kernel already finalized");
        return NULL;
    }
    /* rank the bytes that occur, for the depth-1 child table */
    uint8_t seen[256] = {0}, rank[256];
    for (Py_ssize_t i = 0; i < t->n; i++)
        seen[t->d[i]] = 1;
    int32_t sigma = 0;
    for (int b = 0; b < 256; b++) {
        if (seen[b])
            rank[b] = (uint8_t)sigma++;
    }
    int32_t *pair = PyMem_Calloc((size_t)sigma * sigma, sizeof(int32_t));
    if (pair == NULL)
        return PyErr_NoMemory();
    t->built = 1;
    Py_ssize_t pending = ukkonen(t, rank, sigma, pair);
    PyMem_Free(pair);
    t->n_nodes = t->n_internal + t->n_built_leaves;
    /* no node is made after build: keep only the internal nodes made, and
     * the leaf half of the by-reference blocks */
    Py_ssize_t cap = t->cap, internal = t->n_internal;
    t->ns = (int32_t *)shrink(t->ns - cap, (cap + internal) * sizeof(int32_t)) + cap;
    t->fb = (uint8_t *)shrink(t->fb - cap, cap + internal) + cap;
    t->es = shrink(t->es, internal * sizeof(int32_t));
    t->ee = shrink(t->ee, internal * sizeof(int32_t));
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

static PyObject *
TreeKernel_finalize(TreeKernel *t, PyObject *Py_UNUSED(ignored))
{
    if (t->finalized) {
        PyErr_SetString(PyExc_RuntimeError, "kernel already finalized");
        return NULL;
    }
    Py_ssize_t internal = t->n_internal;
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
    int32_t counter = 0;
    t->lo[0] = 0;
    for (int b = 0; b < 256; b++) {
        if (t->root[b] != 0)
            number_subtree(t, t->root[b], &counter);
    }
    t->hi[0] = counter;
    t->n_leaves = counter;
    /* the leaf of suffix 0 is the deepest node */
    t->max_depth = counter > 0 ? t->n : 0;
    t->finalized = 1;
    Py_RETURN_NONE;
}

static int
require_finalized(const TreeKernel *t)
{
    if (!t->finalized) {
        PyErr_SetString(PyExc_RuntimeError, "finalize() the kernel before querying");
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
 * (0 on a mismatch), *off and *comps as _pykernel.TreeKernel.descend does.
 * Returns -1 with an exception set on a bad argument. */
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
        Py_ssize_t start = w > 0 ? t->es[w] : ~w + t->depth[v];
        Py_ssize_t end = w > 0 ? t->ee[w] : t->n, k = start + 1;
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

/* As node_arg, for the answers finalize() fills in. */
static int
finalized_node_arg(const TreeKernel *t, PyObject *arg, int32_t *ref)
{
    if (node_arg(t, arg, ref) < 0 || require_finalized(t) < 0)
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

static int
append_child(PyObject *out, const TreeKernel *t, int b, int32_t w)
{
    PyObject *pair = Py_BuildValue("(in)", b, public_id(t, w));
    int rc = pair == NULL ? -1 : PyList_Append(out, pair);
    Py_XDECREF(pair);
    return rc;
}

static PyObject *
TreeKernel_children_of(TreeKernel *t, PyObject *arg)
{
    int32_t r;
    if (node_arg(t, arg, &r) < 0)
        return NULL;
    PyObject *out = PyList_New(0);
    int rc = out == NULL ? -1 : 0;
    if (r == 0) {
        for (int b = 0; rc == 0 && b < 256; b++) {
            if (t->root[b] != 0)
                rc = append_child(out, t, b, t->root[b]);
        }
    }
    else if (r > 0) {
        for (int32_t w = t->fc[r]; rc == 0 && w != 0; w = t->ns[w])
            rc = append_child(out, t, t->fb[w], w);
    }
    if (rc < 0)
        Py_CLEAR(out);
    return out;
}

static PyObject *
TreeKernel_edge_span(TreeKernel *t, PyObject *arg)
{
    int32_t r;
    if (node_arg(t, arg, &r) < 0)
        return NULL;
    if (r >= 0)
        return Py_BuildValue("(ii)", (int)t->es[r], (int)t->ee[r]);
    /* the leaf of suffix j: walk text[j:] down from the root to its parent v */
    int32_t j = ~r, v = 0, w;
    while ((w = child(t, v, t->d[j + t->depth[v]])) > 0)
        v = w;
    return Py_BuildValue("(in)", (int)(j + t->depth[v]), t->finalized ? t->n : (Py_ssize_t)-1);
}

static PyObject *
TreeKernel_suffix_link_of(TreeKernel *t, PyObject *arg)
{
    int32_t r;
    if (node_arg(t, arg, &r) < 0)
        return NULL;
    return PyLong_FromLong(r >= 0 ? t->sl[r] : 0);
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
     "Freeze leaf ends; fill the suffix array and leaf intervals."},
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
    .m_doc = "Suffix tree kernel in C, with the interface of strsearch._pykernel.TreeKernel.",
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
    /* bytes per node once finalized: es, ns, fb, ee, sl, fc, depth, lo and
     * hi for an internal node; ns, fb and a suffix-array entry for a leaf */
    if (PyModule_AddStringConstant(m, "NAME", "c") < 0 ||
        PyModule_AddIntConstant(m, "INTERNAL_NODE_BYTES", 8 * sizeof(int32_t) + sizeof(uint8_t)) < 0 ||
        PyModule_AddIntConstant(m, "LEAF_NODE_BYTES", 2 * sizeof(int32_t) + sizeof(uint8_t)) < 0 ||
        PyModule_AddObjectRef(m, "TreeKernel", (PyObject *)&TreeKernelType) < 0) {
        Py_DECREF(m);
        return NULL;
    }
    return m;
}
