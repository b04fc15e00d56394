/* Suffix tree kernel in C: the tree behind strsearch.SuffixTreeIndex.
 *
 * It runs the same Ukkonen loop as strsearch._pykernel.TreeKernel and
 * creates nodes in the same order, so node ids, build_steps and every
 * introspection answer equal the Python kernel's; tests compare the two.
 *
 * Layout. Node v lives at index v of int32 arrays: edge start (es), edge
 * end (ee, -1 on a leaf until finalize), suffix link (sl), first child (fc)
 * and next sibling (ns); fb[v] is the first byte of v's edge, so a child
 * hop never reads the text. Sibling chains are sorted by first byte. The
 * root keeps a 256-entry child table instead of a chain, since on printable
 * text it has about a hundred children.
 *
 * finalize() is one iterative depth-first pass in byte order. It freezes
 * leaf ends and fills the path depth of every node, the suffix start of
 * every leaf in lexicographic order (leaves), and a leaf interval
 * [lo, hi) per node: the leaves below v are leaves[lo[v]:hi[v]]. A leaf
 * count is then hi - lo, and enumeration is a sorted copy of one slice.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <structmember.h>
#include <stdint.h>
#include <stdlib.h>

typedef struct {
    PyObject_HEAD
    PyObject *text;           /* the bytes the tree indexes, kept alive */
    const unsigned char *d;
    Py_ssize_t n;             /* len(text) */
    int32_t *es, *ee, *sl, *fc, *ns;
    uint8_t *fb;
    int32_t root[256];        /* child of the root by first byte, or -1 */
    int32_t *depth, *lo, *hi, *leaves;  /* set by finalize */
    Py_ssize_t n_nodes, n_leaves, max_depth, build_steps;
    char built, finalized;
} TreeKernel;

static int32_t
child(const TreeKernel *t, int32_t v, unsigned char b)
{
    if (v == 0)
        return t->root[b];
    int32_t w = t->fc[v];
    while (w >= 0 && t->fb[w] < b)
        w = t->ns[w];
    return (w >= 0 && t->fb[w] == b) ? w : -1;
}

static int
is_leaf(const TreeKernel *t, int32_t v)
{
    return v != 0 && t->fc[v] < 0;
}

/* ---- construction ------------------------------------------------------ */

static int32_t
new_node(TreeKernel *t, int32_t start, int32_t end, unsigned char first)
{
    int32_t v = (int32_t)t->n_nodes++;
    t->es[v] = start;
    t->ee[v] = end;
    t->sl[v] = 0;
    t->fc[v] = -1;
    t->ns[v] = -1;
    t->fb[v] = first;
    return v;
}

/* Ukkonen's pass over the whole text; returns the suffixes left pending. */
static Py_ssize_t
ukkonen(TreeKernel *t)
{
    const unsigned char *d = t->d;
    int32_t *es = t->es, *ee = t->ee, *sl = t->sl, *fc = t->fc, *ns = t->ns;
    uint8_t *fb = t->fb;
    int32_t n = (int32_t)t->n;
    int32_t active_node = 0, active_edge = 0, active_len = 0, remainder = 0;
    Py_ssize_t steps = 0;

    for (int32_t pos = 0; pos < n; pos++) {
        unsigned char c_pos = d[pos];
        int32_t last_internal = -1;
        remainder++;
        while (remainder > 0) {
            steps++;
            if (active_len == 0)
                active_edge = pos;
            unsigned char first = d[active_edge];
            /* find the child on `first`, and the sibling before its slot */
            int32_t prev = -1, nxt;
            if (active_node == 0) {
                nxt = t->root[first];
            }
            else {
                nxt = fc[active_node];
                while (nxt >= 0 && fb[nxt] < first) {
                    prev = nxt;
                    nxt = ns[nxt];
                }
                if (nxt >= 0 && fb[nxt] != first)
                    nxt = -1;
            }
            if (nxt < 0) {
                /* new leaf edge hanging off an existing node */
                int32_t leaf = new_node(t, pos, -1, first);
                if (active_node == 0)
                    t->root[first] = leaf;
                else if (prev < 0) {
                    ns[leaf] = fc[active_node];
                    fc[active_node] = leaf;
                }
                else {
                    ns[leaf] = ns[prev];
                    ns[prev] = leaf;
                }
                if (last_internal >= 0) {
                    sl[last_internal] = active_node;
                    last_internal = -1;
                }
            }
            else {
                int32_t end = ee[nxt];
                int32_t edge_len = (end != -1 ? end : pos + 1) - es[nxt];
                if (active_len >= edge_len) {
                    /* canonicalize: hop over the whole edge */
                    active_node = nxt;
                    active_edge += edge_len;
                    active_len -= edge_len;
                    continue;
                }
                if (d[es[nxt] + active_len] == c_pos) {
                    /* suffix already present implicitly; phase ends */
                    if (last_internal >= 0 && active_node != 0)
                        sl[last_internal] = active_node;
                    active_len++;
                    break;
                }
                /* split the edge; the split node takes nxt's sibling slot */
                int32_t split = new_node(t, es[nxt], es[nxt] + active_len, first);
                ns[split] = ns[nxt];
                if (active_node == 0)
                    t->root[first] = split;
                else if (prev < 0)
                    fc[active_node] = split;
                else
                    ns[prev] = split;
                es[nxt] += active_len;
                fb[nxt] = d[es[nxt]];
                int32_t leaf = new_node(t, pos, -1, c_pos);
                if (fb[nxt] < c_pos) {
                    fc[split] = nxt;
                    ns[nxt] = leaf;
                }
                else {
                    fc[split] = leaf;
                    ns[leaf] = nxt;
                    ns[nxt] = -1;
                }
                if (last_internal >= 0)
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
            }
        }
    }
    t->build_steps = steps;
    return remainder;
}

/* Depth-first pass over the subtree of root child c, children in byte
 * order. hi[v] holds v's parent while v is open and its interval end once
 * closed, so the pass needs no stack. */
static void
number_subtree(TreeKernel *t, int32_t c, int32_t *counter)
{
    int32_t *es = t->es, *ee = t->ee, *fc = t->fc, *ns = t->ns;
    int32_t *depth = t->depth, *lo = t->lo, *hi = t->hi;
    int32_t n = (int32_t)t->n;
    int32_t v = c;
    hi[c] = 0;
    for (;;) {
        int32_t p = hi[v];
        if (ee[v] == -1)
            ee[v] = n;
        depth[v] = depth[p] + ee[v] - es[v];
        lo[v] = *counter;
        if (fc[v] >= 0) {
            hi[fc[v]] = v;
            v = fc[v];
            continue;
        }
        t->leaves[(*counter)++] = n - depth[v];
        if (depth[v] > t->max_depth)
            t->max_depth = depth[v];
        /* close v, then every ancestor whose children are all done */
        for (;;) {
            p = hi[v];
            hi[v] = *counter;
            if (p == 0)
                return;
            if (ns[v] >= 0) {
                hi[ns[v]] = p;
                v = ns[v];
                break;
            }
            v = p;
        }
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
    /* a tree has at most 2n + 1 nodes, and every id must fit in int32 */
    if (n > (INT32_MAX - 1) / 2) {
        PyErr_Format(PyExc_ValueError,
                     "text of %zd bytes is too long for a suffix tree (at most %d bytes)",
                     n, (INT32_MAX - 1) / 2);
        return NULL;
    }
    TreeKernel *t = (TreeKernel *)type->tp_alloc(type, 0);
    if (t == NULL)
        return NULL;
    Py_INCREF(data);
    t->text = data;
    t->d = (const unsigned char *)PyBytes_AS_STRING(data);
    t->n = n;
    Py_ssize_t cap = 2 * n + 1;
    t->es = PyMem_New(int32_t, cap);
    t->ee = PyMem_New(int32_t, cap);
    t->sl = PyMem_New(int32_t, cap);
    t->fc = PyMem_New(int32_t, cap);
    t->ns = PyMem_New(int32_t, cap);
    t->fb = PyMem_New(uint8_t, cap);
    if (!t->es || !t->ee || !t->sl || !t->fc || !t->ns || !t->fb) {
        Py_DECREF(t);
        return PyErr_NoMemory();
    }
    for (int b = 0; b < 256; b++)
        t->root[b] = -1;
    new_node(t, 0, 0, 0);
    return (PyObject *)t;
}

static void
TreeKernel_dealloc(TreeKernel *t)
{
    PyMem_Free(t->es);
    PyMem_Free(t->ee);
    PyMem_Free(t->sl);
    PyMem_Free(t->fc);
    PyMem_Free(t->ns);
    PyMem_Free(t->fb);
    PyMem_Free(t->depth);
    PyMem_Free(t->lo);
    PyMem_Free(t->hi);
    PyMem_Free(t->leaves);
    Py_XDECREF(t->text);
    Py_TYPE(t)->tp_free((PyObject *)t);
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
    t->built = 1;
    if (ukkonen(t) != 0 && !allow_implicit) {
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
    Py_ssize_t nodes = t->n_nodes;
    t->depth = PyMem_New(int32_t, nodes);
    t->lo = PyMem_New(int32_t, nodes);
    t->hi = PyMem_New(int32_t, nodes);
    t->leaves = PyMem_New(int32_t, t->n + 1);
    if (!t->depth || !t->lo || !t->hi || !t->leaves) {
        PyMem_Free(t->depth);
        PyMem_Free(t->lo);
        PyMem_Free(t->hi);
        PyMem_Free(t->leaves);
        t->depth = t->lo = t->hi = t->leaves = NULL;
        return PyErr_NoMemory();
    }
    int32_t counter = 0;
    t->depth[0] = 0;
    t->lo[0] = 0;
    for (int b = 0; b < 256; b++) {
        if (t->root[b] >= 0)
            number_subtree(t, t->root[b], &counter);
    }
    t->hi[0] = counter;
    t->n_leaves = counter;
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

/* Walk a pattern from the root; sets *node (-1 on a mismatch), *off and
 * *comps as _pykernel.TreeKernel.descend does. Returns -1 with an
 * exception set on a bad argument. */
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
    *node = -1;
    *off = -1;
    for (;;) {
        if (is_leaf(t, v))
            break;
        c++;
        int32_t w = child(t, v, pat[i]);
        if (w < 0)
            break;
        i++;
        Py_ssize_t start = t->es[w], end = t->ee[w], k = start + 1;
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
    return Py_BuildValue("(inn)", (int)node, off, comps);
}

static PyObject *
TreeKernel_count(TreeKernel *t, PyObject *arg)
{
    int32_t node;
    Py_ssize_t off, comps, m;
    if (walk(t, arg, &node, &off, &comps, &m) < 0)
        return NULL;
    return PyLong_FromLong(node < 0 ? 0 : (long)(t->hi[node] - t->lo[node]));
}

static int
cmp_int32(const void *a, const void *b)
{
    int32_t x = *(const int32_t *)a, y = *(const int32_t *)b;
    return (x > y) - (x < y);
}

static PyObject *
TreeKernel_collect(TreeKernel *t, PyObject *arg)
{
    int32_t node;
    Py_ssize_t off, comps, m;
    if (walk(t, arg, &node, &off, &comps, &m) < 0)
        return NULL;
    if (node < 0)
        return PyList_New(0);
    Py_ssize_t lo = t->lo[node], k = t->hi[node] - lo;
    int32_t *buf = PyMem_New(int32_t, k);
    if (buf == NULL)
        return PyErr_NoMemory();
    Py_ssize_t limit = t->n - m;  /* an occurrence must fit inside the text */
    for (Py_ssize_t j = 0; j < k; j++) {
        buf[j] = t->leaves[lo + j];
        if (buf[j] > limit) {
            PyMem_Free(buf);
            PyErr_SetString(PyExc_RuntimeError, "leaf below the pattern locus maps past the text");
            return NULL;
        }
    }
    qsort(buf, (size_t)k, sizeof(int32_t), cmp_int32);
    PyObject *out = PyList_New(k);
    for (Py_ssize_t j = 0; out != NULL && j < k; j++) {
        PyObject *x = PyLong_FromLong(buf[j]);
        if (x == NULL)
            Py_CLEAR(out);
        else
            PyList_SET_ITEM(out, j, x);
    }
    PyMem_Free(buf);
    return out;
}

/* ---- introspection ------------------------------------------------------ */

/* The node id arg names, or -1 with IndexError (or TypeError) set. */
static int32_t
node_arg(const TreeKernel *t, PyObject *arg)
{
    Py_ssize_t v = PyNumber_AsSsize_t(arg, PyExc_IndexError);
    if (v == -1 && PyErr_Occurred())
        return -1;
    if (v < 0 || v >= t->n_nodes) {
        PyErr_Format(PyExc_IndexError, "node id %zd out of range [0, %zd)", v, t->n_nodes);
        return -1;
    }
    return (int32_t)v;
}

/* As node_arg, for the answers finalize() fills in. */
static int32_t
finalized_node_arg(const TreeKernel *t, PyObject *arg)
{
    int32_t v = node_arg(t, arg);
    if (v < 0 || require_finalized(t) < 0)
        return -1;
    return v;
}

static PyObject *
TreeKernel_is_leaf(TreeKernel *t, PyObject *arg)
{
    int32_t v = node_arg(t, arg);
    if (v < 0)
        return NULL;
    return PyBool_FromLong(is_leaf(t, v));
}

static int
append_child(PyObject *out, int b, int32_t w)
{
    PyObject *pair = Py_BuildValue("(ii)", b, (int)w);
    int rc = pair == NULL ? -1 : PyList_Append(out, pair);
    Py_XDECREF(pair);
    return rc;
}

static PyObject *
TreeKernel_children_of(TreeKernel *t, PyObject *arg)
{
    int32_t v = node_arg(t, arg);
    if (v < 0)
        return NULL;
    PyObject *out = PyList_New(0);
    int rc = out == NULL ? -1 : 0;
    if (v == 0) {
        for (int b = 0; rc == 0 && b < 256; b++) {
            if (t->root[b] >= 0)
                rc = append_child(out, b, t->root[b]);
        }
    }
    else {
        for (int32_t w = t->fc[v]; rc == 0 && w >= 0; w = t->ns[w])
            rc = append_child(out, t->fb[w], w);
    }
    if (rc < 0)
        Py_CLEAR(out);
    return out;
}

static PyObject *
TreeKernel_edge_span(TreeKernel *t, PyObject *arg)
{
    int32_t v = node_arg(t, arg);
    if (v < 0)
        return NULL;
    return Py_BuildValue("(ii)", (int)t->es[v], (int)t->ee[v]);
}

static PyObject *
TreeKernel_suffix_link_of(TreeKernel *t, PyObject *arg)
{
    int32_t v = node_arg(t, arg);
    if (v < 0)
        return NULL;
    return PyLong_FromLong(t->sl[v]);
}

static PyObject *
TreeKernel_suffix_index_of(TreeKernel *t, PyObject *arg)
{
    int32_t v = finalized_node_arg(t, arg);
    if (v < 0)
        return NULL;
    return PyLong_FromLong(is_leaf(t, v) ? (long)(t->n - t->depth[v]) : -1L);
}

static PyObject *
TreeKernel_leaf_count_of(TreeKernel *t, PyObject *arg)
{
    int32_t v = finalized_node_arg(t, arg);
    if (v < 0)
        return NULL;
    return PyLong_FromLong(t->hi[v] - t->lo[v]);
}

static PyObject *
TreeKernel_path_depth_of(TreeKernel *t, PyObject *arg)
{
    int32_t v = finalized_node_arg(t, arg);
    if (v < 0)
        return NULL;
    return PyLong_FromLong(t->depth[v]);
}

static PyMethodDef TreeKernel_methods[] = {
    {"build", (PyCFunction)(void (*)(void))TreeKernel_build, METH_VARARGS | METH_KEYWORDS,
     "build(allow_implicit=False): one Ukkonen pass over the text."},
    {"finalize", (PyCFunction)TreeKernel_finalize, METH_NOARGS,
     "Freeze leaf ends; fill path depths, the sorted leaf array and leaf intervals."},
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
    if (PyModule_AddStringConstant(m, "NAME", "c") < 0 ||
        PyModule_AddObjectRef(m, "TreeKernel", (PyObject *)&TreeKernelType) < 0) {
        Py_DECREF(m);
        return NULL;
    }
    return m;
}
