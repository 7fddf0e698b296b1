/*
 * The compiled kernel: the nerve's tuple search with its face tables, and
 * the column reductions of a boundary given by its face table, over GF(q)
 * or Z, and of the coboundary whose transpose it is, over GF(q).
 *
 * Each entry has the contract of its twin in ``_reduction_py``.  Input
 * outside it raises ValueError, or TypeError for something other than a
 * buffer or a number; arrays are read through the buffer protocol and
 * must be C-contiguous with the stated element type.  Memory comes from
 * PyMem_*, so tracemalloc sees it.
 *
 * ``expand(w, p, max_dim, limit)`` finds every finite-birth nondegenerate
 * tuple of degree <= max_dim, depth first, one tuple at a time, and
 * returns each degree sorted by (birth, vertices), with its face table.
 * ``w`` is the n x n float64 matrix of p-th-power distances (plain
 * distances at p = inf).  A tuple's reach row holds, per vertex u, the
 * longest-chain value of the tuple extended by u; its children are the
 * finite entries off its last vertex, stored (last vertex, its own row,
 * code of top = reach[u]) in the next degree, and a child's reach is
 * max(reach, top + w[u]) (max(reach, max(top, w[u])) at p = inf): the one
 * IEEE addition or maximum per candidate that ``membership_scale`` makes.
 * A tuple's children are stored together, when it is visited, and the
 * tuples of a degree are visited in row order, so every degree is found
 * in lexicographic order.  The budget is checked before each tuple is
 * stored.  A degree has few distinct tops, so each gets a code, in the
 * order first seen, from a hash table keyed on its value (-0.0 and +0.0
 * share one).  After the search each degree's distinct tops are powered
 * to births (top^(1/p) by libm's pow, the call Python's float ** makes,
 * and 0 for a top of 0; the top itself at p = inf) and sorted, tops with
 * one birth merge, and a stable counting sort by birth puts the rows in
 * (birth, vertices) order.  Per degree k the result is the column-major
 * int32 vertex matrix, the increasing distinct births (float64), each
 * row's index among them (intp) and the face table (intp, rows x (k + 1)):
 * entry [r, i] is the row one degree down of tuple r with vertex i
 * deleted, or -1 where that face is degenerate, and the last column is
 * the prefix, renumbered to that order (-1 at degree 0).  Deleting vertex
 * i < k from a tuple is deleting i from its prefix (face F, a row two
 * degrees down) and appending its last vertex v.  The children of F one
 * degree down were found together, in last-vertex order, so (F, v) is one
 * binary search among them.  The result ends at max_dim or at the first
 * empty degree: every prefix is a tuple.  The search state grows with the
 * tuples and the depth actually reached.  A sum that overflows is inf.
 * The budget ``limit`` is an int >= 0; a float raises TypeError.
 *
 * ``reduce_faces(table, nrows, q, floor)`` reduces columns left to
 * right.  ``table`` is a 2-d int64 buffer: row j lists the faces of
 * column j, entry i a row index in [0, nrows) with the sign (-1)^i, or -1
 * for a face not kept; no row may repeat within a column.  ``floor`` is a
 * 1-d int64 buffer with the lowest row each column keeps: a face below
 * it counts as absent, as -1 does.  It returns a new int64 array with
 * the lowest row of each reduced column, or -1 where it reduces to zero.
 * q is a prime below 2^31, so that a product of two residues fits in
 * int64, or 0 for the integers: then every pivot must be +-1 and every
 * entry must stay below 2^63 in magnitude, and it returns None as soon
 * as either fails.  Each column's kept faces are sorted in place of a
 * small working column.  While its lowest row is the low of an earlier
 * column, the multiple of that column that cancels it is added.  A
 * column left nonzero is a pivot: it is scaled so that its low entry is 1
 * and appended to one pool, and ``pivot[row]`` records where.
 *
 * ``reduce_cofaces(table, nrows, q, cleared)`` reduces the coboundary
 * delta_k over GF(q), given the face table of d_(k+1) as for
 * ``reduce_faces`` (every face kept): its anti-transpose, with one column
 * per row of degree k, youngest first, whose pivot is its oldest coface
 * (de Silva, Morozov and Vejdemo-Johansson, "Dualities in persistent
 * (co)homology", 2011: the pairs are those of d_(k+1)).  ``cleared`` is a
 * 1-d bool buffer with one entry per row; a marked row, a pivot of
 * delta_(k-1), is skipped, since its column would reduce to zero (Chen
 * and Kerber, "Persistent homology computation with a twist", 2011).  It
 * returns a new int64 array with each row's pivot coface, or -1 where its
 * column is cleared or reduces to zero.  The transpose is built by a
 * counting sort on the face rows, in O(entries), each entry with the sign
 * (-1)^i of its face position i, and every column goes through the one
 * column loop that ``reduce_faces`` runs, ``reduce_column``.  Most
 * columns become pivots as they stand; such a pivot is read where it is
 * in the transpose, and only a column that was added to is copied to the
 * pool.
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <limits.h>
#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define MAX_ORDER ((int64_t)1 << 31)

typedef struct {
    int64_t *rows;
    int64_t *coeffs;
    Py_ssize_t size;
    Py_ssize_t cap;
} Column;

/* a^(q-2) = 1/a mod q, by Fermat: q is prime and a != 0 mod q */
static int64_t mod_inverse(int64_t a, int64_t q)
{
    int64_t result = 1;
    for (int64_t e = q - 2; e > 0; e >>= 1) {
        if (e & 1)
            result = result * a % q;
        a = a * a % q;
    }
    return result;
}

/* room for need entries; grows geometrically, so a pool appended to
   column by column reallocates O(log size) times */
static int reserve(Column *c, Py_ssize_t need)
{
    if (c->cap >= need)
        return 0;
    Py_ssize_t cap = c->cap > need / 2 ? 2 * c->cap : need;
    int64_t *rows = PyMem_Realloc(c->rows, cap * sizeof(int64_t));
    if (rows != NULL)
        c->rows = rows;
    int64_t *coeffs = PyMem_Realloc(c->coeffs, cap * sizeof(int64_t));
    if (coeffs != NULL)
        c->coeffs = coeffs;
    if (rows == NULL || coeffs == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    c->cap = cap;
    return 0;
}

/* x - f * y over Z, flagged (1) when it or the product reaches 2^63 */
static int checked_axpy(int64_t x, int64_t f, int64_t y, int64_t *out)
{
    int64_t p;
    if (__builtin_mul_overflow(f, y, &p) || p == INT64_MIN
        || __builtin_sub_overflow(x, p, out) || *out == INT64_MIN)
        return 1;
    return 0;
}

/* dst = a - f * b over GF(q), or over Z when q is 0, for sparse a and b
   with increasing rows; dst is storage apart from a and b.  0, -1 with an
   exception set, or 1 on overflow over Z. */
static int axpy(Column *dst, const int64_t *a_rows, const int64_t *a_coeffs,
                Py_ssize_t a_size, const int64_t *b_rows,
                const int64_t *b_coeffs, Py_ssize_t b_size, int64_t f,
                int64_t q)
{
    Py_ssize_t i = 0, k = 0, n = 0;
    int64_t scale = q - f;  /* -f mod q, for f in [1, q) */
    if (reserve(dst, a_size + b_size) < 0)
        return -1;
    while (i < a_size || k < b_size) {
        int64_t c;
        if (k >= b_size || (i < a_size && a_rows[i] < b_rows[k])) {
            dst->rows[n] = a_rows[i];
            dst->coeffs[n++] = a_coeffs[i++];
            continue;
        }
        int both = i < a_size && a_rows[i] == b_rows[k];
        int64_t x = both ? a_coeffs[i++] : 0;
        if (q == 0) {
            if (checked_axpy(x, f, b_coeffs[k], &c))
                return 1;
        } else
            c = (x + b_coeffs[k] * scale) % q;
        if (c != 0) {
            dst->rows[n] = b_rows[k];
            dst->coeffs[n++] = c;
        }
        k++;
    }
    dst->size = n;
    return 0;
}

/* element types of the buffers the entries read */
enum { INT64, FLOAT64, BOOL };
static const char *const type_names[] = {"int64", "float64", "bool"};

/* The buffer of obj with the given ndim and element type, C-contiguous;
   ValueError otherwise. */
static int typed_buffer(PyObject *obj, Py_buffer *view, int ndim, int type,
                        const char *what)
{
    if (PyObject_GetBuffer(obj, view, PyBUF_RECORDS_RO) < 0)
        return -1;
    const char *fmt = view->format == NULL ? "B" : view->format;
    if (*fmt == '@' || *fmt == '=')
        fmt++;
    int ok;
    if (type == INT64)
        ok = view->itemsize == 8 && (strcmp(fmt, "q") == 0
                                     || (strcmp(fmt, "l") == 0 && sizeof(long) == 8));
    else if (type == FLOAT64)
        ok = view->itemsize == 8 && strcmp(fmt, "d") == 0;
    else
        ok = view->itemsize == 1 && strcmp(fmt, "?") == 0;
    if (view->ndim != ndim || !ok || !PyBuffer_IsContiguous(view, 'C')) {
        PyErr_Format(PyExc_ValueError, "%s must be a %d-d C-contiguous %s "
                     "array", what, ndim, type_names[type]);
        PyBuffer_Release(view);
        return -1;
    }
    return 0;
}

/* *buf to hold cap items of the given size; 0, or -1 with MemoryError */
static int resize(void *buf, Py_ssize_t cap, size_t item)
{
    if ((size_t)cap > (size_t)PY_SSIZE_T_MAX / item) {
        PyErr_NoMemory();
        return -1;
    }
    void *grown = PyMem_Realloc(*(void **)buf, cap * item);
    if (grown == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    *(void **)buf = grown;
    return 0;
}

/* The tuples of one degree found so far: per tuple its last vertex, its
   prefix row and the code of its top chain value, and the distinct tops
   in the order they were first seen, found through a hash table keyed
   on the top's value. */
typedef struct {
    int32_t *last;
    Py_ssize_t *parent;
    Py_ssize_t *code;
    Py_ssize_t size;
    Py_ssize_t cap;
    double *tops;
    Py_ssize_t ntops;
    Py_ssize_t *slots;  /* 1 + the code of a top, or 0 for an empty slot */
    Py_ssize_t mask;    /* the number of slots (a power of two) less one */
} Level;

/* room for need tuples; grows geometrically */
static int level_reserve(Level *level, Py_ssize_t need)
{
    if (level->cap >= need)
        return 0;
    Py_ssize_t cap = level->cap > need / 2 ? 2 * level->cap : need;
    if (resize(&level->last, cap, sizeof(int32_t)) < 0
        || resize(&level->parent, cap, sizeof(Py_ssize_t)) < 0
        || resize(&level->code, cap, sizeof(Py_ssize_t)) < 0)
        return -1;
    level->cap = cap;
    return 0;
}

static void level_free(Level *level)
{
    PyMem_Free(level->last);
    PyMem_Free(level->parent);
    PyMem_Free(level->code);
    PyMem_Free(level->tops);
    PyMem_Free(level->slots);
    *level = (Level){0};
}

/* the first slot to probe for a top: its bits mixed by MurmurHash3's
   finalizer, since the low bits of a whole number's double are all 0 */
static inline Py_ssize_t top_slot(double top, Py_ssize_t mask)
{
    uint64_t bits;
    memcpy(&bits, &top, sizeof bits);
    bits ^= bits >> 33;
    bits *= 0xFF51AFD7ED558CCDu;
    bits ^= bits >> 33;
    bits *= 0xC4CEB9FE1A85EC53u;
    bits ^= bits >> 33;
    return (Py_ssize_t)(bits & (uint64_t)mask);
}

/* The code of a top in its level, the next one if the top is new; -1
   with MemoryError.  The table is kept at most half full. */
static Py_ssize_t top_code(Level *level, double top)
{
    top += 0.0;  /* -0.0 and +0.0 are one top */
    if (2 * (level->ntops + 1) > level->mask + 1) {
        Py_ssize_t slots = level->slots == NULL ? 16 : 2 * (level->mask + 1);
        if (resize(&level->tops, slots / 2, sizeof(double)) < 0
            || resize(&level->slots, slots, sizeof(Py_ssize_t)) < 0)
            return -1;
        memset(level->slots, 0, slots * sizeof(Py_ssize_t));
        level->mask = slots - 1;
        for (Py_ssize_t c = 0; c < level->ntops; c++) {
            Py_ssize_t h = top_slot(level->tops[c], level->mask);
            while (level->slots[h] != 0)
                h = (h + 1) & level->mask;
            level->slots[h] = c + 1;
        }
    }
    for (Py_ssize_t h = top_slot(top, level->mask);; h = (h + 1) & level->mask) {
        Py_ssize_t s = level->slots[h];
        if (s == 0) {
            level->tops[level->ntops] = top;
            level->slots[h] = ++level->ntops;
            return level->ntops - 1;
        }
        if (level->tops[s - 1] == top)
            return s - 1;
    }
}

/* numpy's maximum: b unless a is larger, and NaN if either is NaN */
static inline double maximum(double a, double b)
{
    return a > b || a != a ? a : b;
}

/* numpy.empty, a new reference; NULL with an exception */
static PyObject *numpy_empty(void)
{
    PyObject *numpy = PyImport_ImportModule("numpy");
    PyObject *empty = numpy ? PyObject_GetAttrString(numpy, "empty") : NULL;
    Py_XDECREF(numpy);
    return empty;
}

/* A new numpy.empty array of rows (by cols unless cols < 0) items of the
   given dtype, column-major ("F") or row-major ("C"), with its data in
   *data. */
static PyObject *new_array(PyObject *empty, Py_ssize_t rows, Py_ssize_t cols,
                           const char *dtype, const char *order, void *data)
{
    PyObject *args = cols < 0 ? Py_BuildValue("((n)s)", rows, dtype)
                              : Py_BuildValue("((nn)s)", rows, cols, dtype);
    PyObject *kwargs = args ? Py_BuildValue("{ss}", "order", order) : NULL;
    PyObject *array = kwargs ? PyObject_Call(empty, args, kwargs) : NULL;
    Py_XDECREF(args);
    Py_XDECREF(kwargs);
    Py_buffer view;
    int layout = *order == 'F' ? PyBUF_F_CONTIGUOUS : PyBUF_C_CONTIGUOUS;
    if (array == NULL
        || PyObject_GetBuffer(array, &view, PyBUF_WRITABLE | layout) < 0) {
        Py_XDECREF(array);
        return NULL;
    }
    *(void **)data = view.buf;
    PyBuffer_Release(&view);
    return array;
}

/* a birth and the code of the top it is powered from */
typedef struct {
    double birth;
    Py_ssize_t code;
} Birth;

static int birth_order(const void *a, const void *b)
{
    double x = ((const Birth *)a)->birth, y = ((const Birth *)b)->birth;
    return (x > y) - (x < y);
}

/* What sorting a degree leaves for the next one: of that degree, the
   sorted row of each row in search order, the last vertices in search
   order, the column-major vertex matrix and the face table, and the rows
   with each prefix.  Those with prefix F, a sorted row one degree down,
   are the search rows first[F] .. first[F] + count[F] - 1: the search
   stores a tuple's children together, in last-vertex order. */
typedef struct {
    Py_ssize_t *rank;
    int32_t *last;
    const int32_t *verts;
    const Py_ssize_t *faces;
    Py_ssize_t rows;
    Py_ssize_t *first;
    Py_ssize_t *count;
} Below;

static void below_free(Below *below)
{
    PyMem_Free(below->rank);
    PyMem_Free(below->last);
    PyMem_Free(below->first);
    PyMem_Free(below->count);
    *below = (Below){0};
}

/* Faces 0..k-1 of a tuple of degree k >= 2 whose prefix has the face
   table row inner and whose last vertex is v: face i is the child with
   last vertex v of the prefix's face i, among the rows of below, or -1
   where there is none (a degenerate face). */
static void face_row(const Below *below, const Py_ssize_t *inner, int32_t v,
                     Py_ssize_t k, Py_ssize_t *out)
{
    for (Py_ssize_t i = 0; i < k; i++) {
        Py_ssize_t f = inner[i], found = -1;
        if (f >= 0 && below->count[f] > 0) {
            /* the last child with a last vertex <= v; a select, not a
               branch, halves the run, so no step is mispredicted */
            const int32_t *kid = below->last + below->first[f];
            for (Py_ssize_t n = below->count[f]; n > 1; n -= n / 2)
                kid = kid[n / 2] <= v ? kid + n / 2 : kid;
            if (*kid == v)
                found = below->rank[kid - below->last];
        }
        out[i] = found;
    }
}

/* (tuples, level, code, faces) of degree k, whose tuples the
   search found in lexicographic order, sorted by (birth, vertices);
   below is the degree under it, and becomes this one, which takes the
   level's last vertices. */
static PyObject *sorted_level(PyObject *empty, Level *level, Py_ssize_t k,
                              double p, Below *below)
{
    Py_ssize_t rows = level->size, m = level->ntops, nlevel = 0;
    /* the rows of degree k - 1, at least one */
    Py_ssize_t up = k > 0 && below->rows > 0 ? below->rows : 1;
    Birth *births = PyMem_Malloc((m > 0 ? m : 1) * sizeof(Birth));
    Py_ssize_t *merged = PyMem_Malloc((m > 0 ? m : 1) * sizeof(Py_ssize_t));
    Py_ssize_t *rank = PyMem_Malloc((rows > 0 ? rows : 1) * sizeof(Py_ssize_t));
    Py_ssize_t *start = PyMem_Calloc(m + 1, sizeof(Py_ssize_t));
    Py_ssize_t *first = PyMem_Malloc(up * sizeof(Py_ssize_t));
    Py_ssize_t *count = PyMem_Calloc(up, sizeof(Py_ssize_t));
    PyObject *tuples = NULL, *values = NULL, *codes = NULL, *faces = NULL;
    PyObject *result = NULL;
    int32_t *verts;
    Py_ssize_t *code, *table;
    double *value;

    if (births == NULL || merged == NULL || rank == NULL || start == NULL
        || first == NULL || count == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    /* Python's float ** is libm's pow, so births match membership_scale */
    for (Py_ssize_t c = 0; c < m; c++) {
        double top = level->tops[c];
        births[c].birth = p == INFINITY ? top
                          : top > 0.0 ? pow(top, 1.0 / p) : 0.0;
        births[c].code = c;
    }
    qsort(births, m, sizeof(Birth), birth_order);
    /* tops that power to one birth merge, so that rows with equal births
       keep their lexicographic order */
    for (Py_ssize_t i = 0; i < m; i++) {
        if (nlevel == 0 || births[i].birth != births[nlevel - 1].birth)
            births[nlevel++].birth = births[i].birth;
        merged[births[i].code] = nlevel - 1;
    }
    values = new_array(empty, nlevel, -1, "float64", "F", &value);
    tuples = values ? new_array(empty, rows, k + 1, "int32", "F", &verts) : NULL;
    codes = tuples ? new_array(empty, rows, -1, "intp", "F", &code) : NULL;
    faces = codes ? new_array(empty, rows, k + 1, "intp", "C", &table) : NULL;
    if (faces == NULL)
        goto done;
    for (Py_ssize_t b = 0; b < nlevel; b++)
        value[b] = births[b].birth;
    /* a stable counting sort by birth keeps each birth's rows in search
       order, which is lexicographic */
    for (Py_ssize_t r = 0; r < rows; r++)
        start[merged[level->code[r]] + 1]++;
    for (Py_ssize_t b = 0; b < nlevel; b++)
        start[b + 1] += start[b];
    for (Py_ssize_t r = 0; r < rows; r++) {
        Py_ssize_t b = merged[level->code[r]], j = start[b]++;
        Py_ssize_t f = k > 0 ? below->rank[level->parent[r]] : -1;
        Py_ssize_t *out = table + j * (k + 1);
        int32_t v = level->last[r];
        rank[r] = j;
        code[j] = b;
        if (k > 0 && count[f]++ == 0)
            first[f] = r;
        /* each row is its prefix's row, then its last vertex */
        for (Py_ssize_t i = 0; i < k; i++)
            verts[i * rows + j] = below->verts[i * below->rows + f];
        verts[k * rows + j] = v;
        if (k == 1)
            out[0] = v;  /* degree-0 rows are the vertices */
        else if (k > 1)
            face_row(below, below->faces + f * k, v, k, out);
        out[k] = f;  /* the last face is the prefix */
    }
    result = PyTuple_Pack(4, tuples, values, codes, faces);
    if (result != NULL) {
        below_free(below);
        *below = (Below){rank, level->last, verts, table, rows, first, count};
        level->last = NULL;
        rank = first = count = NULL;
    }
done:
    PyMem_Free(births);
    PyMem_Free(merged);
    PyMem_Free(rank);
    PyMem_Free(start);
    PyMem_Free(first);
    PyMem_Free(count);
    Py_XDECREF(tuples);
    Py_XDECREF(values);
    Py_XDECREF(codes);
    Py_XDECREF(faces);
    return result;
}

/* obj as a count >= 0, clamped below PY_SSIZE_T_MAX, which no search
   reaches; -1 with ValueError for a negative int, TypeError for no int */
static Py_ssize_t count_arg(PyObject *obj, const char *what)
{
    int overflow;
    long long value = PyLong_AsLongLongAndOverflow(obj, &overflow);
    if (value == -1 && PyErr_Occurred())
        return -1;
    if (overflow < 0 || (overflow == 0 && value < 0)) {
        PyErr_Format(PyExc_ValueError, "%s must be >= 0, got %R", what, obj);
        return -1;
    }
    return overflow > 0 || value >= PY_SSIZE_T_MAX ? PY_SSIZE_T_MAX - 1
                                                   : (Py_ssize_t)value;
}

/* lpnerve.values.BudgetExceededError for the given limit */
static void budget_exceeded(PyObject *limit)
{
    PyObject *values = PyImport_ImportModule("lpnerve.values");
    if (values == NULL)
        return;
    PyObject *error = PyObject_GetAttrString(values, "BudgetExceededError");
    Py_DECREF(values);
    if (error == NULL)
        return;
    PyErr_Format(error, "tuple count exceeded the budget of %S", limit);
    Py_DECREF(error);
}

static PyObject *expand(PyObject *self, PyObject *args, PyObject *kwargs)
{
    static char *keywords[] = {"w", "p", "max_dim", "limit", NULL};
    PyObject *w_obj, *p_obj, *max_dim_obj, *limit_obj, *result = NULL;
    PyObject *empty = NULL;
    Py_buffer w_view = {0};
    Level *levels = NULL;  /* one per degree reached, room for depths + 1 */
    Py_ssize_t nlevels = 0;
    /* per depth: the next row to visit, the end of its run, and the reach
       row of the tuple visited there */
    Py_ssize_t *cursor = NULL, *end = NULL, depths = 0;
    double *reach = NULL;
    Below below = {0};

    (void)self;
    if (!PyArg_ParseTupleAndKeywords(args, kwargs, "OOOO:expand", keywords,
                                     &w_obj, &p_obj, &max_dim_obj, &limit_obj))
        return NULL;
    double p = PyFloat_AsDouble(p_obj);
    if (p == -1.0 && PyErr_Occurred())
        return NULL;
    if (!(p >= 1.0))
        return PyErr_Format(PyExc_ValueError, "p must lie in [1, inf], got %R",
                            p_obj);
    int at_inf = p == INFINITY;
    /* at most `most` tuples: storing one more makes the count exceed limit */
    Py_ssize_t most, max_dim = count_arg(max_dim_obj, "max_dim");
    if (max_dim < 0 || (most = count_arg(limit_obj, "limit")) < 0)
        return NULL;
    if (typed_buffer(w_obj, &w_view, 2, FLOAT64, "w") < 0)
        return NULL;
    const double *w = w_view.buf;
    Py_ssize_t n = w_view.shape[0];
    if (w_view.shape[1] != n) {
        PyErr_Format(PyExc_ValueError, "w must be square, got %zd x %zd", n,
                     w_view.shape[1]);
        goto done;
    }
    if (n > INT32_MAX) {
        PyErr_Format(PyExc_ValueError, "w has %zd points, more than 2^31 - 1", n);
        goto done;
    }
    if (n > most) {
        budget_exceeded(limit_obj);
        goto done;
    }
    if (resize(&levels, 1, sizeof(Level)) < 0)
        goto done;
    levels[0] = (Level){0};
    nlevels = 1;
    if (level_reserve(&levels[0], n) < 0)
        goto done;
    for (Py_ssize_t v = 0; v < n; v++) {
        levels[0].last[v] = (int32_t)v;
        levels[0].parent[v] = -1;
        if ((levels[0].code[v] = top_code(&levels[0], 0.0)) < 0)
            goto done;
    }
    levels[0].size = n;
    Py_ssize_t total = n, depth = 0;
    if (max_dim > 0 && n > 0) {
        if (resize(&cursor, 1, sizeof(Py_ssize_t)) < 0
            || resize(&end, 1, sizeof(Py_ssize_t)) < 0
            || resize(&reach, n, sizeof(double)) < 0
            || resize(&levels, 2, sizeof(Level)) < 0)
            goto done;
        depths = 1;
        cursor[0] = 0;
        end[0] = n;
    } else
        depth = -1;
    while (depth >= 0) {
        if (cursor[depth] == end[depth]) {
            depth--;
            continue;
        }
        Py_ssize_t r = cursor[depth]++;
        Py_ssize_t v = levels[depth].last[r];
        const double *wv = w + v * n;
        double *row = reach + depth * n;
        if (depth == 0)
            memcpy(row, wv, n * sizeof(double));
        else {
            const double *up = row - n;  /* the reach of the prefix */
            double top = levels[depth].tops[levels[depth].code[r]];
            if (at_inf)
                for (Py_ssize_t u = 0; u < n; u++)
                    row[u] = maximum(up[u], maximum(top, wv[u]));
            else
                for (Py_ssize_t u = 0; u < n; u++)
                    row[u] = maximum(up[u], top + wv[u]);
        }
        if (depth + 1 == nlevels)  /* the first tuple to reach a degree */
            levels[nlevels++] = (Level){0};
        Level *children = &levels[depth + 1];
        if (level_reserve(children, children->size + n) < 0)
            goto done;
        Py_ssize_t first = children->size, size = first;
        for (Py_ssize_t u = 0; u < n; u++) {
            if (u == v || !(row[u] < INFINITY))
                continue;
            if (total == most) {
                budget_exceeded(limit_obj);
                goto done;
            }
            total++;
            children->last[size] = (int32_t)u;
            children->parent[size] = r;
            if ((children->code[size++] = top_code(children, row[u])) < 0)
                goto done;
        }
        children->size = size;
        if (depth + 1 < max_dim && size > first) {
            if (depth + 1 == depths) {  /* one more reach row, as deep */
                Py_ssize_t more = 2 * depths;
                if (resize(&cursor, more, sizeof(Py_ssize_t)) < 0
                    || resize(&end, more, sizeof(Py_ssize_t)) < 0
                    || resize(&reach, more * n, sizeof(double)) < 0
                    || resize(&levels, more + 1, sizeof(Level)) < 0)
                    goto done;
                depths = more;
            }
            depth++;
            cursor[depth] = first;
            end[depth] = size;
        }
    }
    if ((empty = numpy_empty()) == NULL)
        goto done;
    PyObject *found = PyList_New(nlevels);
    if (found == NULL)
        goto done;
    for (Py_ssize_t k = 0; k < nlevels; k++) {
        PyObject *sorted = sorted_level(empty, &levels[k], k, p, &below);
        level_free(&levels[k]);  /* drop the search's arrays once sorted */
        if (sorted == NULL) {
            Py_DECREF(found);
            goto done;
        }
        PyList_SET_ITEM(found, k, sorted);
    }
    result = found;
done:
    for (Py_ssize_t k = 0; k < nlevels; k++)
        level_free(&levels[k]);
    PyMem_Free(levels);
    PyMem_Free(cursor);
    PyMem_Free(end);
    PyMem_Free(reach);
    below_free(&below);
    Py_XDECREF(empty);
    if (w_view.obj != NULL)
        PyBuffer_Release(&w_view);
    return result;
}

/* nrows as a count of rows in [0, 2^63), or -1 with an exception */
static Py_ssize_t row_count(PyObject *obj)
{
    int overflow;
    long long nrows = PyLong_AsLongLongAndOverflow(obj, &overflow);
    if (overflow || (nrows < 0 && !PyErr_Occurred())) {
        PyErr_Format(PyExc_ValueError, "nrows must be a count of rows in "
                     "[0, 2^63), got %R", obj);
        return -1;
    }
    return (Py_ssize_t)nrows;
}

/* Every face in -1..nrows-1, no row twice in a column; ValueError at the
   first column that breaks this (MemoryError if its stamps do not fit).
   stamp[row] is 1 + the last column that holds row (0 for none), so a
   row is repeated where its stamp is already that of its column. */
static int check_table(const int64_t *table, Py_ssize_t ncols, Py_ssize_t width,
                       Py_ssize_t nrows)
{
    int64_t *stamp = PyMem_Calloc(nrows > 0 ? nrows : 1, sizeof(int64_t));
    if (stamp == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    for (Py_ssize_t j = 0; j < ncols; j++) {
        const int64_t *face = table + j * width;
        for (Py_ssize_t i = 0; i < width; i++) {
            if (face[i] < -1 || face[i] >= nrows) {
                PyErr_Format(PyExc_ValueError, "column %zd has the face %lld, "
                             "outside -1..%zd", j, (long long)face[i], nrows - 1);
                PyMem_Free(stamp);
                return -1;
            }
            if (face[i] < 0)
                continue;
            if (stamp[face[i]] == j + 1) {
                PyErr_Format(PyExc_ValueError, "column %zd has the row "
                             "%lld twice", j, (long long)face[i]);
                PyMem_Free(stamp);
                return -1;
            }
            stamp[face[i]] = j + 1;
        }
    }
    PyMem_Free(stamp);
    return 0;
}

/* A pivot: size entries from at in the pool, scaled so that its low
   entry is 1, or, for at < 0, from ~at in the packed columns, as they
   are, with a low entry of +-1.  Either way the low entry is its own
   inverse. */
typedef struct {
    Py_ssize_t at, size;
} Pivot;

/* The one column loop of both reductions and the pivots it has found:
   pivot[row] is 1 + the number of the pivot whose low is row (0 for
   none).  A pivot that was a column of ``packed`` and was left as it was
   is read there; any other is copied to the pool.  ``packed`` holds one
   int64 per entry of columns over GF(q), its row shifted left by one and
   1 in the low bit for the coefficient -1 (0 for 1), and stays put while
   the reduction runs.  cur is the working column, scratch the target of
   a sum and unpacked a packed pivot read for one. */
typedef struct {
    Column cur, scratch, pool, unpacked;
    const int64_t *packed;
    Py_ssize_t *pivot;
    Pivot *pivots;
    Py_ssize_t npivots;
    int64_t q;
} Reduction;

/* for ncols columns over rows 0..nrows-1; -1 with MemoryError */
static int reduction_init(Reduction *r, Py_ssize_t nrows, Py_ssize_t ncols,
                          int64_t q, const int64_t *packed)
{
    Py_ssize_t most = ncols < nrows ? ncols : nrows;  /* pivots */
    *r = (Reduction){.q = q, .packed = packed};
    r->pivot = PyMem_Calloc(nrows > 0 ? nrows : 1, sizeof(Py_ssize_t));
    r->pivots = PyMem_Malloc((most > 0 ? most : 1) * sizeof(Pivot));
    if (r->pivot == NULL || r->pivots == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    return 0;
}

static void reduction_free(Reduction *r)
{
    Column *columns[] = {&r->cur, &r->scratch, &r->pool, &r->unpacked};
    for (size_t i = 0; i < sizeof columns / sizeof *columns; i++) {
        PyMem_Free(columns[i]->rows);
        PyMem_Free(columns[i]->coeffs);
    }
    PyMem_Free(r->pivot);
    PyMem_Free(r->pivots);
    *r = (Reduction){0};
}

/* *c = the m entries of r->packed from at; -1 with MemoryError */
static int unpack(const Reduction *r, Column *c, Py_ssize_t at, Py_ssize_t m)
{
    if (reserve(c, m) < 0)
        return -1;
    for (Py_ssize_t i = 0; i < m; i++) {
        int64_t e = r->packed[at + i];
        c->rows[i] = e >> 1;
        c->coeffs[i] = e & 1 ? r->q - 1 : 1;
    }
    c->size = m;
    return 0;
}

/* Reduces the column in the first m entries of r->cur, with increasing
   rows, which is also the column of r->packed from at unless at is -1:
   while its lowest row is the low of a pivot, the multiple of the pivot
   that cancels it is added.  A column left nonzero becomes a pivot.  0
   with its low in *low (-1 for zero), -1 with an exception set, or 1
   over Z at a pivot other than +-1 or an entry that reaches 2^63. */
static int reduce_column(Reduction *r, Py_ssize_t m, Py_ssize_t at,
                         int64_t *low)
{
    int64_t q = r->q;
    Column *cur = &r->cur;
    cur->size = m;
    while (cur->size > 0) {
        Py_ssize_t p = r->pivot[cur->rows[cur->size - 1]] - 1;
        if (p < 0)
            break;
        const Pivot *b = &r->pivots[p];
        const Column *src = &r->pool;
        Py_ssize_t from = b->at;
        if (from < 0) {
            if (unpack(r, &r->unpacked, ~from, b->size) < 0)
                return -1;
            src = &r->unpacked;
            from = 0;
        }
        /* the multiple: the column's low entry over the pivot's */
        int64_t f = cur->coeffs[cur->size - 1]
                    * src->coeffs[from + b->size - 1];
        int status = axpy(&r->scratch, cur->rows, cur->coeffs, cur->size,
                          src->rows + from, src->coeffs + from, b->size,
                          q == 0 ? f : f % q, q);
        if (status != 0)
            return status;
        Column tmp = *cur;
        *cur = r->scratch;
        r->scratch = tmp;
        at = -1;  /* no longer the packed column */
    }
    *low = -1;
    m = cur->size;
    if (m == 0)
        return 0;
    int64_t unit = cur->coeffs[m - 1];
    if (q == 0 && unit != 1 && unit != -1)
        return 1;
    Pivot *pivot = &r->pivots[r->npivots];
    *pivot = (Pivot){~at, m};
    if (at < 0) {
        if (reserve(&r->pool, r->pool.size + m) < 0)
            return -1;
        /* scaled by the inverse of its low entry, 1/u = u over Z */
        int64_t inverse = q == 0 ? unit : mod_inverse(unit, q);
        for (Py_ssize_t i = 0; i < m; i++) {
            r->pool.rows[r->pool.size + i] = cur->rows[i];
            r->pool.coeffs[r->pool.size + i] =
                q == 0 ? cur->coeffs[i] * inverse
                       : cur->coeffs[i] * inverse % q;
        }
        pivot->at = r->pool.size;
        r->pool.size += m;
    }
    *low = cur->rows[m - 1];
    r->pivot[*low] = ++r->npivots;
    return 0;
}

static PyObject *reduce_faces(PyObject *self, PyObject *args, PyObject *kwargs)
{
    static char *keywords[] = {"table", "nrows", "q", "floor", NULL};
    PyObject *table_obj, *nrows_obj, *q_obj, *floor_obj;
    PyObject *result = NULL, *empty = NULL, *found = NULL;
    Py_buffer table_view = {0}, floor_view = {0};
    Reduction r = {0};
    int overflow;

    (void)self;
    if (!PyArg_ParseTupleAndKeywords(args, kwargs, "OOOO:reduce_faces", keywords,
                                     &table_obj, &nrows_obj, &q_obj, &floor_obj))
        return NULL;
    long long q = PyLong_AsLongLongAndOverflow(q_obj, &overflow);
    if (q == -1 && PyErr_Occurred())
        return NULL;
    if (overflow || (q != 0 && (q < 2 || q >= MAX_ORDER)))
        return PyErr_Format(PyExc_ValueError, "q must be 0 (the integers) or "
                            "a prime in [2, 2^31), got %R", q_obj);
    Py_ssize_t nrows = row_count(nrows_obj);
    if (nrows < 0)
        return NULL;
    if (typed_buffer(table_obj, &table_view, 2, INT64, "the face table") < 0)
        return NULL;
    if (typed_buffer(floor_obj, &floor_view, 1, INT64, "floor") < 0)
        goto done;
    const int64_t *table = table_view.buf, *floor = floor_view.buf;
    int64_t *lows;
    Py_ssize_t ncols = table_view.shape[0], width = table_view.shape[1];
    if (floor_view.shape[0] != ncols) {
        PyErr_Format(PyExc_ValueError, "the face table has %zd columns but "
                     "floor has %zd entries", ncols, floor_view.shape[0]);
        goto done;
    }
    if (check_table(table, ncols, width, nrows) < 0
        || (empty = numpy_empty()) == NULL
        || (found = new_array(empty, ncols, -1, "int64", "C", &lows)) == NULL
        || reduction_init(&r, nrows, ncols, q, NULL) < 0)
        goto done;
    for (Py_ssize_t j = 0; j < ncols; j++) {
        /* cur may be the scratch of the last column, of any capacity */
        if (reserve(&r.cur, width) < 0)
            goto done;
        const int64_t *face = table + j * width;
        int64_t lowest = floor[j] > 0 ? floor[j] : 0;  /* -1 is no face */
        Py_ssize_t m = 0;
        for (Py_ssize_t i = 0; i < width; i++) {  /* insertion sort */
            if (face[i] < lowest)
                continue;
            Py_ssize_t h = m++;
            for (; h > 0 && r.cur.rows[h - 1] > face[i]; h--) {
                r.cur.rows[h] = r.cur.rows[h - 1];
                r.cur.coeffs[h] = r.cur.coeffs[h - 1];
            }
            r.cur.rows[h] = face[i];
            r.cur.coeffs[h] = i % 2 == 0 ? 1 : (q == 0 ? -1 : q - 1);
        }
        int status = reduce_column(&r, m, -1, &lows[j]);
        if (status < 0)
            goto done;
        if (status > 0) {
            result = Py_NewRef(Py_None);
            goto done;
        }
    }
    result = Py_NewRef(found);
done:
    reduction_free(&r);
    Py_XDECREF(found);
    Py_XDECREF(empty);
    if (table_view.obj != NULL)
        PyBuffer_Release(&table_view);
    if (floor_view.obj != NULL)
        PyBuffer_Release(&floor_view);
    return result;
}

static PyObject *reduce_cofaces(PyObject *self, PyObject *args,
                                PyObject *kwargs)
{
    static char *keywords[] = {"table", "nrows", "q", "cleared", NULL};
    PyObject *table_obj, *nrows_obj, *q_obj, *cleared_obj;
    PyObject *result = NULL, *empty = NULL, *found = NULL;
    Py_buffer table_view = {0}, cleared_view = {0};
    Reduction r = {0};
    Py_ssize_t *end = NULL;
    int64_t *entries = NULL;  /* the transpose, packed, one column per row */
    int overflow;

    (void)self;
    if (!PyArg_ParseTupleAndKeywords(args, kwargs, "OOOO:reduce_cofaces",
                                     keywords, &table_obj, &nrows_obj, &q_obj,
                                     &cleared_obj))
        return NULL;
    long long q = PyLong_AsLongLongAndOverflow(q_obj, &overflow);
    if (q == -1 && PyErr_Occurred())
        return NULL;
    if (overflow || q < 2 || q >= MAX_ORDER)
        return PyErr_Format(PyExc_ValueError, "q must be a prime in "
                            "[2, 2^31), got %R", q_obj);
    Py_ssize_t nrows = row_count(nrows_obj);
    if (nrows < 0)
        return NULL;
    if (typed_buffer(table_obj, &table_view, 2, INT64, "the face table") < 0)
        return NULL;
    if (typed_buffer(cleared_obj, &cleared_view, 1, BOOL, "cleared") < 0)
        goto done;
    const int64_t *table = table_view.buf;
    const char *cleared = cleared_view.buf;
    int64_t *lows;
    Py_ssize_t ncofaces = table_view.shape[0], width = table_view.shape[1];
    if (cleared_view.shape[0] != nrows) {
        PyErr_Format(PyExc_ValueError, "cleared has %zd entries but there are "
                     "%zd rows", cleared_view.shape[0], nrows);
        goto done;
    }
    if (check_table(table, ncofaces, width, nrows) < 0
        || (empty = numpy_empty()) == NULL
        || (found = new_array(empty, nrows, -1, "int64", "C", &lows)) == NULL)
        goto done;
    /* The transpose by a counting sort on the face rows: end[s] ends the
       entries of row s, each a coface as a row of the coboundary, in
       reverse coface order, packed with the sign of its face position. */
    end = PyMem_Calloc(nrows + 1, sizeof(Py_ssize_t));
    if (end == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    for (Py_ssize_t t = 0; t < ncofaces * width; t++)
        if (table[t] >= 0)
            end[table[t] + 1]++;
    for (Py_ssize_t s = 0; s < nrows; s++)
        end[s + 1] += end[s];
    entries = PyMem_Malloc((end[nrows] > 0 ? end[nrows] : 1) * sizeof(int64_t));
    if (entries == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    if (reduction_init(&r, ncofaces, nrows, q, entries) < 0)
        goto done;
    /* youngest coface first, so each row's entries increase; end[s] moves
       from the start of row s to its end */
    for (Py_ssize_t t = ncofaces - 1; t >= 0; t--)
        for (Py_ssize_t i = 0; i < width; i++) {
            int64_t s = table[t * width + i];
            if (s >= 0)
                entries[end[s]++] = (int64_t)(ncofaces - 1 - t) << 1 | (i & 1);
        }
    for (Py_ssize_t s = nrows - 1; s >= 0; s--) {  /* youngest row first */
        Py_ssize_t first = s > 0 ? end[s - 1] : 0;
        int64_t low = -1;
        /* over a field reduce_column returns 0 or -1 */
        if (!cleared[s] && (unpack(&r, &r.cur, first, end[s] - first) < 0
                            || reduce_column(&r, end[s] - first, first,
                                             &low) < 0))
            goto done;
        lows[s] = low < 0 ? -1 : ncofaces - 1 - low;
    }
    result = Py_NewRef(found);
done:
    reduction_free(&r);
    PyMem_Free(entries);
    PyMem_Free(end);
    Py_XDECREF(found);
    Py_XDECREF(empty);
    if (table_view.obj != NULL)
        PyBuffer_Release(&table_view);
    if (cleared_view.obj != NULL)
        PyBuffer_Release(&cleared_view);
    return result;
}

static PyMethodDef methods[] = {
    {"expand", (PyCFunction)(void (*)(void))expand,
     METH_VARARGS | METH_KEYWORDS,
     "expand($module, /, w, p, max_dim, limit)\n--\n\n"
     "Every finite-birth nondegenerate tuple of degree <= max_dim of the space\n"
     "with p-th-power distances ``w``: per degree reached (tuples, level, code,\n"
     "faces) in (birth, vertices) order.  BudgetExceededError past ``limit``\n"
     "tuples, an int >= 0."},
    {"reduce_faces", (PyCFunction)(void (*)(void))reduce_faces,
     METH_VARARGS | METH_KEYWORDS,
     "reduce_faces($module, /, table, nrows, q, floor)\n--\n\n"
     "Column reduction of the boundary with face table ``table``, each column\n"
     "keeping its faces from row ``floor[j]`` on, over GF(q), or over Z for\n"
     "q = 0; returns each column's low (-1 for zero) as an int64 array, or\n"
     "over Z None for a pivot other than +-1 or an entry that reaches 2^63."},
    {"reduce_cofaces", (PyCFunction)(void (*)(void))reduce_cofaces,
     METH_VARARGS | METH_KEYWORDS,
     "reduce_cofaces($module, /, table, nrows, q, cleared)\n--\n\n"
     "Reduction over GF(q) of the coboundary whose transpose has the face table\n"
     "``table``: one column per row, youngest first, skipping the rows that\n"
     "``cleared`` marks; returns each row's pivot coface, its oldest after\n"
     "reduction (-1 for zero or cleared), as an int64 array."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT,
    .m_name = "_reduction",
    .m_doc = "Compiled tuple search with face tables, and column reductions "
             "of boundaries and coboundaries.",
    .m_size = -1,
    .m_methods = methods,
};

PyMODINIT_FUNC PyInit__reduction(void)
{
    return PyModule_Create(&module);
}
