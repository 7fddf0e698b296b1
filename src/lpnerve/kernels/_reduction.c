/*
 * Column reduction of a boundary given by its face table, over GF(q) or Z.
 *
 * Same contract as ``_reduction_py.reduce_faces``.  ``table`` is a 2-d
 * C-contiguous int64 buffer: row j lists the faces of column j, entry i a
 * row index in [0, nrows) with the sign (-1)^i, or -1 for a face not kept;
 * no row may repeat within a column.  ``lows`` is a writable 1-d int64
 * buffer with one slot per column, filled with the lowest row of each
 * reduced column, or -1 where it reduces to zero.  The return value is the
 * number of pivots.  q is a prime below 2^31, so that a product of two
 * residues fits in int64, or 0 for the integers: then every pivot must be
 * +-1 and every entry must stay below 2^63 in magnitude, and the return
 * value is -1 as soon as either fails.  Input outside this contract raises
 * ValueError, or TypeError for something other than a buffer or an int.
 *
 * Columns are reduced left to right.  Each column's kept faces are sorted
 * in place of a small working column.  While its lowest row is the low of
 * an earlier column, the multiple of that column that cancels it is
 * added.  A column left nonzero is a pivot: it is scaled so that its low
 * entry is 1 and appended to one pool, and ``pivot[row]`` records where.
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <stdint.h>
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

/* dst = a - f * b over GF(q), or over Z when q is 0; dst is storage apart
   from a and b.  0, -1 with an exception set, or 1 on overflow over Z. */
static int axpy(Column *dst, const Column *a, const int64_t *b_rows,
                const int64_t *b_coeffs, Py_ssize_t b_size, int64_t f,
                int64_t q)
{
    Py_ssize_t i = 0, k = 0, n = 0;
    int64_t scale = q - f;  /* -f mod q, for f in [1, q) */
    if (reserve(dst, a->size + b_size) < 0)
        return -1;
    while (i < a->size || k < b_size) {
        int64_t c;
        if (k >= b_size || (i < a->size && a->rows[i] < b_rows[k])) {
            dst->rows[n] = a->rows[i];
            dst->coeffs[n++] = a->coeffs[i++];
            continue;
        }
        int both = i < a->size && a->rows[i] == b_rows[k];
        int64_t x = both ? a->coeffs[i++] : 0;
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

/* The buffer of obj as int64 with the given ndim, C-contiguous (and
   writable if asked); ValueError otherwise. */
static int int64_buffer(PyObject *obj, Py_buffer *view, int ndim, int writable,
                        const char *what)
{
    if (PyObject_GetBuffer(obj, view, PyBUF_RECORDS_RO) < 0)
        return -1;
    const char *fmt = view->format == NULL ? "B" : view->format;
    if (*fmt == '@' || *fmt == '=')
        fmt++;
    int int64 = view->itemsize == 8 && (strcmp(fmt, "q") == 0
                                        || (strcmp(fmt, "l") == 0 && sizeof(long) == 8));
    if (view->ndim != ndim || !int64 || !PyBuffer_IsContiguous(view, 'C')
        || (writable && view->readonly)) {
        PyErr_Format(PyExc_ValueError, "%s must be a %s%d-d C-contiguous "
                     "int64 array", what, writable ? "writable " : "", ndim);
        PyBuffer_Release(view);
        return -1;
    }
    return 0;
}

/* Every face in -1..nrows-1, no row twice in a column; ValueError at the
   first column that breaks this. */
static int check_table(const int64_t *table, Py_ssize_t ncols, Py_ssize_t width,
                       Py_ssize_t nrows)
{
    for (Py_ssize_t j = 0; j < ncols; j++) {
        const int64_t *face = table + j * width;
        for (Py_ssize_t i = 0; i < width; i++) {
            if (face[i] < -1 || face[i] >= nrows) {
                PyErr_Format(PyExc_ValueError, "column %zd has the face %lld, "
                             "outside -1..%zd", j, (long long)face[i], nrows - 1);
                return -1;
            }
            for (Py_ssize_t h = 0; h < i; h++)
                if (face[i] >= 0 && face[h] == face[i]) {
                    PyErr_Format(PyExc_ValueError, "column %zd has the row "
                                 "%lld twice", j, (long long)face[i]);
                    return -1;
                }
        }
    }
    return 0;
}

static PyObject *reduce_faces(PyObject *self, PyObject *args, PyObject *kwargs)
{
    static char *keywords[] = {"table", "nrows", "q", "lows", NULL};
    PyObject *table_obj, *nrows_obj, *q_obj, *lows_obj, *result = NULL;
    Py_buffer table_view = {0}, lows_view = {0};
    Column cur = {0}, scratch = {0}, pool = {0};
    Py_ssize_t *pivot = NULL, *start = NULL;  /* pivot[row]: 1 + its pivot */
    int overflow;

    (void)self;
    if (!PyArg_ParseTupleAndKeywords(args, kwargs, "OOOO:reduce_faces", keywords,
                                     &table_obj, &nrows_obj, &q_obj, &lows_obj))
        return NULL;
    long long q = PyLong_AsLongLongAndOverflow(q_obj, &overflow);
    if (q == -1 && PyErr_Occurred())
        return NULL;
    if (overflow || (q != 0 && (q < 2 || q >= MAX_ORDER)))
        return PyErr_Format(PyExc_ValueError, "q must be 0 (the integers) or "
                            "a prime in [2, 2^31), got %R", q_obj);
    long long nrows = PyLong_AsLongLongAndOverflow(nrows_obj, &overflow);
    if (nrows == -1 && PyErr_Occurred())
        return NULL;
    if (overflow || nrows < 0)
        return PyErr_Format(PyExc_ValueError, "nrows must be a count of rows "
                            "in [0, 2^63), got %R", nrows_obj);
    if (int64_buffer(table_obj, &table_view, 2, 0, "the face table") < 0)
        return NULL;
    if (int64_buffer(lows_obj, &lows_view, 1, 1, "lows") < 0)
        goto done;
    const int64_t *table = table_view.buf;
    int64_t *lows = lows_view.buf;
    Py_ssize_t ncols = table_view.shape[0], width = table_view.shape[1];
    if (lows_view.shape[0] != ncols) {
        PyErr_Format(PyExc_ValueError, "the face table has %zd columns but "
                     "lows has %zd slots", ncols, lows_view.shape[0]);
        goto done;
    }
    if (check_table(table, ncols, width, (Py_ssize_t)nrows) < 0)
        goto done;
    Py_ssize_t most = ncols < nrows ? ncols : (Py_ssize_t)nrows;  /* pivots */
    pivot = PyMem_Calloc(nrows > 0 ? nrows : 1, sizeof(Py_ssize_t));
    start = PyMem_Malloc((most + 1) * sizeof(Py_ssize_t));
    if (pivot == NULL || start == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    Py_ssize_t npivots = 0;
    start[0] = 0;
    for (Py_ssize_t j = 0; j < ncols; j++) {
        /* cur may be the scratch of the last column, of any capacity */
        if (reserve(&cur, width) < 0)
            goto done;
        const int64_t *face = table + j * width;
        Py_ssize_t m = 0;
        for (Py_ssize_t i = 0; i < width; i++) {  /* insertion sort */
            if (face[i] < 0)
                continue;
            Py_ssize_t h = m++;
            for (; h > 0 && cur.rows[h - 1] > face[i]; h--) {
                cur.rows[h] = cur.rows[h - 1];
                cur.coeffs[h] = cur.coeffs[h - 1];
            }
            cur.rows[h] = face[i];
            cur.coeffs[h] = i % 2 == 0 ? 1 : (q == 0 ? -1 : q - 1);
        }
        cur.size = m;
        while (cur.size > 0) {
            Py_ssize_t p = pivot[cur.rows[cur.size - 1]] - 1;
            if (p < 0)
                break;
            int status = axpy(&scratch, &cur, pool.rows + start[p],
                              pool.coeffs + start[p], start[p + 1] - start[p],
                              cur.coeffs[cur.size - 1], q);
            if (status < 0)
                goto done;
            if (status > 0) {
                result = PyLong_FromLong(-1);
                goto done;
            }
            Column tmp = cur;
            cur = scratch;
            scratch = tmp;
        }
        if (cur.size == 0) {
            lows[j] = -1;
            continue;
        }
        int64_t low = cur.rows[cur.size - 1], unit = cur.coeffs[cur.size - 1];
        if (q == 0 && unit != 1 && unit != -1) {
            result = PyLong_FromLong(-1);
            goto done;
        }
        if (reserve(&pool, pool.size + cur.size) < 0)
            goto done;
        /* scaled by the inverse of its low entry, 1/u = u over Z */
        int64_t inverse = q == 0 ? unit : mod_inverse(unit, q);
        for (Py_ssize_t i = 0; i < cur.size; i++) {
            pool.rows[pool.size + i] = cur.rows[i];
            pool.coeffs[pool.size + i] = q == 0 ? cur.coeffs[i] * inverse
                                                : cur.coeffs[i] * inverse % q;
        }
        pool.size += cur.size;
        pivot[low] = ++npivots;
        start[npivots] = pool.size;
        lows[j] = low;
    }
    result = PyLong_FromSsize_t(npivots);
done:
    PyMem_Free(cur.rows);
    PyMem_Free(cur.coeffs);
    PyMem_Free(scratch.rows);
    PyMem_Free(scratch.coeffs);
    PyMem_Free(pool.rows);
    PyMem_Free(pool.coeffs);
    PyMem_Free(pivot);
    PyMem_Free(start);
    if (table_view.obj != NULL)
        PyBuffer_Release(&table_view);
    if (lows_view.obj != NULL)
        PyBuffer_Release(&lows_view);
    return result;
}

static PyMethodDef methods[] = {
    {"reduce_faces", (PyCFunction)(void (*)(void))reduce_faces,
     METH_VARARGS | METH_KEYWORDS,
     "reduce_faces(table, nrows, q, lows) -> number of pivots\n\n"
     "Column reduction of the boundary with face table ``table`` over\n"
     "GF(q), or over Z for q = 0, writing each column's low (-1 for zero)\n"
     "into ``lows``.  Over Z, -1 flags a pivot other than +-1 or an entry\n"
     "that reaches 2^63."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT,
    .m_name = "_reduction",
    .m_doc = "Compiled column reduction of face tables over GF(q) or Z.",
    .m_size = -1,
    .m_methods = methods,
};

PyMODINIT_FUNC PyInit__reduction(void)
{
    return PyModule_Create(&module);
}
