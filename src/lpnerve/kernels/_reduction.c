/*
 * Persistence column reduction over a prime field GF(q).
 *
 * Same contract as ``_reduction_py.reduce_columns``: ``col_rows[j]`` lists
 * the strictly increasing int rows in [0, 2^63) of column j, and
 * ``col_coeffs[j]`` their int coefficients, each nonzero mod q (negative
 * ones are taken mod q as Python's ``%`` takes them).  The result is the
 * list of ``low[j]``: the lowest row of the reduced column j, or -1 where
 * it reduces to zero.  q must be below 2^31, so that a product of two
 * residues fits in int64.  Input outside this contract raises ValueError,
 * or TypeError for something other than an int.
 *
 * Columns are reduced left to right.  While the lowest row of column j is
 * the low of an earlier column k, the multiple of column k that cancels
 * it is added to column j.  The column with a given low is looked up in a
 * hash table keyed by row, with two slots per column, so any row below
 * 2^63 costs the same.
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

static int reserve(Column *c, Py_ssize_t need)
{
    if (c->cap >= need)
        return 0;
    int64_t *rows = PyMem_Realloc(c->rows, need * sizeof(int64_t));
    if (rows != NULL)
        c->rows = rows;
    int64_t *coeffs = PyMem_Realloc(c->coeffs, need * sizeof(int64_t));
    if (coeffs != NULL)
        c->coeffs = coeffs;
    if (rows == NULL || coeffs == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    c->cap = need;
    return 0;
}

/* dst = a + scale * b over GF(q); dst is storage apart from a and b */
static int axpy(Column *dst, const Column *a, const Column *b, int64_t scale,
                int64_t q)
{
    Py_ssize_t i = 0, k = 0, n = 0;
    if (reserve(dst, a->size + b->size) < 0)
        return -1;
    while (i < a->size || k < b->size) {
        int64_t c;
        if (k >= b->size || (i < a->size && a->rows[i] < b->rows[k])) {
            dst->rows[n] = a->rows[i];
            dst->coeffs[n++] = a->coeffs[i++];
            continue;
        }
        if (i >= a->size || b->rows[k] < a->rows[i])
            c = b->coeffs[k] * scale % q;
        else
            c = (a->coeffs[i++] + b->coeffs[k] * scale) % q;
        if (c != 0) {
            dst->rows[n] = b->rows[k];
            dst->coeffs[n++] = c;
        }
        k++;
    }
    dst->size = n;
    return 0;
}

/* Residue in [0, q) of an int; -1 with an exception set. */
static int64_t residue(PyObject *item, int64_t q)
{
    int overflow;
    long long c = PyLong_AsLongLongAndOverflow(item, &overflow);
    if (c == -1 && PyErr_Occurred())
        return -1;
    if (!overflow)
        return (c % q + q) % q;
    PyObject *q_obj = PyLong_FromLongLong(q);
    PyObject *r = q_obj == NULL ? NULL : PyNumber_Remainder(item, q_obj);
    Py_XDECREF(q_obj);
    if (r == NULL)
        return -1;
    c = PyLong_AsLongLong(r);
    Py_DECREF(r);
    return c;
}

/* Copy column j into c, checking it against the contract. */
static int load_column(Column *c, PyObject *rows_obj, PyObject *coeffs_obj,
                       int64_t q, Py_ssize_t j)
{
    int status = -1;
    PyObject *coeffs = NULL;
    PyObject *rows = PySequence_Fast(rows_obj, "a column's rows must be a sequence");
    if (rows == NULL)
        return -1;
    coeffs = PySequence_Fast(coeffs_obj, "a column's coefficients must be a sequence");
    if (coeffs == NULL)
        goto done;
    Py_ssize_t m = PySequence_Fast_GET_SIZE(rows);
    if (PySequence_Fast_GET_SIZE(coeffs) != m) {
        PyErr_Format(PyExc_ValueError, "column %zd has %zd rows but %zd coefficients",
                     j, m, PySequence_Fast_GET_SIZE(coeffs));
        goto done;
    }
    if (reserve(c, m) < 0)
        goto done;
    for (Py_ssize_t i = 0; i < m; i++) {
        PyObject *row_obj = PySequence_Fast_GET_ITEM(rows, i);
        PyObject *coeff_obj = PySequence_Fast_GET_ITEM(coeffs, i);
        /* ints only: converting another type could run Python code that
           resizes the lists being read */
        if (!PyLong_Check(row_obj) || !PyLong_Check(coeff_obj)) {
            PyErr_Format(PyExc_TypeError, "column %zd holds something other "
                         "than an int", j);
            goto done;
        }
        int overflow;
        long long row = PyLong_AsLongLongAndOverflow(row_obj, &overflow);
        if (row == -1 && PyErr_Occurred())
            goto done;
        if (overflow || row < 0 || (i > 0 && row <= c->rows[i - 1])) {
            PyErr_Format(PyExc_ValueError, "the rows of column %zd must be "
                         "strictly increasing integers in [0, 2^63)", j);
            goto done;
        }
        int64_t coeff = residue(coeff_obj, q);
        if (coeff == -1)
            goto done;
        if (coeff == 0) {
            PyErr_Format(PyExc_ValueError, "column %zd has a coefficient that "
                         "is 0 mod %lld", j, (long long)q);
            goto done;
        }
        c->rows[i] = row;
        c->coeffs[i] = coeff;
    }
    c->size = m;
    status = 0;
done:
    Py_DECREF(rows);
    Py_XDECREF(coeffs);
    return status;
}

/* The column whose low is a given row: open addressing with linear
   probing, at most half full, since each column has at most one low. */
typedef struct {
    int64_t *rows;  /* -1 marks an empty slot */
    Py_ssize_t *cols;
    size_t mask;
} PivotTable;

static int pivots_init(PivotTable *t, Py_ssize_t ncols)
{
    size_t size = 2;
    while (size < 2 * (size_t)ncols)
        size <<= 1;
    t->rows = PyMem_Malloc(size * sizeof(int64_t));
    t->cols = PyMem_Malloc(size * sizeof(Py_ssize_t));
    if (t->rows == NULL || t->cols == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    memset(t->rows, 0xff, size * sizeof(int64_t));
    t->mask = size - 1;
    return 0;
}

/* the slot holding row, or the empty slot where it would go */
static size_t pivot_slot(const PivotTable *t, int64_t row)
{
    size_t i = (size_t)(((uint64_t)row * 0x9E3779B97F4A7C15u) >> 32) & t->mask;
    while (t->rows[i] != -1 && t->rows[i] != row)
        i = (i + 1) & t->mask;
    return i;
}

static PyObject *reduce_columns(PyObject *self, PyObject *args, PyObject *kwargs)
{
    static char *keywords[] = {"col_rows", "col_coeffs", "q", NULL};
    PyObject *col_rows, *col_coeffs, *q_obj;
    PyObject *rows_seq = NULL, *coeffs_seq = NULL, *lows = NULL, *result = NULL;
    Column *cols = NULL, scratch = {0};
    PivotTable pivots = {0};
    Py_ssize_t ncols = 0;
    int overflow;

    (void)self;
    if (!PyArg_ParseTupleAndKeywords(args, kwargs, "OOO:reduce_columns", keywords,
                                     &col_rows, &col_coeffs, &q_obj))
        return NULL;
    long long q = PyLong_AsLongLongAndOverflow(q_obj, &overflow);
    if (q == -1 && PyErr_Occurred())
        return NULL;
    if (overflow || q < 2 || q >= MAX_ORDER)
        return PyErr_Format(PyExc_ValueError, "field order must be a prime in "
                            "[2, 2^31), got %R", q_obj);
    /* tuples, which no Python code run while reading a column can resize */
    rows_seq = PySequence_Tuple(col_rows);
    if (rows_seq == NULL)
        goto done;
    coeffs_seq = PySequence_Tuple(col_coeffs);
    if (coeffs_seq == NULL)
        goto done;
    ncols = PyTuple_GET_SIZE(rows_seq);
    if (PyTuple_GET_SIZE(coeffs_seq) != ncols) {
        PyErr_Format(PyExc_ValueError, "%zd columns of rows but %zd of coefficients",
                     ncols, PyTuple_GET_SIZE(coeffs_seq));
        goto done;
    }
    cols = PyMem_Calloc(ncols + 1, sizeof(Column));
    if (cols == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    for (Py_ssize_t j = 0; j < ncols; j++) {
        Column *c = &cols[j];
        if (load_column(c, PyTuple_GET_ITEM(rows_seq, j),
                        PyTuple_GET_ITEM(coeffs_seq, j), q, j) < 0)
            goto done;
    }
    if (pivots_init(&pivots, ncols) < 0)
        goto done;
    lows = PyList_New(ncols);
    if (lows == NULL)
        goto done;
    for (Py_ssize_t j = 0; j < ncols; j++) {
        Column *c = &cols[j];
        int64_t low = -1;
        size_t slot = 0;
        while (c->size > 0) {
            low = c->rows[c->size - 1];
            slot = pivot_slot(&pivots, low);
            if (pivots.rows[slot] == -1)
                break;
            const Column *k = &cols[pivots.cols[slot]];
            int64_t factor = c->coeffs[c->size - 1]
                * mod_inverse(k->coeffs[k->size - 1], q) % q;
            if (axpy(&scratch, c, k, q - factor, q) < 0)
                goto done;
            Column tmp = *c;
            *c = scratch;
            scratch = tmp;
        }
        if (c->size > 0) {
            pivots.rows[slot] = low;
            pivots.cols[slot] = j;
        } else
            low = -1;
        PyObject *item = PyLong_FromLongLong(low);
        if (item == NULL)
            goto done;
        PyList_SET_ITEM(lows, j, item);
    }
    result = lows;
    lows = NULL;
done:
    for (Py_ssize_t j = 0; cols != NULL && j < ncols; j++) {
        PyMem_Free(cols[j].rows);
        PyMem_Free(cols[j].coeffs);
    }
    PyMem_Free(cols);
    PyMem_Free(scratch.rows);
    PyMem_Free(scratch.coeffs);
    PyMem_Free(pivots.rows);
    PyMem_Free(pivots.cols);
    Py_XDECREF(rows_seq);
    Py_XDECREF(coeffs_seq);
    Py_XDECREF(lows);
    return result;
}

static PyMethodDef methods[] = {
    {"reduce_columns", (PyCFunction)(void (*)(void))reduce_columns,
     METH_VARARGS | METH_KEYWORDS,
     "reduce_columns(col_rows, col_coeffs, q) -> list of lows\n\n"
     "Persistence column reduction over GF(q); -1 marks a column that\n"
     "reduces to zero."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT,
    .m_name = "_reduction",
    .m_doc = "Compiled persistence column reduction over a prime field.",
    .m_size = -1,
    .m_methods = methods,
};

PyMODINIT_FUNC PyInit__reduction(void)
{
    return PyModule_Create(&module);
}
