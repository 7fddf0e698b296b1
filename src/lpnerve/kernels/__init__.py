"""Hot-loop kernel: compiled extension when available, pure Python otherwise.

``reduce_columns`` is the persistence column reduction over GF(q), the
one compiled kernel.  It is built at install time from ``_reduction.c``,
which Cython generates from ``_reduction.pyx``; if no C compiler was
available, the pure-Python twin is used transparently.
"""

from . import _reduction_py

try:
    from . import _reduction as _impl
    BACKEND = "compiled"
except ImportError:
    _impl = _reduction_py
    BACKEND = "python"

reduce_columns = _impl.reduce_columns
reduce_columns_py = _reduction_py.reduce_columns

__all__ = ["reduce_columns", "reduce_columns_py", "BACKEND"]
