"""Hot-loop kernel: compiled extension when available, pure Python otherwise.

``reduce_columns`` is the persistence column reduction over GF(q), the
one compiled kernel.  It is built at install time from the hand-written
``_reduction.c``; if no C compiler was available, the pure-Python twin in
``_reduction_py`` is used transparently.
"""

from ._reduction_py import MAX_ORDER

try:
    from . import _reduction as _impl
    BACKEND = "compiled"
except ImportError:
    from . import _reduction_py as _impl
    BACKEND = "python"

reduce_columns = _impl.reduce_columns

__all__ = ["reduce_columns", "BACKEND", "MAX_ORDER"]
