"""Hot-loop kernel: compiled extension when available, pure Python otherwise.

``reduce_faces`` is the one column reduction of the library: it reduces a
boundary straight from its face table, over GF(q) for barcodes and field
ranks, and over Z with +-1 pivots for integer ranks.  It is built at
install time from the hand-written ``_reduction.c``; if no C compiler was
available, the pure-Python twin in ``_reduction_py`` is used
transparently.  ``reduce_columns`` is the plain pure-Python reduction of
sparse column lists over GF(q), which the library never calls: the test
oracle of both backends.
"""

from . import _reduction_py
from ._reduction_py import MAX_ORDER

try:
    from . import _reduction as _impl
    BACKEND = "compiled"
except ImportError:
    _impl = _reduction_py
    BACKEND = "python"

reduce_faces = _impl.reduce_faces
reduce_columns = _reduction_py.reduce_columns

__all__ = ["reduce_faces", "reduce_columns", "BACKEND", "MAX_ORDER"]
