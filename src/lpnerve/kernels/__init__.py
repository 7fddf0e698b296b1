"""Hot-loop kernels: compiled extension when available, pure Python otherwise.

Two entries carry the per-tuple loops of the library.
``expand(w, p, max_dim, limit)`` is the nerve's tuple search: it finds
every finite-birth nondegenerate tuple depth first, carrying the
longest-chain values down, and returns each degree up to max_dim or the
first empty one sorted by (birth, vertices): the vertex matrix, the
distinct births, each row's birth code among them and the face table.
``reduce_faces(table, nrows, q, floor, lows)`` is the one column
reduction: it reduces a boundary straight from its face table, each
column keeping only its faces from row ``floor[j]`` on (so a sieve needs
no mask), over GF(q) for barcodes and field ranks, and over Z with +-1
pivots for integer ranks.  They are built at install time from the
hand-written ``_reduction.c``; if no C compiler was available, the
pure-Python twins in ``_reduction_py`` are used transparently, with the
same contracts and the same outputs.  ``reduce_columns`` is the plain
pure-Python reduction of sparse column lists over GF(q), which the library
never calls: the test oracle of both backends.
"""

from . import _reduction_py
from ._reduction_py import MAX_ORDER

try:
    from . import _reduction as _impl
    BACKEND = "compiled"
except ImportError:
    _impl = _reduction_py
    BACKEND = "python"

expand = _impl.expand
reduce_faces = _impl.reduce_faces
reduce_columns = _reduction_py.reduce_columns

__all__ = ["expand", "reduce_faces", "reduce_columns", "BACKEND", "MAX_ORDER"]
