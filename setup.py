"""Build the compiled kernel from its C source.

``src/lpnerve/kernels/_reduction.c`` holds the nerve's tuple search, its
face tables and the column reduction, written by hand against the
CPython C API alone, so a C compiler is all a build needs.  Births must
stay bit-identical to the pure-Python ones, so floating point is built
without contraction into fused operations (and without fast-math).  The
extension is optional: if it fails to compile, the install goes on and
``lpnerve.kernels`` falls back to the pure-Python twins.
"""

from setuptools import Extension, setup

ext_modules = [
    Extension(
        "lpnerve.kernels._reduction",
        ["src/lpnerve/kernels/_reduction.c"],
        extra_compile_args=["-O3", "-ffp-contract=off"],
        optional=True,
    )
]

setup(ext_modules=ext_modules)
