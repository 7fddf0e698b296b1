"""Build the compiled column reduction from its C source.

``src/lpnerve/kernels/_reduction.c`` is written by hand against the
CPython C API alone, so a C compiler is all a build needs.  The extension
is optional: if it fails to compile, the install goes on and
``lpnerve.kernels`` falls back to the pure-Python reduction.
"""

from setuptools import Extension, setup

ext_modules = [
    Extension(
        "lpnerve.kernels._reduction",
        ["src/lpnerve/kernels/_reduction.c"],
        extra_compile_args=["-O3"],
        optional=True,
    )
]

setup(ext_modules=ext_modules)
