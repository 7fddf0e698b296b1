"""Build the compiled kernels from their committed C sources.

Each ``.c`` under ``src/lpnerve/kernels`` is generated by Cython from the
``.pyx`` next to it, so a C compiler is all a build needs.  After editing a
``.pyx``, regenerate its C with

    cython -3 src/lpnerve/kernels/_reduction.pyx src/lpnerve/kernels/_fwsweep.pyx

The extensions are optional: if one fails to compile, the install goes on
and ``lpnerve.kernels`` falls back to the pure-Python reduction.
"""

from setuptools import Extension, setup

ext_modules = [
    Extension(
        f"lpnerve.kernels.{name}",
        [f"src/lpnerve/kernels/{name}.c"],
        extra_compile_args=["-O3"],
        optional=True,
    )
    for name in ("_reduction", "_fwsweep")
]

setup(ext_modules=ext_modules)
