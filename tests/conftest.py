"""Session fixtures shared by the test modules."""

import importlib.util
import os
import shlex
import shutil
import sysconfig

import pytest

from lpnerve import kernels
from lpnerve.kernels import _reduction_py
from util import KERNELS


def pytest_report_header(config):
    return f"lpnerve.kernels.BACKEND: {kernels.BACKEND}"


def pytest_terminal_summary(terminalreporter, config):
    if config.get_verbosity() < 0:  # -q drops the header: name it here
        terminalreporter.write_line(pytest_report_header(config))


@pytest.fixture(scope="session")
def compiled_kernels(tmp_path_factory):
    """The compiled kernel, built from ``_reduction.c`` into a temporary
    directory with the flags ``setup.py`` uses, so the tests exercise it
    even when ``lpnerve`` is imported from a source tree with no built
    extension.  The tests add ``-Wall -Wextra -Werror``, so a compiler
    warning fails them (an install leaves them out).  Skips only where
    the configured C compiler ($CC, else Python's own) is not on PATH; if
    it is there and the kernel does not compile, the test fails."""
    from setuptools import Distribution, Extension
    from setuptools.command.build_ext import build_ext
    from setuptools.errors import BaseError, CCompilerError

    cc = shlex.split(os.environ.get("CC") or sysconfig.get_config_var("CC") or "cc")
    if not cc or shutil.which(cc[0]) is None:
        pytest.skip(f"no C compiler: {' '.join(cc)!r} is not on PATH")
    name = "lpnerve.kernels._reduction"
    out = tmp_path_factory.mktemp("kernels")
    cmd = build_ext(Distribution({"ext_modules": [Extension(
        name, [str(KERNELS / "_reduction.c")],
        extra_compile_args=["-O3", "-ffp-contract=off",
                            "-Wall", "-Wextra", "-Werror"])]}))
    cmd.build_lib = str(out)
    cmd.build_temp = str(out / "temp")
    try:
        cmd.ensure_finalized()
        cmd.run()
    except (BaseError, CCompilerError) as exc:
        pytest.fail(f"{cc[0]} is on PATH but _reduction.c does not compile: {exc}")
    spec = importlib.util.spec_from_file_location(name, cmd.get_ext_fullpath(name))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(params=["compiled", "python"])
def backend(request):
    """The compiled kernel, then its pure-Python twin."""
    if request.param == "python":
        return _reduction_py
    return request.getfixturevalue("compiled_kernels")


@pytest.fixture
def nerve_backend(backend, monkeypatch):
    """``lpnerve.kernels`` searching, building face tables and reducing
    their boundaries and coboundaries with ``backend``, which is
    returned."""
    monkeypatch.setattr(kernels, "expand", backend.expand)
    monkeypatch.setattr(kernels, "reduce_faces", backend.reduce_faces)
    monkeypatch.setattr(kernels, "reduce_cofaces", backend.reduce_cofaces)
    return backend
