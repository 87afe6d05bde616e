"""Shared fixtures."""

from __future__ import annotations

import contextlib
import gc

import pytest

from repro.compiler import Compiler, CompilerBehavior
from repro.compiler.cache import CompileCache
from repro.harness import HarnessConfig, ValidationRunner
from repro.spec.versions import ACC_20
from repro.suite import openacc10_suite, openacc20_suite


@pytest.fixture(scope="session")
def reference_compiler() -> Compiler:
    return Compiler()


@pytest.fixture(scope="session")
def compiler20() -> Compiler:
    return Compiler(CompilerBehavior(name="reference", version="2.0",
                                     spec_version=ACC_20))


@pytest.fixture(scope="session")
def suite10():
    return openacc10_suite()


@pytest.fixture(scope="session")
def suite20():
    return openacc20_suite()


@pytest.fixture()
def quick_runner() -> ValidationRunner:
    return ValidationRunner(config=HarnessConfig(iterations=1))


def run_c(compiler: Compiler, source: str, env_vars=None):
    return compiler.compile(source, "c").run(env_vars=env_vars)


def run_f(compiler: Compiler, source: str, env_vars=None):
    return compiler.compile(source, "fortran").run(env_vars=env_vars)


@pytest.fixture()
def tree_oracle():
    """A context manager: inside it, the compiler pipeline runs programs on
    the reference tree walker (``tests/treewalk.py``) instead of their
    closure lowering, so a test can run the same thing both ways."""
    from tests.treewalk import oracle

    return oracle


@pytest.fixture()
def memo_off(monkeypatch):
    """A context manager: inside it, every execute-memo lookup misses, so
    every iteration of every phase runs its program."""

    @contextlib.contextmanager
    def off():
        with monkeypatch.context() as patch:
            patch.setattr(CompileCache, "recall",
                          lambda self, key, behavior, seed, tracer=None: None)
            yield

    return off


@pytest.fixture()
def collector_off():
    """The cyclic garbage collector disabled for the test, so only
    reference counting frees objects; its state is restored after."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()
