"""The simulated OpenACC compiler.

:class:`~repro.compiler.pipeline.Compiler` bundles a frontend (mini-C or
mini-Fortran), a validation pass producing compile-time diagnostics, and the
execution engine (:mod:`repro.compiler.interp` driving
:mod:`repro.compiler.exec_model` on the accelerator simulator).  Behavioural
variation between implementations — including every injected vendor bug —
is carried entirely by :class:`~repro.compiler.behavior.CompilerBehavior`.
"""

from repro.compiler.behavior import CompilerBehavior, REFERENCE_BEHAVIOR
from repro.compiler.cache import CacheOutcome, CacheStats, CompileCache
from repro.compiler.closures import LoweredProgram, lower_program
from repro.compiler.errors import (
    CompileError,
    CompilerCrashError,
    UnsupportedFeatureError,
)
from repro.compiler.interp import (
    BACKENDS,
    DEFAULT_BACKEND,
    ExecutionLimits,
    ExecutionResult,
    Interpreter,
    InterpreterReuseError,
)
from repro.compiler.pipeline import CompiledProgram, Compiler, ProgramRunner

__all__ = [
    "CompilerBehavior", "REFERENCE_BEHAVIOR",
    "CacheOutcome", "CacheStats", "CompileCache",
    "LoweredProgram", "lower_program",
    "CompileError", "CompilerCrashError", "UnsupportedFeatureError",
    "BACKENDS", "DEFAULT_BACKEND", "ExecutionLimits", "ExecutionResult", "Interpreter",
    "InterpreterReuseError",
    "CompiledProgram", "Compiler", "ProgramRunner",
]
