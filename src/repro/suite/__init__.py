"""The OpenACC 1.0 validation test corpus.

"In the current OpenACC validation testsuite, we have designed more than 160
test cases covering the OpenACC C and OpenACC Fortran feature set included
in 1.0 version.  These test cases cover tests for directives, clauses,
runtime library routine, as well as environment variables."  (Section III)

This package authors that corpus: one template per (feature, language),
written in the HTML-style template syntax of :mod:`repro.templates` and
registered in :mod:`repro.suite.registry`.  Repetitive families (the data
clauses across parallel/kernels/data; the reduction type x operator matrix)
are emitted by parametric builders, exactly the economy the template
infrastructure was designed for.
"""

from repro.suite.registry import (
    SuiteRegistry,
    combination_suite,
    openacc10_suite,
    openacc20_suite,
)

__all__ = [
    "SuiteRegistry",
    "combination_suite",
    "openacc10_suite",
    "openacc20_suite",
]
