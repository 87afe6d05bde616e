"""The one frontend dispatch: source text and language to a :class:`Program`.

The compiler's parse tier (:mod:`repro.compiler.frontend`) and the static
checker both parse through :func:`parse_source`, so a language has exactly
one frontend entry point.
"""

from __future__ import annotations

from repro.ir.astnodes import Program

#: the languages that have a frontend
LANGUAGES = ("c", "fortran")


def parse_source(source: str, language: str, name: str) -> Program:
    """Parse ``source`` with ``language``'s frontend.

    ``name`` names the program and the file in its source locations.
    Raises :class:`~repro.frontend.errors.FrontendError` when the text does
    not parse and ValueError for a language without a frontend.
    """
    # imported here: both frontends import this package
    if language == "c":
        from repro.minic import parse_program
    elif language == "fortran":
        from repro.minifort import parse_program
    else:
        raise ValueError(f"unknown language {language!r}")
    return parse_program(source, filename=name, name=name)
