"""Frontend infrastructure shared by the mini-C and mini-Fortran parsers:
token model, error types and the language-parameterised OpenACC directive
(clause list) parser, and the one language dispatch (:func:`parse_source`).
"""

from repro.frontend.tokens import Token, TokenKind, TokenStream
from repro.frontend.errors import FrontendError, LexError, ParseError
from repro.frontend.directives import DirectiveParser
from repro.frontend.dispatch import LANGUAGES, parse_source

__all__ = [
    "Token", "TokenKind", "TokenStream",
    "FrontendError", "LexError", "ParseError",
    "DirectiveParser",
    "LANGUAGES", "parse_source",
]
