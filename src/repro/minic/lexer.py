"""mini-C lexer.

Produces :class:`repro.frontend.tokens.Token` sequences.  ``#pragma acc``
lines (including backslash continuations, as used by the paper's listings,
e.g. Fig. 4) become single :data:`TokenKind.PRAGMA` tokens whose text is the
directive payload after the ``acc`` sentinel.  Other preprocessor lines
(``#include`` etc.) are skipped — the generated programs are self-contained.

The lexer is one master pattern (:data:`_TOKEN_RE`) scanned once over the
text; line and column come from the offset of the current line's start.
"""

from __future__ import annotations

import re
from typing import List

from repro.frontend.errors import LexError
from repro.frontend.tokens import Token, TokenKind
from repro.ir.astnodes import SourceLocation

IDENT, KEYWORD, INT, FLOAT, STRING, OP, PRAGMA, EOF = (
    TokenKind.IDENT, TokenKind.KEYWORD, TokenKind.INT, TokenKind.FLOAT,
    TokenKind.STRING, TokenKind.OP, TokenKind.PRAGMA, TokenKind.EOF,
)

C_KEYWORDS = frozenset(
    """
    int long float double char void if else for while do return break
    continue sizeof static const unsigned signed struct
    """.split()
)

# Multi-character operators, longest first so maximal munch works.
_OPERATORS = [
    "<<=", ">>=", "...",
    "++", "--", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=",
    "<<", ">>", "<=", ">=", "==", "!=", "&&", "||", "->",
    "+", "-", "*", "/", "%", "&", "|", "^", "~", "!", "<", ">", "=",
    "(", ")", "[", "]", "{", "}", ",", ";", ":", "?", ".",
]

_NUMBER = r"""
    (?P<hex>0[xX][0-9a-fA-F]+)
    | (?P<float>
        (?:\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)(?:[fFlL])?
        | (?:\d+\.\d*|\.\d+)(?:[fFlL])?
        | \d+[fF]
      )
    | (?P<int>\d+[uUlL]*)
"""

# One alternative per lexeme, in the order the lexer tries them: the
# first that matches wins, so the operators keep their longest-first
# order, and each ``open_*`` alternative catches what its well-formed
# predecessor could not close.  ``bad`` takes any other character.
_TOKEN_RE = re.compile(
    r"""
    (?P<space>[ \t\r\n]+)
    | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
    | (?P<line_comment>//[^\n]*)
    | (?P<block_comment>/\*[\s\S]*?\*/)
    | (?P<open_block_comment>/\*)
    | (?P<directive>\#(?:[^\n]*\\[^\S\n]*\n(?=[\s\S]))*[^\n]*)
    | (?P<string>"(?:[^"\\]|\\[\s\S])*")
    | (?P<open_string>")
    | (?P<char>'(?:\\[\s\S]|[^\\])')
    | (?P<open_char>')
    | """ + _NUMBER + r"""
    | (?P<op>""" + "|".join(re.escape(op) for op in _OPERATORS) + r""")
    | (?P<bad>[\s\S])
    """,
    re.VERBOSE,
)

_PRAGMA_RE = re.compile(r"\s*#\s*pragma\s+acc\b(.*)", re.DOTALL)


def tokenize(source: str, filename: str = "<c>", line: int = 1,
             column: int = 1) -> List[Token]:
    """Tokenize mini-C source text that starts at ``line``:``column`` of
    ``filename`` (a directive payload is lexed where it stands)."""
    tokens: List[Token] = []
    append = tokens.append
    # offset of the current line's column 1 (before the text on line one)
    line_start = 1 - column
    for m in _TOKEN_RE.finditer(source):
        kind = m.lastgroup
        start = m.start()
        if kind == "space":
            text = m.group()
            if "\n" in text:
                line += text.count("\n")
                line_start = start + text.rfind("\n") + 1
            continue
        if kind == "line_comment":
            continue
        loc = SourceLocation(filename, line, start - line_start + 1)
        if kind == "ident":
            text = m.group()
            append(Token(KEYWORD if text in C_KEYWORDS else IDENT, text, loc))
            continue
        if kind == "op":
            append(Token(OP, m.group(), loc))
            continue
        text = m.group()
        if kind == "int":
            append(Token(INT, text, loc, value=int(text.rstrip("uUlL"))))
        elif kind == "float":
            append(Token(FLOAT, text, loc,
                         value=(float(text.rstrip("fFlL")), text[-1] in "fF")))
        elif kind == "hex":
            append(Token(INT, text, loc, value=int(text, 16)))
        elif kind == "string":
            append(Token(STRING, text, loc, value=_unescape(text[1:-1])))
        elif kind == "char":
            append(Token(INT, text, loc, value=ord(_unescape(text[1:-1]))))
        elif kind == "directive":
            if not _only_ws_before(source, start):
                raise LexError("unexpected character '#'", loc)
            full = text.replace("\\\n", " ").replace("\\\r\n", " ")
            pragma = _PRAGMA_RE.match(full)
            if pragma:
                payload = pragma.group(1)
                # absolute column of the directive payload, where the
                # parser lexes it in place
                pad = len(payload) - len(payload.lstrip())
                append(
                    Token(PRAGMA, payload.strip(), loc,
                          value=loc.column + pragma.start(1) + pad)
                )
            # any other preprocessor directive is ignored
        elif kind == "block_comment":
            pass
        elif kind == "open_block_comment":
            raise LexError("unterminated block comment", loc)
        elif kind == "open_string":
            raise LexError("unterminated string literal", loc)
        elif kind == "open_char":
            raise LexError("unterminated char literal", loc)
        else:
            raise LexError(f"unexpected character {text!r}", loc)
        # strings, char literals, comments and continued directives may
        # span lines
        if "\n" in text:
            line += text.count("\n")
            line_start = start + text.rfind("\n") + 1

    append(Token(EOF, "", SourceLocation(
        filename, line, len(source) - line_start + 1)))
    return tokens


def _only_ws_before(source: str, i: int) -> bool:
    j = i - 1
    while j >= 0 and source[j] in " \t":
        j -= 1
    return j < 0 or source[j] == "\n"


_ESCAPES = {"n": "\n", "t": "\t", "r": "\r", "0": "\0", "\\": "\\", '"': '"', "'": "'"}


def _unescape(body: str) -> str:
    out = []
    i = 0
    while i < len(body):
        if body[i] == "\\" and i + 1 < len(body):
            out.append(_ESCAPES.get(body[i + 1], body[i + 1]))
            i += 2
        else:
            out.append(body[i])
            i += 1
    return "".join(out)
