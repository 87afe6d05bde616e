"""mini-Fortran lexer (free form).

Notable behaviours:

* newlines are significant (statement separators) and produced as
  :data:`TokenKind.NEWLINE` tokens; ``;`` is treated the same way;
* ``&`` at end of line joins continuation lines (an optional leading ``&``
  on the continuation is consumed);
* ``!`` starts a comment, except the OpenACC sentinel ``!$acc`` which
  becomes a single :data:`TokenKind.PRAGMA` token (directive continuations
  ``!$acc ... &`` / ``!$acc& ...`` are glued);
* dot operators (``.and.``, ``.eq.``, ...) are lexed as OP tokens;
  ``.true.`` / ``.false.`` become INT literals 1/0;
* ``1.0d0`` style kind exponents produce double-precision FLOAT tokens.

After continuation lines are glued, each line is scanned once with one
master pattern (:data:`_TOKEN_RE`).
"""

from __future__ import annotations

import re
from typing import List, Optional, Tuple

from repro.frontend.errors import LexError
from repro.frontend.tokens import Token, TokenKind
from repro.ir.astnodes import SourceLocation

IDENT, KEYWORD, INT, FLOAT, STRING, OP, PRAGMA, NEWLINE, EOF = (
    TokenKind.IDENT, TokenKind.KEYWORD, TokenKind.INT, TokenKind.FLOAT,
    TokenKind.STRING, TokenKind.OP, TokenKind.PRAGMA, TokenKind.NEWLINE,
    TokenKind.EOF,
)

FORTRAN_KEYWORDS = frozenset(
    """
    program function subroutine end call do while if then else elseif
    endif enddo exit cycle return integer real double precision logical
    dimension implicit none result parameter intent print stop continue
    """.split()
)

_DOT_OPS = [
    ".and.", ".or.", ".not.", ".eqv.", ".neqv.",
    ".eq.", ".ne.", ".lt.", ".le.", ".gt.", ".ge.",
]
_DOT_LITERALS = {".true.": 1, ".false.": 0}

_OPERATORS = [
    "**", "==", "/=", "<=", ">=", "//", "::", "=>",
    "+", "-", "*", "/", "<", ">", "=", "(", ")", ",", ":", "%",
]


def _any_case(word: str) -> str:
    """A pattern matching ``word`` in any mix of ASCII letter cases."""
    return "".join(f"[{c}{c.upper()}]" if c.isalpha() else re.escape(c)
                   for c in word)


# One alternative per lexeme of a (continuation-glued) line, in the order
# the lexer tries them: the first that matches wins, so the operators keep
# their longest-first order.  A quote doubled inside a string is part of
# it, so a string must not end just before another of its quotes;
# ``open_string`` catches a quote that no string closes, ``bad`` any other
# character.
_TOKEN_RE = re.compile(
    r"""
    (?P<space>[ \t\r]+)
    | (?P<ident>[A-Za-z][A-Za-z0-9_]*)
    | (?P<comment>!)
    | (?P<semicolon>;)
    | (?P<string>'(?:[^']|'')*'(?!')|"(?:[^"]|"")*"(?!"))
    | (?P<open_string>['"])
    | (?P<dot_literal>""" + "|".join(map(_any_case, _DOT_LITERALS)) + r""")
    | (?P<dot_op>""" + "|".join(map(_any_case, _DOT_OPS)) + r""")
    | (?P<number>
        # mantissa with optional d/e exponent; 'd' exponent => double
        (?P<mant>\d+\.\d*|\.\d+|\d+)(?:(?P<expchar>[edED])(?P<exp>[+-]?\d+))?
      )
    | (?P<op>""" + "|".join(map(re.escape, _OPERATORS)) + r""")
    | (?P<bad>.)
    """,
    re.VERBOSE,
)

_SENTINEL_RE = re.compile(r"!\$acc\b(.*)", re.IGNORECASE)
_SENTINEL_CONTINUATION_RE = re.compile(r"!\$acc&?(.*)", re.IGNORECASE)


def _glue_continuations(source: str) -> List[Tuple[int, str, Optional[list]]]:
    """Join `&`-continued code lines (``!$acc`` continuations are joined
    by :func:`tokenize`).

    Each logical line comes back as ``(row, text, pieces)``: ``row`` is
    the 0-based index of its first physical line, and ``pieces`` (None
    for a line that continues nothing) maps the glued text back to the
    source, one ``(offset, row, col)`` per continuation line: the text
    from ``offset`` on stands at 0-based ``row`` and ``col``.
    """
    out: List[Tuple[int, str, Optional[list]]] = []
    lines = source.split("\n")
    i = 0
    while i < len(lines):
        first = i
        body = lines[i].rstrip()
        pieces = None
        while body.endswith("&") and not body.lstrip().lower().startswith("!$acc"):
            i += 1
            nxt = lines[i] if i < len(lines) else ""
            nxt_stripped = nxt.lstrip()
            col = len(nxt) - len(nxt_stripped)
            if nxt_stripped.startswith("&"):
                nxt_stripped = nxt_stripped[1:]
                col += 1
            body = body[:-1].rstrip() + " "
            if pieces is None:
                pieces = []
            pieces.append((len(body), i, col))
            body += nxt_stripped.rstrip()
        out.append((first, body, pieces))
        i += 1
    return out


def _continued_loc(filename: str, line: int, pieces: list,
                   offset: int) -> SourceLocation:
    """Where ``offset`` of a glued line stands in the source (``line`` is
    the source's first line): on the last continuation line whose text
    starts at or before it."""
    start, row, col = next(p for p in reversed(pieces) if p[0] <= offset)
    return SourceLocation(filename, line + row, col + offset - start + 1)


def tokenize(source: str, filename: str = "<fortran>", line: int = 1,
             column: int = 1) -> List[Token]:
    """Tokenize mini-Fortran source text that starts at ``line``:``column``
    of ``filename`` (a directive payload is lexed where it stands).
    Every token reports the physical line and column it stands at, on a
    continuation line too."""
    logical = _glue_continuations(source)
    tokens: List[Token] = []
    append = tokens.append
    index = 0
    n_logical = len(logical)
    # the first line's text starts at `column`, every later one at 1
    shift = column - 1

    while index < n_logical:
        first, raw, pieces = logical[index]
        index += 1
        row = line + first
        # glued text from here on is on a continuation line
        continued = pieces[0][0] if pieces else len(raw) + 1

        stripped = raw.lstrip()
        lead = len(raw) - len(stripped)

        # OpenACC sentinel (must be checked before general comment)
        m = _SENTINEL_RE.match(stripped)
        if m:
            payload = m.group(1)
            pad = len(payload) - len(payload.lstrip())
            # absolute column of the directive payload, where the parser
            # lexes it in place
            payload_col = shift + lead + 1 + m.start(1) + pad
            text = payload.strip()
            # directive continuation: trailing '&', next lines start !$acc
            while text.endswith("&") and index < n_logical:
                m2 = _SENTINEL_CONTINUATION_RE.match(
                    logical[index][1].lstrip())
                if not m2:
                    break
                index += 1
                text = text[:-1].strip() + " " + m2.group(1).strip()
            append(Token(PRAGMA, text,
                         SourceLocation(filename, row, shift + lead + 1),
                         value=payload_col))
            append(Token(NEWLINE, "\n",
                         SourceLocation(filename, row, shift + len(raw) + 1)))
            shift = 0
            continue

        emitted = False
        for m in _TOKEN_RE.finditer(raw):
            kind = m.lastgroup
            if kind == "space":
                continue
            if kind == "comment":
                break  # comment to end of line
            start = m.start()
            if start < continued:
                loc = SourceLocation(filename, row, shift + start + 1)
            else:
                loc = _continued_loc(filename, line, pieces, start)
            text = m.group()
            if kind == "ident":
                text = text.lower()
                append(Token(KEYWORD if text in FORTRAN_KEYWORDS else IDENT,
                             text, loc))
            elif kind == "op":
                append(Token(OP, text, loc))
            elif kind == "number":
                mant = m.group("mant")
                expchar = m.group("expchar")
                if "." in mant or expchar:
                    value = float(mant) * (
                        10.0 ** int(m.group("exp")) if expchar else 1.0
                    )
                    is_double = bool(expchar) and expchar.lower() == "d"
                    append(Token(FLOAT, text, loc, value=(value, not is_double)))
                else:
                    append(Token(INT, text, loc, value=int(mant)))
            elif kind == "semicolon":
                append(Token(NEWLINE, ";", loc))
                emitted = False
                continue
            elif kind == "dot_op":
                append(Token(OP, text.lower(), loc))
            elif kind == "dot_literal":
                text = text.lower()
                append(Token(INT, text, loc, value=_DOT_LITERALS[text]))
            elif kind == "string":
                # strings (both quote styles, doubled-quote escapes)
                quote = text[0]
                append(Token(STRING, text, loc,
                             value=text[1:-1].replace(quote * 2, quote)))
            elif kind == "open_string":
                raise LexError("unterminated string", loc)
            else:
                raise LexError(f"unexpected character {text!r}", loc)
            emitted = True

        if emitted:
            append(Token(NEWLINE, "\n", SourceLocation(
                filename, row, shift + len(raw) + 1) if pieces is None
                else _continued_loc(filename, line, pieces, len(raw))))
        shift = 0

    n_lines = source.count("\n") + 1
    append(Token(EOF, "", SourceLocation(filename, line + n_lines - 1,
                                         column if n_lines == 1 else 1)))
    return tokens
