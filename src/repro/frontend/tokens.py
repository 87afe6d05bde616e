"""Token model and stream helpers shared by both lexers."""

from __future__ import annotations

from enum import Enum
from typing import List, Optional, Sequence

from repro.frontend.errors import ParseError
from repro.ir.astnodes import SourceLocation


class TokenKind(Enum):
    IDENT = "ident"
    KEYWORD = "keyword"
    INT = "int"
    FLOAT = "float"
    STRING = "string"
    OP = "op"          # operators and punctuation
    PRAGMA = "pragma"  # a whole `#pragma acc ...` / `!$acc ...` line
    NEWLINE = "newline"  # statement separator (Fortran only)
    EOF = "eof"


class Token:
    """One lexeme: its kind, its text, where it starts, and the numeric
    payload of an INT/FLOAT literal (a PRAGMA token's payload column)."""

    __slots__ = ("kind", "text", "loc", "value")

    def __init__(self, kind: TokenKind, text: str, loc: SourceLocation,
                 value: object = None):
        self.kind = kind
        self.text = text
        self.loc = loc
        self.value = value

    def is_op(self, *texts: str) -> bool:
        return self.kind is TokenKind.OP and self.text in texts

    def is_keyword(self, *texts: str) -> bool:
        return self.kind is TokenKind.KEYWORD and self.text in texts

    def is_ident(self, *texts: str) -> bool:
        return self.kind is TokenKind.IDENT and (not texts or self.text in texts)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Token({self.kind.value}, {self.text!r})"


class TokenStream:
    """Cursor over a token list with the usual LL(k) helpers.

    ``current`` is the token at ``pos``; :meth:`advance` and :meth:`seek`
    are the only ways to move, and keep both up to date.  The list always
    ends with an EOF token, which the cursor never moves past.
    """

    def __init__(self, tokens: Sequence[Token]):
        self._tokens: List[Token] = list(tokens)
        if not self._tokens or self._tokens[-1].kind is not TokenKind.EOF:
            last_loc = self._tokens[-1].loc if self._tokens else SourceLocation()
            self._tokens.append(Token(TokenKind.EOF, "", last_loc))
        self._last = len(self._tokens) - 1
        self.pos = 0
        self.current: Token = self._tokens[0]

    def peek(self, offset: int = 0) -> Token:
        idx = self.pos + offset
        return self._tokens[idx if idx < self._last else self._last]

    def seek(self, pos: int) -> None:
        """Move back (or forward) to a position read from ``pos``."""
        self.pos = pos
        self.current = self._tokens[pos]

    def at_end(self) -> bool:
        return self.current.kind is TokenKind.EOF

    def advance(self) -> Token:
        tok = self.current
        if tok.kind is not TokenKind.EOF:
            self.pos += 1
            self.current = self._tokens[self.pos]
        return tok

    def match_op(self, *texts: str) -> Optional[Token]:
        if self.current.is_op(*texts):
            return self.advance()
        return None

    def match_keyword(self, *texts: str) -> Optional[Token]:
        if self.current.is_keyword(*texts):
            return self.advance()
        return None

    def expect_op(self, text: str) -> Token:
        tok = self.match_op(text)
        if tok is None:
            raise ParseError(
                f"expected {text!r}, found {self.current.text!r}", self.current.loc
            )
        return tok

    def expect_keyword(self, text: str) -> Token:
        tok = self.match_keyword(text)
        if tok is None:
            raise ParseError(
                f"expected keyword {text!r}, found {self.current.text!r}",
                self.current.loc,
            )
        return tok

    def expect_ident(self) -> Token:
        if self.current.kind is TokenKind.IDENT:
            return self.advance()
        raise ParseError(
            f"expected identifier, found {self.current.text!r}", self.current.loc
        )

    def expect_kind(self, kind: TokenKind) -> Token:
        if self.current.kind is kind:
            return self.advance()
        raise ParseError(
            f"expected {kind.value}, found {self.current.text!r}", self.current.loc
        )
