"""The front ends' tokens, ASTs, validation facts and error messages over
the whole corpus match ``tests/data/frontend_golden.txt`` (see
:mod:`tests.frontend_golden` for the format and how to regenerate it),
and every token points at its own text in the source."""

from repro.frontend.tokens import TokenKind
from tests.frontend_golden import GOLDEN, corpus, records, tokenize


def test_front_end_output_matches_the_golden_file():
    expected = GOLDEN.read_text().splitlines()
    actual = records()
    changed = [(want, got) for want, got in zip(expected, actual) if want != got]
    assert len(actual) == len(expected)
    # the first differing records name the source and which dump moved
    assert changed[:3] == []


def _text_at(lines, loc, width):
    return lines[loc.line - 1][loc.column - 1:loc.column - 1 + width]


def test_every_token_points_at_its_text():
    """For every token of every corpus source, directive payload tokens
    included, the source at the token's line and column starts with the
    token's text (Fortran folds case)."""
    checked = 0
    for language, _variant, name, source in corpus():
        lex = tokenize(language)
        fold = str.lower if language == "fortran" else str
        lines = source.split("\n")
        for tok in lex(source, name):
            if tok.kind in (TokenKind.EOF, TokenKind.NEWLINE):
                continue
            if tok.kind is TokenKind.PRAGMA:
                sentinel = "#" if language == "c" else "!$acc"
                assert fold(_text_at(lines, tok.loc, len(sentinel))) == sentinel
                payload = lex(tok.text, name, tok.loc.line, tok.value)
                for sub in payload:
                    if sub.kind in (TokenKind.EOF, TokenKind.NEWLINE):
                        continue
                    assert fold(_text_at(lines, sub.loc, len(sub.text))) \
                        == sub.text, (name, sub.loc, sub.text)
                    checked += 1
                continue
            assert fold(_text_at(lines, tok.loc, len(tok.text))) == tok.text, \
                (name, tok.loc, tok.text)
            checked += 1
    assert checked > 50_000
