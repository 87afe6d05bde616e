"""Canonical dump of what the mini-C and mini-Fortran front ends produce
for the OpenACC 1.0 corpus, pinned in ``tests/data/frontend_golden.txt``.

Two kinds of record, one per line:

* ``source <language> <variant> <template> <tokens> <program> <facts>``
  for every corpus source (functional and cross): SHA-256 digests (first
  16 hex digits) of the canonical dumps of its top-level tokens (kind,
  text, line, column, value), ``repr`` of its :class:`Program` and its
  :class:`ValidationFacts` (frozensets sorted, ``at 0x...`` addresses
  stripped).  The dumps themselves are about 5 MB; ``--dump DIR`` writes
  them out so two checkouts can be diffed source by source.
* ``error <language> <variant> <template> <mutation> <outcome>`` for a
  seeded set of malformed variants: one truncation per source, one
  injected ``@``, ``"`` or ``'`` on a code line, and an unbalanced ``(``
  inside a directive (between two of its tokens).  The outcome is the
  exact ``LexError``/``ParseError`` text, or ``ok`` when the variant still
  parses.  Nothing is injected into a directive that could split a token:
  a lexing error inside a directive payload is pinned with its position by
  ``test_minic``/``test_minifort``.

Regenerate (only when the front end's output is meant to change)::

    PYTHONPATH=src python -m tests.frontend_golden --write
"""

from __future__ import annotations

import argparse
import hashlib
import random
import re
import sys
from pathlib import Path
from typing import Iterator, List, Tuple

from repro.compiler.frontend import ComputeRegion, ValidationFacts, parse_front
from repro.frontend.errors import FrontendError
from repro.frontend.dispatch import parse_source
from repro.suite import openacc10_suite
from repro.templates import generate_cross, generate_functional

GOLDEN = Path(__file__).parent / "data" / "frontend_golden.txt"
SEED = 20140519

_ADDRESS = re.compile(r" at 0x[0-9a-fA-F]+")


def corpus() -> Iterator[Tuple[str, str, str, str]]:
    """(language, variant, template name, source) of every corpus source."""
    for template in openacc10_suite():
        yield (template.language, "functional", template.name,
               generate_functional(template).source)
        if template.has_cross:
            yield (template.language, "cross", template.name,
                   generate_cross(template).source)


def tokenize(language: str):
    if language == "c":
        from repro.minic import tokenize as lex
    else:
        from repro.minifort import tokenize as lex
    return lex


def dump_tokens(language: str, name: str, source: str) -> str:
    return "".join(
        f"{tok.kind.value}\t{tok.text!r}\t{tok.loc.line}\t{tok.loc.column}"
        f"\t{tok.value!r}\n"
        for tok in tokenize(language)(source, name)
    )


def dump_facts(facts: ValidationFacts) -> str:
    def check(item) -> str:
        if isinstance(item, ComputeRegion):
            return (f"ComputeRegion({item.directive!r}, {item.body!r}, "
                    f"{item.calls!r})")
        return repr(item)

    lines = [
        f"user_functions={sorted(facts.user_functions)!r}",
        f"routine_functions={sorted(facts.routine_functions)!r}",
        *(f"check {check(item)}" for item in facts.checks),
        *(f"acc_call {call!r}" for call in facts.acc_calls),
    ]
    return _ADDRESS.sub("", "\n".join(lines) + "\n")


def source_dumps(language: str, name: str, source: str) -> Tuple[str, str, str]:
    parsed = parse_front(source, language, name)
    assert parsed.error is None, (name, parsed.error)
    return (dump_tokens(language, name, source),
            _ADDRESS.sub("", repr(parsed.program)) + "\n",
            dump_facts(parsed.facts))


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _is_directive(line: str, language: str) -> bool:
    stripped = line.lstrip().lower()
    if language == "c":
        return stripped.startswith("#")
    return stripped.startswith("!$acc")


def mutations(language: str, source: str,
              rng: random.Random) -> Iterator[Tuple[str, str]]:
    """(label, malformed source) variants of one corpus source."""
    cut = rng.randrange(1, len(source))
    yield f"truncate@{cut}", source[:cut]

    lines = source.split("\n")
    code = [i for i, line in enumerate(lines)
            if line.strip() and not _is_directive(line, language)]
    char = rng.choice("@\"'")
    row = rng.choice(code)
    col = rng.randrange(len(lines[row]) + 1)
    injected = lines[:row] + [lines[row][:col] + char + lines[row][col:]] \
        + lines[row + 1:]
    yield f"inject{char}@{row + 1}:{col + 1}", "\n".join(injected)

    sentinel = "#pragma acc" if language == "c" else "!$acc"
    directives = [i for i, line in enumerate(lines)
                  if line.lstrip().lower().startswith(sentinel)]
    if directives:
        # before a blank of the payload or at its end, so the ( splits
        # no identifier
        row = rng.choice(directives)
        line = lines[row]
        start = line.lower().index(sentinel) + len(sentinel)
        col = rng.choice([i for i in range(start, len(line))
                          if line[i] in " \t"] + [len(line)])
        unbalanced = lines[:row] + [line[:col] + "(" + line[col:]] \
            + lines[row + 1:]
        yield f"paren@{row + 1}:{col + 1}", "\n".join(unbalanced)


def outcome(language: str, name: str, source: str) -> str:
    try:
        parse_source(source, language, name)
    except FrontendError as err:
        return f"{type(err).__name__}: {err}"
    return "ok"


def records() -> List[str]:
    out: List[str] = []
    errors: List[str] = []
    rng = random.Random(SEED)
    for language, variant, name, source in corpus():
        digests = " ".join(_digest(d) for d in source_dumps(language, name, source))
        out.append(f"source {language} {variant} {name} {digests}")
        for label, bad in mutations(language, source, rng):
            errors.append(f"error {language} {variant} {name} {label} "
                          f"{outcome(language, name, bad)!r}")
    return out + errors


def write_dumps(directory: Path) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    for language, variant, name, source in corpus():
        for part, text in zip(("tokens", "program", "facts"),
                              source_dumps(language, name, source)):
            (directory / f"{language}.{variant}.{name}.{part}.txt").write_text(text)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true",
                        help=f"rewrite {GOLDEN.name}")
    parser.add_argument("--dump", type=Path, metavar="DIR",
                        help="write every source's full canonical dumps to DIR")
    args = parser.parse_args(argv)
    if args.dump:
        write_dumps(args.dump)
    if args.write:
        GOLDEN.write_text("\n".join(records()) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
