"""The frontend's output, frozen: one sha256 over every token and every
parsed program of the corpus, genprog seeds 0-299 and the VC ladders, and
a table of malformed inputs with the exact error each one raises.  A
change to the tokenizer or the parser that must not change what they
produce proves it here.

To refreeze after a deliberate change, run

    PYTHONPATH=src python tests/test_frontend_pin.py

and paste the printed digest over `FROZEN`.  Log every refreeze in
CHANGES.md.
"""

import hashlib
import sys

import pytest

from defun.errors import LexError, ParseError
from defun.frontend import parse_program, tokenize
from defun.syntax import walk

from conftest import CORPUS_FILES, corpus_text
from genprog import gen_program
from test_pinned_output import ladders


def sources():
    yield from ((name, corpus_text(name)) for name in CORPUS_FILES)
    yield from ((f"seed{s}", gen_program(s)) for s in range(300))
    yield from ladders()


FROZEN = "7acd79fafaeb85adb3cfe5519265f9b79f97e7a0cfe76f07253329012cdf8fd0"


def digest() -> str:
    """Each token's kind, text and location, then the parsed program's
    `repr` and the class and location of each of its nodes in pre-order
    (`repr` leaves locations out)."""
    h = hashlib.sha256()
    for name, text in sources():
        h.update(f"source {name}\n".encode())
        for t in tokenize(text):
            h.update(f"{t.kind} {t.text!r} {t.loc.line} {t.loc.col}\n"
                     .encode())
        program = parse_program(text)
        h.update(repr(program).encode())
        for node in walk(program):
            h.update(f"{type(node).__name__} {getattr(node, 'loc', None)}\n"
                     .encode())
    return h.hexdigest()


def test_tokens_and_trees_are_pinned():
    assert digest() == FROZEN


LONG_INT = "1" * (sys.get_int_max_str_digits() + 1)
DEF = "let f (x : int) : int = "
TOO_DEEP = "program nested deeper than 64 levels"


def case(name, source, cls, error, **kw):
    return pytest.param(source, cls, error, id=name, **kw)


MALFORMED = [
    case("comment", "(* c", LexError, "1:3: unterminated comment"),
    case("spec", "x (*@ r = f x", LexError,
         "1:14: unterminated specification comment"),
    case("terminator", "x *)", LexError, "1:3: unmatched comment terminator"),
    case("superscript", "let y = 1\nx + ²", LexError,
         "2:5: illegal character '²'"),
    case("prime", "x'", LexError,
         "1:1: type variables are not supported: \"x'\""),
    case("attribute", "[@gospel x", LexError,
         "1:1: malformed gospel attribute"),
    case("long-int", DEF + LONG_INT, LexError,
         f"1:25: integer literal of {len(LONG_INT)} digits exceeds the "
         f"limit of {len(LONG_INT) - 1}",
         marks=pytest.mark.skipif(not sys.get_int_max_str_digits(),
                                  reason="integer conversion is unlimited")),
    case("chained-comparison", DEF + "a < b < c", ParseError,
         "1:31: expected an expression, found '<'"),
    case("prefix-minus", "- x", ParseError,
         "1:1: expected an expression, found '-'"),
    case("trailing-plus", DEF + "x +", ParseError,
         "1:28: expected an expression, found ''"),
    # found by the depth check after parsing, at the leftmost node too deep
    case("deep-sum", DEF + " + ".join(["x"] * 100), ParseError,
         f"1:167: {TOO_DEEP}"),
    case("deep-list", DEF[:-3] + " list = [" + "; ".join(["x"] * 100) + "]",
         ParseError, f"1:217: {TOO_DEEP}"),
    case("deep-type", "let f (g : " + "int -> " * 70 + "int) : int = 0",
         ParseError, f"1:515: {TOO_DEEP}"),
    case("deep-pattern", "let f (l : int list) : int = match l with | "
         + "a :: " * 70 + "t -> 0 end", ParseError, f"1:350: {TOO_DEEP}"),
    case("deep-ensures", DEF + "x\n(*@ r = f x\n    ensures r = "
         + " + ".join(["x"] * 80) + " *)", ParseError, f"3:87: {TOO_DEEP}"),
    case("deep-seq", DEF + "x; " * 80 + "x", ParseError,
         f"1:211: {TOO_DEEP}"),
    case("deep-if", DEF + "if x > 0 then " * 62 + "x" + " else 0" * 62,
         ParseError, f"1:882: {TOO_DEEP}"),
    case("deep-logical", "(*@ function g (x : int) : int = "
         + " + ".join(["x"] * 80) + " *)", ParseError, f"1:96: {TOO_DEEP}"),
]


@pytest.mark.parametrize("source, cls, error", MALFORMED)
def test_malformed_input_error(source, cls, error):
    with pytest.raises(cls) as exc:
        parse_program(source)
    assert type(exc.value) is cls
    assert str(exc.value) == error


if __name__ == "__main__":
    print(f'FROZEN = "{digest()}"')
