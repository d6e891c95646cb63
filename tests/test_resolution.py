"""Names are resolved once: the checker's `Resolution` of each item and the
identifiers the parser records agree with resolving them by walking the
tree (`scoping`), on the corpus, genprog seeds 0-299 and every program
literal of the tests."""

import pytest

from defun.errors import SourceError
from defun.frontend import parse_program
from defun.syntax import App, ExprStmt, LetDef, Var
from defun.typecheck import Checker

import differential
from scoping import all_identifiers, item_lambdas, walk_scoped


def checked():
    """(name, program, checker or None) of every program that parses; the
    checker is None for a program it rejects."""
    out = []
    for name, text in differential.programs(range(300)) + \
            differential.literals():
        try:
            program = parse_program(text)
        except SourceError:
            continue
        checker = Checker()
        try:
            checker.check_program(program)
        except SourceError:
            checker = None
        out.append((name, program, checker))
    return out


@pytest.fixture(scope="module")
def programs():
    return checked()


def item_uses(item, fns: dict) -> list:
    """(Var, arguments it is applied to) of each variable of `item` that
    names one of the functions `fns` rather than a local, in pre-order."""
    applied, out = {}, []
    for e, bound in walk_scoped(item):
        if type(e) is App:
            applied[id(e.fn)] = applied.get(id(e), 0) + 1
        elif type(e) is Var and e.name in fns and e.name not in bound:
            out.append((e, applied.get(id(e), 0)))
    return out


def test_recorded_identifiers_cover_the_walk(programs):
    assert len(programs) > 300
    for name, program, _ in programs:
        assert all_identifiers(program) <= program.names, name


def test_checker_resolves_like_the_scoped_walk(programs):
    seen = 0
    for name, program, checker in programs:
        if checker is None:
            continue
        fns = set()  # the top-level functions in scope
        for item in program.items:
            if isinstance(item, LetDef) and item.params:
                fns.add(item.name)
            elif isinstance(item, LetDef):
                fns.discard(item.name)
            if not isinstance(item, (LetDef, ExprStmt)):
                continue
            res = checker.resolved[id(item)]
            got = [(id(v), n) for v, n in res.uses]
            assert got == [(id(v), n) for v, n in item_uses(item, fns)], name
            got = [(id(lam), list(free.items())) for lam, free in res.lambdas]
            assert got == [(id(lam), free)
                           for lam, free in item_lambdas(item)], name
            seen += len(res.lambdas)
    assert seen > 600
