import dataclasses

from defun import syntax
from defun.errors import Loc
from defun.syntax import (
    ConstructorApp, IntLit, Lambda, TArrow, TNamed, Var, map_children, walk,
    BOOL, INT,
)

from scoping import free_vars, walk_scoped


def deep_cons(n):
    e = ConstructorApp("Nil", [])
    for i in range(n):
        e = ConstructorApp("Cons", [Var(f"x{i % 7}", ty=INT), e])
    return e


def syntax_classes():
    return [c for c in vars(syntax).values()
            if isinstance(c, type) and dataclasses.is_dataclass(c)
            and c.__module__ == syntax.__name__]


class TestWalk:
    def test_every_structural_field_of_every_class(self):
        for cls in syntax_classes():
            fields = [f for f in dataclasses.fields(cls) if f.init]
            markers = {f.name: TNamed(f"{cls.__name__}.{f.name}")
                       for f in fields}
            node = cls(**markers)
            structural = [markers[f.name] for f in fields if f.compare]
            assert list(walk(node)) == [node] + structural, cls.__name__

    def test_lists_and_tuples_flattened_in_order(self):
        a, b, c = TNamed("a"), TNamed("b"), TNamed("c")
        node = syntax.TypeDecl("t", variants=[("A", [a, b]), ("B", [c])])
        assert list(walk(node)) == [node, a, b, c]

    def test_deep_chain_without_recursion(self):
        n = 10 ** 5
        e = deep_cons(n)
        assert sum(1 for _ in walk(e)) == 2 * n + 1
        assert sum(1 for _ in walk_scoped(e)) == 2 * n + 1
        first_seen = dict.fromkeys(f"x{i % 7}" for i in reversed(range(n)))
        assert [name for name, _ in free_vars(e)] == list(first_seen)


class TestMapChildren:
    def test_deep_chain_is_mapped_one_level(self):
        e = deep_cons(10 ** 5)
        assert map_children(e, lambda c: c) is e
        one = IntLit(1)
        head, tail = e.args
        out = map_children(e, lambda c: one if c is head else c)
        assert out is not e
        assert out.args[0] is one and out.args[1] is tail

    def test_metadata_kept(self):
        lam = Lambda(None, [("y", INT)], INT, IntLit(1),
                     chain=[("x", INT)], ty=TArrow(INT, INT), loc=Loc(3, 4))
        out = map_children(lam, lambda c: IntLit(2) if c == IntLit(1) else c)
        assert out.body == IntLit(2)
        assert out.chain == [("x", INT)]
        assert out.ty == TArrow(INT, INT)
        assert out.loc == Loc(3, 4)
        assert lam.body == IntLit(1)

    def test_frozen_types_and_tuples(self):
        t = TNamed("pair", (INT, TArrow(INT, INT)))
        out = map_children(t, lambda c: BOOL if c == INT else c)
        assert out == TNamed("pair", (BOOL, TArrow(INT, INT)))
        assert isinstance(out.args, tuple)
