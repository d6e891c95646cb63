"""Operations on specification formulas.

A formula is a term of the expression language (see `syntax`).  The
checker binds a spec header's names once (`Checker.check_spec`), so every
clause reaching this module is already over the parameters and `result`.
Here are the capture-avoiding substitution the checker and the VC
generator rename with, and the expansion of the `post` meta-predicate into
calls of the generated per-family post predicates, with a fresh quantified
intermediate for every extra argument.
"""

from __future__ import annotations

from dataclasses import replace

from .errors import TransformError
from .syntax import (
    App, BinOp, Expr, Forall, LetDef, LetIn, PostMeta, TArrow, Var, call,
    map_children, walk,
)


def formula_names(f: Expr) -> set[str]:
    """All names occurring in a formula, free or bound, the symbols it
    calls included."""
    out: set[str] = set()
    for g in walk(f):
        if type(g) is Var or type(g) is LetDef:
            out.add(g.name)
        elif type(g) is Forall:
            out.update(n for n, _ in g.binders)
    return out


def subst_formula(f: Expr, mapping: dict[str, Expr]) -> Expr:
    """Substitute terms for free variables, all at once.  Binders shadow,
    and a binder is renamed to a fresh `varN` when a name occurring under
    it is replaced by a term that mentions it, so that it captures nothing
    (Barendregt's variable convention); no other binder is renamed.  The
    symbol a call applies is not a variable."""
    fresh = None

    def bind(names, body, mapping):
        """`names`, bound over `body`, each renamed if it would capture,
        and the mapping under them."""
        nonlocal fresh
        used = formula_names(body)
        inner = {k: v for k, v in mapping.items()
                 if k in used and k not in names}
        caught = set().union(*map(formula_names, inner.values()))
        out = []
        for n in names:
            if n in caught:
                if fresh is None:
                    fresh = FreshNames(formula_names(f).union(
                        *map(formula_names, mapping.values())))
                m = fresh.fresh()
                inner[n] = Var(m)
                n = m
            out.append(n)
        return out, inner

    def go(f, mapping):
        if not mapping:
            return f
        cls = type(f)
        if cls is Var:
            return mapping.get(f.name, f)
        if cls is App:  # the head of a call is a symbol
            fn = f.fn if type(f.fn) is Var else go(f.fn, mapping)
            return App(fn, go(f.arg, mapping), loc=f.loc)
        if cls is Forall:
            names, inner = bind([n for n, _ in f.binders], f.body, mapping)
            return Forall([(m, t) for m, (_, t) in zip(names, f.binders)],
                          go(f.body, inner), loc=f.loc)
        if cls is LetIn:
            d = f.defn
            (name,), inner = bind([d.name], f.body, mapping)
            return LetIn(replace(d, name=name, body=go(d.body, mapping)),
                         go(f.body, inner), loc=f.loc)
        if isinstance(f, Expr):
            return map_children(f, lambda c: go(c, mapping))
        return f

    return go(f, mapping)


class FreshNames:
    """Deterministic var0, var1, ... supply skipping taken names."""

    def __init__(self, taken):
        self.taken = set(taken)
        self.counter = 0

    def fresh(self) -> str:
        while True:
            name = f"var{self.counter}"
            self.counter += 1
            if name not in self.taken:
                self.taken.add(name)
                return name


def expand_post_meta(f: Expr, resolver) -> Expr:
    """Replace every PostMeta with concrete post applications.

    `resolver` maps a source arrow type to its family; families carry
    `post_name` and `kont_ty` attributes.  Multi-argument posts become the
    right-nested forall chain over fresh kont-typed intermediates.
    """
    fresh = FreshNames(formula_names(f))

    def expand_pm(fn, fn_ty, args, result, loc):
        fam = resolver(fn_ty, loc)
        if len(args) == 1:
            return call(fam.post_name, [fn, args[0], result], loc=loc)
        inner_ty = fn_ty.result
        if not isinstance(inner_ty, TArrow):
            raise TransformError(
                "no-family", "post applied to more arguments than its type has",
                loc)
        inner_fam = resolver(inner_ty, loc)
        v = fresh.fresh()
        step = call(fam.post_name, [fn, args[0], Var(v)], loc=loc)
        rest = expand_pm(Var(v), inner_ty, args[1:], result, loc)
        return Forall([(v, inner_fam.kont_ty)], BinOp("->", step, rest),
                      loc=loc)

    def go(f):
        if type(f) is PostMeta:
            return expand_pm(go(f.fn), f.fn_ty, [go(a) for a in f.args],
                             go(f.result), f.loc)
        if isinstance(f, Expr):
            return map_children(f, go)
        return f

    return go(f)
