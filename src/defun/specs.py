"""Translation of specification formulas into the first-order vocabulary.

A formula is a term of the expression language (see `syntax`).  The main
job is expanding the `post` meta-predicate into calls of the generated
per-family post predicates, introducing a fresh quantified intermediate
for every extra argument, and renaming spec-header names to the
definition's actual parameters and the canonical `result`.
"""

from __future__ import annotations

from dataclasses import replace

from .errors import TransformError
from .syntax import (
    App, BinOp, Expr, Forall, LemmaDecl, LetDef, LetIn, PostMeta, Spec,
    TArrow, TupleE, Var, call, map_children, walk,
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
    """Substitute terms for free variables; binders shadow as expected,
    and the symbol a call applies is not a variable."""
    def under(mapping):
        def go(f):
            cls = type(f)
            if cls is Var:
                return mapping.get(f.name, f)
            if cls is App:  # the head of a call is a symbol
                fn = f.fn if type(f.fn) is Var else go(f.fn)
                return App(fn, go(f.arg), loc=f.loc)
            if cls is Forall:
                bound = {n for n, _ in f.binders}
                inner = {k: v for k, v in mapping.items() if k not in bound}
                return Forall(list(f.binders), under(inner)(f.body), loc=f.loc)
            if cls is LetIn:
                d = f.defn
                inner = {k: v for k, v in mapping.items() if k != d.name}
                return LetIn(replace(d, body=go(d.body)),
                             under(inner)(f.body), loc=f.loc)
            if isinstance(f, Expr):
                return map_children(f, go)
            return f
        return go

    return under(dict(mapping))(f)


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


def translate_spec(spec: Spec, d: LetDef, resolver, rewrite_ty) -> tuple[list, list]:
    """Rename header names to the actual parameters and `result`, expand
    PostMetas, and encode multiple result names as projections of a single
    result."""
    mapping: dict[str, Expr] = {}
    if spec.arg_names:
        if len(spec.arg_names) != len(d.params):
            raise TransformError(
                "header-arity",
                f"spec header of {d.name!r} names {len(spec.arg_names)} "
                f"arguments, definition has {len(d.params)}", spec.loc)
        for n, (actual, _) in zip(spec.arg_names, d.params):
            mapping[n] = Var(actual)

    def translate(f: Expr) -> Expr:
        out = subst_formula(f, mapping)
        if len(spec.result_names) > 1:
            names = formula_names(out)
            if any(r in names for r in spec.result_names):
                binders = [(r, rewrite_ty(t, spec.loc))
                           for r, t in zip(spec.result_names, d.ret.items)]
                out = Forall(
                    binders,
                    BinOp("->", BinOp("=", Var("result"),
                                      TupleE([Var(r) for r, _ in binders])),
                          out),
                    loc=spec.loc)
        elif spec.result_names:
            out = subst_formula(out, {spec.result_names[0]: Var("result")})
        return expand_post_meta(out, resolver)

    return ([translate(f) for f in spec.requires],
            [translate(f) for f in spec.ensures])


def passthrough_lemma(lemma: LemmaDecl, resolver) -> LemmaDecl:
    return LemmaDecl(lemma.name,
                     expand_post_meta(lemma.formula, resolver), loc=lemma.loc)
