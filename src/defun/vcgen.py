"""Verification-condition generation for first-order TargetPrograms.

A weakest-precondition pass over the pure expression language produces
one postcondition VC per ensures clause per top-level match arm, plus
precondition-at-call, absurd-unreachability and lemma VCs.  VCs are
serialized as standalone SMT-LIB2 files (goal negated; `unsat` = valid).
"""

from __future__ import annotations

import json
import os
import shlex
from dataclasses import dataclass
from itertools import groupby

from .defunc import TargetProgram
from .errors import VCError
from .syntax import (
    Absurd, App, BinOp, BoolLit, Cons, ConstructorApp, FBinOp, FBool, FConstr,
    FInt, FLet, FLogicApp, FMatch, FTuple, FVar, Forall, Formula, If, IntLit,
    LetDef, LetIn, Lambda, Match, NilLit, Not, PCons, PConstr, PInt, PNil,
    PTuple, PVar, PWild, Seq, TBool, TInt, TNamed, TTuple, TUnit, TrueP,
    TupleE, Ty, UnitLit, Var, conj, formula_of_binop, FALSE, INT,
)

# ---------------------------------------------------------------------------
# VCs


@dataclass
class VC:
    name: str
    binders: list  # (name, Ty) declared context
    hypotheses: list  # Formula
    goal: Formula
    origin: tuple  # (definition name, loc, kind)

    @property
    def kind(self) -> str:
        return self.origin[2]


# ---------------------------------------------------------------------------
# Pattern compilation: tester/selector conditions

IS_PREFIX = "is-"
SEL_PREFIX = "sel-"


def tester(ctor: str, term: Formula) -> Formula:
    return FLogicApp(IS_PREFIX + ctor, [term])


def selector(ctor: str, i: int, term: Formula) -> Formula:
    return FLogicApp(f"{SEL_PREFIX}{ctor}-{i}", [term])


def pattern_cond(pat, scrut: Formula):
    """(condition, bindings) for matching `scrut` against `pat`; bindings
    map pattern variables to selector terms."""
    conds: list[Formula] = []
    binds: dict[str, Formula] = {}

    def go(pat, term):
        if isinstance(pat, PWild):
            return
        if isinstance(pat, PVar):
            binds[pat.name] = term
            return
        if isinstance(pat, PInt):
            conds.append(FBinOp("=", term, FInt(pat.value)))
            return
        if isinstance(pat, PNil):
            conds.append(tester("Nil", term))
            return
        if isinstance(pat, PCons):
            conds.append(tester("Cons", term))
            go(pat.head, selector("Cons", 0, term))
            go(pat.tail, selector("Cons", 1, term))
            return
        if isinstance(pat, PConstr):
            conds.append(tester(pat.name, term))
            for i, sub in enumerate(pat.args):
                go(sub, selector(pat.name, i, term))
            return
        if isinstance(pat, PTuple):
            for i, sub in enumerate(pat.items):
                go(sub, FLogicApp(f"{SEL_PREFIX}tup{len(pat.items)}-{i}",
                                  [term]))
            return
        raise AssertionError(f"unhandled pattern {pat!r}")

    go(pat, scrut)
    return conj(conds), binds


# ---------------------------------------------------------------------------
# WP engine


class VCGen:
    def __init__(self, t: TargetProgram):
        self.t = t
        self.defs: dict[str, LetDef] = {}
        for d in t.apply_defs:
            self.defs[d.name] = d
        for item in t.items:
            if isinstance(item, LetDef) and item.params:
                self.defs[item.name] = item
        self.vcs: list[VC] = []
        self.lemma_hyps: list[Formula] = []
        self._counters: dict[str, int] = {}
        # facts established by enclosing calls' ensures clauses; these are
        # scoped dynamically because continuations capture the lexical ctx
        # from before the call
        self._extra_binders: list = []
        self._extra_hyps: list = []
        # the continuation of the definition body being walked (its ensures
        # clause or the trivial one): small, so branches copy it; any
        # other continuation is joined through a fresh binder (wp_join)
        self._post = None

    def _side(self, binders, hyps, goal, origin, sink):
        if sink is not None:
            sink(VC("", list(binders) + list(self._extra_binders),
                    list(hyps) + list(self._extra_hyps), goal, origin))

    def fresh(self, base: str) -> str:
        """A binder name that captures no name of the program."""
        n = self._counters.get(base, 0)
        while f"{base}{n}" in self.t.names:
            n += 1
        self._counters[base] = n + 1
        return f"{base}{n}"

    # -- expression -> term/wp --------------------------------------------

    def wp(self, e, C, env: dict, ctx, sink):
        """Weakest precondition of `e` against continuation `C` (term ->
        Formula).  `env` substitutes program variables by terms; `ctx` is
        (binders, hyps) for side VCs dropped into `sink`."""
        if isinstance(e, IntLit):
            return C(FInt(e.value))
        if isinstance(e, BoolLit):
            return C(FBool(e.value))
        if isinstance(e, UnitLit):
            return C(FConstr("unit_v", []))
        if isinstance(e, NilLit):
            return C(FConstr("Nil", []))
        if isinstance(e, Var):
            return C(env.get(e.name, FVar(e.name)))
        if isinstance(e, Cons):
            return self.wp_many(
                [e.head, e.tail],
                lambda ts: C(FConstr("Cons", ts)), env, ctx, sink)
        if isinstance(e, ConstructorApp):
            return self.wp_many(
                e.args, lambda ts: C(FConstr(e.name, ts)), env, ctx, sink)
        if isinstance(e, TupleE):
            return self.wp_many(
                e.items, lambda ts: C(FTuple(ts)), env, ctx, sink)
        if isinstance(e, BinOp):
            return self.wp_many(
                [e.left, e.right],
                lambda ts: C(formula_of_binop(e.op, *ts)), env, ctx, sink)
        if isinstance(e, Seq):
            return self.wp(e.first,
                           lambda _t: self.wp(e.second, C, env, ctx, sink),
                           env, ctx, sink)
        if isinstance(e, LetIn):
            d = e.defn

            def after(t):
                env2 = dict(env)
                env2[d.name] = t
                return self.wp(e.body, C, env2, ctx, sink)
            return self.wp(d.body, after, env, ctx, sink)
        if isinstance(e, If):
            def split(c):
                if C is not self._post:
                    return self.wp_join(e.ty, [([c], e.then, env),
                                               ([Not(c)], e.els, env)],
                                        C, ctx, sink)
                binders, hyps = ctx
                then = self.wp(e.then, C, env, (binders, hyps + [c]), sink)
                els = self.wp(e.els, C, env, (binders, hyps + [Not(c)]), sink)
                return FBinOp("/\\", FBinOp("->", c, then),
                              FBinOp("->", Not(c), els))
            return self.wp(e.cond, split, env, ctx, sink)
        if isinstance(e, Match):
            def split(s):
                if C is not self._post:
                    return self.wp_join(e.ty, match_arms(e, s, env), C, ctx,
                                        sink)
                return self.wp_match(e, s, C, env, ctx, sink)
            return self.wp(e.scrutinee, split, env, ctx, sink)
        if isinstance(e, Absurd):
            binders, hyps = ctx
            self._side(binders, hyps, FALSE,
                       ("", e.loc, "absurd-unreachable"), sink)
            return TrueP()
        if isinstance(e, App):
            head, args = e, []
            while isinstance(head, App):
                args.append(head.arg)
                head = head.fn
            args.reverse()
            if not isinstance(head, Var):
                raise VCError("higher-order application reached wp")
            return self.wp_many(
                args, lambda ts: self.wp_call(head, ts, C, ctx, sink),
                env, ctx, sink)
        if isinstance(e, Lambda):
            raise VCError("lambda value reached wp")
        raise AssertionError(f"unhandled expression {e!r}")

    def wp_many(self, exprs, C, env, ctx, sink):
        def go(i, acc):
            if i == len(exprs):
                return C(acc)
            return self.wp(exprs[i], lambda t: go(i + 1, acc + [t]),
                           env, ctx, sink)
        return go(0, [])

    def wp_match(self, e: Match, scrut: Formula, C, env, ctx, sink):
        binders, hyps = ctx
        parts = []
        for path, body, env2 in match_arms(e, scrut, env):
            if isinstance(body, Absurd):
                self._side(binders, hyps + path, FALSE,
                           ("", e.loc, "absurd-unreachable"), sink)
                continue
            inner = self.wp(body, C, env2, (binders, hyps + path), sink)
            parts.append(FBinOp("->", conj(path), inner) if path else inner)
        return conj(parts)

    def wp_join(self, ty, branches, C, ctx, sink):
        """wp of a branching node whose value flows into `C`: a fresh
        binder `j` stands for the value, and `C` is applied once, to `j`,
        under the fact that some branch can yield `j` (Flanagan & Saxe,
        POPL 2001).  `branches` are (path, body, env) triples."""
        j = FVar(self.fresh("join_"))
        binders, hyps = ctx
        facts = []
        for path, body, env in branches:
            # "body can yield j" = not (every outcome t of body differs
            # from j); for a call-free body this is just j = t
            w = self.wp(body, lambda t: Not(FBinOp("=", j, t)), env,
                        (binders, hyps + path), sink)
            fact = w.body if isinstance(w, Not) else Not(w)
            facts.append(FBinOp("->", conj(path), fact) if path else fact)
        fact = conj(facts)
        self._extra_binders.append((j.name, ty))
        self._extra_hyps.append(fact)
        try:
            inner = C(j)
        finally:
            self._extra_binders.pop()
            self._extra_hyps.pop()
        return Forall([(j.name, ty)], FBinOp("->", fact, inner))

    def wp_call(self, head: Var, args, C, ctx, sink):
        d = self.defs.get(head.name)
        if d is None or d.spec is None:
            # spec-less functions become defined symbols in the SMT encoding
            return C(FLogicApp(head.name, list(args)))
        inst = {n: a for (n, _), a in zip(d.params, args)}
        requires = [subst(f, inst) for f in d.spec.requires]
        binders, hyps = ctx
        if requires:
            self._side(binders, hyps, conj(requires),
                       (d.name, head.loc, "precondition-at-call"), sink)
        res = self.fresh("res_")
        inst_r = dict(inst)
        inst_r["result"] = FVar(res)
        ensures = [subst(f, inst_r) for f in d.spec.ensures]
        self._extra_binders.append((res, d.ret))
        mark = len(self._extra_hyps)
        self._extra_hyps.extend(ensures)
        try:
            inner = C(FVar(res))
        finally:
            self._extra_binders.pop()
            del self._extra_hyps[mark:]
        return Forall([(res, d.ret)], FBinOp("->", conj(ensures), inner))

    # -- per-definition VCs ------------------------------------------------

    def vcs_for_def(self, d: LetDef):
        out: list[VC] = []
        binders = list(d.params)
        hyps = list(self.lemma_hyps)
        if d.spec is not None:
            hyps += d.spec.requires

        def harvest(vc: VC):
            name = f"vc_{d.name}_{len(out)}"
            out.append(VC(name, vc.binders, vc.hypotheses, vc.goal,
                          (d.name, vc.origin[1], vc.origin[2])))

        body = d.body
        if isinstance(body, Match) and isinstance(body.scrutinee, Var):
            cases = match_arms(body, FVar(body.scrutinee.name), {})
        else:
            cases = [([], body, {})]

        ensures = d.spec.ensures if d.spec is not None else []
        for path, arm_body, binds in cases:
            ctx = (binders, hyps + path)
            if isinstance(arm_body, Absurd):
                harvest(VC("", list(binders), hyps + path, FALSE,
                           (d.name, d.loc, "absurd-unreachable")))
                continue
            first = True
            for q in ensures:
                def C(t, q=q):
                    return subst(q, {"result": t})
                self._post = C
                goal = self.wp(arm_body, C, dict(binds), ctx,
                               harvest if first else None)
                first = False
                harvest(VC("", list(binders), hyps + path, goal,
                           (d.name, d.loc, "postcondition")))
            if not ensures:
                # still walk the body for absurd / precondition side VCs
                self._post = _trivial
                self.wp(arm_body, _trivial, dict(binds), ctx, harvest)
        self.vcs.extend(out)

    def generate(self) -> list[VC]:
        for i, lem in enumerate(self.t.lemmas):
            self.vcs.append(VC(f"vc_{lem.name}_0", [], list(self.lemma_hyps),
                               lem.formula, (lem.name, lem.loc, "lemma")))
            self.lemma_hyps.append(lem.formula)
        defs = self.t.apply_defs + [
            it for it in self.t.items if isinstance(it, LetDef) and it.params]
        for d in defs:
            try:
                self.vcs_for_def(d)
            except RecursionError:
                # wp nests a continuation call per pending subterm, so its
                # stack grows with the size of a definition, not its depth
                raise VCError(f"definition {d.name!r} is too large for VC "
                              "generation", d.loc, "nesting-too-deep") from None
        return self.vcs


def _trivial(t):
    return TrueP()


def match_arms(e: Match, scrut: Formula, env: dict):
    """(path, body, env) per arm of `e` on `scrut`: the arm's condition
    after the negations of the earlier arms', and `env` extended with the
    arm's pattern bindings."""
    seen: list[Formula] = []
    for pat, body in e.arms:
        cond, binds = pattern_cond(pat, scrut)
        path = [Not(c) for c in seen] + (
            [] if isinstance(cond, TrueP) else [cond])
        seen.append(cond)
        env2 = dict(env)
        env2.update(binds)
        yield path, body, env2


def subst(f: Formula, mapping: dict):
    from .specs import subst_formula
    return subst_formula(f, mapping)


def generate_vcs(t: TargetProgram) -> list[VC]:
    return VCGen(t).generate()


# ---------------------------------------------------------------------------
# SMT-LIB2 emission


class _Unit:
    """One program-level declaration of an SMT file: a whole command
    (`head` is None and `text` a string), or one member of a `head` block
    (`text` is its (signature, body) pair).  `key` is (section, position)
    and orders units in a file; `mentions` are the symbols its text refers
    to.  `render()` computes the text, the first time a file needs it."""

    __slots__ = ("key", "head", "render", "text", "mentions")

    def __init__(self, key, head, render=None, text=None, mentions=None):
        self.key, self.head, self.render = key, head, render
        self.text, self.mentions = text, mentions


# the sections of a file, in order; units of one block share a section
(UNIT_SORT, DATATYPES, TUPLES, ABSURDS, DIV, BUILTINS, LOGICAL_DECLS,
 LOGICAL_DEFS, POST_DEFS, SPEC_DECLS, SPECLESS_DEFS) = range(11)

# sorts and functions live in separate SMT-LIB namespaces: a sort is
# recorded as a symbol under this prefix
SORT = "sort "


class SmtEmitter:
    """Holds every program-level declaration as a unit, rendered when a VC
    first reaches it, and writes each VC as a file that declares only the
    units its assertions reach.  The declarations left out define symbols
    that nothing in the file refers to; datatypes, declarations and
    terminating definitions of fresh symbols are conservative extensions,
    so the file is equisatisfiable with one that declares the program."""

    def __init__(self, t: TargetProgram):
        self.used: set[str] = set()  # symbols met by the current rendering
        # defined symbol -> its unit
        self.units: dict[str, _Unit] = dict(BUILTIN_UNITS)
        datatypes = [d for d in t.source_types + t.kont_decls
                     if d.variants is not None]
        # in the datatype block after the builtin IntList and IntTree
        for i, d in enumerate(datatypes, start=2):
            self._datatype(i, d.name, d.variants)
        for i, decl in enumerate(t.prelude):
            if decl.body is None:
                self._declare((LOGICAL_DECLS, i), decl.name, decl.params,
                              decl.ret)
            else:
                self._define((LOGICAL_DEFS, i), decl.name, decl.params,
                             decl.ret, lambda em, env, decl=decl:
                             em.expr(decl.body, env))
        for i, p in enumerate(t.post_defs):
            match = FMatch(FVar(p.kont_param), p.arms)
            self._define((POST_DEFS, i), p.name,
                         [(p.kont_param, p.kont_ty), (p.arg_param, p.arg_ty),
                          (p.result_param, p.result_ty)], TBool(),
                         lambda em, env, match=match: em.formula(match, env))
        # spec-less program functions become recursive definitions;
        # functions carrying specs stay uninterpreted (their contracts
        # drive the WP), declared for the spec-less bodies that call them
        fns = list(t.apply_defs) + [
            it for it in t.items if isinstance(it, LetDef) and it.params]
        for i, d in enumerate(fns):
            if d.spec is not None:
                self._declare((SPEC_DECLS, i), d.name, d.params, d.ret)
            else:
                self._define((SPECLESS_DEFS, i), d.name, d.params, d.ret,
                             lambda em, env, d=d: em.expr(d.body, env))

    # -- units -------------------------------------------------------------

    def _unit(self, key, defines, render, head=None):
        """Register the unit that defines the symbols `defines`;
        `render(emitter)` computes its text, and the symbols it meets are
        its mentions.  (`render` takes the emitter as an argument rather
        than closing over it, so units and emitter form no cycle.)"""
        unit = _Unit(key, head, render)
        for sym in defines:
            self.units[sym] = unit

    def _render(self, unit: _Unit):
        outer, self.used = self.used, set()
        try:
            unit.text = unit.render(self)
            unit.mentions = self.used
        finally:
            self.used = outer

    def _datatype(self, i: int, sort: str, variants):
        def render(em):
            parts = []
            for c, fields in variants:
                sels = "".join(f" ({c}_{j} {em.sort(fty)})"
                               for j, fty in enumerate(fields))
                parts.append(f"({c}{sels})")
            return f"({sort} 0)", "(" + " ".join(parts) + ")"
        defines = [SORT + sort] + [c for c, _ in variants] + [
            f"{c}_{j}" for c, fields in variants for j in range(len(fields))]
        self._unit((DATATYPES, i), defines, render, head="declare-datatypes")

    def _tuple(self, n: int):
        """The n-tuple sort becomes a unit when first met."""
        if f"mk-tup{n}" in self.units:
            return
        params = " ".join(f"T{i}" for i in range(n))
        sels = " ".join(f"(tup{n}-{i} T{i})" for i in range(n))
        self._unit((TUPLES, n),
                   [f"{SORT}Tup{n}", f"mk-tup{n}"]
                   + [f"tup{n}-{i}" for i in range(n)],
                   lambda em: f"(declare-datatypes ((Tup{n} {n})) "
                           f"((par ({params}) ((mk-tup{n} {sels})))))")

    def _declare(self, key, name: str, params, ret: Ty):
        self._unit(key, [name], lambda em: (
            f"(declare-fun {name} "
            f"({' '.join(em.sort(t) for _, t in params)}) {em.sort(ret)})"))

    def _define(self, key, name: str, params, ret: Ty, body):
        """A member of a `define-funs-rec` block; `body(emitter, env)`
        renders its body with the parameters bound in `env`."""
        def render(em):
            sig = " ".join(f"({n} {em.sort(t)})" for n, t in params)
            return (f"({name} ({sig}) {em.sort(ret)})",
                    body(em, {n: n for n, _ in params}))
        self._unit(key, [name], render, head="define-funs-rec")

    def declarations(self, mentioned) -> list[str]:
        """The commands declaring every unit that `mentioned` reaches, in
        file order; a block keeps only its reached members."""
        reached, todo = set(), list(mentioned)
        while todo:
            unit = self.units.get(todo.pop())
            if unit is not None and unit not in reached:
                reached.add(unit)
                if unit.mentions is None:
                    self._render(unit)
                todo.extend(unit.mentions)
        out = []
        for (_, head), group in groupby(
                sorted(reached, key=lambda u: u.key),
                key=lambda u: (u.key[0], u.head)):
            if head is None:
                out.extend(u.text for u in group)
            else:
                sigs, bodies = zip(*(u.text for u in group))
                out.append(f"({head} ({' '.join(sigs)}) ({' '.join(bodies)}))")
        return out

    # -- sorts -------------------------------------------------------------

    def sort(self, ty: Ty) -> str:
        ty = ty if ty is not None else INT
        if isinstance(ty, TInt):
            return "Int"
        if isinstance(ty, TBool):
            return "Bool"
        if isinstance(ty, TTuple):
            n = len(ty.items)
            self._tuple(n)
            self.used.add(f"{SORT}Tup{n}")
            return (f"(Tup{n} "
                    + " ".join(self.sort(x) for x in ty.items) + ")")
        if isinstance(ty, TUnit):
            name = "Unit"
        elif isinstance(ty, TNamed):
            name = BUILTIN_SORTS.get(ty.name, ty.name)
        else:
            raise VCError(f"arrow type {ty} reached SMT emission")
        self.used.add(SORT + name)
        return name

    # -- terms -------------------------------------------------------------

    def expr(self, e, env: dict) -> str:
        if isinstance(e, IntLit):
            return str(e.value) if e.value >= 0 else f"(- {-e.value})"
        if isinstance(e, BoolLit):
            return "true" if e.value else "false"
        if isinstance(e, UnitLit):
            self.used.add("unit_v")
            return "unit_v"
        if isinstance(e, NilLit):
            self.used.add("Nil")
            return "Nil"
        if isinstance(e, Var):
            s = env.get(e.name)
            if s is None:
                self.used.add(e.name)
                return e.name
            return s
        if isinstance(e, Cons):
            self.used.add("Cons")
            return f"(Cons {self.expr(e.head, env)} {self.expr(e.tail, env)})"
        if isinstance(e, ConstructorApp):
            self.used.add(e.name)
            if not e.args:
                return e.name
            return ("(" + e.name + " "
                    + " ".join(self.expr(a, env) for a in e.args) + ")")
        if isinstance(e, TupleE):
            n = len(e.items)
            self._tuple(n)
            self.used.add(f"mk-tup{n}")
            return (f"(mk-tup{n} "
                    + " ".join(self.expr(x, env) for x in e.items) + ")")
        if isinstance(e, BinOp):
            op = SMT_OPS[e.op]
            self.used.add(op)
            return f"({op} {self.expr(e.left, env)} {self.expr(e.right, env)})"
        if isinstance(e, Seq):
            return self.expr(e.second, env)
        if isinstance(e, LetIn):
            d = e.defn
            v = self.expr(d.body, env)
            env2 = dict(env)
            env2[d.name] = d.name
            return f"(let (({d.name} {v})) {self.expr(e.body, env2)})"
        if isinstance(e, If):
            return (f"(ite {self.expr(e.cond, env)} {self.expr(e.then, env)} "
                    f"{self.expr(e.els, env)})")
        if isinstance(e, Match):
            return self._match(
                self.expr(e.scrutinee, env),
                [(p, a) for p, a in e.arms if not isinstance(a, Absurd)],
                self.expr, env, lambda: self._absurd(e.ty))
        if isinstance(e, App):
            head, args = e, []
            while isinstance(head, App):
                args.append(head.arg)
                head = head.fn
            args.reverse()
            if not isinstance(head, Var):
                raise VCError("higher-order application in SMT encoding")
            self.used.add(head.name)
            return ("(" + head.name + " "
                    + " ".join(self.expr(a, env) for a in args) + ")")
        raise VCError(f"cannot encode expression {e!r}")

    def formula(self, f: Formula, env: dict) -> str:
        """`env` maps every bound name to its rendering; a name outside it
        is a symbol of the program."""
        if isinstance(f, TrueP):
            return "true"
        if isinstance(f, FInt):
            return str(f.value) if f.value >= 0 else f"(- {-f.value})"
        if isinstance(f, FBool):
            return "true" if f.value else "false"
        if isinstance(f, FVar):
            s = env.get(f.name)
            if s is None:
                self.used.add(f.name)
                return f.name
            return s
        if isinstance(f, FConstr):
            self.used.add(f.name)
            if not f.args:
                return f.name
            return ("(" + f.name + " "
                    + " ".join(self.formula(a, env) for a in f.args) + ")")
        if isinstance(f, FLogicApp):
            if f.name.startswith(IS_PREFIX):
                ctor = f.name[len(IS_PREFIX):]
                self.used.add(ctor)
                return f"((_ is {ctor}) {self.formula(f.args[0], env)})"
            if f.name.startswith(SEL_PREFIX):
                rest = f.name[len(SEL_PREFIX):]
                ctor, idx = rest.rsplit("-", 1)
                if ctor.startswith("tup"):
                    self._tuple(int(ctor[3:]))
                    sel = f"tup{ctor[3:]}-{idx}"
                else:
                    sel = f"{ctor}_{idx}"
                self.used.add(sel)
                return f"({sel} {self.formula(f.args[0], env)})"
            self.used.add(f.name)
            return ("(" + f.name + " "
                    + " ".join(self.formula(a, env) for a in f.args) + ")")
        if isinstance(f, FBinOp):
            op = SMT_OPS[f.op]
            self.used.add(op)
            return (f"({op} {self.formula(f.left, env)} "
                    f"{self.formula(f.right, env)})")
        if isinstance(f, FTuple):
            n = len(f.items)
            self._tuple(n)
            self.used.add(f"mk-tup{n}")
            return (f"(mk-tup{n} "
                    + " ".join(self.formula(x, env) for x in f.items) + ")")
        if isinstance(f, Not):
            return f"(not {self.formula(f.body, env)})"
        if isinstance(f, Forall):
            binders = " ".join(
                f"({n} {self.sort(t)})" for n, t in f.binders)
            env2 = dict(env)
            env2.update((n, n) for n, _ in f.binders)
            return f"(forall ({binders}) {self.formula(f.body, env2)})"
        if isinstance(f, FLet):
            v = self.formula(f.value, env)
            env2 = dict(env)
            env2[f.name] = f.name
            return f"(let (({f.name} {v})) {self.formula(f.body, env2)})"
        if isinstance(f, FMatch):
            return self._match(self.formula(f.scrutinee, env), f.arms,
                               self.formula, env, lambda: "true")
        raise VCError(f"cannot encode formula {f!r}")

    def _match(self, scrut: str, arms, render, env: dict, default) -> str:
        """An `ite` chain over the (pattern, body) `arms` on the rendered
        scrutinee, up to the first arm that always matches; `render(body,
        env)` renders a body, `default()` the value when no arm matches."""
        at = {SCRUTINEE: scrut}
        chain = []
        for pat, body in arms:
            cond, binds = pattern_cond(pat, FVar(SCRUTINEE))
            cond_s = self.formula(cond, at)
            env2 = dict(env)
            for n, term in binds.items():
                env2[n] = self.formula(term, at)
            chain.append((cond_s, render(body, env2)))
            if cond_s == "true":
                break
        out = (chain.pop()[1] if chain and chain[-1][0] == "true"
               else default())
        for cond_s, arm_s in reversed(chain):
            out = f"(ite {cond_s} {arm_s} {out})"
        return out

    def _absurd(self, ty: Ty) -> str:
        """The constant standing for a match that no arm matches; it
        becomes a unit when first met."""
        sort = self.sort(ty)
        name = f"absurd-{_flat(sort)}"
        if name not in self.units:
            self._unit((ABSURDS, sort), [name], lambda em: (
                f"(declare-fun {name} () {em.sort(ty)})"))
        self.used.add(name)
        return f"({name})"

    # -- one file per VC ---------------------------------------------------

    def emit_vc(self, vc: VC) -> str:
        # the VC is rendered first: the declarations are those its
        # constants and assertions reach
        self.used = set()
        env = {n: n for n, _ in vc.binders}
        consts = [f"(declare-const {n} {self.sort(t)})"
                  for n, t in vc.binders]
        hyps = [f"(assert {self.formula(h, env)})" for h in vc.hypotheses]
        goal = f"(assert (not {self.formula(vc.goal, env)}))"
        lines = (["(set-logic ALL)"] + self.declarations(self.used) + consts
                 + hyps + [goal, "(check-sat)"])
        return "\n".join(lines) + "\n"


# a pattern's conditions and bindings are built on this name, which the
# renderer maps to the scrutinee's text
SCRUTINEE = "%s%"

BUILTIN_SORTS = {"list": "IntList", "tree": "IntTree"}

# integer division truncating toward zero, as the interpreter computes it
# (SMT-LIB's `div` is Euclidean: (div (- 7) 2) is -4, not -3)
TRUNC_DIV = "div-trunc"
TRUNC_DIV_DEF = (f"(define-fun {TRUNC_DIV} ((a Int) (b Int)) Int "
                 "(ite (>= a 0) (div a b) (- (div (- a) b))))")

# SMT-LIB spelling of the expression and formula binary operators
SMT_OPS = {
    "+": "+", "-": "-", "*": "*", "/": TRUNC_DIV,
    "=": "=", "<": "<", "<=": "<=", ">": ">", ">=": ">=",
    "&&": "and", "||": "or", "/\\": "and", "\\/": "or", "->": "=>",
}

# the declarations every program may use, as units: (key, head, text,
# defined symbols, mentioned symbols); program datatypes follow the two
# builtin ones in their block
BUILTIN_UNITS = {
    sym: unit
    for key, head, text, defines, mentions in [
        ((UNIT_SORT, 0), None, "(declare-datatypes ((Unit 0)) (((unit_v))))",
         [SORT + "Unit", "unit_v"], ()),
        ((DATATYPES, 0), "declare-datatypes",
         ("(IntList 0)", "((Nil) (Cons (Cons_0 Int) (Cons_1 IntList)))"),
         [SORT + "IntList", "Nil", "Cons", "Cons_0", "Cons_1"],
         [SORT + "IntList"]),
        ((DATATYPES, 1), "declare-datatypes",
         ("(IntTree 0)",
          "((Empty) (Node (Node_0 IntTree) (Node_1 Int) (Node_2 IntTree)))"),
         [SORT + "IntTree", "Empty", "Node", "Node_0", "Node_1", "Node_2"],
         [SORT + "IntTree"]),
        ((DIV, 0), None, TRUNC_DIV_DEF, [TRUNC_DIV], ()),
        ((BUILTINS, 0), None,
         "(define-fun max ((a Int) (b Int)) Int (ite (< a b) b a))",
         ["max"], ()),
        ((BUILTINS, 1), None,
         "(define-fun-rec length ((l IntList)) Int "
         "(ite ((_ is Nil) l) 0 (+ 1 (length (Cons_1 l)))))",
         ["length"], [SORT + "IntList", "Nil", "Cons_1", "length"]),
        ((BUILTINS, 2), None,
         "(define-fun-rec height ((t IntTree)) Int "
         "(ite ((_ is Empty) t) 0 "
         "(+ 1 (max (height (Node_0 t)) (height (Node_2 t))))))",
         ["height"],
         [SORT + "IntTree", "Empty", "Node_0", "Node_2", "max", "height"]),
    ]
    for unit in [_Unit(key, head, text=text, mentions=frozenset(mentions))]
    for sym in defines
}


def _flat(sort: str) -> str:
    return (sort.replace("(", "").replace(")", "")
            .replace(" ", "_"))


def emit_smt(vcs: list[VC], t: TargetProgram, outdir: str,
             expected: dict | None = None) -> list[dict]:
    """Write one `.smt2` file per VC plus an `index.json` manifest;
    returns the manifest entries."""
    os.makedirs(outdir, exist_ok=True)
    emitter = SmtEmitter(t)
    manifest = []
    for vc in vcs:
        fname = f"{vc.name}.smt2"
        text = emitter.emit_vc(vc)
        with open(os.path.join(outdir, fname), "w") as fh:
            fh.write(text)
        manifest.append({
            "name": vc.name,
            "file": fname,
            "definition": vc.origin[0],
            "kind": vc.kind,
            "loc": str(vc.origin[1]) if vc.origin[1] is not None else None,
            "expected": (expected or {}).get(vc.name),
        })
    with open(os.path.join(outdir, "index.json"), "w") as fh:
        json.dump(manifest, fh, indent=2)
        fh.write("\n")
    return manifest


# ---------------------------------------------------------------------------
# Optional solver harness (environment-gated)


def solver_command() -> str | None:
    """Command line of the SMT solver named by DEFUN_SMT_SOLVER, falling
    back to a `z3` binary on PATH, if any."""
    import shutil
    z3 = shutil.which("z3")
    return os.environ.get("DEFUN_SMT_SOLVER") or (z3 and shlex.quote(z3))


def run_solver(path: str, timeout: float = 5.0) -> str:
    """Run the configured solver on one .smt2 file; returns the solver's
    first output line (sat/unsat/unknown).  The command is split like a
    shell word list; `{file}` in it stands for the file, which is otherwise
    appended."""
    import subprocess
    cmd = solver_command()
    if cmd is None:
        raise VCError("no SMT solver configured (set DEFUN_SMT_SOLVER)")
    argv = shlex.split(cmd)
    if "{file}" in cmd:
        argv = [a.replace("{file}", path) for a in argv]
    else:
        argv.append(path)
    proc = subprocess.run(argv, capture_output=True, text=True,
                          timeout=timeout)
    out = (proc.stdout or "").strip().splitlines()
    return out[0] if out else (proc.stderr or "").strip()
