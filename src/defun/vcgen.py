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
from dataclasses import dataclass, field

from .defunc import PredDef, TargetProgram
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
        n = self._counters.get(base, 0)
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


class SmtEmitter:
    def __init__(self, t: TargetProgram):
        self.t = t
        self.tuple_sorts: dict[int, str] = {}
        self.need_unit = False
        self.need_list = False
        self.need_tree = False
        self.datatypes: list = []  # (sort, [(ctor, [(sel, sort)])])
        self.need_div = False
        self._absurds = set()
        self._scan()
        # the definitions depend on the program only: render them once,
        # and keep the sorts they register as every VC's starting point
        self.preamble = (self.builtin_defs() + self.logical_defs()
                         + self.post_defs() + self.fn_defs())
        self._program_sorts = (dict(self.tuple_sorts), self.need_unit,
                               self.need_list, self.need_tree, self.need_div,
                               set(self._absurds))

    def _reset_sorts(self):
        (tuples, self.need_unit, self.need_list, self.need_tree,
         self.need_div, absurds) = self._program_sorts
        self.tuple_sorts = dict(tuples)
        self._absurds = set(absurds)

    # -- sorts -------------------------------------------------------------

    def sort(self, ty: Ty) -> str:
        ty = ty if ty is not None else INT
        if isinstance(ty, TInt):
            return "Int"
        if isinstance(ty, TBool):
            return "Bool"
        if isinstance(ty, TUnit):
            self.need_unit = True
            return "Unit"
        if isinstance(ty, TNamed):
            if ty.name == "list":
                self.need_list = True
                return "IntList"
            if ty.name == "tree":
                self.need_tree = True
                return "IntTree"
            return ty.name
        if isinstance(ty, TTuple):
            n = len(ty.items)
            self.tuple_sorts.setdefault(n, f"Tup{n}")
            return (f"(Tup{n} "
                    + " ".join(self.sort(x) for x in ty.items) + ")")
        raise VCError(f"arrow type {ty} reached SMT emission")

    def _scan(self):
        # touch every type so sorts/tuples are registered deterministically
        for decl in self.t.source_types + self.t.kont_decls:
            ctors = []
            for c, fields in decl.variants or []:
                ctors.append((c, [(f"{c}_{i}", self.sort(fty))
                                  for i, fty in enumerate(fields)]))
            self.datatypes.append((decl.name, ctors))
        for p in self.t.post_defs:
            self.sort(p.arg_ty)
            self.sort(p.result_ty)
        for d in list(self.t.apply_defs) + [
                it for it in self.t.items if isinstance(it, LetDef)]:
            for _, ty in d.params:
                self.sort(ty)
            if d.ret is not None:
                self.sort(d.ret)

    # -- header ------------------------------------------------------------

    def datatype_block(self) -> list[str]:
        decls = []
        arities = []
        bodies = []
        if self.need_list:
            arities.append("(IntList 0)")
            bodies.append("((Nil) (Cons (Cons_0 Int) (Cons_1 IntList)))")
        if self.need_tree:
            arities.append("(IntTree 0)")
            bodies.append("((Empty) (Node (Node_0 IntTree) (Node_1 Int)"
                          " (Node_2 IntTree)))")
        for sort_name, ctors in self.datatypes:
            arities.append(f"({sort_name} 0)")
            parts = []
            for c, sels in ctors:
                if sels:
                    parts.append("(" + c + " "
                                 + " ".join(f"({s} {srt})" for s, srt in sels)
                                 + ")")
                else:
                    parts.append(f"({c})")
            bodies.append("(" + " ".join(parts) + ")")
        if arities:
            decls.append("(declare-datatypes ("
                         + " ".join(arities) + ") ("
                         + " ".join(bodies) + "))")
        if self.need_unit:
            decls.insert(0, "(declare-datatypes ((Unit 0)) (((unit_v))))")
        for n, name in sorted(self.tuple_sorts.items()):
            params = " ".join(f"T{i}" for i in range(n))
            sels = " ".join(f"(tup{n}-{i} T{i})" for i in range(n))
            decls.append(
                f"(declare-datatypes ((Tup{n} {n})) "
                f"((par ({params}) ((mk-tup{n} {sels})))))")
        return decls

    # -- function definitions ---------------------------------------------

    def builtin_defs(self) -> list[str]:
        out = ["(define-fun max ((a Int) (b Int)) Int (ite (< a b) b a))"]
        if self.need_list:
            out.append(
                "(define-fun-rec length ((l IntList)) Int "
                "(ite ((_ is Nil) l) 0 (+ 1 (length (Cons_1 l)))))")
        if self.need_tree:
            out.append(
                "(define-fun-rec height ((t IntTree)) Int "
                "(ite ((_ is Empty) t) 0 "
                "(+ 1 (max (height (Node_0 t)) (height (Node_2 t))))))")
        return out

    def logical_defs(self) -> list[str]:
        out = []
        group = []
        for decl in self.t.prelude:
            params = " ".join(
                f"({n} {self.sort(t)})" for n, t in decl.params)
            ret = self.sort(decl.ret)
            if decl.body is None:
                out.append(f"(declare-fun {decl.name} "
                           f"({' '.join(self.sort(t) for _, t in decl.params)})"
                           f" {ret})")
            else:
                env = {n: n for n, _ in decl.params}
                body = self.expr(decl.body, env)
                group.append((decl.name, params, ret, body))
        if group:
            sigs = " ".join(f"({n} ({p}) {r})" for n, p, r, _ in group)
            bodies = " ".join(b for _, _, _, b in group)
            out.append(f"(define-funs-rec ({sigs}) ({bodies}))")
        return out

    def post_defs(self) -> list[str]:
        if not self.t.post_defs:
            return []
        sigs, bodies = [], []
        for p in self.t.post_defs:
            sig = (f"({p.name} (({p.kont_param} {self.sort(p.kont_ty)}) "
                   f"({p.arg_param} {self.sort(p.arg_ty)}) "
                   f"({p.result_param} {self.sort(p.result_ty)})) Bool)")
            sigs.append(sig)
            body = "true"
            for pat, f in reversed(p.arms):
                cond, binds = pattern_cond(pat, FVar(p.kont_param))
                arm = self.formula(f, {n: self.formula(t, {})
                                       for n, t in binds.items()})
                if isinstance(cond, TrueP):
                    body = arm
                else:
                    body = f"(ite {self.formula(cond, {})} {arm} {body})"
            bodies.append(body)
        return [f"(define-funs-rec ({' '.join(sigs)}) ({' '.join(bodies)}))"]

    def fn_defs(self) -> list[str]:
        """Spec-less program functions as recursive definitions; functions
        carrying specs stay uninterpreted (their contracts drive the WP)."""
        specless = []
        spec_carrying = []
        for d in list(self.t.apply_defs) + [
                it for it in self.t.items
                if isinstance(it, LetDef) and it.params]:
            (spec_carrying if d.spec is not None else specless).append(d)
        out = []
        if specless:
            sigs, bodies = [], []
            for d in specless:
                params = " ".join(f"({n} {self.sort(t)})" for n, t in d.params)
                sigs.append(f"({d.name} ({params}) {self.sort(d.ret)})")
                env = {n: n for n, _ in d.params}
                bodies.append(self.expr(d.body, env))
            # spec-carrying callees stay uninterpreted; declare any that a
            # spec-less body mentions so the file is well-sorted
            mentioned = " ".join(bodies)
            for d in spec_carrying:
                if f"({d.name} " in mentioned:
                    doms = " ".join(self.sort(t) for _, t in d.params)
                    out.append(f"(declare-fun {d.name} ({doms}) "
                               f"{self.sort(d.ret)})")
            out.append(
                f"(define-funs-rec ({' '.join(sigs)}) ({' '.join(bodies)}))")
        return out

    # -- terms -------------------------------------------------------------

    def expr(self, e, env: dict) -> str:
        if isinstance(e, IntLit):
            return str(e.value) if e.value >= 0 else f"(- {-e.value})"
        if isinstance(e, BoolLit):
            return "true" if e.value else "false"
        if isinstance(e, UnitLit):
            self.need_unit = True
            return "unit_v"
        if isinstance(e, NilLit):
            return "Nil"
        if isinstance(e, Var):
            return env.get(e.name, e.name)
        if isinstance(e, Cons):
            return f"(Cons {self.expr(e.head, env)} {self.expr(e.tail, env)})"
        if isinstance(e, ConstructorApp):
            if not e.args:
                return e.name
            return ("(" + e.name + " "
                    + " ".join(self.expr(a, env) for a in e.args) + ")")
        if isinstance(e, TupleE):
            n = len(e.items)
            self.tuple_sorts.setdefault(n, f"Tup{n}")
            return (f"(mk-tup{n} "
                    + " ".join(self.expr(x, env) for x in e.items) + ")")
        if isinstance(e, BinOp):
            self.need_div |= e.op == "/"
            return (f"({SMT_OPS[e.op]} {self.expr(e.left, env)} "
                    f"{self.expr(e.right, env)})")
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
            scrut = self.expr(e.scrutinee, env)
            sort = self.sort(e.ty) if e.ty is not None else "Int"
            default = f"(absurd-{_flat(sort)})"
            self._absurds.add(sort)
            body = default
            for pat, arm in reversed(e.arms):
                if isinstance(arm, Absurd):
                    continue
                cond, binds = pattern_cond(pat, FVar("%s%"))
                cond_s = self.formula(cond, {}).replace("%s%", scrut)
                env2 = dict(env)
                for n, term in binds.items():
                    env2[n] = self.formula(term, {}).replace("%s%", scrut)
                arm_s = self.expr(arm, env2)
                if cond_s == "true":
                    body = arm_s
                else:
                    body = f"(ite {cond_s} {arm_s} {body})"
            return body
        if isinstance(e, App):
            head, args = e, []
            while isinstance(head, App):
                args.append(head.arg)
                head = head.fn
            args.reverse()
            if not isinstance(head, Var):
                raise VCError("higher-order application in SMT encoding")
            return ("(" + head.name + " "
                    + " ".join(self.expr(a, env) for a in args) + ")")
        raise VCError(f"cannot encode expression {e!r}")

    def formula(self, f: Formula, env: dict) -> str:
        if isinstance(f, TrueP):
            return "true"
        if isinstance(f, FInt):
            return str(f.value) if f.value >= 0 else f"(- {-f.value})"
        if isinstance(f, FBool):
            return "true" if f.value else "false"
        if isinstance(f, FVar):
            return env.get(f.name, f.name)
        if isinstance(f, FConstr):
            if not f.args:
                return "unit_v" if f.name == "unit_v" else f.name
            return ("(" + f.name + " "
                    + " ".join(self.formula(a, env) for a in f.args) + ")")
        if isinstance(f, FLogicApp):
            if f.name.startswith(IS_PREFIX):
                ctor = f.name[len(IS_PREFIX):]
                return f"((_ is {ctor}) {self.formula(f.args[0], env)})"
            if f.name.startswith(SEL_PREFIX):
                rest = f.name[len(SEL_PREFIX):]
                ctor, idx = rest.rsplit("-", 1)
                if ctor.startswith("tup"):
                    sel = f"tup{ctor[3:]}-{idx}"
                else:
                    sel = f"{ctor}_{idx}"
                return f"({sel} {self.formula(f.args[0], env)})"
            return ("(" + f.name + " "
                    + " ".join(self.formula(a, env) for a in f.args) + ")")
        if isinstance(f, FBinOp):
            self.need_div |= f.op == "/"
            return (f"({SMT_OPS[f.op]} {self.formula(f.left, env)} "
                    f"{self.formula(f.right, env)})")
        if isinstance(f, FTuple):
            n = len(f.items)
            self.tuple_sorts.setdefault(n, f"Tup{n}")
            return (f"(mk-tup{n} "
                    + " ".join(self.formula(x, env) for x in f.items) + ")")
        if isinstance(f, Not):
            return f"(not {self.formula(f.body, env)})"
        if isinstance(f, Forall):
            binders = " ".join(
                f"({n} {self.sort(t)})" for n, t in f.binders)
            env2 = {k: v for k, v in env.items()
                    if k not in {n for n, _ in f.binders}}
            return f"(forall ({binders}) {self.formula(f.body, env2)})"
        if isinstance(f, FLet):
            v = self.formula(f.value, env)
            env2 = {k: w for k, w in env.items() if k != f.name}
            return f"(let (({f.name} {v})) {self.formula(f.body, env2)})"
        if isinstance(f, FMatch):
            scrut = self.formula(f.scrutinee, env)
            body = "true"
            for pat, arm in reversed(f.arms):
                cond, binds = pattern_cond(pat, FVar("%s%"))
                cond_s = self.formula(cond, {}).replace("%s%", scrut)
                env2 = dict(env)
                for n, term in binds.items():
                    env2[n] = self.formula(term, {}).replace("%s%", scrut)
                arm_s = self.formula(arm, env2)
                body = (arm_s if cond_s == "true"
                        else f"(ite {cond_s} {arm_s} {body})")
            return body
        raise VCError(f"cannot encode formula {f!r}")

    # -- one file per VC ---------------------------------------------------

    def emit_vc(self, vc: VC) -> str:
        # a file declares the sorts of its program and of its own VC only,
        # whatever was emitted before it; the VC is rendered before the
        # datatype block so that sorts used only in its formulas count
        self._reset_sorts()
        consts = [f"(declare-const {n} {self.sort(t)})"
                  for n, t in vc.binders]
        hyps = [f"(assert {self.formula(h, {})})" for h in vc.hypotheses]
        goal = f"(assert (not {self.formula(vc.goal, {})}))"
        decls = self.datatype_block()
        absurds = [f"(declare-fun absurd-{_flat(s)} () {s})"
                   for s in sorted(self._absurds)]
        div = [TRUNC_DIV_DEF] if self.need_div else []
        lines = (["(set-logic ALL)"] + decls + absurds + div + self.preamble
                 + consts + hyps + [goal, "(check-sat)"])
        return "\n".join(lines) + "\n"


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
