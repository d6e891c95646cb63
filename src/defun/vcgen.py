"""Verification-condition generation for first-order TargetPrograms.

A weakest-precondition pass over the pure expression language produces
one postcondition VC per ensures clause per top-level match arm, plus
precondition-at-call, absurd-unreachability and lemma VCs.  VCs are
serialized as standalone SMT-LIB2 files (goal negated; `unsat` = valid).
"""

from __future__ import annotations

import contextlib
import json
import os
import shlex
from dataclasses import dataclass
from itertools import groupby

from .defunc import TargetProgram
from .errors import VCError
from .specs import subst_formula
from .syntax import (
    Absurd, App, BinOp, BoolLit, ConstructorApp, Expr, Forall, If, IntLit,
    LetDef, LetIn, Lambda, Match, Not, PConstr, PInt, PTuple, PVar, PWild,
    Seq, TBool, TInt, TNamed, TTuple, TUnit, TupleE, Ty, UnitLit, Var,
    call, conj, formula_of_binop, spine, FALSE, INT,
)

# ---------------------------------------------------------------------------
# VCs


@dataclass
class VC:
    name: str
    binders: list  # (name, Ty) declared context
    hypotheses: list  # formula
    goal: Expr
    origin: tuple  # (definition name, loc, kind)

    @property
    def kind(self) -> str:
        return self.origin[2]


# ---------------------------------------------------------------------------
# Pattern compilation: tester/selector conditions

IS_PREFIX = "is-"
SEL_PREFIX = "sel-"


def tester(ctor: str, term: Expr) -> Expr:
    return call(IS_PREFIX + ctor, [term])


def selector(ctor: str, i: int, term: Expr) -> Expr:
    return call(f"{SEL_PREFIX}{ctor}-{i}", [term])


def pattern_cond(pat, scrut: Expr):
    """(condition, bindings) for matching `scrut` against `pat`; bindings
    map pattern variables to selector terms."""
    conds: list[Expr] = []
    binds: dict[str, Expr] = {}

    def go(pat, term):
        if isinstance(pat, PWild):
            return
        if isinstance(pat, PVar):
            binds[pat.name] = term
            return
        if isinstance(pat, PInt):
            conds.append(BinOp("=", term, IntLit(pat.value)))
            return
        if isinstance(pat, PConstr):
            conds.append(tester(pat.name, term))
            for i, sub in enumerate(pat.args):
                go(sub, selector(pat.name, i, term))
            return
        if isinstance(pat, PTuple):
            for i, sub in enumerate(pat.items):
                go(sub, call(f"{SEL_PREFIX}tup{len(pat.items)}-{i}", [term]))
            return
        raise AssertionError(f"unhandled pattern {pat!r}")

    go(pat, scrut)
    return conj(conds), binds


# ---------------------------------------------------------------------------
# WP engine


class _Unreachable(Exception):
    """An `absurd` was reached: the rest of the walk up to the nearest join
    branch, tail position or definition would compute with a value that
    never exists, so there is nothing left to check there."""


class VCGen:
    """Walks each definition body in direct style.  An expression in tail
    position (the body, a `let` body, the second half of `;`, a branch of a
    tail `if`/`match`) is checked against the postcondition by `wp`; any
    other expression is turned into a term by `term`.  A call to a function
    with a contract, and an `if`/`match` whose value flows on, bind their
    value to a fresh name: each opens a frame (binder, sort, facts) on
    `frames`, which `wp` closes around its result."""

    def __init__(self, t: TargetProgram):
        self.t = t
        self.defs: dict[str, LetDef] = {}
        for d in t.apply_defs:
            self.defs[d.name] = d
        for item in t.items:
            if isinstance(item, LetDef) and item.params:
                self.defs[item.name] = item
        self.vcs: list[VC] = []
        self.lemma_hyps: list[Expr] = []
        self._counters: dict[str, int] = {}
        self.defn: LetDef | None = None  # the definition being walked
        # (binder, sort, facts) of each binding in scope, outermost first
        self.frames: list = []
        self.side: list[VC] = []  # side VCs met by the current walk

    def fresh(self, base: str) -> str:
        """A binder name that captures no name of the program."""
        n = self._counters.get(base, 0)
        while f"{base}{n}" in self.t.names:
            n += 1
        self._counters[base] = n + 1
        return f"{base}{n}"

    def _side(self, hyps, goal, loc, kind):
        """A side VC at this point of the walk: under the path `hyps` and
        the facts of every frame in scope."""
        self.side.append(VC(
            "", self.defn.params + [(b, ty) for b, ty, _ in self.frames],
            hyps + [f for _, _, facts in self.frames for f in facts], goal,
            (self.defn.name, loc, kind)))

    def close(self, mark: int, f: Expr) -> Expr:
        """`f` under the frames opened since `mark`, which are dropped."""
        frames = self.frames
        while len(frames) > mark:
            b, ty, facts = frames.pop()
            f = Forall([(b, ty)], BinOp("->", conj(facts), f))
        return f

    # -- expression -> term/wp --------------------------------------------

    def wp(self, e, post, env: dict, hyps: list) -> Expr:
        """Weakest precondition of `e`, in tail position, against `post`
        (term -> formula).  `env` substitutes program variables by terms;
        `hyps` is the path to `e`.  A tail `if`/`match` copies `post` into
        each branch."""
        mark = len(self.frames)
        try:
            while True:
                cls = type(e)
                if cls is LetIn:
                    d = e.defn
                    t = self.term(d.body, env, hyps)
                    env = {**env, d.name: t}
                    e = e.body
                elif cls is Seq:
                    self.term(e.first, env, hyps)
                    e = e.second
                else:
                    break
            if cls is If:
                c = self.term(e.cond, env, hyps)
                then = self.wp(e.then, post, env, hyps + [c])
                els = self.wp(e.els, post, env, hyps + [Not(c)])
                out = BinOp("/\\", BinOp("->", c, then),
                            BinOp("->", Not(c), els))
            elif cls is Match:
                s = self.term(e.scrutinee, env, hyps)
                out = self.split(e, s, post, env, hyps)
            else:
                out = post(self.term(e, env, hyps))
        except _Unreachable:
            out = BoolLit(True)
        return self.close(mark, out)

    def split(self, e: Match, scrut: Expr, post, env, hyps) -> Expr:
        """A tail `match`: one implication per arm that can be reached."""
        parts = []
        for path, body, env2 in match_arms(e, scrut, env):
            if type(body) is Absurd:
                self._side(hyps + path, FALSE, e.loc, "absurd-unreachable")
                continue
            inner = self.wp(body, post, env2, hyps + path)
            parts.append(BinOp("->", conj(path), inner) if path else inner)
        return conj(parts)

    def term(self, e, env: dict, hyps: list) -> Expr:
        """The term for the value of `e` in non-tail position: `e` itself
        where it has no variable, call, branch or `>`, `>=`, `&&` and `||`,
        which formulas spell otherwise."""
        cls = type(e)
        if cls is Var:
            return env.get(e.name, e)
        if cls is BinOp:
            left = self.term(e.left, env, hyps)
            return formula_of_binop(e.op, left, self.term(e.right, env, hyps))
        if cls is IntLit:
            return e
        if cls is App:
            return self.call(e, env, hyps)
        if cls is If:
            c = self.term(e.cond, env, hyps)
            return self.join(e.ty, [([c], e.then, env),
                                    ([Not(c)], e.els, env)], hyps)
        if cls is Match:
            s = self.term(e.scrutinee, env, hyps)
            return self.join(e.ty, match_arms(e, s, env), hyps)
        if cls is LetIn:
            d = e.defn
            t = self.term(d.body, env, hyps)
            return self.term(e.body, {**env, d.name: t}, hyps)
        if cls is Seq:
            self.term(e.first, env, hyps)
            return self.term(e.second, env, hyps)
        if cls is ConstructorApp:
            return ConstructorApp(e.name,
                                  [self.term(a, env, hyps) for a in e.args])
        if cls is TupleE:
            return TupleE([self.term(x, env, hyps) for x in e.items])
        if cls is BoolLit or cls is UnitLit:
            return e
        if cls is Absurd:
            self._side(hyps, FALSE, e.loc, "absurd-unreachable")
            raise _Unreachable
        if cls is Lambda:
            raise VCError("lambda value reached wp")
        raise AssertionError(f"unhandled expression {e!r}")

    def join(self, ty, branches, hyps) -> Var:
        """The value of a branching node: a fresh binder `j`, under the
        fact that some branch can yield `j` (Flanagan & Saxe, POPL 2001).
        `branches` are (path, body, env) triples; each body is walked as a
        value, so a branching node inside it joins again."""
        j = Var(self.fresh("join_"))
        facts = []
        for path, body, env in branches:
            # "body can yield j" = not (every outcome t of body differs
            # from j); for a call-free body this is just j = t
            mark = len(self.frames)
            try:
                w = Not(BinOp("=", j, self.term(body, env, hyps + path)))
            except _Unreachable:
                w = BoolLit(True)
            w = self.close(mark, w)
            fact = w.body if isinstance(w, Not) else Not(w)
            facts.append(BinOp("->", conj(path), fact) if path else fact)
        self.frames.append((j.name, ty, [conj(facts)]))
        return j

    def call(self, e: App, env, hyps) -> Expr:
        head, args = spine(e)
        if not isinstance(head, Var):
            raise VCError("higher-order application reached wp")
        ts = [self.term(a, env, hyps) for a in args]
        d = self.defs.get(head.name)
        if d is None or d.spec is None:
            # spec-less functions become defined symbols in the SMT encoding
            return call(head.name, ts)
        inst = {n: t for (n, _), t in zip(d.params, ts)}
        requires = [subst_formula(f, inst) for f in d.spec.requires]
        if requires:
            self._side(hyps, conj(requires), head.loc, "precondition-at-call")
        res = Var(self.fresh("res_"))
        inst["result"] = res
        self.frames.append((res.name, d.ret, [subst_formula(f, inst)
                                              for f in d.spec.ensures]))
        return res

    # -- per-definition VCs ------------------------------------------------

    def vcs_for_def(self, d: LetDef):
        self.defn = d
        out: list[VC] = []
        hyps = list(self.lemma_hyps)
        if d.spec is not None:
            hyps += d.spec.requires

        body = d.body
        if isinstance(body, Match) and isinstance(body.scrutinee, Var):
            cases = match_arms(body, body.scrutinee, {})
        else:
            cases = [([], body, {})]

        ensures = d.spec.ensures if d.spec is not None else []
        for path, arm_body, binds in cases:
            # an arm of a generated `apply` is located at its lambda
            loc = d.loc or arm_body.loc
            if isinstance(arm_body, Absurd):
                out.append(VC("", list(d.params), hyps + path, FALSE,
                              (d.name, loc, "absurd-unreachable")))
                continue
            # one walk per ensures clause; without one, the body is still
            # walked for its side VCs.  A walk after the first repeats the
            # first one's side VCs, which are dropped.
            for i, q in enumerate(ensures or [None]):
                self.side = []
                post = ((lambda t: BoolLit(True)) if q is None else
                        lambda t, q=q: subst_formula(q, {"result": t}))
                goal = self.wp(arm_body, post, binds, hyps + path)
                if i == 0:
                    out += self.side
                if q is not None:
                    out.append(VC("", list(d.params), hyps + path, goal,
                                  (d.name, loc, "postcondition")))
        for i, vc in enumerate(out):
            vc.name = f"vc_{d.name}_{i}"
        self.vcs.extend(out)

    def generate(self) -> list[VC]:
        for lem in self.t.lemmas:
            self.vcs.append(VC(f"vc_{lem.name}_0", [], list(self.lemma_hyps),
                               lem.formula, (lem.name, lem.loc, "lemma")))
            self.lemma_hyps.append(lem.formula)
        defs = self.t.apply_defs + [
            it for it in self.t.items if isinstance(it, LetDef) and it.params]
        for d in defs:
            self.vcs_for_def(d)
        return self.vcs


def match_arms(e: Match, scrut: Expr, env: dict):
    """(path, body, env) per arm of `e` on `scrut`: the arm's condition
    after the negations of the earlier arms', and `env` extended with the
    arm's pattern bindings."""
    seen: list[Expr] = []
    for pat, body in e.arms:
        cond, binds = pattern_cond(pat, scrut)
        path = [Not(c) for c in seen] + (
            [] if cond == BoolLit(True) else [cond])
        seen.append(cond)
        env2 = dict(env)
        env2.update(binds)
        yield path, body, env2


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
        self.names = t.names  # every identifier of the program
        # defined symbol -> its unit
        self.units: dict[str, _Unit] = dict(BUILTIN_UNITS)
        # in the datatype block after the builtin IntList and IntTree
        for i, d in enumerate(t.source_types + t.kont_decls, start=2):
            self._datatype(i, d.name, d.variants)
        for i, decl in enumerate(t.prelude):
            if decl.body is None:
                self._declare((LOGICAL_DECLS, i), decl.name, decl.params,
                              decl.ret)
            else:
                self._define((LOGICAL_DEFS, i), decl.name, decl.params,
                             decl.ret, lambda em, env, decl=decl:
                             em.term(decl.body, env))
        for i, p in enumerate(t.post_defs):
            # a post is a formula: no arm matching is `true`
            self._define((POST_DEFS, i), p.name,
                         [(p.kont_param, p.kont_ty), (p.arg_param, p.arg_ty),
                          (p.result_param, p.result_ty)], TBool(),
                         lambda em, env, p=p: em._match(
                             Var(p.kont_param), p.arms, env, _true))
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
                             lambda em, env, d=d: em.term(d.body, env))

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

    def term(self, x, env: dict) -> str:
        """The SMT-LIB text of an expression or a formula.  `env` maps
        every bound name to its rendering; a name outside it is a symbol of
        the program.  The node classes are tested in the order of how often
        they occur in VCs."""
        cls = type(x)
        if cls is Var:
            s = env.get(x.name)
            if s is None:
                self.used.add(x.name)
                return x.name
            return s
        if cls is App:
            head, args = spine(x)
            if type(head) is not Var:
                raise VCError("higher-order application in SMT encoding")
            name = head.name
            if name.startswith(IS_PREFIX):
                ctor = name[len(IS_PREFIX):]
                self.used.add(ctor)
                return f"((_ is {ctor}) {self.term(args[0], env)})"
            if name.startswith(SEL_PREFIX):
                ctor, idx = name[len(SEL_PREFIX):].rsplit("-", 1)
                if ctor.startswith("tup"):
                    self._tuple(int(ctor[3:]))
                    sel = f"tup{ctor[3:]}-{idx}"
                else:
                    sel = f"{ctor}_{idx}"
                self.used.add(sel)
                return f"({sel} {self.term(args[0], env)})"
            return self._app(name, args, env)
        if cls is BinOp:
            op = SMT_OPS[x.op]
            self.used.add(op)
            return f"({op} {self.term(x.left, env)} {self.term(x.right, env)})"
        if cls is IntLit:
            return str(x.value) if x.value >= 0 else f"(- {-x.value})"
        if cls is LetIn:
            d = x.defn
            v = self.term(d.body, env)
            env2 = dict(env)
            env2[d.name] = d.name
            return f"(let (({d.name} {v})) {self.term(x.body, env2)})"
        if cls is Not:
            return f"(not {self.term(x.body, env)})"
        if cls is Match:
            # in code, no arm matching is an `absurd` value
            arms = [(p, a) for p, a in x.arms if type(a) is not Absurd]
            return self._match(x.scrutinee, arms, env,
                               lambda: self._absurd(x.ty))
        if cls is Forall:
            binders = " ".join(f"({n} {self.sort(t)})" for n, t in x.binders)
            env2 = dict(env)
            env2.update((n, n) for n, _ in x.binders)
            return f"(forall ({binders}) {self.term(x.body, env2)})"
        if cls is If:
            return (f"(ite {self.term(x.cond, env)} {self.term(x.then, env)} "
                    f"{self.term(x.els, env)})")
        if cls is ConstructorApp:
            return self._app(x.name, x.args, env)
        if cls is Seq:
            return self.term(x.second, env)
        if cls is TupleE:
            n = len(x.items)
            self._tuple(n)
            self.used.add(f"mk-tup{n}")
            return (f"(mk-tup{n} "
                    + " ".join(self.term(i, env) for i in x.items) + ")")
        if cls is BoolLit:
            return "true" if x.value else "false"
        if cls is UnitLit:
            return self._app("unit_v", [], env)
        raise VCError(f"cannot encode {x!r}")

    def _app(self, name: str, args, env: dict) -> str:
        self.used.add(name)
        if not args:
            return name
        return ("(" + name + " "
                + " ".join(self.term(a, env) for a in args) + ")")

    def _match(self, scrut, arms, env: dict, default) -> str:
        """An `ite` chain over the (pattern, body) `arms` on `scrut`, up to
        the first arm that always matches; `default()` renders the value
        when no arm matches."""
        at = {SCRUTINEE: self.term(scrut, env)}
        chain = []
        for pat, body in arms:
            cond, binds = pattern_cond(pat, Var(SCRUTINEE))
            cond_s = self.term(cond, at)
            env2 = dict(env)
            for n, term in binds.items():
                env2[n] = self.term(term, at)
            chain.append((cond_s, self.term(body, env2)))
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
        return name

    # -- one file per VC ---------------------------------------------------

    def local_name(self, n: str, env: dict) -> str:
        """A name for the VC constant `n`, which a parameter shares with a
        program symbol: fresh for the program and for this VC."""
        s = n + "_g"
        while s in self.units or s in self.names or s in env.values():
            s += "_g"
        return s

    def emit_vc(self, vc: VC) -> str:
        # the VC is rendered first: the declarations are those its
        # constants and assertions reach
        self.used = set()
        env = {n: n for n, _ in vc.binders}
        for n in env:
            if n in self.units:
                env[n] = self.local_name(n, env)
        consts = [f"(declare-const {env[n]} {self.sort(t)})"
                  for n, t in vc.binders]
        try:
            hyps = [f"(assert {self.term(h, env)})" for h in vc.hypotheses]
            goal = f"(assert (not {self.term(vc.goal, env)}))"
        except RecursionError:
            # the renderer recurses on the formula, which nests a binder per
            # call with a contract and per join: their number grows with the
            # width of a definition, not with its depth
            raise VCError(f"definition {vc.origin[0]!r} is too large for VC "
                          "generation", vc.origin[1],
                          "nesting-too-deep") from None
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


def _true() -> str:
    return "true"


def _flat(sort: str) -> str:
    return (sort.replace("(", "").replace(")", "")
            .replace(" ", "_"))


def emit_smt(vcs: list[VC], t: TargetProgram, outdir: str) -> list[dict]:
    """Write one `.smt2` file per VC plus an `index.json` manifest;
    returns the manifest entries.  The files that the directory's previous
    manifest lists and this one does not are removed first."""
    os.makedirs(outdir, exist_ok=True)
    for fname in _listed(outdir) - {f"{vc.name}.smt2" for vc in vcs}:
        with contextlib.suppress(OSError):
            os.remove(os.path.join(outdir, fname))
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
        })
    # one string, one write: `json.dump` with `indent` writes each token
    with open(os.path.join(outdir, "index.json"), "w") as fh:
        fh.write(json.dumps(manifest, indent=2) + "\n")
    return manifest


def _listed(outdir: str) -> set:
    """The file names that `outdir`'s `index.json` lists, if it reads as a
    manifest; a name with a directory part is left out."""
    try:
        with open(os.path.join(outdir, "index.json")) as fh:
            names = {entry["file"] for entry in json.load(fh)}
        return {n for n in names if os.path.basename(n) == n}
    except (OSError, ValueError, TypeError, KeyError):
        return set()


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
