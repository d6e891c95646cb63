"""Reference evaluators for the higher-order surface AST and the
first-order target, plus the randomized equivalence harness that serves
as the semantic-preservation oracle.
"""

from __future__ import annotations

import random
import sys
from dataclasses import dataclass, field

from .defunc import TargetProgram
from .errors import Loc
from .syntax import (
    Absurd, And, App, BinOp, BoolLit, Cons, ConstructorApp, Eq, ExprStmt,
    FArith, FBool, FConstr, FInt, FLogicApp, FTuple, FVar, Forall, Formula,
    If, Implies, IntLit, LemmaDecl, LetDef, LetIn, Lambda, Lt, Le, Match,
    NilLit, Not, Or, PCons, PConstr, PInt, PNil, PTuple, PVar, PWild,
    PostMeta, Program, Seq, Spec, TArrow, TBool, TInt, TNamed, TTuple, TUnit,
    TrueP, TupleE, Ty, TypeDecl, UnitLit, Var, int_list, int_tree, INT, BOOL,
    UNIT,
)

# ---------------------------------------------------------------------------
# Values


class VUnit:
    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "()"

    def __eq__(self, other):
        return isinstance(other, VUnit)

    def __hash__(self):
        return hash("VUnit")


UNIT_V = VUnit()


@dataclass(frozen=True)
class VConstr:
    name: str
    args: tuple = ()


@dataclass(frozen=True)
class VTuple:
    items: tuple


class VClosure:
    """Function value of the higher-order evaluator."""

    __slots__ = ("params", "ret", "body", "env", "applied", "name")

    def __init__(self, params, ret, body, env, applied=(), name=None):
        self.params = params
        self.ret = ret
        self.body = body
        self.env = env
        self.applied = applied
        self.name = name


NIL = VConstr("Nil")


def vlist(items) -> VConstr:
    out = NIL
    for x in reversed(list(items)):
        out = VConstr("Cons", (x, out))
    return out


def list_items(v: VConstr) -> list:
    out = []
    while v.name == "Cons":
        out.append(v.args[0])
        v = v.args[1]
    return out


def render_value(v) -> str:
    """Human syntax for values: ints, [1;2;3], Ctor(a, b), tuples."""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, int):
        return str(v)
    if isinstance(v, VUnit):
        return "()"
    if isinstance(v, VTuple):
        return "(" + ", ".join(render_value(x) for x in v.items) + ")"
    if isinstance(v, VConstr):
        if v.name in ("Nil", "Cons"):
            return "[" + ";".join(render_value(x) for x in list_items(v)) + "]"
        if not v.args:
            return v.name
        return v.name + "(" + ", ".join(render_value(x) for x in v.args) + ")"
    if isinstance(v, VClosure):
        return "<fun>"
    raise AssertionError(f"unrenderable value {v!r}")


# ---------------------------------------------------------------------------
# Run errors


class RunError(Exception):
    def __init__(self, kind: str, message: str = "", loc: Loc | None = None):
        self.kind = kind
        self.loc = loc
        super().__init__(message or kind)


# ---------------------------------------------------------------------------
# Evaluator

BINOPS = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
    "=": lambda a, b: a == b,
}


class Evaluator:
    """Call-by-value evaluator over the (shared) expression AST.

    The same machinery runs both the surface program and the first-order
    target; the target simply never builds closures with arrow-typed
    parameters.  `trace_applies` maps function names to a family index;
    fully applied calls to those functions log one trace line.
    """

    def __init__(self, fuel: int = 10**6, trace_applies=None, trace=None):
        self.fuel = fuel
        self.globals: dict[str, object] = {}
        self.trace_applies = trace_applies or {}
        self.trace = trace

    # -- program loading ---------------------------------------------------

    def load_letdef(self, d: LetDef):
        if d.params:
            self.globals[d.name] = VClosure(
                d.params, d.ret, d.body, self.globals, name=d.name)
        else:
            self.globals[d.name] = self.eval(d.body, self.globals)

    def load_program(self, p: Program):
        for item in p.items:
            if isinstance(item, LetDef):
                self.load_letdef(item)
            elif isinstance(item, ExprStmt):
                self.eval(item.expr, self.globals)

    def load_target(self, t: TargetProgram):
        for d in t.apply_defs:
            self.load_letdef(d)
        for item in t.items:
            if isinstance(item, LetDef):
                self.load_letdef(item)
            elif isinstance(item, ExprStmt):
                self.eval(item.expr, self.globals)

    # -- application -------------------------------------------------------

    def spend(self):
        self.fuel -= 1
        if self.fuel < 0:
            raise RunError("fuel-exhausted", "evaluation fuel exhausted")

    def apply_value(self, fn, arg, loc=None):
        self.spend()
        if not isinstance(fn, VClosure):
            raise RunError("stuck", f"applying a non-function {fn!r}", loc)
        applied = fn.applied + (arg,)
        if len(applied) < len(fn.params):
            return VClosure(fn.params, fn.ret, fn.body, fn.env, applied,
                            fn.name)
        env = dict(fn.env)
        if fn.name is not None:
            env[fn.name] = VClosure(fn.params, fn.ret, fn.body, fn.env,
                                    name=fn.name)
        for (n, _), v in zip(fn.params, applied):
            env[n] = v
        if self.trace is not None and fn.name in self.trace_applies:
            self.trace.append(
                f"{fn.name} " + " ".join(render_value(v) for v in applied))
        return self.eval(fn.body, env)

    # -- expressions -------------------------------------------------------

    def eval(self, e, env: dict):
        if isinstance(e, IntLit):
            return e.value
        if isinstance(e, BoolLit):
            return e.value
        if isinstance(e, UnitLit):
            return UNIT_V
        if isinstance(e, NilLit):
            return NIL
        if isinstance(e, Var):
            if e.name in env:
                return env[e.name]
            raise RunError("stuck", f"unbound variable {e.name!r}", e.loc)
        if isinstance(e, Cons):
            return VConstr("Cons",
                           (self.eval(e.head, env), self.eval(e.tail, env)))
        if isinstance(e, ConstructorApp):
            return VConstr(e.name,
                           tuple(self.eval(a, env) for a in e.args))
        if isinstance(e, TupleE):
            return VTuple(tuple(self.eval(x, env) for x in e.items))
        if isinstance(e, BinOp):
            left = self.eval(e.left, env)
            if e.op == "&&":
                return bool(left) and bool(self.eval(e.right, env))
            if e.op == "||":
                return bool(left) or bool(self.eval(e.right, env))
            right = self.eval(e.right, env)
            if e.op == "/":
                if right == 0:
                    raise RunError("division-by-zero", "division by zero",
                                   e.loc)
                q = abs(left) // abs(right)  # OCaml-style truncation
                return q if (left >= 0) == (right >= 0) else -q
            return BINOPS[e.op](left, right)
        if isinstance(e, Seq):
            self.eval(e.first, env)
            return self.eval(e.second, env)
        if isinstance(e, LetIn):
            d = e.defn
            inner = dict(env)
            if d.params:
                inner[d.name] = VClosure(d.params, d.ret, d.body, env,
                                         name=d.name if d.is_rec else None)
            else:
                inner[d.name] = self.eval(d.body, env)
            return self.eval(e.body, inner)
        if isinstance(e, If):
            if self.eval(e.cond, env):
                return self.eval(e.then, env)
            return self.eval(e.els, env)
        if isinstance(e, Match):
            scrut = self.eval(e.scrutinee, env)
            for pat, body in e.arms:
                binds = match_pattern(pat, scrut)
                if binds is not None:
                    if isinstance(body, Absurd):
                        raise RunError("absurd-reached",
                                       "reached an absurd match arm", e.loc)
                    inner = dict(env)
                    inner.update(binds)
                    return self.eval(body, inner)
            raise RunError("absurd-reached", "no match arm applies", e.loc)
        if isinstance(e, Absurd):
            raise RunError("absurd-reached", "reached absurd", e.loc)
        if isinstance(e, Lambda):
            return VClosure(e.params, e.ret, e.body, env)
        if isinstance(e, App):
            fn = self.eval(e.fn, env)
            arg = self.eval(e.arg, env)
            return self.apply_value(fn, arg, e.loc)
        raise AssertionError(f"unhandled expression {e!r}")

    def call(self, name: str, args):
        fn = self.globals.get(name)
        if fn is None:
            raise RunError("stuck", f"no definition named {name!r}")
        if not args:
            return fn
        out = fn
        for a in args:
            out = self.apply_value(out, a)
        return out


def match_pattern(pat, v):
    """Bindings dict if v matches pat, else None."""
    if isinstance(pat, PWild):
        return {}
    if isinstance(pat, PVar):
        return {pat.name: v}
    if isinstance(pat, PInt):
        return {} if v == pat.value else None
    if isinstance(pat, PNil):
        return {} if isinstance(v, VConstr) and v.name == "Nil" else None
    if isinstance(pat, PCons):
        if not (isinstance(v, VConstr) and v.name == "Cons"):
            return None
        h = match_pattern(pat.head, v.args[0])
        if h is None:
            return None
        t = match_pattern(pat.tail, v.args[1])
        if t is None:
            return None
        h.update(t)
        return h
    if isinstance(pat, PConstr):
        if not (isinstance(v, VConstr) and v.name == pat.name):
            return None
        out = {}
        for sub, arg in zip(pat.args, v.args):
            b = match_pattern(sub, arg)
            if b is None:
                return None
            out.update(b)
        return out
    if isinstance(pat, PTuple):
        if not (isinstance(v, VTuple) and len(v.items) == len(pat.items)):
            return None
        out = {}
        for sub, item in zip(pat.items, v.items):
            b = match_pattern(sub, item)
            if b is None:
                return None
            out.update(b)
        return out
    raise AssertionError(f"unhandled pattern {pat!r}")


# ---------------------------------------------------------------------------
# Entry points


_STACK_LIMIT = 100_000
_THREAD_STACK_BYTES = 256 * 1024 * 1024


def _deep(fn):
    """Run `fn` on a worker thread with a large stack and a deepened
    recursion limit (the evaluator recurses once per redex); a genuine
    overflow is reported as fuel exhaustion."""
    import threading

    box: list = []

    def work():
        old = sys.getrecursionlimit()
        sys.setrecursionlimit(max(old, _STACK_LIMIT))
        try:
            box.append(("ok", fn()))
        except RecursionError:
            box.append(("err", RunError(
                "fuel-exhausted",
                "evaluation exceeded the interpreter stack")))
        except BaseException as e:  # re-raised on the calling thread
            box.append(("err", e))
        finally:
            sys.setrecursionlimit(old)

    old_size = threading.stack_size(_THREAD_STACK_BYTES)
    try:
        th = threading.Thread(target=work)
        th.start()
        th.join()
    finally:
        threading.stack_size(old_size)
    kind, payload = box[0]
    if kind == "err":
        raise payload
    return payload


def eval_ho(p: Program, entry: str, args, fuel: int = 10**6):
    """Evaluate `entry args` over the higher-order source program."""
    ev = Evaluator(fuel=fuel)
    ev.load_program(p)
    return _deep(lambda: ev.call(entry, args))


def eval_fo(t: TargetProgram, entry: str, args, fuel: int = 10**6,
            trace: list | None = None):
    """Evaluate over the first-order target; `trace` (a list) collects one
    line per fully applied call of a generated apply function, formatted
    `<apply-name> <kont-value> <arg-value>`."""
    trace_applies = {f.apply_name: f.index for f in t.families}
    ev = Evaluator(fuel=fuel, trace_applies=trace_applies, trace=trace)
    ev.load_target(t)
    out = _deep(lambda: ev.call(entry, args))
    if isinstance(out, VClosure):
        raise RunError("stuck", "first-order entry returned a function")
    return out


# ---------------------------------------------------------------------------
# Random value generation


def gen_value(ty: Ty, rng: random.Random, size: int, type_decls=None):
    type_decls = type_decls or {}
    if isinstance(ty, TInt):
        return rng.randint(-size, size)
    if isinstance(ty, TBool):
        return rng.random() < 0.5
    if isinstance(ty, TUnit):
        return UNIT_V
    if isinstance(ty, TTuple):
        return VTuple(tuple(gen_value(t, rng, size, type_decls)
                            for t in ty.items))
    if isinstance(ty, TNamed):
        if ty.name == "list":
            n = rng.randint(0, size)
            return vlist(rng.randint(-size, size) for _ in range(n))
        if ty.name == "tree":
            return _gen_tree(rng, rng.randint(0, size), size)
        decl = type_decls.get(ty.name)
        if decl is not None and decl.alias is not None:
            return gen_value(decl.alias, rng, size, type_decls)
        if decl is not None and decl.variants is not None:
            return _gen_variant(decl, rng, size, type_decls)
    raise RunError("stuck", f"cannot generate values of type {ty}")


def _gen_tree(rng, budget, size):
    if budget <= 0:
        return VConstr("Empty")
    left = rng.randint(0, budget - 1)
    return VConstr("Node", (
        _gen_tree(rng, left, size),
        rng.randint(-size, size),
        _gen_tree(rng, budget - 1 - left, size)))


def _gen_variant(decl: TypeDecl, rng, budget, type_decls):
    def recursive(fields):
        return any(isinstance(f, TNamed) and f.name == decl.name
                   for f in fields)

    base = [(c, f) for c, f in decl.variants if not recursive(f)]
    options = decl.variants if budget > 0 else (base or decl.variants)
    cname, fields = options[rng.randrange(len(options))]
    per = max(0, (budget - 1) // max(1, len(fields)))
    args = []
    for fty in fields:
        if isinstance(fty, TNamed) and fty.name == decl.name:
            args.append(_gen_variant(decl, rng, per, type_decls))
        else:
            args.append(gen_value(fty, rng, min(per + 1, 5), type_decls))
    return VConstr(cname, tuple(args))


# ---------------------------------------------------------------------------
# Executable interpretation of requires clauses


class NotExecutable(Exception):
    pass


class FormulaEvaluator:
    """Best-effort executable reading of spec formulas; quantifiers and
    uninterpreted symbols raise NotExecutable, which makes the harness
    skip precondition filtering for that clause."""

    def __init__(self, logicals: dict, fuel: int = 10**5):
        # name -> LogicalDecl (only those with bodies are executable)
        self.logicals = logicals
        self.ev = Evaluator(fuel=fuel)

    def eval(self, f: Formula, env: dict):
        if isinstance(f, FVar):
            if f.name in env:
                return env[f.name]
            raise NotExecutable(f.name)
        if isinstance(f, FInt):
            return f.value
        if isinstance(f, FBool):
            return f.value
        if isinstance(f, TrueP):
            return True
        if isinstance(f, FConstr):
            return VConstr(f.name, tuple(self.eval(a, env) for a in f.args))
        if isinstance(f, FLogicApp):
            args = [self.eval(a, env) for a in f.args]
            return self.call_logical(f.name, args)
        if isinstance(f, FArith):
            left, right = self.eval(f.left, env), self.eval(f.right, env)
            if f.op == "/":
                if right == 0:
                    raise NotExecutable("division by zero")
                q = abs(left) // abs(right)
                return q if (left >= 0) == (right >= 0) else -q
            return BINOPS[f.op](left, right)
        if isinstance(f, FTuple):
            return VTuple(tuple(self.eval(x, env) for x in f.items))
        if isinstance(f, Eq):
            return self.eval(f.left, env) == self.eval(f.right, env)
        if isinstance(f, Lt):
            return self.eval(f.left, env) < self.eval(f.right, env)
        if isinstance(f, Le):
            return self.eval(f.left, env) <= self.eval(f.right, env)
        if isinstance(f, And):
            return bool(self.eval(f.left, env)) and bool(self.eval(f.right, env))
        if isinstance(f, Or):
            return bool(self.eval(f.left, env)) or bool(self.eval(f.right, env))
        if isinstance(f, Not):
            return not self.eval(f.body, env)
        if isinstance(f, Implies):
            return (not self.eval(f.left, env)) or bool(self.eval(f.right, env))
        raise NotExecutable(type(f).__name__)

    def call_logical(self, name: str, args):
        if name == "length":
            return len(list_items(args[0]))
        if name == "max":
            return max(args[0], args[1])
        if name == "height":
            def h(t):
                if t.name == "Empty":
                    return 0
                return 1 + max(h(t.args[0]), h(t.args[2]))
            return h(args[0])
        decl = self.logicals.get(name)
        if decl is None or decl.body is None:
            raise NotExecutable(name)
        env = {n: v for (n, _), v in zip(decl.params, args)}
        inner = dict(self.ev.globals)
        inner.update(env)
        return self.ev.eval(decl.body, inner)


def make_formula_evaluator(p: Program, fuel: int = 10**5) -> FormulaEvaluator:
    logicals = {d.name: d for d in p.prelude}
    fe = FormulaEvaluator(logicals, fuel=fuel)
    # defined logical symbols may call each other: expose them as globals
    for d in p.prelude:
        if d.body is not None:
            fe.ev.globals[d.name] = VClosure(d.params, d.ret, d.body,
                                             fe.ev.globals, name=d.name)
    return fe


# ---------------------------------------------------------------------------
# Equivalence harness


@dataclass
class TrialFailure:
    args: list
    ho: object
    fo: object


@dataclass
class EquivReport:
    entry: str
    requested: int  # trials asked for
    seed: int
    trials: int = 0  # trials that ran: arguments generated and accepted
    skipped: int = 0  # arguments rejected by the entry's requires
    failures: list = field(default_factory=list)

    @property
    def status(self) -> str:
        """FAIL on a mismatch; INCONCLUSIVE when fewer trials ran than were
        asked for, since untried arguments prove nothing; else PASS."""
        if self.failures:
            return "FAIL"
        return "INCONCLUSIVE" if self.trials < self.requested else "PASS"

    @property
    def passed(self) -> bool:
        return self.status == "PASS"

    def summary(self) -> str:
        ran = (f"{self.trials} of {self.requested}"
               if self.status == "INCONCLUSIVE" else f"{self.trials}")
        line = (f"{self.status} {self.entry}: {ran} trials, "
                f"{self.skipped} skipped, seed {self.seed}")
        if self.failures:
            f = self.failures[0]
            line += ("\n  counterexample: args=["
                     + ", ".join(render_value(a) for a in f.args)
                     + f"] source={_describe(f.ho)} target={_describe(f.fo)}")
        return line


def _describe(outcome):
    if isinstance(outcome, RunError):
        return f"error:{outcome.kind}"
    return render_value(outcome)


def _outcome(fn):
    try:
        return fn()
    except RunError as e:
        return e


def _same(a, b) -> bool:
    if isinstance(a, RunError) or isinstance(b, RunError):
        return (isinstance(a, RunError) and isinstance(b, RunError)
                and a.kind == b.kind)
    return a == b


def equiv_check(p: Program, t: TargetProgram, entry: str,
                trials: int = 100, seed: int = 0, fuel: int = 10**6,
                size: int = 20, type_decls=None) -> EquivReport:
    """Run `entry` on both the source and the target with random
    first-order arguments and compare outcomes (values or error kinds)."""
    entry_def = next(
        (it for it in p.items
         if isinstance(it, LetDef) and it.name == entry), None)
    if entry_def is None:
        raise RunError("stuck", f"no definition named {entry!r}")
    decls = dict(type_decls or {})
    for it in p.items:
        if isinstance(it, TypeDecl):
            decls.setdefault(it.name, it)
    rng = random.Random(seed)
    fe = make_formula_evaluator(p)
    report = EquivReport(entry=entry, requested=trials, seed=seed)
    requires = entry_def.spec.requires if entry_def.spec else []
    header = entry_def.spec.arg_names if entry_def.spec else []
    ran = 0
    attempts = 0
    while ran < trials and attempts < trials * 50:
        attempts += 1
        args = [gen_value(ty, rng, size, decls) for _, ty in entry_def.params]
        if requires and not _requires_ok(fe, requires, header,
                                         entry_def.params, args):
            report.skipped += 1
            continue
        ran += 1
        ho = _outcome(lambda: eval_ho(p, entry, args, fuel))
        fo = _outcome(lambda: eval_fo(t, entry, args, fuel))
        if not _same(ho, fo):
            report.failures.append(TrialFailure(args, ho, fo))
            break
    report.trials = ran
    return report


def _requires_ok(fe: FormulaEvaluator, requires, header_names, params, args):
    env = {n: v for (n, _), v in zip(params, args)}
    for h, v in zip(header_names, args):
        env.setdefault(h, v)
    for f in requires:
        try:
            if not fe.eval(f, env):
                return False
        except NotExecutable:
            continue
    return True
