"""Annotation-driven type checking.

Variables live in a stack-per-name environment: entering a binder pushes,
leaving pops, so shadowing behaves like the source language.  The checker
resolves (and stores) a type on every expression node, which the
defunctionalization pass relies on for family grouping, and resolves each
name once for the later passes (`Resolution`).  It also binds each spec
header once: a checked spec's clauses are over the parameters and
`result` (`Checker.check_spec`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import Loc, TypeError_
from .specs import formula_names, subst_formula
from .syntax import (
    Absurd, App, BinOp, BoolLit, CONNECTIVES, ConstructorApp, Forall,
    If, IntLit, LemmaDecl, LetDef, LetIn, Lambda, LogicalDecl, Match, Not,
    PConstr, PInt, PTuple, PVar, PWild, PostMeta, Program, RELATIONS, Seq,
    Spec, TArrow, TNamed, TTuple, TupleE, Ty, TypeDecl, UnitLit, Var,
    arrow, map_children, spine, BOOL, INT, UNIT, int_list, int_tree,
)

# Builtin data types: lists and trees of integers (the monomorphic subset).
BUILTIN_CONSTRUCTORS = {
    "Nil": (int_list(), []),
    "Cons": (int_list(), [INT, int_list()]),
    "Empty": (int_tree(), []),
    "Node": (int_tree(), [int_tree(), INT, int_tree()]),
}

BUILTIN_LOGICALS = {
    "length": ([int_list()], INT),
    "height": ([int_tree()], INT),
    "max": ([INT, INT], INT),
}


@dataclass
class Resolution:
    """The names of one top-level item's code, in pre-order: `uses` holds
    (Var, number of arguments applied to it) for each variable naming a
    top-level function, `lambdas` (Lambda, {name: Ty}) for each lambda,
    with the item's locals free in it by first occurrence."""

    uses: list = field(default_factory=list)
    lambdas: list = field(default_factory=list)


class TypeEnv:
    def __init__(self):
        # name -> stack of (type, binder); the binder of a local of
        # program code is the number of lambdas around it in its item, of
        # a top-level function its definition, and None for anything else
        self.var_type: dict[str, list[tuple[Ty, object]]] = {}
        self.type_decls: dict[str, TypeDecl] = {}
        self.constructors: dict[str, tuple[Ty, list[Ty]]] = dict(BUILTIN_CONSTRUCTORS)
        self.logicals: dict[str, tuple[list[Ty], Ty]] = dict(BUILTIN_LOGICALS)
        # what is being checked: "code", "logic" (the body of a logical
        # definition, which may name logical symbols) or "spec" (a formula,
        # which may apply only logical symbols)
        self.mode = "code"

    def push(self, name: str, ty: Ty, binder=None):
        self.var_type.setdefault(name, []).append((ty, binder))

    def pop(self, name: str):
        stack = self.var_type[name]
        stack.pop()
        if not stack:
            del self.var_type[name]

    # -- types -------------------------------------------------------------

    def expand(self, ty: Ty, loc=None) -> Ty:
        """Resolve aliases and validate named types; a type without an
        alias inside is returned itself."""
        cls = type(ty)
        if cls is TArrow or cls is TTuple:
            return map_children(ty, lambda t: self.expand(t, loc))
        if cls is TNamed:
            if ty.name in ("list", "tree"):
                if ty.args != (INT,):
                    raise TypeError_(
                        "mismatch",
                        f"only integer {ty.name}s are supported, got {ty}", loc)
                return ty
            decl = self.type_decls.get(ty.name)
            if decl is None:
                raise TypeError_("unbound-variable",
                                 f"unknown type {ty.name!r}", loc)
            if ty.args:
                raise TypeError_("mismatch",
                                 f"type {ty.name!r} takes no arguments", loc)
            if decl.alias is not None:
                return self.expand(decl.alias, loc)
            return ty
        return ty


def mismatch(expected, found, loc, what="expression"):
    return TypeError_(
        "mismatch", f"{what} has type {found}, expected {expected}", loc)


class Checker:
    def __init__(self):
        self.env = TypeEnv()
        # id(item) -> Resolution, for each LetDef and ExprStmt item
        self.resolved: dict[int, Resolution] = {}
        self._item = Resolution()  # of the item being checked
        # the free locals of each lambda around the node being checked
        self._lambdas: list[dict] = []
        # id(node) -> arguments applied to it; an App precedes its function
        self._applied: dict[int, int] = {}
        # the names of the program being checked, to which the names this
        # checker writes are added
        self.names: set[str] = set()

    # -- programs ----------------------------------------------------------

    def check_program(self, p: Program) -> Program:
        # the builtin types this checker writes on unannotated binders are
        # names of the program that generated names avoid, and so are
        # `result` and any binder `check_spec` renames
        self.names = p.names
        self.names.update(("list", "tree", "result"))
        # type declarations come into scope first so prelude logicals can
        # mention them regardless of their position in the file
        for item in p.items:
            if isinstance(item, TypeDecl):
                self.declare_type(item)
        for decl in p.prelude:
            self.declare_logical(decl)
        for decl in p.prelude:
            if decl.body is not None:
                self.check_logical_body(decl)
        for item in p.items:
            if isinstance(item, TypeDecl):
                pass
            elif isinstance(item, LemmaDecl):
                self.check_formula(item.formula, {}, item.loc)
            else:
                self._item = self.resolved[id(item)] = Resolution()
                self._applied.clear()
                if isinstance(item, LetDef):
                    self.check_letdef(item, toplevel=True)
                else:
                    self.type_of(item.expr)
        return p

    def declare_type(self, decl: TypeDecl):
        if decl.name in self.env.type_decls or decl.name in ("list", "tree"):
            raise TypeError_("mismatch", f"type {decl.name!r} redeclared", decl.loc)
        self.env.type_decls[decl.name] = decl
        self_ty = TNamed(decl.name)
        if decl.variants is not None:
            for ctor, fields in decl.variants:
                if ctor in self.env.constructors:
                    raise TypeError_("mismatch",
                                     f"constructor {ctor!r} redeclared", decl.loc)
                self.env.constructors[ctor] = (
                    self_ty, [self.env.expand(t, decl.loc) for t in fields])
        elif decl.alias is not None:
            self.env.expand(decl.alias, decl.loc)

    def declare_logical(self, decl: LogicalDecl):
        if decl.name in self.env.logicals:
            raise TypeError_("mismatch",
                             f"logical symbol {decl.name!r} redeclared", decl.loc)
        decl.params = [(n, self.env.expand(t, decl.loc))
                       for n, t in decl.params]
        decl.ret = self.env.expand(decl.ret, decl.loc)
        self.env.logicals[decl.name] = ([t for _, t in decl.params], decl.ret)

    def check_logical_body(self, decl: LogicalDecl):
        self.env.mode = "logic"
        try:
            for n, t in decl.params:  # expanded by declare_logical
                self.env.push(n, t)
            got = self.type_of(decl.body)
            if got != decl.ret:
                raise mismatch(decl.ret, got, decl.loc, f"body of {decl.name}")
            for n, _ in reversed(decl.params):
                self.env.pop(n)
        finally:
            self.env.mode = "code"

    def check_letdef(self, d: LetDef, toplevel: bool):
        loc = d.loc
        if toplevel:
            # program functions and logical symbols share one namespace in
            # the SMT encoding
            if d.name in self.env.logicals:
                raise TypeError_("mismatch",
                                 f"logical symbol {d.name!r} redeclared", loc)
            self.check_param_names(d.params, loc)
        for n, t in d.params:
            if t is None:
                raise TypeError_("annotation-missing",
                                 f"parameter {n!r} lacks a type annotation", loc)
        params = [(n, self.env.expand(t, loc)) for n, t in d.params]
        d.params = params
        if d.ret is not None:
            d.ret = self.env.expand(d.ret, loc)
        # a top-level function is resolved as such; a local by the lambdas
        # around it
        binder = (d if d.params else None) if toplevel else len(self._lambdas)
        if d.is_rec:
            if d.ret is None:
                raise TypeError_("annotation-missing",
                                 f"recursive definition {d.name!r} needs a "
                                 "return type annotation", loc)
            self.env.push(d.name, d.arrow_ty(), binder)
        elif d.params and d.ret is None:
            raise TypeError_("annotation-missing",
                             f"definition {d.name!r} with parameters needs a "
                             "return type annotation", loc)
        for n, t in params:
            self.env.push(n, t, len(self._lambdas))
        body_ty = self.type_of(d.body)
        if d.ret is None:
            d.ret = body_ty
        elif body_ty != d.ret:
            raise mismatch(d.ret, body_ty, loc, f"body of {d.name}")
        for n, _ in reversed(params):
            self.env.pop(n)
        if d.is_rec:
            self.env.pop(d.name)
        if d.spec is not None:
            self.check_spec(d.spec, d.params, d.ret, d.name)
        self.env.push(d.name, d.arrow_ty() if d.params else d.ret, binder)

    def check_param_names(self, params, loc):
        """A parameter becomes an SMT constant, or a `let` name in a post
        predicate, so it may not take a logical symbol's name either."""
        for n, _ in params:
            if n in self.env.logicals:
                raise TypeError_(
                    "mismatch",
                    f"logical symbol {n!r} redeclared as a parameter", loc)

    # -- expressions -------------------------------------------------------

    def type_of(self, e) -> Ty:
        """The type of `e`, stored on it; in a formula, "prop" for a
        proposition."""
        if self.env.mode == "spec":
            ty = self.formula_type(e)
        else:
            ty = self._type_of(e)
        e.ty = ty
        return ty

    def _type_of(self, e) -> Ty:
        env, cls = self.env, type(e)
        if cls is UnitLit:
            return UNIT
        if cls is IntLit:
            return INT
        if cls is BoolLit:
            return BOOL
        if cls is Absurd:
            return e.ty if e.ty is not None else UNIT
        if cls is Var:
            stack = env.var_type.get(e.name)
            if stack:
                ty, binder = stack[-1]
                if binder is not None and env.mode == "code":
                    self.resolve(e, ty, binder)
                return ty
            sig = env.logicals.get(e.name)
            if sig is not None and env.mode != "code":
                params, ret = sig
                if env.mode == "logic":
                    return arrow(*params, ret)
                if not params:  # a constant in a formula
                    return ret
            if env.mode == "code" and e.name in env.logicals:
                raise TypeError_(
                    "unbound-variable",
                    f"logical symbol {e.name!r} cannot appear in program code",
                    e.loc)
            where = " in formula" if env.mode == "spec" else ""
            raise TypeError_("unbound-variable",
                             f"unbound variable {e.name!r}{where}", e.loc)
        if cls is ConstructorApp:
            info = env.constructors.get(e.name)
            if info is None:
                raise TypeError_("unbound-variable",
                                 f"unknown constructor {e.name!r}", e.loc)
            result_ty, fields = info
            if len(e.args) != len(fields):
                raise TypeError_(
                    "constructor-arity",
                    f"constructor {e.name} expects {len(fields)} arguments, "
                    f"got {len(e.args)}", e.loc)
            for a, want in zip(e.args, fields):
                got = self.type_of(a)
                if got != want:
                    raise mismatch(want, got, e.loc, f"argument of {e.name}")
            return result_ty
        if cls is TupleE:
            return TTuple(tuple(self.type_of(x) for x in e.items))
        if cls is BinOp:
            lt = self.type_of(e.left)
            rt = self.type_of(e.right)
            if e.op in ("+", "-", "*", "/"):
                if lt != INT or rt != INT:
                    raise mismatch(INT, lt if lt != INT else rt, e.loc,
                                   f"operand of {e.op}")
                return INT
            if e.op in ("&&", "||"):
                if lt != BOOL or rt != BOOL:
                    raise mismatch(BOOL, lt if lt != BOOL else rt, e.loc,
                                   f"operand of {e.op}")
                return BOOL
            if e.op in ("<", "<=", ">", ">="):
                if lt != INT or rt != INT:
                    raise mismatch(INT, lt if lt != INT else rt, e.loc,
                                   f"operand of {e.op}")
                return BOOL
            if e.op == "=":
                if lt != rt:
                    raise mismatch(lt, rt, e.loc, "right operand of =")
                if isinstance(lt, TArrow):
                    raise TypeError_(
                        "mismatch",
                        "equality on function values is not supported", e.loc)
                return BOOL
            raise AssertionError(f"unknown operator {e.op}")
        if cls is Seq:
            self.type_of(e.first)
            return self.type_of(e.second)
        if cls is LetIn:
            self.check_letdef(e.defn, toplevel=False)
            ty = self.type_of(e.body)
            self.env.pop(e.defn.name)
            return ty
        if cls is If:
            ct = self.type_of(e.cond)
            if ct != BOOL:
                raise mismatch(BOOL, ct, e.loc, "if condition")
            tt = self.type_of(e.then)
            et = self.type_of(e.els)
            if tt != et:
                raise mismatch(tt, et, e.loc, "else branch")
            return tt
        if cls is Match:
            scrut_ty = self.type_of(e.scrutinee)
            arm_ty = None
            for pat, body in e.arms:
                binds = []
                self.check_pattern(pat, scrut_ty, binds)
                for n, t in binds:
                    env.push(n, t, len(self._lambdas))
                bt = self.type_of(body)
                for n, _ in reversed(binds):
                    env.pop(n)
                if arm_ty is None:
                    arm_ty = bt
                elif isinstance(body, Absurd):
                    pass
                elif bt != arm_ty:
                    raise mismatch(arm_ty, bt, e.loc, "match arm")
            return arm_ty
        if cls is Lambda:
            for n, t in e.params:
                if t is None:
                    raise TypeError_(
                        "annotation-missing",
                        f"lambda parameter {n!r} lacks a type annotation", e.loc)
            self.check_param_names(e.params, e.loc)
            params = [(n, env.expand(t, e.loc)) for n, t in e.params]
            e.params = params
            e.ret = env.expand(e.ret, e.loc)
            captured: dict[str, Ty] = {}
            if env.mode == "code":
                self._item.lambdas.append((e, captured))
            self._lambdas.append(captured)
            for n, t in params:
                env.push(n, t, len(self._lambdas))
            bt = self.type_of(e.body)
            if bt != e.ret:
                raise mismatch(e.ret, bt, e.loc, "lambda body")
            if e.spec is not None:
                self.check_spec(e.spec, params, e.ret)
            for n, _ in reversed(params):
                env.pop(n)
            self._lambdas.pop()
            return arrow(*[t for _, t in params], e.ret)
        if cls is App:
            if env.mode == "spec":
                return self.logical_call(e)
            applied = self._applied
            applied[id(e.fn)] = applied.get(id(e), 0) + 1
            ft = self.type_of(e.fn)
            if not isinstance(ft, TArrow):
                raise TypeError_("not-a-function",
                                 f"applying a value of type {ft}", e.loc)
            at = self.type_of(e.arg)
            if at != ft.param:
                raise mismatch(ft.param, at, e.loc, "function argument")
            return ft.result
        raise AssertionError(f"unhandled expression {e!r}")

    def resolve(self, v: Var, ty: Ty, binder):
        """Record what the variable `v` of the code of an item names: a
        local is free in the lambdas entered since its binder, a top-level
        function is a use of it."""
        if type(binder) is int:
            for captured in self._lambdas[binder:]:
                captured.setdefault(v.name, ty)
        else:
            self._item.uses.append((v, self._applied.get(id(v), 0)))

    def check_pattern(self, pat, ty: Ty, binds: list):
        env = self.env
        if isinstance(pat, PWild):
            return
        if isinstance(pat, PVar):
            if pat.ty is not None:
                declared = env.expand(pat.ty, pat.loc)
                if declared != ty:
                    raise mismatch(ty, declared, pat.loc,
                                   f"pattern variable {pat.name}")
                pat.ty = declared
            else:
                pat.ty = ty
            if any(n == pat.name for n, _ in binds):
                raise TypeError_("mismatch",
                                 f"duplicate pattern variable {pat.name!r}",
                                 pat.loc)
            binds.append((pat.name, ty))
            return
        if isinstance(pat, PInt):
            if ty != INT:
                raise mismatch(ty, INT, pat.loc, "integer pattern")
            return
        if isinstance(pat, PConstr):
            info = env.constructors.get(pat.name)
            if info is None:
                raise TypeError_("unbound-variable",
                                 f"unknown constructor {pat.name!r}", pat.loc)
            result_ty, fields = info
            if result_ty != ty:
                raise mismatch(ty, result_ty, pat.loc,
                               f"constructor pattern {pat.name}")
            if len(pat.args) != len(fields):
                raise TypeError_(
                    "constructor-arity",
                    f"constructor {pat.name} expects {len(fields)} arguments, "
                    f"got {len(pat.args)}", pat.loc)
            for sub, fty in zip(pat.args, fields):
                self.check_pattern(sub, fty, binds)
            return
        if isinstance(pat, PTuple):
            if not isinstance(ty, TTuple) or len(ty.items) != len(pat.items):
                raise mismatch(ty, "tuple pattern", pat.loc, "pattern")
            for sub, fty in zip(pat.items, ty.items):
                self.check_pattern(sub, fty, binds)
            return
        raise AssertionError(f"unhandled pattern {pat!r}")

    # -- specifications ----------------------------------------------------

    def check_spec(self, spec: Spec, params: list, ret: Ty, owner=None):
        """Type-check the spec of the definition `owner`, or of a lambda
        when `owner` is None, with its header names in scope, then bind the
        header once for every later pass: each clause is rewritten over
        `params` (by position) and `result`, and the header is dropped.
        Several result names become `forall u v. result = (u, v) -> ...`."""
        args, results = spec.arg_names, spec.result_names
        if args and len(args) != len(params):
            raise TypeError_("mismatch", (
                f"spec header for {owner!r} names {len(args)} arguments, "
                f"definition has {len(params)}" if owner else
                "spec header arity does not match the lambda"), spec.loc)
        if len(results) > 1 and owner is None:
            raise TypeError_("mismatch", "lambda specs have a single result",
                             spec.loc)
        if len(results) > 1 and (not isinstance(ret, TTuple)
                                 or len(ret.items) != len(results)):
            raise TypeError_(
                "mismatch", f"spec header for {owner!r} names "
                f"{len(results)} results but the return type is {ret}",
                spec.loc)
        # a result name shadows an argument name, which shadows a parameter
        extra = {"result": ret, **dict(params),
                 **{n: t for n, (_, t) in zip(args, params)},
                 **dict(zip(results,
                            ret.items if len(results) > 1 else [ret]))}
        for f in spec.requires + spec.ensures:
            self.check_formula(f, extra, spec.loc)
        mapping = {n: Var(p) for n, (p, _) in zip(args, params)}
        if len(results) == 1:
            mapping[results[0]] = Var("result")

        def canonical(f):
            if len(results) > 1 and not set(results).isdisjoint(
                    formula_names(f)):
                f = Forall(list(zip(results, ret.items)), BinOp(
                    "->", BinOp("=", Var("result"),
                                TupleE([Var(r) for r in results])), f),
                    loc=spec.loc)
            if mapping:
                f = subst_formula(f, mapping)  # may rename a binder
                self.names.update(formula_names(f))
            return f

        spec.requires = [canonical(f) for f in spec.requires]
        spec.ensures = [canonical(f) for f in spec.ensures]
        spec.arg_names, spec.result_names = [], []

    # -- formulas ----------------------------------------------------------

    def check_formula(self, f, extra: dict, loc) -> None:
        """Check a formula as a proposition.  `extra` maps spec-scoped names
        (header names, result) to types; program variables in scope remain
        visible."""
        env = self.env
        mode, env.mode = env.mode, "spec"
        for n, t in extra.items():
            env.push(n, t)
        try:
            t = self.type_of(f)
        finally:
            env.mode = mode
            for n in extra:
                env.pop(n)
        if t not in ("prop", BOOL):
            raise TypeError_("mismatch",
                             f"formula has type {t}, expected a proposition",
                             getattr(f, "loc", loc))

    def formula_type(self, f):
        """The type of a term of a formula: the propositions are typed
        here, every other term by `_type_of`."""
        cls = type(f)
        if cls is BinOp and f.op in RELATIONS:
            lt = self.type_of(f.left)
            rt = self.type_of(f.right)
            if f.op != "=":
                if lt != INT or rt != INT:
                    raise mismatch(INT, lt if lt != INT else rt, f.loc,
                                   "comparison operand")
            elif lt != rt:
                raise mismatch(lt, rt, f.loc, "right operand of =")
            elif isinstance(lt, TArrow):
                raise TypeError_(
                    "mismatch",
                    "equality on function values is not supported", f.loc)
            return "prop"
        if cls is BinOp and f.op in CONNECTIVES:
            # each operand is checked before the next is typed
            self.proposition(f.left, f.loc, "logical operand")
            self.proposition(f.right, f.loc, "logical operand")
            return "prop"
        if cls is Not:
            self.proposition(f.body, f.loc, "negated formula")
            return "prop"
        if cls is Forall:
            env = self.env
            f.binders = [(n, INT if t is None else env.expand(t, f.loc))
                         for n, t in f.binders]
            for n, t in f.binders:
                env.push(n, t)
            self.proposition(f.body, f.loc, "quantified body")
            for n, _ in reversed(f.binders):
                env.pop(n)
            return "prop"
        if cls is PostMeta:
            f.fn_ty = self.env.expand(f.fn_ty, f.loc)
            fn_got = self.type_of(f.fn)
            if fn_got != f.fn_ty:
                raise mismatch(f.fn_ty, fn_got, f.loc, "post function")
            ty = f.fn_ty
            for a in f.args:
                if not isinstance(ty, TArrow):
                    raise TypeError_("mismatch",
                                     "post applied to too many arguments", f.loc)
                got = self.type_of(a)
                if got != ty.param:
                    raise mismatch(ty.param, got, f.loc, "post argument")
                ty = ty.result
            got = self.type_of(f.result)
            if got != ty:
                raise mismatch(ty, got, f.loc, "post result")
            return "prop"
        return self._type_of(f)

    def proposition(self, f, loc, what):
        got = self.type_of(f)
        if got not in ("prop", BOOL):
            raise mismatch("prop", got, loc, what)

    def logical_call(self, e: App) -> Ty:
        """A formula applies only logical symbols, to all their
        arguments."""
        head, args = spine(e)
        name = head.name if type(head) is Var else None
        sig = self.env.logicals.get(name)
        if sig is None:
            raise TypeError_("unbound-variable",
                             f"unknown logical symbol {name!r}", head.loc)
        params, ret = sig
        if len(args) != len(params):
            raise TypeError_(
                "mismatch",
                f"logical symbol {name} expects {len(params)} arguments",
                head.loc)
        for a, want in zip(args, params):
            got = self.type_of(a)
            if got != want:
                raise mismatch(want, got, head.loc, f"argument of {name}")
        return ret


def check_program(p: Program) -> Program:
    """Type-check a parsed program in place and return it."""
    Checker().check_program(p)
    return p


def type_of(e, checker: Checker | None = None) -> Ty:
    c = checker or Checker()
    return c.type_of(e)
