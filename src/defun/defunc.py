"""Defunctionalization: group lambdas by arrow type into kont families,
synthesize continuation types, apply functions and post predicates, and
rewrite the whole program into first-order form.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import Loc, TransformError
from .specs import expand_post_meta, passthrough_lemma, subst_formula, translate_spec
from .syntax import (
    Absurd, App, BinOp, BoolLit, Cons, ConstructorApp, Expr, ExprStmt,
    FBinOp, FConstr, FLet, FLogicApp, FVar, Forall, Formula, If, IntLit,
    LemmaDecl, LetDef, LetIn, Lambda, Match, NilLit, PCons, PConstr, PInt,
    PNil, PTuple, PVar, PWild, Pattern, Program, Seq, Spec, TArrow, TNamed,
    TTuple, TrueP, TupleE, Ty, TypeDecl, UnitLit, Var, all_identifiers, conj,
    free_vars, int_list, int_tree, map_children, walk, walk_scoped, INT,
)
from .typecheck import Checker


@dataclass
class LambdaSite:
    """One lambda occurrence (or eta-expanded named function) slated to
    become a continuation constructor."""

    id: int
    arrow_ty: TArrow  # unary, alias-expanded
    param: tuple  # (name, Ty) -- source types
    body: Expr
    captured: list  # ordered (name, Ty), source types
    spec: Spec | None
    origin: Loc | None
    ctor_name: str = ""


@dataclass
class KontFamily:
    arrow_ty: TArrow
    index: int
    kont_name: str
    apply_name: str
    post_name: str
    sites: list = field(default_factory=list)

    @property
    def kont_ty(self) -> Ty:
        return TNamed(self.kont_name)

    @property
    def constructors(self):
        return [(s.ctor_name, [t for _, t in s.captured], s.id) for s in self.sites]


@dataclass
class PredDef:
    """A generated post predicate: match on the kont value, one formula
    arm per constructor."""

    name: str
    kont_param: str
    kont_ty: Ty
    arg_param: str
    arg_ty: Ty
    result_param: str
    result_ty: Ty
    arms: list  # (PConstr, Formula)


@dataclass
class TargetProgram:
    source_types: list  # TypeDecl (rewritten)
    kont_decls: list  # TypeDecl
    post_defs: list  # PredDef
    apply_defs: list  # LetDef
    items: list  # rewritten TopLevels (LetDef / ExprStmt)
    lemmas: list  # LemmaDecl
    families: list  # KontFamily
    prelude: list  # LogicalDecl (carried through)
    bypassed: set = field(default_factory=set)
    # every identifier in use: the source program's and the generated ones
    names: set = field(default_factory=set)


@dataclass
class _FnInfo:
    arity: int
    is_rec: bool
    bypassed: bool
    toplevel: bool
    ctor: str | None = None  # outer eta-site constructor if value-used


class Defunctionalizer:
    """Transforms one curry-normalized, type-checked program."""

    def __init__(self, program: Program, checker: Checker):
        self.program = program
        self.env = checker.env
        self.taken = all_identifiers(program)
        self.toplevel_names = {item.name for item in program.items
                               if isinstance(item, LetDef)}
        self.sites: list[LambdaSite] = []
        self.site_of: dict[int, LambdaSite] = {}  # id(Lambda node) -> site
        self.families: list[KontFamily] = []
        self.family_by_ty: dict[Ty, KontFamily] = {}
        self.fns: dict[str, _FnInfo] = {}  # direct functions, by name
        self.value_used: set[str] = set()
        self.eta_chains: dict[str, Lambda] = {}

    # -- naming ------------------------------------------------------------

    def gen_name(self, base: str) -> str:
        name = base
        while name in self.taken:
            name += "_g"
        self.taken.add(name)
        return name

    # -- type helpers ------------------------------------------------------

    def expand(self, ty: Ty) -> Ty:
        return self.env.expand(ty)

    def family_for(self, ty: Ty, loc=None) -> KontFamily:
        key = self.expand(ty)
        fam = self.family_by_ty.get(key)
        if fam is None:
            raise TransformError(
                "no-family",
                f"no functions of this type are defined: {key}", loc)
        return fam

    def rewrite_ty(self, ty: Ty, loc=None, lenient=False) -> Ty:
        # idempotent: already-rewritten kont types pass through untouched
        if isinstance(ty, TNamed) and any(
                f.kont_name == ty.name for f in self.family_by_ty.values()):
            return ty
        ty = self.expand(ty)
        if isinstance(ty, TArrow):
            fam = self.family_by_ty.get(ty)
            if fam is None:
                if lenient:
                    return ty
                raise TransformError(
                    "no-family",
                    f"no functions of this type are defined: {ty}", loc)
            return fam.kont_ty
        if isinstance(ty, TNamed):
            return TNamed(ty.name,
                          tuple(self.rewrite_ty(a, loc, lenient) for a in ty.args))
        if isinstance(ty, TTuple):
            return TTuple(tuple(self.rewrite_ty(t, loc, lenient) for t in ty.items))
        return ty

    # -- driver ------------------------------------------------------------

    def run(self) -> TargetProgram:
        self.scan_functions()
        self.scan_value_uses()
        self.collect_sites()
        self.build_families()
        return self.rewrite_program()

    # -- pass 1: direct functions and the bypass rule ----------------------

    def scan_functions(self):
        for item in self.program.items:
            if isinstance(item, LetDef) and item.params:
                bypassed = bool(item.spec and item.spec.requires)
                self.fns[item.name] = _FnInfo(
                    len(item.params), item.is_rec, bypassed, toplevel=True)

    def bypass_set(self) -> set[str]:
        return {n for n, info in self.fns.items() if info.bypassed}

    # -- pass 2: which named functions are used as first-class values ------

    def scan_value_uses(self):
        # a named function is used as a value unless it heads an
        # application to all of its arguments; pre-order reaches every App
        # of a spine before its head
        fns = self.fns
        applied: dict[int, int] = {}  # id(node) -> arguments applied to it
        for item in self.program.items:
            if not isinstance(item, (LetDef, ExprStmt)):
                continue
            root = item.body if isinstance(item, LetDef) else item.expr
            for e, shadowed in walk_scoped(root):
                if type(e) is App:
                    applied[id(e.fn)] = applied.get(id(e), 0) + 1
                elif (type(e) is Var and e.name in fns
                      and e.name not in shadowed
                      and applied.get(id(e), 0) < fns[e.name].arity):
                    self.mark_value_use(e)

    def mark_value_use(self, head: Var):
        info = self.fns[head.name]
        if info.bypassed:
            raise TransformError(
                "exempt-as-value",
                f"function {head.name!r} carries a precondition and cannot "
                "be used as a first-class value", head.loc)
        if info.is_rec:
            raise TransformError(
                "no-family",
                f"recursive function {head.name!r} cannot be used as a "
                "first-class value; no functions of this type are defined",
                head.loc)
        self.value_used.add(head.name)

    # -- pass 3: lambda sites ----------------------------------------------

    def collect_sites(self):
        for item in self.program.items:
            if isinstance(item, LetDef):
                if item.name in self.value_used:
                    self.collect_eta_chain(item)
                self.collect_in(item.body)
            elif isinstance(item, ExprStmt):
                self.collect_in(item.expr)

    def collect_eta_chain(self, d: LetDef):
        """Synthesize `fun p1 -> ... -> g p1 ... pn` for a named non-rec
        function used as a value, and register its curried sites."""
        call: Expr = Var(d.name, ty=d.arrow_ty(), loc=d.loc)
        for n, t in d.params:
            pv = Var(n, ty=t, loc=d.loc)
            call = App(call, pv, ty=call.ty.result, loc=d.loc)
        lam: Expr = call
        ret = d.ret
        for i in range(len(d.params) - 1, -1, -1):
            lam = Lambda(None, [d.params[i]], ret, lam,
                         chain=list(d.params[:i]), loc=d.loc)
            ret = TArrow(d.params[i][1], ret)
            lam.ty = ret
        self.eta_chains[d.name] = lam
        self.collect_in(lam)
        self.fns[d.name].ctor = self.site_of[id(lam)].ctor_name

    def collect_in(self, e: Expr):
        for lam in walk(e):
            if type(lam) is Lambda:
                if lam.spec and lam.spec.requires:
                    # a lambda is always a first-class value, so a requires
                    # clause on one can never be bypassed
                    raise TransformError(
                        "exempt-as-value",
                        "a lambda with a precondition cannot be used as a "
                        "first-class value", lam.loc)
                self.add_site(lam)

    def add_site(self, lam: Lambda):
        assert len(lam.params) == 1, "lambdas must be curry-normalized"
        arrow_ty = self.expand(lam.ty)
        if not isinstance(arrow_ty, TArrow):
            raise AssertionError("lambda without an arrow type")
        captured = self.captured_of(lam)
        site = LambdaSite(
            id=len(self.sites), arrow_ty=arrow_ty, param=lam.params[0],
            body=lam.body, captured=captured, spec=lam.spec, origin=lam.loc)
        site.ctor_name = self.gen_name(f"K{site.id}")
        self.sites.append(site)
        self.site_of[id(lam)] = site

    def captured_of(self, lam: Lambda) -> list:
        """Free variables of the lambda, minus global names.  Variables
        free in the original surface lambda come first, in occurrence
        order; parameters of the same curry chain follow, in parameter
        order (this reproduces the constructor argument order of curried
        translations)."""
        fv = [(n, t) for n, t in free_vars(lam)
              if n not in self.toplevel_names]
        chain_names = [n for n, _ in lam.chain]
        outer = [(n, t) for n, t in fv if n not in chain_names]
        from_chain = [(n, t) for n, t in lam.chain
                      if any(m == n for m, _ in fv)]
        return outer + from_chain

    # -- pass 4: families --------------------------------------------------

    def build_families(self):
        for site in self.sites:
            fam = self.family_by_ty.get(site.arrow_ty)
            if fam is None:
                idx = len(self.families)
                fam = KontFamily(
                    arrow_ty=site.arrow_ty, index=idx,
                    kont_name=self.gen_name(f"kont{idx}"),
                    apply_name=self.gen_name(f"apply{idx}"),
                    post_name=self.gen_name(f"post{idx}"))
                self.families.append(fam)
                self.family_by_ty[site.arrow_ty] = fam
            fam.sites.append(site)

    # -- pass 5: rewriting -------------------------------------------------

    def rewrite_program(self) -> TargetProgram:
        source_types, items, lemmas = [], [], []
        resolver = self.family_for
        for item in self.program.items:
            if isinstance(item, TypeDecl):
                source_types.append(self.rewrite_typedecl(item))
            elif isinstance(item, LetDef):
                items.append(self.rewrite_letdef(item))
            elif isinstance(item, LemmaDecl):
                lem = passthrough_lemma(item, resolver)
                lemmas.append(LemmaDecl(
                    lem.name, self.rewrite_formula_tys(lem.formula),
                    loc=lem.loc))
            elif isinstance(item, ExprStmt):
                items.append(ExprStmt(self.rewrite(item.expr), loc=item.loc))
        kont_decls = [self.kont_decl(f) for f in self.families]
        post_defs = [self.synthesize_post(f) for f in self.families]
        apply_defs = [self.synthesize_apply(f) for f in self.families]
        return TargetProgram(
            source_types=source_types, kont_decls=kont_decls,
            post_defs=post_defs, apply_defs=apply_defs, items=items,
            lemmas=lemmas, families=self.families,
            prelude=list(self.program.prelude), bypassed=self.bypass_set(),
            names=self.taken)

    def rewrite_formula_tys(self, f: Formula) -> Formula:
        """Rewrite arrow types in quantifier binders (and nothing else)."""
        if type(f) is Forall:
            binders = [(n, self.rewrite_ty(t, f.loc)) for n, t in f.binders]
            return Forall(binders, self.rewrite_formula_tys(f.body), loc=f.loc)
        if isinstance(f, Formula):
            return map_children(f, self.rewrite_formula_tys)
        return f

    def rewrite_typedecl(self, decl: TypeDecl) -> TypeDecl:
        if decl.variants is not None:
            variants = [(c, [self.rewrite_ty(t, decl.loc) for t in tys])
                        for c, tys in decl.variants]
            return TypeDecl(decl.name, variants=variants, loc=decl.loc)
        return TypeDecl(decl.name, alias=self.rewrite_ty(decl.alias, decl.loc),
                        loc=decl.loc)

    def rewrite_letdef(self, d: LetDef) -> LetDef:
        info = self.fns.get(d.name)
        lenient = bool(info and info.bypassed)
        params = [(n, self.rewrite_ty(t, d.loc, lenient)) for n, t in d.params]
        ret = self.rewrite_ty(d.ret, d.loc, lenient)
        body = self.rewrite(d.body)
        spec = None
        if d.spec is not None:
            requires, ensures = translate_spec(
                d.spec, d, self.family_for, self.rewrite_ty)
            spec = Spec(result_names=[], arg_names=[],
                        requires=[self.rewrite_formula_tys(f) for f in requires],
                        ensures=[self.rewrite_formula_tys(f) for f in ensures],
                        loc=d.spec.loc)
        return LetDef(d.is_rec, d.name, params, ret, body, spec=spec, loc=d.loc)

    def kont_decl(self, fam: KontFamily) -> TypeDecl:
        variants = [(s.ctor_name, [self.rewrite_ty(t, s.origin) for _, t in s.captured])
                    for s in fam.sites]
        return TypeDecl(fam.kont_name, variants=variants)

    def _family_param_names(self, fam: KontFamily):
        """Names for the k/arg/result binders of a family's apply and post,
        fresh with respect to everything captured or mentioned in its arms."""
        avoid = set()
        for s in fam.sites:
            avoid.update(n for n, _ in s.captured)
            avoid.add(s.param[0])
            if s.spec:
                from .specs import formula_names
                for f in s.spec.requires + s.spec.ensures:
                    avoid.update(formula_names(f))

        def pick(base):
            name = base
            while name in avoid:
                name += "_g"
            avoid.add(name)
            return name

        return pick("k"), pick("arg"), pick("result")

    def synthesize_apply(self, fam: KontFamily) -> LetDef:
        k, arg, result = self._family_param_names(fam)
        arg_ty = self.rewrite_ty(fam.arrow_ty.param)
        res_ty = self.rewrite_ty(fam.arrow_ty.result)
        arms = []
        for s in fam.sites:
            pat = PConstr(s.ctor_name,
                          [PVar(n, self.rewrite_ty(t, s.origin))
                           for n, t in s.captured])
            body = LetIn(
                LetDef(False, s.param[0], [],
                       self.rewrite_ty(s.param[1], s.origin),
                       Var(arg, ty=arg_ty)),
                self.rewrite(s.body), ty=res_ty)
            arms.append((pat, body))
        body = Match(Var(k, ty=fam.kont_ty), arms, ty=res_ty)
        # the ensures clause names the returned value `result`, the
        # conventional post-state name, regardless of the post binder
        spec = Spec(ensures=[FLogicApp(fam.post_name,
                                       [FVar(k), FVar(arg), FVar("result")])])
        return LetDef(True, fam.apply_name,
                      [(k, fam.kont_ty), (arg, arg_ty)], res_ty, body,
                      spec=spec)

    def synthesize_post(self, fam: KontFamily) -> PredDef:
        k, arg, result = self._family_param_names(fam)
        arg_ty = self.rewrite_ty(fam.arrow_ty.param)
        res_ty = self.rewrite_ty(fam.arrow_ty.result)
        arms = []
        for s in fam.sites:
            pat = PConstr(s.ctor_name,
                          [PVar(n, self.rewrite_ty(t, s.origin))
                           for n, t in s.captured])
            if s.spec and s.spec.ensures:
                ensures = []
                for f in s.spec.ensures:
                    g = f
                    if s.spec.arg_names:
                        g = subst_formula(
                            g, {s.spec.arg_names[0]: FVar(s.param[0])})
                    if s.spec.result_names:
                        g = subst_formula(
                            g, {s.spec.result_names[0]: FVar(result)})
                    elif result != "result":
                        g = subst_formula(g, {"result": FVar(result)})
                    ensures.append(self.rewrite_formula_tys(
                        expand_post_meta(g, self.family_for)))
                formula = conj(ensures)
            elif (isinstance(s.body, Lambda)
                  and id(s.body) in self.site_of):
                # an unannotated curried lambda returns the next closure in
                # the chain, so its post states the constructor equation
                inner = self.site_of[id(s.body)]
                formula = FBinOp("=", FVar(result),
                                 FConstr(inner.ctor_name,
                                         [FVar(n) for n, _ in inner.captured]))
            else:
                formula = TrueP()
            arms.append((pat, FLet(s.param[0], FVar(arg), formula)))
        return PredDef(fam.post_name, k, fam.kont_ty, arg, arg_ty,
                       result, res_ty, arms)

    # -- expression rewriting ---------------------------------------------

    def rewrite(self, e: Expr) -> Expr:
        fns = self.fns

        def head_and_args(e):
            args = []
            while isinstance(e, App):
                args.append(e.arg)
                e = e.fn
            return e, list(reversed(args))

        def apply_chain(fn_expr: Expr, fn_ty: Ty, args: list, loc) -> Expr:
            out = fn_expr
            ty = self.expand(fn_ty)
            for a in args:
                fam = self.family_for(ty, loc)
                a2 = go(a)
                res_ty = self.rewrite_ty(ty.result, loc)
                out = App(
                    App(Var(fam.apply_name,
                            ty=TArrow(fam.kont_ty,
                                      TArrow(self.rewrite_ty(ty.param, loc),
                                             res_ty))),
                        out, ty=TArrow(self.rewrite_ty(ty.param, loc), res_ty)),
                    a2, ty=res_ty, loc=loc)
                ty = self.expand(ty.result)
            return out

        def lambda_value(lam: Lambda) -> Expr:
            site = self.site_of[id(lam)]
            fam = self.family_for(site.arrow_ty, lam.loc)
            args = [Var(n, ty=self.rewrite_ty(t, lam.loc))
                    for n, t in site.captured]
            return ConstructorApp(site.ctor_name, args,
                                  ty=fam.kont_ty, loc=lam.loc)

        def named_value(v: Var) -> Expr:
            info = fns[v.name]
            if info.bypassed:
                raise TransformError(
                    "exempt-as-value",
                    f"function {v.name!r} carries a precondition and cannot "
                    "be used as a first-class value", v.loc)
            if info.is_rec:
                raise TransformError(
                    "no-family",
                    f"recursive function {v.name!r} cannot be used as a "
                    "first-class value; no functions of this type are defined",
                    v.loc)
            lam = self.eta_chains[v.name]
            return lambda_value(lam)

        def go(e: Expr) -> Expr:
            if isinstance(e, App):
                head, args = head_and_args(e)
                if isinstance(head, Var) and head.name in fns:
                    info = fns[head.name]
                    if len(args) >= info.arity:
                        # a direct-call head is not a first-class value, so
                        # its arrow type is rewritten structurally rather
                        # than mapped to a kont family
                        ty = self.expand(head.ty)
                        param_tys = []
                        rest = ty
                        for _ in range(info.arity):
                            param_tys.append(rest.param)
                            rest = self.expand(rest.result)
                        res_ty = self.rewrite_ty(rest, e.loc,
                                                 lenient=info.bypassed)

                        def direct_ty(i):
                            t = res_ty
                            for p in reversed(param_tys[i:]):
                                t = TArrow(self.rewrite_ty(
                                    p, head.loc, lenient=info.bypassed), t)
                            return t

                        out = Var(head.name, ty=direct_ty(0), loc=head.loc)
                        for i, a in enumerate(args[:info.arity]):
                            out = App(out, go(a), ty=direct_ty(i + 1),
                                      loc=e.loc)
                        if len(args) > info.arity:
                            out = apply_chain(out, rest, args[info.arity:],
                                              e.loc)
                        return out
                    head2 = named_value(head)
                    return apply_chain(head2, head.ty, args, e.loc)
                if isinstance(head, Lambda):
                    return apply_chain(lambda_value(head), head.ty, args, e.loc)
                return apply_chain(go(head), head.ty, args, e.loc)
            if isinstance(e, Var):
                if e.name in fns:
                    return named_value(e)
                return Var(e.name, ty=self.rewrite_ty(e.ty, e.loc), loc=e.loc)
            if isinstance(e, Lambda):
                return lambda_value(e)
            if isinstance(e, (UnitLit, IntLit, BoolLit, NilLit)):
                return e
            if isinstance(e, ConstructorApp):
                return ConstructorApp(e.name, [go(a) for a in e.args],
                                      ty=self.rewrite_ty(e.ty, e.loc), loc=e.loc)
            if isinstance(e, TupleE):
                return TupleE([go(a) for a in e.items],
                              ty=self.rewrite_ty(e.ty, e.loc), loc=e.loc)
            if isinstance(e, BinOp):
                return BinOp(e.op, go(e.left), go(e.right), ty=e.ty, loc=e.loc)
            if isinstance(e, Cons):
                return Cons(go(e.head), go(e.tail), ty=e.ty, loc=e.loc)
            if isinstance(e, Seq):
                return Seq(go(e.first), go(e.second),
                           ty=self.rewrite_ty(e.ty, e.loc), loc=e.loc)
            if isinstance(e, LetIn):
                d = e.defn
                if d.params:
                    raise TransformError(
                        "unsupported",
                        "local function definitions are not supported by the "
                        "converter; bind a lambda instead", d.loc)
                nd = LetDef(d.is_rec, d.name, [],
                            self.rewrite_ty(d.ret, d.loc), go(d.body),
                            loc=d.loc)
                return LetIn(nd, go(e.body),
                             ty=self.rewrite_ty(e.ty, e.loc), loc=e.loc)
            if isinstance(e, Match):
                scrut = go(e.scrutinee)
                arms = [(self.rewrite_pattern(p), go(b)) for p, b in e.arms]
                absurd = e.absurd
                if not self.is_exhaustive(e):
                    res_ty = self.rewrite_ty(e.ty, e.loc)
                    arms.append((PWild(), Absurd(ty=res_ty)))
                    absurd = True
                return Match(scrut, arms, absurd=absurd,
                             ty=self.rewrite_ty(e.ty, e.loc), loc=e.loc)
            if isinstance(e, If):
                return If(go(e.cond), go(e.then), go(e.els),
                          ty=self.rewrite_ty(e.ty, e.loc), loc=e.loc)
            if isinstance(e, Absurd):
                return e
            raise AssertionError(f"unhandled expr {e!r}")

        return go(e)

    def rewrite_pattern(self, p: Pattern) -> Pattern:
        if type(p) is PVar:
            return PVar(p.name,
                        self.rewrite_ty(p.ty) if p.ty is not None else None,
                        loc=p.loc)
        return map_children(p, self.rewrite_pattern)

    # -- exhaustiveness ----------------------------------------------------

    def constructors_of(self, ty: Ty):
        """Complete constructor signature of a type, or None when the type
        cannot be exhausted by constructor patterns (ints, bools)."""
        ty = self.expand(ty)
        if isinstance(ty, TNamed):
            if ty.name == "list":
                return [("Nil", []), ("Cons", [INT, int_list()])]
            if ty.name == "tree":
                return [("Empty", []), ("Node", [int_tree(), INT, int_tree()])]
            decl = self.env.type_decls.get(ty.name)
            if decl is not None and decl.variants is not None:
                return list(decl.variants)
            return None
        if isinstance(ty, TTuple):
            return [("(tuple)", list(ty.items))]
        return None

    def is_exhaustive(self, m: Match) -> bool:
        rows = [[p] for p, _ in m.arms]
        return not self.wildcard_useful(rows, [m.scrutinee.ty])

    def wildcard_useful(self, rows: list, tys: list) -> bool:
        if not tys:
            return not rows
        sig = self.constructors_of(tys[0])

        def head_ctor(p):
            if isinstance(p, PConstr):
                return p.name, p.args
            if isinstance(p, PNil):
                return "Nil", []
            if isinstance(p, PCons):
                return "Cons", [p.head, p.tail]
            if isinstance(p, PTuple):
                return "(tuple)", p.items
            if isinstance(p, PInt):
                return ("(int)", p.value), []
            return None  # wildcard / variable

        heads = {head_ctor(r[0])[0] for r in rows if head_ctor(r[0]) is not None}
        if sig is not None and heads.issuperset({c for c, _ in sig}):
            for cname, fields in sig:
                spec_rows = []
                for r in rows:
                    h = head_ctor(r[0])
                    if h is None:
                        spec_rows.append([PWild()] * len(fields) + r[1:])
                    elif h[0] == cname:
                        spec_rows.append(list(h[1]) + r[1:])
                if self.wildcard_useful(spec_rows, fields + tys[1:]):
                    return True
            return False
        default_rows = [r[1:] for r in rows if head_ctor(r[0]) is None]
        return self.wildcard_useful(default_rows, tys[1:])


# ---------------------------------------------------------------------------
# Public entry points


def collect_lambda_sites(program: Program, checker: Checker):
    d = Defunctionalizer(program, checker)
    d.scan_functions()
    d.scan_value_uses()
    d.collect_sites()
    return d.sites


def defunctionalize(program: Program, checker: Checker) -> TargetProgram:
    """Transform a curry-normalized, type-checked program."""
    return Defunctionalizer(program, checker).run()


# ---------------------------------------------------------------------------
# Structural invariant walkers (used by tests and the corpus runner)


def assert_first_order(t: TargetProgram):
    """No arrow type may survive anywhere outside bypassed definitions."""
    from .syntax import contains_arrow

    def check_ty(ty, what):
        if ty is not None and contains_arrow(ty):
            raise AssertionError(f"arrow type {ty} survives in {what}")

    def check_expr(e, what):
        if any(type(sub) is Lambda for sub in walk(e)):
            raise AssertionError(f"lambda survives in {what}")

    for decl in t.kont_decls + t.source_types:
        for _, fields in decl.variants or []:
            for ty in fields:
                check_ty(ty, f"type {decl.name}")
    for d in t.apply_defs:
        for _, ty in d.params:
            check_ty(ty, d.name)
        check_ty(d.ret, d.name)
        check_expr(d.body, d.name)
    for item in t.items:
        if isinstance(item, LetDef) and item.name not in t.bypassed:
            for _, ty in item.params:
                check_ty(ty, item.name)
            check_ty(item.ret, item.name)
            check_expr(item.body, item.name)


def assert_apply_exhaustive(t: TargetProgram):
    """Each apply's match covers exactly its family's constructors."""
    for fam, d in zip(t.families, t.apply_defs):
        body = d.body
        assert isinstance(body, Match)
        got = [p.name for p, _ in body.arms if isinstance(p, PConstr)]
        want = [c for c, _, _ in fam.constructors]
        if got != want:
            raise AssertionError(
                f"apply {d.name} arms {got} do not match constructors {want}")


def assert_capture_correct(t: TargetProgram, program: Program):
    """Constructor applications that replaced lambdas pass exactly the
    captured variables, name for name, in order."""
    site_ctors = {}
    for fam in t.families:
        for s in fam.sites:
            site_ctors[s.ctor_name] = [n for n, _ in s.captured]

    for root in t.apply_defs + t.items:
        for e in walk(root):
            if type(e) is ConstructorApp and e.name in site_ctors:
                want = site_ctors[e.name]
                got = [a.name if isinstance(a, Var) else None for a in e.args]
                if got != want:
                    raise AssertionError(
                        f"constructor {e.name} applied to {got}, expected {want}")
