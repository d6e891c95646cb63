"""Defunctionalization: group lambdas by arrow type into kont families,
synthesize continuation types, apply functions and post predicates, and
rewrite the whole program into first-order form.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from .errors import Loc, TransformError
from .specs import (
    expand_post_meta, formula_names, passthrough_lemma, subst_formula,
    translate_spec,
)
from .syntax import (
    Absurd, App, BinOp, ConstructorApp, Expr, ExprStmt, Forall, LemmaDecl,
    LetDef, LetIn, Lambda, Match, PConstr, PInt, PTuple, PVar, PWild,
    Pattern, Program, Spec, TArrow, TNamed, TTuple, TrueP, Ty, TypeDecl, Var,
    arrow, call, conj, contains_arrow, map_children, spine, walk,
)
from .typecheck import BUILTIN_CONSTRUCTORS, Checker


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
    arms: list  # (PConstr, formula)


@dataclass
class TargetProgram:
    source_types: list  # variant TypeDecls (rewritten); aliases expand away
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


class Defunctionalizer:
    """Transforms one curry-normalized, type-checked program.

    Names are resolved once, by the checker: `resolve` records in `direct`
    each `Var` its `Resolution` found to denote a top-level function rather
    than a local of the same name, and the rewrite reads that record and
    never decides by name.  Fresh names avoid `Program.names`."""

    def __init__(self, program: Program, checker: Checker):
        self.program = program
        self.checker = checker
        self.env = checker.env
        self.expand = checker.env.expand
        self.taken = set(program.names)
        self.toplevel_names = {item.name for item in program.items
                               if isinstance(item, LetDef)}
        self.sites: list[LambdaSite] = []
        self.site_of: dict[int, LambdaSite] = {}  # id(Lambda node) -> site
        self.families: list[KontFamily] = []
        self.family_by_ty: dict[Ty, KontFamily] = {}
        self.fns: dict[str, _FnInfo] = {}  # direct functions, by name
        # id(Var node) -> the direct function it denotes; keyed by nodes of
        # the source program and of the eta chains, which stay alive
        self.direct: dict[int, _FnInfo] = {}
        self.value_used: set[str] = set()
        self.eta_chains: dict[str, Lambda] = {}
        # every type `rewrite_ty` returned, keyed by its input and by itself
        self.rewritten: dict[Ty, Ty] = {}
        # id(input) -> (input, output); holding the input keeps its id
        self.rewritten_id: dict[int, tuple[Ty, Ty]] = {}

    # -- naming ------------------------------------------------------------

    def gen_name(self, base: str) -> str:
        name = base
        while name in self.taken:
            name += "_g"
        self.taken.add(name)
        return name

    # -- type helpers ------------------------------------------------------

    def family_for(self, ty: Ty, loc=None) -> KontFamily:
        key = self.expand(ty)
        fam = self.family_by_ty.get(key)
        if fam is None:
            raise TransformError(
                "no-family",
                f"no functions of this type are defined: {key}", loc)
        return fam

    def rewrite_ty(self, ty: Ty, loc=None, lenient=False) -> Ty:
        """`ty` with every arrow replaced by its family's kont type; a
        `lenient` rewrite keeps an arrow that has no family.  A rewritten
        type rewrites to itself, so the kont types pass through again."""
        hit = self.rewritten_id.get(id(ty))
        if hit is not None:
            return hit[1]
        out = self.rewritten.get(ty)
        if out is not None:
            self.rewritten_id[id(ty)] = ty, out
            return out
        ex = self.expand(ty)
        if type(ex) is TArrow:
            if lenient and ex not in self.family_by_ty:
                return ex
            out = self.family_for(ex, loc).kont_ty
        else:
            out = map_children(
                ex, lambda t: self.rewrite_ty(t, loc, lenient))
            if lenient and contains_arrow(out):
                return out
        self.rewritten[ty] = self.rewritten[out] = out
        self.rewritten_id[id(ty)] = ty, out
        return out

    # -- driver ------------------------------------------------------------

    def run(self) -> TargetProgram:
        resolved = []
        for item in self.program.items:
            if isinstance(item, LetDef) and item.params:
                self.fns[item.name] = _FnInfo(
                    len(item.params), item.is_rec,
                    bool(item.spec and item.spec.requires))
            if isinstance(item, (LetDef, ExprStmt)):
                res = self.checker.resolved[id(item)]
                self.resolve(res.uses)
                resolved.append((item, res.lambdas))
        # sites are numbered once every value use is known: a use in a
        # later item puts an earlier item's eta chain first
        for item, lambdas in resolved:
            if isinstance(item, LetDef) and item.name in self.value_used:
                self.add_eta_chain(item)
            for lam, captured in lambdas:
                self.add_site(lam, self.captured_of(lam, captured))
        self.build_families()
        return self.rewrite_program()

    # -- name resolution ---------------------------------------------------

    def resolve(self, uses: list):
        """Record in `direct` each variable of an item that names a
        direct function, and mark the functions used as first-class
        values: a function is one unless it heads an application to all
        of its arguments."""
        for v, applied in uses:
            info = self.direct[id(v)] = self.fns[v.name]
            if applied < info.arity:
                if info.bypassed:
                    raise TransformError(
                        "exempt-as-value",
                        f"function {v.name!r} carries a precondition and "
                        "cannot be used as a first-class value", v.loc)
                if info.is_rec:
                    raise TransformError(
                        "no-family",
                        f"recursive function {v.name!r} cannot be used "
                        "as a first-class value; no functions of this "
                        "type are defined", v.loc)
                self.value_used.add(v.name)

    # -- lambda sites ------------------------------------------------------

    def add_eta_chain(self, d: LetDef):
        """Synthesize `fun p1 -> ... -> g p1 ... pn` for a named non-rec
        function used as a value, and register its curried sites."""
        # a parameter named like the function would shadow it in the call
        params = [(self.gen_name(n) if n == d.name else n, t)
                  for n, t in d.params]
        head = Var(d.name, ty=d.arrow_ty(), loc=d.loc)
        self.direct[id(head)] = self.fns[d.name]
        lam: Expr = head
        for n, t in params:
            lam = App(lam, Var(n, ty=t, loc=d.loc), ty=lam.ty.result,
                      loc=d.loc)
        ret = d.ret
        for i in range(len(params) - 1, -1, -1):
            lam = Lambda(None, [params[i]], ret, lam,
                         chain=list(params[:i]), loc=d.loc)
            ret = TArrow(params[i][1], ret)
            lam.ty = ret
        sub = self.eta_chains[d.name] = lam
        # the lambda of each parameter captures the parameters before it
        while type(sub) is Lambda:
            self.add_site(sub, list(sub.chain))
            sub = sub.body

    def add_site(self, lam: Lambda, captured: list):
        if lam.spec and lam.spec.requires:
            # a lambda is always a first-class value, so a requires clause
            # on one can never be bypassed
            raise TransformError(
                "exempt-as-value",
                "a lambda with a precondition cannot be used as a "
                "first-class value", lam.loc)
        assert len(lam.params) == 1, "lambdas must be curry-normalized"
        arrow_ty = self.expand(lam.ty)
        if type(arrow_ty) is not TArrow:
            raise AssertionError("lambda without an arrow type")
        site = LambdaSite(
            id=len(self.sites), arrow_ty=arrow_ty, param=lam.params[0],
            body=lam.body, captured=captured,
            spec=lam.spec, origin=lam.loc)
        site.ctor_name = self.gen_name(f"K{site.id}")
        self.sites.append(site)
        self.site_of[id(lam)] = site

    @staticmethod
    def captured_of(lam: Lambda, free: dict) -> list:
        """The captures of a lambda whose free locals the checker found to
        be `free`; top-level names are not captured.  Variables free in
        the original surface lambda come first, in occurrence order;
        parameters of the same curry chain follow, in parameter order
        (this reproduces the constructor argument order of curried
        translations)."""
        chain_names = [n for n, _ in lam.chain]
        return ([(n, t) for n, t in free.items() if n not in chain_names]
                + [(n, t) for n, t in lam.chain if n in free])

    # -- families ----------------------------------------------------------

    def build_families(self):
        for site in self.sites:
            fam = self.family_by_ty.get(site.arrow_ty)
            if fam is None:
                idx = len(self.families)
                fam = KontFamily(
                    arrow_ty=site.arrow_ty,
                    kont_name=self.gen_name(f"kont{idx}"),
                    apply_name=self.gen_name(f"apply{idx}"),
                    post_name=self.gen_name(f"post{idx}"))
                self.families.append(fam)
                self.family_by_ty[site.arrow_ty] = fam
            fam.sites.append(site)

    # -- rewriting ---------------------------------------------------------

    def rewrite_program(self) -> TargetProgram:
        source_types, items, lemmas = [], [], []
        for item in self.program.items:
            if isinstance(item, TypeDecl):
                if item.variants is not None:
                    source_types.append(self.rewrite_typedecl(item))
            elif isinstance(item, LetDef):
                items.append(self.rewrite_letdef(item))
            elif isinstance(item, LemmaDecl):
                lem = passthrough_lemma(item, self.family_for)
                lemmas.append(LemmaDecl(
                    lem.name, self.rewrite_formula_tys(lem.formula),
                    loc=lem.loc))
            elif isinstance(item, ExprStmt):
                items.append(ExprStmt(self.rewrite(item.expr), loc=item.loc))
        kont_decls = [self.kont_decl(f) for f in self.families]
        synthesized = [self.synthesize(f) for f in self.families]
        return TargetProgram(
            source_types=source_types, kont_decls=kont_decls,
            post_defs=[post for post, _ in synthesized],
            apply_defs=[apply for _, apply in synthesized], items=items,
            lemmas=lemmas, families=self.families,
            prelude=list(self.program.prelude),
            bypassed={n for n, info in self.fns.items() if info.bypassed},
            names=self.taken)

    def rewrite_formula_tys(self, f: Expr) -> Expr:
        """Rewrite arrow types in quantifier binders (and nothing else)."""
        if type(f) is Forall:
            binders = [(n, self.rewrite_ty(t, f.loc)) for n, t in f.binders]
            return Forall(binders, self.rewrite_formula_tys(f.body), loc=f.loc)
        if isinstance(f, Expr):
            return map_children(f, self.rewrite_formula_tys)
        return f

    def rewrite_typedecl(self, decl: TypeDecl) -> TypeDecl:
        variants = [(c, [self.rewrite_ty(t, decl.loc) for t in tys])
                    for c, tys in decl.variants]
        return TypeDecl(decl.name, variants=variants, loc=decl.loc)

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
        fresh with respect to the top-level names and everything captured
        or mentioned in its arms."""
        avoid = set(self.toplevel_names)
        for s in fam.sites:
            avoid.update(n for n, _ in s.captured)
            avoid.add(s.param[0])
            if s.spec:
                for f in s.spec.requires + s.spec.ensures:
                    avoid.update(formula_names(f))

        def pick(base):
            name = base
            while name in avoid:
                name += "_g"
            avoid.add(name)
            return name

        return pick("k"), pick("arg"), pick("result")

    def synthesize(self, fam: KontFamily) -> tuple[PredDef, LetDef]:
        """A family's post predicate and apply function.  Both match on the
        kont value with one arm per constructor, and bind the lambda's
        parameter to the argument."""
        k, arg, result = self._family_param_names(fam)
        arg_ty = self.rewrite_ty(fam.arrow_ty.param)
        res_ty = self.rewrite_ty(fam.arrow_ty.result)
        post_arms, apply_arms = [], []
        for s in fam.sites:
            pat = PConstr(s.ctor_name,
                          [PVar(n, self.rewrite_ty(t, s.origin))
                           for n, t in s.captured])
            post_arms.append((pat, LetIn(
                LetDef(False, s.param[0], [], None, Var(arg)),
                self.site_post(s, result))))
            param = LetDef(False, s.param[0], [],
                           self.rewrite_ty(s.param[1], s.origin),
                           Var(arg, ty=arg_ty))
            apply_arms.append((pat, LetIn(param, self.rewrite(s.body),
                                          ty=res_ty, loc=s.origin)))
        post = PredDef(fam.post_name, k, fam.kont_ty, arg, arg_ty,
                       result, res_ty, post_arms)
        # the ensures clause names the returned value `result`, the
        # conventional post-state name, regardless of the post binder
        spec = Spec(ensures=[call(fam.post_name,
                                  [Var(k), Var(arg), Var("result")])])
        apply = LetDef(True, fam.apply_name,
                       [(k, fam.kont_ty), (arg, arg_ty)], res_ty,
                       Match(Var(k, ty=fam.kont_ty), apply_arms, ty=res_ty),
                       spec=spec)
        return post, apply

    def site_post(self, s: LambdaSite, result: str) -> Expr:
        """The post arm of one site, with the result named `result`."""
        if s.spec and s.spec.ensures:
            ensures = []
            for f in s.spec.ensures:
                g = f
                if s.spec.arg_names:
                    g = subst_formula(
                        g, {s.spec.arg_names[0]: Var(s.param[0])})
                if s.spec.result_names:
                    g = subst_formula(
                        g, {s.spec.result_names[0]: Var(result)})
                elif result != "result":
                    g = subst_formula(g, {"result": Var(result)})
                ensures.append(self.rewrite_formula_tys(
                    expand_post_meta(g, self.family_for)))
            return conj(ensures)
        inner = self.site_of.get(id(s.body))
        if inner is not None:
            # an unannotated curried lambda returns the next closure in
            # the chain, so its post states the constructor equation
            return BinOp("=", Var(result),
                         ConstructorApp(inner.ctor_name,
                                        [Var(n) for n, _ in inner.captured]))
        return TrueP()

    # -- expression rewriting ---------------------------------------------

    def rewrite(self, e: Expr) -> Expr:
        """`e` in first-order form; a node whose type and children stay
        the same is shared with the target."""
        cls = type(e)
        if cls is App:
            head, args = spine(e)
            info = self.direct.get(id(head))
            if info is not None and len(args) >= info.arity:
                return self.direct_call(head, info, args, e.loc)
            return self.apply_chain(self.rewrite(head), head.ty, args, e.loc)
        if cls is Var:
            if id(e) in self.direct:
                return self.lambda_value(self.eta_chains[e.name])
            ty = self.rewrite_ty(e.ty, e.loc)
            return e if ty == e.ty else Var(e.name, ty=ty, loc=e.loc)
        if cls is Lambda:
            return self.lambda_value(e)
        if cls is LetIn:
            d = e.defn
            if d.params:
                raise TransformError(
                    "unsupported",
                    "local function definitions are not supported by the "
                    "converter; bind a lambda instead", d.loc)
            ret = self.rewrite_ty(d.ret, d.loc)
            value = self.rewrite(d.body)
            body = self.rewrite(e.body)
            ty = self.rewrite_ty(e.ty, e.loc)
            if (value is d.body and body is e.body and d.spec is None
                    and ret == d.ret and ty == e.ty):
                return e
            nd = LetDef(d.is_rec, d.name, [], ret, value, loc=d.loc)
            return LetIn(nd, body, ty=ty, loc=e.loc)
        if cls is Match:
            scrut = self.rewrite(e.scrutinee)
            arms = [(self.rewrite_pattern(p), self.rewrite(b))
                    for p, b in e.arms]
            res_ty = self.rewrite_ty(e.ty, e.loc)
            absurd = e.absurd
            if not self.is_exhaustive(e):
                arms.append((PWild(), Absurd(ty=res_ty, loc=e.loc)))
                absurd = True
            return Match(scrut, arms, absurd=absurd, ty=res_ty, loc=e.loc)
        # the other nodes bind nothing and are rebuilt with their type
        # rewritten
        out = map_children(e, self.rewrite)
        ty = self.rewrite_ty(e.ty, e.loc)
        return out if ty == out.ty else replace(out, ty=ty)

    def direct_call(self, head: Var, info: _FnInfo, args: list, loc) -> Expr:
        """A call of a direct function, then `apply` for the arguments past
        its arity.  The head is not a first-class value, so its arrow type
        is rewritten structurally rather than mapped to a kont family."""
        rest = self.expand(head.ty)
        params = []
        for _ in range(info.arity):
            params.append(rest.param)
            rest = self.expand(rest.result)
        tys = [self.rewrite_ty(p, head.loc, info.bypassed) for p in params]
        tys.append(self.rewrite_ty(rest, loc, info.bypassed))
        fn_ty = arrow(*tys)
        out = head if fn_ty == head.ty else Var(head.name, ty=fn_ty,
                                                 loc=head.loc)
        for a in args[:info.arity]:
            fn_ty = fn_ty.result
            out = App(out, self.rewrite(a), ty=fn_ty, loc=loc)
        return self.apply_chain(out, rest, args[info.arity:], loc)

    def apply_chain(self, fn_expr: Expr, fn_ty: Ty, args: list, loc) -> Expr:
        """`fn_expr a1 ... an` through the apply functions of the families
        of the successive arrow types."""
        out = fn_expr
        ty = self.expand(fn_ty)
        for a in args:
            fam = self.family_for(ty, loc)
            a2 = self.rewrite(a)
            res_ty = self.rewrite_ty(ty.result, loc)
            param_ty = self.rewrite_ty(ty.param, loc)
            out = App(App(Var(fam.apply_name,
                              ty=arrow(fam.kont_ty, param_ty, res_ty)),
                          out, ty=TArrow(param_ty, res_ty)),
                      a2, ty=res_ty, loc=loc)
            ty = self.expand(ty.result)
        return out

    def lambda_value(self, lam: Lambda) -> Expr:
        """The constructor application that replaces a lambda."""
        site = self.site_of[id(lam)]
        fam = self.family_for(site.arrow_ty, lam.loc)
        args = [Var(n, ty=self.rewrite_ty(t, lam.loc))
                for n, t in site.captured]
        return ConstructorApp(site.ctor_name, args,
                              ty=fam.kont_ty, loc=lam.loc)

    def rewrite_pattern(self, p: Pattern) -> Pattern:
        if type(p) is PVar:
            if p.ty is None:
                return p
            ty = self.rewrite_ty(p.ty)
            return p if ty == p.ty else PVar(p.name, ty, loc=p.loc)
        return map_children(p, self.rewrite_pattern)

    # -- exhaustiveness ----------------------------------------------------

    def constructors_of(self, ty: Ty):
        """Complete constructor signature of a type, or None when the type
        cannot be exhausted by constructor patterns (ints, bools)."""
        ty = self.expand(ty)
        if isinstance(ty, TNamed):
            if ty.name in ("list", "tree"):
                return [(c, fields) for c, (of, fields)
                        in BUILTIN_CONSTRUCTORS.items() if of == ty]
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


def defunctionalize(program: Program, checker: Checker) -> TargetProgram:
    """Transform a curry-normalized, type-checked program."""
    return Defunctionalizer(program, checker).run()


# ---------------------------------------------------------------------------
# Structural invariant walkers (only tests call them)


def assert_first_order(t: TargetProgram):
    """No arrow type may survive anywhere outside bypassed definitions."""

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
