"""Rendering: WhyML-compatible text for TargetPrograms, canonical surface
text for Programs, and a reader for the emitted WhyML subset used by the
self round-trip oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .defunc import PredDef, TargetProgram
from .errors import ParseError
from .frontend import Parser, tokenize
from .syntax import (
    Absurd, App, BinOp, BoolLit, Cons, ConstructorApp, ExprStmt, FBinOp,
    FBool, FConstr, FInt, FLet, FLogicApp, FMatch, FTuple, FVar, Forall, If,
    IntLit, LemmaDecl, LetDef, LetIn, Lambda, LogicalDecl, Match, NilLit,
    Not, PCons, PConstr, PInt, PNil, PTuple, PVar, PWild, PostMeta, Program,
    RELATIONS, Seq, Spec, TArrow, TBool, TInt, TNamed, TTuple, TUnit, TrueP,
    TupleE, Ty, TypeDecl, UnitLit, Var, walk, BOOL, INT, UNIT,
)

# ---------------------------------------------------------------------------
# Stdlib map: prelude built-ins -> Why3 theories

STDLIB_IMPORTS = [
    ("int.Int", None),        # always
    ("int.ComputerDivision", "/"),  # `/` truncating toward zero
    ("int.MinMax", "max"),
    ("list.List", "list"),
    ("list.Length", "length"),
    ("tree.Tree", "tree"),
    ("tree.Height", "height"),
]


# ---------------------------------------------------------------------------
# WhyML document model (shared by the emitter and the round-trip reader)


@dataclass
class WhymlDoc:
    module_name: str
    imports: list  # of str
    items: list  # of ("type",TypeDecl) | ("logical",LogicalDecl)
    #              | ("predgroup",[PredDef]) | ("applygroup",[LetDef])
    #              | ("let",LetDef) | ("lemma",LemmaDecl)


def _used_symbols(t: TargetProgram) -> set[str]:
    """Names of builtin types/logicals referenced anywhere in the target."""
    used: set[str] = set()
    for root in (t.source_types + t.kont_decls + t.post_defs + t.apply_defs
                 + t.items + t.lemmas + t.prelude):
        for n in walk(root):
            cls = type(n)
            if cls is TNamed or cls is FLogicApp:
                used.add(n.name)
            elif cls in (PNil, PCons, NilLit, Cons):
                used.add("list")
            elif cls in (PConstr, ConstructorApp, FConstr):
                if n.name in ("Nil", "Cons"):
                    used.add("list")
                elif n.name in ("Empty", "Node"):
                    used.add("tree")
            elif (cls is BinOp or cls is FBinOp) and n.op == "/":
                used.add("/")
    return used


def build_doc(t: TargetProgram, module_name: str = "Defun") -> WhymlDoc:
    used = _used_symbols(t)
    imports = []
    for module, key in STDLIB_IMPORTS:
        if key is None or key in used:
            imports.append(module)
    items: list = []
    for decl in t.source_types:
        items.append(("type", decl))
    for decl in t.kont_decls:
        items.append(("type", decl))
    for decl in t.prelude:
        items.append(("logical", decl))
    if t.post_defs:
        items.append(("predgroup", list(t.post_defs)))
    if t.apply_defs:
        items.append(("applygroup", list(t.apply_defs)))
    for item in t.items:
        if isinstance(item, LetDef):
            items.append(("let", item))
        elif isinstance(item, ExprStmt):
            items.append(
                ("let", LetDef(False, "_it", [], item.expr.ty, item.expr)))
    for lem in t.lemmas:
        items.append(("lemma", lem))
    return WhymlDoc(module_name, imports, items)


# ---------------------------------------------------------------------------
# WhyML rendering


def w_ty(ty: Ty, atom: bool = False) -> str:
    if isinstance(ty, TInt):
        return "int"
    if isinstance(ty, TBool):
        return "bool"
    if isinstance(ty, TUnit):
        return "unit"
    if isinstance(ty, TNamed):
        if ty.args:
            s = ty.name + " " + " ".join(w_ty(a, atom=True) for a in ty.args)
            return f"({s})" if atom else s
        return ty.name
    if isinstance(ty, TTuple):
        return "(" + ", ".join(w_ty(x) for x in ty.items) + ")"
    if isinstance(ty, TArrow):
        s = f"{w_ty(ty.param, atom=True)} -> {w_ty(ty.result)}"
        return f"({s})" if atom else s
    raise AssertionError(f"unrenderable type {ty!r}")


def w_pattern(p) -> str:
    if isinstance(p, PWild):
        return "_"
    if isinstance(p, PVar):
        return p.name
    if isinstance(p, PInt):
        return str(p.value) if p.value >= 0 else f"({p.value})"
    if isinstance(p, PNil):
        return "Nil"
    if isinstance(p, PCons):
        return "Cons " + _w_pat_atom(p.head) + " " + _w_pat_atom(p.tail)
    if isinstance(p, PConstr):
        if not p.args:
            return p.name
        return p.name + " " + " ".join(_w_pat_atom(q) for q in p.args)
    if isinstance(p, PTuple):
        return "(" + ", ".join(w_pattern(q) for q in p.items) + ")"
    raise AssertionError(f"unrenderable pattern {p!r}")


def _w_pat_atom(p) -> str:
    s = w_pattern(p)
    if isinstance(p, (PCons, PTuple)) or (isinstance(p, PConstr) and p.args):
        return f"({s})" if not s.startswith("(") else s
    return s


def w_expr(e, indent: int = 0) -> str:
    """Render an expression; `indent` is the current left margin for
    multi-line forms (match)."""
    pad = "  " * indent
    if isinstance(e, IntLit):
        return str(e.value) if e.value >= 0 else f"({e.value})"
    if isinstance(e, BoolLit):
        return "true" if e.value else "false"
    if isinstance(e, UnitLit):
        return "()"
    if isinstance(e, NilLit):
        return "Nil"
    if isinstance(e, Var):
        return e.name
    if isinstance(e, Absurd):
        return "absurd"
    if isinstance(e, Cons):
        return ("(Cons " + _w_atom(e.head, indent) + " "
                + _w_atom(e.tail, indent) + ")")
    if isinstance(e, ConstructorApp):
        if not e.args:
            return e.name
        return ("(" + e.name + " "
                + " ".join(_w_atom(a, indent) for a in e.args) + ")")
    if isinstance(e, TupleE):
        return "(" + ", ".join(w_expr(x, indent) for x in e.items) + ")"
    if isinstance(e, BinOp):
        return (f"({_w_operand(e.left, indent)} {e.op} "
                f"{_w_operand(e.right, indent)})")
    if isinstance(e, Seq):
        return f"({w_expr(e.first, indent)}; {w_expr(e.second, indent)})"
    if isinstance(e, LetIn):
        d = e.defn
        return (f"let {d.name} = {w_expr(d.body, indent)} in "
                + w_expr(e.body, indent))
    if isinstance(e, If):
        return (f"if {w_expr(e.cond, indent)} then {w_expr(e.then, indent)} "
                f"else {w_expr(e.els, indent)}")
    if isinstance(e, Match):
        lines = [f"match {w_expr(e.scrutinee, indent)} with"]
        for p, b in e.arms:
            lines.append(f"{pad}| {w_pattern(p)} -> {w_expr(b, indent + 1)}")
        lines.append(f"{pad}end")
        return "\n".join(lines)
    if isinstance(e, App):
        head, args = e, []
        while isinstance(head, App):
            args.append(head.arg)
            head = head.fn
        args.reverse()
        return ("(" + w_expr(head, indent) + " "
                + " ".join(_w_atom(a, indent) for a in args) + ")")
    if isinstance(e, Lambda):
        params = " ".join(f"({n} : {w_ty(t)})" for n, t in e.params)
        return f"(fun {params} -> {w_expr(e.body, indent)})"
    raise AssertionError(f"unrenderable expression {e!r}")


def _w_operand(e, indent) -> str:
    # an `if`, `let` or `match` reaches as far right as it can, so it is
    # enclosed
    s = w_expr(e, indent)
    return f"({s})" if isinstance(e, (If, LetIn, Match)) else s


def _w_atom(e, indent) -> str:
    s = w_expr(e, indent)
    if s.startswith("(") or "\n" not in s and " " not in s:
        return s
    return f"({s})"


def w_formula(f, indent: int = 0) -> str:
    pad = "  " * indent
    if isinstance(f, TrueP):
        return "true"
    if isinstance(f, FInt):
        return str(f.value) if f.value >= 0 else f"({f.value})"
    if isinstance(f, FBool):
        return "true" if f.value else "false"
    if isinstance(f, FVar):
        return f.name
    if isinstance(f, FConstr):
        if not f.args:
            return f.name
        return ("(" + f.name + " "
                + " ".join(_wf_atom(a, indent) for a in f.args) + ")")
    if isinstance(f, FLogicApp):
        return ("(" + f.name + " "
                + " ".join(_wf_atom(a, indent) for a in f.args) + ")")
    if isinstance(f, FBinOp):
        s = f"{w_formula(f.left, indent)} {f.op} {w_formula(f.right, indent)}"
        return s if f.op in RELATIONS else f"({s})"
    if isinstance(f, FTuple):
        return "(" + ", ".join(w_formula(x, indent) for x in f.items) + ")"
    if isinstance(f, Not):
        return f"(not {w_formula(f.body, indent)})"
    if isinstance(f, Forall):
        binders = ", ".join(f"{n} : {w_ty(t)}" for n, t in f.binders)
        return f"(forall {binders}. {w_formula(f.body, indent)})"
    if isinstance(f, FLet):
        return (f"let {f.name} = {w_formula(f.value, indent)} in "
                + w_formula(f.body, indent))
    if isinstance(f, FMatch):
        lines = [f"match {w_formula(f.scrutinee, indent)} with"]
        for p, b in f.arms:
            lines.append(f"{pad}| {w_pattern(p)} -> {w_formula(b, indent + 1)}")
        lines.append(f"{pad}end")
        return "\n".join(lines)
    if isinstance(f, PostMeta):
        raise AssertionError("unexpanded post meta-predicate reached emission")
    raise AssertionError(f"unrenderable formula {f!r}")


def _wf_atom(f, indent) -> str:
    s = w_formula(f, indent)
    if s.startswith("(") or (" " not in s and "\n" not in s):
        return s
    return f"({s})"


def _w_params(params) -> str:
    return " ".join(f"({n} : {w_ty(t)})" for n, t in params)


def _render_pred(p: PredDef, head: str, out: list):
    out.append(f"  {head} {p.name} ({p.kont_param} : {w_ty(p.kont_ty)}) "
               f"({p.arg_param} : {w_ty(p.arg_ty)}) "
               f"({p.result_param} : {w_ty(p.result_ty)}) =")
    out.append(f"    match {p.kont_param} with")
    for pat, f in p.arms:
        out.append(f"    | {w_pattern(pat)} -> {w_formula(f, 3)}")
    out.append("    end")


def _render_letdef(d: LetDef, head: str, out: list):
    sig = f"  {head} {d.name} {_w_params(d.params)} : {w_ty(d.ret)}"
    out.append(sig)
    if d.spec is not None:
        for f in d.spec.requires:
            out.append(f"    requires {{ {w_formula(f, 2)} }}")
        for f in d.spec.ensures:
            out.append(f"    ensures {{ {w_formula(f, 2)} }}")
    body = w_expr(d.body, 1)
    out.append(f"  = {body}")


def render_doc(doc: WhymlDoc) -> str:
    out: list[str] = [f"module {doc.module_name}"]
    for imp in doc.imports:
        out.append(f"  use {imp}")
    for kind, item in doc.items:
        out.append("")
        if kind == "type":
            variants = " | ".join(
                c + ("" if not tys else " " + " ".join(
                    w_ty(t, atom=True) for t in tys))
                for c, tys in item.variants or [])
            out.append(f"  type {item.name} = {variants}")
        elif kind == "logical":
            head = "predicate" if item.is_predicate else "function"
            sig = f"  {head} {item.name} {_w_params(item.params)}"
            if not item.is_predicate:
                sig += f" : {w_ty(item.ret)}"
            if item.body is not None:
                body = w_expr(item.body, 1)
                out.append(f"{sig} = {body}")
            else:
                out.append(sig)
        elif kind == "predgroup":
            for i, p in enumerate(item):
                _render_pred(p, "predicate" if i == 0 else "with", out)
        elif kind == "applygroup":
            for i, d in enumerate(item):
                _render_letdef(d, "let rec function" if i == 0 else "with",
                               out)
        elif kind == "let":
            head = "let rec" if item.is_rec else "let"
            _render_letdef(item, head, out)
        elif kind == "lemma":
            out.append(f"  lemma {item.name} : {w_formula(item.formula, 1)}")
        else:
            raise AssertionError(kind)
    out.append("")
    out.append("end")
    return "\n".join(out) + "\n"


def emit_whyml(t: TargetProgram, module_name: str = "Defun") -> str:
    return render_doc(build_doc(t, module_name))


# ---------------------------------------------------------------------------
# WhyML-subset reader (self round-trip oracle)


class WhymlParser(Parser):
    """Parses exactly the subset render_doc produces."""

    # -- types (prefix application) ---------------------------------------

    def parse_ty(self):
        t = self.parse_wty_atom()
        if self.at("op", "->"):
            self.next()
            return TArrow(t, self.parse_ty())
        return t

    def parse_wty_atom(self):
        t = self.peek()
        if t.kind == "ident":
            self.next()
            if t.text == "int":
                return INT
            if t.text == "bool":
                return BOOL
            if t.text == "unit":
                return UNIT
            if t.text in ("list", "tree"):
                arg = self.parse_wty_atom()
                return TNamed(t.text, (arg,))
            return TNamed(t.text)
        if t.kind == "punct" and t.text == "(":
            self.next()
            ty = self.parse_ty()
            if self.at("punct", ","):
                items = [ty]
                while self.at("punct", ","):
                    self.next()
                    items.append(self.parse_ty())
                self.expect("punct", ")")
                return TTuple(tuple(items))
            self.expect("punct", ")")
            return ty
        self.fail("expected a type")

    # -- document ----------------------------------------------------------

    def parse_doc(self) -> WhymlDoc:
        self.expect("ident", "module")
        name = self.expect("uident").text
        imports = []
        while self.at("ident", "use"):
            self.next()
            mod = self.expect("ident").text
            self.expect("punct", ".")
            mod += "." + self.expect("uident").text
            imports.append(mod)
        items = []
        while not self.at("kw", "end"):
            items.extend(self.parse_doc_item())
        self.expect("kw", "end")
        self.expect("eof")
        return WhymlDoc(name, imports, items)

    def parse_doc_item(self):
        if self.at("kw", "type"):
            self.next()
            name = self.expect("ident").text
            self.expect("op", "=")
            variants = []
            while True:
                ctor = self.expect("uident").text
                fields = []
                while self._wty_start():
                    fields.append(self.parse_wty_atom())
                variants.append((ctor, fields))
                if self.at("punct", "|"):
                    self.next()
                else:
                    break
            return [("type", TypeDecl(name, variants=variants))]
        if self.at("kw", "function") or (
                self.at("kw", "predicate") and not self._pred_is_post()):
            is_pred = self.next().text == "predicate"
            name = self.expect("ident").text
            params = self.parse_wparams()
            ret = BOOL
            if not is_pred:
                self.expect("op", ":")
                ret = self.parse_ty()
            body = None
            if self.at("op", "="):
                self.next()
                body = self.parse_wexpr()
            return [("logical", LogicalDecl(name, params, ret, body=body,
                                            is_predicate=is_pred))]
        if self.at("kw", "predicate"):
            group = []
            self.expect("kw", "predicate")
            group.append(self.parse_pred())
            while self.at("kw", "with"):
                self.next()
                group.append(self.parse_pred())
            return [("predgroup", group)]
        if self.at("kw", "lemma"):
            self.next()
            name = self.expect("ident").text
            self.expect("op", ":")
            f = self.parse_formula()
            return [("lemma", LemmaDecl(name, f))]
        if self.at("kw", "let"):
            self.next()
            is_rec = False
            if self.at("kw", "rec"):
                self.next()
                is_rec = True
            if self.at("kw", "function"):
                self.next()
                group = [self.parse_wletdef(is_rec=True)]
                while self.at("kw", "with"):
                    self.next()
                    group.append(self.parse_wletdef(is_rec=True))
                return [("applygroup", group)]
            return [("let", self.parse_wletdef(is_rec=is_rec))]
        self.fail("expected a declaration")

    def _wty_start(self):
        return self.at("ident") or self.at("punct", "(")

    def _pred_is_post(self):
        # Distinguish a generated post group from a user logical
        # predicate: posts take exactly three parameters and their body
        # is a match on the first one.
        depth = 0
        groups = 0
        j = self.pos + 2  # skip "predicate" and the name
        while j < len(self.toks):
            t = self.toks[j]
            if t.kind == "punct" and t.text == "(":
                if depth == 0:
                    groups += 1
                depth += 1
            elif t.kind == "punct" and t.text == ")":
                depth -= 1
            elif depth == 0 and t.kind == "op" and t.text == "=":
                nxt = self.toks[j + 1]
                return (groups == 3 and nxt.kind == "kw"
                        and nxt.text == "match")
            elif depth == 0 and t.kind == "kw":
                return False
            j += 1
        return False

    def parse_wparams(self):
        params = []
        while self.at("punct", "("):
            if not (self.at("ident", k=1) and self.at("op", ":", 2)):
                break
            self.next()
            name = self.expect("ident").text
            self.expect("op", ":")
            ty = self.parse_ty()
            self.expect("punct", ")")
            params.append((name, ty))
        return params

    def parse_pred(self) -> PredDef:
        name = self.expect("ident").text
        params = self.parse_wparams()
        if len(params) != 3:
            self.fail("post predicates take exactly three parameters")
        self.expect("op", "=")
        self.expect("kw", "match")
        scrut = self.expect("ident").text
        self.expect("kw", "with")
        arms = []
        while self.at("punct", "|"):
            self.next()
            pat = self.parse_wpattern()
            self.expect("op", "->")
            arms.append((pat, self.parse_formula()))
        self.expect("kw", "end")
        (k, kty), (a, aty), (r, rty) = params
        if scrut != k:
            self.fail("post must match on its continuation parameter")
        return PredDef(name, k, kty, a, aty, r, rty, arms)

    def parse_wletdef(self, is_rec: bool) -> LetDef:
        name = self.expect("ident").text
        params = self.parse_wparams()
        self.expect("op", ":")
        ret = self.parse_ty()
        spec = Spec()
        while self.at("kw", "requires") or self.at("kw", "ensures"):
            which = self.next().text
            self.expect("punct", "{")
            f = self.parse_formula()
            self.expect("punct", "}")
            (spec.requires if which == "requires" else spec.ensures).append(f)
        self.expect("op", "=")
        body = self.parse_wexpr()
        return LetDef(is_rec, name, params, ret, body,
                      spec=spec if not spec.is_empty() else None)

    # -- expressions (prefix constructor application) ----------------------

    def parse_wexpr(self):
        t = self.peek()
        if t.kind == "kw" and t.text == "let":
            self.next()
            name = self.expect("ident").text
            self.expect("op", "=")
            value = self.parse_wexpr()
            self.expect("kw", "in")
            body = self.parse_wexpr()
            return LetIn(LetDef(False, name, [], None, value), body)
        if t.kind == "kw" and t.text == "if":
            self.next()
            cond = self.parse_wexpr()
            self.expect("kw", "then")
            then = self.parse_wexpr()
            self.expect("kw", "else")
            return If(cond, then, self.parse_wexpr())
        if t.kind == "kw" and t.text == "match":
            self.next()
            scrut = self.parse_wexpr()
            self.expect("kw", "with")
            arms = []
            while self.at("punct", "|"):
                self.next()
                pat = self.parse_wpattern()
                self.expect("op", "->")
                arms.append((pat, self.parse_wexpr()))
            self.expect("kw", "end")
            return Match(scrut, arms)
        if t.kind == "kw" and t.text == "fun":
            self.next()
            params = self.parse_wparams()
            self.expect("op", "->")
            return Lambda(None, params, None, self.parse_wexpr())
        return self.parse_wbin()

    def parse_wbin(self):
        e = self.parse_watom_or_app()
        t = self.peek()
        if t.kind == "op" and t.text in ("+", "-", "*", "/", "=", "<", "<=",
                                         ">", ">=", "&&", "||"):
            self.next()
            return BinOp(t.text, e, self.parse_watom_or_app())
        if t.kind == "op" and t.text == ";":
            self.next()
            return Seq(e, self.parse_wexpr())
        return e

    def _watom_start(self):
        t = self.peek()
        return (t.kind in ("int", "ident", "uident")
                or (t.kind == "kw" and t.text in ("true", "false"))
                or (t.kind == "punct" and t.text == "("))

    def parse_watom_or_app(self):
        t = self.peek()
        if t.kind == "uident":
            self.next()
            args = []
            while self._watom_start():
                args.append(self.parse_watom())
            return ConstructorApp(t.text, args)
        e = self.parse_watom()
        args = []
        while self._watom_start():
            args.append(self.parse_watom())
        for a in args:
            e = App(e, a)
        return e

    def parse_watom(self):
        t = self.peek()
        if t.kind == "int":
            self.next()
            return IntLit(int(t.text))
        if t.kind == "kw" and t.text in ("true", "false"):
            self.next()
            return BoolLit(t.text == "true")
        if t.kind == "ident":
            self.next()
            if t.text == "absurd":
                return Absurd()
            return Var(t.text)
        if t.kind == "uident":
            self.next()
            return ConstructorApp(t.text, [])
        if t.kind == "punct" and t.text == "(":
            self.next()
            if self.at("punct", ")"):
                self.next()
                return UnitLit()
            if self.at("op", "-") and self.at("int", k=1):
                self.next()
                lit = self.next()
                self.expect("punct", ")")
                return IntLit(-int(lit.text))
            e = self.parse_wexpr()
            if self.at("punct", ","):
                items = [e]
                while self.at("punct", ","):
                    self.next()
                    items.append(self.parse_wexpr())
                self.expect("punct", ")")
                return TupleE(items)
            self.expect("punct", ")")
            return e
        self.fail("expected an expression")

    # -- patterns (prefix constructor application) -------------------------

    def parse_wpattern(self):
        t = self.peek()
        if t.kind == "uident":
            self.next()
            args = []
            while self._wpat_atom_start():
                args.append(self.parse_wpat_atom())
            return PConstr(t.text, args)
        return self.parse_wpat_atom()

    def _wpat_atom_start(self):
        t = self.peek()
        return (t.kind in ("int", "ident", "uident")
                or (t.kind == "punct" and t.text in ("_", "(")))

    def parse_wpat_atom(self):
        t = self.peek()
        if t.kind == "punct" and t.text == "_":
            self.next()
            return PWild()
        if t.kind == "int":
            self.next()
            return PInt(int(t.text))
        if t.kind == "ident":
            self.next()
            return PVar(t.text)
        if t.kind == "uident":
            self.next()
            return PConstr(t.text, [])
        if t.kind == "punct" and t.text == "(":
            self.next()
            if self.at("op", "-") and self.at("int", k=1):
                self.next()
                lit = self.next()
                self.expect("punct", ")")
                return PInt(-int(lit.text))
            p = self.parse_wpattern()
            if self.at("punct", ","):
                items = [p]
                while self.at("punct", ","):
                    self.next()
                    items.append(self.parse_wpattern())
                self.expect("punct", ")")
                return PTuple(items)
            self.expect("punct", ")")
            return p
        self.fail("expected a pattern")

    # -- formulas: the frontend's grammar, with `let`/`match` and curried
    # constructor application ----------------------------------------------

    def parse_fnot(self):
        t = self.peek()
        if self.at("kw", "let"):
            self.next()
            name = self.expect("ident").text
            self.expect("op", "=")
            value = self.parse_fterm()
            self.expect("kw", "in")
            return FLet(name, value, self.parse_formula(), loc=t.loc)
        if self.at("kw", "match"):
            self.next()
            scrut = self.parse_fterm()
            self.expect("kw", "with")
            arms = []
            while self.at("punct", "|"):
                self.next()
                pat = self.parse_wpattern()
                self.expect("op", "->")
                arms.append((pat, self.parse_formula()))
            self.expect("kw", "end")
            return FMatch(scrut, arms, loc=t.loc)
        return super().parse_fnot()

    def parse_fapp(self):
        t = self.peek()
        if t.kind != "uident":
            return super().parse_fapp()
        self.next()
        args = []
        while self._formula_atom_start():
            args.append(self.parse_fatom())
        return FConstr(t.text, args, loc=t.loc)


def parse_whyml(text: str) -> WhymlDoc:
    return WhymlParser(tokenize(text)).parse_doc()


# ---------------------------------------------------------------------------
# Surface pretty-printer (round-trip support for the frontend)


def s_ty(ty: Ty, atom: bool = False) -> str:
    if isinstance(ty, TInt):
        return "int"
    if isinstance(ty, TBool):
        return "bool"
    if isinstance(ty, TUnit):
        return "unit"
    if isinstance(ty, TNamed):
        if ty.args:
            return " ".join(s_ty(a, atom=True) for a in ty.args) + " " + ty.name
        return ty.name
    if isinstance(ty, TTuple):
        s = " * ".join(s_ty(t, atom=True) for t in ty.items)
        return f"({s})" if atom else s
    if isinstance(ty, TArrow):
        s = f"{s_ty(ty.param, atom=True)} -> {s_ty(ty.result)}"
        return f"({s})" if atom else s
    raise AssertionError(f"unrenderable type {ty!r}")


def s_pattern(p) -> str:
    if isinstance(p, PWild):
        return "_"
    if isinstance(p, PVar):
        if p.ty is not None:
            return f"({p.name} : {s_ty(p.ty)})"
        return p.name
    if isinstance(p, PInt):
        return str(p.value) if p.value >= 0 else f"(-{-p.value})"
    if isinstance(p, PNil):
        return "[]"
    if isinstance(p, PCons):
        return f"{_s_pat_atom(p.head)} :: {s_pattern(p.tail)}"
    if isinstance(p, PConstr):
        if not p.args:
            return p.name
        if len(p.args) == 1:
            return f"{p.name} {_s_pat_atom(p.args[0])}"
        return p.name + " (" + ", ".join(s_pattern(q) for q in p.args) + ")"
    if isinstance(p, PTuple):
        return "(" + ", ".join(s_pattern(q) for q in p.items) + ")"
    raise AssertionError(f"unrenderable pattern {p!r}")


def _s_pat_atom(p) -> str:
    s = s_pattern(p)
    if isinstance(p, PCons) or (isinstance(p, PConstr) and len(p.args) == 1):
        return f"({s})"
    return s


def s_expr(e) -> str:
    if isinstance(e, IntLit):
        return str(e.value) if e.value >= 0 else f"(-{-e.value})"
    if isinstance(e, BoolLit):
        return "true" if e.value else "false"
    if isinstance(e, UnitLit):
        return "()"
    if isinstance(e, NilLit):
        return "[]"
    if isinstance(e, Var):
        return e.name
    if isinstance(e, Cons):
        return f"{_s_atom(e.head)} :: {s_expr(e.tail)}"
    if isinstance(e, ConstructorApp):
        if not e.args:
            return e.name
        if len(e.args) == 1:
            return f"{e.name} {_s_atom(e.args[0])}"
        return e.name + " (" + ", ".join(s_expr(a) for a in e.args) + ")"
    if isinstance(e, TupleE):
        return "(" + ", ".join(s_expr(x) for x in e.items) + ")"
    if isinstance(e, BinOp):
        return f"({s_expr(e.left)} {e.op} {s_expr(e.right)})"
    if isinstance(e, Seq):
        return f"({s_expr(e.first)}; {s_expr(e.second)})"
    if isinstance(e, LetIn):
        d = e.defn
        head = "let rec" if d.is_rec else "let"
        params = _s_params(d.params)
        ret = f" : {s_ty(d.ret)}" if d.ret is not None else ""
        return (f"({head} {d.name}{params}{ret} = {s_expr(d.body)} "
                f"in {s_expr(e.body)})")
    if isinstance(e, If):
        return f"(if {s_expr(e.cond)} then {s_expr(e.then)} else {s_expr(e.els)})"
    if isinstance(e, Match):
        arms = " ".join(f"| {s_pattern(p)} -> {_s_arm(b)}" for p, b in e.arms)
        return f"(match {s_expr(e.scrutinee)} with {arms} end)"
    if isinstance(e, App):
        return f"({s_expr(e.fn)} {_s_atom(e.arg)})"
    if isinstance(e, Lambda):
        spec = ""
        if e.spec is not None:
            spec = f" [@gospel {{| {_s_spec_clauses(e.spec)} |}}]"
        return (f"(fun{spec}{_s_params(e.params)} : {s_ty(e.ret)} -> "
                f"{s_expr(e.body)})")
    if isinstance(e, Absurd):
        raise AssertionError("absurd has no surface syntax")
    raise AssertionError(f"unrenderable expression {e!r}")


def _s_atom(e) -> str:
    s = s_expr(e)
    if s.startswith("(") or s.startswith("["):
        return s
    if isinstance(e, (Var, IntLit, BoolLit, UnitLit, NilLit)):
        return s
    if isinstance(e, ConstructorApp) and not e.args:
        return s
    return f"({s})"


def _s_arm(e) -> str:
    return _s_atom(e) if not isinstance(e, (Var, IntLit, BoolLit)) else s_expr(e)


def _s_params(params) -> str:
    out = ""
    for n, t in params:
        if n == "()" :
            out += " ()"
        else:
            out += f" ({n} : {s_ty(t)})"
    return out


def s_formula(f) -> str:
    if isinstance(f, TrueP):
        return "true"
    if isinstance(f, FInt):
        return str(f.value) if f.value >= 0 else f"(-{-f.value})"
    if isinstance(f, FBool):
        return "true" if f.value else "false"
    if isinstance(f, FVar):
        return f.name
    if isinstance(f, FConstr):
        if not f.args:
            return f.name
        return f.name + " " + " ".join(_s_fatom(a) for a in f.args)
    if isinstance(f, FLogicApp):
        return f.name + " " + " ".join(_s_fatom(a) for a in f.args)
    if isinstance(f, FBinOp):
        if f.op in RELATIONS:
            return f"{_s_fterm(f.left)} {f.op} {_s_fterm(f.right)}"
        return f"({s_formula(f.left)} {f.op} {s_formula(f.right)})"
    if isinstance(f, FTuple):
        return "(" + ", ".join(s_formula(x) for x in f.items) + ")"
    if isinstance(f, Not):
        return f"(not {s_formula(f.body)})"
    if isinstance(f, Forall):
        binders = ", ".join(
            n if t is None else f"{n} : {s_ty(t)}" for n, t in f.binders)
        return f"(forall {binders}. {s_formula(f.body)})"
    if isinstance(f, PostMeta):
        parts = [f"post ({s_formula(f.fn)} : {s_ty(f.fn_ty)})"]
        parts += [_s_fatom(a) for a in f.args]
        parts.append(_s_fatom(f.result))
        return "(" + " ".join(parts) + ")"
    raise AssertionError(f"unrenderable formula {f!r}")


def _s_fterm(f) -> str:
    s = s_formula(f)
    if isinstance(f, (FConstr, FLogicApp)) and " " in s:
        return f"({s})"
    return s


def _s_fatom(f) -> str:
    s = s_formula(f)
    if s.startswith("("):
        return s
    if isinstance(f, (FVar, FInt, FBool, TrueP)):
        return s
    if isinstance(f, FConstr) and not f.args:
        return s
    return f"({s})"


def _s_spec_clauses(spec: Spec) -> str:
    parts = []
    for f in spec.requires:
        parts.append(f"requires {s_formula(f)}")
    for f in spec.ensures:
        parts.append(f"ensures {s_formula(f)}")
    return " ".join(parts)


def _s_spec_block(spec: Spec, fn_name: str) -> str:
    parts = []
    if spec.result_names:
        header = ", ".join(spec.result_names) + f" = {fn_name}"
        if spec.arg_names:
            header += " " + " ".join(spec.arg_names)
        parts.append(header)
    parts.append(_s_spec_clauses(spec))
    return "(*@ " + " ".join(p for p in parts if p) + " *)"


def emit_surface(p: Program) -> str:
    out = []
    for decl in p.prelude:
        head = "predicate" if decl.is_predicate else "function"
        sig = f"{head} {decl.name}{_s_params(decl.params)}"
        if not decl.is_predicate:
            sig += f" : {s_ty(decl.ret)}"
        if decl.body is not None:
            sig += f" = {s_expr(decl.body)}"
        out.append(f"(*@ {sig} *)")
    for item in p.items:
        if isinstance(item, TypeDecl):
            if item.variants is not None:
                variants = " | ".join(
                    c + ("" if not tys else " of " + " * ".join(
                        s_ty(t, atom=True) for t in tys))
                    for c, tys in item.variants)
                out.append(f"type {item.name} = {variants}")
            else:
                out.append(f"type {item.name} = {s_ty(item.alias)}")
        elif isinstance(item, LetDef):
            head = "let rec" if item.is_rec else "let"
            ret = f" : {s_ty(item.ret)}" if item.ret is not None else ""
            out.append(f"{head} {item.name}{_s_params(item.params)}{ret} = "
                       f"{s_expr(item.body)}")
            if item.spec is not None:
                out.append(_s_spec_block(item.spec, item.name))
        elif isinstance(item, LemmaDecl):
            out.append(f"(*@ lemma {item.name} : {s_formula(item.formula)} *)")
        elif isinstance(item, ExprStmt):
            out.append(f"{s_expr(item.expr)};;")
    return "\n".join(out) + "\n"
