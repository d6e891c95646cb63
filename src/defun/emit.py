"""Rendering: WhyML text for TargetPrograms, a reader for the emitted WhyML
subset used by the self round-trip oracle, and canonical surface text for
Programs.  One `WhymlWriter.term` writes expressions and formulas alike,
and the `use` imports are the theories of the builtins it wrote.
"""

from __future__ import annotations

from dataclasses import dataclass

from .defunc import PredDef, TargetProgram
from .frontend import Parser, tokenize
from .syntax import (
    Absurd, App, BinOp, BoolLit, CONNECTIVES, ConstructorApp, ExprStmt,
    Forall, If, IntLit, LemmaDecl, LetDef, LetIn, Lambda, LogicalDecl, Match,
    Not, PConstr, PInt, PTuple, PVar, PWild, PostMeta, Program, RELATIONS,
    Seq, Spec, TArrow, TBool, TInt, TNamed, TTuple, TUnit, TupleE, Ty,
    TypeDecl, UnitLit, Var, spine, BOOL, INT, UNIT,
)

# ---------------------------------------------------------------------------
# Stdlib map: prelude built-ins -> Why3 theories

STDLIB_IMPORTS = [
    ("int.Int", None),        # always
    ("int.ComputerDivision", "/"),  # `/` truncating toward zero
    ("int.MinMax", "max"),
    ("list.List", "type list"),
    ("list.Length", "length"),
    ("tree.Tree", "type tree"),
    ("tree.Height", "height"),
]

# builtin constructors -> the key of the theory that declares them
BUILTIN_CONSTRUCTORS = {
    "Nil": "type list", "Cons": "type list", "Empty": "type tree",
    "Node": "type tree"}


# ---------------------------------------------------------------------------
# WhyML document model (shared by the emitter and the round-trip reader)


@dataclass
class WhymlDoc:
    module_name: str
    items: list  # of ("type",TypeDecl) | ("logical",LogicalDecl)
    #              | ("predgroup",[PredDef]) | ("applygroup",[LetDef])
    #              | ("let",LetDef) | ("lemma",LemmaDecl)


def build_doc(t: TargetProgram, module_name: str = "Defun") -> WhymlDoc:
    items: list = []
    for decl in t.source_types + t.kont_decls:
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
    return WhymlDoc(module_name, items)


# ---------------------------------------------------------------------------
# WhyML rendering


class WhymlWriter:
    """Writes WhyML text, and records in `used` each symbol it writes: a
    named type `t` as `type t` (types and functions have separate
    namespaces), the function a call applies, a binary operator, a
    constructor, or for the constructors of `list` and `tree` their type.
    The keys of `STDLIB_IMPORTS` are among these symbols."""

    def __init__(self):
        self.used: set[str] = set()

    def item(self, kind: str, item, out: list):
        """Append the lines of one document item to `out`."""
        if kind == "let":
            self._letdef(item, "let rec" if item.is_rec else "let", out)
        elif kind == "type":
            variants = " | ".join(
                c + "".join(" " + self.ty(t, atom=True) for t in tys)
                for c, tys in item.variants)
            out.append(f"  type {item.name} = {variants}")
        elif kind == "logical":
            head = "predicate" if item.is_predicate else "function"
            sig = f"  {head} {item.name}{self.params(item.params)}"
            if not item.is_predicate:
                sig += f" : {self.ty(item.ret)}"
            if item.body is not None:
                sig += f" = {self.term(item.body, 1)}"
            out.append(sig)
        elif kind == "predgroup":
            for i, p in enumerate(item):
                params = self.params([(p.kont_param, p.kont_ty),
                                      (p.arg_param, p.arg_ty),
                                      (p.result_param, p.result_ty)])
                head = "predicate" if i == 0 else "with"
                out.append(f"  {head} {p.name}{params} =")
                out.append(f"    match {p.kont_param} with")
                for pat, f in p.arms:
                    out.append(f"    | {self.pattern(pat)} -> "
                               f"{self.term(f, 3, True)}")
                out.append("    end")
        elif kind == "applygroup":
            for i, d in enumerate(item):
                self._letdef(d, "let rec function" if i == 0 else "with", out)
        elif kind == "lemma":
            out.append(
                f"  lemma {item.name} : {self.term(item.formula, 1, True)}")
        else:
            raise AssertionError(kind)

    def _letdef(self, d: LetDef, head: str, out: list):
        out.append(f"  {head} {d.name}{self.params(d.params)} : "
                   f"{self.ty(d.ret)}")
        if d.spec is not None:
            for f in d.spec.requires:
                out.append(f"    requires {{ {self.term(f, 2, True)} }}")
            for f in d.spec.ensures:
                out.append(f"    ensures {{ {self.term(f, 2, True)} }}")
        out.append(f"  = {self.term(d.body, 1)}")

    def params(self, params) -> str:
        """Each parameter with the space that precedes it."""
        return "".join(f" ({n} : {self.ty(t)})" for n, t in params)

    def ty(self, ty: Ty, atom: bool = False) -> str:
        cls = type(ty)
        if cls is TInt:
            return "int"
        if cls is TNamed:
            self.used.add("type " + ty.name)
            if ty.args:
                s = ty.name + " " + " ".join(self.ty(a, atom=True)
                                             for a in ty.args)
                return f"({s})" if atom else s
            return ty.name
        if cls is TBool:
            return "bool"
        if cls is TUnit:
            return "unit"
        if cls is TTuple:
            return "(" + ", ".join(self.ty(x) for x in ty.items) + ")"
        if cls is TArrow:
            s = f"{self.ty(ty.param, atom=True)} -> {self.ty(ty.result)}"
            return f"({s})" if atom else s
        raise AssertionError(f"unrenderable type {ty!r}")

    def pattern(self, p) -> str:
        cls = type(p)
        if cls is PVar:
            return p.name
        if cls is PConstr:
            self.used.add(BUILTIN_CONSTRUCTORS.get(p.name, p.name))
            if not p.args:
                return p.name
            return p.name + " " + " ".join(_enclosed(self.pattern(q))
                                           for q in p.args)
        if cls is PWild:
            return "_"
        if cls is PInt:
            return str(p.value) if p.value >= 0 else f"({p.value})"
        if cls is PTuple:
            return "(" + ", ".join(self.pattern(q) for q in p.items) + ")"
        raise AssertionError(f"unrenderable pattern {p!r}")

    def term(self, x, indent: int = 0, prop: bool = False) -> str:
        """The WhyML text of an expression or a formula; `indent` is the
        left margin of the lines of a multi-line `match`.  Where `x` stands
        as a proposition (`prop`), a relation is written bare; elsewhere,
        in code or as an operand of a relation, it is enclosed.  The node
        classes are tested in the order of how often they occur."""
        cls = type(x)
        if cls is Var:
            return x.name
        if cls is App:
            head, args = spine(x)
            if type(head) is Var:
                self.used.add(head.name)
            return f"({self.term(head, indent)} {self._atoms(args, indent)})"
        if cls is BinOp:
            self.used.add(x.op)
            sub = x.op in CONNECTIVES
            s = (f"{self._operand(x.left, indent, sub)} {x.op} "
                 f"{self._operand(x.right, indent, sub)}")
            return s if prop and x.op in RELATIONS else f"({s})"
        if cls is IntLit:
            return str(x.value) if x.value >= 0 else f"({x.value})"
        if cls is ConstructorApp:
            self.used.add(BUILTIN_CONSTRUCTORS.get(x.name, x.name))
            if not x.args:
                return x.name
            return f"({x.name} {self._atoms(x.args, indent)})"
        if cls is LetIn:
            return (f"let {x.defn.name} = {self.term(x.defn.body, indent)} "
                    f"in {self.term(x.body, indent, prop)}")
        if cls is Match:
            pad = "  " * indent
            lines = [f"match {self.term(x.scrutinee, indent)} with"]
            for p, b in x.arms:
                lines.append(f"{pad}| {self.pattern(p)} -> "
                             f"{self.term(b, indent + 1, prop)}")
            lines.append(f"{pad}end")
            return "\n".join(lines)
        if cls is If:
            return (f"if {self.term(x.cond, indent)} then "
                    f"{self.term(x.then, indent)} "
                    f"else {self.term(x.els, indent)}")
        if cls is TupleE:
            return ("(" + ", ".join(self.term(i, indent) for i in x.items)
                    + ")")
        if cls is BoolLit:
            return "true" if x.value else "false"
        if cls is Not:
            return f"(not {self.term(x.body, indent, True)})"
        if cls is Forall:
            binders = ", ".join(f"{n} : {self.ty(t)}" for n, t in x.binders)
            return f"(forall {binders}. {self.term(x.body, indent, True)})"
        if cls is Seq:
            return (f"({self.term(x.first, indent)}; "
                    f"{self.term(x.second, indent)})")
        if cls is UnitLit:
            return "()"
        if cls is Absurd:
            return "absurd"
        if cls is Lambda:
            return (f"(fun{self.params(x.params)} -> "
                    f"{self.term(x.body, indent)})")
        raise AssertionError(f"unrenderable term {x!r}")

    def _atoms(self, args, indent: int) -> str:
        return " ".join(_enclosed(self.term(a, indent)) for a in args)

    def _operand(self, e, indent: int, prop: bool) -> str:
        # an `if`, `let` or `match` reaches as far right as it can, so it is
        # enclosed
        s = self.term(e, indent, prop)
        return f"({s})" if type(e) in (If, LetIn, Match) else s


def _enclosed(s: str) -> str:
    """`s` as an argument of an application: in parentheses unless it is
    one word or already enclosed."""
    if s.startswith("(") or " " not in s and "\n" not in s:
        return s
    return f"({s})"


def render_doc(doc: WhymlDoc) -> str:
    """The module text: its items, after the `use` lines of the theories
    whose builtins the items write."""
    writer = WhymlWriter()
    body: list[str] = []
    for kind, item in doc.items:
        body.append("")
        writer.item(kind, item, body)
    uses = [f"  use {module}" for module, key in STDLIB_IMPORTS
            if key is None or key in writer.used]
    return "\n".join([f"module {doc.module_name}", *uses, *body, "", "end"]
                     ) + "\n"


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
        # the imports follow from the items, so they are read and dropped
        while self.at("ident", "use"):
            self.next()
            self.expect("ident")
            self.expect("punct", ".")
            self.expect("uident")
        items = []
        while not self.at("kw", "end"):
            items.extend(self.parse_doc_item())
        self.expect("kw", "end")
        self.expect("eof")
        return WhymlDoc(name, items)

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
                      spec=spec if spec.requires or spec.ensures else None)

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

    # -- formulas: the frontend's grammar, with the `let` of a post arm and
    # curried constructor application --------------------------------------

    def parse_fnot(self):
        t = self.peek()
        if self.at("kw", "let"):
            self.next()
            name = self.expect("ident").text
            self.expect("op", "=")
            value = self.parse_fterm()
            self.expect("kw", "in")
            return LetIn(LetDef(False, name, [], None, value),
                         self.parse_formula(), loc=t.loc)
        return super().parse_fnot()

    def parse_fapp(self):
        t = self.peek()
        if t.kind != "uident":
            return super().parse_fapp()
        self.next()
        args = []
        while self._formula_atom_start():
            args.append(self.parse_fatom())
        return ConstructorApp(t.text, args, loc=t.loc)


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
    if isinstance(p, PConstr) and len(p.args) == 1:
        return f"({s})"
    return s


def s_expr(e) -> str:
    """Surface text of an expression or a formula: every compound term is
    enclosed, and an application is written `(f a1 ... an)`, which both
    grammars read."""
    if isinstance(e, IntLit):
        return str(e.value) if e.value >= 0 else f"(-{-e.value})"
    if isinstance(e, BoolLit):
        return "true" if e.value else "false"
    if isinstance(e, UnitLit):
        return "()"
    if isinstance(e, Var):
        return e.name
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
        head, args = spine(e)
        return f"({s_expr(head)} " + " ".join(map(_s_atom, args)) + ")"
    if isinstance(e, Lambda):
        spec = ""
        if e.spec is not None:
            spec = f" [@gospel {{| {_s_spec_clauses(e.spec)} |}}]"
        return (f"(fun{spec}{_s_params(e.params)} : {s_ty(e.ret)} -> "
                f"{s_expr(e.body)})")
    if isinstance(e, Not):
        return f"(not {s_expr(e.body)})"
    if isinstance(e, Forall):
        binders = ", ".join(
            n if t is None else f"{n} : {s_ty(t)}" for n, t in e.binders)
        return f"(forall {binders}. {s_expr(e.body)})"
    if isinstance(e, PostMeta):
        parts = [f"post ({s_expr(e.fn)} : {s_ty(e.fn_ty)})"]
        parts += [_s_atom(a) for a in e.args + [e.result]]
        return "(" + " ".join(parts) + ")"
    if isinstance(e, Absurd):
        raise AssertionError("absurd has no surface syntax")
    raise AssertionError(f"unrenderable expression {e!r}")


def _s_atom(e) -> str:
    s = s_expr(e)
    if s.startswith("("):
        return s
    if isinstance(e, (Var, IntLit, BoolLit, UnitLit)):
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


def _s_spec_clauses(spec: Spec) -> str:
    parts = []
    for f in spec.requires:
        parts.append(f"requires {s_expr(f)}")
    for f in spec.ensures:
        parts.append(f"ensures {s_expr(f)}")
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
            out.append(f"(*@ lemma {item.name} : {s_expr(item.formula)} *)")
        elif isinstance(item, ExprStmt):
            out.append(f"{s_expr(item.expr)};;")
    return "\n".join(out) + "\n"
