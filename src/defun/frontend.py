"""Lexer and parser for `.mlg` sources.

The surface language follows OCaml conventions for the constructs we
support.  Specifications live in trailing `(*@ ... *)` comment blocks and
inline `[@gospel {| ... |}]` lambda attributes; plain comments are dropped
during lexing.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass

from .errors import LexError, Loc, ParseError
from .syntax import (
    App, BinOp, BoolLit, Cons, ConstructorApp, ExprStmt, FBinOp, FBool,
    FConstr, FInt, FLogicApp, FTuple, FVar, Forall, If, IntLit, LemmaDecl,
    LetDef, LetIn, Lambda, LogicalDecl, Match, NilLit, Not, PConstr, PCons,
    PInt, PNil, PTuple, PVar, PWild, PostMeta, Program, Seq, Spec, TArrow,
    TNamed, TTuple, TrueP, TupleE, TypeDecl, UnitLit, Var, children,
    formula_of_binop, normalize_program, BOOL, INT, UNIT,
)

KEYWORDS = {
    "let", "rec", "in", "type", "of", "match", "with", "end", "if", "then",
    "else", "fun", "true", "false", "not", "forall", "lemma", "requires",
    "ensures", "predicate", "function",
}

# longest first
OPERATORS = [
    ";;", "::", "->", "<=", ">=", "&&", "||", "/\\", "\\/",
    "+", "-", "*", "/", "=", "<", ">", ":", ";",
]

PUNCT = ["(", ")", "[", "]", "{", "}", ",", ".", "|", "_"]

# One alternative per kind of lexeme, tried in this order at each offset
# (the recipe "Writing a Tokenizer" of the `re` documentation).  Integer
# literals are what `int` reads (`\d` is `str.isdecimal`); a word starts
# with a letter or `_`, checked in `tokenize`, as `[^\W\d]` also admits
# non-decimal digits such as `²`.
MASTER = re.compile("|".join([
    r"(?P<ws>[ \t\r\n]+)",
    r"(?P<specopen>\(\*@)",
    r"(?P<comment>\(\*)",
    r"(?P<specclose>\*\))",
    r"(?P<attropen>\[@gospel[ \t\r\n]*\{\|)",
    r"(?P<badattr>\[@gospel)",
    r"(?P<attrclose>\|\}\])",
    r"(?P<int>\d+)",
    r"(?P<word>[^\W\d][\w']*)",
    "(?P<op>" + "|".join(map(re.escape, OPERATORS)) + ")",
    "(?P<punct>" + "|".join(map(re.escape, PUNCT)) + ")",
]))
COMMENT_DELIM = re.compile(r"\(\*|\*\)")


@dataclass
class Token:
    kind: str  # kw ident uident int op punct specopen specclose attropen attrclose eof
    text: str
    loc: Loc

    def __repr__(self):
        return f"{self.kind}:{self.text!r}@{self.loc}"


def tokenize(source: str) -> list[Token]:
    toks: list[Token] = []
    i, n = 0, len(source)
    line, bol = 1, 0  # the current line, and the offset where it begins
    digit_limit = sys.get_int_max_str_digits()  # 0: no limit
    in_spec = False
    while i < n:
        m = MASTER.match(source, i)
        if m is None:
            raise LexError(f"illegal character {source[i]!r}",
                           Loc(line, i - bol + 1))
        kind, j = m.lastgroup, m.end()
        if kind in ("ws", "comment", "attropen"):  # may span lines
            if kind == "comment":  # nested comments allowed
                depth = 1
                while depth:
                    d = COMMENT_DELIM.search(source, j)
                    if d is None:
                        raise LexError("unterminated comment",
                                       Loc(line, m.end() - bol + 1))
                    depth += 1 if d.group() == "(*" else -1
                    j = d.end()
            elif kind == "attropen":
                toks.append(Token(kind, "[@gospel {|", Loc(line, i - bol + 1)))
            newlines = source.count("\n", i, j)
            if newlines:
                line += newlines
                bol = source.rindex("\n", i, j) + 1
            i = j
            continue
        text, here = m.group(), Loc(line, i - bol + 1)
        if kind == "word":
            c = text[0]
            if not (c.isalpha() or c == "_"):
                raise LexError(f"illegal character {c!r}", here)
            if "'" in text:
                raise LexError(f"type variables are not supported: {text!r}",
                               here)
            kind = ("punct" if text == "_" else "kw" if text in KEYWORDS
                    else "uident" if c.isupper() else "ident")
        elif kind == "int":
            if digit_limit and j - i > digit_limit:
                # `int` could not convert it
                raise LexError(f"integer literal of {j - i} digits exceeds "
                               f"the limit of {digit_limit}", here)
        elif kind == "specopen":
            in_spec = True
        elif kind == "specclose":
            if not in_spec:
                raise LexError("unmatched comment terminator", here)
            in_spec = False
        elif kind == "badattr":
            raise LexError("malformed gospel attribute", here)
        toks.append(Token(kind, text, here))
        i = j
    if in_spec:
        raise LexError("unterminated specification comment",
                       Loc(line, n - bol + 1))
    toks.append(Token("eof", "", Loc(line, n - bol + 1)))
    return toks


ATOM_START = {
    ("int",), ("ident",), ("uident",), ("punct", "("), ("punct", "["),
    ("kw", "true"), ("kw", "false"),
}


class Parser:
    def __init__(self, tokens: list[Token]):
        self.toks = tokens
        self.pos = 0

    # -- token plumbing ----------------------------------------------------

    # The tokens end in `eof`, which `next` never steps past, so only a
    # lookahead can run off the end.

    def peek(self, k=0) -> Token:
        if k and self.pos + k >= len(self.toks):
            return self.toks[-1]
        return self.toks[self.pos + k]

    def next(self) -> Token:
        t = self.toks[self.pos]
        if t.kind != "eof":
            self.pos += 1
        return t

    def at(self, kind, text=None, k=0) -> bool:
        t = self.peek(k) if k else self.toks[self.pos]
        return t.kind == kind and (text is None or t.text == text)

    def expect(self, kind, text=None) -> Token:
        t = self.toks[self.pos]
        if t.kind != kind or text is not None and t.text != text:
            want = text if text is not None else kind
            raise ParseError(f"expected {want!r}, found {t.text!r}", t.loc,
                             expected={want}, found=t.text)
        if kind != "eof":
            self.pos += 1
        return t

    def fail(self, msg):
        t = self.peek()
        raise ParseError(f"{msg}, found {t.text!r}", t.loc, found=t.text)

    # -- programs ----------------------------------------------------------

    def parse_program(self) -> Program:
        prog = Program()
        while not self.at("eof"):
            if self.at("op", ";;"):
                self.next()
                continue
            if self.at("kw", "type"):
                prog.items.append(self.parse_typedecl())
            elif self.at("kw", "let"):
                prog.items.append(self.parse_letdef(toplevel=True))
            elif self.at("specopen"):
                self.parse_spec_item(prog)
            else:
                loc = self.peek().loc
                prog.items.append(ExprStmt(self.parse_expr(), loc=loc))
        return prog

    def parse_spec_item(self, prog: Program):
        open_tok = self.expect("specopen")
        if self.at("kw", "lemma"):
            self.next()
            name = self.expect("ident").text
            self.expect("op", ":")
            f = self.parse_formula()
            self.expect("specclose")
            prog.items.append(LemmaDecl(name, f, loc=open_tok.loc))
        elif self.at("kw", "function") or self.at("kw", "predicate"):
            is_pred = self.next().text == "predicate"
            name = self.expect("ident").text
            params = self.parse_params()
            if is_pred:
                ret = BOOL
            else:
                self.expect("op", ":")
                ret = self.parse_ty()
            body = None
            if self.at("op", "="):
                self.next()
                body = self.parse_expr()
            self.expect("specclose")
            prog.prelude.append(
                LogicalDecl(name, params, ret, body=body, is_predicate=is_pred,
                            loc=open_tok.loc))
        else:
            spec = self.parse_spec_clauses(end="specclose")
            self.expect("specclose")
            prev = prog.items[-1] if prog.items else None
            if not isinstance(prev, LetDef):
                raise ParseError("specification block must follow a definition",
                                 open_tok.loc)
            if prev.spec is not None:
                raise ParseError("definition already carries a specification",
                                 open_tok.loc)
            prev.spec = spec

    def parse_spec_clauses(self, end: str) -> Spec:
        spec = Spec(loc=self.peek().loc)
        if self.at("ident") and (self.at("punct", ",", 1) or self.at("op", "=", 1)):
            spec.result_names.append(self.next().text)
            while self.at("punct", ","):
                self.next()
                spec.result_names.append(self.expect("ident").text)
            self.expect("op", "=")
            self.expect("ident")  # the function's own name; informative only
            while self.at("ident"):
                spec.arg_names.append(self.next().text)
        while self.at("kw", "requires") or self.at("kw", "ensures"):
            which = self.next().text
            f = self.parse_formula()
            (spec.requires if which == "requires" else spec.ensures).append(f)
        if not self.at(end):
            self.fail("expected 'requires' or 'ensures'")
        return spec

    def parse_typedecl(self) -> TypeDecl:
        loc = self.expect("kw", "type").loc
        name = self.expect("ident").text
        self.expect("op", "=")
        if self.at("punct", "{"):
            raise ParseError("record types are not supported",
                             self.peek().loc, kind="unsupported")
        if self.at("punct", "|") or self.at("uident"):
            variants = []
            if self.at("punct", "|"):
                self.next()
            while True:
                ctor = self.expect("uident").text
                fields = []
                if self.at("kw", "of"):
                    self.next()
                    fields.append(self.parse_ty_app())
                    while self.at("op", "*"):
                        self.next()
                        fields.append(self.parse_ty_app())
                variants.append((ctor, fields))
                if self.at("punct", "|"):
                    self.next()
                else:
                    break
            return TypeDecl(name, variants=variants, loc=loc)
        return TypeDecl(name, alias=self.parse_ty(), loc=loc)

    # -- definitions -------------------------------------------------------

    def parse_params(self) -> list:
        params = []
        while self.at("punct", "("):
            if self.at("punct", ")", 1):
                loc = self.next().loc
                self.next()
                params.append(("()", UNIT))
                continue
            if not (self.at("ident", k=1) and self.at("op", ":", 2)):
                break  # a parenthesized body, not a parameter
            self.next()
            name = self.expect("ident").text
            self.expect("op", ":")
            ty = self.parse_ty()
            self.expect("punct", ")")
            params.append((name, ty))
        return params

    def parse_letdef(self, toplevel: bool) -> LetDef:
        loc = self.expect("kw", "let").loc
        is_rec = False
        if self.at("kw", "rec"):
            self.next()
            is_rec = True
        name = self.expect("ident").text
        params = self.parse_params()
        ret = None
        if self.at("op", ":"):
            self.next()
            ret = self.parse_ty()
        self.expect("op", "=")
        body = self.parse_expr()
        return LetDef(is_rec, name, params, ret, body, loc=loc)

    # -- expressions -------------------------------------------------------

    def parse_expr(self):
        e = self.parse_expr_noseq()
        if self.at("op", ";"):
            loc = self.next().loc
            return Seq(e, self.parse_expr(), loc=loc)
        return e

    def parse_expr_noseq(self):
        t = self.peek()
        if t.kind == "kw" and t.text == "let":
            self.next()
            is_rec = False
            if self.at("kw", "rec"):
                self.next()
                is_rec = True
            name = self.expect("ident").text
            params = self.parse_params()
            ret = None
            if self.at("op", ":"):
                self.next()
                ret = self.parse_ty()
            self.expect("op", "=")
            value = self.parse_expr_noseq()
            self.expect("kw", "in")
            body = self.parse_expr_noseq()
            return LetIn(LetDef(is_rec, name, params, ret, value, loc=t.loc),
                         body, loc=t.loc)
        if t.kind == "kw" and t.text == "if":
            self.next()
            cond = self.parse_expr_noseq()
            self.expect("kw", "then")
            then = self.parse_expr_noseq()
            self.expect("kw", "else")
            els = self.parse_expr_noseq()
            return If(cond, then, els, loc=t.loc)
        if t.kind == "kw" and t.text == "match":
            return self.parse_match()
        if t.kind == "kw" and t.text == "fun":
            return self.parse_lambda()
        return self.parse_or()

    def parse_match(self):
        loc = self.expect("kw", "match").loc
        scrut = self.parse_expr_noseq()
        self.expect("kw", "with")
        arms = []
        if self.at("punct", "|"):
            self.next()
        while True:
            pat = self.parse_pattern()
            self.expect("op", "->")
            body = self.parse_expr_noseq()
            arms.append((pat, body))
            if self.at("punct", "|"):
                self.next()
            else:
                break
        if self.at("kw", "end"):
            self.next()
        return Match(scrut, arms, loc=loc)

    def parse_lambda(self):
        loc = self.expect("kw", "fun").loc
        spec = None
        if self.at("attropen"):
            self.next()
            spec = self.parse_spec_clauses(end="attrclose")
            self.expect("attrclose")
        params = self.parse_params()
        if not params:
            self.fail("lambda parameters must be annotated, e.g. (x : int)")
        self.expect("op", ":")
        # the `->` separating annotation from body means an arrow-typed
        # return annotation must be parenthesized
        ret = self.parse_ty_prod()
        self.expect("op", "->")
        body = self.parse_expr_noseq()
        return Lambda(spec, params, ret, body, loc=loc)

    def parse_or(self):
        e = self.parse_and()
        while self.at("op", "||"):
            loc = self.next().loc
            e = BinOp("||", e, self.parse_and(), loc=loc)
        return e

    def parse_and(self):
        e = self.parse_cmp()
        while self.at("op", "&&"):
            loc = self.next().loc
            e = BinOp("&&", e, self.parse_cmp(), loc=loc)
        return e

    def parse_cmp(self):
        e = self.parse_cons()
        if self.peek().kind == "op" and self.peek().text in ("=", "<", "<=", ">", ">="):
            op = self.next()
            return BinOp(op.text, e, self.parse_cons(), loc=op.loc)
        return e

    def parse_cons(self):
        e = self.parse_add()
        if self.at("op", "::"):
            loc = self.next().loc
            return Cons(e, self.parse_cons(), loc=loc)
        return e

    def parse_add(self):
        e = self.parse_mul()
        while self.peek().kind == "op" and self.peek().text in ("+", "-"):
            op = self.next()
            e = BinOp(op.text, e, self.parse_mul(), loc=op.loc)
        return e

    def parse_mul(self):
        e = self.parse_app()
        while self.peek().kind == "op" and self.peek().text in ("*", "/"):
            op = self.next()
            e = BinOp(op.text, e, self.parse_app(), loc=op.loc)
        return e

    def _at_atom(self):
        t = self.peek()
        return (t.kind,) in ATOM_START or (t.kind, t.text) in ATOM_START

    def parse_app(self):
        t = self.peek()
        if t.kind == "uident":
            self.next()
            args = []
            if self._at_atom():
                # a parenthesized tuple supplies the constructor's arguments
                arg = self.parse_atom()
                args = arg.items if isinstance(arg, TupleE) else [arg]
            e = ConstructorApp(t.text, args, loc=t.loc)
        else:
            e = self.parse_atom()
        while self._at_atom():
            arg = self.parse_atom()
            e = App(e, arg, loc=arg.loc)
        return e

    def parse_atom(self):
        t = self.peek()
        if t.kind == "int":
            self.next()
            return IntLit(int(t.text), loc=t.loc)
        if t.kind == "kw" and t.text in ("true", "false"):
            self.next()
            return BoolLit(t.text == "true", loc=t.loc)
        if t.kind == "ident":
            self.next()
            return Var(t.text, loc=t.loc)
        if t.kind == "uident":
            self.next()
            return ConstructorApp(t.text, [], loc=t.loc)
        if t.kind == "punct" and t.text == "[":
            self.next()
            if self.at("punct", "]"):
                self.next()
                return NilLit(loc=t.loc)
            items = [self.parse_expr_noseq()]
            while self.at("op", ";"):
                self.next()
                items.append(self.parse_expr_noseq())
            self.expect("punct", "]")
            out = NilLit(loc=t.loc)
            for item in reversed(items):
                out = Cons(item, out, loc=t.loc)
            return out
        if t.kind == "punct" and t.text == "(":
            self.next()
            if self.at("punct", ")"):
                self.next()
                return UnitLit(loc=t.loc)
            e = self.parse_expr_noseq()
            if self.at("punct", ","):
                items = [e]
                while self.at("punct", ","):
                    self.next()
                    items.append(self.parse_expr_noseq())
                self.expect("punct", ")")
                return TupleE(items, loc=t.loc)
            self.expect("punct", ")")
            return e
        if t.kind == "op" and t.text == "-" and self.at("int", k=1):
            self.next()
            lit = self.next()
            return IntLit(-int(lit.text), loc=t.loc)
        self.fail("expected an expression")

    # -- patterns ----------------------------------------------------------

    def parse_pattern(self):
        p = self.parse_pattern_atom()
        if self.at("op", "::"):
            loc = self.next().loc
            return PCons(p, self.parse_pattern(), loc=loc)
        return p

    def parse_pattern_atom(self):
        t = self.peek()
        if t.kind == "punct" and t.text == "_":
            self.next()
            return PWild(loc=t.loc)
        if t.kind == "int":
            self.next()
            return PInt(int(t.text), loc=t.loc)
        if t.kind == "op" and t.text == "-" and self.at("int", k=1):
            self.next()
            lit = self.next()
            return PInt(-int(lit.text), loc=t.loc)
        if t.kind == "ident":
            self.next()
            return PVar(t.text, loc=t.loc)
        if t.kind == "uident":
            self.next()
            args = []
            if self._pattern_atom_start():
                arg = self.parse_pattern_atom()
                args = arg.items if isinstance(arg, PTuple) else [arg]
            return PConstr(t.text, args, loc=t.loc)
        if t.kind == "punct" and t.text == "[":
            self.next()
            self.expect("punct", "]")
            return PNil(loc=t.loc)
        if t.kind == "punct" and t.text == "(":
            self.next()
            p = self.parse_pattern()
            if self.at("op", ":"):
                self.next()
                ty = self.parse_ty()
                if isinstance(p, PVar):
                    p.ty = ty
                else:
                    raise ParseError("type ascription only allowed on variables",
                                     t.loc)
            if self.at("punct", ","):
                items = [p]
                while self.at("punct", ","):
                    self.next()
                    q = self.parse_pattern()
                    if self.at("op", ":"):
                        self.next()
                        ty = self.parse_ty()
                        if isinstance(q, PVar):
                            q.ty = ty
                        else:
                            raise ParseError(
                                "type ascription only allowed on variables", t.loc)
                    items.append(q)
                self.expect("punct", ")")
                return PTuple(items, loc=t.loc)
            self.expect("punct", ")")
            return p
        self.fail("expected a pattern")

    def _pattern_atom_start(self):
        t = self.peek()
        return (t.kind in ("int", "ident", "uident")
                or (t.kind == "punct" and t.text in ("_", "(", "[")))

    # -- types -------------------------------------------------------------

    def parse_ty(self):
        t = self.parse_ty_prod()
        if self.at("op", "->"):
            self.next()
            return TArrow(t, self.parse_ty())
        return t

    def parse_ty_prod(self):
        t = self.parse_ty_app()
        if self.at("op", "*"):
            items = [t]
            while self.at("op", "*"):
                self.next()
                items.append(self.parse_ty_app())
            return TTuple(tuple(items))
        return t

    def parse_ty_app(self):
        t = self.parse_ty_atom()
        while self.at("ident"):
            name = self.next().text
            t = TNamed(name, (t,))
        return t

    def parse_ty_atom(self):
        t = self.peek()
        if t.kind == "ident":
            self.next()
            if t.text in ("int", "integer"):
                return INT
            if t.text == "bool":
                return BOOL
            if t.text == "unit":
                return UNIT
            return TNamed(t.text)
        if t.kind == "punct" and t.text == "(":
            self.next()
            if self.at("punct", ")"):
                self.next()
                return UNIT
            ty = self.parse_ty()
            self.expect("punct", ")")
            return ty
        self.fail("expected a type")

    # -- formulas ----------------------------------------------------------

    def parse_formula(self):
        if self.at("kw", "forall"):
            return self.parse_forall()
        return self.parse_implies()

    def parse_forall(self):
        loc = self.expect("kw", "forall").loc
        binders = []
        while True:
            names = [self.expect("ident").text]
            while self.at("ident"):
                names.append(self.next().text)
            ty = None
            if self.at("op", ":"):
                self.next()
                ty = self.parse_ty()
            binders.extend((n, ty) for n in names)
            if self.at("punct", ","):
                self.next()
            else:
                break
        self.expect("punct", ".")
        return Forall(binders, self.parse_formula(), loc=loc)

    def parse_implies(self):
        f = self.parse_for()
        if self.at("op", "->"):
            loc = self.next().loc
            return FBinOp("->", f, self.parse_formula(), loc=loc)
        return f

    def parse_for(self):
        f = self.parse_fand()
        while self.peek().kind == "op" and self.peek().text in ("||", "\\/"):
            loc = self.next().loc
            f = FBinOp("\\/", f, self.parse_fand(), loc=loc)
        return f

    def parse_fand(self):
        f = self.parse_fnot()
        while self.peek().kind == "op" and self.peek().text in ("&&", "/\\"):
            loc = self.next().loc
            f = FBinOp("/\\", f, self.parse_fnot(), loc=loc)
        return f

    def parse_fnot(self):
        if self.at("kw", "not"):
            loc = self.next().loc
            return Not(self.parse_fnot(), loc=loc)
        if self.at("kw", "forall"):
            return self.parse_forall()
        return self.parse_fcmp()

    def parse_fcmp(self):
        if self.at("ident", "post"):
            return self.parse_post()
        t = self.parse_fterm()
        op = self.peek()
        if op.kind == "op" and op.text in ("=", "<", "<=", ">", ">="):
            self.next()
            return formula_of_binop(op.text, t, self.parse_fterm(), op.loc)
        if isinstance(t, FBool):
            return TrueP(loc=op.loc) if t.value else Not(TrueP(), loc=op.loc)
        return t

    def parse_post(self):
        loc = self.expect("ident", "post").loc
        if not self.at("punct", "("):
            raise ParseError(
                "post requires a parenthesized type ascription on its function",
                self.peek().loc)
        self.expect("punct", "(")
        fn = self.parse_fterm()
        if not self.at("op", ":"):
            raise ParseError(
                "post requires a type ascription on its function argument",
                self.peek().loc)
        self.next()
        ty = self.parse_ty()
        self.expect("punct", ")")
        if not isinstance(ty, TArrow):
            raise ParseError("post ascription must be an arrow type", loc)
        atoms = []
        while self._formula_atom_start():
            atoms.append(self.parse_fatom())
        if len(atoms) < 2:
            raise ParseError("post needs at least one argument and a result", loc)
        return PostMeta(fn, ty, atoms[:-1], atoms[-1], loc=loc)

    def _formula_atom_start(self):
        t = self.peek()
        return (t.kind in ("int", "ident", "uident")
                or (t.kind == "kw" and t.text in ("true", "false"))
                or (t.kind == "punct" and t.text == "("))

    def parse_fterm(self):
        f = self.parse_fmul()
        while self.peek().kind == "op" and self.peek().text in ("+", "-"):
            op = self.next()
            f = FBinOp(op.text, f, self.parse_fmul(), loc=op.loc)
        return f

    def parse_fmul(self):
        f = self.parse_fapp()
        while self.peek().kind == "op" and self.peek().text in ("*", "/"):
            op = self.next()
            f = FBinOp(op.text, f, self.parse_fapp(), loc=op.loc)
        return f

    def parse_fapp(self):
        t = self.peek()
        if t.kind == "ident" and t.text != "post":
            self.next()
            args = []
            while self._formula_atom_start():
                args.append(self.parse_fatom())
            if args:
                return FLogicApp(t.text, args, loc=t.loc)
            return FVar(t.text, loc=t.loc)
        if t.kind == "uident":
            self.next()
            args = []
            while self._formula_atom_start():
                arg = self.parse_fatom()
                if isinstance(arg, FTuple) and not args:
                    args = arg.items
                    break
                args.append(arg)
            return FConstr(t.text, args, loc=t.loc)
        return self.parse_fatom()

    def parse_fatom(self):
        t = self.peek()
        if t.kind == "int":
            self.next()
            return FInt(int(t.text), loc=t.loc)
        if t.kind == "op" and t.text == "-" and self.at("int", k=1):
            self.next()
            lit = self.next()
            return FInt(-int(lit.text), loc=t.loc)
        if t.kind == "kw" and t.text in ("true", "false"):
            self.next()
            return FBool(t.text == "true", loc=t.loc)
        if t.kind == "ident":
            self.next()
            return FVar(t.text, loc=t.loc)
        if t.kind == "uident":
            self.next()
            return FConstr(t.text, [], loc=t.loc)
        if t.kind == "punct" and t.text == "(":
            self.next()
            f = self.parse_formula()
            if self.at("punct", ","):
                items = [f]
                while self.at("punct", ","):
                    self.next()
                    items.append(self.parse_formula())
                self.expect("punct", ")")
                return FTuple(items, loc=t.loc)
            self.expect("punct", ")")
            return f
        self.fail("expected a formula")


# Deepest nesting of AST nodes a program may have.  The passes recurse on
# the tree.  Measured at the default recursion limit of 1000, in Python
# frames per level: the parser takes about 5 per level of nested
# parenthesised arithmetic (it overflows at about 190 levels), the SMT
# renderer about 2.5, the type checker and the interpreter's compiled
# closures, which call each other directly for nested subterms, about 2,
# and VC generation about 1.5.  The interpreter relies on this limit, which
# also leaves most of the stack to the caller.  The deepest input in the
# corpus and benchmark nests 41 levels.  A VC also nests a binder per call
# with a contract and per join, which grows with the width of a definition,
# so SMT emission has a guard of its own.
MAX_DEPTH = 64


def check_depth(program: Program):
    """Reject a program nested deeper than MAX_DEPTH at the leftmost node
    that is too deep."""
    level, loc = [program], None
    for _ in range(MAX_DEPTH + 1):
        level = [c for node in level for c in children(node)]
        if not level:
            return
        loc = next((n.loc for n in level if getattr(n, "loc", None)), loc)
    raise _too_deep(loc)


def _too_deep(loc) -> ParseError:
    return ParseError(f"program nested deeper than {MAX_DEPTH} levels", loc,
                      kind="nesting-too-deep")


def parse_program(source: str) -> Program:
    parser = Parser(tokenize(source))
    try:
        program = parser.parse_program()
    except RecursionError:
        raise _too_deep(parser.peek().loc) from None
    check_depth(program)
    return normalize_program(program)


def parse_formula(source: str):
    p = Parser(tokenize(source))
    f = p.parse_formula()
    p.expect("eof")
    return f


def parse_expr(source: str):
    p = Parser(tokenize(source))
    e = p.parse_expr()
    p.expect("eof")
    return e
