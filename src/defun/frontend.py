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
    App, BinOp, BoolLit, ConstructorApp, ExprStmt, Forall, If, IntLit,
    LemmaDecl, LetDef, LetIn, Lambda, LogicalDecl, Match, Not, PConstr, PInt,
    PTuple, PVar, PWild, PostMeta, Program, Seq, Spec, TArrow, TNamed, TTuple,
    TooDeep, TrueP, TupleE, TypeDecl, UnitLit, Var, children, FORMULA_OP,
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

# One alternative per kind of lexeme, tried in this order after the
# whitespace before it (the recipe "Writing a Tokenizer" of the `re`
# documentation); the lexeme starts at `m.start(kind)`.  Words that start
# with an ASCII letter or `_` and have no prime are classified here; any
# other word is checked in
# `tokenize`: it must start with a letter or `_`, as `[^\W\d]` also
# admits non-decimal digits such as `²`.  Integer literals are what `int`
# reads (`\d` is `str.isdecimal`).
SPACE = "[ \t\r\n]*"  # no lexeme starts with whitespace
MASTER = re.compile(SPACE + "(?:" + "|".join([
    r"(?P<ident>[a-z_]\w*(?![\w']))",  # or a keyword, or `_`
    r"(?P<uident>[A-Z]\w*(?![\w']))",
    r"(?P<word>[^\W\d][\w']*)",
    r"(?P<int>\d+)",
    r"(?P<specopen>\(\*@)",
    r"(?P<comment>\(\*)",
    r"(?P<specclose>\*\))",
    r"(?P<attropen>\[@gospel[ \t\r\n]*\{\|)",
    r"(?P<badattr>\[@gospel)",
    r"(?P<attrclose>\|\}\])",
    "(?P<op>" + "|".join(map(re.escape, OPERATORS)) + ")",
    "(?P<punct>" + "|".join(map(re.escape, PUNCT)) + ")",
]) + ")")
TRAILING = re.compile(SPACE)
COMMENT_DELIM = re.compile(r"\(\*|\*\)")
WORD_KIND = dict.fromkeys(KEYWORDS, "kw") | {"_": "punct"}
PLAIN = frozenset({"uident", "op", "punct", "attrclose"})


@dataclass(slots=True)
class Token:
    """A lexeme and its position.  Its `Loc` is made on demand, as about two
    tokens in three never become a node or an error."""

    kind: str  # kw ident uident int op punct specopen specclose attropen attrclose eof
    text: str
    line: int
    col: int

    @property
    def loc(self) -> Loc:
        return Loc(self.line, self.col)

    def __repr__(self):
        return f"{self.kind}:{self.text!r}@{self.line}:{self.col}"


def tokenize(source: str) -> list[Token]:
    toks: list[Token] = []
    append, match, find = toks.append, MASTER.match, source.find
    i, n = 0, len(source)  # the next lexeme is matched from `i`
    # The current line, the offset where it begins and the offset of its
    # newline (or `n`); newlines in whitespace, comments and `[@gospel {|`
    # are counted when the next lexeme starts beyond them.
    line, bol, eol = 1, 0, find("\n") % (n + 1)
    digit_limit = sys.get_int_max_str_digits()  # 0: no limit
    in_spec = False
    while m := match(source, i):
        kind = m.lastgroup
        start, i = m.span(kind)
        if start > eol:
            line += source.count("\n", eol, start)
            bol = source.rindex("\n", eol, start) + 1
            eol = find("\n", start) % (n + 1)
        text, col = m[kind], start - bol + 1
        if kind == "ident":
            kind = WORD_KIND.get(text, kind)
        elif kind in PLAIN:  # nothing to check
            pass
        elif kind == "word":
            c = text[0]
            if not (c.isalpha() or c == "_"):
                raise LexError(f"illegal character {c!r}", Loc(line, col))
            if "'" in text:
                raise LexError(f"type variables are not supported: {text!r}",
                               Loc(line, col))
            kind = WORD_KIND.get(text) or ("uident" if c.isupper()
                                           else "ident")
        elif kind == "comment":  # nested comments allowed
            depth = 1
            while depth:
                d = COMMENT_DELIM.search(source, i)
                if d is None:
                    raise LexError("unterminated comment",
                                   Loc(line, col + 2))
                depth += 1 if d.group() == "(*" else -1
                i = d.end()
            continue
        elif kind == "int":
            if digit_limit and i - start > digit_limit:
                # `int` could not convert it
                raise LexError(f"integer literal of {i - start} digits "
                               f"exceeds the limit of {digit_limit}",
                               Loc(line, col))
        elif kind == "attropen":
            text = "[@gospel {|"
        elif kind == "specopen":
            in_spec = True
        elif kind == "specclose":
            if not in_spec:
                raise LexError("unmatched comment terminator", Loc(line, col))
            in_spec = False
        elif kind == "badattr":
            raise LexError("malformed gospel attribute", Loc(line, col))
        append(Token(kind, text, line, col))
    end = TRAILING.match(source, i).end()
    if end > eol:
        line += source.count("\n", eol, end)
        bol = source.rindex("\n", eol, end) + 1
    if end < n:
        raise LexError(f"illegal character {source[end]!r}",
                       Loc(line, end - bol + 1))
    if in_spec:
        raise LexError("unterminated specification comment",
                       Loc(line, n - bol + 1))
    append(Token("eof", "", line, n - bol + 1))
    return toks


ATOM_KINDS = {"int", "ident", "uident"}
ATOM_TEXTS = {"(", "[", "true", "false"}


def _binop(t: Token, left, right):
    return BinOp(t.text, left, right, loc=t.loc)


def _cons(t: Token, left, right):
    return ConstructorApp("Cons", [left, right], loc=t.loc)


def _fbinop(t: Token, left, right):
    op = FORMULA_OP.get(t.text, (t.text, False))[0]  # `&&` is `/\`, ...
    return BinOp(op, left, right, loc=t.loc)


def _table(*levels) -> dict:
    """Binary operators for `Parser.climb`, from levels loosest first, each
    an associativity, the maker of its nodes and its operators.  Each
    operator maps to its precedence, the least precedence of an operator
    in its right operand, that of the loosest operator that may follow it,
    and its maker: a comparison does not associate, so `a < b < c` stops
    before the second `<`."""
    table = {}
    for prec, (assoc, make, *ops) in enumerate(levels, 1):
        entry = (prec, prec + (assoc != "right"), prec - (assoc == "none"),
                 make)
        table.update(dict.fromkeys(ops, entry))
    return table


BINARY = _table(
    ("left", _binop, "||"), ("left", _binop, "&&"),
    ("none", _binop, "=", "<", "<=", ">", ">="), ("right", _cons, "::"),
    ("left", _binop, "+", "-"), ("left", _binop, "*", "/"))
FORMULA_LOGIC = _table(
    ("right", _fbinop, "->"), ("left", _fbinop, "||", "\\/"),
    ("left", _fbinop, "&&", "/\\"))
FORMULA_ARITH = _table(("left", _fbinop, "+", "-"),
                       ("left", _fbinop, "*", "/"))


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

    def separated(self, parse_item, kind, text) -> list:
        """One or more items separated by the token `kind` `text`."""
        items = [parse_item()]
        while self.at(kind, text):
            self.next()
            items.append(parse_item())
        return items

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
                prog.items.append(self.parse_letdef(self.parse_expr))
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
            spec.result_names = self.separated(
                lambda: self.expect("ident").text, "punct", ",")
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
            if self.at("punct", "|"):
                self.next()
            variants = self.separated(self.parse_variant, "punct", "|")
            return TypeDecl(name, variants=variants, loc=loc)
        return TypeDecl(name, alias=self.parse_ty(), loc=loc)

    def parse_variant(self):
        ctor = self.expect("uident").text
        if not self.at("kw", "of"):
            return ctor, []
        self.next()
        return ctor, self.separated(self.parse_ty_app, "op", "*")

    # -- definitions -------------------------------------------------------

    def parse_params(self) -> list:
        params = []
        while self.at("punct", "("):
            if self.at("punct", ")", 1):
                self.next()
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

    def parse_letdef(self, parse_value) -> LetDef:
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
        return LetDef(is_rec, name, params, ret, parse_value(), loc=loc)

    # -- expressions -------------------------------------------------------

    def parse_expr(self):
        e = self.parse_expr_noseq()
        if self.at("op", ";"):
            loc = self.next().loc
            return Seq(e, self.parse_expr(), loc=loc)
        return e

    def parse_expr_noseq(self):
        t = self.toks[self.pos]
        if t.kind == "kw" and t.text == "let":
            defn = self.parse_letdef(self.parse_expr_noseq)
            self.expect("kw", "in")
            return LetIn(defn, self.parse_expr_noseq(), loc=t.loc)
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
        return self.climb(BINARY, self.parse_app)

    def parse_match(self):
        loc = self.expect("kw", "match").loc
        scrut = self.parse_expr_noseq()
        self.expect("kw", "with")
        if self.at("punct", "|"):
            self.next()
        arms = self.separated(self.parse_arm, "punct", "|")
        if self.at("kw", "end"):
            self.next()
        return Match(scrut, arms, loc=loc)

    def parse_arm(self):
        pat = self.parse_pattern()
        self.expect("op", "->")
        return pat, self.parse_expr_noseq()

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

    def climb(self, table, operand, min_prec=1):
        """The operators of `table` of precedence `min_prec` and tighter
        over `operand`s, by precedence climbing (Pratt, POPL 1973)."""
        e = operand()
        last = len(table)  # above every precedence: any operator may follow
        while True:
            t = self.toks[self.pos]
            op = table.get(t.text)
            if op is None or not min_prec <= op[0] <= last:
                return e
            self.pos += 1
            _, right_prec, last, make = op
            e = make(t, e, self.climb(table, operand, right_prec))

    def _at_atom(self):
        t = self.toks[self.pos]
        return t.kind in ATOM_KINDS or t.text in ATOM_TEXTS

    def parse_app(self):
        t = self.toks[self.pos]
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
        t = self.toks[self.pos]
        if t.kind == "ident":
            self.pos += 1
            return Var(t.text, loc=t.loc)
        if t.kind == "int":
            self.pos += 1
            return IntLit(int(t.text), loc=t.loc)
        if t.kind == "kw" and t.text in ("true", "false"):
            self.next()
            return BoolLit(t.text == "true", loc=t.loc)
        if t.kind == "uident":
            self.next()
            return ConstructorApp(t.text, [], loc=t.loc)
        if t.kind == "punct" and t.text == "[":
            self.next()
            items = []
            if not self.at("punct", "]"):
                items = self.separated(self.parse_expr_noseq, "op", ";")
            self.expect("punct", "]")
            out = ConstructorApp("Nil", [], loc=t.loc)
            for item in reversed(items):
                out = ConstructorApp("Cons", [item, out], loc=t.loc)
            return out
        if t.kind == "punct" and t.text == "(":
            self.next()
            if self.at("punct", ")"):
                self.next()
                return UnitLit(loc=t.loc)
            items = [self.parse_expr_noseq()]  # one frame less per level
            while self.at("punct", ","):
                self.next()
                items.append(self.parse_expr_noseq())
            self.expect("punct", ")")
            return TupleE(items, loc=t.loc) if len(items) > 1 else items[0]
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
            return PConstr("Cons", [p, self.parse_pattern()], loc=loc)
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
            return PConstr("Nil", [], loc=t.loc)
        if t.kind == "punct" and t.text == "(":
            self.next()
            items = self.separated(lambda: self.parse_ascribed(t.loc),
                                   "punct", ",")
            self.expect("punct", ")")
            return PTuple(items, loc=t.loc) if len(items) > 1 else items[0]
        self.fail("expected a pattern")

    def parse_ascribed(self, paren: Loc):
        """A pattern in parentheses; a variable may carry a type."""
        p = self.parse_pattern()
        if self.at("op", ":"):
            self.next()
            ty = self.parse_ty()
            if not isinstance(p, PVar):
                raise ParseError("type ascription only allowed on variables",
                                 paren)
            p.ty = ty
        return p

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
        items = self.separated(self.parse_ty_app, "op", "*")
        return TTuple(tuple(items)) if len(items) > 1 else items[0]

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
        return self.climb(FORMULA_LOGIC, self.parse_fnot)

    def parse_forall(self):
        loc = self.expect("kw", "forall").loc
        groups = self.separated(self.parse_binders, "punct", ",")
        self.expect("punct", ".")
        return Forall([b for group in groups for b in group],
                      self.parse_formula(), loc=loc)

    def parse_binders(self):
        """Names that share a type annotation, if any, in a `forall`."""
        names = [self.expect("ident").text]
        while self.at("ident"):
            names.append(self.next().text)
        ty = None
        if self.at("op", ":"):
            self.next()
            ty = self.parse_ty()
        return [(n, ty) for n in names]

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
        if type(t) is BoolLit:
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
        return self.climb(FORMULA_ARITH, self.parse_fapp)

    def parse_fapp(self):
        t = self.peek()
        if t.kind == "ident" and t.text != "post":
            self.next()
            e = Var(t.text, loc=t.loc)
            while self._formula_atom_start():
                arg = self.parse_fatom()
                e = App(e, arg, loc=arg.loc)
            return e
        if t.kind == "uident":
            self.next()
            args = []
            while self._formula_atom_start():
                arg = self.parse_fatom()
                if type(arg) is TupleE and not args:
                    args = arg.items
                    break
                args.append(arg)
            return ConstructorApp(t.text, args, loc=t.loc)
        return self.parse_fatom()

    def parse_fatom(self):
        t = self.peek()
        if t.kind == "int":
            self.next()
            return IntLit(int(t.text), loc=t.loc)
        if t.kind == "op" and t.text == "-" and self.at("int", k=1):
            self.next()
            lit = self.next()
            return IntLit(-int(lit.text), loc=t.loc)
        if t.kind == "kw" and t.text in ("true", "false"):
            self.next()
            return BoolLit(t.text == "true", loc=t.loc)
        if t.kind == "ident":
            self.next()
            return Var(t.text, loc=t.loc)
        if t.kind == "uident":
            self.next()
            return ConstructorApp(t.text, [], loc=t.loc)
        if t.kind == "punct" and t.text == "(":
            self.next()
            items = self.separated(self.parse_formula, "punct", ",")
            self.expect("punct", ")")
            return TupleE(items, loc=t.loc) if len(items) > 1 else items[0]
        self.fail("expected a formula")


# Deepest nesting of AST nodes a program may have.  The passes recurse on
# the tree.  Measured at the default recursion limit of 1000, in Python
# frames per level: the parser takes 4 per level of nested parentheses and
# 5 per level of right-nested arithmetic (from a shallow stack it overflows
# at about 247 and 197 levels), the SMT renderer about 2.5, the type
# checker and the interpreter's compiled closures, which call each other
# directly for nested subterms, about 2, and VC generation about 1.5.  The
# interpreter relies on this limit, which also leaves most of the stack to
# the caller.  The deepest input in the corpus and benchmark nests 41
# levels.  A VC also nests a binder per call with a contract and per join,
# which grows with the width of a definition, so SMT emission has a guard
# of its own.
MAX_DEPTH = 64


def _deepest_loc(program: Program):
    """Where a program nested deeper than MAX_DEPTH is reported: at the
    leftmost located node MAX_DEPTH + 1 levels down, or failing one there,
    on the deepest level above that has one."""
    level, loc = [program], None
    for _ in range(MAX_DEPTH + 1):
        level = [c for node in level for c in children(node)]
        loc = next((n.loc for n in level if getattr(n, "loc", None)), loc)
    return loc


def _too_deep(loc) -> ParseError:
    return ParseError(f"program nested deeper than {MAX_DEPTH} levels", loc,
                      kind="nesting-too-deep")


def _parse_all(tokens: list[Token], parse):
    """`parse(parser)` over all of `tokens`; running out of Python stack is
    reported as nesting too deep, at the token the parser had reached."""
    parser = Parser(tokens)
    try:
        result = parse(parser)
        parser.expect("eof")
    except RecursionError:
        raise _too_deep(parser.peek().loc) from None
    return result


def parse_program(source: str) -> Program:
    tokens = tokenize(source)
    program = _parse_all(tokens, Parser.parse_program)
    # the identifiers of the source and the constructors of list sugar
    program.names = {t.text for t in tokens
                     if t.kind == "ident" or t.kind == "uident"}
    program.names.update(("Nil", "Cons"))
    try:
        return normalize_program(program, MAX_DEPTH)
    except TooDeep:
        # normalization has changed the tree in place: locate the fault on
        # a fresh one
        loc = _deepest_loc(Parser(tokens).parse_program())
        raise _too_deep(loc) from None


def parse_formula(source: str):
    return _parse_all(tokenize(source), Parser.parse_formula)


def parse_expr(source: str):
    return _parse_all(tokenize(source), Parser.parse_expr)
