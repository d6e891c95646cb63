"""Core AST: types, patterns, terms, specs and programs.

Code and specifications share one term language: a formula is built from
the expression nodes, plus the four formula-only nodes `Not`, `Forall`,
`TrueP` and `PostMeta`.  List sugar is not a node either: `[]`, `h :: t`
and `[a; b]` are the builtin constructors `Nil` and `Cons`, in
expressions and in patterns.

All nodes are plain dataclasses.  Structural equality deliberately ignores
source locations and resolved types so that round-trip tests can compare
freshly parsed trees against transformed ones.
"""

from __future__ import annotations

import operator
import sys
from dataclasses import dataclass, field, fields, replace
from typing import Optional, Union

from .errors import Loc

# ---------------------------------------------------------------------------
# Types


class Ty:
    pass


@dataclass(frozen=True)
class TUnit(Ty):
    def __str__(self):
        return "unit"


@dataclass(frozen=True)
class TInt(Ty):
    def __str__(self):
        return "int"


@dataclass(frozen=True)
class TBool(Ty):
    def __str__(self):
        return "bool"


@dataclass(frozen=True)
class TNamed(Ty):
    name: str
    args: tuple = ()

    def __str__(self):
        if not self.args:
            return self.name
        return " ".join(str(a) for a in self.args) + " " + self.name


@dataclass(frozen=True)
class TArrow(Ty):
    param: Ty
    result: Ty

    def __str__(self):
        p = str(self.param)
        if isinstance(self.param, TArrow):
            p = f"({p})"
        return f"{p} -> {self.result}"


@dataclass(frozen=True)
class TTuple(Ty):
    items: tuple

    def __str__(self):
        return " * ".join(
            f"({t})" if isinstance(t, (TArrow, TTuple)) else str(t) for t in self.items
        )


INT = TInt()
BOOL = TBool()
UNIT = TUnit()


def int_list() -> Ty:
    return TNamed("list", (INT,))


def int_tree() -> Ty:
    return TNamed("tree", (INT,))


def arrow(*tys: Ty) -> Ty:
    """Right-nested arrow from a flat argument/result list."""
    res = tys[-1]
    for t in reversed(tys[:-1]):
        res = TArrow(t, res)
    return res


def contains_arrow(ty: Ty) -> bool:
    return any(type(t) is TArrow for t in walk(ty))


# ---------------------------------------------------------------------------
# Patterns


class Pattern:
    pass


def _meta():
    return field(default=None, compare=False, repr=False)


@dataclass
class PWild(Pattern):
    loc: Optional[Loc] = _meta()


@dataclass
class PVar(Pattern):
    name: str
    ty: Optional[Ty] = None
    loc: Optional[Loc] = _meta()


@dataclass
class PInt(Pattern):
    value: int
    loc: Optional[Loc] = _meta()


@dataclass
class PConstr(Pattern):
    name: str
    args: list
    loc: Optional[Loc] = _meta()


@dataclass
class PTuple(Pattern):
    items: list
    loc: Optional[Loc] = _meta()


# ---------------------------------------------------------------------------
# Specs


@dataclass
class Spec:
    result_names: list = field(default_factory=list)
    arg_names: list = field(default_factory=list)
    requires: list = field(default_factory=list)
    ensures: list = field(default_factory=list)
    loc: Optional[Loc] = _meta()

    def is_empty(self):
        return not (self.result_names or self.arg_names or self.requires or self.ensures)


# ---------------------------------------------------------------------------
# Expressions


class Expr:
    pass


@dataclass
class UnitLit(Expr):
    ty: Optional[Ty] = _meta()
    loc: Optional[Loc] = _meta()


@dataclass
class Var(Expr):
    name: str
    ty: Optional[Ty] = _meta()
    loc: Optional[Loc] = _meta()


@dataclass
class IntLit(Expr):
    value: int
    ty: Optional[Ty] = _meta()
    loc: Optional[Loc] = _meta()


@dataclass
class BoolLit(Expr):
    value: bool
    ty: Optional[Ty] = _meta()
    loc: Optional[Loc] = _meta()


@dataclass
class ConstructorApp(Expr):
    name: str
    args: list
    ty: Optional[Ty] = _meta()
    loc: Optional[Loc] = _meta()


@dataclass
class TupleE(Expr):
    items: list
    ty: Optional[Ty] = _meta()
    loc: Optional[Loc] = _meta()


@dataclass
class BinOp(Expr):
    op: str
    left: Expr
    right: Expr
    ty: Optional[Ty] = _meta()
    loc: Optional[Loc] = _meta()


@dataclass
class Seq(Expr):
    first: Expr
    second: Expr
    ty: Optional[Ty] = _meta()
    loc: Optional[Loc] = _meta()


@dataclass
class LetDef:
    """A `let` definition, either top-level or the head of a let-in."""

    is_rec: bool
    name: str
    params: list  # (name, Ty)
    ret: Optional[Ty]
    body: Expr
    spec: Optional[Spec] = None
    loc: Optional[Loc] = _meta()

    def arrow_ty(self) -> Ty:
        tys = [t for _, t in self.params] + [self.ret]
        return arrow(*tys)


@dataclass
class LetIn(Expr):
    defn: LetDef
    body: Expr
    ty: Optional[Ty] = _meta()
    loc: Optional[Loc] = _meta()


@dataclass
class Match(Expr):
    scrutinee: Expr
    arms: list  # (Pattern, Expr)
    absurd: bool = False  # generated wildcard-absurd arm present
    ty: Optional[Ty] = _meta()
    loc: Optional[Loc] = _meta()


@dataclass
class Absurd(Expr):
    """Body of a generated unreachable match arm."""

    ty: Optional[Ty] = _meta()
    loc: Optional[Loc] = _meta()


@dataclass
class If(Expr):
    cond: Expr
    then: Expr
    els: Expr
    ty: Optional[Ty] = _meta()
    loc: Optional[Loc] = _meta()


@dataclass
class Lambda(Expr):
    spec: Optional[Spec]
    params: list  # (name, Ty)
    ret: Ty
    body: Expr
    # earlier parameters of the surface lambda this one was split from,
    # in declaration order; drives capture ordering
    chain: list = field(default_factory=list, compare=False, repr=False)
    ty: Optional[Ty] = _meta()
    loc: Optional[Loc] = _meta()


@dataclass
class App(Expr):
    fn: Expr
    arg: Expr
    ty: Optional[Ty] = _meta()
    loc: Optional[Loc] = _meta()


def call(name: str, args, loc=None) -> Expr:
    """`name a1 ... an` as a spine of `App` nodes."""
    out = Var(name, loc=loc)
    for a in args:
        out = App(out, a, loc=loc)
    return out


def spine(e: Expr) -> tuple[Expr, list]:
    """The head of an application spine and its arguments, in order."""
    args = []
    while type(e) is App:
        args.append(e.arg)
        e = e.fn
    args.reverse()
    return e, args


# ---------------------------------------------------------------------------
# Formulas
#
# A formula is built from the expression nodes: a logical call is an `App`
# spine headed by a `Var`, and `/\`, `\/` and `->` are `BinOp` spellings.
# A relation `= < <=` stands as a proposition in a spec clause, a lemma or
# a post arm, and as an operand of a connective, `not` or `forall`; the
# WhyML writer reads that position.  Only the nodes below exist in
# formulas alone.


@dataclass
class Not(Expr):
    body: Expr
    loc: Optional[Loc] = _meta()


@dataclass
class Forall(Expr):
    binders: list  # (name, Ty)
    body: Expr
    loc: Optional[Loc] = _meta()


@dataclass
class TrueP(Expr):
    loc: Optional[Loc] = _meta()


@dataclass
class PostMeta(Expr):
    """`post (f : t) a1 ... an r` before expansion into concrete posts.

    The arrow type must be written out explicitly; it selects the family.
    """

    fn: Expr
    fn_ty: Ty
    args: list
    result: Expr
    loc: Optional[Loc] = _meta()


RELATIONS = frozenset({"=", "<", "<="})
CONNECTIVES = frozenset({"/\\", "\\/", "->"})

FALSE = Not(TrueP())


def conj(fs: list) -> Expr:
    if not fs:
        return TrueP()
    out = fs[0]
    for f in fs[1:]:
        out = BinOp("/\\", out, f)
    return out


# ---------------------------------------------------------------------------
# Top-level items and programs


@dataclass
class TypeDecl:
    name: str
    variants: Optional[list] = None  # (ctor, [field Ty])
    alias: Optional[Ty] = None
    loc: Optional[Loc] = _meta()


@dataclass
class LemmaDecl:
    name: str
    formula: Expr
    loc: Optional[Loc] = _meta()


@dataclass
class ExprStmt:
    expr: Expr
    loc: Optional[Loc] = _meta()


TopLevel = Union[TypeDecl, LetDef, LemmaDecl, ExprStmt]


@dataclass
class LogicalDecl:
    """Prelude signature of a logical function/predicate, optionally defined.

    A declaration without a body is uninterpreted; with a body it is a pure
    recursive definition written in the expression language.
    """

    name: str
    params: list  # (name, Ty)
    ret: Ty  # TBool for predicates
    body: Optional[Expr] = None
    is_predicate: bool = False
    loc: Optional[Loc] = _meta()


@dataclass
class Program:
    prelude: list = field(default_factory=list)  # LogicalDecl
    items: list = field(default_factory=list)  # TopLevel
    # every name of the program, which generated names avoid: filled by
    # `frontend.parse_program`, and `Checker.check_program` adds its types
    names: set = field(default_factory=set, compare=False, repr=False)


# ---------------------------------------------------------------------------
# Generic traversal
#
# The structure of a node is the set of its dataclass fields that take part
# in equality; `ty`, `loc` and `Lambda.chain` are metadata.  List and tuple
# fields such as `params`, `arms` and `binders` are flattened, and strings,
# numbers, booleans and None are leaves.

_LEAVES = frozenset({str, int, bool, type(None)})


class _Structure(dict):
    """Node class -> names of its structural fields, computed once."""

    def __missing__(self, cls):
        names = self[cls] = tuple(f.name for f in fields(cls) if f.compare)
        return names


_STRUCTURE = _Structure()


def children(node) -> list:
    """The nodes directly below `node`, left to right."""
    out = []
    for name in _STRUCTURE[type(node)]:
        v = getattr(node, name)
        cls = type(v)
        if cls is list or cls is tuple:
            _flatten(v, out)
        elif cls not in _LEAVES:
            out.append(v)
    return out


def _flatten(items, out):
    for v in items:
        cls = type(v)
        if cls is list or cls is tuple:
            _flatten(v, out)
        elif cls not in _LEAVES:
            out.append(v)


def walk(root):
    """Every node under `root`, itself included, in pre-order and left to
    right.  Iterative, so the depth of the tree is not limited by the
    Python stack."""
    stack = [root]
    pop, push = stack.pop, stack.append
    while stack:
        v = pop()
        cls = type(v)
        if cls is list or cls is tuple:
            stack.extend(reversed(v))
        elif cls not in _LEAVES:
            yield v
            for name in reversed(_STRUCTURE[cls]):
                x = getattr(v, name)
                if type(x) not in _LEAVES:
                    push(x)


def map_children(node, f):
    """`node` with each child `c` replaced by `f(c)`: a shallow copy that
    keeps the metadata, or `node` itself when every `f(c)` is `c`."""
    changes = {}
    for name in _STRUCTURE[type(node)]:
        v = getattr(node, name)
        cls = type(v)
        if cls not in _LEAVES:
            w = _map_value(v, f) if cls is list or cls is tuple else f(v)
            if w is not v:
                changes[name] = w
    return replace(node, **changes) if changes else node


def _map_value(v, f):
    """`v` with `f` applied to its nodes; lists and tuples are rebuilt only
    when one of their items changes."""
    cls = type(v)
    if cls is list or cls is tuple:
        items = [_map_value(x, f) for x in v]
        if all(a is b for a, b in zip(items, v)):
            return v
        return items if cls is list else tuple(items)
    if cls in _LEAVES:
        return v
    return f(v)


# ---------------------------------------------------------------------------
# Operators

# Expression operator -> the formula operator it denotes, and whether the
# operands swap: formulas have no `>` and `>=`.
FORMULA_OP = {
    "+": ("+", False), "-": ("-", False), "*": ("*", False), "/": ("/", False),
    "=": ("=", False), "<": ("<", False), "<=": ("<=", False),
    ">": ("<", True), ">=": ("<=", True),
    "&&": ("/\\", False), "||": ("\\/", False),
}


def formula_of_binop(op: str, left: Expr, right: Expr, loc=None):
    """`left op right` for an expression operator `op`, as a formula."""
    fop, swap = FORMULA_OP[op]
    if swap:
        left, right = right, left
    return BinOp(fop, left, right, loc=loc)


# ---------------------------------------------------------------------------
# Currying normalization


class TooDeep(Exception):
    """A node lies deeper below the root than `normalize_curry` allows."""


def normalize_curry(e, room: int = sys.maxsize, curry: bool = True):
    """Split every multi-parameter lambda into nested unary lambdas.

    The outermost lambda keeps the first parameter; the attached spec stays
    on the innermost one.  Inner lambdas remember the earlier parameters of
    their chain, which later fixes the capture order of their sites.
    Any node may be passed, a top-level item too; nodes above a split
    lambda are updated in place.

    The same walk bounds the nesting: it raises `TooDeep` when a node of
    any sort lies more than `room` levels below `e`.  With `curry` false it
    only does that.
    """
    cls = type(e)
    if cls is list or cls is tuple:  # its nodes stand at its own level
        items = [v if type(v) in _LEAVES else normalize_curry(v, room, curry)
                 for v in e]
        if all(map(operator.is_, items, e)):
            return e
        return items if cls is list else tuple(items)
    if room < 0:
        raise TooDeep
    for name in _STRUCTURE[cls]:
        v = getattr(e, name)
        if type(v) not in _LEAVES:
            w = normalize_curry(v, room - 1, curry)
            if w is not v:
                setattr(e, name, w)
    if curry and cls is Lambda and len(e.params) > 1:
        return _split(e)
    return e


def _split(lam: Lambda) -> Lambda:
    params = list(lam.params)
    inner = Lambda(lam.spec, [params[-1]], lam.ret, lam.body,
                   chain=list(lam.chain) + params[:-1], loc=lam.loc)
    ret = lam.ret
    for i in range(len(params) - 2, 0, -1):
        ret = TArrow(params[i + 1][1], ret)
        inner = Lambda(None, [params[i]], ret, inner,
                       chain=list(lam.chain) + params[:i], loc=lam.loc)
    ret = TArrow(params[1][1], ret)
    return Lambda(None, [params[0]], ret, inner,
                  chain=list(lam.chain), ty=lam.ty, loc=lam.loc)


def normalize_program(p: Program, room: int = sys.maxsize) -> Program:
    """`p` with its items curry-normalized in place, and no node more than
    `room` levels below it (`TooDeep`).  Logical definitions are checked
    but keep their lambdas."""
    for d in p.prelude:
        normalize_curry(d, room - 1, curry=False)
    p.items = [normalize_curry(it, room - 1) for it in p.items]
    return p
