"""Name resolution by walking the tree, kept as an oracle for the compiler.

The compiler resolves names once, in the checker (`typecheck.Resolution`),
and takes its fresh names from the identifiers the parser recorded
(`Program.names`).  Before that, the defunctionalizer walked every item
with the names bound around each node (`walk_scoped`), took each lambda's
captures from `free_vars`, and walked the whole program once more for its
identifiers (`all_identifiers`).  The tests compare the two.
"""

from __future__ import annotations

from defun.syntax import (
    Forall, LetDef, LetIn, Lambda, LogicalDecl, Match, PVar, Spec, Var,
    _LEAVES, _STRUCTURE, children, walk,
)

# the spellings `BinOp.op` holds; no generated name is one of them
OPERATORS = frozenset({"+", "-", "*", "/", "&&", "||", "=", "<", "<=", ">",
                       ">=", "/\\", "\\/", "->"})


def pattern_vars(p) -> list:
    return [(q.name, q.ty) for q in walk(p) if type(q) is PVar]


def binds(node) -> list:
    """Each child of `node` with the variable names that `node` binds in it.
    A spec is left out: its names are scoped by its header, not by the
    binders of the code around it."""
    cls = type(node)
    if cls is LetIn:
        d = node.defn
        return [(d, (d.name,) if d.is_rec else ()), (node.body, (d.name,))]
    if cls is Match:
        out = [(node.scrutinee, ())]
        for pat, body in node.arms:
            out += [(pat, ()), (body, tuple(n for n, _ in pattern_vars(pat)))]
        return out
    names = ()
    if cls is LetDef or cls is Lambda or cls is LogicalDecl:
        names = tuple(n for n, _ in node.params)
    elif cls is Forall:
        names = tuple(n for n, _ in node.binders)
    return [(c, names) for c in children(node) if type(c) is not Spec]


_BINDERS = frozenset({LetIn, Match, LetDef, Lambda, LogicalDecl, Forall})


def walk_scoped(root):
    """`walk`, yielding each node with the names bound around it below
    `root`; the specs of definitions and lambdas are not walked."""
    stack = [(root, frozenset())]
    pop, push = stack.pop, stack.append
    while stack:
        v, bound = pop()
        cls = type(v)
        if cls is list or cls is tuple:
            stack.extend([(x, bound) for x in reversed(v)])
        elif cls in _BINDERS:
            yield v, bound
            for c, names in reversed(binds(v)):
                push((c, bound.union(names) if names else bound))
        elif cls not in _LEAVES:
            yield v, bound
            for name in reversed(_STRUCTURE[cls]):
                x = getattr(v, name)
                if type(x) not in _LEAVES:
                    push((x, bound))


def free_vars(e) -> list:
    """Free variables of a typed expression, each with its resolved type,
    ordered by first free occurrence."""
    out = {}
    for node, bound in walk_scoped(e):
        if type(node) is Var and node.name not in bound:
            out.setdefault(node.name, node.ty)
    return list(out.items())


def item_lambdas(item) -> list:
    """(Lambda, free locals) of each lambda of a top-level item, in
    pre-order: the free variables of the lambda that are bound around it
    in the item, in order of first occurrence."""
    return [(e, [(n, t) for n, t in free_vars(e) if n in bound])
            for e, bound in walk_scoped(item) if type(e) is Lambda]


def all_identifiers(p) -> set:
    """Every identifier occurring anywhere in the program: each string in
    the structure of its nodes that is not an operator."""
    names = set()
    stack = [p]
    while stack:
        v = stack.pop()
        cls = type(v)
        if cls is str:
            names.add(v)
        elif cls is list or cls is tuple:
            stack.extend(v)
        elif cls not in _LEAVES:
            stack.extend([getattr(v, n) for n in _STRUCTURE[cls]])
    return names.difference(OPERATORS)
