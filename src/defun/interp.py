"""Reference evaluator for the higher-order surface AST and the first-order
target, plus the randomized equivalence harness that serves as the
semantic-preservation oracle.

One `Evaluator` runs both programs.  It compiles every definition and
lambda body once into Python closures over resolved variable slots, and
runs applications on an explicit continuation stack: the defunctionalized
form of a direct-style evaluator (Reynolds, *Definitional interpreters for
higher-order programming languages*, 1972; Ager, Biernacka, Danvy &
Midtgaard, *A functional correspondence between evaluators and abstract
machines*, 2003).  The recursion depth of the object program costs heap,
not Python stack; subexpressions without an application are evaluated by
direct closure calls, whose depth the parser's nesting limit bounds.
"""

import operator  # already loaded by `random`
import random
from .defunc import TargetProgram
from .errors import Loc
from .specs import subst_formula
from .syntax import (
    Absurd, App, BinOp, BoolLit, ConstructorApp, ExprStmt, Forall, If, IntLit,
    Lambda, LetDef, LetIn, LogicalDecl, Match, Not, PConstr, PInt, PostMeta,
    PTuple, PVar, PWild, Program, Seq, TBool, TInt, TNamed, TTuple, TUnit,
    TrueP, TupleE, Ty, TypeDecl, UnitLit, Var, BOOL,
)

# ---------------------------------------------------------------------------
# Values


class VUnit:
    """The unit value; `UNIT_V` is its one instance, so `==` is identity."""

    def __repr__(self):
        return "()"


UNIT_V = VUnit()


def values_equal(a, b) -> bool:
    """Structural equality of run-time values, without recursion.
    Constructors and tuples compare field by field, other values with
    `==` (closures by identity)."""
    todo = [(a, b)]
    while todo:
        x, y = todo.pop()
        if x is y:
            continue
        tx = type(x)
        if tx is VConstr or tx is VTuple:
            if type(y) is not tx:
                return False
            if tx is VConstr:
                if x.name != y.name:
                    return False
                xs, ys = x.args, y.args
            else:
                xs, ys = x.items, y.items
            if len(xs) != len(ys):
                return False
            todo.extend(zip(xs, ys))
        elif type(y) is VConstr or type(y) is VTuple or not x == y:
            return False
    return True


class VConstr:
    """Constructor value, immutable by convention.  Equality is structural
    and iterative and the hash reads the name and arity only, so values of
    any depth compare and hash."""

    __slots__ = ("name", "args")

    def __init__(self, name: str, args: tuple = ()):
        self.name = name
        self.args = args

    def __repr__(self):
        return f"VConstr(name={self.name!r}, args={self.args!r})"

    __eq__ = values_equal

    def __hash__(self):
        return hash((self.name, len(self.args)))


class VTuple:
    """Tuple value; compares like `VConstr`."""

    __slots__ = ("items",)

    def __init__(self, items: tuple):
        self.items = items

    def __repr__(self):
        return f"VTuple(items={self.items!r})"

    __eq__ = values_equal

    def __hash__(self):
        return hash(len(self.items))


class VClosure:
    """Function value: a compiled function `(arity, body, pad)`, the frame
    it closes over (None for a top-level function) and the arguments a
    partial application has supplied so far."""

    __slots__ = ("fn", "env", "applied")

    def __init__(self, fn, env, applied=()):
        self.fn = fn
        self.env = env
        self.applied = applied


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


def _render_atom(x) -> str:
    """Literal text (no run-time value is a str) or a value without
    parts."""
    if type(x) is str:
        return x
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, int):
        return _int_text(x)
    if isinstance(x, VConstr):
        return x.name
    if isinstance(x, VUnit):
        return "()"
    if isinstance(x, VClosure):
        return "<fun>"
    raise AssertionError(f"unrenderable value {x!r}")


# digits per chunk of `_int_text`: fewer than the least limit (640) the
# interpreter may set on the digits of an int -> str conversion
_CHUNK_DIGITS = 600
_CHUNK = 10 ** _CHUNK_DIGITS


def _int_text(n: int) -> str:
    """Decimal text of `n` of any size, rendered in chunks, so that the
    interpreter's limit on int -> str conversion needs no change."""
    head, chunks = abs(n), []
    while head >= _CHUNK:
        head, low = divmod(head, _CHUNK)
        chunks.append(f"{low:0{_CHUNK_DIGITS}d}")
    chunks.append(str(head))
    return "-" * (n < 0) + "".join(reversed(chunks))


def render_value(v) -> str:
    """Human syntax for values: ints, [1;2;3], Ctor(a, b), tuples.  Built
    from an explicit stack of values and literal text, so a value of any
    depth renders."""
    out = []
    todo = [v]
    while todo:
        x = todo.pop()
        if type(x) is VTuple:
            items, open_, sep, close = x.items, "(", ", ", ")"
        elif type(x) is VConstr and x.name in ("Nil", "Cons"):
            items, open_, sep, close = list_items(x), "[", ";", "]"
        elif type(x) is VConstr and x.args:
            items, open_, sep, close = x.args, x.name + "(", ", ", ")"
        else:
            out.append(_render_atom(x))
            continue
        todo.append(close)
        for i in range(len(items) - 1, 0, -1):
            todo += (items[i], sep)
        todo += (items[0], open_) if items else (open_,)
    return "".join(out)


# ---------------------------------------------------------------------------
# Run errors


class RunError(Exception):
    def __init__(self, kind: str, message: str = "", loc: Loc | None = None):
        self.kind = kind
        self.loc = loc
        super().__init__(message or kind)


# ---------------------------------------------------------------------------
# Compiled code
#
# Every expression compiles to a function `code(env)`.  `env` is the frame
# of the enclosing function activation, a list laid out as
#
#     [enclosing frame, argument 1, ..., argument n, the function, locals...]
#
# so a variable is a (depth, slot) pair resolved at compile time; globals
# are looked up by name.  Code of an expression without an application
# returns its value.  Code of any other expression returns either a value
# or a call request `(function, argument values, locations)` for the run
# loop, after pushing on the continuation stack one frame per pending
# evaluation context.  A frame is a tuple whose first item is a function
# `resume(frame, value)`, which returns a value or a call request in turn.
# Values are never Python tuples, which is how the loop tells them apart.

BINOPS = {
    "+": operator.add, "-": operator.sub, "*": operator.mul,
    "<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge,
    "=": operator.eq,
}


def _divide(a, b, loc):
    if b == 0:
        raise RunError("division-by-zero", "division by zero", loc)
    q = abs(a) // abs(b)  # OCaml-style truncation
    return q if (a >= 0) == (b >= 0) else -q


class _Code:
    """Result of compiling an expression.  `calls`: its code may return a
    call request.  `total`: it neither applies nor raises.  `slot`: the
    frame slot that already holds its value, for a variable of the
    function being compiled."""

    __slots__ = ("run", "calls", "total", "slot")

    def __init__(self, run, calls=False, total=False, slot=None):
        self.run = run
        self.calls = calls
        self.total = total
        self.slot = slot


class Evaluator:
    """Call-by-value evaluator for a list of top-level items, loaded in
    order: `LetDef`s, `ExprStmt`s, and defined `LogicalDecl`s.  An item
    with parameters is a function, one without is a value.  Formulas run
    like code: the connectives are `if`s, and a quantifier or `post` raises
    `RunError` when it is reached.

    The same machinery runs the surface program and the first-order
    target.  Fuel is one unit per application of a function value to one
    argument, partial applications included.  When `trace` is a list,
    every full application of a function named in `traced` appends one
    line: the name and the rendered arguments.  An evaluator runs one call
    at a time: its continuation stack and fuel are its own.
    """

    def __init__(self, items, trace: list | None = None, traced=()):
        self.globals: dict[str, object] = {}
        self.stack: list = []
        self.fuel = 0
        self._trace = trace
        self._traced = traced if trace is not None else ()
        # compile-time state: the scopes (name -> slot) that the function
        # being compiled is nested in, outermost first, and its frame size
        self._scopes: list[dict] = []
        self._size = 0
        self._items = []  # (name or None, is a function, compiled function)
        for item in items:
            if isinstance(item, ExprStmt):
                name, params, body = None, [], item.expr
            elif isinstance(item, (LetDef, LogicalDecl)):
                name, params, body = item.name, item.params, item.body
            else:
                continue
            is_fn = bool(params)
            self._items.append((name, is_fn, self._function(
                name if is_fn else None, params, body, None)))

    # -- running -----------------------------------------------------------

    def load(self, fuel: int):
        """Bind the top-level items afresh, with `fuel` for the applications
        that evaluating top-level values makes."""
        self.globals.clear()
        self.fuel = fuel
        for name, is_fn, fn in self._items:
            if is_fn:
                self.globals[name] = VClosure(fn, None)
            else:
                value = self.enter(fn, ())
                if name is not None:
                    self.globals[name] = value

    def call(self, name: str, args, fuel: int):
        """Load, then `name args`, with `fuel` for the whole run."""
        self.load(fuel)
        fn = self.globals.get(name)
        if fn is None:
            raise RunError("stuck", f"no definition named {name!r}")
        if not args:
            return fn
        self.stack.clear()
        return self._run((fn, tuple(args), (None,) * len(args)))

    def enter(self, fn, args, me=None):
        """Run the body of the compiled function `fn` on `args`, with `me`
        as the function itself, without charging the entry; the fuel left
        carries over."""
        _, body, pad = fn
        self.stack.clear()
        return self._run(body([None, *args, me, *pad]))

    def _run(self, r):
        """The run loop: perform call requests and feed values to the
        frames on the stack until a value is left and the stack is empty.
        A request applies its function to as many arguments as it takes
        and pushes the rest; each argument costs one unit of fuel."""
        stack = self.stack
        pop = stack.pop
        fuel = self.fuel
        try:
            while True:
                if type(r) is tuple:
                    fn, args, site = r
                    if type(fn) is not VClosure:
                        if fuel < 1:
                            raise RunError("fuel-exhausted",
                                           "evaluation fuel exhausted")
                        raise RunError("stuck",
                                       f"applying a non-function {fn!r}",
                                       site[0])
                    arity, body, pad = fn.fn
                    have = fn.applied
                    need, n = arity - len(have), len(args)
                    fuel -= need if need < n else n
                    if fuel < 0:
                        raise RunError("fuel-exhausted",
                                       "evaluation fuel exhausted")
                    if need > n:
                        r = VClosure(fn.fn, fn.env, have + args)
                        continue
                    if need < n:
                        stack.append((_resume_apply, args[need:], site[need:]))
                        args = args[:need]
                    if have:
                        args = have + args
                        fn = VClosure(fn.fn, fn.env)
                    r = body([fn.env, *args, fn, *pad])
                elif stack:
                    frame = pop()
                    r = frame[0](frame, r)
                else:
                    return r
        finally:
            self.fuel = fuel

    # -- compiling ---------------------------------------------------------

    def _function(self, name, params, body, scope):
        """Compile a function to `(arity, body code, initial locals)`;
        `scope` is the scope it is created in, None at top level."""
        n = len(params)
        size, self._size = self._size, n + 2
        if scope is not None:
            self._scopes.append(scope)
        names = {} if name is None else {name: n + 1}
        for i, (pname, _) in enumerate(params, 1):
            names[pname] = i
        run = self._expr(body, names).run
        if name in self._traced:
            trace, untraced = self._trace, run

            def run(env):
                trace.append(f"{name} " + " ".join(
                    map(render_value, env[1:n + 1])))
                return untraced(env)
        pad = (None,) * (self._size - n - 2)
        if scope is not None:
            self._scopes.pop()
        self._size = size
        return n, run, pad

    def _slots(self, parts: list) -> list:
        """The frame slots that hold the values of `parts`: a variable's
        own slot, else a fresh one."""
        out = []
        for part in parts:
            if part.slot is None:
                part_slot = self._size
                self._size += 1
            else:
                part_slot = part.slot
            out.append(part_slot)
        return out

    def _expr(self, e, names: dict) -> _Code:
        """Compile `e` in the scope `names` (name -> slot)."""
        cls = type(e)
        if cls is Var:
            return self._var(e, names)
        if cls is App:
            return self._app(e, names)
        if cls is Match:
            return self._match(e, names)
        if cls in (IntLit, BoolLit, UnitLit) or (
                cls is ConstructorApp and not e.args):
            value = (UNIT_V if cls is UnitLit else
                     VConstr(e.name) if cls is ConstructorApp else e.value)
            return _Code(lambda env: value, total=True)
        if cls is Lambda:
            fn = self._function(None, e.params, e.body, names)
            return _Code(lambda env: VClosure(fn, env), total=True)
        if cls is TrueP:
            return _Code(lambda env: True, total=True)
        if cls is Absurd:
            return _Code(_raiser("absurd-reached", "reached absurd", e.loc))
        if cls is Forall or cls is PostMeta:
            return _Code(_raiser("stuck", f"cannot run {cls.__name__}", e.loc))
        if cls is Not:  # `not b` is `b -> false`
            e, cls = BinOp("->", e.body, BoolLit(False)), BinOp
        # the connectives are `if`s; their operands are bools, which `if`
        # passes on
        if cls is BinOp and e.op in ("||", "\\/"):
            e, cls = If(e.left, BoolLit(True), e.right), If
        elif cls is BinOp and e.op in ("&&", "/\\", "->"):
            e, cls = If(e.left, e.right, BoolLit(e.op == "->")), If
        if cls is If:
            then = self._expr(e.then, names)
            els = self._expr(e.els, names)
            trun, erun = then.run, els.run
            cond = [self._expr(e.cond, names)]
            s, = slots = self._slots(cond)
            return self._sequence(
                cond, slots, lambda env: trun(env) if env[s] else erun(env),
                then.calls or els.calls)
        if cls is Seq:
            second = self._expr(e.second, names)
            first = [self._expr(e.first, names)]
            return self._sequence(first, self._slots(first), second.run,
                                  second.calls)
        if cls is LetIn:
            d = e.defn
            if d.params:
                fn = self._function(d.name if d.is_rec else None, d.params,
                                    d.body, names)
                value = _Code(lambda env: VClosure(fn, env), total=True)
            else:
                value = self._expr(d.body, names)
            inner = dict(names)
            slots = self._slots([value])
            inner[d.name], = slots
            body = self._expr(e.body, inner)
            return self._sequence([value], slots, body.run, body.calls)
        # the rest are strict in their operands
        if cls is BinOp:
            operands, name = [e.left, e.right], None
        elif cls is ConstructorApp:
            operands, name = e.args, e.name
        elif cls is TupleE:
            operands, name = e.items, None
        else:
            raise AssertionError(f"unhandled expression {e!r}")
        parts = [self._expr(x, names) for x in operands]
        slots = self._slots(parts)
        loc = e.loc
        if cls is BinOp:
            a, b = slots
            f = BINOPS.get(e.op)  # None: division, which may raise

            def k(env):
                if f:
                    return f(env[a], env[b])
                return _divide(env[a], env[b], loc)
        else:
            # slot 0 first, so that one field still gives a tuple
            get = operator.itemgetter(0, *slots)

            def k(env):
                if name:
                    return VConstr(name, get(env)[1:])
                return VTuple(get(env)[1:])
        total = cls is not BinOp or f is not None
        return self._sequence(parts, slots, k, total=total)

    def _sequence(self, parts: list, slots, k, calls=False, total=False):
        """Code that evaluates `parts` left to right into `slots`, then
        returns `k(env)`; `calls`: `k` may return a call request; `total`:
        `k` neither applies nor raises."""
        steps = []
        for part, s in zip(parts, slots):
            if part.slot is None:  # else its value is in its slot
                steps.append((part.run, s, part.calls))
            total = total and part.total
        if not any(calling for _, _, calling in steps):
            # no part applies a function: run them all directly
            def run(env):
                for part, s, _ in steps:
                    env[s] = part(env)
                return k(env)
            return _Code(run, calls, total)
        n = len(steps)
        push = self.stack.append

        def run_calling(env, i=0):
            while i < n:
                part, s, calling = steps[i]
                i += 1
                if calling:
                    push((resume, env, i, s))
                    return part(env)
                env[s] = part(env)
            return k(env)

        def resume(frame, value):
            env = frame[1]
            env[frame[3]] = value
            return run_calling(env, frame[2])
        return _Code(run_calling, True)

    def _var(self, e, names):
        name = e.name
        depth = 0
        while name not in names:
            if depth == len(self._scopes):
                return _Code(_global(self.globals, name, e.loc))
            depth += 1
            names = self._scopes[-depth]
        i = names[name]
        if depth == 0:
            return _Code(lambda env: env[i], total=True, slot=i)

        def run(env):
            d = depth
            while d:
                env = env[0]
                d -= 1
            return env[i]
        return _Code(run, total=True)

    def _match(self, e, names):
        loc = e.loc
        arms = []  # (compiled pattern, body code)
        calls = False
        for pat, body in e.arms:
            inner = dict(names)
            test = self._pattern(pat, inner)
            if isinstance(body, Absurd):
                arms.append((test, _raiser(
                    "absurd-reached", "reached an absurd match arm", loc)))
            else:
                code = self._expr(body, inner)
                arms.append((test, code.run))
                calls = calls or code.calls
        scrutinee = [self._expr(e.scrutinee, names)]
        s, = slots = self._slots(scrutinee)

        def select(env):
            v = env[s]
            for test, run in arms:
                if type(test) is int:
                    env[test] = v
                    return run(env)
                if test is None or test(v, env):
                    return run(env)
            raise RunError("absurd-reached", "no match arm applies", loc)
        return self._sequence(scrutinee, slots, select, calls)

    def _pattern(self, pat, names):
        """Compile `pat`: a variable to the fresh slot it binds (recorded
        in `names`), a wildcard to None, any other pattern to `test(value,
        env)`, which says whether the value matches and binds the
        pattern's variables if so.  A constructor pattern matches a value
        of the same name and arity."""
        cls = type(pat)
        if cls is PWild:
            return None
        if cls is PVar:
            names[pat.name] = self._size
            self._size += 1
            return names[pat.name]
        if cls is PInt:
            n = pat.value
            return lambda v, env: v == n
        if cls is PTuple:
            kind, name, args = VTuple, None, pat.items
        elif cls is PConstr:
            kind, name, args = VConstr, pat.name, pat.args
        else:
            raise AssertionError(f"unhandled pattern {pat!r}")
        subs = [self._pattern(p, names) for p in args]
        n = len(subs)

        def test(v, env):
            if type(v) is not kind:
                return False
            if kind is VTuple:
                fields = v.items
            elif v.name != name:
                return False
            else:
                fields = v.args
            if len(fields) != n:
                return False
            for sub, x in zip(subs, fields):
                if type(sub) is int:
                    env[sub] = x
                elif sub is not None and not sub(x, env):
                    return False
            return True
        return test

    def _app(self, e, names):
        """An application spine `f a1 ... an`, evaluated f, a1, apply, a2,
        apply, ...  The arguments after a1 that neither apply nor raise
        are evaluated before the first application, which takes them all
        at once."""
        parts, sites = [], []
        node = e
        while type(node) is App:
            parts.append(self._expr(node.arg, names))
            sites.append(node.loc)
            node = node.fn
        parts.append(self._expr(node, names))
        parts.reverse()
        sites.reverse()
        first = 2  # the function, a1 and the total arguments after it
        while first < len(parts) and parts[first].total:
            first += 1
        code = self._request(parts[:first], sites[:first - 1])
        for part, site in zip(parts[first:], sites[first - 1:]):
            code = self._request([code, part], [site])
        return code

    def _request(self, parts, sites):
        """Code for the call request of `parts[0]` to the others."""
        slots = self._slots(parts)
        get, sites = operator.itemgetter(*slots), tuple(sites)

        def request(env):
            values = get(env)
            return values[0], values[1:], sites
        return self._sequence(parts, slots, request, True)


def _global(globals_: dict, name: str, loc):
    def run(env):
        try:
            return globals_[name]
        except KeyError:
            if name in BUILTINS:
                return BUILTINS[name]
            raise RunError("stuck", f"unbound variable {name!r}",
                           loc) from None
    return run


def _height(t) -> int:
    best, todo = 0, [(t, 0)]
    while todo:
        t, depth = todo.pop()
        if t.name != "Empty":
            depth += 1
            best = max(best, depth)
            todo += ((t.args[0], depth), (t.args[2], depth))
    return best


def _builtin(arity: int, f) -> VClosure:
    return VClosure((arity, lambda env: f(*env[1:arity + 1]), ()), None)


# the builtin logical symbols, for a name that no item defines
BUILTINS = {
    "length": _builtin(1, lambda xs: len(list_items(xs))),
    "max": _builtin(2, max),
    "height": _builtin(1, _height),
}


def _resume_apply(frame, value):
    """Apply the result of a full application to the arguments left."""
    return (value, frame[1], frame[2])


def _raiser(kind: str, message: str, loc):
    def run(env):
        raise RunError(kind, message, loc)
    return run


# ---------------------------------------------------------------------------
# Entry points


def eval_ho(p: Program, entry: str, args, fuel: int = 10**6):
    """Evaluate `entry args` over the higher-order source program."""
    return Evaluator(p.items).call(entry, args, fuel)


def _first_order(out):
    if isinstance(out, VClosure):
        raise RunError("stuck", "first-order entry returned a function")
    return out


def eval_fo(t: TargetProgram, entry: str, args, fuel: int = 10**6,
            trace: list | None = None):
    """Evaluate over the first-order target; `trace` (a list) collects one
    line per fully applied call of a generated apply function, formatted
    `<apply-name> <kont-value> <arg-value>`."""
    ev = Evaluator(t.apply_defs + t.items, trace=trace,
                   traced={f.apply_name for f in t.families})
    return _first_order(ev.call(entry, args, fuel))


# ---------------------------------------------------------------------------
# Random value generation


class ValueGen:
    """Draws random values of declared types.  Each variant type's split
    into all and non-recursive constructors, with the fields that recurse,
    is computed once per declaration."""

    def __init__(self, type_decls: dict):
        self.type_decls = type_decls
        self._splits: dict[str, tuple] = {}

    def draw(self, ty: Ty, rng: random.Random, size: int):
        if isinstance(ty, TInt):
            return rng.randint(-size, size)
        if isinstance(ty, TBool):
            return rng.random() < 0.5
        if isinstance(ty, TUnit):
            return UNIT_V
        if isinstance(ty, TTuple):
            return VTuple(tuple(self.draw(t, rng, size) for t in ty.items))
        if isinstance(ty, TNamed):
            if ty.name == "list":
                n = rng.randint(0, size)
                return vlist(rng.randint(-size, size) for _ in range(n))
            if ty.name == "tree":
                return _gen_tree(rng, rng.randint(0, size), size)
            decl = self.type_decls.get(ty.name)
            if decl is not None and decl.alias is not None:
                return self.draw(decl.alias, rng, size)
            if decl is not None and decl.variants is not None:
                return self._variant(decl, rng, size)
        raise RunError("stuck", f"cannot generate values of type {ty}")

    def _variant(self, decl: TypeDecl, rng, budget: int):
        split = self._splits.get(decl.name)
        if split is None:
            variants, base = [], []
            for cname, fields in decl.variants:
                fields = [(f, isinstance(f, TNamed) and f.name == decl.name)
                          for f in fields]
                variants.append((cname, fields))
                if not any(rec for _, rec in fields):
                    base.append((cname, fields))
            split = self._splits[decl.name] = (variants, base or variants)
        options = split[0] if budget > 0 else split[1]
        cname, fields = options[rng.randrange(len(options))]
        per = max(0, (budget - 1) // max(1, len(fields)))
        args = []
        for fty, rec in fields:
            args.append(self._variant(decl, rng, per) if rec
                        else self.draw(fty, rng, min(per + 1, 5)))
        return VConstr(cname, tuple(args))


def gen_value(ty: Ty, rng: random.Random, size: int,
              type_decls: dict | None = None):
    """A random value of type `ty`; `type_decls` maps type names to their
    declarations."""
    return ValueGen(type_decls or {}).draw(ty, rng, size)


def _gen_tree(rng, budget, size):
    if budget <= 0:
        return VConstr("Empty")
    left = rng.randint(0, budget - 1)
    return VConstr("Node", (
        _gen_tree(rng, left, size),
        rng.randint(-size, size),
        _gen_tree(rng, budget - 1 - left, size)))


# ---------------------------------------------------------------------------
# Equivalence harness


class EquivReport:
    def __init__(self, entry: str, requested: int, seed: int):
        self.entry = entry
        self.requested = requested  # trials asked for
        self.seed = seed
        self.trials = 0  # trials compared: arguments accepted, both ran
        self.skipped = 0  # arguments rejected by the entry's requires
        self.exhausted = 0  # accepted, but a side ran out of fuel
        # (arguments, source outcome, target outcome) of each mismatch
        self.failures: list[tuple] = []

    @property
    def status(self) -> str:
        """FAIL on a mismatch; INCONCLUSIVE when fewer trials were compared
        than were asked for, since untried arguments prove nothing; else
        PASS."""
        if self.failures:
            return "FAIL"
        return "INCONCLUSIVE" if self.trials < self.requested else "PASS"

    @property
    def passed(self) -> bool:
        return self.status == "PASS"

    def summary(self) -> str:
        ran = (f"{self.trials} of {self.requested}"
               if self.status == "INCONCLUSIVE" else f"{self.trials}")
        fuel = f"{self.exhausted} out of fuel, " if self.exhausted else ""
        line = (f"{self.status} {self.entry}: {ran} trials, {fuel}"
                f"{self.skipped} skipped, seed {self.seed}")
        if self.failures:
            args, ho, fo = self.failures[0]
            line += ("\n  counterexample: args=["
                     + ", ".join(map(render_value, args))
                     + f"] source={_describe(ho)} target={_describe(fo)}")
        return line


def _describe(outcome):
    if isinstance(outcome, RunError):
        return f"error:{outcome.kind}"
    return render_value(outcome)


def _outcome(ev: Evaluator, entry: str, args, fuel: int, first_order=False):
    """The value of `entry args` or the RunError it raised."""
    try:
        out = ev.call(entry, args, fuel)
        return _first_order(out) if first_order else out
    except RunError as e:
        return e


def _out_of_fuel(outcome) -> bool:
    return isinstance(outcome, RunError) and outcome.kind == "fuel-exhausted"


def _same(a, b) -> bool:
    if isinstance(a, RunError) or isinstance(b, RunError):
        return (isinstance(a, RunError) and isinstance(b, RunError)
                and a.kind == b.kind)
    return values_equal(a, b)


def equiv_check(p: Program, t: TargetProgram, entry: str,
                trials: int = 100, seed: int = 0, fuel: int = 10**6,
                size: int = 20, type_decls=None) -> EquivReport:
    """Run `entry` on both the source and the target with random
    first-order arguments that the entry's `requires` clauses accept, and
    compare outcomes (values or error kinds).  A trial in which either side
    runs out of fuel is not compared, and another is drawn instead.  Both
    programs and the clauses are compiled once, for all trials."""
    for entry_def in p.items:
        if isinstance(entry_def, LetDef) and entry_def.name == entry:
            break
    else:
        raise RunError("stuck", f"no definition named {entry!r}")
    decls = dict(type_decls or {})
    for it in p.items:
        if isinstance(it, TypeDecl):
            decls.setdefault(it.name, it)
    gen = ValueGen(decls)
    rng = random.Random(seed)
    source = Evaluator(p.items)
    target = Evaluator(t.apply_defs + t.items)
    requires = _requires(p, entry_def)
    report = EquivReport(entry=entry, requested=trials, seed=seed)
    attempts = 0
    while report.trials < trials and attempts < trials * 50:
        attempts += 1
        args = [gen.draw(ty, rng, size) for _, ty in entry_def.params]
        if not _requires_ok(requires, args):
            report.skipped += 1
            continue
        ho = _outcome(source, entry, args, fuel)
        fo = None if _out_of_fuel(ho) else _outcome(
            target, entry, args, fuel, first_order=True)
        if fo is None or _out_of_fuel(fo):
            report.exhausted += 1
            continue
        report.trials += 1
        if not _same(ho, fo):
            report.failures.append((args, ho, fo))
            break
    return report


def _requires(p: Program, d: LetDef) -> list[Evaluator]:
    """One evaluator per `requires` clause of `d`, of the prelude's defined
    symbols and of the clause as a function `requires` (a keyword, so no
    symbol's name) of `d`'s parameters, with the spec header's names
    renamed to them."""
    spec = d.spec
    mapping = {n: Var(actual) for n, (actual, _) in
               zip(spec.arg_names if spec else (), d.params)}
    defined = [decl for decl in p.prelude if decl.body is not None]
    return [Evaluator(defined + [LogicalDecl(
        "requires", d.params, BOOL, body=subst_formula(f, mapping))])
        for f in (spec.requires if spec else ())]


def _requires_ok(requires: list, args, fuel: int = 10**5) -> bool:
    """Whether no clause of `requires` is false of `args`.  Each clause runs
    with `fuel` of its own; one that raises `RunError` is not checked."""
    for ev in requires:
        try:
            if not ev.call("requires", args, fuel):
                return False
        except RunError:
            pass
    return True
