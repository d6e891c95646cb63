import pytest

from defun.errors import SourceError, TypeError_
from defun.frontend import parse_expr, parse_formula, parse_program
from defun.syntax import Lambda, PVar, TArrow, Var, INT, BOOL
from defun.typecheck import Checker, check_program, type_of


def check(src: str):
    return check_program(parse_program(src))


def fails(src: str, kind: str):
    with pytest.raises(TypeError_) as exc:
        check(src)
    assert exc.value.kind == kind
    return exc.value


class TestExpressions:
    def test_arith(self):
        assert type_of(parse_expr("1 + 2 * 3")) == INT

    def test_comparison_is_bool(self):
        assert type_of(parse_expr("1 < 2")) == BOOL

    def test_list_cons(self):
        good = check("let f (u : unit) : int list = 1 :: [2;3]")
        assert good is not None
        fails("let f (u : unit) : int list = true :: [2]", "mismatch")

    def test_if_branches_agree(self):
        fails("let f (u : unit) : int = if true then 1 else false", "mismatch")

    def test_unbound_variable(self):
        fails("let f (u : unit) : int = nope", "unbound-variable")

    def test_match_arm_types_agree(self):
        fails("let f (l : int list) : int =\n"
              "  match l with | [] -> 0 | h :: t -> true end", "mismatch")

    def test_pattern_vars_typed_from_constructor(self):
        check("type exp = Const of int | Sub of exp * exp\n"
              "let f (e : exp) : int =\n"
              "  match e with | Const v -> v | Sub (a, b) -> 0 end")

    def test_tree_builtin(self):
        check("let f (t : int tree) : int =\n"
              "  match t with | Empty -> 0 | Node (l, x, r) -> x end")


class TestFunctions:
    def test_full_application(self):
        check("let add (a : int) (b : int) : int = a + b\n"
              "let g (u : unit) : int = add 1 2")

    def test_over_application_of_returned_function_type(self):
        fails("let f (x : int) : int = x\n"
              "let g (u : unit) : int = f 1 2", "not-a-function")

    def test_rec_requires_annotations(self):
        check("let rec down (n : int) : int = if n <= 0 then 0 else down (n - 1)")

    def test_higher_order_param(self):
        check("let ap (f : int -> int) (x : int) : int = f x")


class TestLogicals:
    def test_logical_in_code_rejected(self):
        fails("let f (l : int list) : int = length l", "unbound-variable")

    def test_logical_in_formula_ok(self):
        check("let f (l : int list) : int = 0\n"
              "(*@ r = f l ensures r <= length l *)")

    def test_user_logical_body_checked(self):
        fails("(*@ function bad (n : int) : int = true *)", "mismatch")

    def test_user_logical_usable_in_spec(self):
        check("(*@ function double (n : int) : int = n + n *)\n"
              "let f (n : int) : int = n + n\n"
              "(*@ r = f n ensures r = double n *)")

    def test_logical_redeclaration(self):
        fails("(*@ function length (l : int list) : int = 0 *)", "mismatch")


class TestSpecs:
    def test_header_arity_checked(self):
        fails("let f (x : int) : int = x\n(*@ r = f x y ensures r = x *)",
              "mismatch")

    def test_unannotated_forall_binder_defaults_to_int(self):
        p = check("let f (x : int) : int = x\n"
                  "(*@ r = f x ensures forall n. n = n *)")
        f = p.items[0].spec.ensures[0]
        assert f.binders[0][1] == INT

    def test_post_on_non_arrow_rejected(self):
        with pytest.raises(TypeError_):
            check("let f (k : int) : int = k\n"
                  "(*@ r = f k ensures post (k : int -> int) 1 r *)")

    def test_requires_must_be_prop(self):
        fails("let f (x : int) : int = x\n(*@ r = f x requires x *)",
              "mismatch")


class TestAnnotations:
    def test_lambda_param_annotation_missing(self):
        lam = Lambda(None, [("x", None)], INT, Var("x"))
        with pytest.raises(TypeError_) as exc:
            Checker().type_of(lam)
        assert exc.value.kind == "annotation-missing"

    def test_letdef_param_annotation_missing(self):
        from defun.syntax import LetDef, Program
        d = LetDef(False, "f", [("x", None)], INT, Var("x"))
        with pytest.raises(TypeError_) as exc:
            Checker().check_program(Program(items=[d]))
        assert exc.value.kind == "annotation-missing"


class TestTypeDecls:
    def test_constructor_arity(self):
        fails("type t = Mk of int\nlet f (u : unit) : t = Mk (1, 2)",
              "constructor-arity")

    def test_unknown_type(self):
        fails("let f (x : widget) : int = 0", "unbound-variable")

    def test_polymorphic_list_payload_rejected(self):
        fails("let f (l : bool list) : int = 0", "mismatch")


# One program per diagnostic of spec typing, of list typing and of the
# formula grammar, with its exact `kind: line:col: message`.
_SPEC = "let f (x : int) : int = x\n(*@ r = f x\n      ensures "
_KSPEC = "let f (k : int -> int) : int = 0\n(*@ r = f k\n      ensures "
PINNED_DIAGNOSTICS = [
    ("let g (x : int) : int = x\n" + _SPEC + "r = g x *)",
     "unbound-variable: 4:19: unknown logical symbol 'g'"),
    (_SPEC + "r = length *)",
     "unbound-variable: 3:19: unbound variable 'length' in formula"),
    (_SPEC + "r = nope *)",
     "unbound-variable: 3:19: unbound variable 'nope' in formula"),
    (_SPEC + "max x = r *)",
     "mismatch: 3:15: logical symbol max expects 2 arguments"),
    (_SPEC + "r = length x *)",
     "mismatch: 3:19: argument of length has type int, expected int list"),
    (_SPEC + "r = Foo *)",
     "unbound-variable: 3:19: unknown constructor 'Foo'"),
    (_SPEC + "Cons true Nil = Nil *)",
     "mismatch: 3:15: argument of Cons has type bool, expected int"),
    (_SPEC + "Cons x = Nil *)",
     "constructor-arity: 3:15: constructor Cons expects 2 arguments, got 1"),
    (_SPEC + "r < true *)",
     "mismatch: 3:17: comparison operand has type bool, expected int"),
    (_SPEC + "r = true *)",
     "mismatch: 3:17: right operand of = has type bool, expected int"),
    (_KSPEC + "k = k *)",
     "mismatch: 3:17: equality on function values is not supported"),
    (_SPEC + "r = x + true *)",
     "mismatch: 3:21: operand of + has type bool, expected int"),
    (_SPEC + "r /\\ x *)",
     "mismatch: 3:17: logical operand has type int, expected prop"),
    (_SPEC + "not x *)",
     "mismatch: 3:15: negated formula has type int, expected prop"),
    (_SPEC + "forall n. n *)",
     "mismatch: 3:15: quantified body has type int, expected prop"),
    (_KSPEC + "post (k : int -> bool) 1 r *)",
     "mismatch: 3:15: post function has type int -> int, expected "
     "int -> bool"),
    (_KSPEC + "post (k : int -> int) 1 2 r *)",
     "mismatch: 3:15: post applied to too many arguments"),
    (_KSPEC + "post (k : int -> int) true r *)",
     "mismatch: 3:15: post argument has type bool, expected int"),
    (_KSPEC + "post (k : int -> int) 1 true *)",
     "mismatch: 3:15: post result has type bool, expected int"),
    ("let f (x : int) : int = x\n(*@ r = f x\n      requires x *)",
     "mismatch: 3:16: formula has type int, expected a proposition"),
    ("let f (u : unit) : int list = true :: [2]",
     "mismatch: 1:36: argument of Cons has type bool, expected int"),
    ("let f (u : unit) : int list = 1 :: 2",
     "mismatch: 1:33: argument of Cons has type int, expected int list"),
    ("let f (x : int) : int =\n  match x with\n  | [] -> 0\n  | _ -> 1",
     "mismatch: 3:5: constructor pattern Nil has type int list, expected "
     "int"),
    ("let f (x : int) : int =\n  match x with\n  | h :: t -> 0\n  | _ -> 1",
     "mismatch: 3:7: constructor pattern Cons has type int list, expected "
     "int"),
    (_SPEC + "r = ) *)",
     "None: 3:19: expected a formula, found ')'"),
]


@pytest.mark.parametrize("src,diagnostic", PINNED_DIAGNOSTICS)
def test_diagnostic_is_pinned(src, diagnostic):
    with pytest.raises(SourceError) as exc:
        check(src)
    e = exc.value
    assert f"{e.kind}: {e.loc}: {e.message}" == diagnostic
