from defun.frontend import parse_expr, parse_program
from defun.syntax import (
    App, Lambda, LetDef, TArrow, TInt, TNamed, TTuple, Var, arrow,
    contains_arrow, int_list, normalize_curry, INT, BOOL,
)

from scoping import free_vars, pattern_vars


def lam_of(src: str) -> Lambda:
    e = parse_expr(src)
    assert isinstance(e, Lambda)
    return e


class TestTypes:
    def test_arrow_helpers(self):
        t = arrow(INT, INT, BOOL)
        assert t == TArrow(INT, TArrow(INT, BOOL))

    def test_contains_arrow(self):
        assert contains_arrow(TTuple((TArrow(INT, INT), INT)))
        assert contains_arrow(TNamed("box", (TArrow(INT, INT),)))
        assert not contains_arrow(int_list())

    def test_integer_is_int(self):
        p = parse_program("let f (x : integer) : int = x")
        assert p.items[0].params[0][1] == INT


class TestFreeVars:
    def test_occurrence_order(self):
        lam = normalize_curry(lam_of("fun (r : int) : int -> x + (y + (x + z))"))
        assert [n for n, _ in free_vars(lam)] == ["x", "y", "z"]

    def test_param_not_free(self):
        lam = normalize_curry(lam_of("fun (r : int) : int -> r + x"))
        assert [n for n, _ in free_vars(lam)] == ["x"]

    def test_match_binders_not_free(self):
        lam = normalize_curry(lam_of(
            "fun (l : int list) : int -> match l with | [] -> a | h :: t -> h end"))
        assert [n for n, _ in free_vars(lam)] == ["a"]


class TestNormalizeCurry:
    def test_two_params_split(self):
        lam = normalize_curry(lam_of("fun (x : int) (z : int) : int -> x + y"))
        assert lam.params == [("x", INT)]
        inner = lam.body
        assert isinstance(inner, Lambda)
        assert inner.params == [("z", INT)]
        assert inner.chain == [("x", INT)]

    def test_spec_stays_innermost(self):
        lam = normalize_curry(lam_of(
            "fun [@gospel {| ensures result = x |}] (x : int) (z : int) : int -> x"))
        assert lam.spec is None
        assert lam.body.spec is not None

    def test_unary_untouched(self):
        lam = normalize_curry(lam_of("fun (x : int) : int -> x"))
        assert lam.params == [("x", INT)] and lam.chain == []


class TestPatterns:
    def test_pattern_vars(self):
        p = parse_program(
            "let f (l : int list) : int =\n"
            "  match l with | [] -> 0 | h :: t -> h end").items[0]
        arm_pat = p.body.arms[1][0]
        assert [n for n, _ in pattern_vars(arm_pat)] == ["h", "t"]


class TestMetaEquality:
    def test_loc_ignored_in_comparison(self):
        a = parse_expr("1 + 2")
        b = parse_expr("  1   +   2")
        assert a == b
