import pytest

from defun.errors import TransformError
from defun.frontend import parse_formula, parse_program
from defun.specs import (
    FreshNames, expand_post_meta, formula_names, subst_formula,
    translate_spec,
)
from defun.syntax import (
    BinOp, Forall, TArrow, TNamed, Var, call, INT,
)

from conftest import corpus_text, pipeline


class FakeFamily:
    def __init__(self, post_name, kont_name):
        self.post_name = post_name
        self.kont_ty = TNamed(kont_name)


def resolver_for(mapping):
    def resolve(ty, loc=None):
        fam = mapping.get(ty)
        if fam is None:
            raise TransformError("no-family", f"no family for {ty}", loc)
        return fam
    return resolve


INT_INT = TArrow(INT, INT)
INT_INT_INT = TArrow(INT, INT_INT)


class TestSubst:
    def test_basic(self):
        f = parse_formula("r = x + 1")
        out = subst_formula(f, {"r": Var("result")})
        assert out == parse_formula("result = x + 1")

    def test_binder_shadows(self):
        f = parse_formula("forall x : int. x = y")
        out = subst_formula(f, {"x": Var("z"), "y": Var("w")})
        assert out == parse_formula("forall x : int. x = w")


class TestFreshNames:
    def test_skips_taken(self):
        fresh = FreshNames({"var0", "var2"})
        assert [fresh.fresh(), fresh.fresh(), fresh.fresh()] == [
            "var1", "var3", "var4"]


class TestExpandPostMeta:
    def test_single_argument(self):
        resolve = resolver_for({INT_INT: FakeFamily("post1", "kont1")})
        f = parse_formula("post (g : int -> int) x r")
        assert expand_post_meta(f, resolve) == call(
            "post1", [Var("g"), Var("x"), Var("r")])

    def test_two_arguments_forall_chain(self):
        resolve = resolver_for({
            INT_INT_INT: FakeFamily("post2", "kont2"),
            INT_INT: FakeFamily("post1", "kont1"),
        })
        f = parse_formula("post (g : int -> int -> int) x y r")
        out = expand_post_meta(f, resolve)
        expected = Forall(
            [("var0", TNamed("kont1"))],
            BinOp("->",
                  call("post2", [Var("g"), Var("x"), Var("var0")]),
                  call("post1", [Var("var0"), Var("y"), Var("r")])))
        assert out == expected

    def test_fresh_variable_avoids_collision(self):
        resolve = resolver_for({
            INT_INT_INT: FakeFamily("post2", "kont2"),
            INT_INT: FakeFamily("post1", "kont1"),
        })
        f = parse_formula("post (g : int -> int -> int) var0 y r")
        out = expand_post_meta(f, resolve)
        assert out.binders[0][0] == "var1"

    def test_missing_family_raises(self):
        resolve = resolver_for({})
        with pytest.raises(TransformError) as exc:
            expand_post_meta(parse_formula("post (g : int -> int) x r"),
                             resolve)
        assert exc.value.kind == "no-family"


class TestTranslateSpec:
    def build(self, src):
        p = parse_program(src)
        return p.items[0]

    def test_header_names_to_params_and_result(self):
        d = self.build("let f (a : int) : int = a\n(*@ r = f x ensures r = x *)")
        requires, ensures = translate_spec(
            d.spec, d, resolver_for({}), lambda t, loc=None: t)
        assert ensures == [BinOp("=", Var("result"), Var("a"))]

    def test_multi_result_projection(self):
        d = self.build(
            "let f (a : int) : int * int = (a, a)\n"
            "(*@ u, v = f x ensures u = v *)")
        _, ensures = translate_spec(
            d.spec, d, resolver_for({}), lambda t, loc=None: t)
        out = ensures[0]
        assert isinstance(out, Forall)
        assert [n for n, _ in out.binders] == ["u", "v"]
        assert out.body.op == "->"

    def test_header_arity_mismatch(self):
        d = self.build("let f (a : int) : int = a")
        from defun.syntax import Spec, TrueP
        bad = Spec(result_names=["r"], arg_names=["x", "y"],
                   ensures=[TrueP()])
        with pytest.raises(TransformError) as exc:
            translate_spec(bad, d, resolver_for({}), lambda t, loc=None: t)
        assert exc.value.kind == "header-arity"


class TestEndToEndSpecTranslation:
    def test_length_cps_post_expansion(self):
        _, _, t = pipeline(corpus_text("length.mlg"))
        length_cps = next(d for d in t.items if d.name == "length_cps")
        fam = t.families[0]
        assert length_cps.spec.ensures == [call(
            fam.post_name,
            [Var("k"), call("length", [Var("l")]), Var("result")])]
