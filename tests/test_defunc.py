import pytest

from defun.defunc import (
    assert_apply_exhaustive, assert_capture_correct, assert_first_order,
    defunctionalize,
)
from defun.errors import TransformError
from defun.frontend import parse_program
from defun.syntax import (
    Absurd, BinOp, ConstructorApp, LetDef, Match, PWild, TArrow, TNamed, Var,
    INT,
)
from defun.typecheck import Checker

from conftest import CORPUS_FILES, corpus_text, pipeline
from genprog import gen_program


def transform(src: str):
    return pipeline(src)[2]


def fails(src: str, kind: str):
    p = parse_program(src)
    c = Checker()
    c.check_program(p)
    with pytest.raises(TransformError) as exc:
        defunctionalize(p, c)
    assert exc.value.kind == kind
    return exc.value


class TestFamilies:
    def test_length_has_one_family_two_ctors(self):
        t = transform(corpus_text("length.mlg"))
        assert len(t.families) == 1
        fam = t.families[0]
        assert len(fam.sites) == 2
        assert len(t.apply_defs) == 1 and len(t.post_defs) == 1
        assert len(t.kont_decls) == 1
        assert len(t.kont_decls[0].variants) == 2

    def test_one_family_per_arrow_type(self):
        t = transform(
            "let ap1 (f : int -> int) (x : int) : int = f x\n"
            "let ap2 (g : int -> bool) (x : int) : bool = g x\n"
            "let use (u : unit) : bool =\n"
            "  if ap2 (fun (a : int) : bool -> a <= 0) 1\n"
            "  then ap2 (fun (b : int) : bool -> 0 <= b) 2\n"
            "  else 0 <= ap1 (fun (c : int) : int -> c) 3")
        assert len(t.families) == 2
        sizes = sorted(len(f.sites) for f in t.families)
        assert sizes == [1, 2]


class TestCaptureOrder:
    def test_reverse_captures_x_then_k(self):
        t = transform(corpus_text("reverse.mlg"))
        fam = t.families[0]
        site = next(s for s in fam.sites if s.captured)
        assert [n for n, _ in site.captured] == ["x", "k"]
        assert [t_ for _, t_ in site.captured][0] == INT

    def test_curried_free_vars_before_chain_params(self):
        t = transform(
            "let use_it (f : int -> int -> int) (a : int) (b : int) : int = f a b\n"
            "let driver (y : int) (a : int) (b : int) : int =\n"
            "  use_it (fun (x : int) (z : int) : int -> x + y) a b")
        inner_fam = next(f for f in t.families
                         if f.arrow_ty == TArrow(INT, INT))
        assert [n for n, _ in inner_fam.sites[0].captured] == ["y", "x"]

    def test_unannotated_curried_post_is_constructor_equation(self):
        t = transform(
            "let use_it (f : int -> int -> int) (a : int) (b : int) : int = f a b\n"
            "let driver (y : int) (a : int) (b : int) : int =\n"
            "  use_it (fun (x : int) (z : int) : int -> x + y) a b")
        outer_fam = next(f for f in t.families
                         if f.arrow_ty == TArrow(INT, TArrow(INT, INT)))
        inner_fam = next(f for f in t.families
                         if f.arrow_ty == TArrow(INT, INT))
        pred = next(p for p in t.post_defs if p.name == outer_fam.post_name)
        (pat, formula), = pred.arms
        inner_ctor = inner_fam.sites[0].ctor_name
        assert formula.body == BinOp(
            "=", Var(pred.result_param),
            ConstructorApp(inner_ctor, [Var("y"), Var("x")]))


class TestValueUses:
    def test_named_function_eta_expanded(self):
        t = transform(
            "let ap (f : int -> int) (x : int) : int = f x\n"
            "let inc (n : int) : int = n + 1\n"
            "let use (u : unit) : int = ap inc 1")
        fam = t.families[0]
        assert len(fam.sites) == 1
        use = next(d for d in t.items if d.name == "use")
        call = use.body
        ctor_arg = call.fn.arg
        assert isinstance(ctor_arg, ConstructorApp)
        assert ctor_arg.name == fam.sites[0].ctor_name

    def test_partial_application_of_named_function(self):
        t = transform(
            "let ap (f : int -> int) (x : int) : int = f x\n"
            "let add (a : int) (b : int) : int = a + b\n"
            "let use (u : unit) : int = ap (add 1) 2")
        fams_by_ty = {f.arrow_ty: f for f in t.families}
        assert TArrow(INT, INT) in fams_by_ty


class TestBypassRule:
    REQ = ("let guarded (x : int) : int = x\n"
           "(*@ r = guarded x requires 0 <= x ensures r = x *)\n")

    def test_requires_fn_translated_directly(self):
        t = transform(self.REQ + "let use (u : unit) : int = guarded 3")
        assert "guarded" in t.bypassed
        guarded = next(d for d in t.items if d.name == "guarded")
        assert guarded.spec.requires

    def test_requires_fn_as_value_rejected(self):
        fails(self.REQ
              + "let ap (f : int -> int) (x : int) : int = f x\n"
              "let use (u : unit) : int = ap guarded 1",
              "exempt-as-value")

    def test_rec_fn_as_value_rejected(self):
        fails("let rec loop (n : int) : int = if n <= 0 then 0 else loop (n - 1)\n"
              "let ap (f : int -> int) (x : int) : int = f x\n"
              "let use (u : unit) : int = ap loop 1",
              "no-family")

    def test_lambda_with_requires_as_value_rejected(self):
        fails("let ap (f : int -> int) (x : int) : int = f x\n"
              "let use (u : unit) : int =\n"
              "  ap (fun [@gospel {| requires 0 <= x ensures result = x |}]"
              " (x : int) : int -> x) 1",
              "exempt-as-value")

    def test_no_family_diagnostic(self):
        err = fails("let ap (f : bool -> bool) (x : bool) : bool = f x",
                    "no-family")
        assert "no functions of this type are defined" in err.message


class TestExhaustiveness:
    def test_non_exhaustive_match_gets_absurd_arm(self):
        t = transform(
            "type exp = Const of int | Sub of exp * exp\n"
            "let f (e : exp) : int = match e with | Const v -> v end")
        f = next(d for d in t.items if d.name == "f")
        pat, body = f.body.arms[-1]
        assert isinstance(pat, PWild) and isinstance(body, Absurd)
        assert f.body.absurd

    def test_exhaustive_match_untouched(self):
        t = transform(
            "let f (l : int list) : int = match l with | [] -> 0 | h :: t -> h end")
        f = next(d for d in t.items if d.name == "f")
        assert len(f.body.arms) == 2 and not f.body.absurd

    def test_nested_constructor_exhaustiveness(self):
        t = transform(corpus_text("smallstep.mlg"))
        dt = next(d for d in t.items if d.name == "decompose_term")
        assert dt.body.absurd
        hr = next(d for d in t.items if d.name == "head_reduction")
        assert hr.body.absurd


class TestLocalFunctions:
    def test_let_in_with_params_unsupported(self):
        fails("let f (x : int) : int =\n"
              "  let g (y : int) : int = y + x in g 1",
              "unsupported")


class TestInvariants:
    def test_walkers_over_corpus(self, corpus_targets):
        for name, (p, c, t) in corpus_targets.items():
            assert_first_order(t)
            assert_apply_exhaustive(t)
            assert_capture_correct(t, p)

    @pytest.mark.parametrize("seed", range(200))
    def test_walkers_over_generated_programs(self, seed):
        src = gen_program(seed)
        p, c, t = pipeline(src)
        assert_first_order(t)
        assert_apply_exhaustive(t)
        assert_capture_correct(t, p)
