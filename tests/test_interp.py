import random

import pytest

from defun.frontend import parse_program
from defun.interp import (
    NIL, RunError, VConstr, VTuple, equiv_check, eval_fo, eval_ho, gen_value,
    render_value, vlist,
)
from defun.syntax import ConstructorApp, LetDef, TNamed, Var, int_list, INT

from conftest import CORPUS_FILES, corpus_text, pipeline

# [1;2;3] reversed: four apply calls, innermost kont first built from the
# head of the list; the list argument is always empty
EXPECTED_REVERSE_TRACE = [
    "apply0 K0(3, K0(2, K0(1, K1))) []",
    "apply0 K0(2, K0(1, K1)) []",
    "apply0 K0(1, K1) []",
    "apply0 K1 []",
]


class TestRenderValue:
    def test_list(self):
        assert render_value(vlist([3, 2, 1])) == "[3;2;1]"

    def test_empty_list(self):
        assert render_value(NIL) == "[]"

    def test_constructor(self):
        v = VConstr("Sub", (VConstr("Const", (1,)), VConstr("Const", (2,))))
        assert render_value(v) == "Sub(Const(1), Const(2))"

    def test_tuple_and_bool(self):
        assert render_value(VTuple((1, True))) == "(1, true)"


class TestEvaluation:
    def test_arith_and_match(self):
        p = parse_program(
            "let f (l : int list) : int = match l with | [] -> 0 | h :: t -> h * 2 end")
        assert eval_ho(p, "f", [vlist([21])]) == 42

    def test_division_truncates_like_ocaml(self):
        p = parse_program("let f (a : int) (b : int) : int = a / b")
        assert eval_ho(p, "f", [-7, 2]) == -3

    def test_division_by_zero(self):
        p = parse_program("let f (a : int) : int = a / 0")
        with pytest.raises(RunError) as exc:
            eval_ho(p, "f", [1])
        assert exc.value.kind == "division-by-zero"

    def test_fuel_exhaustion(self):
        p = parse_program("let rec spin (n : int) : int = spin n")
        with pytest.raises(RunError) as exc:
            eval_ho(p, "spin", [0], fuel=1000)
        assert exc.value.kind == "fuel-exhausted"

    def test_absurd_reached_on_match_failure(self):
        _, _, t = pipeline(
            "type exp = Const of int | Sub of exp * exp\n"
            "let f (e : exp) : int = match e with | Const v -> v end")
        bad = VConstr("Sub", (VConstr("Const", (1,)), VConstr("Const", (2,))))
        with pytest.raises(RunError) as exc:
            eval_fo(t, "f", [bad])
        assert exc.value.kind == "absurd-reached"

    def test_closures_partial_application(self):
        p = parse_program(
            "let add (a : int) (b : int) : int = a + b\n"
            "let ap (f : int -> int) (x : int) : int = f x\n"
            "let use (u : unit) : int = ap (add 40) 2")
        from defun.interp import UNIT_V
        assert eval_ho(p, "use", [UNIT_V]) == 42


class TestReverseTrace:
    def test_annex_trace_verbatim(self):
        _, _, t = pipeline(corpus_text("reverse.mlg"))
        trace: list = []
        out = eval_fo(t, "reverse", [vlist([1, 2, 3])], trace=trace)
        assert render_value(out) == "[3;2;1]"
        assert trace == EXPECTED_REVERSE_TRACE


class TestGenValue:
    def test_deterministic(self):
        a = gen_value(int_list(), random.Random(7), 10)
        b = gen_value(int_list(), random.Random(7), 10)
        assert a == b

    def test_user_variant_terminates(self):
        p = parse_program("type exp = Const of int | Sub of exp * exp")
        decls = {"exp": p.items[0]}
        for seed in range(50):
            v = gen_value(TNamed("exp"), random.Random(seed), 10, decls)
            assert isinstance(v, VConstr)


class TestEquivalence:
    @pytest.mark.parametrize("name,entry", [
        ("reverse.mlg", "reverse"),
        ("length.mlg", "len"),
        ("height.mlg", "height_tree_cps"),
        ("smallstep.mlg", "red"),
    ])
    def test_corpus_entries_pass(self, corpus_targets, name, entry):
        p, c, t = corpus_targets[name]
        report = equiv_check(p, t, entry, trials=100, seed=0,
                             type_decls=c.env.type_decls)
        assert report.passed, report.summary()

    def test_mutation_detected(self):
        """Swapping the captured argument in the apply body must be caught."""
        p, c, t = pipeline(corpus_text("reverse.mlg"))
        apply0 = t.apply_defs[0]
        # the K0 arm appends the captured element x; rebind it to 0 instead
        site = t.families[0].sites[0]

        def mutate(e):
            if isinstance(e, Var) and e.name == "x":
                from defun.syntax import IntLit
                return IntLit(0)
            for attr in ("head", "tail", "first", "second", "body",
                         "then", "els", "cond", "fn", "arg"):
                if hasattr(e, attr):
                    setattr(e, attr, mutate(getattr(e, attr)))
            if hasattr(e, "arms"):
                e.arms = [(pat, mutate(b)) for pat, b in e.arms]
            return e

        mutate(apply0.body)
        report = equiv_check(p, t, "reverse", trials=50, seed=0,
                             type_decls=c.env.type_decls)
        assert not report.passed
        assert report.failures

    def test_seed_changes_inputs(self):
        p, c, t = pipeline(corpus_text("reverse.mlg"))
        r1 = equiv_check(p, t, "reverse", trials=5, seed=1,
                         type_decls=c.env.type_decls)
        assert r1.passed and r1.trials == 5

    def test_too_few_trials_is_not_a_pass(self):
        p, c, t = pipeline(
            "let g (x : int) : int = x + 1\n"
            "(*@ r = g x\n      requires x = 12345\n      ensures r = x + 1 *)\n")
        report = equiv_check(p, t, "g", trials=10, seed=0,
                             type_decls=c.env.type_decls)
        assert (report.trials, report.requested) == (0, 10)
        assert report.skipped > 0 and not report.failures
        assert report.status == "INCONCLUSIVE" and not report.passed
