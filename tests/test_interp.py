import random

import pytest

from defun.frontend import parse_program
from defun.interp import (
    NIL, Evaluator, RunError, VConstr, VTuple, equiv_check, eval_fo, eval_ho,
    gen_value, render_value, vlist,
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
            for attr in ("first", "second", "body", "then", "els", "cond",
                         "fn", "arg"):
                if hasattr(e, attr):
                    setattr(e, attr, mutate(getattr(e, attr)))
            if hasattr(e, "args"):
                e.args = [mutate(a) for a in e.args]
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


def _equiv(text, entry, trials=100, fuel=10**6):
    p, c, t = pipeline(text)
    return equiv_check(p, t, entry, trials=trials, seed=0, fuel=fuel,
                       type_decls=c.env.type_decls)


class TestRequiresFilter:
    """`equiv_check` runs the entry's `requires` clauses on the program
    evaluator, each check with fuel of its own; a clause that raises is
    not checked."""

    def test_each_check_has_fresh_fuel(self):
        # about 100 applications per check: a shared budget of 10^5 ran
        # out after some thousand draws
        report = _equiv(
            "(*@ function len2 (l : int list) : int =\n"
            "      match l with\n"
            "      | [] -> 0\n"
            "      | _ :: t -> 1 + len2 t *)\n\n"
            "let f (l : int list) : int = 0\n"
            "(*@ requires len2 l + len2 l + len2 l + len2 l + len2 l\n"
            "             = 100 *)\n",
            "f")
        assert (report.status, report.trials, report.skipped) == (
            "PASS", 100, 2142)

    def test_a_logical_constant_in_a_body_is_a_value(self):
        report = _equiv("(*@ function c : int = 3 *)\n"
                        "(*@ function g (x : int) : int = x + c *)\n\n"
                        "let f (x : int) : int = x\n"
                        "(*@ requires g x > 0 *)\n", "f")
        assert (report.status, report.skipped) == ("PASS", 85)

    def test_a_logical_constant_in_a_clause_is_checked(self):
        report = _equiv("(*@ function c : int = 3 *)\n\n"
                        "let f (x : int) : int = x\n"
                        "(*@ requires x > c *)\n", "f")
        assert (report.status, report.skipped) == ("PASS", 143)

    def test_header_names_are_the_parameters_in_order(self):
        # header `b` is the first parameter, `a`: the clause reads a >= 0,
        # so no accepted draw recurses down from a negative `a`
        report = _equiv(
            "let rec g (a : int) (b : int) : int =\n"
            "  if a = 0 then b else g (a - 1) b\n"
            "(*@ r = g b a requires b >= 0 ensures r = a *)\n",
            "g", fuel=1000)
        assert report.exhausted == 0
        assert (report.status, report.skipped) == ("PASS", 87)

    def test_a_clause_that_cannot_run_is_not_checked(self):
        report = _equiv(
            "let f (x : int) : int = x\n"
            "(*@ requires x > 0 \\/ forall y : int. y = y\n"
            "    requires 1 / x > 100 *)\n", "f", trials=20)
        # the quantifier is reached only when x <= 0 and the division
        # raises only when x = 0, which every other draw fails
        assert report.trials == 20 and report.skipped > 0


# ---------------------------------------------------------------------------
# The compiled, iterative evaluator


def _tree(values):
    """A left spine Node(Node(..., v1, Empty), v2, Empty) with one node per
    value, built without recursion."""
    out = VConstr("Empty")
    for value in values:
        out = VConstr("Node", (out, value, VConstr("Empty")))
    return out


SMALL_TREE = VConstr("Node", (
    VConstr("Node", (VConstr("Empty"), 1, VConstr("Empty"))),
    2, VConstr("Empty")))


def _exhausts(fn):
    with pytest.raises(RunError) as exc:
        fn()
    return exc.value.kind == "fuel-exhausted"


class TestFuel:
    """Fuel is one unit per application of a function value to one
    argument, partial applications included."""

    @pytest.mark.parametrize("name,entry,arg,ho,fo", [
        ("reverse.mlg", "reverse", vlist(range(10)), 34, 45),
        ("height.mlg", "height_tree_cps", SMALL_TREE, 20, 25),
    ])
    def test_minimal_fuel_is_exact(self, corpus_targets, name, entry, arg,
                                   ho, fo):
        p, _, t = corpus_targets[name]
        eval_ho(p, entry, [arg], fuel=ho)
        eval_fo(t, entry, [arg], fuel=fo)
        assert _exhausts(lambda: eval_ho(p, entry, [arg], fuel=ho - 1))
        assert _exhausts(lambda: eval_fo(t, entry, [arg], fuel=fo - 1))

    def test_top_level_values_spend_fuel(self):
        p = parse_program(
            "let add (a : int) (b : int) : int = a + b\n"
            "let three : int = add 1 2\n"
            "let f (x : int) : int = add x three")
        # two applications load `three`, three more run `f 1`
        assert eval_ho(p, "f", [1], fuel=5) == 4
        assert _exhausts(lambda: eval_ho(p, "f", [1], fuel=4))

    def test_fuel_runs_out_before_a_stuck_application(self):
        p = parse_program("let f (x : int) : int = x 1")
        with pytest.raises(RunError) as exc:
            eval_ho(p, "f", [3])
        assert exc.value.kind == "stuck" and exc.value.loc is not None
        assert _exhausts(lambda: eval_ho(p, "f", [3], fuel=1))


class TestDepth:
    """The object program's recursion depth costs heap, not Python
    stack: long inputs run to completion or to the end of their fuel."""

    N = 10**5

    @pytest.fixture(scope="class")
    def long_list(self):
        return vlist(range(self.N))

    @pytest.mark.parametrize("name,entry", [
        ("reverse.mlg", "reverse"), ("length.mlg", "len")])
    def test_long_list_completes(self, corpus_targets, long_list, name,
                                 entry):
        p, _, t = corpus_targets[name]
        for out in (eval_ho(p, entry, [long_list]),
                    eval_fo(t, entry, [long_list])):
            if entry == "len":
                assert out == self.N
            else:
                assert out == vlist(reversed(range(self.N)))

    def test_deep_tree(self, corpus_targets):
        p, _, t = corpus_targets["height.mlg"]
        tree = _tree(range(self.N))  # a left spine: height N
        assert eval_ho(p, "height_tree_cps", [tree]) == self.N
        # the target needs 10n + 5 = 1,000,005 applications
        assert _exhausts(lambda: eval_fo(t, "height_tree_cps", [tree]))
        assert eval_fo(t, "height_tree_cps", [tree],
                       fuel=10 * self.N + 5) == self.N

    def test_builtin_logicals_on_deep_values(self, long_list):
        p, _, _ = pipeline(
            "(*@ function h (t : int tree) (l : int list) : int =\n"
            "      max (height t) (length l) + height Empty *)\n")
        ev = Evaluator(p.prelude)
        tree = _tree(range(2 * self.N))
        assert ev.call("h", [tree, long_list], fuel=7) == 2 * self.N
        # its right branch is one deeper than its left
        right = VConstr("Node", (SMALL_TREE, 0, VConstr("Node", (
            VConstr("Empty"), 0, SMALL_TREE))))
        assert ev.call("h", [right, NIL], fuel=7) == 4

    def test_no_stack_workarounds(self):
        import defun.interp
        with open(defun.interp.__file__) as fh:
            source = fh.read()
        for word in ("RecursionError", "threading", "setrecursionlimit"):
            assert word not in source


class TestDeepValues:
    def test_long_lists_compare_hash_and_render(self):
        n = 10**5
        a, b = vlist(range(n)), vlist(range(n))
        assert a == b and hash(a) == hash(b)
        assert a != vlist(list(range(n - 1)) + [0])
        assert render_value(a) == "[" + ";".join(map(str, range(n))) + "]"

    def test_deep_tree_compares_and_renders(self):
        depth = 5000
        tree = _tree([1] * depth)
        assert tree == _tree([1] * depth)
        assert tree != _tree([1] * (depth - 1) + [2])
        text = render_value(tree)
        assert text.startswith("Node(Node(") and text.endswith(
            ", 1, Empty)" * 2)
        assert text.count("Node(") == depth

    def test_equiv_compares_deep_outcomes(self):
        from defun.interp import _same
        n = 10**5
        assert _same(vlist(range(n)), vlist(range(n)))
        assert not _same(vlist(range(n)), vlist(range(1, n + 1)))


class TestFuelBoundary:
    """Running out of fuel on either side is inconclusive, never a
    counterexample: the target spends more applications than the source."""

    def test_out_of_fuel_is_not_a_mismatch(self, corpus_targets):
        p, c, t = corpus_targets["reverse.mlg"]
        report = equiv_check(p, t, "reverse", trials=3, seed=0, fuel=30,
                             type_decls=c.env.type_decls)
        assert report.status != "FAIL", report.summary()
        assert report.exhausted > 0
        assert f"{report.exhausted} out of fuel" in report.summary()

    def test_all_out_of_fuel_is_inconclusive(self, corpus_targets):
        p, c, t = corpus_targets["reverse.mlg"]
        report = equiv_check(p, t, "reverse", trials=3, seed=0, fuel=1,
                             type_decls=c.env.type_decls)
        assert report.status == "INCONCLUSIVE"
        assert (report.trials, report.exhausted) == (0, 150)
        assert report.summary() == (
            "INCONCLUSIVE reverse: 0 of 3 trials, 150 out of fuel, "
            "0 skipped, seed 0")

    def test_pass_line_without_exhaustion(self, corpus_targets):
        p, c, t = corpus_targets["reverse.mlg"]
        report = equiv_check(p, t, "reverse", trials=7, seed=0,
                             type_decls=c.env.type_decls)
        assert report.summary() == "PASS reverse: 7 trials, 0 skipped, seed 0"


# The arguments `equiv_check` draws for smallstep.mlg's `red` with sizes 20
# (first draw per seed 0-9, and the generator's next `random()` after three
# draws), as the generator drew them before its declarations were split
# once per check.
PINNED_RED_DRAWS = [
    ("Sub(Sub(Const(0), Sub(Sub(Const(0), Const(1)), Const(1))), Const(-1))",
     0.8988382879679935),
    ("Const(4)", 0.7609624449125756),
    ("Const(-4)", 0.8538343854854736),
    ("Const(4)", 0.25935401432800764),
    ("Const(-1)", 0.40159101448507484),
    ("Sub(Sub(Const(3), Const(-4)), Const(-4))", 0.6174525204661166),
    ("Const(2)", 0.7007471966364893),
    ("Sub(Const(1), Const(-4))", 0.21469818083566172),
    ("Const(0)", 0.8112640455300252),
    ("Sub(Sub(Sub(Const(-1), Const(0)), Sub(Const(0), Const(1))), "
     "Sub(Const(3), Sub(Const(-1), Const(-1))))", 0.7895949389494599),
]


class TestPinnedDraws:
    @pytest.mark.parametrize("seed", range(10))
    def test_red_arguments(self, corpus_targets, seed):
        from defun.interp import ValueGen
        p, c, _ = corpus_targets["smallstep.mlg"]
        red = next(i for i in p.items
                   if isinstance(i, LetDef) and i.name == "red")
        (_, ty), = red.params
        first, after = PINNED_RED_DRAWS[seed]
        gen = ValueGen(c.env.type_decls)
        for draw in (lambda rng: gen_value(ty, rng, 20, c.env.type_decls),
                     lambda rng: gen.draw(ty, rng, 20)):
            rng = random.Random(seed)
            draws = [draw(rng) for _ in range(3)]
            assert render_value(draws[0]) == first
            assert rng.random() == after


FORMS = (
    "let k3 (a : int) (b : int) (c : int) : int = a * 100 + b * 10 + c\n"
    "let inc (x : int) : int = x + 1\n"
    "let sp (x : int) : int = k3 x (inc x) (x - 1)\n"
    "let sp2 (x : int) : int = k3 (inc x) x (inc (inc x))\n"
    "let pa (x : int) : int = let g : int -> int = k3 x 1 in g 7 + g x\n"
    "let ov (x : int) : int = (fun (a : int) : int -> fun (b : int) : int ->"
    " fun (c : int) : int -> a - b - c) x (inc x) 5\n"
    "let deep (x : int) : int = let a : int = x in (fun (b : int) : int ->"
    " (fun (c : int) : int -> (fun (d : int) : int -> a + b + c + d) 1) 2) 3\n"
    "let shadow (x : int) : int ="
    " let x : int = x + 1 in let x : int = x * 2 in x\n"
    "let tp (x : int) : int ="
    " match (x, (x + 1, x + 2)) with | (a, (b, c)) -> a + b * c end\n"
    "let ifarg (x : int) : int = k3 x (if x > 0 then 1 else 2) (inc x)\n"
    "let nf2 (x : int) : int = (inc x) 3 4\n")


class TestCompiledForms:
    """Values and minimal fuel of partial and over-applications, nested
    closures, shadowing, nested patterns and arguments evaluated after an
    application; the expected figures are those of the recursive
    evaluator this one replaced."""

    @pytest.mark.parametrize("entry,arg,value,fuel", [
        ("sp", -3, -324, 5), ("sp2", -3, -231, 7), ("pa", 4, 831, 5),
        ("ov", 5, -6, 5), ("deep", 5, 11, 4), ("shadow", -6, -10, 1),
        ("tp", 0, 2, 1), ("ifarg", 5, 516, 5),
    ])
    def test_value_and_minimal_fuel(self, entry, arg, value, fuel):
        p = parse_program(FORMS)
        assert eval_ho(p, entry, [arg], fuel=fuel) == value
        assert _exhausts(lambda: eval_ho(p, entry, [arg], fuel=fuel - 1))

    def test_applying_a_result_that_is_not_a_function(self):
        p = parse_program(FORMS)
        with pytest.raises(RunError) as exc:
            eval_ho(p, "nf2", [-2])
        assert (exc.value.kind, str(exc.value)) == (
            "stuck", "applying a non-function -1")
        assert (exc.value.loc.line, exc.value.loc.col) == (11, 35)
