import re
import shlex
import sys

import pytest

from defun import frontend
from defun.cli import main
from defun.emit import emit_whyml, parse_whyml, render_doc
from defun.errors import ParseError, SourceError
from defun.frontend import parse_formula, parse_program
from defun.interp import render_value, vlist
from defun.vcgen import run_solver

from conftest import CORPUS, pipeline
from test_vcgen import scope_errors, smt_files


@pytest.fixture
def mlg(tmp_path):
    def write(text, name="prog.mlg"):
        p = tmp_path / name
        p.write_text(text)
        return str(p)
    return write


def balanced_sum(depth):
    e = "x"
    for _ in range(depth):
        e = f"({e} + {e})"
    return e


def nested_ifs(n):
    return ("let f (x : int) : int = " + "if x > 0 then " * n + "x"
            + " else 0" * n + "\n(*@ r = f x\n    ensures r >= 0 *)\n")


class TestRecordTypesRejected:
    def test_check_exits_1_located(self, mlg, capsys):
        assert main(["check", mlg("type r = { a : int }\n")]) == 1
        err = capsys.readouterr().err
        assert re.match(r"error: unsupported: 1:\d+: record types", err), err


class TestProgramNamesAvoidLogicalSymbols:
    @pytest.mark.parametrize("name", ["max", "length", "height", "double"])
    def test_toplevel_let_named_like_a_logical_is_located(self, mlg, capsys,
                                                         name):
        path = mlg("(*@ function double (x : int) : int = x + x *)\n\n"
                   f"let {name} (x : int) : int = x + 1\n")
        assert main(["check", path]) == 1
        err = capsys.readouterr().err
        assert err.startswith(
            f"error: mismatch: 3:1: logical symbol '{name}' redeclared"), err

    @pytest.mark.parametrize("name", ["max", "length", "height", "double"])
    def test_parameter_named_like_a_logical_is_located(self, mlg, capsys,
                                                       name):
        # at emission the parameter would be declared beside the symbol
        path = mlg("(*@ function double (x : int) : int = x + x *)\n\n"
                   f"let f ({name} : int) (l : int list) : int = {name}\n"
                   f"(*@ r = f {name} l\n    ensures r = {name} *)\n")
        assert main(["check", path]) == 1
        err = capsys.readouterr().err
        assert err.startswith(
            f"error: mismatch: 3:1: logical symbol '{name}' redeclared as a "
            "parameter"), err

    @pytest.mark.parametrize("name", ["max", "length", "height", "double"])
    def test_lambda_parameter_named_like_a_logical_is_located(
            self, mlg, capsys, name):
        # it would shadow the symbol inside its post predicate's `let`
        path = mlg("(*@ function double (x : int) : int = x + x *)\n\n"
                   "let ap (k : int -> int) (x : int) : int = k x\n"
                   "let f (l : int list) : int =\n"
                   f"  ap (fun ({name} : int) : int -> {name} + 1) 2\n")
        assert main(["check", path]) == 1
        err = capsys.readouterr().err
        assert err.startswith(
            f"error: mismatch: 5:7: logical symbol '{name}' redeclared as a "
            "parameter"), err


FN_AND_HOF = ("let f (x : int) : int = x + 1\n"
              "let h (k : int -> int) : int = k 1\n")


class TestLocalsShadowFunctions:
    """A local named like the top-level function `f` denotes the local:
    it is neither a function value nor left out of a lambda's captures."""

    @pytest.mark.parametrize("defn, kept", [
        ("let g (f : int) : int = f + h (fun (x : int) : int -> x)",
         "= (f + (h K0))"),
        ("let g (y : int) : int = let f = y in f + h (fun (x : int) : int -> x)",
         "= let f = y in (f + (h K0))"),
        ("let g (y : int) : int = h (fun (f : int) : int -> f + y)",
         "| K0 y -> let f = arg in (f + y)"),
        ("let g (l : int list) : int =\n"
         "  match l with | [] -> h (fun (x : int) : int -> x) | f :: t -> f end",
         "| Cons f t -> f"),
        ("let g (f : int) : int = h (fun (x : int) : int -> x + f)",
         "| K0 f -> let x = arg in (x + f)"),
        ("let g (y : int) : int = h f + (let f = y in f)",
         "= ((h K0) + (let f = y in f))"),
    ], ids=["parameter", "let", "lambda-parameter", "pattern-variable",
            "captured", "function-value-elsewhere"])
    def test_emit_and_equiv(self, mlg, tmp_path, capsys, defn, kept):
        path = mlg(FN_AND_HOF + defn + "\n")
        assert main(["emit", path, "-o", str(tmp_path / "out")]) == 0
        assert kept in (tmp_path / "out" / "prog.mlw").read_text()
        capsys.readouterr()
        assert main(["equiv", path, "--entry", "g", "--trials", "20"]) == 0
        assert capsys.readouterr().out.startswith("PASS g: 20 trials")

    def test_function_value_with_a_parameter_of_its_name(self, mlg,
                                                          capsys):
        # the eta expansion of `f` renames its parameter, so the call in
        # the body still calls the function
        path = mlg("let f (f : int) : int = f + 1\n"
                   "let h (k : int -> int) : int = k 1\n"
                   "let g (y : int) : int = h f\n")
        assert main(["equiv", path, "--entry", "g", "--trials", "20"]) == 0
        assert capsys.readouterr().out.startswith("PASS g: 20 trials")

    def test_apply_binders_avoid_a_called_function(self, mlg, tmp_path,
                                                   capsys):
        # `k` in the lambda body is the function, not apply's kont binder
        path = mlg("let k (x : int) : int = x + 1\n"
                   "let h (g : int -> int) : int = g 1\n"
                   "let u (y : int) : int = h (fun (x : int) : int -> k x)\n")
        assert main(["emit", path, "-o", str(tmp_path / "out")]) == 0
        whyml = (tmp_path / "out" / "prog.mlw").read_text()
        assert "let rec function apply0 (k_g : kont0) (arg : int)" in whyml
        assert "| K0 -> let x = arg in (k x)" in whyml
        capsys.readouterr()
        assert main(["equiv", path, "--entry", "u", "--trials", "20"]) == 0
        assert capsys.readouterr().out.startswith("PASS u: 20 trials")


class TestTopLevelValueShadowsFunction:
    def test_the_later_value_is_not_called(self, mlg, tmp_path, capsys):
        # `f` in `g` names the value 3, not the function defined before it
        path = mlg("let f (x : int) : int = x + 1\n"
                   "let f = 3\n"
                   "let g (y : int) : int = f + y\n")
        # `emit` runs to its end; its module declares `f` twice, which
        # Why3 may reject, so what it returns is not pinned here
        main(["emit", path, "-o", str(tmp_path / "out")])
        capsys.readouterr()
        assert main(["equiv", path, "--entry", "g", "--trials", "20"]) == 0
        assert capsys.readouterr().out.startswith("PASS g: 20 trials")


class TestNestingLimit:
    @pytest.mark.parametrize("body", [
        " + ".join(["x"] * 600),
        "[" + "; ".join(["x"] * 3000) + "]",
        "(" * 1000 + "x" + ")" * 1000,
    ], ids=["sum-600", "list-3000", "parens-1000"])
    def test_deep_input_gets_diagnostic(self, mlg, capsys, body):
        ret = "int list" if body.startswith("[") else "int"
        path = mlg(f"let f (x : int) : {ret} = {body}\n")
        assert main(["check", path]) == 1
        err = capsys.readouterr().err
        assert re.match(r"error: nesting-too-deep: 1:\d+: ", err), err

    def test_deep_run_argument_gets_diagnostic(self, capsys):
        # the argument is parsed by `parse_expr`, which ran out of stack
        deep = "(" * 300 + "[1]" + ")" * 300
        assert main(["run", str(CORPUS / "reverse.mlg"), "--entry", "reverse",
                     "--arg", deep]) == 1
        err = capsys.readouterr().err
        assert re.match(r"error: nesting-too-deep: 1:\d+: ", err), err

    def test_deep_formula_gets_diagnostic(self):
        with pytest.raises(ParseError) as exc:
            parse_formula("(" * 300 + "x = 1" + ")" * 300)
        assert exc.value.kind == "nesting-too-deep"

    def test_just_under_limit_emits_smt(self, mlg, tmp_path, capsys):
        n = frontend.MAX_DEPTH - 3  # this shape nests n + 3 levels deep
        parse_program(nested_ifs(n))
        with pytest.raises(ParseError):
            parse_program(nested_ifs(n + 1))
        code = main(["emit", mlg(nested_ifs(n)), "--format", "smt2",
                     "-o", str(tmp_path / "out")])
        assert code == 0, capsys.readouterr().err

    @pytest.mark.parametrize("ret, body", [
        ("bool", " && ".join(["x > 0"] * 60)),
        ("int", balanced_sum(8)),
        ("int", "let t = (" + ", ".join(["x"] * 1000) + ") in x"),
    ], ids=["and-60", "sum-tree", "tuple-1000"])
    def test_vc_generation_overflow_gets_diagnostic(self, mlg, tmp_path,
                                                    capsys, ret, body):
        # wide but shallow definitions: VC generation's stack grows with
        # their depth only, so they emit their VC
        path = mlg(f"let f (x : int) : {ret} = {body}\n"
                   "(*@ r = f x\n    ensures r = r *)\n")
        assert main(["check", path]) == 0
        code = main(["emit", path, "--format", "smt2",
                     "-o", str(tmp_path / "out")])
        assert code == 0, capsys.readouterr().err
        assert (tmp_path / "out" / "prog_vcs" / "vc_f_0.smt2").exists()

    @pytest.mark.parametrize("body", [
        "let t = (" + ", ".join(["pos x"] * 1000) + ") in x",
        "let y : int = x + 1 in match y with"
        + "".join(f" | {i} -> {i}" for i in range(1200)) + " | _ -> 0 end",
    ], ids=["calls-1000", "tail-match-1200"])
    def test_deep_vc_never_crashes(self, mlg, tmp_path, capsys, body):
        # each contract call binds its result around the rest of the VC,
        # and each arm of a tail match is guarded by the negations of all
        # earlier arms: both formulas nest as wide as the definition
        path = mlg("let pos (x : int) : int = x\n"
                   "(*@ r = pos x\n    requires 0 <= x\n    ensures r = x *)\n"
                   f"let f (x : int) : int = {body}\n"
                   "(*@ r = f x\n    ensures r = x *)\n")
        code = main(["emit", path, "--format", "smt2",
                     "-o", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 0 or re.match(
            r"error: nesting-too-deep: 5:1: definition 'f' is too large "
            r"for VC generation", err), err


class TestPatternLocations:
    def test_tuple_pattern_mismatch_carries_line_col(self, mlg, capsys):
        path = mlg("let f (p : int * int) : int =\n"
                   "  match p with | (a, b, c) -> a end\n")
        assert main(["check", path]) == 1
        err = capsys.readouterr().err
        assert re.match(r"error: mismatch: 2:18: pattern has type", err), err


class TestSolverCommand:
    @pytest.mark.parametrize("script, expected", [
        ("print('unsat')", "unsat"),
        ("import sys; print(sys.argv[1])", "FILE"),
    ])
    @pytest.mark.parametrize("placeholder", [" {file}", ""])
    def test_command_with_arguments(self, tmp_path, monkeypatch, script,
                                    expected, placeholder):
        goal = tmp_path / "goal.smt2"
        goal.write_text("(check-sat)\n")
        cmd = f"{shlex.quote(sys.executable)} -c {shlex.quote(script)}"
        monkeypatch.setenv("DEFUN_SMT_SOLVER", cmd + placeholder)
        want = str(goal) if expected == "FILE" else expected
        assert run_solver(str(goal)) == want


POW = ("let rec pow (n : int) : int =\n"
       "  if n <= 0 then 1 else 10 * pow (n - 1)\n")


class TestBigIntegers:
    def test_run_prints_more_digits_than_str_allows(self, mlg, capsys):
        assert main(["run", mlg(POW), "--entry", "pow", "--arg", "5000"]) == 0
        assert capsys.readouterr().out == "1" + "0" * 5000 + "\n"

    def test_render_keeps_digits_and_sign(self):
        digits = "123456789" * 700  # 6,300 digits
        n = 0
        for i in range(0, len(digits), 100):
            n = n * 10**100 + int(digits[i:i + 100])
        assert render_value(n) == digits
        assert render_value(-n) == "-" + digits
        assert render_value(vlist([-(10**5000 + 7)])) == (
            "[-1" + "0" * 4999 + "7]")


needs_digit_limit = pytest.mark.skipif(
    not 0 < sys.get_int_max_str_digits() < 5000,
    reason="the interpreter converts 5,000-digit integers")


@needs_digit_limit
class TestLongIntegerLiterals:
    DIGITS = "9" * 5000

    def test_check_locates_the_literal(self, mlg, capsys):
        path = mlg(f"let f (x : int) : int = x + {self.DIGITS}\n")
        assert main(["check", path]) == 1
        err = capsys.readouterr().err
        assert re.match(r"error: 1:29: integer literal of 5000 digits "
                        r"exceeds the limit of \d+", err), err

    def test_run_argument_is_located(self, mlg, capsys):
        path = mlg("let f (x : int) : int = x\n")
        assert main(["run", path, "--entry", "f", "--arg", self.DIGITS]) == 1
        err = capsys.readouterr().err
        assert re.match(r"error: 1:1: integer literal of 5000 digits",
                        err), err


class TestUnicodeDigits:
    """`str.isdigit` accepts `²`, `int` does not: the lexer reads only
    decimal digits, so `²` is a located illegal character."""

    def test_check_locates_the_character(self, mlg, capsys):
        path = mlg("let f (x : int) : int = x + ²\n")
        assert main(["check", path]) == 1
        assert capsys.readouterr().err == (
            "error: 1:29: illegal character '²'\n")

    def test_run_argument_is_located(self, capsys):
        assert main(["run", str(CORPUS / "length.mlg"), "--entry", "len",
                     "--arg", "[1;²]"]) == 1
        assert capsys.readouterr().err == (
            "error: 1:4: illegal character '²'\n")


class TestTypeAliases:
    """Aliases are expanded everywhere, logical signatures included, and
    declared in neither the WhyML nor the SMT files."""

    PROGRAM = """\
type il = int list
type fn = int -> int
(*@ function total (l : il) : int *)
let twice (g : fn) (x : int) : int = g (g x)
let f (l : il) : int = twice (fun (y : int) : int -> y) 0
(*@ r = f l
      ensures r <= total l
      ensures 0 <= r *)
"""

    def test_whyml_round_trips(self):
        text = emit_whyml(pipeline(self.PROGRAM)[2])
        assert render_doc(parse_whyml(text)) == text
        assert "function total (l : list int) : int" in text

    def test_smt_files_are_closed(self):
        files = smt_files(self.PROGRAM)
        assert {"vc_f_0", "vc_f_1"} <= files.keys()
        for name, text in files.items():
            assert scope_errors(text) == [], name
        assert "(declare-fun total (IntList) Int)" in files["vc_f_0"]


class TestLogicalConstants:
    """A logical symbol without parameters is a constant that a spec may
    name, declared or defined."""

    @pytest.mark.parametrize("program, ensures, declared", [
        ("(*@ function c : int *)\n"
         "let f (x : int) : int = x\n"
         "(*@ r = f x\n"
         "      ensures r = c *)\n",
         "ensures { result = c }",
         "(declare-fun c () Int)"),
        ("(*@ function c : int = 3 *)\n"
         "(*@ function g (x : int) : int = x + 1 *)\n"
         "let h (x : int) : int = x + 1 - 3\n"
         "(*@ r = h x\n"
         "      ensures r = g x - c *)\n",
         "ensures { result = ((g x) - c) }",
         "(define-funs-rec ((c () Int) (g ((x Int)) Int)) (3 (+ x 1)))"),
    ], ids=["declared", "defined"])
    def test_whyml_round_trips_and_smt_files_declare_it(self, program,
                                                          ensures, declared):
        text = emit_whyml(pipeline(program)[2])
        assert render_doc(parse_whyml(text)) == text
        assert ensures in text
        files = smt_files(program)
        assert files
        for name, smt in files.items():
            assert scope_errors(smt) == [], name
            assert declared in smt, name

    def test_a_symbol_with_parameters_still_needs_its_arguments(self):
        with pytest.raises(SourceError,
                           match="unbound variable 'g' in formula"):
            pipeline("(*@ function g (x : int) : int *)\n"
                     "let f (x : int) : int = x\n"
                     "(*@ r = f x\n"
                     "      ensures r = g *)\n")
