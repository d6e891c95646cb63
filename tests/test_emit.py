import re

import pytest

from defun.emit import (
    emit_surface, emit_whyml, parse_whyml, render_doc, s_expr,
)
from defun.frontend import parse_formula, parse_program

from conftest import CORPUS_FILES, GOLDEN, corpus_text, pipeline
from genprog import gen_program


class TestGolden:
    def test_length_matches_golden_byte_exact(self, corpus_targets):
        _, _, t = corpus_targets["length.mlg"]
        expected = (GOLDEN / "length.mlw").read_text()
        assert emit_whyml(t, module_name="Length") == expected

    def test_emission_deterministic(self):
        out = [emit_whyml(pipeline(corpus_text("length.mlg"))[2]) for _ in range(3)]
        assert out[0] == out[1] == out[2]


class TestWhymlShape:
    @pytest.fixture(params=CORPUS_FILES)
    def text(self, request, corpus_targets):
        _, _, t = corpus_targets[request.param]
        return emit_whyml(t)

    def test_module_wrapper(self, text):
        lines = text.rstrip("\n").split("\n")
        assert lines[0].startswith("module ")
        assert lines[-1] == "end"

    def test_imports_are_used(self, text):
        if "use list.Length" in text:
            assert re.search(r"\blength\b", text.split("use list.Length")[1])
        if "use list.List" in text:
            assert "list int" in text or "Cons" in text or "Nil" in text

    def test_matches_end_terminated(self, text):
        # every match has a matching indented `end`; the final unindented
        # `end` closes the module
        indented_ends = len(re.findall(r"^ +end$", text, re.M))
        assert text.count("match ") == indented_ends

    def test_no_arrows_in_program_types(self, text):
        # arrow types may appear only inside logical binders (forall ... ->)
        for line in text.split("\n"):
            if line.lstrip().startswith(("let", "predicate", "type")):
                assert "->" not in line or "fun" in line, line

    def test_one_space_after_a_parameterless_name(self):
        _, _, t = pipeline("(*@ function c : int = 3 *)\n\nlet k : int = 3\n")
        text = emit_whyml(t)
        assert "\n  function c : int = 3\n" in text
        assert "\n  let k : int\n" in text


class TestWhymlRoundTrip:
    @pytest.mark.parametrize("name", CORPUS_FILES)
    def test_fixed_point(self, corpus_targets, name):
        _, _, t = corpus_targets[name]
        text = emit_whyml(t)
        doc = parse_whyml(text)
        assert render_doc(doc) == text

    @pytest.mark.parametrize("body", [
        "(match x with | 0 -> 1 | _ -> 2 end) + 1",
        "1 + (match x with | 0 -> 1 | _ -> 2 end)",
    ])
    def test_match_operand_fixed_point(self, body):
        text = emit_whyml(pipeline(f"let f (x : int) : int = {body}")[2])
        assert render_doc(parse_whyml(text)) == text

    def test_relation_operand_of_a_relation_is_enclosed(self):
        text = emit_whyml(pipeline(
            "let f (x : int) : int = x\n"
            "(*@ r = f x ensures (r = x) = (x = r) *)")[2])
        assert "    ensures { (result = x) = (x = result) }\n" in text
        assert render_doc(parse_whyml(text)) == text

    @pytest.mark.parametrize("seed", range(200))
    def test_generated_program_fixed_point(self, seed):
        text = emit_whyml(pipeline(gen_program(seed))[2])
        assert render_doc(parse_whyml(text)) == text


# every binary formula operator, and each pair of them whose precedence or
# associativity decides the tree
FORMULAS = [
    "a - b - c = 0",
    "a + b * c < d / 2",
    "a > b -> b >= c -> c <= a",
    "a = 1 \\/ b = 2 /\\ c = 3",
    "not a = b /\\ c < d",
    "forall x y : int. x < y -> a + x < a + y",
    "(c + -3) = d",
    "true",
    "a = b || c = d && e < f",
]


class TestSharedFormulaGrammar:
    """The WhyML reader parses formulas with the frontend's grammar."""

    @pytest.mark.parametrize("text", FORMULAS)
    def test_surface_fixed_point(self, text):
        f = parse_formula(text)
        assert parse_formula(s_expr(f)) == f

    @pytest.mark.parametrize("text", FORMULAS)
    def test_whyml_lemma_reads_back(self, text):
        src = f"(*@ lemma l : forall a b c d e f : int. {text} *)\n"
        t = pipeline(src)[2]
        whyml = emit_whyml(t)
        doc = parse_whyml(whyml)
        (lemma,) = [item for kind, item in doc.items if kind == "lemma"]
        assert lemma.formula == t.lemmas[0].formula
        assert render_doc(doc) == whyml


class TestSurfaceRoundTrip:
    @pytest.mark.parametrize("name", CORPUS_FILES)
    def test_fixed_point(self, name):
        src = corpus_text(name)
        p = parse_program(src)
        printed = emit_surface(p)
        p2 = parse_program(printed)
        assert emit_surface(p2) == printed

    @pytest.mark.parametrize("name", CORPUS_FILES)
    def test_reparse_preserves_semantics(self, name):
        src = corpus_text(name)
        p = parse_program(src)
        p2 = parse_program(emit_surface(p))
        assert p2 == p


# Each program reaches one place where the emitter meets a builtin: the
# `use` lines must name exactly the theories of the builtins it wrote.
IMPORT_CASES = {
    "list_type": ("let f (l : int list) : int = 0", ["list.List"]),
    "tree_type": ("let f (t : int tree) : int = 0", ["tree.Tree"]),
    "list_literal": ("let f (x : int) : int = let l = [x] in x",
                     ["list.List"]),
    "list_constructor": (
        "let f (x : int) : int = let l = Cons (x, Nil) in x", ["list.List"]),
    "tree_constructor": (
        "let f (x : int) : int = let t = Node (Empty, x, Empty) in x",
        ["tree.Tree"]),
    "list_pattern": (
        "let f (x : int) : int = match [x] with | [] -> 0 | h :: _ -> h",
        ["list.List"]),
    "tree_pattern": (
        "let f (x : int) : int =\n"
        "  match Node (Empty, x, Empty) with | Empty -> 0 | Node (_, v, _) -> v",
        ["tree.Tree"]),
    "list_formula": (
        "let f (x : int) : int = x\n"
        "(*@ r = f x\n      ensures Cons r Nil = Cons x Nil *)", ["list.List"]),
    "tree_formula": (
        "let f (x : int) : int = x\n"
        "(*@ r = f x\n      ensures Node Empty r Empty = Node Empty x Empty *)",
        ["tree.Tree"]),
    "length": (
        "let f (l : int list) : int = 0\n"
        "(*@ r = f l\n      ensures r <= length l *)",
        ["list.List", "list.Length"]),
    "height": (
        "let f (t : int tree) : int = 0\n"
        "(*@ r = f t\n      ensures r <= height t *)",
        ["tree.Tree", "tree.Height"]),
    "max": ("let f (x : int) : int = x\n"
            "(*@ r = f x\n      ensures r = max x x *)", ["int.MinMax"]),
    "div_code": ("let f (x : int) : int = x / 2", ["int.ComputerDivision"]),
    "div_spec": ("let f (x : int) : int = x\n"
                 "(*@ r = f x\n      ensures r / 1 = x *)",
                 ["int.ComputerDivision"]),
    "logical_body": (
        "(*@ function g (l : int list) : int = length l + max 1 2 *)",
        ["int.MinMax", "list.List", "list.Length"]),
    # types and functions have separate namespaces
    "function_named_like_a_type": (
        "let tree (x : int) : int = x\nlet g (y : int) : int = tree y", []),
    "type_named_like_a_logical": (
        "type height = Low | High\nlet f (h : height) : int = 0", []),
}


@pytest.mark.parametrize("name", IMPORT_CASES)
def test_imports_follow_the_builtins_written(name):
    src, theories = IMPORT_CASES[name]
    text = emit_whyml(pipeline(src)[2])
    uses = [line for line in text.split("\n") if line.startswith("  use ")]
    assert uses == [f"  use {m}" for m in ["int.Int"] + theories]


class TestDivisionImport:
    DIV = """\
let q (a : int) (b : int) : int = a / b
(*@ r = q a b
      requires 0 < b
      ensures r = a / b *)
"""

    def test_truncating_division_imported_when_used(self):
        text = emit_whyml(pipeline(self.DIV)[2])
        header = text.split("\n\n")[0].split("\n")
        assert header[1:] == ["  use int.Int", "  use int.ComputerDivision"]
        assert render_doc(parse_whyml(text)) == text

    @pytest.mark.parametrize("name", CORPUS_FILES)
    def test_not_imported_otherwise(self, corpus_targets, name):
        assert "ComputerDivision" not in emit_whyml(corpus_targets[name][2])
