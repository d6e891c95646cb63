import pytest
from hypothesis import given, settings, strategies as st

from defun.errors import LexError, ParseError
from defun.frontend import parse_expr, parse_formula, parse_program, tokenize
from defun.syntax import (
    App, BinOp, ConstructorApp, Forall, IntLit, Lambda, LemmaDecl, LetDef,
    LetIn, Match, Not, PConstr, PTuple, PostMeta, Seq, TArrow, TupleE,
    TypeDecl, Var, INT, BOOL,
)

from conftest import CORPUS_FILES, corpus_text
from genprog import gen_program


class TestLexer:
    def test_type_variables_rejected(self):
        with pytest.raises(LexError):
            parse_program("let f (l : 'a list) : int = 0")

    def test_nested_comments_skipped(self):
        p = parse_program("(* a (* nested *) b *) let f (x : int) : int = x")
        assert len(p.items) == 1

    def test_spec_comment_is_not_plain_comment(self):
        p = parse_program(
            "let f (x : int) : int = x\n(*@ r = f x ensures r = x *)")
        assert p.items[0].spec is not None

    @pytest.mark.parametrize("source, where, message", [
        ("let x = 1\n  (* abc", "2:5", "unterminated comment"),
        ("a *) b", "1:3", "unmatched comment terminator"),
        ("(*@ ensures x", "1:14", "unterminated specification comment"),
        ("f [@gospel x", "1:3", "malformed gospel attribute"),
        ("x $ y", "1:3", "illegal character '$'"),
        ("x'", "1:1", "type variables are not supported: \"x'\""),
        ("x + ²", "1:5", "illegal character '²'"),  # `int` cannot read it
    ])
    def test_error_message_and_location(self, source, where, message):
        with pytest.raises(LexError) as exc:
            tokenize(source)
        assert str(exc.value) == f"{where}: {message}"

    @pytest.mark.parametrize("source, expected", [
        ("f [@gospel\n  {| ensures r |}] x",
         "ident f 1:1, attropen 1:3, kw ensures 2:6, ident r 2:14, "
         "attrclose |}] 2:16, ident x 2:20, eof 2:21"),
        ("let x = 1\r\n\tlet y",
         "kw let 1:1, ident x 1:5, op = 1:7, int 1 1:9, kw let 2:2, "
         "ident y 2:6, eof 2:7"),
        ("(* (*@ *) *) y", "ident y 1:14, eof 1:15"),
        ("a\n(* \n *)  b", "ident a 1:1, ident b 3:6, eof 3:7"),
        ("x² ٣", "ident x² 1:1, int ٣ 1:4, eof 1:5"),
    ])
    def test_token_locations(self, source, expected):
        assert ", ".join(
            f"{t.kind} {t.text} {t.loc}" if t.kind not in ("attropen", "eof")
            else f"{t.kind} {t.loc}" for t in tokenize(source)) == expected


def assert_token_locations(source):
    """Every token's text stands in the source at its location, and the
    locations strictly increase."""
    lines = source.split("\n")
    prev = None
    for t in tokenize(source):
        here = (t.loc.line, t.loc.col)
        assert prev is None or here > prev, (t, prev)
        prev = here
        if t.kind not in ("attropen", "eof"):
            line = lines[t.loc.line - 1]
            assert line.startswith(t.text, t.loc.col - 1), (t, line)


FRAGMENTS = ["let", "x", "Cons", "42", "x²", "٣", "(*@ ensures\r\n r *)", "(* c *)",
             "(* a\n (* b *) *)", "[@gospel {|", "[@gospel\r\n {|", "|}]",
             "->", "::", ";;", "/\\", "(", ")", "_", "|", "-3", " ", "\t",
             "\n", "\r\n"]


class TestTokenLocations:
    @pytest.mark.parametrize("name", CORPUS_FILES)
    def test_corpus(self, name):
        assert_token_locations(corpus_text(name))

    def test_generated_programs(self):
        for seed in range(200):
            assert_token_locations(gen_program(seed))

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.sampled_from(FRAGMENTS), max_size=40))
    def test_joined_fragments(self, parts):
        assert_token_locations("".join(parts))


class TestExpressions:
    def test_application_left_nested(self):
        e = parse_expr("f a b")
        assert isinstance(e, App) and isinstance(e.fn, App)

    def test_cmp_non_associative(self):
        with pytest.raises(ParseError):
            parse_expr("a < b < c")

    def test_gt_normalized_to_reversed_lt(self):
        e = parse_expr("a > b")
        assert isinstance(e, BinOp) and e.op == ">"

    def test_list_literal(self):
        e = parse_expr("[1;2]")
        assert isinstance(e, ConstructorApp) and e.name == "Cons"
        assert e.args[0] == IntLit(1)

    def test_negative_int(self):
        assert parse_expr("(-3)") == IntLit(-3)

    def test_constructor_tuple_splat(self):
        e = parse_expr("Sub (Const v, x)")
        assert isinstance(e, ConstructorApp)
        assert e.name == "Sub" and len(e.args) == 2

    def test_seq(self):
        assert isinstance(parse_expr("f x; g y"), Seq)

    def test_match_end_optional(self):
        src_with = "match l with | [] -> 0 | h :: t -> h end"
        src_without = "match l with | [] -> 0 | h :: t -> h"
        assert parse_expr(src_with) == parse_expr(src_without)


class TestLambdas:
    def test_attr_spec(self):
        e = parse_expr(
            "fun [@gospel {| ensures result = x |}] (x : int) : int -> x")
        assert isinstance(e, Lambda) and e.spec is not None
        assert e.spec.ensures and not e.spec.requires

    def test_unannotated_param_rejected(self):
        with pytest.raises(ParseError, match="annotated"):
            parse_expr("fun x -> x")

    def test_multi_param_lambda_normalized_at_parse(self):
        p = parse_program(
            "let g (f : int -> int -> int) : int = f 1 2\n"
            "let h (u : unit) : int = g (fun (x : int) (z : int) : int -> x)")
        lam = p.items[1].body.arg
        assert isinstance(lam, Lambda) and len(lam.params) == 1
        assert lam.body.chain == [("x", INT)]


class TestSpecs:
    def test_spec_block_attaches_to_previous_letdef(self):
        p = parse_program(
            "let f (x : int) : int = x\n"
            "(*@ r = f x\n      requires 0 <= x\n      ensures r = x *)")
        spec = p.items[0].spec
        assert spec.result_names == ["r"] and spec.arg_names == ["x"]
        assert len(spec.requires) == 1 and len(spec.ensures) == 1

    def test_multi_result_header(self):
        p = parse_program(
            "let f (x : int) : int * int = (x, x)\n"
            "(*@ a, b = f x ensures a = b *)")
        assert p.items[0].spec.result_names == ["a", "b"]

    def test_lemma_item(self):
        p = parse_program("(*@ lemma triv : forall n. n = n *)")
        lemma = p.items[0]
        assert isinstance(lemma, LemmaDecl) and lemma.name == "triv"

    def test_logical_function_and_predicate(self):
        p = parse_program(
            "(*@ function double (n : int) : int = n + n *)\n"
            "(*@ predicate pos (n : int) = 0 < n *)")
        assert [d.name for d in p.prelude] == ["double", "pos"]
        assert p.prelude[1].is_predicate and p.prelude[1].ret == BOOL


class TestFormulas:
    def test_forall_untyped_binder(self):
        f = parse_formula("forall n. n = n")
        assert isinstance(f, Forall) and f.binders[0][1] is None

    def test_forall_arrow_typed_binder(self):
        f = parse_formula("forall c : int -> int, x : int. true")
        assert f.binders[0][1] == TArrow(INT, INT)

    def test_implies_right_assoc(self):
        f = parse_formula("a = b -> b = c -> a = c")
        assert f.op == "->" and f.right.op == "->"

    def test_post_requires_ascription(self):
        f = parse_formula("post (k : int -> int) x r")
        assert isinstance(f, PostMeta) and f.fn_ty == TArrow(INT, INT)
        with pytest.raises(ParseError):
            parse_formula("post k x r")

    def test_ge_normalized(self):
        f = parse_formula("a >= b")
        assert f.op == parse_formula("b <= a").op

    def test_constructor_application_curried(self):
        f = parse_formula("r = Sub (Const v) x")
        assert isinstance(f.right, ConstructorApp)
        assert [type(a) for a in f.right.args] == [ConstructorApp, Var]

    def test_and_or_not(self):
        f = parse_formula("not (a = b) && (b = c || c = d)")
        assert f.op == "/\\" and isinstance(f.left, Not)


class TestLocations:
    def test_parse_error_located(self):
        with pytest.raises(ParseError) as exc:
            parse_program("let f (x : int) : int = = x")
        assert exc.value.loc.line == 1


class TestTypeDecls:
    def test_variant_decl(self):
        from defun.syntax import TNamed
        p = parse_program("type exp = Const of int | Sub of exp * exp")
        decl = p.items[0]
        assert isinstance(decl, TypeDecl)
        assert decl.variants == [("Const", [INT]),
                                 ("Sub", [TNamed("exp"), TNamed("exp")])]
