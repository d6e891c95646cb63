import importlib.util
import itertools
import json
import re
import shutil
import subprocess
import sys
from collections import Counter

import pytest

from defun.interp import VConstr, eval_ho
from defun.syntax import (
    App, BinOp, BoolLit, ConstructorApp, Forall, IntLit, LetIn, Match, Not,
    TupleE, TBool, TInt, TNamed, Var, spine, walk,
)
from defun.vcgen import (
    SmtEmitter, emit_smt, generate_vcs, pattern_cond, run_solver,
    solver_command,
)

from conftest import CORPUS_FILES, ROOT, corpus_text, pipeline
from genprog import gen_program

EXPECTED_COUNTS = {
    "reverse.mlg": 2,
    "length.mlg": 5,
    "height.mlg": 7,
    "smallstep.mlg": 18,
}


class TestVcInventory:
    @pytest.mark.parametrize("name", CORPUS_FILES)
    def test_counts_frozen(self, corpus_targets, name):
        _, _, t = corpus_targets[name]
        assert len(generate_vcs(t)) == EXPECTED_COUNTS[name]

    def test_smallstep_kinds(self, corpus_targets):
        _, _, t = corpus_targets["smallstep.mlg"]
        kinds = Counter(vc.kind for vc in generate_vcs(t))
        assert kinds == Counter({
            "postcondition": 10,
            "precondition-at-call": 5,
            "absurd-unreachable": 2,
            "lemma": 1,
        })

    def test_lemma_comes_first(self, corpus_targets):
        _, _, t = corpus_targets["smallstep.mlg"]
        vcs = generate_vcs(t)
        assert vcs[0].kind == "lemma"
        assert vcs[0].origin[0] == "post_eval"

    def test_names_unique_and_origin_defs_exist(self, corpus_targets):
        for name, (_, _, t) in corpus_targets.items():
            vcs = generate_vcs(t)
            names = [vc.name for vc in vcs]
            assert len(set(names)) == len(names)
            defs = ({d.name for d in t.items} | {d.name for d in t.apply_defs}
                    | {l.name for l in t.lemmas})
            for vc in vcs:
                assert vc.origin[0] in defs


# ---------------------------------------------------------------------------
# SMT-LIB well-formedness, checked with an independent S-expression reader


def parse_sexprs(text: str):
    forms, stack, cur = [], [], None
    tok = ""
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c == ";":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if c == "|":
            j = text.index("|", i + 1)
            tok += text[i : j + 1]
            i = j + 1
            continue
        if c in "() \t\n":
            if tok:
                (stack[-1] if stack else forms).append(tok)
                tok = ""
            if c == "(":
                stack.append([])
            elif c == ")":
                done = stack.pop()
                (stack[-1] if stack else forms).append(done)
            i += 1
            continue
        tok += c
        i += 1
    if tok:
        forms.append(tok)
    assert not stack, "unbalanced parentheses"
    return forms


KNOWN_HEADS = {
    "set-logic", "declare-datatypes", "declare-fun", "declare-const",
    "define-fun", "define-fun-rec", "define-funs-rec", "assert", "check-sat",
}

# ---------------------------------------------------------------------------
# Closedness: every symbol of a file is an SMT-LIB builtin, a numeral,
# declared by an earlier command of the same file, or bound around it; no
# symbol is declared twice, and no application lacks arguments (SMT-LIB 2.6
# has only `( <qual_identifier> <term>+ )`).

BUILTIN_SORTS = {"Int", "Bool"}
BUILTIN_FUNS = {
    "true", "false", "ite", "=", "distinct", "+", "-", "*", "div", "mod",
    "abs", "<", "<=", ">", ">=", "and", "or", "not", "=>", "xor",
}


def scope_errors(text: str) -> list[str]:
    """The faults of an SMT-LIB2 file, in order of appearance: a symbol
    that nothing declares or binds before its use, `(f)` for an
    application of `f` to no arguments, and `redeclared f`; empty for a
    closed file."""
    sorts, funs, bad = set(BUILTIN_SORTS), set(BUILTIN_FUNS), []

    def declare(names, into=funs):
        for n in names:
            if n in into:
                bad.append(f"redeclared {n}")
            into.add(n)

    def sort(s, params=()):
        if isinstance(s, str):
            if s not in sorts and s not in params:
                bad.append(s)
        else:
            sort(s[0], params)
            for a in s[1:]:
                sort(a, params)

    def term(t, bound):
        if isinstance(t, str):
            if not (t.isdigit() or t in bound or t in funs):
                bad.append(t)
            return
        head, *args = t
        if not args:
            bad.append(f"({head})")
        if isinstance(head, list):  # ((_ is C) x)
            assert head[:2] == ["_", "is"], head
            term(head[2], bound)
        elif head in ("forall", "exists"):
            for _, s in args[0]:
                sort(s)
            term(args[1], bound | {n for n, _ in args[0]})
            return
        elif head == "let":
            for _, v in args[0]:
                term(v, bound)
            term(args[1], bound | {n for n, _ in args[0]})
            return
        else:
            term(head, bound)
        for a in args:
            term(a, bound)

    def define(name, params, ret, body):
        for _, s in params:
            sort(s)
        sort(ret)
        term(body, {n for n, _ in params})

    for form in parse_sexprs(text):
        head, *args = form
        if head == "declare-datatypes":
            declare((n for n, _ in args[0]), sorts)
            for body in args[1]:
                params = ()
                if body[0] == "par":
                    params, body = set(body[1]), body[2]
                for ctor, *sels in body:
                    declare([ctor])
                    for sel, s in sels:
                        sort(s, params)
                        declare([sel])
        elif head == "declare-fun":
            for s in args[1]:
                sort(s)
            sort(args[2])
            declare([args[0]])
        elif head == "declare-const":
            sort(args[1])
            declare([args[0]])
        elif head == "define-fun":
            define(*args)
            declare([args[0]])
        elif head == "define-fun-rec":
            declare([args[0]])
            define(*args)
        elif head == "define-funs-rec":
            declare(sig[0] for sig in args[0])
            for sig, body in zip(args[0], args[1]):
                define(*sig, body)
        elif head == "assert":
            term(args[0], set())
    return bad


@pytest.fixture(scope="module")
def emitted(corpus_targets, tmp_path_factory):
    out = {}
    for name, (_, _, t) in corpus_targets.items():
        d = tmp_path_factory.mktemp(name.replace(".", "_"))
        emit_smt(generate_vcs(t), t, d)
        out[name] = d
    return out


class TestSmtFiles:
    def test_every_file_well_formed(self, emitted):
        seen = 0
        for d in emitted.values():
            for path in sorted(d.glob("*.smt2")):
                seen += 1
                forms = parse_sexprs(path.read_text())
                assert forms[0] == ["set-logic", "ALL"]
                assert forms[-1] == ["check-sat"]
                assert forms[-2][0] == "assert" and forms[-2][1][0] == "not"
                for form in forms:
                    assert isinstance(form, list) and form[0] in KNOWN_HEADS
        assert seen == sum(EXPECTED_COUNTS.values())

    def test_index_manifest(self, emitted):
        for name, d in emitted.items():
            idx = json.loads((d / "index.json").read_text())
            assert len(idx) == EXPECTED_COUNTS[name]
            for entry in idx:
                assert set(entry) == {
                    "name", "file", "definition", "kind", "loc"}
                assert (d / entry["file"]).exists()
                loc = entry["loc"]
                assert loc is None or re.fullmatch(r"\d+:\d+", loc), loc

    def test_index_locates_definitions(self, emitted):
        idx = json.loads((emitted["smallstep.mlg"] / "index.json").read_text())
        locs = {e["name"]: e["loc"] for e in idx}
        assert locs["vc_post_eval_0"] == "68:1"  # the lemma
        assert locs["vc_red_0"] == "56:1"  # `let rec red`
        # an arm of a generated apply function is located at its lambda
        assert locs["vc_apply0_0"] == "26:10"

    def test_index_locates_apply_arms(self, emitted):
        idx = json.loads((emitted["length.mlg"] / "index.json").read_text())
        locs = {e["name"]: e["loc"] for e in idx}
        # the `fun` passed by `length_cps`, then the one passed by `len`
        assert (locs["vc_apply0_0"], locs["vc_apply0_1"]) == ("6:10", "13:17")
        assert None not in locs.values()

    def test_index_locates_absurd_arms(self, tmp_path):
        # the `absurd` arm of a non-exhaustive match is located at the match
        _, _, t = pipeline(
            "type color = Red | Green | Blue\n"
            "let g (c : color) (x : int) : int =\n"
            "  let y : int = match c with | Red -> x | Green -> x + 1 end in\n"
            "  match c with | Red -> y | Green -> y - 1 end\n"
            "(*@ r = g c x\n    ensures r = x *)\n")
        idx = emit_smt(generate_vcs(t), t, tmp_path)
        assert [e["loc"] for e in idx if e["kind"] == "absurd-unreachable"] \
            == ["3:17", "4:3"]

    def test_spec_carrying_callees_stay_uninterpreted(self, emitted):
        """Functions with contracts must never receive SMT definitions —
        their calls are encoded through requires/ensures only."""
        for path in sorted(emitted["smallstep.mlg"].glob("*.smt2")):
            for form in parse_sexprs(path.read_text()):
                if form[0] in ("define-fun", "define-fun-rec",
                               "define-funs-rec"):
                    text = json.dumps(form)
                    for fn in ("decompose_term", "decompose",
                               "head_reduction", "red"):
                        assert f'"{fn}"' not in text

    def test_deterministic(self, corpus_targets, tmp_path):
        _, _, t = corpus_targets["length.mlg"]
        a, b = tmp_path / "a", tmp_path / "b"
        emit_smt(generate_vcs(t), t, a)
        emit_smt(generate_vcs(t), t, b)
        for fa in sorted(a.iterdir()):
            assert fa.read_text() == (b / fa.name).read_text()

    def test_files_do_not_depend_on_emission_order(self, corpus_targets,
                                                   tmp_path):
        targets = [t for _, _, t in corpus_targets.values()]
        targets += [pipeline(gen_program(s))[2] for s in range(40)]
        for i, t in enumerate(targets):
            vcs = generate_vcs(t)
            a, b = tmp_path / f"{i}a", tmp_path / f"{i}b"
            emit_smt(vcs, t, a)
            emit_smt(vcs[::-1], t, b)
            for vc in vcs:
                name = f"{vc.name}.smt2"
                assert (a / name).read_text() == (b / name).read_text()


class TestOverwrite:
    """Emitting into a directory that already holds the files leaves
    exactly the new bytes in each."""

    def vcs(self):
        """The VCs of a program with a non-ASCII definition name, the
        first of them without a location."""
        _, _, t = pipeline("let café (x : int) : int = x + 1\n"
                           "(*@ r = café x\n      ensures r = x + 1 *)\n"
                           "let h (k : int -> int) : int = k 1\n"
                           "let g (y : int) : int = h (fun (x : int) : int "
                           "-> café x)\n")
        vcs = generate_vcs(t)
        vcs[0].origin = (vcs[0].origin[0], None, vcs[0].kind)
        return t, vcs

    def test_longer_files_are_cut_to_the_new_bytes(self, tmp_path):
        t, vcs = self.vcs()
        fresh, old = tmp_path / "fresh", tmp_path / "old"
        emit_smt(vcs, t, fresh)
        old.mkdir()
        names = sorted(p.name for p in fresh.iterdir())
        for name in names:
            (old / name).write_bytes(b"junk\n" * 2048)
        emit_smt(vcs, t, old)
        assert sorted(p.name for p in old.iterdir()) == names
        for name in names:
            assert (old / name).read_bytes() == (fresh / name).read_bytes()

    def test_files_only_the_old_index_lists_are_removed(self, tmp_path):
        f = "let f (x : int) : int = x\n(*@ r = f x\n    ensures r = x *)\n"
        g = "let g (y : int) : int = y\n(*@ r = g y\n    ensures r = y *)\n"
        _, _, t = pipeline(f + g)
        emit_smt(generate_vcs(t), t, tmp_path / "out")
        assert (tmp_path / "out" / "vc_g_0.smt2").exists()
        (tmp_path / "out" / "notes.txt").write_text("kept")
        _, _, t = pipeline(f)
        manifest = emit_smt(generate_vcs(t), t, tmp_path / "out")
        assert [e["file"] for e in manifest] == ["vc_f_0.smt2"]
        assert sorted(p.name for p in (tmp_path / "out").iterdir()) == [
            "index.json", "notes.txt", "vc_f_0.smt2"]

    def test_names_outside_the_directory_are_not_removed(self, tmp_path):
        t, vcs = self.vcs()
        out = tmp_path / "out"
        out.mkdir()
        (tmp_path / "outside.smt2").write_text("kept")
        (out / "index.json").write_text(json.dumps(
            [{"file": "../outside.smt2"}, {"file": str(tmp_path)}]))
        emit_smt(vcs, t, out)
        assert (tmp_path / "outside.smt2").read_text() == "kept"

    def test_index_is_the_manifest_as_json(self, tmp_path):
        t, vcs = self.vcs()
        manifest = emit_smt(vcs, t, tmp_path)
        assert manifest[0]["loc"] is None
        assert "café" in {e["definition"] for e in manifest}
        assert ((tmp_path / "index.json").read_text()
                == json.dumps(manifest, indent=2) + "\n")


def declared(text: str) -> list[str]:
    """The sorts and functions a file declares, in order; a block's
    members one by one."""
    out = []
    for form in parse_sexprs(text):
        if form[0] in ("declare-datatypes", "define-funs-rec"):
            out += [member[0] for member in form[1]]
        elif form[0] in ("declare-fun", "define-fun", "define-fun-rec"):
            out.append(form[1])
    return out


def smt_files(text: str) -> dict:
    """VC name -> the text of its SMT file, for one program."""
    _, _, t = pipeline(text)
    emitter = SmtEmitter(t)
    return {vc.name: emitter.emit_vc(vc) for vc in generate_vcs(t)}


class TestClosedFiles:
    """A file declares what its VC reaches, and leaves out nothing that its
    declarations or assertions use."""

    def test_corpus(self, emitted):
        for d in emitted.values():
            for path in sorted(d.glob("*.smt2")):
                assert scope_errors(path.read_text()) == [], path.name

    def test_generated_programs(self):
        for seed in range(200):
            for name, text in smt_files(gen_program(seed)).items():
                assert scope_errors(text) == [], (seed, name)

    def test_ladders(self):
        for n in range(2, 13):
            for name, text in smt_files(ladder_source(n, [5] * n)).items():
                assert scope_errors(text) == [], (n, name)

    def test_parameter_named_like_a_function(self):
        # `g`'s file declares its parameter `f` and defines the function
        # `f`, which `k` calls
        files = smt_files("let f (x : int) : int = x + 1\n"
                          "let k (x : int) : int = f x\n"
                          "let g (f : int) : int = k f\n"
                          "(*@ r = g f\n    ensures r = f + 1 *)\n")
        assert "(define-funs-rec ((f " in files["vc_g_0"]
        for name, text in files.items():
            assert scope_errors(text) == [], name

    def test_checker_flags_a_missing_definition(self, emitted):
        text = (emitted["height.mlg"] / "vc_height_tree_0.smt2").read_text()
        assert "(define-fun max " in text
        cut = "".join(line for line in text.splitlines(keepends=True)
                      if not line.startswith("(define-fun max "))
        assert set(scope_errors(cut)) == {"max"}

    def test_checker_flags_a_binder_out_of_scope(self):
        text = ("(set-logic ALL)\n(declare-const a Int)\n"
                "(assert (forall ((b Int)) (= a b)))\n"
                "(assert (let ((c a)) (= c b)))\n(check-sat)\n")
        assert scope_errors(text) == ["b"]

    def test_checker_flags_an_application_without_arguments(self):
        text = ("(set-logic ALL)\n(declare-fun absurd-Int () Int)\n"
                "(assert (= (absurd-Int) absurd-Int))\n(check-sat)\n")
        assert scope_errors(text) == ["(absurd-Int)"]

    def test_checker_flags_a_symbol_declared_twice(self):
        text = ("(set-logic ALL)\n"
                "(declare-datatypes ((IntList 0)) (((Nil) (Cons (Cons_0 Int) "
                "(Cons_1 IntList)))))\n"
                "(define-fun-rec length ((l IntList)) Int (ite ((_ is Nil) l) "
                "0 (+ 1 (length (Cons_1 l)))))\n"
                "(declare-const length Int)\n"
                "(declare-datatypes ((IntList 0)) (((Empty))))\n"
                "(assert (= length 0))\n(check-sat)\n")
        assert scope_errors(text) == [
            "redeclared length", "redeclared IntList"]


class TestPruning:
    PROGRAM = """\
type color = Red | Green

(*@ function double (x : int) : int = x + x *)
(*@ function triple (x : int) : int = x + x + x *)
(*@ lemma double_def : forall x : int. double x = 2 * x *)

let unrelated (c : color) : int =
  match c with
  | Red -> 1
  | Green -> 2
  end

let h (x : int) : int = x * 2
let g (x : int) : int = h x + 1
let f (x : int) : int = g x
let k (x : int) : int = f x
(*@ r = k x
    ensures r = 2 * x + 1 *)
"""

    def test_file_declares_only_what_its_vc_reaches(self):
        files = smt_files(self.PROGRAM)
        # the lemma mentions `double`, and the goal the chain f -> g -> h;
        # `triple`, `unrelated`, `color` and `max` are reached by nothing
        assert declared(files["vc_k_0"]) == ["double", "h", "g", "f"]
        assert declared(files["vc_double_def_0"]) == ["double"]

    def test_call_chain_kept_in_one_block(self):
        text = smt_files(self.PROGRAM)["vc_k_0"]
        blocks = [[member[0] for member in form[1]]
                  for form in parse_sexprs(text)
                  if form[0] == "define-funs-rec"]
        assert blocks == [["double"], ["h", "g", "f"]]

    def test_lemma_hypothesis_keeps_its_symbols(self):
        text = smt_files(self.PROGRAM)["vc_k_0"]
        assert "(assert (forall ((x Int)) (= (double x) (* 2 x))))" in text
        assert scope_errors(text) == []
        # a logical that no hypothesis mentions is left out
        assert "triple" not in declared(text)

    def test_datatype_reached_through_a_constructor(self):
        text = smt_files(self.PROGRAM.replace(
            "let k (x : int) : int = f x",
            "let k (x : int) : int = f x + unrelated Red"))["vc_k_0"]
        assert declared(text) == ["color", "absurd-Int", "double",
                                  "unrelated", "h", "g", "f"]
        assert scope_errors(text) == []


# ---------------------------------------------------------------------------
# Division truncates toward zero in the interpreter, and so must the SMT
# encoding: ground VCs are evaluated here under SMT-LIB's Euclidean `div`.


def smt_eval(term, funs, env):
    if isinstance(term, str):
        if term in env:
            return env[term]
        if term in ("true", "false"):
            return term == "true"
        return int(term)
    head, *args = term
    if head == "ite":
        c, a, b = args
        return smt_eval(a if smt_eval(c, funs, env) else b, funs, env)
    vals = [smt_eval(a, funs, env) for a in args]
    if head in funs:
        params, body = funs[head]
        return smt_eval(body, funs, dict(zip(params, vals)))
    if head == "-" and len(vals) == 1:
        return -vals[0]
    x, y = vals if len(vals) == 2 else (vals[0], None)
    return {
        "+": lambda: x + y, "-": lambda: x - y, "*": lambda: x * y,
        "div": lambda: x // y if y > 0 else -(x // -y),  # Euclidean
        "=": lambda: x == y, "<": lambda: x < y, "<=": lambda: x <= y,
        ">=": lambda: x >= y, "not": lambda: not x,
    }[head]()


def smt_asserts(text: str) -> list:
    """The value of each `assert` in a ground SMT-LIB2 file."""
    funs, env, out = {}, {}, []
    for form in parse_sexprs(text):
        if form[0] == "define-fun":
            funs[form[1]] = ([p for p, _ in form[2]], form[4])
        elif form[0] == "declare-const":
            env[form[1]] = 0
        elif form[0] == "assert":
            out.append(smt_eval(form[1], funs, env))
    return out


def src_int(n: int) -> str:
    return str(n) if n >= 0 else f"(0 - {-n})"


class TestTruncatingDivision:
    @pytest.mark.parametrize("a,b", [(7, 2), (-7, 2), (7, -2), (-7, -2)])
    def test_smt_agrees_with_interpreter(self, a, b, tmp_path):
        expected = int(a / b)
        text = (f"let q (u : int) : int = {src_int(a)} / {src_int(b)}\n"
                f"(*@ r = q u\n      ensures r = {src_int(expected)} *)\n")
        p, _, t = pipeline(text)
        assert eval_ho(p, "q", [0]) == expected
        vcs = generate_vcs(t)
        emit_smt(vcs, t, tmp_path)
        (vc,) = vcs
        # the only assertion is the negated goal: false means valid
        assert smt_asserts((tmp_path / f"{vc.name}.smt2").read_text()) == [
            False]

    def test_definition_only_when_dividing(self, emitted):
        for d in emitted.values():
            for path in d.glob("*.smt2"):
                assert "div" not in path.read_text()


# ---------------------------------------------------------------------------
# Enumeration-based soundness spot check: the length VCs, interpreted over
# small finite domains, must all be valid.

INTS = [-2, 0, 1, 3]


def enum_values(ty, t, depth=2, ints=INTS):
    if isinstance(ty, TInt):
        return ints
    if isinstance(ty, TBool):
        return [False, True]
    if isinstance(ty, TNamed) and ty.name == "list":
        vals = [VConstr("Nil", ())]
        for k in range(depth):
            vals += [VConstr("Cons", (h, tl))
                     for h in (0, 2) for tl in vals if _len(tl) == k]
        return vals
    decl = next((d for d in t.kont_decls + t.source_types
                 if d.name == ty.name), None)
    assert decl is not None, f"no enumeration for {ty}"
    vals = []
    frontier = [VConstr(c, ()) for c, f in decl.variants if not f]
    vals += frontier
    for _ in range(depth):
        new = []
        for c, fields in decl.variants:
            if not fields:
                continue
            pools = [enum_values(ft, t, 0, ints) if not isinstance(ft, TNamed)
                     or ft.name != ty.name else vals for ft in fields]
            for combo in itertools.product(*pools):
                new.append(VConstr(c, combo))
        vals = vals + [v for v in new if v not in vals]
    return vals


def _len(v):
    n = 0
    while v.name == "Cons":
        n, v = n + 1, v.args[1]
    return n


class Evaluator:
    def __init__(self, t, ints=INTS):
        self.t = t
        self.ints = ints
        self.posts = {p.name: p for p in t.post_defs}
        self.applies = {d.name: d for d in t.apply_defs}

    def ev(self, f, env):
        if isinstance(f, Var):
            return env[f.name]
        if isinstance(f, IntLit):
            return f.value
        if isinstance(f, BoolLit):
            return f.value
        if isinstance(f, ConstructorApp):
            return VConstr(f.name, tuple(self.ev(a, env) for a in f.args))
        if isinstance(f, TupleE):
            return tuple(self.ev(x, env) for x in f.items)
        if isinstance(f, BinOp) and f.op in ("+", "-", "*", "/"):
            a, b = self.ev(f.left, env), self.ev(f.right, env)
            if f.op == "+":
                return a + b
            if f.op == "-":
                return a - b
            if f.op == "*":
                return a * b
            q = abs(a) // abs(b)
            return q if (a >= 0) == (b >= 0) else -q
        if isinstance(f, BinOp) and f.op == "=":
            return self.ev(f.left, env) == self.ev(f.right, env)
        if isinstance(f, BinOp) and f.op == "<":
            return self.ev(f.left, env) < self.ev(f.right, env)
        if isinstance(f, BinOp) and f.op == "<=":
            return self.ev(f.left, env) <= self.ev(f.right, env)
        if isinstance(f, BinOp) and f.op == "/\\":
            return self.ev(f.left, env) and self.ev(f.right, env)
        if isinstance(f, BinOp) and f.op == "\\/":
            return self.ev(f.left, env) or self.ev(f.right, env)
        if isinstance(f, Not):
            return not self.ev(f.body, env)
        if isinstance(f, BinOp) and f.op == "->":
            return (not self.ev(f.left, env)) or self.ev(f.right, env)
        if isinstance(f, LetIn):
            d = f.defn
            return self.ev(f.body, {**env, d.name: self.ev(d.body, env)})
        if isinstance(f, Match):
            scrut = self.ev(f.scrutinee, env)
            for pat, body in f.arms:
                ok, binds = self.match(pat, scrut)
                if ok:
                    return self.ev(body, {**env, **binds})
            raise AssertionError("no arm matched in formula match")
        if isinstance(f, Forall):
            def rec(bs, env):
                if not bs:
                    return self.ev(f.body, env)
                (name, ty), rest = bs[0], bs[1:]
                return all(rec(rest, {**env, name: v})
                           for v in enum_values(ty, self.t, ints=self.ints))
            return rec(f.binders, env)
        if isinstance(f, App):
            return self.app(f, env)
        raise AssertionError(f"unhandled formula node {type(f).__name__}")

    def match(self, pat, v):
        cond, binds = pattern_cond(pat, Var("%scrut%"))
        env = {"%scrut%": v}
        if not self.ev(cond, env):
            return False, {}
        return True, {n: self.ev(t, env) for n, t in binds.items()}

    def app(self, f, env):
        head, args = spine(f)
        name = head.name
        args = [self.ev(a, env) for a in args]
        if name.startswith("is-"):
            return args[0].name == name[3:]
        if name.startswith("sel-"):
            ctor, i = name[4:].rsplit("-", 1)
            if ctor.startswith("tup"):
                return args[0][int(i)]
            assert args[0].name == ctor
            return args[0].args[int(i)]
        if name == "length":
            return _len(args[0])
        if name in self.posts:
            p = self.posts[name]
            env2 = {p.kont_param: args[0], p.arg_param: args[1],
                    p.result_param: args[2]}
            return self.ev(Match(Var(p.kont_param), p.arms), env2)
        raise AssertionError(f"unhandled logical symbol {name}")


class TestEnumerationSoundness:
    def test_length_vcs_valid_over_finite_domains(self, corpus_targets):
        _, _, t = corpus_targets["length.mlg"]
        ev = Evaluator(t)
        for vc in generate_vcs(t):
            closed = Forall(vc.binders,
                            BinOp("->", conj(vc.hypotheses), vc.goal))
            assert ev.ev(closed, {}), f"{vc.name} falsified by enumeration"

    def test_enumeration_catches_a_wrong_goal(self, corpus_targets):
        _, _, t = corpus_targets["length.mlg"]
        ev = Evaluator(t)
        vc = generate_vcs(t)[0]
        broken = Forall(vc.binders,
                        BinOp("->", conj(vc.hypotheses), Not(vc.goal)))
        assert not ev.ev(broken, {})


# ---------------------------------------------------------------------------
# Join binders: an `if`/`match` whose value flows into later code is bound
# once to a fresh `join_k`, so VC size is linear in the number of branches.
# A branch value outside the enumerated ints would make the join hypothesis
# vacuous, hence the wider domain.

WIDE = range(-3, 16)


def _load_workloads():
    path = ROOT / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    mod = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = mod  # its dataclasses look their module up
    spec.loader.exec_module(mod)
    return mod


ladder_source = _load_workloads().ladder_source
LADDER_CONSTS = [4, 7, 2, 9, 5]


def with_ensures(text: str, ensures: str) -> str:
    head, _, _ = text.rpartition("ensures ")
    return head + "ensures " + ensures + " *)\n"


def vcs_of(text: str):
    _, _, t = pipeline(text)
    return t, generate_vcs(t)


def valid(t, vc, ints=WIDE) -> bool:
    closed = Forall(vc.binders, BinOp("->", conj(vc.hypotheses), vc.goal))
    return Evaluator(t, ints).ev(closed, {})


def all_valid(text: str, ints=WIDE) -> bool:
    t, vcs = vcs_of(text)
    return all(valid(t, vc, ints) for vc in vcs)


class TestJoinBinders:
    def ladder_bytes(self, n, tmp_path):
        t, vcs = vcs_of(ladder_source(n, [5] * n))
        assert len(vcs) == 1
        emit_smt(vcs, t, tmp_path / f"n{n}")
        return len((tmp_path / f"n{n}" / f"{vcs[0].name}.smt2").read_bytes())

    def test_ladder_bytes_grow_linearly(self, tmp_path):
        b6, b12, b24 = (self.ladder_bytes(n, tmp_path) for n in (6, 12, 24))
        assert abs((b24 - b12) - 2 * (b12 - b6)) <= 0.1 * 2 * (b12 - b6)

    def test_ladder_step_is_one_implication_per_branch(self):
        t, (vc,) = vcs_of(ladder_source(1, [4]))
        text = SmtEmitter(t).emit_vc(vc)
        assert "(=> (< a 4) (= join_0 (+ a 1)))" in text
        assert "(=> (not (< a 4)) (= join_0 a))" in text

    @pytest.mark.parametrize("n", range(1, 6))
    def test_ladder_sound_by_enumeration(self, n):
        text = ladder_source(n, LADDER_CONSTS[:n])
        assert all_valid(text)
        # all n steps increment from a = -3; none does from a = 9
        assert not all_valid(with_ensures(text, f"r <= a + {n - 1}"))
        assert not all_valid(with_ensures(text, "a + 1 <= r"))

    MATCH = """\
let f (l : int list) (a : int) : int =
  let y : int = match l with
    | [] -> a
    | h :: t -> a + 1
    end in
  y + 1
(*@ r = f l a
      ensures a + 1 <= r && r <= a + 2 *)
"""

    def test_non_tail_match_sound_by_enumeration(self):
        t, vcs = vcs_of(self.MATCH)
        assert "join_0" in str(vcs[0].goal)
        assert all_valid(self.MATCH)
        assert not all_valid(with_ensures(self.MATCH, "r <= a + 1"))
        assert not all_valid(with_ensures(self.MATCH, "a + 2 <= r"))

    CALLS = """\
let maxi (x : int) (y : int) : int = if x < y then y else x
(*@ r = maxi x y
      ensures x <= r && y <= r *)

let pos (x : int) : int = x
(*@ r = pos x
      requires 0 <= x
      ensures r = x *)

let f (a : int) (b : int) : int =
  let m : int = if a < 0 then 0 else maxi a b in
  pos m
(*@ r = f a b
      ensures 0 <= r *)
"""

    def test_non_tail_if_with_contract_calls(self):
        # four nested binders (a, b, join, res): a narrower domain keeps
        # this fast, and every value a branch can take is still in it
        ints = range(-3, 8)
        t, vcs = vcs_of(self.CALLS)
        pre = [vc for vc in vcs if vc.kind == "precondition-at-call"]
        assert len(pre) == 1
        # the precondition is checked of the join value, under the join fact
        assert pre[0].binders[-1][0].startswith("join_")
        assert valid(t, pre[0], ints)
        assert all_valid(self.CALLS, ints)
        assert not all_valid(with_ensures(self.CALLS, "r <= a"), ints)
        broken = self.CALLS.replace("then 0 else", "then a else")
        t, vcs = vcs_of(broken)
        (pre,) = [vc for vc in vcs if vc.kind == "precondition-at-call"]
        assert not valid(t, pre, ints)


class TestNestedJoins:
    """A branching node inside a join branch is a value too: it joins
    again, through its own binder, instead of splitting the branch."""

    PROGRAM = """\
let h (a : int) (b : int) : int =
  let y : int = if a < 0 then (if b < 0 then 0 else b) + 1 else a in
  y
(*@ r = h a b
      ensures 0 <= r *)
"""

    def test_inner_branch_joins_once_inside_the_outer_fact(self):
        t, (vc,) = vcs_of(self.PROGRAM)
        binders = [n for f in walk(vc.goal) if type(f) is Forall
                   for n, _ in f.binders]
        assert binders == ["join_0", "join_1"]
        # join_1 is bound inside join_0's fact, in the `a < 0` branch
        (outer,) = [f for f in walk(vc.goal) if type(f) is Forall
                    and f.binders[0][0] == "join_0"]
        fact, rest = outer.body.left, outer.body.right
        assert "join_1" in str(fact) and "join_1" not in str(rest)
        assert all_valid(self.PROGRAM)
        assert not all_valid(with_ensures(self.PROGRAM, "1 <= r"))


class TestFreshBinders:
    """A contract result or join binder never captures a program name."""

    CAPTURE = {
        "res": """\
let g (x : int) : int = x
(*@ r = g x
    ensures r = x *)

let f (res_0 : int) : int = g 1
(*@ r = f res_0
    ensures r = res_0 *)
""",
        "join": """\
let f (join_0 : int) : int =
  let y : int = if join_0 < 0 then 0 else 1 in y
(*@ r = f join_0
    ensures r = join_0 *)
""",
    }

    @pytest.mark.parametrize("kind", ["res", "join"])
    def test_false_contract_is_falsified(self, kind):
        text = self.CAPTURE[kind]
        p, _, t = pipeline(text)
        assert eval_ho(p, "f", [5]) == 1  # so `ensures r = 5` is false
        (vc,) = [vc for vc in generate_vcs(t) if vc.origin[0] == "f"]
        assert not valid(t, vc)


class TestCaptureAvoidance:
    """Substituting a parameter for a name renames a `forall` binder that
    would capture it, in a checked spec and at a call's contract alike, so
    a false `ensures` stays unproved."""

    def only_vc(self, text, name):
        t, vcs = vcs_of(text)
        (vc,) = [vc for vc in vcs if vc.origin[0] == name]
        return t, vc

    def test_header_name_under_a_binder_of_the_parameters_name(self):
        # the clause says r = x + 1 of the parameter x, and f returns 0
        t, vc = self.only_vc(
            "let f (x : int) : int = 0\n"
            "(*@ r = f a ensures not (forall x : int. not (r = a + 1)) *)\n",
            "f")
        assert not valid(t, vc)

    def test_argument_under_a_callee_binder_of_its_name(self):
        # g's contract gives g x = x at the call, so r = x + 1 is false
        t, vc = self.only_vc(
            "let g (y : int) : int = y\n"
            "(*@ r = g y ensures forall x : int. x = x -> r = y *)\n\n"
            "let f (x : int) : int = g x\n"
            "(*@ r = f x ensures r = x + 1 *)\n",
            "f")
        assert not valid(t, vc)


def conj(fs):
    out = BoolLit(True)
    for f in fs:
        out = BinOp("/\\", out, f)
    return out


# ---------------------------------------------------------------------------
# Solver-backed checks, gated on an SMT solver being available

needs_solver = pytest.mark.skipif(
    solver_command() is None,
    reason="no SMT solver (set DEFUN_SMT_SOLVER or install z3)")


@needs_solver
class TestSolver:
    def test_all_corpus_vcs_discharge(self, emitted):
        for d in emitted.values():
            for path in sorted(d.glob("*.smt2")):
                assert run_solver(str(path)) == "unsat", path.name

    def test_lemma_necessity(self, corpus_targets, tmp_path):
        """The red VCs need the post_eval lemma: provable with it,
        unprovable without it."""
        _, _, t = corpus_targets["smallstep.mlg"]
        vcs = generate_vcs(t)
        lemma = next(vc for vc in vcs if vc.kind == "lemma")
        red_posts = [vc for vc in vcs
                     if vc.origin[0] == "red" and vc.kind == "postcondition"]
        assert red_posts

        with_dir = tmp_path / "with"
        emit_smt(red_posts, t, with_dir)
        results_with = [run_solver(str(p))
                        for p in sorted(with_dir.glob("*.smt2"))]
        assert all(r == "unsat" for r in results_with)

        for vc in red_posts:
            vc.hypotheses = [h for h in vc.hypotheses if h != lemma.goal]
        without_dir = tmp_path / "without"
        emit_smt(red_posts, t, without_dir)
        results_without = [run_solver(str(p))
                           for p in sorted(without_dir.glob("*.smt2"))]
        assert any(r != "unsat" for r in results_without)
