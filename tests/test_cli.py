import glob
import json
import os
import re
import shutil
import subprocess
import sys

import pytest

from defun.cli import main, parse_arg
from defun.interp import NIL, UNIT_V, VConstr, VTuple

from conftest import CORPUS, GOLDEN, ROOT, corpus_text


@pytest.fixture
def mlg(tmp_path):
    def write(text, name="prog.mlg"):
        p = tmp_path / name
        p.write_text(text)
        return str(p)
    return write


class TestCheck:
    def test_ok_exit_0(self, capsys):
        assert main(["check", str(CORPUS / "length.mlg")]) == 0
        assert "ok" in capsys.readouterr().out

    def test_ill_typed_exit_1(self, mlg, capsys):
        path = mlg("let f (u : unit) : int = true")
        assert main(["check", path]) == 1
        err = capsys.readouterr().err
        assert "mismatch" in err

    def test_parse_error_exit_1(self, mlg):
        assert main(["check", mlg("let f = = =")]) == 1

    def test_missing_file_exit_1(self, tmp_path):
        assert main(["check", str(tmp_path / "nope.mlg")]) == 1

    def test_usage_error_exit_2(self):
        assert main(["check"]) == 2
        assert main(["frobnicate"]) == 2


class TestRun:
    def test_source_eval(self, capsys):
        code = main(["run", str(CORPUS / "reverse.mlg"), "--entry", "reverse",
                     "--arg", "[1;2;3]"])
        assert code == 0
        assert capsys.readouterr().out.strip() == "[3;2;1]"

    def test_target_trace(self, capsys):
        code = main(["run", str(CORPUS / "reverse.mlg"), "--entry", "reverse",
                     "--arg", "[1;2;3]", "--target", "--trace"])
        assert code == 0
        out = capsys.readouterr().out.splitlines()
        assert out == [
            "[3;2;1]",
            "apply0 K0(3, K0(2, K0(1, K1))) []",
            "apply0 K0(2, K0(1, K1)) []",
            "apply0 K0(1, K1) []",
            "apply0 K1 []",
        ]

    def test_runtime_error_exit_1(self, mlg, capsys):
        path = mlg("let f (a : int) : int = a / 0")
        assert main(["run", path, "--entry", "f", "--arg", "3"]) == 1
        assert "division-by-zero" in capsys.readouterr().err

    def test_ill_arity_argument_matches_no_arm(self, capsys):
        # `--arg` values are not type-checked: `Sub` without its two fields
        # matches no `Sub(...)` pattern, since a constructor pattern
        # matches only a value of its own arity
        args = ["run", str(CORPUS / "smallstep.mlg"), "--entry", "red",
                "--arg", "Sub"]
        assert main(args) == 1
        assert ("absurd-reached: no match arm applies"
                in capsys.readouterr().err)
        assert main(args + ["--target"]) == 1
        assert ("absurd-reached: reached an absurd match arm"
                in capsys.readouterr().err)

    def test_bad_literal_exit_1(self, mlg):
        path = mlg("let f (a : int) : int = a")
        assert main(["run", path, "--entry", "f", "--arg", "wat"]) == 1

    def test_long_list_argument(self, capsys):
        items = [str(i % 10) for i in range(3000)]
        code = main(["run", str(CORPUS / "reverse.mlg"), "--entry", "reverse",
                     "--arg", "[" + ";".join(items) + "]"])
        assert code == 0
        assert capsys.readouterr().out.strip() == (
            "[" + ";".join(reversed(items)) + "]")

    def test_parse_arg_without_recursion(self):
        v = parse_arg("[" + ";".join(["1"] * 10**5) + "]")
        n = 0
        while v.name == "Cons":
            n, v = n + 1, v.args[1]
        assert n == 10**5
        assert parse_arg("(1, [2], Node (Empty, 3, Empty), true, ())") == (
            VTuple((1, VConstr("Cons", (2, NIL)),
                    VConstr("Node", (VConstr("Empty", ()), 3,
                                     VConstr("Empty", ()))), True, UNIT_V)))


class TestEmit:
    def test_whyml_matches_golden(self, tmp_path, capsys):
        code = main(["emit", str(CORPUS / "length.mlg"), "-o", str(tmp_path)])
        assert code == 0
        written = tmp_path / "length.mlw"
        assert capsys.readouterr().out.strip() == str(written)
        assert written.read_text() == (GOLDEN / "length.mlw").read_text()

    def test_smt_writes_vc_dir(self, tmp_path):
        code = main(["emit", str(CORPUS / "length.mlg"), "--format", "smt2",
                     "-o", str(tmp_path)])
        assert code == 0
        vcdir = tmp_path / "length_vcs"
        files = sorted(p.name for p in vcdir.iterdir())
        assert "index.json" in files
        assert sum(1 for f in files if f.endswith(".smt2")) == 5

    def test_untransformable_exit_1(self, mlg, capsys):
        path = mlg("let ap (f : bool -> bool) (x : bool) : bool = f x")
        assert main(["emit", path]) == 1
        assert "no-family" in capsys.readouterr().err


class TestEquiv:
    def test_pass_line(self, capsys):
        code = main(["equiv", str(CORPUS / "reverse.mlg"),
                     "--entry", "reverse", "--trials", "25"])
        assert code == 0
        out = capsys.readouterr().out
        assert "25" in out and ("pass" in out.lower() or "ok" in out.lower())


VACUOUS = """\
let g (x : int) : int = x + 1
(*@ r = g x
      requires x = 12345
      ensures r = x + 1 *)
"""


class TestVacuousPass:
    """An entry whose requires rejects every generated argument ran no
    trial at all, which must not read as a pass."""

    def test_equiv_inconclusive_exit_1(self, mlg, capsys):
        assert main(["equiv", mlg(VACUOUS), "--entry", "g",
                     "--trials", "10"]) == 1
        out = capsys.readouterr().out
        assert out.startswith("INCONCLUSIVE g: 0 of 10 trials, "), out

    def test_corpus_does_not_count_it(self, tmp_path, capsys):
        d = tmp_path / "c"
        d.mkdir()
        (d / "vacuous.mlg").write_text(VACUOUS)
        assert main(["corpus", str(d), "-o", str(tmp_path / "out"),
                     "--trials", "10", "--json"]) == 1
        (entry,) = json.loads(capsys.readouterr().out)
        assert not entry["ok"]
        assert entry["equiv"] == "g:INCONCLUSIVE"


class TestCorpus:
    def test_table(self, tmp_path, capsys):
        code = main(["corpus", str(CORPUS), "-o", str(tmp_path),
                     "--trials", "10"])
        assert code == 0
        out = capsys.readouterr().out
        for stem in ("height", "length", "reverse", "smallstep"):
            assert stem in out

    def test_json(self, tmp_path, capsys):
        code = main(["corpus", str(CORPUS), "-o", str(tmp_path),
                     "--trials", "10", "--json"])
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert {e["file"] for e in data} == {
            "height.mlg", "length.mlg", "reverse.mlg", "smallstep.mlg"}
        assert all(e["ok"] for e in data)

    def test_failure_exit_1(self, tmp_path, capsys):
        bad = tmp_path / "c"
        bad.mkdir()
        (bad / "bad.mlg").write_text("let f (u : unit) : int = true")
        assert main(["corpus", str(bad), "--trials", "1"]) == 1


def floor_interpreter():
    """An interpreter of the `requires-python` floor that runs, or None."""
    text = (ROOT / "pyproject.toml").read_text()
    version = re.search(r'requires-python = ">=(\d+\.\d+)"', text).group(1)
    candidates = [shutil.which(f"python{version}")] + sorted(glob.glob(
        os.path.expanduser(f"~/.pyenv/versions/{version}.*/bin/python")))
    for exe in filter(None, candidates):
        probe = subprocess.run(
            [exe, "-c", "import sys; print('%d.%d' % sys.version_info[:2])"],
            capture_output=True, text=True, timeout=60)
        if probe.returncode == 0 and probe.stdout.strip() == version:
            return exe
    return None


def corpus_outputs(exe, outdir) -> dict:
    """Run `defun corpus` under `exe`; the bytes of the files it writes."""
    env = dict(os.environ, PYTHONPATH="src", PYTHONDONTWRITEBYTECODE="1")
    run = subprocess.run(
        [exe, "-m", "defun.cli", "corpus", "corpus", "--trials", "5",
         "-o", str(outdir)], cwd=ROOT, env=env, capture_output=True,
        text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    files = list(outdir.glob("*.mlw")) + list(outdir.glob("*_vcs/*"))
    return {str(p.relative_to(outdir)): p.read_bytes() for p in files}


def test_floor_python_writes_the_same_files(tmp_path):
    exe = floor_interpreter()
    if exe is None:
        pytest.skip("no interpreter of the declared floor version")
    floor = corpus_outputs(exe, tmp_path / "floor")
    assert floor
    assert floor == corpus_outputs(sys.executable, tmp_path / "current")
