"""What the compiler writes for many programs, one line per program.

A line holds the program's name and the sha256 of its WhyML text, of every
`.smt2` file and of `index.json`, then, except for a generated program,
the equivalence oracle's report on each entry that `defun corpus` checks,
at 20 trials, seed 0 and fuel 10^4: `equiv:<entry>=<status>/<trials
compared>/<skipped>/<out of fuel>`.  For a program that is rejected it holds
the kind, location and message of the `SourceError` instead, and for one
that crashes the exception.  The programs are the corpus, the programs
of `tests/genprog.py` for seeds 0-2999, and every string literal in
`tests/*.py` that contains `let ` or `(*@`, named by the hash of its text
so that editing a test file does not rename it.

Pytest does not collect this file.  To compare two source trees, run the
script once against each and diff the outputs:

    PYTHONPATH=src python tests/differential.py > after.txt
    PYTHONPATH=../old/src python tests/differential.py > before.txt
    diff before.txt after.txt
"""

from __future__ import annotations

import ast
import hashlib
import pathlib
import sys
import tempfile

TESTS = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(TESTS))

from defun.cli import _equiv_entries  # noqa: E402
from defun.defunc import defunctionalize  # noqa: E402
from defun.emit import emit_whyml  # noqa: E402
from defun.errors import SourceError  # noqa: E402
from defun.frontend import parse_program  # noqa: E402
from defun.interp import equiv_check  # noqa: E402
from defun.typecheck import Checker  # noqa: E402
from defun.vcgen import emit_smt, generate_vcs  # noqa: E402

from genprog import gen_program  # noqa: E402

CORPUS = TESTS.parent / "corpus"


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def literals() -> list[tuple[str, str]]:
    """(name, text) of each distinct program literal of `tests/*.py`."""
    found = {}
    for path in sorted(TESTS.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Constant) and type(node.value) is str
                    and ("let " in node.value or "(*@" in node.value)):
                found[f"literal:{_sha(node.value.encode())[:16]}"] = node.value
    return sorted(found.items())


def programs(seeds=range(3000)) -> list[tuple[str, str]]:
    out = [(f"corpus:{p.name}", p.read_text())
           for p in sorted(CORPUS.glob("*.mlg"))]
    return out + [(f"genprog:{s}", gen_program(s)) for s in seeds]


def line(name: str, text: str, outdir: pathlib.Path) -> str:
    try:
        program = parse_program(text)
        checker = Checker()
        checker.check_program(program)
        target = defunctionalize(program, checker)
        parts = [f"whyml={_sha(emit_whyml(target).encode())}"]
        emit_smt(generate_vcs(target), target, str(outdir))
        parts += [f"{p.name}={_sha(p.read_bytes())}"
                  for p in sorted(outdir.iterdir())]
        # some generated programs' big-integer folds stall `equiv`; the
        # low fuel keeps a test's non-terminating `spin` to seconds
        entries = [] if name.startswith("genprog:") else _equiv_entries(
            program, target)
        for entry in entries:
            r = equiv_check(program, target, entry, trials=20, seed=0,
                            fuel=10**4, type_decls=checker.env.type_decls)
            parts.append(f"equiv:{entry}={r.status}/{r.trials}/{r.skipped}"
                         f"/{r.exhausted}")
    except SourceError as e:
        return f"{name} rejected {e.kind}: {e.loc}: {e.message}"
    except Exception as e:  # a crash is a difference too
        return f"{name} crashed {type(e).__name__}: {e!r}"
    return f"{name} " + " ".join(parts)


def lines(progs) -> list[str]:
    out = []
    with tempfile.TemporaryDirectory() as tmp:
        for i, (name, text) in enumerate(progs):
            out.append(line(name, text, pathlib.Path(tmp) / str(i)))
    return out


if __name__ == "__main__":
    for text in lines(programs() + literals()):
        print(text)
