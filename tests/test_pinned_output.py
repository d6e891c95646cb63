"""One frozen sha256 per family of programs over everything the compiler
writes for it: the WhyML text, and the name and bytes of every file that
`emit_smt` writes (each `.smt2` and `index.json`).  A refactor that must
not change the output proves it here.

To refreeze after a deliberate change of the output, run

    PYTHONPATH=src python tests/test_pinned_output.py

and paste the printed table over `FROZEN`.  Log every refreeze in
CHANGES.md, with what changed in the output and why.
"""

import hashlib
import random

import pytest

from defun.emit import emit_whyml
from defun.vcgen import emit_smt, generate_vcs

from conftest import CORPUS_FILES, corpus_text, pipeline
from genprog import gen_program
from test_vcgen import ladder_source

# Shapes the corpus and the generated programs do not reach: `requires`
# checked at calls inside join branches, a call in an `if` condition, `;`,
# two `ensures` clauses, `absurd` arms of a tail and a non-tail match and
# of a spec-less function that becomes an SMT definition, joins inside
# join branches, and locals named like top-level functions.
HANDWRITTEN = {
    "calls_in_joins": """\
let pos (x : int) : int = x
(*@ r = pos x
      requires 0 <= x
      ensures r = x *)

let f (a : int) (b : int) : int =
  pos (a * a);
  let m : int = if 0 <= a then pos a else pos (0 - a) in
  if pos m < b then b else m + 1
(*@ r = f a b
      ensures 0 <= r
      ensures r <= a * a + b + 1 *)
""",
    "absurd_arms": """\
type color = Red | Green | Blue

let g (c : color) (x : int) : int =
  let y : int = match c with
    | Red -> x
    | Green -> x + 1
    end in
  match c with
  | Red -> y
  | Green -> y - 1
  end
(*@ r = g c x
      ensures r = x *)

let hd (l : int list) : int =
  match l with
  | h :: t -> h + (match t with | [] -> 0 end)
  end
(*@ r = hd l
      ensures 0 <= length l *)

let first (l : int list) : int =
  match l with
  | h :: t -> h
  end

let first_of (l : int list) : int = first (0 :: l)
(*@ r = first_of l
      ensures r = 0 *)
""",
    "nested_joins": """\
let pos (x : int) : int = x
(*@ r = pos x
      requires 0 <= x
      ensures r = x *)

let h (a : int) (b : int) : int =
  let y : int =
    if a < 0 then (if b < 0 then 0 else pos b) + 1 else a in
  let z : int = (match [a] with | [] -> b | v :: w -> v end) + y in
  z
(*@ r = h a b
      ensures 0 <= r *)
""",
    "seq_and_scrutinee": """\
let pos (x : int) : int = x
(*@ r = pos x
      requires 0 <= x
      ensures r = x *)

let s (l : int list) (a : int) : int =
  (if a < 0 then pos (0 - a) else pos a);
  match (if a < 0 then l else a :: l) with
  | [] -> 0
  | h :: t -> pos (h * h)
  end
(*@ r = s l a
      ensures 0 <= r *)
""",
    "shadowing": """\
let f (x : int) : int = x + 1

let k (x : int) : int = f x

let h (g : int -> int) : int = g 1

let g (f : int) : int = k f + h (fun (x : int) : int -> k x + f)
(*@ r = g f
      ensures r = 2 * f + 3 *)

let s (l : int list) : int =
  match l with
  | [] -> h f
  | f :: t -> let k : int = f + 1 in h (fun (x : int) : int -> x + k)
  end
(*@ r = s l
      ensures 2 <= r *)
""",
}


def ladders():
    for n in range(2, 13):
        for seed in range(5):
            rng = random.Random(seed)
            yield (f"ladder{n}_{seed}",
                   ladder_source(n, [rng.randint(0, 9) for _ in range(n)]))


FAMILIES = {
    "corpus": lambda: [(name, corpus_text(name)) for name in CORPUS_FILES],
    "genprog": lambda: [(f"seed{s}", gen_program(s)) for s in range(200)],
    "ladders": lambda: list(ladders()),
    "handwritten": lambda: list(HANDWRITTEN.items()),
}

FROZEN = {
    "corpus":
        "e2b55a84a0417a321c8e71bc2d608502b179634f5206db94de2f7054bab89e5e",
    "genprog":
        "2a7efab714ed3b1b7f07e825c52c62d139da886189460fb6dd82196128f34420",
    "ladders":
        "36fc40d7a5c7b4cd88a7dfd77e9c770f56b39ed5f20343d3fe3b6f5c8aca1004",
    "handwritten":
        "abc6cc0f3ca38e0f1c41404473747ff2ca2739cd603ca1477887b0546302919f",
}


def digest(programs, outdir) -> str:
    h = hashlib.sha256()
    for name, text in programs:
        _, _, t = pipeline(text)
        h.update(f"program {name}\n".encode())
        h.update(emit_whyml(t).encode())
        out = outdir / name
        emit_smt(generate_vcs(t), t, out)
        for path in sorted(out.iterdir()):
            data = path.read_bytes()
            h.update(f"file {path.name} {len(data)}\n".encode())
            h.update(data)
    return h.hexdigest()


@pytest.mark.parametrize("family", FAMILIES)
def test_output_is_pinned(family, tmp_path):
    assert digest(FAMILIES[family](), tmp_path) == FROZEN[family]


if __name__ == "__main__":
    import pathlib
    import tempfile
    with tempfile.TemporaryDirectory() as tmp:
        print("FROZEN = {")
        for family, programs in FAMILIES.items():
            out = pathlib.Path(tmp) / family
            print(f'    "{family}":\n        "{digest(programs(), out)}",')
        print("}")
