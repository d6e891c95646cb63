"""The four workloads of the defun benchmark.

Each workload turns a seed into inputs (`setup`) and then runs passes over
those inputs (`run_pass`).  A pass calls the public functions of the
`defun` layers through `Run.op`, which times each operation; the checks
that follow an operation run outside its timed region.

Every workload loads one layer heavily and reaches the others lightly, so
a per-layer time is never identically zero:

- corpus     `defun corpus` over corpus/*.mlg (interp: equiv trials)
- translate  compile-only over programs from tests/genprog.py
- vc_blowup  compile-only over an n-branch ladder (vcgen)
- long_eval  reverse / len / height_tree_cps on long lists and trees
             (interp: applies); 2e4 elements and more fail today

Each pass of every workload ends with the same small interpreter probe
(`reverse` on a short list through both evaluators, and a 5-trial
equiv check), so trials and evaluated elements exist on every workload.
"""

from __future__ import annotations

import gc
import hashlib
import importlib.util
import json
import random
import sys
import traceback
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from time import process_time

from defun import cli, defunc, frontend, interp, typecheck, vcgen
from defun import emit as emit_mod

ROOT = Path(__file__).resolve().parents[1]
CORPUS = ROOT / "corpus"
GOLDEN = ROOT / "tests" / "golden"
EXPECTED = json.loads((Path(__file__).with_name("expected.json")).read_text())

# Workload sizes; `tiny` is what the self-test runs.
SCALES = {
    "full": {
        "corpus_trials": 100,
        "translate_programs": 300,
        "ladder": list(range(2, 13)),
        # Today's ceiling: lists 1e4 < n < 2e4, trees 7e3 < n < 1e4, so
        # 20 of the 30 calls fail and the median latency falls among them.
        # A median among calls of under ~0.3 s moved 1.5 to 2.6 times as
        # much from run to run as the time of the whole pass.
        "eval_sizes": [5000, 10_000, 20_000, 30_000, 100_000],
        "probe_elements": 100,
        "probe_trials": 5,
    },
    "tiny": {
        "corpus_trials": 3,
        "translate_programs": 4,
        "ladder": [2, 3, 4],
        "eval_sizes": [5, 20],
        "probe_elements": 10,
        "probe_trials": 2,
    },
}
FUEL = 10**6  # `defun corpus` default


def _load_genprog():
    path = ROOT / "tests" / "genprog.py"
    spec = importlib.util.spec_from_file_location("bench_genprog", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


# ---------------------------------------------------------------------------
# Per-run accounting


@dataclass
class Compiled:
    program: object
    checker: object
    target: object
    whyml: str = ""
    manifest: list = field(default_factory=list)
    smt_dir: Path | None = None


class Run:
    """Counts operations, failures, timings and layer counters of one
    benchmark run."""

    def __init__(self, outdir: Path):
        self.outdir = outdir
        self.tracer = None  # set only during traced passes
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.problems: list[str] = []
        self.measured_s = 0.0
        self.program_ms: list[float] = []  # latency of every program
        self.programs_ok = 0  # programs none of whose operations failed
        self.trials = 0
        self.skipped = 0
        self.elements = 0
        self.errors = Counter()  # error of every failed operation
        self.failures = Counter()  # the run-error kinds among them
        self.counts = Counter()  # per-layer counters, summed over passes
        self.pass_digest = None
        self._failed_labels: set[str] = set()
        self._tokens: dict[str, int] = {}

    def begin_pass(self):
        self._failed_labels.clear()
        self.pass_digest = hashlib.sha256()

    def op(self, label: str, fn):
        """Run `fn` as one timed operation; returns (value, error, seconds).
        A raised error fails the operation; it never aborts the run.

        Garbage left by earlier operations is collected first, untimed:
        otherwise when a collection falls, and what it has to scan, depend
        on the operations before (a failed deep evaluation leaves ~1e5
        frames' worth), and the same call varied by up to 1.7x."""
        self.attempted += 1
        gc.collect()
        tracer = self.tracer
        if tracer is not None:
            tracer.group = label
            span = tracer.open("job")
        err = None
        value = None
        t0 = process_time()
        try:
            value = fn()
        except interp.RunError as e:
            err = e.kind
            self.failures[err] += 1
        except Exception as e:  # noqa: BLE001 - a failed op, reported below
            err = f"{type(e).__name__}: {e}"
            traceback.print_exc(file=sys.stderr)
        dt = process_time() - t0
        if tracer is not None:
            tracer.close(span)
        self.measured_s += dt
        if err is not None:
            self.errors[err] += 1
            self._mark_failed(label, err)
        return value, err, dt

    def program(self, label: str, seconds: float):
        """Record one program of the workload: `label` and the operations
        labelled `label:...` took `seconds` in all."""
        self.program_ms.append(seconds * 1000)
        if not any(f == label or f.startswith(label + ":")
                   for f in self._failed_labels):
            self.programs_ok += 1

    def token_count(self, text: str) -> int:
        n = self._tokens.get(text)
        if n is None:
            n = self._tokens[text] = len(frontend.tokenize(text))
        return n

    @property
    def correct(self) -> bool:
        """No output was wrong, and every operation that failed ran out of
        interpreter resources (a limit, not a wrong result)."""
        return self.wrong == 0 and set(self.errors) <= {"fuel-exhausted"}

    def fail(self, label: str, reason: str):
        """A check on an operation's output failed: a wrong output."""
        if self._mark_failed(label, reason):
            self.wrong += 1

    def _mark_failed(self, label, reason) -> bool:
        if label in self._failed_labels:
            return False
        self._failed_labels.add(label)
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(f"{label}: {reason}")
        return True

    def check(self, label: str, ok: bool, reason: str):
        if not ok:
            self.fail(label, reason)


# ---------------------------------------------------------------------------
# Shared steps


def compile_op(run: Run, label: str, text: str, stem: str, emit=True):
    """parse -> typecheck -> defunctionalize, then (if `emit`) write the
    WhyML module and the SMT-LIB2 VCs as `defun corpus` does."""
    outdir = run.outdir

    def build():
        prog = frontend.parse_program(text)
        checker = typecheck.Checker()
        checker.check_program(prog)
        target = defunc.defunctionalize(prog, checker)
        out = Compiled(prog, checker, target)
        if emit:
            out.whyml = emit_mod.emit_whyml(
                target, module_name=cli._module_name(stem))
            with open(outdir / f"{stem}.mlw", "w") as fh:
                fh.write(out.whyml)
            vcs = vcgen.generate_vcs(target)
            out.smt_dir = outdir / f"{stem}_vcs"
            out.manifest = vcgen.emit_smt(vcs, target, str(out.smt_dir))
        return out

    compiled, err, dt = run.op(label, build)
    if err is not None:
        return None, dt
    run.counts["families"] += len(compiled.target.families)
    run.counts["sites"] += sum(len(f.sites) for f in compiled.target.families)
    run.counts["tokens"] += run.token_count(text)
    if emit:
        _check_emitted(run, label, compiled)
    return compiled, dt


def _check_emitted(run: Run, label: str, c: Compiled):
    whyml = c.whyml.encode()
    run.counts["whyml_bytes"] += len(whyml)
    run.pass_digest.update(whyml)
    index = (c.smt_dir / "index.json").read_bytes()
    run.pass_digest.update(index)
    run.check(label, [e["file"] for e in json.loads(index)]
              == [e["file"] for e in c.manifest], "index.json != manifest")
    for entry in c.manifest:
        data = (c.smt_dir / entry["file"]).read_bytes()
        run.pass_digest.update(data)
        run.counts["smt_bytes"] += len(data)
        run.counts["vcs"] += 1
        run.counts["vcs." + entry["kind"]] += 1
        run.check(label, _well_formed_smt(data), f"malformed {entry['file']}")


def _well_formed_smt(data: bytes) -> bool:
    return (data.count(b"(") == data.count(b")")
            and data.startswith(b"(set-logic ALL)\n")
            and data.endswith(b"(check-sat)\n"))


def _decode(v):
    """A run-time value as plain Python data: ints stay ints, lists become
    Python lists."""
    if isinstance(v, int):
        return v
    out = []
    while getattr(v, "name", None) == "Cons":
        out.append(v.args[0])
        v = v.args[1]
    if getattr(v, "name", None) != "Nil":
        return v
    return out


def eval_op(run: Run, label: str, fn, reference, elements: int) -> float:
    value, err, dt = run.op(label, fn)
    if err is None and _decode(value) != reference:
        run.fail(label, "wrong output")
    elif err is None:
        run.elements += elements
    return dt


def equiv_op(run: Run, label: str, c: Compiled, entry: str, trials: int,
             seed: int):
    report, err, dt = run.op(label, lambda: interp.equiv_check(
        c.program, c.target, entry, trials=trials, seed=seed, fuel=FUEL,
        type_decls=c.checker.env.type_decls))
    if err is not None:
        return dt
    run.skipped += report.skipped
    run.check(label, report.passed, "equiv FAIL")
    # fewer trials than requested is a vacuous PASS
    run.check(label, report.trials == trials,
              f"{report.trials} of {trials} trials ran")
    if report.passed and report.trials == trials:
        run.trials += report.trials
    return dt


def vlist(items):
    out = interp.NIL
    for x in reversed(items):
        out = interp.VConstr("Cons", (x, out))
    return out


# ---------------------------------------------------------------------------
# Inputs


@dataclass
class Inputs:
    scale: dict
    texts: dict  # name -> source text
    data: dict = field(default_factory=dict)
    hasher: object = field(default_factory=hashlib.sha256)

    def add(self, *parts):
        for p in parts:
            self.hasher.update(repr(p).encode())
            self.hasher.update(b"\0")

    @property
    def digest(self) -> str:
        return self.hasher.hexdigest()


def _probe_inputs(inp: Inputs, rng: random.Random):
    text = (CORPUS / "reverse.mlg").read_text()
    items = [rng.randint(-99, 99) for _ in range(inp.scale["probe_elements"])]
    equiv_seed = rng.getrandbits(31)
    inp.add("probe", text, items, equiv_seed)
    inp.data["probe"] = (text, vlist(items), items[::-1], len(items),
                         equiv_seed)


def _probe(run: Run, inp: Inputs):
    text, arg, reference, n, equiv_seed = inp.data["probe"]
    c, _ = compile_op(run, "probe:compile", text, "probe", emit=False)
    if c is None:
        return
    eval_op(run, "probe:ho", lambda: interp.eval_ho(
        c.program, "reverse", [arg], FUEL), reference, n)
    eval_op(run, "probe:fo", lambda: interp.eval_fo(
        c.target, "reverse", [arg], FUEL), reference, n)
    equiv_op(run, "probe:equiv", c, "reverse", inp.scale["probe_trials"],
             equiv_seed)


# corpus --------------------------------------------------------------------


def setup_corpus(seed: int, scale: dict) -> Inputs:
    rng = random.Random(seed)
    texts = {p.name: p.read_text() for p in sorted(CORPUS.glob("*.mlg"))}
    inp = Inputs(scale, texts)
    inp.data["golden"] = (GOLDEN / "length.mlw").read_text()
    inp.data["equiv_seed"] = rng.getrandbits(31)
    inp.add(sorted(texts.items()), inp.data["golden"], inp.data["equiv_seed"])
    _probe_inputs(inp, rng)
    return inp


def pass_corpus(run: Run, inp: Inputs):
    """One program: `defun corpus` over all four files (per-file latencies
    would cluster by file, and a median between clusters jumps)."""
    trials = inp.scale["corpus_trials"]
    total = 0.0
    for fname, text in inp.texts.items():
        stem = fname[:-len(".mlg")]
        c, dt = compile_op(run, f"corpus:{fname}", text, stem)
        total += dt
        if c is None:
            continue
        n_vcs = len(c.manifest)
        run.check(f"corpus:{fname}", n_vcs == EXPECTED["corpus_vcs"][fname],
                  f"{n_vcs} VCs, expected {EXPECTED['corpus_vcs'][fname]}")
        if stem == "length":
            run.check(f"corpus:{fname}", c.whyml == inp.data["golden"],
                      "WhyML differs from tests/golden/length.mlw")
        for entry in cli._equiv_entries(c.program, c.target):
            total += equiv_op(run, f"corpus:{fname}:{entry}", c, entry,
                              trials, inp.data["equiv_seed"])
    run.program("corpus", total)


# translate -----------------------------------------------------------------


def setup_translate(seed: int, scale: dict) -> Inputs:
    genprog = _load_genprog()
    rng = random.Random(seed)
    seeds = [rng.getrandbits(32) for _ in range(scale["translate_programs"])]
    texts = {f"gen{i:04d}": genprog.gen_program(s)
             for i, s in enumerate(seeds)}
    inp = Inputs(scale, texts)
    inp.add(sorted(texts.items()))
    _probe_inputs(inp, rng)
    return inp


def pass_translate(run: Run, inp: Inputs):
    for name, text in inp.texts.items():
        label = f"translate:{name}"
        c, dt = compile_op(run, label, text, name)
        # every generated program passes a lambda as a continuation
        if c is not None:
            run.check(label, len(c.target.families) >= 1, "no kont family")
        run.program(label, dt)


# vc_blowup -----------------------------------------------------------------


def ladder_source(n: int, consts: list[int]) -> str:
    """f a = n sequential `let xi = if x(i-1) < ci then x(i-1) + 1 else
    x(i-1)`; so a <= f a <= a + n."""
    lines = ["let f (a : int) : int ="]
    prev = "a"
    for i, c in enumerate(consts, 1):
        lines.append(f"  let x{i} : int = "
                     f"if {prev} < {c} then {prev} + 1 else {prev} in")
        prev = f"x{i}"
    lines += [f"  {prev}",
              "(*@ r = f a",
              f"      ensures a <= r && r <= a + {n} *)"]
    return "\n".join(lines) + "\n"


def setup_vc_blowup(seed: int, scale: dict) -> Inputs:
    rng = random.Random(seed)
    # one-digit constants: the SMT bytes do not depend on the seed
    texts = {f"ladder{n:02d}": ladder_source(
        n, [rng.randint(0, 9) for _ in range(n)]) for n in scale["ladder"]}
    inp = Inputs(scale, texts)
    inp.add(sorted(texts.items()))
    _probe_inputs(inp, rng)
    return inp


def pass_vc_blowup(run: Run, inp: Inputs):
    for name, text in inp.texts.items():
        label = f"vc_blowup:{name}"
        c, dt = compile_op(run, label, text, name)
        if c is not None:
            run.check(label, len(c.manifest) == EXPECTED["ladder_vcs"],
                      f"{len(c.manifest)} VCs, expected "
                      f"{EXPECTED['ladder_vcs']}")
        run.program(label, dt)


# long_eval -----------------------------------------------------------------

LONG_EVAL = (  # entry, corpus file, input shape
    ("len", "length.mlg", "list"),
    ("reverse", "reverse.mlg", "list"),
    ("height_tree_cps", "height.mlg", "tree"),
)


def _tree(rng: random.Random, n: int, shape: list):
    """A random binary tree with n nodes as a run-time value, and its
    height; `shape` receives (left size, value) in preorder."""
    if n == 0:
        return _EMPTY, 0
    left = int(rng.random() * n)
    value = int(rng.random() * 199) - 99
    shape.append((left, value))
    lt, lh = _tree(rng, left, shape)
    rt, rh = _tree(rng, n - 1 - left, shape)
    return interp.VConstr("Node", (lt, value, rt)), 1 + max(lh, rh)


_EMPTY = interp.VConstr("Empty")


def setup_long_eval(seed: int, scale: dict) -> Inputs:
    rng = random.Random(seed)
    texts = {f: (CORPUS / f).read_text() for _, f, _ in LONG_EVAL}
    inp = Inputs(scale, texts)
    inp.add(sorted(texts.items()))
    cases = []  # (size, list value, list items, tree value, tree height)
    for n in scale["eval_sizes"]:
        items = rng.choices(range(-99, 100), k=n)
        shape = []
        tree, height = _tree(rng, n, shape)
        inp.add(n, items, shape)
        cases.append((n, vlist(items), items, tree, height))
    inp.data["cases"] = cases
    _probe_inputs(inp, rng)
    return inp


def pass_long_eval(run: Run, inp: Inputs):
    compiled = {}
    for fname, text in inp.texts.items():
        compiled[fname], _ = compile_op(run, f"long_eval:{fname}", text,
                                        fname[:-len(".mlg")])
    for n, lst, items, tree, height in inp.data["cases"]:
        for entry, fname, shape in LONG_EVAL:
            c = compiled[fname]
            arg = [lst] if shape == "list" else [tree]
            reference = {"len": len(items), "reverse": items[::-1],
                         "height_tree_cps": height}[entry]
            for side in ("ho", "fo"):
                label = f"long_eval:{entry}:{n}:{side}"
                if c is None:
                    run.attempted += 1
                    run.fail(label, "program did not compile")
                    run.program(label, 0.0)
                    continue
                if side == "ho":
                    fn = (lambda p=c.program, e=entry, a=arg:
                          interp.eval_ho(p, e, a, FUEL))
                else:
                    fn = (lambda t=c.target, e=entry, a=arg:
                          interp.eval_fo(t, e, a, FUEL))
                run.program(label, eval_op(run, label, fn, reference, n))


# ---------------------------------------------------------------------------

WORKLOADS = {
    "corpus": (setup_corpus, pass_corpus),
    "translate": (setup_translate, pass_translate),
    "vc_blowup": (setup_vc_blowup, pass_vc_blowup),
    "long_eval": (setup_long_eval, pass_long_eval),
}


def run_pass(name: str, run: Run, inp: Inputs):
    WORKLOADS[name][1](run, inp)
    _probe(run, inp)
