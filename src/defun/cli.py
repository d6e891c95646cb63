"""Command-line driver: check / emit / run / equiv / corpus."""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import emit as emit_mod
from . import interp, vcgen
from .defunc import defunctionalize
from .errors import SourceError
from .frontend import parse_expr, parse_program
from .interp import RunError, render_value
from .syntax import (
    BoolLit, ConstructorApp, IntLit, TupleE, UnitLit, children, walk,
)
from .typecheck import Checker


def load(path: str):
    """Parse, typecheck and defunctionalize one source file."""
    with open(path) as fh:
        text = fh.read()
    program = parse_program(text)
    checker = Checker()
    checker.check_program(program)
    target = defunctionalize(program, checker)
    return program, checker, target


def literal_value(e):
    """Convert a first-order literal expression to a runtime value.  Nodes
    are converted in reverse pre-order, so each node finds its children's
    values on top of a stack, first child uppermost; there is no recursion
    for a long list literal to exhaust."""
    stack = []
    for n in reversed(list(walk(e))):
        args = tuple(stack.pop() for _ in children(n))
        if isinstance(n, (IntLit, BoolLit)):
            stack.append(n.value)
        elif isinstance(n, UnitLit):
            stack.append(interp.UNIT_V)
        elif isinstance(n, ConstructorApp):
            stack.append(interp.VConstr(n.name, args))
        elif isinstance(n, TupleE):
            stack.append(interp.VTuple(args))
        else:
            raise ValueError("argument is not a first-order literal")
    return stack.pop()


def parse_arg(text: str):
    return literal_value(parse_expr(text))


# ---------------------------------------------------------------------------
# Subcommands


def cmd_check(args) -> int:
    with open(args.file) as fh:
        text = fh.read()
    program = parse_program(text)
    Checker().check_program(program)
    print(f"{args.file}: ok")
    return 0


def cmd_emit(args) -> int:
    stem = os.path.splitext(os.path.basename(args.file))[0]
    _, _, target = load(args.file)
    outdir = args.output or "."
    os.makedirs(outdir, exist_ok=True)
    if args.format == "whyml":
        out = os.path.join(outdir, stem + ".mlw")
        with open(out, "w") as fh:
            fh.write(emit_mod.emit_whyml(target, module_name=_module_name(stem)))
        print(out)
    else:
        vcs = vcgen.generate_vcs(target)
        vcdir = os.path.join(outdir, stem + "_vcs")
        vcgen.emit_smt(vcs, target, vcdir)
        print(f"{vcdir}: {len(vcs)} VCs")
    return 0


def _module_name(stem: str) -> str:
    return "".join(p.capitalize() for p in stem.split("_")) or "Defun"


def cmd_run(args) -> int:
    program, _, target = load(args.file)
    values = [parse_arg(a) for a in args.arg]
    if args.target:
        trace: list | None = [] if args.trace else None
        out = interp.eval_fo(target, args.entry, values, fuel=args.fuel,
                             trace=trace)
        print(render_value(out))
        if trace is not None:
            for line in trace:
                print(line)
    else:
        out = interp.eval_ho(program, args.entry, values, fuel=args.fuel)
        print(render_value(out))
    return 0


def cmd_equiv(args) -> int:
    program, checker, target = load(args.file)
    report = interp.equiv_check(
        program, target, args.entry, trials=args.trials, seed=args.seed,
        fuel=args.fuel, type_decls=checker.env.type_decls)
    print(report.summary())
    return 0 if report.passed else 1


def cmd_corpus(args) -> int:
    files = sorted(f for f in os.listdir(args.dir) if f.endswith(".mlg"))
    outdir = args.output or os.path.join(args.dir, "_out")
    results = []
    for fname in files:
        path = os.path.join(args.dir, fname)
        entry_result = {"file": fname, "check": "ok", "emit": None,
                        "equiv": None, "error": None}
        try:
            program, checker, target = load(path)
            stem = os.path.splitext(fname)[0]
            os.makedirs(outdir, exist_ok=True)
            with open(os.path.join(outdir, stem + ".mlw"), "w") as fh:
                fh.write(emit_mod.emit_whyml(
                    target, module_name=_module_name(stem)))
            vcs = vcgen.generate_vcs(target)
            vcgen.emit_smt(vcs, target, os.path.join(outdir, stem + "_vcs"))
            entry_result["emit"] = f"{len(vcs)} VCs"
            entries = _equiv_entries(program, target)
            statuses = []
            for entry in entries:
                report = interp.equiv_check(
                    program, target, entry, trials=args.trials,
                    seed=args.seed, fuel=args.fuel,
                    type_decls=checker.env.type_decls)
                statuses.append(
                    f"{entry}:{'pass' if report.passed else report.status}")
            entry_result["equiv"] = " ".join(statuses) or "n/a"
            ok = all(s.endswith(":pass") for s in statuses) or not statuses
            entry_result["ok"] = ok
        except (SourceError, RunError, OSError, ValueError) as e:
            entry_result["check"] = "error"
            entry_result["error"] = str(e)
            entry_result["ok"] = False
        results.append(entry_result)
    if args.json:
        print(json.dumps(results, indent=2))
    else:
        width = max((len(r["file"]) for r in results), default=4)
        for r in results:
            status = "ok" if r.get("ok") else "FAIL"
            detail = r["error"] if r["error"] else (
                f"emit {r['emit']}; equiv {r['equiv']}")
            print(f"{r['file']:<{width}}  {status:<4}  {detail}")
    return 0 if all(r.get("ok") for r in results) else 1


def _equiv_entries(program, target):
    """Entries whose parameter and return types are executable first-order
    data in both programs: exported top-level functions without arrows."""
    from .syntax import LetDef, contains_arrow
    names = []
    for item in program.items:
        if not isinstance(item, LetDef) or not item.params:
            continue
        tys = [t for _, t in item.params] + [item.ret]
        if any(t is None or contains_arrow(t) for t in tys):
            continue
        names.append(item.name)
    return names


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="defun",
        description="Defunctionalizing transpiler: higher-order programs "
                    "with specs to first-order WhyML/SMT.")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="parse and typecheck a file")
    p.add_argument("file")
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("emit", help="defunctionalize and emit WhyML or SMT")
    p.add_argument("file")
    p.add_argument("--format", choices=["whyml", "smt2"], default="whyml")
    p.add_argument("-o", "--output", default=None,
                   help="output directory (default: current directory)")
    p.set_defaults(fn=cmd_emit)

    p = sub.add_parser("run", help="evaluate an entry point")
    p.add_argument("file")
    p.add_argument("--entry", required=True)
    p.add_argument("--arg", action="append", default=[],
                   help="argument literal (repeatable)")
    p.add_argument("--target", action="store_true",
                   help="run the defunctionalized program")
    p.add_argument("--trace", action="store_true",
                   help="print one line per apply call (target only)")
    p.add_argument("--fuel", type=int, default=10**6)
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser("equiv", help="random differential test source vs target")
    p.add_argument("file")
    p.add_argument("--entry", required=True)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--fuel", type=int, default=10**6)
    p.set_defaults(fn=cmd_equiv)

    p = sub.add_parser("corpus", help="check+emit+equiv over every .mlg in DIR")
    p.add_argument("dir")
    p.add_argument("-o", "--output", default=None)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--fuel", type=int, default=10**6)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_corpus)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    try:
        return args.fn(args)
    except SourceError as e:
        prefix = f"error: {e.kind}: " if e.kind else "error: "
        print(f"{prefix}{e}", file=sys.stderr)
        return 1
    except RunError as e:
        print(f"runtime error: {e.kind}: {e}", file=sys.stderr)
        return 1
    except (OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
