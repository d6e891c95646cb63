"""Process CPU time of each compiler stage over the `translate` programs.

The programs are those of the benchmark's `translate` workload: 300
programs of `tests/genprog.py`, whose seeds are drawn from
`random.Random(seed)`.  Each program goes through parse, check,
defunctionalize, WhyML, `generate_vcs` and `emit_smt` in process, with
`gc.collect()` before it, and each stage is timed with
`time.process_time`.  The SMT files of a program are written into the same
directory on every round, so rounds after the first overwrite them, as the
benchmark's later passes do.  The best round of each stage is printed, in
milliseconds over all programs.

Pytest does not collect this file.  It imports `defun` from the tree named
by `--src`, so the parent of a change and the change can be alternated:

    python tests/stage_times.py --src ../parent/src
    python tests/stage_times.py --src src
"""

from __future__ import annotations

import argparse
import gc
import pathlib
import random
import sys
import tempfile
import time

TESTS = pathlib.Path(__file__).resolve().parent

STAGES = ["parse", "check", "defunctionalize", "whyml", "generate_vcs",
          "emit_smt"]


def programs(seed: int, n: int) -> list[str]:
    """The `translate` workload's programs for `seed`."""
    from genprog import gen_program
    rng = random.Random(seed)
    return [gen_program(rng.getrandbits(32)) for _ in range(n)]


def one_round(texts: list[str], outdir: pathlib.Path) -> dict[str, float]:
    """CPU seconds of each stage over all of `texts`."""
    from defun import emit, vcgen
    from defun.defunc import defunctionalize
    from defun.frontend import parse_program
    from defun.typecheck import Checker

    totals = dict.fromkeys(STAGES, 0.0)
    clock = time.process_time
    for i, text in enumerate(texts):
        gc.collect()
        t0 = clock()
        program = parse_program(text)
        t1 = clock()
        checker = Checker()
        checker.check_program(program)
        t2 = clock()
        target = defunctionalize(program, checker)
        t3 = clock()
        emit.emit_whyml(target)
        t4 = clock()
        vcs = vcgen.generate_vcs(target)
        t5 = clock()
        vcgen.emit_smt(vcs, target, str(outdir / f"gen{i:04d}_vcs"))
        t6 = clock()
        for stage, dt in zip(STAGES, [t1 - t0, t2 - t1, t3 - t2, t4 - t3,
                                      t5 - t4, t6 - t5]):
            totals[stage] += dt
    return totals


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--src", default=str(TESTS.parent / "src"),
                    help="the source tree to import `defun` from")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--programs", type=int, default=300)
    ap.add_argument("--rounds", type=int, default=3,
                    help="rounds over all programs; the best is printed")
    args = ap.parse_args(argv)
    sys.path[:0] = [str(pathlib.Path(args.src).resolve()), str(TESTS)]
    import defun
    print(f"defun from {pathlib.Path(defun.__file__).parent}")
    texts = programs(args.seed, args.programs)
    best = dict.fromkeys(STAGES, float("inf"))
    with tempfile.TemporaryDirectory() as tmp:
        for _ in range(args.rounds):
            for stage, s in one_round(texts, pathlib.Path(tmp)).items():
                best[stage] = min(best[stage], s)
    for stage in STAGES:
        print(f"{stage:<16} {best[stage] * 1000:9.1f} ms")
    print(f"{'total':<16} {sum(best.values()) * 1000:9.1f} ms")
    return 0


if __name__ == "__main__":
    sys.exit(main())
