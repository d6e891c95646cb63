"""Self-test of the benchmark: runs every workload at a tiny size, untraced
and traced, and checks that

- every metric BENCHMARK.json names is emitted, with its unit;
- the output checks run: a frozen expectation that is made wrong on
  purpose is reported as a failed operation and an incorrect run.

    python3 bench/selftest.py        # a few seconds; exit code 0 on success
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402


def tiny(name: str, trace: bool) -> dict:
    with contextlib.redirect_stdout(io.StringIO()):
        return run.run_benchmark(name, run.REFERENCE_SEED, 0, trace,
                                 scale="tiny")


def main() -> int:
    run.load_program()
    import workloads

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    problems = []
    for w in spec["workloads"]:
        name = w["name"]
        for trace, key in ((False, "end_to_end"), (True, "per_layer")):
            result = tiny(name, trace)
            wanted = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != wanted:
                problems.append(f"{name} trace={trace}: metrics {got} "
                                f"!= {wanted}")
            if not (result["correct"] and result["failed"] == 0
                    and result["attempted"] > 0):
                problems.append(f"{name} trace={trace}: {result}")

    # A wrong frozen VC count must show up as a failed, incorrect run.
    expected = workloads.EXPECTED["corpus_vcs"]
    expected["reverse.mlg"] += 1
    try:
        result = tiny("corpus", False)
    finally:
        expected["reverse.mlg"] -= 1
    if result["correct"] or result["failed"] != 1:
        problems.append(f"wrong VC inventory not detected: {result}")

    # So must a wrong reference value of an evaluation.
    real = workloads.eval_op

    def wrong_reference(r, label, fn, reference, elements):
        return real(r, label, fn, [reference], elements)

    workloads.eval_op = wrong_reference
    try:
        result = tiny("long_eval", False)
    finally:
        workloads.eval_op = real
    if result["correct"] or result["failed"] == 0:
        problems.append(f"wrong evaluation result not detected: {result}")

    for p in problems:
        print("FAIL", p)
    print("selftest:", "FAIL" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
