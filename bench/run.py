"""defun benchmark: one workload, one run.

    python3 bench/run.py --workload corpus --seed 1 --seconds 20 --trace 0

Runs passes of the workload until `--seconds` have elapsed, checks every
output, and prints one JSON object as the last line of standard output:
the end-to-end metrics with `--trace 0`, and with `--trace 1` the
per-layer metrics of a run that alternates untraced and traced passes.
Times are process CPU times, which leave out the time the host steals
from a shared vCPU.  The program is imported from `src/` of the checkout
this file sits in; without it the run exits with code 2.  See
bench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter, process_time

import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE_SEED = 1  # seed of the input hashes frozen in expected.json
SETUP_REPEATS = 5

END_TO_END = {
    "setup_s": "s",
    "programs_per_s": "1/s",
    "program_ms_p50": "ms",
    "program_ms_p95": "ms",
    "trials_per_s": "1/s",
    "elements_per_s": "1/s",
    "vc_bytes": "bytes",
    "whyml_bytes": "bytes",
    "peak_rss_mb": "MB",
    "ops_ok_share": "share",
}
VC_KINDS = ("postcondition", "precondition-at-call", "absurd-unreachable",
            "lemma")
INTERP_FAILURES = ("fuel-exhausted", "stuck", "division-by-zero",
                   "absurd-reached")
LAYER_SPANS = {  # per-layer self-time metric -> span name
    "frontend.parse_s": "parse_program",
    "typecheck.check_s": "Checker.check_program",
    "defunc.defunc_s": "defunctionalize",
    "emit.whyml_s": "emit_whyml",
    "vcgen.generate_s": "generate_vcs",
    "vcgen.smt_write_s": "emit_smt",
    "interp.eval_ho_s": "eval_ho",
    "interp.eval_fo_s": "eval_fo",
    "interp.equiv_self_s": "equiv_check",
    "interp.gen_value_s": "gen_value",
}
PER_LAYER = {
    **{name: "s" for name in LAYER_SPANS},
    "frontend.tokens_per_s": "1/s",
    "defunc.families": "count",
    "defunc.sites": "count",
    "emit.whyml_bytes": "bytes",
    "vcgen.vcs": "count",
    **{f"vcgen.vcs.{k}": "count" for k in VC_KINDS},
    "vcgen.smt_bytes_per_vc": "bytes",
    "interp.fo_ho_ratio": "ratio",
    "interp.trials_ran": "count",
    "interp.trials_skipped": "count",
    "interp.trial_accept_ratio": "ratio",
    **{f"interp.failures.{k}": "count" for k in INTERP_FAILURES},
    **{f"share.{layer}": "share" for layer in tracing.LAYERS},
    "trace.overhead": "ratio",
}


IMPORTS = """
import sys, time
t0 = time.process_time()
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import defun, tracing, workloads
print(time.process_time() - t0)
"""


def import_seconds() -> float:
    """Median time to import the program and the benchmark modules, each
    time in a fresh interpreter."""
    times = []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run(
            [sys.executable, "-c", IMPORTS, str(ROOT / "src"), str(HERE)],
            capture_output=True, text=True, check=True, timeout=60)
        times.append(float(out.stdout))
    return statistics.median(times)


def load_program():
    """Import `defun` from this checkout's src/ and the benchmark
    modules; exits with code 2 if this checkout has no program."""
    src = ROOT / "src"
    if not (src / "defun" / "__init__.py").is_file():
        print(f"bench: no program at {src / 'defun'}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(src))
    import defun
    if Path(defun.__file__).resolve().parent != src / "defun":
        print(f"bench: imported defun from {defun.__file__}", file=sys.stderr)
        raise SystemExit(2)
    import workloads  # noqa: F401


def setup(name: str, seed: int, scale: str, run):
    """Generate the inputs SETUP_REPEATS times; returns the inputs and
    the median set-up time.  Also checks that generation is deterministic
    and that the reference seed still yields the frozen input hash."""
    import workloads
    gen = workloads.WORKLOADS[name][0]
    params = workloads.SCALES[scale]
    times, digests = [], []
    for _ in range(SETUP_REPEATS):
        t0 = process_time()
        inp = gen(seed, params)
        times.append(process_time() - t0)
        digests.append(inp.digest)
    run.attempted += 1
    run.check("inputs:deterministic", len(set(digests)) == 1,
              "inputs differ between set-ups")
    ref = (inp if seed == REFERENCE_SEED else gen(REFERENCE_SEED, params))
    frozen = workloads.EXPECTED["input_sha256"][scale][name]
    run.attempted += 1
    run.check("inputs:reference", ref.digest == frozen,
              f"reference-seed inputs hash {ref.digest}, frozen {frozen}")
    return inp, statistics.median(times)


def percentile(values, q):
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def run_benchmark(name: str, seed: int, seconds: float, trace: bool,
                  scale: str = "full", import_s: float = 0.0) -> dict:
    import workloads

    outdir = ROOT / ".bench_out" / f"{name}-{seed}"
    shutil.rmtree(outdir, ignore_errors=True)
    outdir.mkdir(parents=True)
    tracer = tracing.Tracer()
    run = workloads.Run(outdir)
    try:
        inp, setup_s = setup(name, seed, scale, run)
        # The inputs of every pass stay alive for the whole run (long_eval
        # holds ~3e5 list cells and tree nodes); freezing them keeps the
        # collector from rescanning them during each timed operation,
        # which a single `defun run` on one input would not do.
        gc.collect()
        gc.freeze()
        passes = 0
        pass_s = {False: [], True: []}  # traced? -> measured time per pass
        first_digest = None
        start = perf_counter()
        while True:
            traced = trace and passes % 2 == 1
            run.begin_pass()
            before = run.measured_s
            if traced:
                tracer.install()
                run.tracer = tracer
            try:
                workloads.run_pass(name, run, inp)
            finally:
                if traced:
                    tracer.uninstall()
                    run.tracer = None
            pass_s[traced].append(run.measured_s - before)
            digest = run.pass_digest.hexdigest()
            if first_digest is None:
                first_digest = digest
            else:
                run.attempted += 1
                run.check(f"pass{passes}:outputs", digest == first_digest,
                          "emitted bytes differ from the first pass")
            passes += 1
            # whole passes only: stop where the run ends closest to
            # `seconds` (so a 25 s long_eval pass runs once, not twice)
            elapsed = perf_counter() - start
            if (elapsed + elapsed / passes / 2 >= seconds
                    and (not trace or passes > 1)):
                break
    finally:
        gc.unfreeze()
        shutil.rmtree(outdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            outdir.parent.rmdir()

    print(f"workload {name} seed {seed}: {passes} passes, "
          f"{len(run.program_ms)} program samples, "
          f"{run.attempted} ops, {run.failed} failed {dict(run.errors)}")
    print(f"inputs sha256 {inp.digest}")
    print(f"outputs sha256 {first_digest}")
    for problem in run.problems:
        print(f"problem: {problem}")

    if trace:
        trace_dir = ROOT / ".bench_trace"
        trace_dir.mkdir(exist_ok=True)
        tracer.write(trace_dir / f"{name}-seed{seed}.jsonl")
        metrics = per_layer(run, tracer, pass_s, passes)
        units = PER_LAYER
    else:
        metrics = end_to_end(run, import_s + setup_s, passes)
        units = END_TO_END
    return {
        "correct": run.correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]}
                    for k in units},
    }


def end_to_end(run, setup_s, passes) -> dict:
    t = run.measured_s
    ms = run.program_ms
    return {
        "setup_s": setup_s,
        "programs_per_s": run.programs_ok / t,
        "program_ms_p50": statistics.median(ms),
        "program_ms_p95": percentile(ms, 95),
        "trials_per_s": run.trials / t,
        "elements_per_s": run.elements / t,
        "vc_bytes": run.counts["smt_bytes"] / passes,
        "whyml_bytes": run.counts["whyml_bytes"] / passes,
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ops_ok_share": (run.attempted - run.failed) / run.attempted,
    }


def per_layer(run, tracer, pass_s, passes) -> dict:
    n_traced = len(pass_s[True])
    self_s = tracer.self_times()
    traced_s = sum(pass_s[True])
    c = run.counts
    out = {metric: self_s.get(span, 0.0) / n_traced
           for metric, span in LAYER_SPANS.items()}
    out["frontend.tokens_per_s"] = (
        c["tokens"] / passes * n_traced / self_s["parse_program"])
    out["defunc.families"] = c["families"] / passes
    out["defunc.sites"] = c["sites"] / passes
    out["emit.whyml_bytes"] = c["whyml_bytes"] / passes
    out["vcgen.vcs"] = c["vcs"] / passes
    for k in VC_KINDS:
        out[f"vcgen.vcs.{k}"] = c[f"vcs.{k}"] / passes
    out["vcgen.smt_bytes_per_vc"] = c["smt_bytes"] / c["vcs"]
    out["interp.fo_ho_ratio"] = self_s["eval_fo"] / self_s["eval_ho"]
    out["interp.trials_ran"] = run.trials / passes
    out["interp.trials_skipped"] = run.skipped / passes
    out["interp.trial_accept_ratio"] = run.trials / (run.trials + run.skipped)
    for k in INTERP_FAILURES:
        out[f"interp.failures.{k}"] = run.failures[k] / passes
    layer_s = dict.fromkeys(tracing.LAYERS, 0.0)
    for span, s in self_s.items():
        layer_s[tracing.LAYER_OF[span]] += s
    for layer, s in layer_s.items():
        out[f"share.{layer}"] = s / traced_s
    out["trace.overhead"] = (statistics.mean(pass_s[True])
                             / statistics.mean(pass_s[False]))
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["corpus", "translate", "vc_blowup", "long_eval"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    load_program()
    result = run_benchmark(args.workload, args.seed, args.seconds,
                           bool(args.trace), import_s=import_seconds())
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
