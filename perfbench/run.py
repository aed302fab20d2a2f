"""signrank benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload analyze_ladder --seed 1 --seconds 35 --trace 0

Run from the root of a checkout. The workload's inputs are generated from
--seed, written under .perfbench_work/, and fed to `signrank.cli.main` one
op at a time. With --trace 0 it runs untraced passes for about --seconds
and reports the end-to-end metrics of BENCHMARK.json; with --trace 1 it
alternates an untraced and a traced pass and reports the per-layer metrics.
Every metric is printed with its unit and better-direction; the last line
of standard output is the JSON result.
"""

from __future__ import annotations

import os

# One BLAS thread: a single closed-loop client whose timings do not depend
# on how busy the other cores are. Must be set before numpy loads.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".perfbench_work")


SRC = os.path.join(ROOT, "src")
_TIME_IMPORT = (
    "import time; t = time.perf_counter(); import signrank.cli; "
    "print(time.perf_counter() - t)"
)


def load_benchmark() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def import_package() -> None:
    """Put the checkout's src/ on the path and import the package. Raises
    ImportError when there is no package to run."""
    if not os.path.isfile(os.path.join(SRC, "signrank", "__init__.py")):
        raise ImportError(f"no signrank package under {SRC}")
    sys.path.insert(0, SRC)
    import signrank.cli  # noqa: F401


def cold_import_s() -> float:
    """The package's import time in a fresh interpreter, as each CLI
    invocation pays it."""
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run([sys.executable, "-c", _TIME_IMPORT], env=env, check=True,
                          capture_output=True, text=True, timeout=60)
    return float(done.stdout)


def measure(run, seconds: float, trace: bool, reference: dict):
    """Set up and time one workload run. Returns (metrics, notes, outcomes).
    Set-up (a cold package import, then generating and writing the inputs)
    is repeated SETUP_REPS times, each with the calibration kernel timed
    just before it; end_to_end scales each and reports the median."""
    import calibrate
    import harness
    import tracing

    setups = []
    for _ in range(harness.SETUP_REPS):
        kernel = calibrate.kernel_s()
        import_s = cold_import_s()
        total, build = run.setup()
        setups.append((import_s + total, kernel, build))
    setup_s = [(total, kernel) for total, kernel, _ in setups]
    build_s = statistics.median(build for *_, build in setups)

    pairs = []  # (tracer, traced pass, untraced pass)
    start = time.perf_counter()
    while True:
        plain = run.run_pass(f"pass{len(run.passes)}")
        if trace:
            tracer = tracing.Tracer()
            tracer.install()
            try:
                pairs.append((tracer, run.run_pass(f"traced{len(pairs)}", tracer), plain))
            finally:
                tracer.remove()
        # Stop at the round count whose total time comes nearest to seconds.
        elapsed = time.perf_counter() - start
        rounds = len(pairs) if trace else len(run.passes)
        if elapsed + elapsed / rounds / 2 > seconds:
            break

    outcomes = run.outcomes(reference)
    if trace:
        os.makedirs(os.path.join(WORK, "traces"), exist_ok=True)
        layers = []
        for i, (tracer, traced, plain) in enumerate(pairs):
            tracer.dump(os.path.join(WORK, "traces", f"{run.workload}-s{run.seed}-{i}.jsonl"))
            layers.append(tracing.layer_metrics(tracer, traced["wall"], plain["wall"]))
        metrics = {name: statistics.median(m[name] for m in layers) for name in layers[0]}
        metrics["generators.build_s"] = build_s
        hinge = (metrics["embed.hinge_search_upper.found"], metrics["embed.hinge_search_upper.calls"])
        notes = {
            "stabbing.welzl_path.diff_mb": "computed as rows^2 * cols * 9 B, largest call",
            "embed.hinge_search_upper.found_ratio": "%d/%d searches found a witness" % hinge,
            "trace.overhead_s": f"traced minus untraced pass, median of {len(layers)} pairs",
        }
    else:
        metrics, notes = harness.end_to_end(run, outcomes, setup_s)
    return metrics, notes, outcomes


def report(bench: dict, trace: bool, metrics: dict, notes: dict, outcomes) -> dict:
    """Print the metric table and the failures; return the result object."""
    declared = bench["per_layer" if trace else "end_to_end"]
    missing = [m["name"] for m in declared if m["name"] not in metrics]
    if missing:
        raise KeyError(f"metrics declared in BENCHMARK.json but not measured: {missing}")
    for m in declared:
        value = metrics[m["name"]]
        better = m.get("better", "")
        print(f"{m['name']:40s} {value:>14.6g} {m['unit']:6s} {better:6s} {notes.get(m['name'], '')}")
    errors = [(op.id, o.error) for op, o in outcomes if o.error]
    for op_id, error in errors:
        print(f"FAILED {op_id}: {error}", file=sys.stderr)
    return {
        "correct": not errors,
        "attempted": len(outcomes),
        "failed": len(errors),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    try:
        bench = load_benchmark()
        import_package()
    except (OSError, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    import checks
    import harness
    from workloads import WORKLOADS, describe

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workdir = os.path.join(WORK, f"{args.workload}-s{args.seed}-p{os.getpid()}")
    try:
        for line in describe(args.workload, args.seed):
            print(line)
        run = harness.Run(args.workload, args.seed, workdir)
        metrics, notes, outcomes = measure(
            run, args.seconds, bool(args.trace), checks.load_reference())
        result = report(bench, bool(args.trace), metrics, notes, outcomes)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
