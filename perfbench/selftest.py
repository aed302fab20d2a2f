"""Self-test of the benchmark harness on a tiny instance set.

    python3 perfbench/selftest.py

Checks that reference.json covers every op of every workload at every seed
class with the inputs the generators make now, that an untraced and a traced run emit every metric BENCHMARK.json
declares (and produce byte-identical outputs), and that a deliberately
corrupted output (a wrong permutation, a bracket disjoint from the
reference) is caught and counted as failed. Exits 0 when all checks hold.
Takes a few seconds.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import run  # sets the BLAS thread count before numpy loads

run.import_package()

import checks  # noqa: E402
import harness  # noqa: E402
from workloads import SEED_CLASSES, WORKLOADS, Op, _inst, ops_for  # noqa: E402

SEED = 3


def tiny_ops() -> list[Op]:
    return [
        Op("analyze:identity-4", "analyze", _inst("identity-4", "signed_identity", n=4)),
        Op("analyze:projective-p2", "analyze", _inst("projective-p2", "projective_incidence", p=2)),
        Op("analyze:line-subset-p2", "analyze", _inst("line-subset-p2", "line_subset_random", seed=0, p=2)),
        Op("path:hamming-6-2", "path", _inst("hamming-6-2", "hamming_ball", n=6, d=2)),
        Op("path:grid-3x2", "path", _inst("grid-3x2", "grid_hyperplane", n=3, d=2)),
        Op("enumerate:n3-d1", "enumerate", extra=("--n", "3", "--d", "1")),
        Op("sample:n5-d2-size10", "sample",
           extra=("--n", "5", "--d", "2", "--sample", "--size", "10", "--samples", "50")),
    ]


def record_tiny(workdir: str) -> dict:
    """A reference for the tiny set, recorded as reference.json is."""
    table = harness.Run("tiny", SEED, workdir, tiny_ops()).record()
    return {"tiny": {op_id: {str(SEED % SEED_CLASSES): entry} for op_id, entry in table.items()}}


def failures() -> list[str]:
    problems = []
    reference = checks.load_reference()
    for workload in WORKLOADS:
        for op in ops_for(workload):
            recorded = reference.get(workload, {}).get(op.id, {})
            missing = [c for c in range(SEED_CLASSES) if str(c) not in recorded]
            stale = [
                c for c in range(SEED_CLASSES)
                if op.instance is not None and str(c) in recorded
                and recorded[str(c)].get("input") != checks.sha(op.instance.build().to_text())
            ]
            if missing or stale:
                problems.append(f"reference.json lacks {workload} {op.id} at seed classes "
                                f"{missing}, or records another input at {stale}")

    bench_spec = run.load_benchmark()
    workdir = os.path.join(run.WORK, f"selftest-{os.getpid()}")
    try:
        reference = record_tiny(os.path.join(workdir, "reference"))
        for trace in (False, True):
            tiny = harness.Run("tiny", SEED, os.path.join(workdir, f"trace{int(trace)}"), tiny_ops())
            metrics, notes, outcomes = run.measure(tiny, 0.0, trace, reference)
            result = run.report(bench_spec, trace, metrics, notes, outcomes)
            if not result["correct"]:
                problems.append(f"tiny run with trace={int(trace)} is not correct")
        # Corrupt the untraced run's outputs and check again.
        passes = tiny.passes
        before = harness.end_to_end(tiny, tiny.outcomes(reference), [(0.0, 1.0)])[0]["failed_frac"]
        for i, op in enumerate(tiny.ops):
            path = passes[0]["outputs"][i]
            doc = json.loads(harness._read(path))
            if op.id == "path:hamming-6-2":
                perm = doc["permutation"]
                # A wrong permutation that keeps the claimed sign changes.
                perm[0], perm[1] = perm[1], perm[0]
                perm[1], perm[-1] = perm[-1], perm[1]
            elif op.id == "analyze:projective-p2":
                hi = reference["tiny"][op.id][str(SEED % SEED_CLASSES)]["bracket"][1]
                doc["bracket"] = [hi + 1, hi + 1]  # disjoint from the reference
            else:
                continue
            with open(path, "w", encoding="utf-8") as handle:
                json.dump(doc, handle, sort_keys=True, indent=2)
        caught = {op.id for op, o in tiny.outcomes(reference) if o.error and o.refused}
        for op_id in ("path:hamming-6-2", "analyze:projective-p2"):
            if op_id not in caught:
                problems.append(f"corrupted output of {op_id} was not caught")
        after = harness.end_to_end(tiny, tiny.outcomes(reference), [(0.0, 1.0)])[0]["failed_frac"]
        if not after > before:
            problems.append(f"failed_frac did not rise on corrupted outputs ({before} -> {after})")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return problems


def main() -> int:
    problems = failures()
    for problem in problems:
        print(f"FAIL {problem}")
    print("self-test passed" if not problems else f"self-test failed: {len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
