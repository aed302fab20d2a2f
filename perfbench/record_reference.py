"""Record reference.json: each op's exit code and answer at every seed class.

    python3 perfbench/record_reference.py [workload ...]

Run this at the seed commit only. The benchmark checks later commits
against these answers: brackets must overlap the recorded ones and census
counts must match them. Recording every workload takes about 15 minutes on
two cores.
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
from workloads import SEED_CLASSES, WORKLOADS  # noqa: E402


def main(names: list[str]) -> int:
    reference = checks.load_reference() if os.path.exists(checks.REFERENCE) else {}
    for workload in names or sorted(WORKLOADS):
        table: dict[str, dict[str, dict]] = {}
        for seed_class in range(SEED_CLASSES):
            workdir = os.path.join(run.WORK, f"reference-{workload}-{seed_class}")
            for op_id, entry in harness.Run(workload, seed_class, workdir).record().items():
                table.setdefault(op_id, {})[str(seed_class)] = entry
            shutil.rmtree(workdir, ignore_errors=True)
            print(f"{workload} seed class {seed_class} recorded", flush=True)
        reference[workload] = table
        with open(checks.REFERENCE, "w", encoding="utf-8") as handle:
            json.dump(reference, handle, sort_keys=True, separators=(",", ":"))
            handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
