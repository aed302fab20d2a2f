"""Output checks and the per-op quantities behind the exact metrics.

Each op's output is checked against what the benchmark can verify on its
own (a path's sign changes, recomputed in numpy) or against the reference
recorded at the seed commit (reference.json): brackets must overlap the
recorded bracket, because two certified brackets of one matrix always
overlap, and census counts must match exactly.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass

import numpy as np

REFERENCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")

# Exit codes documented by the CLI: 3 size-limit refusal, 4 non-convergence
# with the report still written.
EXIT_OK, EXIT_SIZE, EXIT_NUMERIC = 0, 3, 4


def load_reference() -> dict:
    with open(REFERENCE, encoding="utf-8") as handle:
        return json.load(handle)


def sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def distinct_rows(E: np.ndarray) -> np.ndarray:
    """Rows of E without repeats, first occurrences in order."""
    _, first = np.unique(E, axis=0, return_index=True)
    return E[np.sort(first)]


@dataclass
class Outcome:
    """One op execution as the metrics see it.

    `refused` marks an op that exited non-zero or failed a check (it counts
    in failed_frac); `error` is set when the outcome is wrong: a failed
    check, or an exit code other than success and the documented refusals.
    `bracket` and `path_sc` feed bracket_log2_gap and path_max_sc."""

    refused: bool
    error: str | None
    bracket: tuple[int, int] | None = None
    path_sc: int | None = None


def record(op, code: int, doc: dict | None) -> dict:
    """What reference.json keeps for one op at one seed class."""
    entry = {"exit": code}
    if doc is None:
        return entry
    if op.command == "analyze":
        entry["bracket"] = doc["bracket"]
    elif op.command == "enumerate":
        entry["doc"] = doc
    elif op.command == "sample":
        entry["successes"] = doc["successes"]
    return entry


def check(op, code: int | str, doc: dict | None, matrix: np.ndarray | None,
          ref: dict | None, input_sha: str | None) -> Outcome:
    """Check one op's exit code and output, and derive its metric inputs."""
    error = _error(op, code, doc, matrix, ref, input_sha)
    bracket = path_sc = None
    if op.command in ("analyze", "path"):
        if error is None and doc is not None and op.command == "analyze":
            bracket, path_sc = tuple(doc["bracket"]), doc["welzl"]["max_sc"]
        elif error is None and doc is not None:
            # vc <= sign rank <= max sign changes of any row order + 1.
            bracket = (max(1, doc["vc"]), doc["max_sign_changes"] + 1)
            path_sc = doc["max_sign_changes"]
        else:
            # No answer: the sign rank lies in [1, min(rows, cols)], and any
            # row order has at most rows - 1 sign changes per column.
            bracket = (1, min(matrix.shape))
            path_sc = distinct_rows(matrix).shape[0] - 1
    return Outcome(code != EXIT_OK or error is not None, error, bracket, path_sc)


def _error(op, code, doc, matrix, ref, input_sha) -> str | None:
    if isinstance(code, str):  # the op raised instead of returning an exit code
        return code
    if ref is None:
        return "no reference recorded for this op and seed class"
    if input_sha is not None and ref.get("input") != input_sha:
        return "input differs from the instance recorded at the seed commit"
    if code not in (EXIT_OK, EXIT_SIZE, EXIT_NUMERIC):
        return f"exit {code}, which is neither success nor a documented refusal"
    if doc is None:
        return f"exit {code} but no report was written" if code in (EXIT_OK, EXIT_NUMERIC) else None
    if op.command == "analyze":
        return _bracket_error(doc, ref)
    if op.command == "path":
        return _path_error(doc, distinct_rows(matrix))
    if op.command == "enumerate":
        return None if doc == ref.get("doc") else f"census {doc} differs from the recorded {ref.get('doc')}"
    if doc.get("successes") != ref.get("successes"):
        return f"{doc.get('successes')} successes, recorded {ref.get('successes')}"
    return None


def _bracket_error(doc, ref) -> str | None:
    lo, hi = doc["bracket"]
    if not 1 <= lo <= hi:
        return f"bracket [{lo}, {hi}] is empty"
    if "bracket" in ref:
        rlo, rhi = ref["bracket"]
        if hi < rlo or lo > rhi:
            return f"bracket [{lo}, {hi}] is disjoint from the recorded [{rlo}, {rhi}]"
    return None


def _path_error(doc, Ed) -> str | None:
    """Recompute the per-column sign changes of the returned row order."""
    perm = doc["permutation"]
    if sorted(perm) != list(range(Ed.shape[0])):
        return "permutation is not a permutation of the distinct rows"
    ordered = Ed[perm]
    changes = (ordered[1:] != ordered[:-1]).sum(axis=0).tolist()
    if changes != doc["sign_changes"] or max(changes) != doc["max_sign_changes"]:
        return (f"recomputed sign changes (max {max(changes)}) differ from the "
                f"reported ones (max {doc['max_sign_changes']})")
    return None


def log2_gap(bracket: tuple[int, int]) -> float:
    lo, hi = bracket
    return math.log2(hi / lo)
