"""Set-up, timed passes and metrics of one benchmark run.

One client in a closed loop: a single process calls `signrank.cli.main`
with the argv a user would type, and starts each op only after the previous
one returned. Before each op the package's lru caches are cleared, because
every CLI invocation is a fresh process that pays for them again.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import statistics
import time

import numpy as np
from signrank import cli

import calibrate
import checks
import tracing
from workloads import SEED_CLASSES, argv_for, ops_for

SETUP_REPS = 7


class Run:
    """One workload at one seed, with its work directory."""

    def __init__(self, workload: str, seed: int, workdir: str, ops=None) -> None:
        self.workload = workload
        self.seed = seed
        self.seed_class = seed % SEED_CLASSES
        self.ops = ops_for(workload) if ops is None else ops
        self.workdir = workdir
        self.inputs: dict[str, tuple[str, object, str]] = {}  # key -> path, matrix, sha
        self.passes: list[dict] = []
        self._caches = [
            obj
            for module in tracing.layer_modules().values()
            for obj in vars(module).values()
            if callable(getattr(obj, "cache_clear", None))
        ]

    def setup(self) -> tuple[float, float]:
        """Generate and write every input. Returns (set-up time, time spent
        inside the generators)."""
        start = time.perf_counter()
        build = 0.0
        inputs = {}
        os.makedirs(os.path.join(self.workdir, "inputs"), exist_ok=True)
        for op in self.ops:
            inst = op.instance
            if inst is None or inst.key in inputs:
                continue
            t = time.perf_counter()
            matrix = inst.build()
            build += time.perf_counter() - t
            text = matrix.to_text()
            path = os.path.join(self.workdir, "inputs", f"{inst.key}.txt")
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(text)
            inputs[inst.key] = (path, matrix.entries, checks.sha(text))
        self.inputs = inputs
        return time.perf_counter() - start, build

    def run_pass(self, label: str, tracer=None) -> dict:
        """One pass over the ops; outputs go to their own directory. With a
        tracer, each op's spans are tagged with the op id. The calibration
        kernel runs just before each op, outside its latency."""
        outdir = os.path.join(self.workdir, label)
        os.makedirs(outdir, exist_ok=True)
        argvs = []
        for op in self.ops:
            path = self.inputs[op.instance.key][0] if op.instance else None
            out = os.path.join(outdir, op.id.replace(":", "_") + ".json")
            argvs.append((op, argv_for(op, path, out, self.seed_class), out))
        latencies, kernels, codes = [], [], []
        sink = io.StringIO()
        for op, argv, _ in argvs:
            kernels.append(calibrate.kernel_s())
            for cache in self._caches:
                cache.cache_clear()
            if tracer is not None:
                tracer.op = op.id
            t = time.perf_counter()
            with contextlib.redirect_stderr(sink):
                try:
                    code = cli.main(argv)
                except Exception as exc:  # a crash is a wrong outcome, not the end of the run
                    code = f"raised {type(exc).__name__}: {exc}"
            latencies.append(time.perf_counter() - t)
            codes.append(code)
        record = {"label": label, "wall": sum(latencies), "latencies": latencies,
                  "kernels": kernels, "codes": codes,
                  "outputs": [out for *_, out in argvs],
                  "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
        self.passes.append(record)
        return record

    def record(self) -> dict[str, dict]:
        """Set up, run one pass and return what reference.json keeps for
        each op at this seed class."""
        self.setup()
        record = self.run_pass("pass0")
        table = {}
        for i, op in enumerate(self.ops):
            text = _read(record["outputs"][i])
            entry = checks.record(op, record["codes"][i], json.loads(text) if text else None)
            if op.instance is not None:
                entry["input"] = self.inputs[op.instance.key][2]
            table[op.id] = entry
        return table

    def outcomes(self, reference: dict) -> list[tuple[object, checks.Outcome]]:
        """Check every op of every pass. Outputs must also be byte-identical
        across passes, traced or not."""
        refs = reference.get(self.workload, {})
        result = []
        first = self.passes[0]
        for i, op in enumerate(self.ops):
            _, matrix, digest = self.inputs[op.instance.key] if op.instance else (None, None, None)
            ref = refs.get(op.id, {}).get(str(self.seed_class))
            baseline = _read(first["outputs"][i])
            for record in self.passes:
                code, text = record["codes"][i], _read(record["outputs"][i])
                doc = json.loads(text) if text is not None else None
                outcome = checks.check(op, code, doc, matrix, ref, digest)
                if outcome.error is None and text != baseline:
                    outcome = checks.Outcome(True, f"output of pass {record['label']} differs")
                result.append((op, outcome))
        return result


def _read(path: str) -> str | None:
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read()
    except FileNotFoundError:
        return None


def tail(latencies: list[float]) -> tuple[float, str]:
    """The highest percentile with at least ten samples beyond it; with fewer
    than eleven samples, the maximum."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n < 11:
        return ordered[-1], f"p100 of n={n}"
    return ordered[n - 11], f"p{100 * (n - 10) / n:.1f} of n={n}"


def hd_median(values: list[float]) -> float:
    """The Harrell-Davis median: the mean of the order statistics weighted by
    a Beta((n+1)/2, (n+1)/2) distribution over their ranks. The middle order
    statistic alone jumps whenever the ops' latencies leave a gap around the
    middle, as small_batch's do between its short ops and its hinge-bound ops."""
    x = np.sort(values)
    n = len(x)
    t = np.linspace(0.0, 1.0, 100_001)
    log_pdf = (n - 1) / 2 * np.log(np.maximum(t * (1.0 - t), 1e-300))
    pdf = np.exp(log_pdf - log_pdf.max())
    cdf = np.concatenate([[0.0], np.cumsum(pdf[1:] + pdf[:-1])])
    cdf /= cdf[-1]
    weights = np.diff(np.interp(np.arange(n + 1) / n, t, cdf))
    return float(weights @ x)


def end_to_end(run: Run, outcomes, setup_s: list[tuple[float, float]]) -> tuple[dict, dict]:
    """The end-to-end metrics, and notes on how some were formed. Times are
    in seconds at the reference host speed (see calibrate.py); `setup_s` is
    (set-up time, kernel time before it) per set-up."""
    untraced = [p for p in run.passes if not p["label"].startswith("traced")]
    # Each op's latency at the reference speed, median over untraced passes.
    # Every pass does the same work (outputs are byte-identical), so what
    # moves between passes is the host.
    op_s = [
        statistics.median(calibrate.REFERENCE_S * p["latencies"][i] / p["kernels"][i]
                          for p in untraced)
        for i in range(len(run.ops))
    ]
    per_op = {}
    for op, outcome in outcomes:
        seen = per_op.setdefault(op.id, outcome)
        if outcome.refused and not seen.refused:
            per_op[op.id] = outcome
    refused = sum(o.refused for o in per_op.values())
    brackets = [o.bracket for o in per_op.values() if o.bracket is not None]
    paths = [o.path_sc for o in per_op.values() if o.path_sc is not None]
    wall = sum(op_s)
    op_tail, tail_note = tail(op_s)
    if len(run.ops) < 11:
        # With so few distinct ops the median is one op's latency, which moves
        # with that op alone; the mean op latency stands in for it.
        p50, p50_note = wall / len(run.ops), f"mean of n={len(run.ops)} ops"
    else:
        p50, p50_note = hd_median(op_s), f"Harrell-Davis median of n={len(op_s)} ops"
    passes = f"each op's median of {len(untraced)} untraced passes"
    metrics = {
        "setup_s": statistics.median(calibrate.REFERENCE_S * s / k for s, k in setup_s),
        "wall_s": wall,
        "op_p50_s": p50,
        "op_tail_s": op_tail,
        # After the first pass: later passes add allocator fragmentation, so
        # the peak grew with the pass count (by 8% from four to five passes).
        "peak_rss_mb": run.passes[0]["rss_mb"],
        # Rule-of-succession estimate, so a workload with no failures still
        # reads above zero and a new failure always raises it.
        "failed_frac": (refused + 1) / (len(per_op) + 2),
        "bracket_log2_gap": statistics.fmean(checks.log2_gap(b) for b in brackets) if brackets else 0.0,
        "path_max_sc": sum(paths),
    }
    kernels = [k for p in untraced for k in p["kernels"]]
    scaled = (f"at the reference speed (calibration kernel median {1e3 * statistics.median(kernels):.3f} "
              f"ms over {len(kernels)} ops, reference {1e3 * calibrate.REFERENCE_S:g} ms)")
    notes = {
        "setup_s": f"median of {len(setup_s)} set-ups, measured "
                   + ", ".join(f"{s:.3f}" for s, _ in setup_s),
        "wall_s": f"sum over ops of {passes} {scaled}; measured pass walls "
                  + ", ".join(f"{p['wall']:.3f}" for p in untraced),
        "op_p50_s": f"{p50_note}, {passes}",
        "op_tail_s": f"{tail_note} ops, {passes}",
        "failed_frac": f"{refused}/{len(per_op)} ops refused or wrong, reported as ({refused}+1)/({len(per_op)}+2)",
        "bracket_log2_gap": f"mean over {len(brackets)} bracketed ops",
        "path_max_sc": f"sum over {len(paths)} ops with a row path",
    }
    return metrics, notes
