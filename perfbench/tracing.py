"""Outside-in layer tracing for the signrank package.

The tracer replaces every public function of the package's layer modules,
in every layer module namespace that holds it, with a wrapper that records
a span (name, start, end, parent span, op id). Calls between modules look
the function up in the caller's namespace, so each cross-module call and
each module-global call inside a layer is seen; the package source is not
touched. Spans stay in memory and are written out when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from collections import defaultdict

import numpy as np

LAYERS = ("matrix", "vc", "stabbing", "spectral", "embed", "census", "generators", "cli")

# Functions whose self time together makes up the Forster lower-bound path.
FORSTER = ("spectral.identity_witness", "spectral.forster_bound", "spectral.spectral_signrank_lower")


def layer_modules():
    return {name: importlib.import_module(f"signrank.{name}") for name in LAYERS}


def _layer_of(fn) -> str | None:
    parts = getattr(fn, "__module__", "").split(".")
    if len(parts) == 2 and parts[0] == "signrank" and parts[1] in LAYERS:
        return parts[1]
    return None


class Tracer:
    """Span recorder. `install` wraps the layer functions and `remove` puts
    the originals back; spans[i] = [name, start, end, parent, op, note]."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.op: str | None = None
        self.spectra: list = []  # matrices passed to top_singular_values
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for module in layer_modules().values():
            for attr, fn in list(vars(module).items()):
                layer = _layer_of(fn)
                if attr.startswith("_") or layer is None or not inspect.isfunction(fn):
                    continue
                self._saved.append((module, attr, fn))
                setattr(module, attr, self._wrap(f"{layer}.{fn.__name__}", fn))

    def remove(self) -> None:
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[2] = time.perf_counter()
                span[5] = {"raised": type(exc).__name__}
                raise
            finally:
                stack.pop()
            span[2] = time.perf_counter()
            span[5] = self._note(name, args, kwargs, result)
            return result

        return traced

    def _note(self, name, args, kwargs, result):
        """Work counters read off a call's arguments and result."""
        if name == "stabbing.welzl_path":
            S = args[0]
            # The greedy's n x n x m diff tensor: one bool plus one float64 copy.
            return {
                "steps": len(result[1].forest_edges),
                "diff_mb": S.n_rows ** 2 * S.n_cols * 9 / 2**20,
            }
        if name == "embed.hinge_search_upper":
            return {"found": result is not None}
        if name == "spectral.top_singular_values":
            self.spectra.append(args[0] if args else kwargs["M"])
            return {"iterations": result.iterations, "sigma1": result.sigma1,
                    "spectrum": len(self.spectra) - 1}
        if name == "census.sample_census":
            return {"samples": args[3] if len(args) > 3 else kwargs["samples"]}
        return None

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent, op, note in self.spans:
                handle.write(json.dumps({"name": name, "start": start, "end": end,
                                         "parent": parent, "op": op, "note": note}) + "\n")


def self_times(spans) -> list[float]:
    """Per span: its duration minus the time its direct children cover."""
    own = [end - start for _, start, end, *_ in spans]
    for _, start, end, parent, *_ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def layer_metrics(tracer: Tracer, traced_wall: float, untraced_wall: float) -> dict[str, float]:
    """The per-layer metrics of one traced pass."""
    spans = tracer.spans
    own = self_times(spans)
    self_s: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    for span, t in zip(spans, own):
        self_s[span[0]] += t
        calls[span[0]] += 1
    out: dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(t for n, t in self_s.items() if n.split(".")[0] == layer)
    for name in ("vc.vc_dimension", "vc.dual_sign_rank", "stabbing.welzl_path",
                 "embed.hinge_search_upper", "spectral.top_singular_values"):
        out[f"{name}.self_s"] = self_s[name]
        out[f"{name}.calls"] = calls[name]
    for name in ("stabbing.vc1_path", "embed.embed_vc1", "embed.signrank_bracket",
                 "census.enumerate_census", "census.sample_census",
                 "matrix.parse_sign_matrix", "matrix.distinct_rows", "cli.main"):
        out[f"{name}.self_s"] = self_s[name]
    out["spectral.forster.self_s"] = sum(self_s[n] for n in FORSTER)

    # A SizeLimitError raised in vc is counted once, at the outermost vc span.
    wasted, limited = 0.0, 0
    for name, start, end, parent, _, note in spans:
        if (name.startswith("vc.") and note and note.get("raised") == "SizeLimitError"
                and not (parent >= 0 and spans[parent][0].startswith("vc."))):
            limited += 1
            wasted += end - start
    out["vc.size_limit.count"] = limited
    out["vc.size_limit.wasted_s"] = wasted

    notes = defaultdict(list)
    for name, *_, note in spans:
        if note and "raised" not in note:
            notes[name].append(note)
    welzl = notes["stabbing.welzl_path"]
    out["stabbing.welzl_path.steps"] = sum(n["steps"] for n in welzl)
    out["stabbing.welzl_path.diff_mb"] = max((n["diff_mb"] for n in welzl), default=0.0)
    hinge = notes["embed.hinge_search_upper"]
    out["embed.hinge_search_upper.found_ratio"] = (
        sum(n["found"] for n in hinge) / len(hinge) if hinge else 0.0)
    out["embed.hinge_search_upper.found"] = sum(n["found"] for n in hinge)
    spectra = notes["spectral.top_singular_values"]
    out["spectral.power_iterations"] = sum(n["iterations"] for n in spectra)
    worst = 0.0
    for n in spectra:
        exact = float(np.linalg.svd(np.asarray(tracer.spectra[n["spectrum"]], dtype=float),
                                    compute_uv=False)[0])
        if exact > 0.0:
            worst = max(worst, (exact - n["sigma1"]) / exact)
    out["spectral.sigma1_rel_err_max"] = worst
    out["census.samples"] = sum(n["samples"] for n in notes["census.sample_census"])
    out["trace.wall_s"] = traced_wall
    out["trace.overhead_s"] = traced_wall - untraced_wall
    return out
