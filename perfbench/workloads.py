"""The benchmark's workloads: which instances each one generates and which
command-line operations it runs on them.

A workload seed is reduced to one of SEED_CLASSES seed classes, which is
passed to the CLI as `--seed`. Random instances use fixed seeds: whether
`analyze` exits 4 depends on the instance alone, and its cost varies by
about 25% between instances, so instances drawn per seed class made
failed_frac and the slowest op jump between runs. The same seed always
gives the same inputs and outputs, and every output has a reference
recorded at the seed commit (reference.json).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from signrank import generators
from signrank.matrix import SignMatrix
from signrank.vc import ConceptClass

SEED_CLASSES = 32


@dataclass(frozen=True)
class Instance:
    """One generated input matrix; a random generator draws from `seed`."""

    key: str
    generator: str
    params: tuple[tuple[str, int], ...]
    seed: int | None = None

    def build(self) -> SignMatrix:
        fn = getattr(generators, self.generator)
        kwargs = dict(self.params)
        if self.seed is not None:
            kwargs["rng"] = np.random.default_rng(self.seed)
        made = fn(**kwargs)
        if isinstance(made, ConceptClass):
            made = made.matrix
        return made


@dataclass(frozen=True)
class Op:
    """One `signrank` invocation. `command` is analyze, path, enumerate
    (exact census) or sample (sampled census). The CLI --seed is the seed
    class unless `cli_seed` fixes it."""

    id: str
    command: str
    instance: Instance | None = None
    extra: tuple[str, ...] = ()
    cli_seed: int | None = None


def _inst(key, generator, seed=None, **params):
    return Instance(key, generator, tuple(params.items()), seed)


def _analyze(inst):
    return Op(f"analyze:{inst.key}", "analyze", inst)


def _path(inst):
    return Op(f"path:{inst.key}", "path", inst)


def _ladder():
    return [
        _analyze(_inst("projective-p3", "projective_incidence", p=3)),
        _analyze(_inst("projective-p5", "projective_incidence", p=5)),
        # Exits 3 at the seed commit: the up-front subset budget rejects it.
        _analyze(_inst("projective-p7", "projective_incidence", p=7)),
        # Exits 4 at the seed commit: the exit-4 check compares iterations
        # summed over four power runs with the per-run cap --budget.
        _analyze(_inst("interval-p3", "interval_class", p=3)),
        _analyze(_inst("grid-6x3", "grid_hyperplane", n=6, d=3)),
        _analyze(_inst("disjointness-4", "disjointness", n=4)),
        # Exits 3 at the seed commit, like projective p=7.
        _analyze(_inst("disjointness-5", "disjointness", n=5)),
        _analyze(_inst("hamming-8-2", "hamming_ball", n=8, d=2)),
        _analyze(_inst("line-subset-p5", "line_subset_random", seed=0, p=5)),
    ]


def _path_tall():
    return [
        _path(_inst("interval-p5", "interval_class", p=5)),
        _path(_inst("grid-16x2", "grid_hyperplane", n=16, d=2)),
        _path(_inst("hamming-14-2", "hamming_ball", n=14, d=2)),
    ]


def _small_batch():
    insts = [_inst(f"identity-{n}", "signed_identity", n=n) for n in (4, 8, 16, 32)]
    insts += [_inst(f"projective-p{p}", "projective_incidence", p=p) for p in (2, 3)]
    insts += [_inst(f"disjointness-{n}", "disjointness", n=n) for n in (2, 3, 4)]
    insts += [
        _inst(f"hamming-{n}-{d}", "hamming_ball", n=n, d=d)
        for n, d in ((6, 1), (6, 2), (8, 2), (10, 2), (12, 2))
    ]
    insts += [_inst(f"grid-{n}x2", "grid_hyperplane", n=n, d=2) for n in (3, 4, 5)]
    # The CLI seed decides how long each hinge search runs, which moved the
    # median and tail op latency by about 20% between seeds, so this
    # workload does not depend on the seed at all. Eight draws of the
    # hinge-bound families put the median op among hinge-bound ops rather
    # than in the gap below them.
    for key, generator, params, draws in (
        ("line-subset-p2", "line_subset_random", dict(p=2), 4),
        ("line-subset-p3", "line_subset_random", dict(p=3), 8),
        ("heavy-free-16-3", "heavy_dominant_free_random", dict(n=16, d=3), 8),
    ):
        insts += [_inst(f"{key}-s{k}", generator, k, **params) for k in range(draws)]
    ops = [Op(f"analyze:{inst.key}", "analyze", inst, cli_seed=0) for inst in insts]
    ops += [
        Op(f"enumerate:n4-d{d}", "enumerate", extra=("--n", "4", "--d", str(d)), cli_seed=0)
        for d in range(5)
    ]
    ops += [
        Op(
            f"sample:n{n}-d{d}-size{size}",
            "sample",
            extra=("--n", str(n), "--d", str(d), "--sample", "--size", str(size),
                   "--samples", "400"),
            cli_seed=0,
        )
        for n, d, size in ((5, 2, 10), (6, 2, 12), (7, 3, 20))
    ]
    return ops


WORKLOADS = {
    "analyze_ladder": _ladder,
    "path_tall": _path_tall,
    "small_batch": _small_batch,
}


def ops_for(workload: str) -> list[Op]:
    return WORKLOADS[workload]()


def argv_for(op: Op, input_path: str | None, out_path: str, seed_class: int) -> list[str]:
    argv = [op.command if op.command != "sample" else "enumerate"]
    if input_path is not None:
        argv.append(input_path)
    argv += list(op.extra)
    seed = seed_class if op.cli_seed is None else op.cli_seed
    return argv + ["--seed", str(seed), "--out", out_path]


def describe(workload: str, seed: int) -> list[str]:
    """One line per op: the command, and the instance's generator,
    parameters and shape."""
    seed_class = seed % SEED_CLASSES
    lines = [f"workload {workload}, seed {seed} (seed class {seed_class})"]
    for op in ops_for(workload):
        if op.instance is None:
            lines.append(f"  {op.id:34s} signrank {op.command} {' '.join(op.extra)}")
            continue
        inst = op.instance
        params = ", ".join(f"{k}={v}" for k, v in inst.params)
        drawn = "" if inst.seed is None else f", seed {inst.seed}"
        shape = "x".join(map(str, inst.build().shape))
        lines.append(f"  {op.id:34s} {inst.generator}({params}{drawn}) {shape}")
    return lines
