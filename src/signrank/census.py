"""Exhaustive census of concept classes over tiny cubes.

Classes over n columns are the non-empty subsets of the 2^n cube vertices,
encoded as bit masks, so the full census at n <= 4 is a table over at most
65536 masks. The per-mask VC dimension is computed with vectorized coverage
tests: a column set is shattered by a class mask iff the mask meets the
vertex set of every pattern. Larger n falls back to Monte Carlo sampling:
the drawn classes are stacked as bit arrays, and one scan of the (d+1)-sets
of columns per stack decides VC <= d for all of its classes (no (d+1)-set
is shattered), within the shattering search's subset budget.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from typing import Iterable

import numpy as np

from .errors import MAX_CELLS, SizeLimitError
from .vc import sauer_bound, vc_at_most

MAX_EXACT_N = 4

# Bits (samples x columns x rows) per stacked VC test. A refusal scans the
# whole subset budget for every sample of a stack, so stacks stay small:
# from 2^17 bits down to this size the benchmark's censuses run no slower.
_STACK_CELLS = 1 << 13


@dataclass(frozen=True)
class CensusResult:
    n: int
    d: int
    count_exact: int
    count_at_most: int
    maximum_count: int
    all_maximum_connected: bool


@dataclass(frozen=True)
class CensusEstimate:
    n: int
    d: int
    size: int
    samples: int
    successes: int
    fraction: float
    ci_radius: float


@lru_cache(maxsize=None)
def _census_tables(n: int) -> tuple[np.ndarray, np.ndarray]:
    """(vc, size) arrays indexed by class mask over the 2^n cube vertices."""
    n_vertices = 1 << n
    n_masks = 1 << n_vertices
    masks = np.arange(n_masks, dtype=np.uint16)  # 2^n <= 16 vertices
    vertices = np.arange(n_vertices, dtype=np.uint16)
    vertex_bits = (vertices[:, None] >> np.arange(n)) & 1
    vc = np.zeros(n_masks, dtype=np.int8)
    for k in range(1, n + 1):
        shattered_k = np.zeros(n_masks, dtype=bool)
        for cols in combinations(range(n), k):
            # cover[p]: the vertices showing pattern p on cols, as a mask
            pattern = vertex_bits[:, cols] @ (1 << np.arange(k))
            cover = np.zeros(1 << k, dtype=np.uint16)
            np.bitwise_or.at(cover, pattern, 1 << vertices)
            ok = np.ones(n_masks, dtype=bool)
            for c in cover:
                ok &= (masks & c) != 0
            shattered_k |= ok
        vc[shattered_k] = k
    sizes = np.zeros(1, dtype=np.int8)
    for _ in range(n_vertices):
        sizes = np.concatenate([sizes, sizes + 1])
    return vc, sizes


def _check_exact_n(n: int) -> None:
    if n < 1:
        raise ValueError("n must be at least 1")
    if n > MAX_EXACT_N:
        raise SizeLimitError(
            f"the exact census enumerates 2^(2^n) classes; n={n} exceeds the "
            f"supported maximum {MAX_EXACT_N}; estimate it by sampling instead (--sample)"
        )


def cube_connected(vertices: Iterable[int], n_bits: int) -> bool:
    """True iff the non-empty set of vertex masks induces a connected
    subgraph of the n_bits cube (edges between masks at Hamming distance
    one)."""
    vertices = set(vertices)
    start = next(iter(vertices))
    seen = {start}
    stack = [start]
    while stack:
        m = stack.pop()
        for j in range(n_bits):
            nb = m ^ (1 << j)
            if nb in vertices and nb not in seen:
                seen.add(nb)
                stack.append(nb)
    return len(seen) == len(vertices)


def maximum_class_masks(n: int, d: int) -> list[int]:
    """Masks of all maximum classes of VC dimension d over n columns."""
    _check_exact_n(n)
    if d < 0 or d > n:
        raise ValueError(f"d must be between 0 and {n}")
    vc, sizes = _census_tables(n)
    target = sauer_bound(n, d)
    hits = np.flatnonzero((vc == d) & (sizes == target))
    return [int(m) for m in hits]


def enumerate_census(n: int, d: int) -> CensusResult:
    """Exact counts of non-empty classes over n columns (n <= 4): classes of
    VC dimension exactly d and at most d, the maximum classes among them, and
    whether every maximum class is a connected piece of the cube."""
    max_masks = maximum_class_masks(n, d)
    vc, sizes = _census_tables(n)
    nonempty = sizes > 0
    count_exact = int(((vc == d) & nonempty).sum())
    count_at_most = int(((vc <= d) & nonempty).sum())
    all_connected = all(
        cube_connected((u for u in range(1 << n) if (m >> u) & 1), n) for m in max_masks
    )
    return CensusResult(
        n=n,
        d=d,
        count_exact=count_exact,
        count_at_most=count_at_most,
        maximum_count=len(max_masks),
        all_maximum_connected=all_connected,
    )


def sample_census(
    n: int, d: int, size: int, samples: int, rng: np.random.Generator
) -> CensusEstimate:
    """Monte Carlo estimate of the fraction of classes with VC dimension at
    most d among uniformly random classes of `size` distinct vectors, with a
    binomial confidence radius (normal approximation, conservative at the
    extremes).

    The samples are drawn one rng.choice each, in order, and stacked in
    chunks of at most _STACK_CELLS bits (or one sample, if larger);
    vc_at_most decides each chunk with one scan of the (d+1)-sets of
    columns, which raises SizeLimitError past SUBSET_BUDGET subsets while
    some sample has no shattered (d+1)-set. A class of more than MAX_CELLS
    cells (n * size) raises SizeLimitError before any draw.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if n > 62:
        # Vertices are int64 bit masks drawn by rng.choice(1 << n).
        raise ValueError("n must be at most 62 for sampling (vertices are 64-bit masks)")
    if d < 0 or d > n:
        raise ValueError(f"d must be between 0 and {n}")
    if size < 1 or size > (1 << n):
        raise ValueError(f"size must be between 1 and {1 << n}")
    if samples < 1:
        raise ValueError("samples must be positive")
    if n * size > MAX_CELLS:
        raise SizeLimitError(f"a class of {size} rows over {n} columns exceeds {MAX_CELLS} cells")
    chunk = max(1, _STACK_CELLS // (n * size))
    columns = np.arange(n)[:, None]
    successes = 0
    for start in range(0, samples, chunk):
        draws = min(chunk, samples - start)
        vertices = np.stack(
            [rng.choice(1 << n, size=size, replace=False) for _ in range(draws)]
        )
        bits = (vertices[:, None, :] >> columns) & 1
        successes += int(vc_at_most(bits, d).sum())
    fraction = successes / samples
    spread = fraction * (1.0 - fraction)
    if spread == 0.0:
        spread = 0.25
    radius = 1.96 * math.sqrt(spread / samples)
    return CensusEstimate(n, d, size, samples, successes, fraction, radius)
