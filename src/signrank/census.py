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

import numpy as np

from .errors import SizeLimitError
from .matrix import SignMatrix
from .vc import ConceptClass, cube_connected, is_cube_connected, sauer_bound, vc_at_most

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
    masks = np.arange(n_masks, dtype=np.int64)
    vc = np.zeros(n_masks, dtype=np.int8)
    for k in range(1, n + 1):
        shattered_k = np.zeros(n_masks, dtype=bool)
        for cols in combinations(range(n), k):
            ok = np.ones(n_masks, dtype=bool)
            for pattern in range(1 << k):
                cover = 0
                for v in range(n_vertices):
                    if all(
                        (v >> c) & 1 == (pattern >> i) & 1
                        for i, c in enumerate(cols)
                    ):
                        cover |= 1 << v
                ok &= (masks & cover) != 0
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
            f"supported maximum {MAX_EXACT_N} (use sampling instead)"
        )


def class_from_mask(mask: int, n: int) -> ConceptClass:
    """Materialize a class mask as vectors: vertex v maps to the row whose
    column j carries +1 iff bit j of v is set."""
    rows = [
        [1 if (v >> j) & 1 else -1 for j in range(n)]
        for v in range(1 << n)
        if (mask >> v) & 1
    ]
    return ConceptClass(SignMatrix(rows))


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
    _check_exact_n(n)
    if d < 0 or d > n:
        raise ValueError(f"d must be between 0 and {n}")
    vc, sizes = _census_tables(n)
    nonempty = sizes > 0
    count_exact = int(((vc == d) & nonempty).sum())
    count_at_most = int(((vc <= d) & nonempty).sum())
    max_masks = maximum_class_masks(n, d)
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
    vc_at_most decides each chunk with
    one scan of the (d+1)-sets of columns, which raises SizeLimitError past
    SUBSET_BUDGET subsets while some sample has no shattered (d+1)-set.
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


def cube_connectivity_crosscheck(n: int, d: int) -> bool:
    """Re-check the census connectivity flag through the concept-class API:
    every maximum class, materialized as vectors, must have a connected
    one-inclusion graph."""
    return all(
        is_cube_connected(class_from_mask(m, n)) for m in maximum_class_masks(n, d)
    )
