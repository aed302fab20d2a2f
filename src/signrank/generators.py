"""Constructors for the structured sign matrices used throughout the library.

All constructors are deterministic; the randomized ones take an explicit
numpy Generator so a seed fully determines the output.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import SizeLimitError
from .matrix import BooleanMatrix, SignMatrix, to_signed
from .vc import ConceptClass


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    return all(n % q for q in range(2, int(math.isqrt(n)) + 1))


@dataclass(frozen=True)
class ProjectiveSpace:
    """Points and hyperplanes of a projective space of prime order.

    Both sides are stored as canonical homogeneous coordinate vectors over the
    prime field (first nonzero coordinate equal to 1), listed in lexicographic
    order. A point lies on a hyperplane iff their dot product vanishes mod p.
    """

    order: int
    dim: int
    points: tuple[tuple[int, ...], ...]
    hyperplanes: tuple[tuple[int, ...], ...]

    @classmethod
    def build(cls, order: int, dim: int) -> "ProjectiveSpace":
        if not _is_prime(order):
            raise ValueError(f"order {order} is not prime")
        if dim < 2:
            raise ValueError("projective dimension must be at least 2")
        pts = []
        for v in itertools.product(range(order), repeat=dim + 1):
            nz = next((x for x in v if x != 0), 0)
            if nz == 1:
                pts.append(v)
        expected = (order ** (dim + 1) - 1) // (order - 1)
        if len(pts) != expected:
            raise AssertionError(f"found {len(pts)} points, expected {expected}")
        points = tuple(pts)
        return cls(order, dim, points, points)

    @property
    def n_points(self) -> int:
        return len(self.points)

    def incident(self, point_index: int, hyper_index: int) -> bool:
        p = self.points[point_index]
        h = self.hyperplanes[hyper_index]
        return sum(a * b for a, b in zip(p, h)) % self.order == 0

    def incidence_boolean(self) -> BooleanMatrix:
        n = self.n_points
        data = np.zeros((n, n), dtype=np.int8)
        for i in range(n):
            for j in range(n):
                if self.incident(i, j):
                    data[i, j] = 1
        return BooleanMatrix(data)

    def hyperplane_points(self, hyper_index: int) -> tuple[int, ...]:
        return tuple(
            i for i in range(self.n_points) if self.incident(i, hyper_index)
        )


def point_count(order: int, dim: int) -> int:
    """1 + n + ... + n^dim, the number of points of the space of that order."""
    return (order ** (dim + 1) - 1) // (order - 1)


def signed_identity(n: int) -> SignMatrix:
    """+1 on the diagonal, -1 everywhere else."""
    if n < 1:
        raise ValueError("n must be at least 1")
    data = np.full((n, n), -1, dtype=np.int8)
    np.fill_diagonal(data, 1)
    return SignMatrix(data)


def disjointness(n: int) -> SignMatrix:
    """2^n x 2^n matrix indexed by subsets of [n] in binary order; the entry
    is +1 iff the row and column subsets intersect."""
    if n < 1:
        raise ValueError("n must be at least 1")
    masks = np.arange(1 << n)
    inter = (masks[:, None] & masks[None, :]) != 0
    return SignMatrix(np.where(inter, 1, -1).astype(np.int8))


def projective_incidence(p: int, d: int = 2) -> SignMatrix:
    """Signed point-hyperplane incidence matrix of the projective space of
    prime order p and dimension d: +1 on incidence, -1 otherwise.

    The boolean version is regular with degree point_count(p, d-1), and
    B B^T = p^(d-1) I + point_count(p, d-2) J.
    """
    space = ProjectiveSpace.build(p, d)
    return to_signed(space.incidence_boolean())


def hamming_ball(n: int, d: int) -> ConceptClass:
    """All vectors in {+1,-1}^n with at most d coordinates equal to +1,
    enumerated in increasing binary order."""
    if d < 0 or d > n:
        raise ValueError(f"radius d={d} must be between 0 and n={n}")
    masks = sorted(
        sum(1 << j for j in combo)
        for w in range(d + 1)
        for combo in itertools.combinations(range(n), w)
    )
    rows = [[1 if (mask >> j) & 1 else -1 for j in range(n)] for mask in masks]
    return ConceptClass(SignMatrix(rows))


def grid_hyperplane(n: int, d: int) -> SignMatrix:
    """Points of the grid {1..n}^d against the d(n-1) axis-parallel halfspaces
    x_j > i + 1/2.

    Rows are grid points in lexicographic order; column (j, i) sits at index
    j*(n-1) + (i-1) for axis j in 0..d-1 and threshold i in 1..n-1.
    """
    if n < 2:
        raise ValueError("n must be at least 2")
    if d < 1:
        raise ValueError("d must be at least 1")
    points = list(itertools.product(range(1, n + 1), repeat=d))
    data = np.empty((len(points), d * (n - 1)), dtype=np.int8)
    for r, pt in enumerate(points):
        c = 0
        for j in range(d):
            for i in range(1, n):
                data[r, c] = 1 if pt[j] > i else -1
                c += 1
    return SignMatrix(data)


@dataclass(frozen=True)
class LineOrders:
    """One permutation of the incident point indices per projective-plane
    line, aligned with the plane's hyperplane list."""

    orders: tuple[tuple[int, ...], ...]


def default_line_orders(plane: ProjectiveSpace) -> LineOrders:
    return LineOrders(
        tuple(plane.hyperplane_points(h) for h in range(plane.n_points))
    )


def planted_line_orders(plane: ProjectiveSpace, rng: np.random.Generator) -> LineOrders:
    """Per line, draw a random subset of its points and order the line so the
    subset forms a prefix (ascending indices inside each part)."""
    orders = []
    for h in range(plane.n_points):
        pts = plane.hyperplane_points(h)
        chosen = rng.integers(0, 2, size=len(pts)).astype(bool)
        prefix = [q for q, c in zip(pts, chosen) if c]
        rest = [q for q, c in zip(pts, chosen) if not c]
        orders.append(tuple(prefix + rest))
    return LineOrders(tuple(orders))


def interval_class(p: int, orders: LineOrders | None = None) -> ConceptClass:
    """Over the projective plane of order p: the empty set, all singletons,
    and every contiguous run of length >= 2 of every ordered line, as +1/-1
    indicator vectors over the plane's points.

    The class has 1 + N + C(N, 2) members with N = p^2 + p + 1.
    """
    plane = ProjectiveSpace.build(p, 2)
    if orders is None:
        orders = default_line_orders(plane)
    n = plane.n_points
    if len(orders.orders) != n:
        raise ValueError("need one order per line")
    for h, order in enumerate(orders.orders):
        if sorted(order) != sorted(plane.hyperplane_points(h)):
            raise ValueError(f"order for line {h} does not cover its points")
    rows = [[-1] * n]
    for q in range(n):
        row = [-1] * n
        row[q] = 1
        rows.append(row)
    for order in orders.orders:
        m = len(order)
        for start in range(m):
            for length in range(2, m - start + 1):
                row = [-1] * n
                for q in order[start : start + length]:
                    row[q] = 1
                rows.append(row)
    expected = 1 + n + math.comb(n, 2)
    if len(rows) != expected:
        raise AssertionError(f"built {len(rows)} rows, expected {expected}")
    return ConceptClass(SignMatrix(rows))


def line_subset_random(p: int, rng: np.random.Generator) -> SignMatrix:
    """Keep each incidence of the order-p projective plane independently with
    probability 1/2, then sign the result.

    The output never contains an all-ones 2x2 boolean submatrix (two points
    share exactly one line), so its VC dimension is at most 2.
    """
    plane = ProjectiveSpace.build(p, 2)
    B = plane.incidence_boolean().entries
    keep = rng.random(B.shape) < 0.5
    return to_signed(BooleanMatrix(B * keep.astype(np.int8)))


def _dominating_assignment(
    proj_masks: list[int], patterns: list[int]
) -> dict[int, int] | None:
    """Match each required pattern to a distinct row whose projected mask
    dominates it. Returns {pattern: row} or None (Kuhn's algorithm)."""
    candidates = [
        [r for r, pm in enumerate(proj_masks) if pm & pat == pat] for pat in patterns
    ]
    if any(not c for c in candidates):
        return None
    match_row: dict[int, int] = {}

    def try_assign(pi: int, visited: set[int]) -> bool:
        for r in candidates[pi]:
            if r in visited:
                continue
            visited.add(r)
            if r not in match_row or try_assign(match_row[r], visited):
                match_row[r] = pi
                return True
        return False

    for pi in range(len(patterns)):
        if not try_assign(pi, set()):
            return None
    return {pi: r for r, pi in match_row.items()}


def heavy_dominant_free_random_logged(
    n: int, d: int, rng: np.random.Generator
) -> tuple[SignMatrix, dict]:
    """Sample a sparse boolean matrix and delete a few ones from every
    submatrix that dominates the dense pattern forcing VC dimension d+1.

    For d = 3 the pattern is the 5x4 matrix whose rows are the all-ones row
    and the four rows of weight 3; each entry is drawn with probability
    1/(2 n^(7/15)) and at most two ones are zeroed per occurrence. For d >= 5
    the pattern rows are all vectors of length d+1 and weight >= d-1, the
    entry probability is n^(-(d^2+5d+2)/(d^3+2d^2+3d))/2, and at most three
    ones are zeroed per occurrence. The returned log records the run so the
    ones-count accounting can be re-checked.
    """
    if d == 4 or d < 3:
        raise ValueError("supported pattern dimensions are 3 and 5 or larger")
    if d == 3:
        if n > 40:
            raise SizeLimitError("exhaustive pattern search supports n <= 40 for d=3")
        prob = 0.5 * n ** (-7.0 / 15.0)
        min_weight = d
        deletions_per_hit = 2
    else:
        if n > 25:
            raise SizeLimitError("exhaustive pattern search supports n <= 25 for d>=5")
        num = d * d + 5 * d + 2
        den = d ** 3 + 2 * d * d + 3 * d
        prob = 0.5 * n ** (-num / den)
        min_weight = d - 1
        deletions_per_hit = 3
    width = d + 1
    patterns = [m for m in range(1 << width) if m.bit_count() >= min_weight]
    full_pattern_index = patterns.index((1 << width) - 1)

    B = (rng.random((n, n)) < prob).astype(np.int8)
    ones_initial = int(B.sum())

    # Upper-bound prefilter on the initial matrix: deletions only remove
    # ones, so a column set that never qualified here never will.
    col_sets = np.array(list(itertools.combinations(range(n), width)))
    indicator = np.zeros((len(col_sets), n), dtype=np.int8)
    indicator[np.arange(len(col_sets))[:, None], col_sets] = 1
    weights = B @ indicator.T  # rows x subsets
    candidates = np.flatnonzero((weights >= min_weight).sum(axis=0) >= len(patterns))

    hits = 0
    deleted = 0
    for idx in candidates:
        cols = col_sets[idx]
        while True:
            proj = [
                int(sum(((B[r, c] & 1) << i) for i, c in enumerate(cols)))
                for r in range(n)
            ]
            assignment = _dominating_assignment(proj, patterns)
            if assignment is None:
                break
            hits += 1
            row = assignment[full_pattern_index]
            removed = 0
            for c in cols:
                if B[row, c] == 1:
                    B[row, c] = 0
                    removed += 1
                    if removed == deletions_per_hit:
                        break
            deleted += removed
    log = {
        "probability": prob,
        "ones_initial": ones_initial,
        "occurrences": hits,
        "ones_deleted": deleted,
        "ones_final": int(B.sum()),
    }
    return to_signed(BooleanMatrix(B)), log


def heavy_dominant_free_random(n: int, d: int, rng: np.random.Generator) -> SignMatrix:
    matrix, _ = heavy_dominant_free_random_logged(n, d, rng)
    return matrix
