"""Constructors for the structured sign matrices used throughout the library.

All constructors are deterministic; the randomized ones take an explicit
numpy Generator so a seed fully determines the output.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import MAX_CELLS, SizeLimitError
from .matrix import BooleanMatrix, SignMatrix, to_signed
from .vc import ConceptClass

# Most points of a projective space: P @ P^T in int64 then takes 128 MiB.
_MAX_POINTS = 4096


def _check_size(cells: int, what: str) -> None:
    """Refuse a matrix of more than MAX_CELLS cells, checked from the
    parameters before anything is built. Callers clamp exponents past the
    cap, so a huge parameter costs nothing to refuse."""
    if cells > MAX_CELLS:
        raise SizeLimitError(f"{what} has more than {MAX_CELLS} cells")


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    return all(n % q for q in range(2, int(math.isqrt(n)) + 1))


@dataclass(frozen=True)
class ProjectiveSpace:
    """Points of a projective space of prime order, stored as canonical
    homogeneous coordinate vectors over the prime field (first nonzero
    coordinate equal to 1) in lexicographic order.

    The space is self-dual: hyperplane h has the coordinates of point h, and
    a point lies on a hyperplane iff their dot product vanishes mod p.
    """

    order: int
    dim: int
    points: tuple[tuple[int, ...], ...]

    @classmethod
    def build(cls, order: int, dim: int) -> "ProjectiveSpace":
        """The canonical vectors among `np.indices`, in its lexicographic
        order. An order above 4096 is refused before the primality test (it
        has more than order^2 points), a dimension above 12 before the exact
        count (it has more than 2^13 - 1)."""
        if order > _MAX_POINTS:
            raise SizeLimitError(f"order {order}: at most {_MAX_POINTS} points are supported")
        if not _is_prime(order):
            raise ValueError(f"order {order} is not prime")
        if dim < 2:
            raise ValueError("projective dimension must be at least 2")
        if dim > 12:
            raise SizeLimitError(f"dimension {dim}: at most {_MAX_POINTS} points are supported")
        expected = (order ** (dim + 1) - 1) // (order - 1)
        if expected > _MAX_POINTS:
            raise SizeLimitError(f"{expected} points; at most {_MAX_POINTS} are supported")
        vecs = np.indices((order,) * (dim + 1)).reshape(dim + 1, -1).T
        pts = vecs[vecs[np.arange(len(vecs)), (vecs != 0).argmax(axis=1)] == 1]
        if len(pts) != expected:
            raise AssertionError(f"found {len(pts)} points, expected {expected}")
        return cls(order, dim, tuple(map(tuple, pts.tolist())))

    @property
    def n_points(self) -> int:
        return len(self.points)

    @cached_property
    def _coords(self) -> np.ndarray:
        return np.array(self.points)

    def incidence_boolean(self) -> BooleanMatrix:
        P = self._coords
        return BooleanMatrix((P @ P.T % self.order == 0).astype(np.int8))

    def hyperplane_points(self, hyper_index: int) -> tuple[int, ...]:
        P = self._coords
        return tuple(np.flatnonzero(P @ P[hyper_index] % self.order == 0).tolist())


def signed_identity(n: int) -> SignMatrix:
    """+1 on the diagonal, -1 everywhere else."""
    if n < 1:
        raise ValueError("n must be at least 1")
    _check_size(n * n, f"signed_identity({n})")
    data = np.full((n, n), -1, dtype=np.int8)
    np.fill_diagonal(data, 1)
    return SignMatrix(data)


def disjointness(n: int) -> SignMatrix:
    """2^n x 2^n matrix indexed by subsets of [n] in binary order; the entry
    is +1 iff the row and column subsets intersect."""
    if n < 1:
        raise ValueError("n must be at least 1")
    _check_size(4 ** min(n, 13), f"disjointness({n})")
    masks = np.arange(1 << n)
    inter = (masks[:, None] & masks[None, :]) != 0
    return SignMatrix(np.where(inter, 1, -1).astype(np.int8))


def projective_incidence(p: int, d: int = 2) -> SignMatrix:
    """Signed point-hyperplane incidence matrix of the projective space of
    prime order p and dimension d: +1 on incidence, -1 otherwise.

    A space of dimension k has (p^(k+1) - 1)/(p - 1) points, so the boolean
    version is regular with degree (p^d - 1)/(p - 1), and
    B B^T = p^(d-1) I + (p^(d-1) - 1)/(p - 1) J.
    """
    space = ProjectiveSpace.build(p, d)
    return to_signed(space.incidence_boolean())


def _indicators(members: list[tuple[int, ...]], n: int) -> ConceptClass:
    """The +1/-1 indicator vectors over n points of the member tuples."""
    rows = np.repeat(np.arange(len(members)), [len(m) for m in members])
    data = np.full((len(members), n), -1, dtype=np.int8)
    data[rows, list(itertools.chain.from_iterable(members))] = 1
    return ConceptClass(SignMatrix(data))


def hamming_ball(n: int, d: int) -> ConceptClass:
    """All vectors in {+1,-1}^n with at most d coordinates equal to +1, in
    increasing binary order: the tuples of their +1 coordinates, largest
    first, sorted."""
    if n < 1:
        raise ValueError("n must be at least 1")
    if d < 0 or d > n:
        raise ValueError(f"radius d={d} must be between 0 and n={n}")
    rows = 0
    for w in range(d + 1):
        rows += math.comb(n, w)
        _check_size(rows * n, f"hamming_ball({n}, {d})")
    coords = range(n - 1, -1, -1)
    members = sorted(c for w in range(d + 1) for c in itertools.combinations(coords, w))
    return _indicators(members, n)


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
    _check_size(n ** min(d, 25) * d * (n - 1), f"grid_hyperplane({n}, {d})")
    points = np.indices((n,) * d).reshape(d, -1).T + 1
    above = points[:, :, None] > np.arange(1, n)
    return SignMatrix(np.where(above.reshape(len(points), -1), 1, -1))


def default_line_orders(plane: ProjectiveSpace) -> tuple[tuple[int, ...], ...]:
    """The points of each line in increasing order, one tuple per line,
    aligned with the plane's point list (its hyperplanes)."""
    return tuple(plane.hyperplane_points(h) for h in range(plane.n_points))


def planted_line_orders(
    plane: ProjectiveSpace, rng: np.random.Generator
) -> tuple[tuple[int, ...], ...]:
    """Per line, draw a random subset of its points and order the line so the
    subset forms a prefix (ascending indices inside each part)."""
    orders = []
    for line in default_line_orders(plane):
        pts = np.array(line)
        chosen = rng.integers(0, 2, size=len(pts)).astype(bool)
        orders.append(tuple(pts[np.lexsort((pts, ~chosen))].tolist()))
    return tuple(orders)


def _check_intervals(plane: ProjectiveSpace) -> None:
    """Refuse the interval class of a plane past the cell cap."""
    n = plane.n_points
    _check_size((1 + n + math.comb(n, 2)) * n, f"interval_class({plane.order})")


def interval_class(p: int, orders: tuple[tuple[int, ...], ...] | None = None) -> ConceptClass:
    """Over the projective plane of order p: the empty set, all singletons,
    and every contiguous run of length >= 2 of every ordered line, as +1/-1
    indicator vectors over the plane's points.

    `orders` holds one ordering of each line's points, aligned with
    `default_line_orders`, which is the default. The class has
    1 + N + C(N, 2) members with N = p^2 + p + 1.
    """
    plane = ProjectiveSpace.build(p, 2)
    _check_intervals(plane)
    n = plane.n_points
    lines = default_line_orders(plane)
    if orders is None:
        orders = lines
    if len(orders) != n:
        raise ValueError("need one order per line")
    for h, order in enumerate(orders):
        if tuple(sorted(order)) != lines[h]:
            raise ValueError(f"order for line {h} does not cover its points")
    members = [(), *((q,) for q in range(n))]
    members += [
        order[start:stop]
        for order in orders
        for start in range(len(order))
        for stop in range(start + 2, len(order) + 1)
    ]
    expected = 1 + n + math.comb(n, 2)
    if len(members) != expected:
        raise AssertionError(f"built {len(members)} rows, expected {expected}")
    return _indicators(members, n)


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
    if n < 1:
        raise ValueError("n must be at least 1")
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
    # The masks with at most width - min_weight zero bits, increasing, so the
    # all-ones one comes last; none when width > n leaves no column set.
    patterns = [] if width > n else sorted(
        (1 << width) - 1 - sum(1 << b for b in z)
        for k in range(width - min_weight + 1) for z in itertools.combinations(range(width), k))

    B = (rng.random((n, n)) < prob).astype(np.int8)
    ones_initial = int(B.sum())

    hits = deleted = 0
    # Column sets in lexicographic order, 2^14 at a time, with an upper-bound
    # prefilter: deletions only remove ones, so a set that fails it now never
    # qualifies later. None qualifies when there are fewer rows than patterns.
    combos = itertools.combinations(range(n), width) if 0 < len(patterns) <= n else ()
    while chunk := list(itertools.islice(combos, 2**14)):
        col_sets = np.array(chunk, dtype=np.intp)
        indicator = np.zeros((len(col_sets), n), dtype=np.int8)
        indicator[np.arange(len(col_sets))[:, None], col_sets] = 1
        weights = B @ indicator.T  # rows x subsets
        qualified = (weights >= min_weight).sum(axis=0) >= len(patterns)
        for cols in col_sets[qualified]:
            while True:
                proj = (B[:, cols].astype(np.int64) << np.arange(width)).sum(axis=1)
                assignment = _dominating_assignment(proj.tolist(), patterns)
                if assignment is None:
                    break
                hits += 1
                row = assignment[len(patterns) - 1]  # the all-ones pattern
                ones = cols[B[row, cols] == 1][:deletions_per_hit]
                B[row, ones] = 0
                deleted += len(ones)
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
