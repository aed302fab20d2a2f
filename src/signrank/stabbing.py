"""Row orderings with few sign changes per column.

The central routine builds a spanning tree greedily under a multiplicative
column reweighting and orders the rows by a preorder walk of the tree. That
is the paper's shortcut of an Eulerian circuit of the doubled tree: such a
circuit crosses each edge once in each direction, so once it enters a
subtree it visits all of it before leaving, and its first visits form a
preorder. Exact integer weights are kept only for candidate row pairs,
admitted nearest first by Hamming distance while a pair at the next distance
could still be among the lightest, and are updated from the crossed columns
alone, and only when the lightest tie set, carried from step to step, runs
out; ties are broken among exactly equal weights, so the seed alone fixes
the output, whatever the BLAS library or thread count, and memory is O(n^2)
for n rows. For VC dimension one, a single lexicographic sort of the rows
gives an optimal order, with at most two sign changes per column;
`low_stabbing_order` picks between the two, and a factorial-search oracle
gives the exact optimum for up to eight rows.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Sequence

import numpy as np

from .errors import MAX_CELLS, SizeLimitError
from .matrix import SignMatrix, has_distinct_rows

# Ceiling on the total pair weight kept in float64 (see _PairWeights).
_EXACT_LIMIT = 2**52


@dataclass(frozen=True)
class RowOrdering:
    """A row permutation together with its per-column sign-change counts."""

    permutation: tuple[int, ...]
    sign_changes: tuple[int, ...]
    max_sign_changes: int

    def constant(self, vc: int) -> float:
        """max_sign_changes / N^(1 - 1/vc) for N rows: the constant this
        order achieves against the N^(1 - 1/d) bound of the Welzl greedy."""
        return self.max_sign_changes / len(self.permutation) ** (1.0 - 1.0 / vc)


@dataclass
class WelzlState:
    """Trace of one greedy run: final column distribution, the tree edges in
    insertion order, and the chosen edge weights."""

    p: np.ndarray
    forest_edges: list[tuple[int, int]]
    x_log: list[float] = field(default_factory=list)


def count_sign_changes(S: SignMatrix, perm: Sequence[int]) -> RowOrdering:
    """Count, per column, how often the sign flips between consecutive rows
    of S reordered by `perm`."""
    perm = tuple(int(i) for i in perm)
    if sorted(perm) != list(range(S.n_rows)):
        raise ValueError("perm is not a permutation of the row indices")
    data = S.entries[list(perm)]
    changes = tuple(int(c) for c in (data[1:] != data[:-1]).sum(axis=0))
    return RowOrdering(perm, changes, max(changes))


class _PairWeights:
    """Exact greedy weights of the candidate row pairs.

    Column j has been crossed e_j times, so its mass is 2^e_j / sum_k 2^e_k.
    The common denominator never changes which pair is lightest, so the
    weight of a pair u < v is kept as the integer sum of w_j = 2^(e_j - base)
    over the columns j where rows u and v differ. Such a column varies, so
    w_j >= 1: base is at most the least e_j of a varying column.

    Only candidate pairs carry a weight, admitted one Hamming distance h at
    a time, nearest first, from the n x n int32 distances (one float32
    product, exact below 2^24 columns). A pair at distance h differs in h
    varying columns, so it weighs at least L(h), the sum of the h least w_j
    over the varying columns, and L grows with h. A sync admits the next
    level h while there is no candidate or the lightest weighs >= L(h).
    Then a pair not yet admitted lies at a distance h' >= h and weighs at
    least L(h') >= L(h) > the least candidate weight, so the lightest
    candidates are exactly the lightest live pairs (rows in different
    components); the test is not strict, so next-level pairs that tie get
    in.

    Weights and L(h) only grow, so the least weight found at a sync stays
    the least while some pair of that tie set is live and uncrossed, and no
    level can newly pass admission meanwhile. The tie set is therefore
    carried from step to step: after `join()`, `double()` drops its pairs
    that now lie inside one component or differ in a crossed column, and
    `ties()` returns what is left, still in u * n + v order. Only when it
    runs out does `_sync()` bring the candidates up to date: it drops the
    dead ones, adds to each 2^(k - base) for every doubling since the last
    sync of a column where its rows differ, k being the column's count
    before that doubling (so column j gains 2^(e_j - base) - 2^(s_j - base)
    in all, s_j its count at the last sync), admits levels and extracts the
    next tie set. A step that keeps the set costs about the tie pairs times
    the crossed columns; a sync costs about the candidates times the
    columns crossed since the last sync, or one n x n product if less.

    Every partial sum and weight is an integer of magnitude at most the
    total weight of the varying columns; while that stays at most
    _EXACT_LIMIT = 2^52, float64 holds them exactly in any summation order.
    Past that, the candidates are brought up to date, then `base` is raised
    or, once that no longer helps, the weights become Python integers:
    slow, but still exact. L(h) is a Python integer too.
    """

    def __init__(self, S: SignMatrix) -> None:
        X = S.entries
        n, n_cols = X.shape
        self.XT = np.ascontiguousarray(X.T)
        self.X = X.astype(np.float64)
        self.e = np.zeros(n_cols, dtype=np.int64)
        self.total = n_cols  # sum_j 2^e_j, exactly
        self.base = 0
        self.varying = np.flatnonzero((X != X[0]).any(axis=0))
        self.exact = False
        Xf = X.astype(np.float32 if n_cols < 2**24 else np.float64)  # exact sums
        self.hd = ((n_cols - Xf @ Xf.T) / 2).astype(np.int32)
        self.hd[np.tri(n, dtype=bool)] = 0  # rows are distinct: 0 only off the upper triangle
        present = np.zeros(n_cols + 1, dtype=bool)
        present[self.hd] = True
        self.levels = np.flatnonzero(present)[:0:-1].tolist()  # the distances but 0, largest first
        self.comp = np.arange(n)
        self.u = self.v = np.zeros(0, dtype=np.intp)  # candidate pairs u < v
        self.w = np.zeros(0)
        self.pending: list[tuple[np.ndarray, np.ndarray]] = []  # (columns, counts) per doubling
        self.tie = self.tu = self.tv = self.u  # carried tie set u * n + v, increasing; its rows

    def ties(self) -> np.ndarray:
        """Flat indices u * n + v, in increasing order, of the live pairs of
        least weight."""
        if not len(self.tie):
            self._sync()
        return self.tie

    def join(self, u: int, v: int) -> None:
        """Merge the components of rows u and v, a pair of the tie set; the
        step ends with `double()` of the columns where they differ."""
        self.comp[self.comp == self.comp[v]] = self.comp[u]

    def double(self, crossed: np.ndarray) -> float:
        """Double the crossed columns and drop the tie pairs that now lie
        inside one component or differ in a crossed column. Returns the mass
        the crossed columns had before, correctly rounded."""
        counts = self.e[crossed]
        mass = sum(1 << k for k in counts.tolist())
        x = mass / self.total
        self.total += mass
        if not self.exact and self._scaled_total() > _EXACT_LIMIT:
            # once up to date, every weight is a sum of powers 2^(e_j - base)
            # with e_j at least the least count of a varying column, so the
            # rescaling is exact
            self._catch_up()
            shift = int(self.e[self.varying].min()) - self.base
            self.w *= 0.5**shift
            self.base += shift
            if self._scaled_total() > _EXACT_LIMIT:
                self.exact = True
                self.w = self._weights(self.u, self.v)
        self.pending.append((crossed, counts))
        self.e[crossed] = counts + 1
        if len(self.tie) > 1:
            tu, tv = self.tu, self.tv
            XT = self.XT[crossed]  # take keeps the gathers C-ordered, so all() is fast
            keep = (XT.take(tu, axis=1) == XT.take(tv, axis=1)).all(axis=0)
            keep &= self.comp.take(tu) != self.comp.take(tv)
            self.tie, self.tu, self.tv = self.tie[keep], tu[keep], tv[keep]
        else:  # a one-pair set held just the joined pair
            self.tie = self.tie[:0]
        return x

    def _sync(self) -> None:
        """Bring the live candidates up to date, admit levels and extract
        the tie set."""
        live = self.comp.take(self.u) != self.comp.take(self.v)
        self.u, self.v, self.w = self.u[live], self.v[live], self.w[live]
        self._catch_up()
        n = len(self.comp)
        least = self.w.min() if len(self.w) else np.inf  # Python inf: compares with any int
        while self.levels and self._may_tie(least, self.levels[-1]):
            u, v = np.divmod(np.flatnonzero(self.hd == self.levels.pop()), n)
            live = self.comp.take(u) != self.comp.take(v)
            self.u, self.v = np.concatenate((self.u, u[live])), np.concatenate((self.v, v[live]))
            self.w = np.concatenate((self.w, self._weights(u[live], v[live])))
            least = self.w.min() if len(self.w) else np.inf
        tied = self.w == least
        self.tie = np.sort(self.u[tied] * n + self.v[tied])
        self.tu, self.tv = np.divmod(self.tie, n)

    def _catch_up(self) -> None:
        """Add to each candidate 2^(k - base) for every doubling since the
        last catch-up of a column where its rows differ, k being the
        column's count before that doubling."""
        if self.pending and len(self.u):
            cols, counts = self.pending[0]  # one doubling, the common case on small inputs
            if len(self.pending) > 1:
                cols, counts = map(np.concatenate, zip(*self.pending))
            self.w += self._diff_sums(self.u, self.v, cols, self._powers(counts))
        self.pending = []

    def _weights(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Current weights of the pairs (u, v), from all varying columns."""
        return self._diff_sums(u, v, self.varying, self._powers(self.e[self.varying]))

    def _powers(self, counts: np.ndarray) -> np.ndarray:
        """2^(k - base) for each count k (Python integers once exact)."""
        if self.exact:
            return np.array([1 << k for k in (counts - self.base).tolist()], dtype=object)
        return np.ldexp(1.0, counts - self.base)

    def _diff_sums(
        self, u: np.ndarray, v: np.ndarray, cols: np.ndarray, w: np.ndarray
    ) -> np.ndarray:
        """Per pair (u, v), the sum of w[i] over the columns cols[i] where
        rows u and v differ."""
        n = len(self.comp)
        if self.exact or len(u) * len(cols) <= n * n:
            XT = self.XT[cols]  # take keeps the gathers C-ordered, so they stay fast
            return w @ (XT.take(u, axis=1) != XT.take(v, axis=1)).astype(w.dtype)
        # fewer cells over all n^2 pairs, in BLAS; its sums are exact integers
        XC = self.X[:, cols]
        h = w / 2  # exact: the sums stay multiples of 1/2 below 2^52
        return h.sum() - ((XC * h) @ XC.T).take(u * n + v)

    def _may_tie(self, least, h: int) -> bool:
        """Whether least >= L(h), the sum of the h least w_j over the varying
        columns, as Python integers; L(h) >= h, since every w_j >= 1."""
        if least < h:
            return False
        counts = np.sort(self.e[self.varying])[:h].tolist()
        return least >= sum(1 << (k - self.base) for k in counts)

    def _scaled_total(self) -> int:
        """Total weight of the varying columns after this step's doubling,
        in units of 2^base (constant columns have e_j = 0)."""
        return (self.total - len(self.e) + len(self.varying)) >> self.base


def welzl_path(
    S: SignMatrix, tie_rng: np.random.Generator
) -> tuple[RowOrdering, WelzlState]:
    """Greedy low-stabbing row ordering.

    Maintains a probability distribution over columns, repeatedly joins two
    components by a minimum-weight row pair (weight = probability mass of the
    columns where the two rows differ, ties broken uniformly by `tie_rng`
    among exactly equal weights, in row-major pair order), doubles the mass
    of the crossed columns, and finally lists the rows in preorder of the
    tree, from the first row of the first edge, with the children of each
    row in edge order. This is the order of first visits of an Eulerian
    circuit of the doubled tree (see the module docstring), the one whose
    circuit takes the edges at each row in edge order. Weights are compared
    exactly, so the output depends on the seed alone, not on the BLAS
    library or its thread count. Only candidate pairs carry a weight: they
    are admitted by Hamming distance, nearest first, while the lightest
    candidate weighs at least the least weight a pair at the next distance
    can have, so no pair left out can tie the lightest (see `_PairWeights`).
    Memory is an n x n int32 distance matrix for n rows, built from one
    n x n float32 product; past n^2 = 16 MAX_CELLS cells (16384 rows) the
    greedy raises SizeLimitError before it allocates. The lightest tie set
    is carried from step to step while some of its pairs stay live and
    uncrossed, at about its size times the crossed columns a step; only when
    it runs out are the candidate weights brought up to date, at about the
    candidates times the columns crossed since, or one n x n product if
    less. On tall inputs a tie set lasts tens of steps (17 sets cover the
    496 steps of `interval_class(5)`); on projective planes most last one.

    When the VC dimension is at most d, every recorded edge weight satisfies
    x_i <= 4e^2 (N-i)^(-1/d) and the output has at most 200 N^(1-1/d) sign
    changes in every column.
    """
    if not has_distinct_rows(S):
        raise ValueError("rows must be pairwise distinct (apply distinct_rows first)")
    n, n_cols = S.n_rows, S.n_cols
    if n * n > 16 * MAX_CELLS:
        raise SizeLimitError(f"the greedy's {n} x {n} pair tables exceed {16 * MAX_CELLS} cells")
    state = WelzlState(p=np.full(n_cols, 1.0 / n_cols), forest_edges=[])
    if n == 1:
        return count_sign_changes(S, (0,)), state

    weights = _PairWeights(S)
    for _ in range(n - 1):
        ties = weights.ties()
        u, v = divmod(int(ties[tie_rng.integers(len(ties))]), n)
        weights.join(u, v)
        state.forest_edges.append((u, v))
        state.x_log.append(weights.double(np.flatnonzero(S.entries[u] != S.entries[v])))
    state.p = np.array([(1 << int(k)) / weights.total for k in weights.e])

    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in state.forest_edges:
        adj[u].append(v)
        adj[v].append(u)
    perm: list[int] = []
    seen, stack = set(), [state.forest_edges[0][0]]
    while stack:
        r = stack.pop()
        seen.add(r)
        perm.append(r)
        stack.extend(c for c in reversed(adj[r]) if c not in seen)
    return count_sign_changes(S, perm), state


def vc1_path(S: SignMatrix) -> RowOrdering:
    """Optimal row ordering, with at most two sign changes per column, of a
    distinct-row matrix of VC dimension at most one, or of any other that
    the same sort leaves with at most two.

    Let r be the row farthest from row 0 and A_j the rows that differ from r
    in column j. At VC dimension one no column pair is shattered and r shows
    (r_j, r_k) on every pair, so any two A_j are nested or disjoint. Sorting
    the rows by their A_j indicators, columns ranked by decreasing |A_j|,
    makes each A_j one run, since its rows agree on every earlier column: at
    most two changes; more prove VC dimension >= 2 (the ValueError). If some
    order has one change per column (so VC dimension one), the distance from
    any row grows towards both ends of it, so r is an end, the A_j are
    suffixes, and the sort finds that order: two changes are optimal.
    """
    if not has_distinct_rows(S):
        raise ValueError("rows must be pairwise distinct (apply distinct_rows first)")
    X = S.entries
    A = X != X[(X != X[0]).sum(axis=1).argmax()]
    ranked = np.argsort(-A.sum(axis=0), kind="stable")
    # np.lexsort sorts by its last key first
    ordering = count_sign_changes(S, np.lexsort(A[:, ranked[::-1]].T))
    if ordering.max_sign_changes > 2:
        raise ValueError("matrix has VC dimension at least 2")
    return ordering


def low_stabbing_order(
    S: SignMatrix, rng: np.random.Generator
) -> tuple[RowOrdering, str, WelzlState | None]:
    """Row ordering of a distinct-row matrix: the optimal `vc1_path` sort
    (method "vc1") when it leaves at most two sign changes per column, as it
    does at VC dimension at most one, else the Welzl greedy (method "welzl",
    with its state). This is the one place the two are chosen between."""
    try:
        return vc1_path(S), "vc1", None
    except ValueError:  # over two changes; welzl_path rejects duplicate rows too
        ordering, state = welzl_path(S, rng)
        return ordering, "welzl", state


@lru_cache(maxsize=None)
def _all_permutations(n: int) -> np.ndarray:
    return np.array(list(itertools.permutations(range(n))), dtype=np.int64)


def sc_star_bruteforce(S: SignMatrix) -> int:
    """Exact minimum, over all row orders, of the maximum per-column
    sign-change count. Factorial search, capped at eight rows."""
    if not has_distinct_rows(S):
        raise ValueError("rows must be pairwise distinct")
    n = S.n_rows
    if n > 8:
        raise SizeLimitError("exact search over row orders supports at most 8 rows")
    if n == 1:
        return 0
    perms = _all_permutations(n)
    ordered = S.entries[perms]  # (n!, n, cols)
    changes = (ordered[:, 1:, :] != ordered[:, :-1, :]).sum(axis=1).max(axis=1)
    return int(changes.min())
