"""Row orderings with few sign changes per column.

The central routine builds a spanning tree greedily under a multiplicative
column reweighting and orders the rows by a preorder walk of the tree. That
is the paper's shortcut of an Eulerian circuit of the doubled tree: such a
circuit crosses each edge once in each direction, so once it enters a
subtree it visits all of it before leaving, and its first visits form a
preorder. Its pair weights are kept as exact integers in an n x n array and
updated from the crossed columns alone, so ties are broken among exactly
equal weights: the seed alone fixes the output, whatever the BLAS library or
thread count, and memory is O(n^2) for n rows. For VC dimension one, a
single lexicographic sort of the rows gives an optimal order, with at most
two sign changes per column; `low_stabbing_order` picks between the two,
and a factorial-search oracle gives the exact optimum for up to eight rows.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Sequence

import numpy as np

from .errors import SizeLimitError
from .matrix import SignMatrix, has_distinct_rows

# Ceiling on the total pair weight kept in float64 (see _PairWeights).
_EXACT_LIMIT = 2**52
# Pair-weight cells per row block of a greedy update, so a block stays in cache.
_BLOCK_CELLS = 2**15


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
    if len(perm) < 2:
        changes = tuple(0 for _ in range(S.n_cols))
    else:
        changes = tuple(int(c) for c in (data[1:] != data[:-1]).sum(axis=0))
    return RowOrdering(perm, changes, max(changes))


def _int_diff_sums(X: np.ndarray, e: np.ndarray) -> np.ndarray:
    """Python-int matrix of sum_j 2^e_j over the columns j of the +-1 matrix
    X where rows u and v differ."""
    Xo = X.astype(np.int64).astype(object)
    w = np.array([1 << int(k) for k in e], dtype=object)
    return (w.sum() - (Xo * w) @ Xo.T) // 2


class _PairWeights:
    """Exact greedy weights of the live row pairs.

    Column j has been crossed e_j times, so its mass is 2^e_j / sum_k 2^e_k.
    The common denominator never changes which pair is lightest, so the
    weight of a pair u < v is kept as the integer sum of 2^(e_j - base) over
    the columns where rows u and v differ. Only the upper triangle u < v of
    W holds live weights and only its rows are updated: the lower triangle,
    the diagonal and the pairs inside one component are dead and hold +inf.
    `rowmin[u]` is the least weight in row u, so `ties()` scans only the
    rows from the first to the last that hold the least weight. `kill()`
    leaves `rowmin` stale; the greedy always calls `double()`, which
    refreshes it, between `kill()` and the next `ties()`.

    `double()` adds sum_{j crossed} w_j (1 - x_uj x_vj) / 2, with
    w_j = 2^(e_j - base), to every pair u < v as one matrix product
    [X_C | 1] R, where R holds the rows -w_j/2 x_j^T of the crossed columns
    j and a last row of sum(w)/2. It runs in row blocks of the upper
    triangle of about _BLOCK_CELLS cells, so that each block is still in
    cache when its row minima are taken. Each term of that product is
    +-w_j/2 or sum(w)/2, and a crossed column varies, so w_j >= 1. While the
    total weight of the varying columns stays at most _EXACT_LIMIT = 2^52,
    every partial sum of the product and the updated weight are multiples
    of 1/2 of magnitude at most 2^52, so float64 holds each weight exactly
    in any summation order. Past that, once raising `base` no longer helps,
    W becomes an object array of Python integers with +inf on dead pairs,
    which Python compares with any integer exactly: slow, but still exact.
    """

    def __init__(self, S: SignMatrix) -> None:
        n, n_cols = S.shape
        self.X = S.entries.astype(np.float64)
        # X^T with a row of ones appended: both factors of an update are made
        # from its rows
        self.XT1 = np.vstack([self.X.T, np.ones(n)])
        self.e = np.zeros(n_cols, dtype=np.int64)
        self.total = n_cols  # sum_j 2^e_j, exactly
        self.base = 0
        self.varying = (S.entries != S.entries[0]).any(axis=0)
        self.n_constant = n_cols - int(self.varying.sum())
        self.W = (n_cols - self.X @ self.X.T) / 2.0  # Hamming distances
        self.W[np.tri(n, dtype=bool)] = np.inf
        self.rowmin = self.W.min(axis=1)

    def ties(self) -> np.ndarray:
        """Flat indices (row-major) of the live pairs of least weight."""
        n = len(self.W)
        first = self.rowmin.argmin()
        last = n - self.rowmin[::-1].argmin()
        return np.flatnonzero(self.W[first:last] == self.rowmin[first]) + first * n

    def kill(self, A: list[int], B: list[int]) -> None:
        """Mark every pair between components A and B dead."""
        a, b = np.array(A), np.array(B)
        self.W[a[:, None], b] = np.inf
        self.W[b[:, None], a] = np.inf

    def double(self, crossed: np.ndarray) -> float:
        """Double the crossed columns and update the pair weights. Returns
        the mass the crossed columns had before, correctly rounded."""
        mass = sum(1 << k for k in self.e[crossed].tolist())
        x = mass / self.total
        self.total += mass
        if self.W.dtype == float and self._scaled_total() > _EXACT_LIMIT:
            self._rebase()
            if self._scaled_total() > _EXACT_LIMIT:
                self._to_exact()
        if self.W.dtype == float:
            factor = self.XT1[np.concatenate((crossed, [len(self.e)]))]  # [X_C | 1]^T
            w = np.ldexp(1.0, self.e[crossed] - self.base)
            right = factor * np.concatenate((-0.5 * w, [0.5 * w.sum()]))[:, None]
            n = len(self.W)
            step = max(1, _BLOCK_CELLS // n)
            for r0 in range(0, n, step):
                block = self.W[r0 : r0 + step, r0:]
                block += np.dot(factor[:, r0 : r0 + step].T, right[:, r0:])
                block.min(axis=1, out=self.rowmin[r0 : r0 + step])
        else:
            # inf + int raises OverflowError past 2^1024, so dead pairs are skipped
            live = self.W != np.inf
            XC = self.X[:, crossed]
            np.add(self.W, _int_diff_sums(XC, self.e[crossed]), out=self.W, where=live)
            self.rowmin = self.W.min(axis=1)
        self.e[crossed] += 1
        return x

    def _rebase(self) -> None:
        """Raise base to the least count of a varying column. Every live
        weight is a sum of powers of two at least that large, so the
        rescaling is exact."""
        shift = int(self.e[self.varying].min()) - self.base
        self.W *= 0.5**shift
        self.base += shift

    def _to_exact(self) -> None:
        """Move the weights to Python integers, in units of 2^0."""
        dead = np.isinf(self.W)
        self.W = _int_diff_sums(self.X, self.e)
        self.W[dead] = np.inf

    def _scaled_total(self) -> int:
        """Total weight of the varying columns after this step's doubling,
        in units of 2^base (constant columns have e_j = 0)."""
        return (self.total - self.n_constant) >> self.base


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
    circuit takes the edges at each row in edge order. Weights
    are compared exactly, so the output depends on the seed alone, not on
    the BLAS library or its thread count; memory is O(n^2) for n rows. Each
    step updates only the upper triangle of the n x n pair weights, row
    block by row block while the block is in cache, taking each row's least
    weight on the way, and looks for ties only in the rows that hold the
    least weight (see `_PairWeights`).

    When the VC dimension is at most d, every recorded edge weight satisfies
    x_i <= 4e^2 (N-i)^(-1/d) and the output has at most 200 N^(1-1/d) sign
    changes in every column.
    """
    if not has_distinct_rows(S):
        raise ValueError("rows must be pairwise distinct (apply distinct_rows first)")
    n, n_cols = S.n_rows, S.n_cols
    state = WelzlState(p=np.full(n_cols, 1.0 / n_cols), forest_edges=[])
    if n == 1:
        return count_sign_changes(S, (0,)), state

    weights = _PairWeights(S)
    comp = np.arange(n)
    members = {i: [i] for i in range(n)}
    for _ in range(n - 1):
        ties = weights.ties()
        pick = int(ties[tie_rng.integers(len(ties))])
        u, v = divmod(pick, n)
        A, B = members[comp[u]], members.pop(comp[v])
        weights.kill(A, B)
        comp[B] = comp[u]
        A.extend(B)
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
