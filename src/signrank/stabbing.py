"""Row orderings with few sign changes per column.

The central routine builds a spanning tree greedily under a multiplicative
column reweighting, doubles its edges, and reads a row order off an Eulerian
circuit. A specialized constructor handles VC dimension one with at most two
sign changes per column, and a factorial-search oracle gives the exact
optimum for up to eight rows.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np

from .errors import SizeLimitError
from .matrix import SignMatrix, has_distinct_rows
from .vc import vc_dimension


@dataclass(frozen=True)
class RowOrdering:
    """A row permutation together with its per-column sign-change counts."""

    permutation: tuple[int, ...]
    sign_changes: tuple[int, ...]
    max_sign_changes: int


@dataclass
class WelzlState:
    """Trace of one greedy run: final column distribution, the tree edges in
    insertion order, final component labels, and the chosen edge weights."""

    p: np.ndarray
    forest_edges: list[tuple[int, int]]
    component: np.ndarray
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


def doubling_update(
    p: Sequence[float] | np.ndarray, crossed: Iterable[int]
) -> tuple[np.ndarray, float]:
    """Double the relative mass of the crossed columns.

    Returns (p', x) with x the total mass of the crossed columns,
    p'(j) = 2 p(j) / (1 + x) on crossed columns and p(j) / (1 + x) elsewhere.
    The result sums to one whenever p does.
    """
    p = np.asarray(p, dtype=float)
    if p.ndim != 1 or (p < 0).any() or abs(p.sum() - 1.0) > 1e-9:
        raise ValueError("p must be a probability vector")
    crossed = np.asarray(sorted(set(int(c) for c in crossed)), dtype=int)
    if crossed.size and (crossed[0] < 0 or crossed[-1] >= p.size):
        raise IndexError("crossed column index out of range")
    x = float(p[crossed].sum()) if crossed.size else 0.0
    out = p / (1.0 + x)
    out[crossed] *= 2.0
    return out, x


def _euler_circuit_doubled(n: int, edges: list[tuple[int, int]]) -> list[int]:
    """Eulerian circuit of the multigraph obtained by doubling every edge of
    a spanning tree (all degrees even, so a circuit exists)."""
    if not edges:
        return [0]
    adj: list[list[int]] = [[] for _ in range(n)]
    remaining: dict[tuple[int, int], int] = {}
    for u, v in edges:
        adj[u].extend((v, v))
        adj[v].extend((u, u))
        remaining[(min(u, v), max(u, v))] = 2
    ptr = [0] * n
    stack = [edges[0][0]]
    circuit: list[int] = []
    while stack:
        x = stack[-1]
        moved = False
        while ptr[x] < len(adj[x]):
            y = adj[x][ptr[x]]
            key = (min(x, y), max(x, y))
            if remaining[key] > 0:
                remaining[key] -= 1
                stack.append(y)
                moved = True
                break
            ptr[x] += 1
        if not moved:
            circuit.append(stack.pop())
    circuit.reverse()
    return circuit


def welzl_path(
    S: SignMatrix, tie_rng: np.random.Generator, d: int | None = None
) -> tuple[RowOrdering, WelzlState]:
    """Greedy low-stabbing row ordering.

    Maintains a probability distribution over columns, repeatedly joins two
    components by a minimum-weight row pair (weight = probability mass of the
    columns where the two rows differ, ties broken uniformly by `tie_rng`),
    doubles the mass of the crossed columns, and finally converts the doubled
    tree into a path via an Eulerian circuit, keeping the first visit of each
    row.

    With d an upper bound on the VC dimension, every recorded edge weight
    satisfies x_i <= 4e^2 (N-i)^(-1/d) and the output has at most
    200 N^(1-1/d) sign changes in every column.
    """
    if not has_distinct_rows(S):
        raise ValueError("rows must be pairwise distinct (apply distinct_rows first)")
    n, n_cols = S.n_rows, S.n_cols
    if d is None:
        d = vc_dimension(S)
    d = max(int(d), 1)
    p = np.full(n_cols, 1.0 / n_cols)
    state = WelzlState(p=p, forest_edges=[], component=np.arange(n))
    if n == 1:
        return count_sign_changes(S, (0,)), state

    diff = S.entries[:, None, :] != S.entries[None, :, :]
    diff_f = diff.astype(np.float64)
    comp = state.component
    lower = np.tril_indices(n)
    for step in range(n - 1):
        W = diff_f @ p
        cand = np.where(comp[:, None] != comp[None, :], W, np.inf)
        cand[lower] = np.inf
        w_min = cand.min()
        ties = np.flatnonzero(cand == w_min)
        pick = int(ties[tie_rng.integers(len(ties))])
        u, v = divmod(pick, n)
        crossed = np.flatnonzero(diff[u, v])
        p, x = doubling_update(p, crossed)
        state.forest_edges.append((u, v))
        state.x_log.append(x)
        comp[comp == comp[v]] = comp[u]
        if (step + 1) % 64 == 0:
            p = p / p.sum()
    state.p = p

    circuit = _euler_circuit_doubled(n, state.forest_edges)
    seen: set[int] = set()
    perm = []
    for r in circuit:
        if r not in seen:
            seen.add(r)
            perm.append(r)
    return count_sign_changes(S, perm), state


def vc1_path(S: SignMatrix) -> RowOrdering:
    """Row ordering with at most two sign changes per column, for matrices of
    VC dimension at most one with distinct rows.

    Peels one column at a time: constant columns are dropped outright, and
    otherwise some column has a unique minority entry, so it has at most two
    sign changes under any order and can be removed (merging the minority row
    with its twin if the two collapse). The base order is lifted back by
    re-inserting each twin next to its partner.
    """
    if not has_distinct_rows(S):
        raise ValueError("rows must be pairwise distinct (apply distinct_rows first)")
    if vc_dimension(S) > 1:
        raise ValueError("matrix has VC dimension at least 2")

    rows: list[tuple[int, tuple[int, ...]]] = [
        (i, t) for i, t in enumerate(S.row_tuples())
    ]
    lifts: list[tuple[int, int]] = []
    while True:
        if len(rows) == 1:
            order = [rows[0][0]]
            break
        width = len(rows[0][1])
        keep = [
            j for j in range(width) if any(t[j] != rows[0][1][j] for _, t in rows)
        ]
        if len(keep) < width:
            rows = [(i, tuple(t[j] for j in keep)) for i, t in rows]
            continue
        if width == 1:
            order = [i for i, _ in rows]
            break
        r_count = len(rows)
        best_m, j0 = min(
            (min(ones, r_count - ones), j)
            for j, ones in (
                (j, sum(1 for _, t in rows if t[j] == 1)) for j in range(width)
            )
        )
        if best_m != 1:
            raise AssertionError("pivot column must have a unique minority entry")
        ones0 = sum(1 for _, t in rows if t[j0] == 1)
        minority = 1 if ones0 <= r_count - ones0 else -1
        min_pos = next(k for k, (_, t) in enumerate(rows) if t[j0] == minority)
        min_id, min_tuple = rows[min_pos]
        stripped = min_tuple[:j0] + min_tuple[j0 + 1 :]
        twin_pos = next(
            (
                k
                for k, (_, t) in enumerate(rows)
                if k != min_pos and t[:j0] + t[j0 + 1 :] == stripped
            ),
            None,
        )
        if twin_pos is not None:
            lifts.append((min_id, rows[twin_pos][0]))
        rows = [
            (i, t[:j0] + t[j0 + 1 :])
            for k, (i, t) in enumerate(rows)
            if k != twin_pos
        ]
    for min_id, twin_id in reversed(lifts):
        order.insert(order.index(min_id) + 1, twin_id)
    return count_sign_changes(S, order)


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


def haussler_packing_limit(d: int, eps: float) -> float:
    """e (d+1) (2e/eps)^d: cap on the number of pairwise eps-separated rows
    in a matrix of VC dimension d."""
    if d < 0:
        raise ValueError("d must be non-negative")
    if eps <= 0:
        raise ValueError("eps must be positive")
    return math.e * (d + 1) * (2.0 * math.e / eps) ** d
