"""Exact shattering combinatorics on sign matrices.

Everything here is exhaustive search over column subsets, organized so that
the typical case (tiny VC dimension) stays cheap: subsets are enumerated by
increasing size and the search stops at the first size with no witness, which
is sound because shattering (plain and antipodal) is monotone under taking
column subsets. Within one size, subsets are examined in lexicographic order
by a batched numpy kernel that stops at the first batch holding a witness.
The kernel also takes a stack of matrices with a common shape, so that one
pass over the subsets of a size answers for all of them (see vc_at_most).
The budget counts work actually done: a search that has examined
SUBSET_BUDGET subsets of one size without a witness, with more left, raises
SizeLimitError instead of running without bound.
"""

from __future__ import annotations

import math
from typing import Iterable, Iterator

import numpy as np

from .errors import SizeLimitError
from .matrix import SignMatrix, has_distinct_rows

# Max number of column subsets examined per subset size before giving up.
SUBSET_BUDGET = 2_000_000

# Cells (stacked matrices x subsets x distinct rows) per batch of the
# kernel. Each int64 temporary of a batch then takes about 1 MiB.
_BATCH_CELLS = 1 << 17

ColumnSet = tuple[int, ...]


def _normalize_columns(S: SignMatrix, cols: Iterable[int]) -> ColumnSet:
    out = tuple(sorted(int(c) for c in cols))
    if not out:
        raise ValueError("column set must be non-empty")
    if len(set(out)) != len(out):
        raise ValueError("column indices must be distinct")
    if out[0] < 0 or out[-1] >= S.n_cols:
        raise IndexError(f"column index out of range for {S.n_cols} columns")
    return out


def _bit_columns(S: SignMatrix) -> np.ndarray:
    """The distinct rows of S as a 0/1 array of shape columns x rows."""
    plus = np.ascontiguousarray(S.entries == 1)
    # One opaque item per row makes the dedupe a 1-d unique.
    rows = plus.view(np.dtype((np.void, plus.shape[1]))).ravel()
    _, first = np.unique(rows, return_index=True)
    return np.ascontiguousarray(plus[first].T, dtype=np.intp)


def _subsets(m: int, k: int, size: int) -> Iterator[np.ndarray]:
    """All k-subsets of range(m) in lexicographic order, as sorted index
    rows, in arrays of at most `size` rows. Each chunk of (k-1)-prefixes is
    extended by every larger column at once."""
    if k == 0:
        yield np.zeros((1, 0), dtype=np.intp)
        return
    for P in _subsets(m, k - 1, max(1, size // m)):
        start = P[:, -1] + 1 if k > 1 else np.zeros(1, dtype=np.intp)
        counts = m - start
        offsets = np.cumsum(counts) - counts
        last = np.arange(counts.sum()) + np.repeat(start - offsets, counts)
        C = np.column_stack([np.repeat(P, counts, axis=0), last])
        for i in range(0, len(C), size):
            yield C[i : i + size]


def _dense_ranks(ids: np.ndarray) -> np.ndarray:
    """Renumber each row's ids as 0, 1, ... in increasing order."""
    order = np.argsort(ids, axis=-1)
    s = np.take_along_axis(ids, order, axis=-1)
    steps = np.zeros_like(ids)
    np.cumsum(s[..., 1:] != s[..., :-1], axis=-1, out=steps[..., 1:])
    ranks = np.empty_like(ids)
    np.put_along_axis(ranks, order, steps, axis=-1)
    return ranks


def _pattern_ids(bits: np.ndarray, C: np.ndarray) -> np.ndarray:
    """ids[..., b, r] names the pattern of row r on the columns C[b] of the
    matrix bits[...] (columns x rows, under any leading stack axes): equal
    patterns get equal ids. Up to 62 columns the id is
    sum_i bits[..., C[b, i], r] << i; wider sets are renumbered densely
    whenever the ids fill 62 bits."""
    rows = bits.shape[-1]
    ids = np.zeros(bits.shape[:-2] + (len(C), rows), dtype=np.intp)
    shift = 0
    for i in range(C.shape[1]):
        if shift == 62:
            ids, shift = _dense_ranks(ids), rows.bit_length()
        ids |= bits[..., C[:, i], :] << shift
        shift += 1
    return ids


def _covered(bits: np.ndarray, C: np.ndarray, antipodal: bool) -> np.ndarray:
    """Per matrix of the stack and subset C[b], an array of shape
    bits.shape[:-2] + (len(C),): does every sign pattern (or, antipodally,
    every pair of opposite patterns) occur among the rows?"""
    k = C.shape[1]
    slots = 1 << (k - 1 if antipodal else k)
    lead = bits.shape[:-2] + (len(C),)
    if bits.shape[-1] < slots:
        return np.zeros(lead, dtype=bool)
    ids = _pattern_ids(bits, C).reshape(-1, bits.shape[-1])
    if antipodal:
        np.minimum(ids, ((1 << k) - 1) ^ ids, out=ids)
    table = np.zeros((len(ids), slots), dtype=bool)
    table[np.arange(len(ids))[:, None], ids] = True
    return table.all(axis=1).reshape(lead)


def _batches(bits: np.ndarray, k: int) -> Iterator[np.ndarray]:
    """The k-subsets of the columns in lexicographic order, in batches of at
    most _BATCH_CELLS cells (stacked matrices x subsets x rows, or x k when
    k is the larger, which only wide max_projections reach). Raises
    SizeLimitError when SUBSET_BUDGET subsets have been handed out and more
    remain, so a caller that stops early is never refused. Every matrix of
    a stack is examined on every subset handed out, so the budget bounds
    the subsets examined per matrix."""
    m, rows = bits.shape[-2:]
    width = math.prod(bits.shape[:-2]) * max(rows, k)
    examined = 0
    for C in _subsets(m, k, max(1, _BATCH_CELLS // max(1, width))):
        left = SUBSET_BUDGET - examined
        if len(C) > left:
            if left:
                yield C[:left]
            raise SizeLimitError(
                f"examined {SUBSET_BUDGET} of {math.comb(m, k)} column subsets "
                f"of size {k} without an answer, the budget of {SUBSET_BUDGET}; "
                "this input is too large for the exact search"
            )
        examined += len(C)
        yield C


def _largest_shattered(bits: np.ndarray, hi: int, antipodal: bool) -> int:
    """Largest k <= hi such that some k-set of columns is shattered (plainly
    or antipodally); by monotonicity the first size without one ends it."""
    for k in range(1, hi + 1):
        if not any(_covered(bits, C, antipodal).any() for C in _batches(bits, k)):
            return k - 1
    return hi


def is_shattered(S: SignMatrix, cols: Iterable[int]) -> bool:
    """True iff every one of the 2^|cols| sign patterns occurs among the rows
    restricted to `cols`."""
    C = np.array([_normalize_columns(S, cols)], dtype=np.intp)
    return bool(_covered(_bit_columns(S), C, antipodal=False)[0])


def is_antipodally_shattered(S: SignMatrix, cols: Iterable[int]) -> bool:
    """True iff for every pattern v over `cols`, v or -v occurs among the
    restricted rows."""
    C = np.array([_normalize_columns(S, cols)], dtype=np.intp)
    return bool(_covered(_bit_columns(S), C, antipodal=True)[0])


def vc_dimension(S: SignMatrix) -> int:
    """Largest size of a shattered column set.

    Subset sizes are tried in increasing order; the loop stops at the first
    size with no shattered set, and a k-set needs 2^k distinct rows. Each
    size stops at its first witness, and gives up with SizeLimitError after
    examining SUBSET_BUDGET subsets without one. Practical range: a 57x57
    projective plane (p=7) takes about 0.05 s for VC dimension plus dual
    sign rank; sizes with more than two million subsets are refused only
    when no witness comes early.
    """
    bits = _bit_columns(S)
    m, rows = bits.shape
    return _largest_shattered(bits, min(m, rows.bit_length() - 1), antipodal=False)


def vc_at_most(bits: np.ndarray, d: int) -> np.ndarray:
    """Per matrix of a stack bits (..., columns, rows) of 0/1 entries with
    pairwise distinct rows: is its VC dimension at most d? By monotonicity
    that holds exactly when no (d+1)-set of columns is shattered, so one
    scan of that size answers for the whole stack, and none is needed when
    d + 1 exceeds the columns or 2^(d+1) the rows. The scan stops once every
    matrix has a witness, and is bounded by SUBSET_BUDGET like the others.
    """
    m, rows = bits.shape[-2:]
    found = np.zeros(bits.shape[:-2], dtype=bool)
    if d + 1 > min(m, rows.bit_length() - 1):
        return ~found
    for C in _batches(bits, d + 1):
        found |= _covered(bits, C, antipodal=False).any(axis=-1)
        if found.all():
            break
    return ~found


def dual_sign_rank(S: SignMatrix, vc: int | None = None) -> int:
    """Largest size of an antipodally shattered column set.

    The answer always lies between the VC dimension and twice the VC
    dimension plus one, and an antipodally shattered k-set needs 2^(k-1)
    distinct rows, so the search is capped there. `vc`, when given, must be
    vc_dimension(S); it is recomputed only when left out.
    """
    if vc is None:
        vc = vc_dimension(S)
    bits = _bit_columns(S)
    m, rows = bits.shape
    return _largest_shattered(bits, min(2 * vc + 1, m, rows.bit_length()), antipodal=True)


def sauer_bound(n: int, d: int) -> int:
    """sum_{i=0}^{d} C(n, i): the largest possible number of distinct rows in
    a matrix with n columns and VC dimension d."""
    if d < 0:
        raise ValueError("d must be non-negative")
    if d > n:
        raise ValueError(f"d={d} exceeds the number of columns n={n}")
    return sum(math.comb(n, i) for i in range(d + 1))


class ConceptClass:
    """A set of vectors in {+1,-1}^n, stored as a sign matrix with pairwise
    distinct rows."""

    def __init__(self, matrix: SignMatrix) -> None:
        if not has_distinct_rows(matrix):
            raise ValueError("concept class rows must be pairwise distinct")
        self.matrix = matrix

    @property
    def n_rows(self) -> int:
        return self.matrix.n_rows

    @property
    def n_cols(self) -> int:
        return self.matrix.n_cols

    def __repr__(self) -> str:
        return f"ConceptClass({self.n_rows} vectors in dim {self.n_cols})"


def is_maximum_class(C: ConceptClass, d: int) -> bool:
    """True iff the class has VC dimension exactly d and its size meets the
    Sauer-Shelah bound with equality."""
    if d < 0 or d > C.n_cols:
        return False
    if C.n_rows != sauer_bound(C.n_cols, d):
        return False
    return vc_dimension(C.matrix) == d


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


def is_cube_connected(C: ConceptClass) -> bool:
    """True iff the one-inclusion graph (rows as vertices, edges between rows
    at Hamming distance one) is connected."""
    return cube_connected(C.matrix.row_masks, C.n_cols)


def max_projections(S: SignMatrix, t: int) -> int:
    """Maximum, over all t-column sets, of the number of distinct row
    projections; this evaluates the primal shatter function at t. The scan
    stops once some set reaches min(2^t, distinct rows), and is bounded by
    SUBSET_BUDGET like the shattering searches."""
    if t < 1 or t > S.n_cols:
        raise ValueError(f"t must be between 1 and {S.n_cols}")
    bits = _bit_columns(S)
    cap = min(1 << t, bits.shape[1])
    best = 0
    for C in _batches(bits, t):
        ids = np.sort(_pattern_ids(bits, C), axis=1)
        counts = 1 + (ids[:, 1:] != ids[:, :-1]).sum(axis=1)
        best = max(best, int(counts.max()))
        if best == cap:
            break
    return best
