"""Exact shattering combinatorics on sign matrices.

Every answer here is exact, and the search is organized so that the typical
case (tiny VC dimension) stays cheap: subsets are enumerated by increasing
size and the search stops at the first size with no witness, which is sound
because shattering (plain and antipodal) is monotone under taking column
subsets. Within one size, the sets are examined in lexicographic order by one
kernel on columns packed into 64-bit row masks (_scan), in doubling
batches, so that an early witness costs little and a long scan soon runs at
full batch size. The kernel also takes a stack of matrices with a common
shape, so that one pass over the subsets of a size answers for all of them
(see vc_at_most). The budget counts the sets of one size in the order: a
search with no witness among the first SUBSET_BUDGET of them, with more
left, raises SizeLimitError instead of running without bound.
"""

from __future__ import annotations

import itertools
import math
from typing import Iterable, Iterator

import numpy as np

from .errors import SizeLimitError
from .matrix import SignMatrix, distinct_rows, has_distinct_rows

# Max number of column subsets examined per subset size before giving up.
SUBSET_BUDGET = 2_000_000

# Cells per batch of the shattering kernel (stacked matrices x sets x
# pattern masks x 64-bit words, or x columns for the index arrays of a batch
# of prefixes). Each 8-byte temporary of a batch then takes at most 128 KiB,
# which malloc serves from reused heap memory; larger ones are mapped afresh
# for each batch, and their page faults made scans up to twice as slow.
_BATCH_CELLS = 1 << 14

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
    plus = distinct_rows(S).entries == 1
    return np.ascontiguousarray(plus.T, dtype=np.intp)


def _subsets(m: int, k: int, size: int, batch: int = 1) -> Iterator[np.ndarray]:
    """All k-subsets (k >= 1) of range(m) in lexicographic order, as sorted
    index rows, in batches of `batch`, twice that, four times that, ...
    rows, capped at `size`. Full-size batches from the start would build
    and test up to `size` subsets to find a witness among the first few;
    doubling bounds that waste by the subsets examined before the
    witness."""
    flat = itertools.chain.from_iterable(itertools.combinations(range(m), k))
    batch = min(batch, size)
    while len(C := np.fromiter(itertools.islice(flat, batch * k), dtype=np.intp)):
        yield C.reshape(-1, k)
        batch = min(2 * batch, size)


def _packed(bits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The 0/1 columns bits (..., columns, rows) as row masks: uint64 words
    of shape (..., columns, W), one bit per row and zero padding past the
    last row, and the (W,) mask of all rows."""
    rows = bits.shape[-1]
    width = -(-rows // 64)
    packed = np.zeros(bits.shape[:-1] + (8 * width,), dtype=np.uint8)
    packed[..., :-(-rows // 8)] = np.packbits(bits, axis=-1, bitorder="little")
    valid = np.array([(1 << min(64, rows - 64 * w)) - 1 for w in range(width)], dtype=np.uint64)
    return packed.view(np.uint64), valid


def _prefixes(m: int, j: int, size: int) -> Iterator[np.ndarray]:
    """All j-subsets (j >= 1) of range(m) in lexicographic order, in batches
    of at most `size`. itertools builds only the (j - 1)-subsets of
    range(m - 1), in batches that double from 1/64 of `size`, and each is
    followed by every column past its last."""
    if j == 1:
        yield from _subsets(m, 1, size, max(1, size >> 6))
        return
    for heads in _subsets(m - 1, j - 1, max(1, size // j), max(1, size >> 6)):
        i, last = np.unravel_index(np.flatnonzero(np.arange(m) > heads[:, -1:]), (len(heads), m))
        subsets = np.empty((len(i), j), dtype=np.intp)
        subsets[:, :-1], subsets[:, -1] = heads[i], last
        yield from (subsets[a:a + size] for a in range(0, len(subsets), size))


def _scan(packed: tuple[np.ndarray, np.ndarray], k: int, antipodal: bool, limit: int) -> np.ndarray:
    """Per matrix of the stack packed (see _packed): is one of the first
    `limit` k-sets of its columns, in lexicographic order, shattered
    (plainly or antipodally)?

    A k-set is a prefix of k - 1 columns and a last column l past them. The
    row masks of the prefix's patterns are ANDs of its columns and their
    complements, and the set is shattered when l splits every mask into two
    non-empty halves. So a prefix with a mask of fewer than two rows starts
    no shattered set, and its sets are passed over (they still take their
    places in the order). Antipodally, the rows are normalized by the set's
    first column c: the set is antipodally shattered iff its other columns,
    each XORed with c, are plainly shattered, since a pattern and its
    opposite normalize alike. Every temporary holds about _BATCH_CELLS
    cells at most."""
    words, valid = packed
    m, W = words.shape[-2:]
    flat = words.reshape(-1, m, W)
    found = np.zeros(len(flat), dtype=bool)
    if antipodal and k == 1:
        # Each pattern of one column or its opposite occurs in any row.
        found[:] = limit > 0 and valid.any()
        return found.reshape(words.shape[:-2])
    first = int(antipodal)  # the prefix's first column in the AND tree
    patterns = 1 << (k - 1 - first)  # row masks per prefix
    cells = max(1, _BATCH_CELLS // (4 * patterns * W))
    size = max(1, _BATCH_CELLS // (len(flat) * max(m, 2 * patterns * W)))
    # The one prefix of a 1-set is empty, ending before column 0.
    prefixes = _prefixes(m - 1, k - 1, size) if k > 1 else [np.full((1, 1), -1)]
    start, columns = 0, np.arange(m)
    for pre in prefixes:
        if start >= limit:
            break
        last = pre[:, -1]
        masks = np.empty((len(flat), len(pre), patterns, W), dtype=np.uint64)
        masks[:, :, 0] = valid
        norm = flat[:, pre[:, 0]] if antipodal else None
        for i in range(first, k - 1):
            # Split each of the n masks so far in place: its rows with a one
            # in the column go to a new mask n places on.
            n = 1 << (i - first)
            column = flat[:, pre[:, i]] ^ norm if antipodal else flat[:, pre[:, i]]
            np.bitwise_and(masks[:, :, :n], column[:, :, None], out=masks[:, :, n:2 * n])
            masks[:, :, :n] ^= masks[:, :, n:2 * n]
        # A mask holds two rows or more when one of its words holds two
        # bits, or two of its words are non-zero.
        several = (masks & (masks - 1)).any(axis=-1)
        if W > 1:
            several |= (masks != 0).sum(axis=-1) > 1
        # The sets (matrix, prefix, last column) to test, as flat indices.
        grid = several.all(axis=-1)[:, :, None] & ~found[:, None, None] & (columns > last[:, None])
        sets = np.flatnonzero(grid)
        count = m - 1 - last
        end = start + int(count.sum())
        if end > limit:
            # The set (pre[p], l) comes at this place in the order.
            _, p, l = np.unravel_index(sets, grid.shape)
            sets = sets[(np.cumsum(count) - count + start - last - 1)[p] + l < limit]
        start = end
        for a in range(0, len(sets), cells):
            s, p, l = np.unravel_index(sets[a:a + cells], grid.shape)
            column = flat[s, l]
            if antipodal:
                column ^= norm[s, p]
            halves = masks[s, p]
            ones = halves & column[:, None]
            found[s[(ones.any(axis=-1) & (ones != halves).any(axis=-1)).all(axis=-1)]] = True
            if found.all():
                return found.reshape(words.shape[:-2])
    return found.reshape(words.shape[:-2])


def _some_shattered(packed: tuple[np.ndarray, np.ndarray], k: int, antipodal: bool) -> np.ndarray:
    """Per matrix of the stack packed (see _packed): is some k-set of its
    columns shattered (plainly or antipodally)? The scan stops once every
    matrix has one, and raises SizeLimitError when SUBSET_BUDGET sets of
    C(m, k) > SUBSET_BUDGET hold none for some matrix."""
    m = packed[0].shape[-2]
    sets = math.comb(m, k)
    found = _scan(packed, k, antipodal, min(sets, SUBSET_BUDGET))
    if sets > SUBSET_BUDGET and not found.all():
        raise SizeLimitError(
            f"examined {SUBSET_BUDGET} of {sets} column subsets "
            f"of size {k} without an answer, the budget of {SUBSET_BUDGET}; "
            "this input is too large for the exact search"
        )
    return found


def _set_shattered(S: SignMatrix, cols: Iterable[int], antipodal: bool) -> bool:
    cols = _normalize_columns(S, cols)
    words, valid = _packed(_bit_columns(S))
    return bool(_scan((words[list(cols)], valid), len(cols), antipodal, 1))


def is_shattered(S: SignMatrix, cols: Iterable[int]) -> bool:
    """True iff every one of the 2^|cols| sign patterns occurs among the rows
    restricted to `cols`."""
    return _set_shattered(S, cols, antipodal=False)


def is_antipodally_shattered(S: SignMatrix, cols: Iterable[int]) -> bool:
    """True iff for every pattern v over `cols`, v or -v occurs among the
    restricted rows."""
    return _set_shattered(S, cols, antipodal=True)


def vc_dimension(S: SignMatrix) -> int:
    """Largest size of a shattered column set.

    Subset sizes are tried in increasing order; the loop stops at the first
    size with no shattered set, and a k-set needs 2^k distinct rows. Each
    size stops at its first witness, and gives up with SizeLimitError after
    examining SUBSET_BUDGET subsets without one. Practical range: VC
    dimension plus dual sign rank of a 57x57 projective plane (p=7) take
    about 2 ms, and of the 183x183 plane (p=13) about 20 ms; a level past
    two million subsets is refused only when no witness comes among the
    first two million, as for disjointness(6), refused after about 0.15 s.
    """
    bits = _bit_columns(S)
    packed = _packed(bits)
    m, rows = bits.shape
    hi = min(m, rows.bit_length() - 1)
    for k in range(1, hi + 1):
        if not _some_shattered(packed, k, antipodal=False):
            return k - 1
    return hi


def vc_at_most(bits: np.ndarray, d: int) -> np.ndarray:
    """Per matrix of a stack bits (..., columns, rows) of 0/1 entries with
    pairwise distinct rows: is its VC dimension at most d? By monotonicity
    that holds exactly when no (d+1)-set of columns is shattered, so one
    scan of that size answers for the whole stack, and none is needed when
    d + 1 exceeds the columns or 2^(d+1) the rows. The scan stops once every
    matrix has a witness, and is bounded by SUBSET_BUDGET like the others.
    """
    m, rows = bits.shape[-2:]
    if d + 1 > min(m, rows.bit_length() - 1):
        return np.ones(bits.shape[:-2], dtype=bool)
    return ~_some_shattered(_packed(bits), d + 1, antipodal=False)


def dual_sign_rank(S: SignMatrix, vc: int | None = None) -> int:
    """Largest size of an antipodally shattered column set.

    An antipodally shattered k-set needs 2^(k-1) distinct rows, and the
    answer lies between the VC dimension and twice the VC dimension plus
    one, so the search is capped at both. `vc`, when given, must be
    vc_dimension(S). Without it no VC search runs: before an even size 2j
    the search checks that some j-set is shattered (2j <= 2 vc + 1), and
    stops at 2j - 1 if none is; an odd size 2j + 1 needs vc >= j, which the
    antipodally shattered 2j-set found before it proves.
    """
    bits = _bit_columns(S)
    packed = _packed(bits)
    m, rows = bits.shape
    hi = min(m, rows.bit_length(), m if vc is None else 2 * vc + 1)
    for k in range(1, hi + 1):
        # A shattered set is antipodally shattered, so sizes up to vc hold a
        # witness, and a scan within the budget would find it.
        if vc is not None and k <= vc and math.comb(m, k) <= SUBSET_BUDGET:
            continue
        over_vc = vc is None and k % 2 == 0 and not _some_shattered(packed, k // 2, antipodal=False)
        if over_vc or not _some_shattered(packed, k, antipodal=True):
            return k - 1
    return hi


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
