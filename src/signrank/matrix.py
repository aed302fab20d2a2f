"""Dense sign (+1/-1) and boolean (0/1) matrices with a '+'/'-' text format.

The two representations are linked entrywise by S = 2B - J, with J the
all-ones matrix. Matrices are immutable after construction, so they are safe
to share between concurrent readers; `distinct_rows` keeps its answer on the
matrix, and readers that race to set it set the same one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import MatrixFormatError

# Byte value -> sign, 0 for every byte but '+' and '-'.
_SIGN_OF_BYTE = np.zeros(256, dtype=np.int8)
_SIGN_OF_BYTE[[ord("+"), ord("-")]] = (1, -1)


class _Matrix:
    """Immutable dense int8 matrix with at least one row and one column,
    whose entries are among `_values` (spelled `_rule` in errors). Entries
    are checked as given, before the cast to int8 could round or wrap them."""

    _kind: str
    _values: tuple[int, int]
    _rule: str

    def __init__(self, entries) -> None:
        data = np.asarray(entries)
        if data.ndim != 2 or data.shape[0] < 1 or data.shape[1] < 1:
            raise ValueError(f"a {self._kind} matrix needs at least one row and one column")
        low, high = self._values
        if not ((data == low) | (data == high)).all():
            raise ValueError(f"{self._kind} matrix entries must be {self._rule}")
        data = data.astype(np.int8)
        data.setflags(write=False)
        self._data = data

    @property
    def entries(self) -> np.ndarray:
        return self._data

    @property
    def n_rows(self) -> int:
        return int(self._data.shape[0])

    @property
    def n_cols(self) -> int:
        return int(self._data.shape[1])

    @property
    def shape(self) -> tuple[int, int]:
        return (self.n_rows, self.n_cols)

    def __eq__(self, other) -> bool:
        return (
            type(other) is type(self)
            and self.shape == other.shape
            and bool((self._data == other._data).all())
        )

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.n_rows}x{self.n_cols})"


class SignMatrix(_Matrix):
    """Immutable dense matrix whose entries are exactly +1 or -1."""

    _kind, _values, _rule = "sign", (-1, 1), "+1 or -1"
    # Set by `distinct_rows`: its distinct rows, or True when that is the
    # matrix itself (no self-reference, so dropping the matrix frees it).
    _distinct: "SignMatrix | bool | None" = None

    def row_tuples(self) -> list[tuple[int, ...]]:
        return [tuple(int(v) for v in row) for row in self._data]

    def to_text(self) -> str:
        text = np.full((self.n_rows, self.n_cols + 1), ord("\n"), dtype=np.uint8)
        text[:, :-1] = np.where(self._data == 1, ord("+"), ord("-"))
        return text.tobytes().decode("ascii")

    @classmethod
    def constant(cls, n_rows: int, n_cols: int, value: int = 1) -> "SignMatrix":
        return cls(np.full((n_rows, n_cols), value, dtype=np.int8))


class BooleanMatrix(_Matrix):
    """Immutable dense matrix with entries 0 or 1."""

    _kind, _values, _rule = "boolean", (0, 1), "0 or 1"

    @classmethod
    def ones(cls, n_rows: int, n_cols: int) -> "BooleanMatrix":
        return cls(np.ones((n_rows, n_cols), dtype=np.int8))


@dataclass(frozen=True)
class RegularityInfo:
    """Row/column regularity flags; `degree` is set only for square matrices
    whose row sums and column sums all share one common value."""

    is_row_regular: bool
    is_col_regular: bool
    degree: int | None


def parse_sign_matrix(text: str) -> SignMatrix:
    """Parse the '+'/'-' text format.

    Blank lines and lines starting with '#' (an optional header) are skipped.
    All remaining lines must have equal length and use only '+' and '-'. The
    first offending line is reported, as a line-by-line reader would find
    it: the lines are collected up to the first of another width, and their
    characters are then mapped to signs in one table lookup.
    """
    rows: list[str] = []
    linenos: list[int] = []
    ragged = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if rows and len(line) != len(rows[0]):
            found = f"expected {len(rows[0])} characters, found {len(line)}"
            ragged = MatrixFormatError(found, line=lineno)
            break
        rows.append(line)
        linenos.append(lineno)
    if not rows:
        raise MatrixFormatError("empty input: no matrix rows found")
    # one byte per character: any character past U+00FF becomes '?', also illegal
    signs = _SIGN_OF_BYTE[np.frombuffer("".join(rows).encode("latin-1", "replace"), dtype=np.uint8)]
    legal = signs != 0
    if not legal.all():
        row, col = divmod(int(legal.argmin()), len(rows[0]))
        raise MatrixFormatError(f"illegal character {rows[row][col]!r}", line=linenos[row])
    if ragged is not None:
        raise ragged
    return SignMatrix(signs.reshape(len(rows), -1))


def to_boolean(S: SignMatrix) -> BooleanMatrix:
    """Boolean version B = (S + J) / 2."""
    return BooleanMatrix((S.entries + 1) // 2)


def to_signed(B: BooleanMatrix) -> SignMatrix:
    """Signed version S = 2B - J."""
    return SignMatrix(2 * B.entries.astype(np.int16) - 1)


def regularity(B: BooleanMatrix) -> RegularityInfo:
    """Check whether every row (column) has the same number of ones.

    The common degree is reported only when the matrix is square and both
    checks pass; then the shared row sum necessarily equals the shared column
    sum.
    """
    row_sums = B.entries.sum(axis=1)
    col_sums = B.entries.sum(axis=0)
    row_regular = bool((row_sums == row_sums[0]).all())
    col_regular = bool((col_sums == col_sums[0]).all())
    degree = None
    if row_regular and col_regular and B.n_rows == B.n_cols:
        degree = int(row_sums[0])
    return RegularityInfo(row_regular, col_regular, degree)


def distinct_rows(S: SignMatrix) -> SignMatrix:
    """Drop duplicate rows, keeping the first occurrence of each; S itself
    when its rows are already distinct. The answer is kept on S and on the
    result, so each matrix is deduplicated once."""
    if S._distinct is None:
        data = np.ascontiguousarray(S.entries)
        # One opaque item per row makes the dedupe a 1-d unique.
        rows = data.view(np.dtype((np.void, data.shape[1]))).ravel()
        keep = np.sort(np.unique(rows, return_index=True)[1])
        if len(keep) == S.n_rows:
            S._distinct = True
        else:
            S._distinct = SignMatrix(data[keep])
            S._distinct._distinct = True
    return S if S._distinct is True else S._distinct


def has_distinct_rows(S: SignMatrix) -> bool:
    return distinct_rows(S) is S
