import numpy as np
import pytest

from signrank import (
    BooleanMatrix,
    MatrixFormatError,
    SignMatrix,
    distinct_rows,
    parse_sign_matrix,
    projective_incidence,
    regularity,
    to_boolean,
    to_signed,
)
from testutil import random_sign_matrix


def test_parse_signed_identity_2x2():
    S = parse_sign_matrix("+-\n-+")
    assert S.row_tuples() == [(1, -1), (-1, 1)]


def test_parse_all_plus():
    S = parse_sign_matrix("++\n++")
    assert (S.entries == 1).all()


def test_parse_rejects_illegal_character():
    with pytest.raises(MatrixFormatError):
        parse_sign_matrix("+0")


def test_parse_rejects_ragged_lines():
    with pytest.raises(MatrixFormatError) as err:
        parse_sign_matrix("+-\n+-+")
    assert "line 2" in str(err.value)


def reference_parse(text):
    """Line-by-line reader: rows of signs, or the message of the first
    error, a width checked before the characters of each line."""
    rows, width = [], None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        width = len(line) if width is None else width
        if len(line) != width:
            return f"line {lineno}: expected {width} characters, found {len(line)}"
        bad = [ch for ch in line if ch not in "+-"]
        if bad:
            return f"line {lineno}: illegal character {bad[0]!r}"
        rows.append([1 if ch == "+" else -1 for ch in line])
    return rows


def parse_outcome(text):
    try:
        return parse_sign_matrix(text).entries.tolist()
    except MatrixFormatError as exc:
        return str(exc)


def test_parse_reports_deep_errors_by_line():
    """A large input is mapped to signs in one table lookup, yet a bad
    character or width far down is reported at its own line, and the first
    error in line order wins, as the line-by-line reader finds it."""
    rng = np.random.default_rng(3)
    lines = ["# rows=3000 cols=100", ""] + [
        "".join(rng.choice(["+", "-"], size=100)) for _ in range(3000)
    ]
    assert parse_outcome("\n".join(lines)) == reference_parse("\n".join(lines))

    def corrupt(edits):
        changed = list(lines)
        for index, line in edits:
            changed[index] = line
        text = "\n".join(changed)
        assert parse_outcome(text) == reference_parse(text)
        return parse_outcome(text)

    bad_char = (2500, lines[2500][:37] + "x" + lines[2500][38:])
    wide_char = (2600, lines[2600][:99] + "\u2212")  # one character past U+00FF
    short = (2900, lines[2900][:99])
    assert corrupt([bad_char]) == "line 2501: illegal character 'x'"
    assert corrupt([wide_char]) == "line 2601: illegal character '\u2212'"
    assert corrupt([short]) == "line 2901: expected 100 characters, found 99"
    assert corrupt([bad_char, short]) == "line 2501: illegal character 'x'"
    assert corrupt([(2000, lines[2000] + "+"), bad_char]) == "line 2001: expected 100 characters, found 101"
    assert corrupt([(2000, lines[2000][:50] + " " + lines[2000][50:])]).startswith("line 2001: expected")
    assert corrupt([(2000, lines[2000][:50] + "\u00e9" + lines[2000][51:])]) == "line 2001: illegal character '\u00e9'"


def test_parse_rejects_empty_input():
    with pytest.raises(MatrixFormatError):
        parse_sign_matrix("")
    with pytest.raises(MatrixFormatError):
        parse_sign_matrix("# rows=2 cols=2\n\n")


def test_parse_skips_header_line():
    S = parse_sign_matrix("# rows=2 cols=2\n+-\n-+")
    assert S.shape == (2, 2)


def test_parse_serialize_round_trip():
    rng = np.random.default_rng(42)
    for _ in range(50):
        S = random_sign_matrix(rng, int(rng.integers(1, 9)), int(rng.integers(1, 9)))
        assert parse_sign_matrix(S.to_text()) == S


def test_sign_matrix_rejects_zeros_and_bad_shapes():
    with pytest.raises(ValueError):
        SignMatrix([[1, 0], [-1, 1]])
    with pytest.raises(ValueError):
        SignMatrix([1, -1])
    with pytest.raises(ValueError):
        SignMatrix(np.empty((0, 3)))


def test_matrix_kinds_keep_their_messages_and_equality():
    with pytest.raises(ValueError, match="^sign matrix entries must be \\+1 or -1$"):
        SignMatrix([[1, 0]])
    with pytest.raises(ValueError, match="^a sign matrix needs at least one row"):
        SignMatrix([1, -1])
    with pytest.raises(ValueError, match="^boolean matrix entries must be 0 or 1$"):
        BooleanMatrix([[1, -1]])
    with pytest.raises(ValueError, match="^a boolean matrix needs at least one row"):
        BooleanMatrix(np.empty((2, 0)))
    # equal entries, shapes and dtypes, but different kinds
    assert SignMatrix.constant(2, 3, 1) != BooleanMatrix.ones(2, 3)
    assert BooleanMatrix.ones(2, 3) != SignMatrix.constant(2, 3, 1)
    assert BooleanMatrix.ones(2, 3) == BooleanMatrix([[1, 1, 1], [1, 1, 1]])
    assert SignMatrix.constant(2, 3, 1) != SignMatrix.constant(3, 2, 1)
    assert repr(SignMatrix.constant(2, 3)) == "SignMatrix(2x3)"
    assert repr(BooleanMatrix.ones(4, 1)) == "BooleanMatrix(4x1)"



@pytest.mark.parametrize(
    "kind, entries",
    [
        (SignMatrix, [[1.5, -1]]),
        (SignMatrix, [[1, -1.0000001]]),
        (SignMatrix, np.array([[257, -1]], dtype=np.int16)),  # 1 in int8
        (SignMatrix, np.array([[-255, 1]], dtype=np.int32)),  # 1 in int8
        (SignMatrix, np.array([[1, 2**40 - 1]], dtype=np.int64)),  # -1 in int8
        (SignMatrix, [[np.nan, 1]]),
        (SignMatrix, [[True, False]]),
        (BooleanMatrix, [[0.7, 1]]),
        (BooleanMatrix, np.array([[256, 1]], dtype=np.int16)),  # 0 in int8
        (BooleanMatrix, [[0, 1], [np.inf, 0]]),
    ],
)
def test_entries_are_checked_before_the_cast(kind, entries):
    """An entry outside the two values is refused as given, never after
    rounding or wrapping into int8."""
    with pytest.raises(ValueError, match="entries must be"):
        kind(entries)


def test_exact_values_of_any_dtype_are_accepted():
    for entries in ([[1.0, -1.0]], np.array([[1, -1]], dtype=np.int64), np.array([[1, -1]], dtype=np.float32)):
        S = SignMatrix(entries)
        assert S.entries.dtype == np.int8 and S == SignMatrix([[1, -1]])
    for entries in ([[True, False]], [[1.0, 0.0]], np.array([[1, 0]], dtype=np.uint16)):
        B = BooleanMatrix(entries)
        assert B.entries.dtype == np.int8 and B == BooleanMatrix([[1, 0]])


def test_entries_are_copied():
    data = np.array([[1, -1]], dtype=np.int8)
    S = SignMatrix(data)
    data[0, 0] = -1
    assert S == SignMatrix([[1, -1]])


def test_entries_are_immutable():
    S = SignMatrix([[1, -1]])
    with pytest.raises(ValueError):
        S.entries[0, 0] = -1


def test_conversions_identity_examples():
    S = parse_sign_matrix("+-\n-+")
    B = to_boolean(S)
    assert B.entries.tolist() == [[1, 0], [0, 1]]
    assert to_signed(BooleanMatrix.ones(2, 3)) == SignMatrix.constant(2, 3, 1)


def test_conversions_inverse_pair():
    rng = np.random.default_rng(7)
    for _ in range(100):
        S = random_sign_matrix(rng, int(rng.integers(1, 7)), int(rng.integers(1, 7)))
        B = to_boolean(S)
        assert to_signed(B) == S
        # entrywise S = 2B - J
        assert (S.entries == 2 * B.entries - 1).all()


def test_regularity_projective_plane_order_3():
    B = to_boolean(projective_incidence(3, 2))
    info = regularity(B)
    assert info.is_row_regular and info.is_col_regular
    assert info.degree == 4
    # re-verify by direct summation
    assert set(B.entries.sum(axis=1)) == {4}
    assert set(B.entries.sum(axis=0)) == {4}


def test_regularity_identity_and_irregular():
    eye = BooleanMatrix(np.eye(4, dtype=int))
    assert regularity(eye).degree == 1
    lop = BooleanMatrix([[1, 1], [1, 0]])
    info = regularity(lop)
    assert info.degree is None and not info.is_row_regular


def test_regularity_non_square_has_no_degree():
    both = BooleanMatrix([[1, 1, 0, 0], [0, 0, 1, 1]])  # rows 2, cols 1
    info = regularity(both)
    assert info.is_row_regular and info.is_col_regular
    assert info.degree is None


def test_distinct_rows():
    S = SignMatrix([[1, 1], [1, 1], [-1, -1]])
    assert distinct_rows(S).row_tuples() == [(1, 1), (-1, -1)]
    eye = parse_sign_matrix("+---\n-+--\n--+-\n---+")
    assert distinct_rows(eye) == eye
    same = SignMatrix.constant(5, 2, -1)
    assert distinct_rows(same).n_rows == 1
