import hashlib
import itertools
import math
import time

import numpy as np
import pytest

from signrank import (
    ProjectiveSpace,
    SizeLimitError,
    default_line_orders,
    disjointness,
    grid_hyperplane,
    hamming_ball,
    heavy_dominant_free_random,
    heavy_dominant_free_random_logged,
    interval_class,
    is_maximum_class,
    line_subset_random,
    planted_line_orders,
    projective_incidence,
    regularity,
    signed_identity,
    to_boolean,
    vc_dimension,
)
from signrank import generators
from testutil import HEAVY_PATTERNS, heavy_dominant_present


class ArrayStubRng:
    """Duck-typed generator whose random() returns a fixed fill value."""

    def __init__(self, value: float):
        self.value = value

    def random(self, size=None):
        return np.full(size, self.value)


def test_signed_identity():
    S = signed_identity(4)
    assert (np.diag(S.entries) == 1).all()
    off = S.entries[~np.eye(4, dtype=bool)]
    assert (off == -1).all()
    assert signed_identity(1).row_tuples() == [(1,)]
    with pytest.raises(ValueError):
        signed_identity(0)


def test_disjointness():
    D = disjointness(2)
    assert D.shape == (4, 4)
    assert D.row_tuples()[0] == (-1, -1, -1, -1)  # empty set meets nothing
    D1 = disjointness(1)
    assert D1.row_tuples() == [(-1, -1), (-1, 1)]


def test_projective_space_counts():
    for p, d in ((2, 2), (3, 2), (5, 2), (2, 3)):
        space = ProjectiveSpace.build(p, d)
        assert space.n_points == (p ** (d + 1) - 1) // (p - 1)
    with pytest.raises(ValueError):
        ProjectiveSpace.build(4, 2)
    with pytest.raises(ValueError):
        ProjectiveSpace.build(3, 1)


@pytest.mark.parametrize("p, d", [(2, 2), (3, 2), (2, 3), (5, 2), (3, 3), (7, 2)])
def test_projective_space_points_in_lexicographic_order(p, d):
    # The canonical vectors (first non-zero coordinate 1) in the order of
    # itertools.product.
    expected = tuple(
        v for v in itertools.product(range(p), repeat=d + 1) if next((x for x in v if x), 0) == 1
    )
    assert ProjectiveSpace.build(p, d).points == expected


def test_projective_incidence_structure():
    A = projective_incidence(3, 2)
    assert A.shape == (13, 13)
    B = to_boolean(A)
    assert regularity(B).degree == 4
    # two points share exactly one line: B B^T = 3 I + J in exact integers
    gram = B.entries.astype(np.int64) @ B.entries.astype(np.int64).T
    expected = 3 * np.eye(13, dtype=np.int64) + 1
    assert (gram == expected).all()

    fano = projective_incidence(2, 2)
    assert fano.shape == (7, 7)
    assert regularity(to_boolean(fano)).degree == 3


def test_projective_incidence_higher_dim_gram():
    A = projective_incidence(2, 3)  # 15 points, plane degree 7
    B = to_boolean(A)
    n = 15
    assert regularity(B).degree == 7
    gram = B.entries.astype(np.int64) @ B.entries.astype(np.int64).T
    expected = 4 * np.eye(n, dtype=np.int64) + 3  # p^(d-1) I + (p+1) J
    assert (gram == expected).all()


def test_hamming_ball():
    ball = hamming_ball(5, 1)
    assert ball.n_rows == 6
    weights = (ball.matrix.entries == 1).sum(axis=1)
    assert weights.max() <= 1
    assert is_maximum_class(ball, 1)
    assert vc_dimension(ball.matrix) == 1
    assert hamming_ball(3, 3).n_rows == 8
    assert is_maximum_class(hamming_ball(4, 2), 2)
    with pytest.raises(ValueError):
        hamming_ball(3, 4)


def test_grid_hyperplane():
    G = grid_hyperplane(3, 2)
    assert G.shape == (9, 4)
    assert vc_dimension(G) == 2
    # independent entry check against the defining predicate
    points = list(itertools.product(range(1, 4), repeat=2))
    for r, pt in enumerate(points):
        c = 0
        for j in range(2):
            for i in range(1, 3):
                expected = 1 if pt[j] > i + 0.5 else -1
                assert G.entries[r, c] == expected
                c += 1
    with pytest.raises(ValueError):
        grid_hyperplane(1, 2)
    with pytest.raises(ValueError):
        grid_hyperplane(3, 0)


def test_interval_class_sizes_and_maximality():
    for p in (2, 3):
        C = interval_class(p)
        n = p * p + p + 1
        assert C.n_cols == n
        assert C.n_rows == 1 + n + math.comb(n, 2)
        assert is_maximum_class(C, 2)
    assert interval_class(2).n_rows == 29
    assert interval_class(3).n_rows == 92
    # size formula also at p=5 (maximality check skipped: 497 rows)
    assert interval_class(5).n_rows == 1 + 31 + math.comb(31, 2)


def test_hamming_ball_refuses_empty_vectors():
    # n = 0 passes the radius check, but has no coordinate to build on
    with pytest.raises(ValueError, match="n must be at least 1"):
        hamming_ball(0, 0)


def test_hamming_ball_scales_past_word_width():
    ball = hamming_ball(40, 1)
    assert ball.n_rows == 41
    assert vc_dimension(ball.matrix) == 1


def test_interval_class_lines_intersect_once():
    plane = ProjectiveSpace.build(3, 2)
    lines = [set(plane.hyperplane_points(h)) for h in range(plane.n_points)]
    for a, b in itertools.combinations(range(len(lines)), 2):
        assert len(lines[a] & lines[b]) == 1
    # hence every interval of size >= 2 lies in exactly one line
    C = interval_class(3)
    for row in C.matrix.entries:
        members = set(np.flatnonzero(row == 1))
        if len(members) >= 2:
            assert sum(members <= line for line in lines) == 1


def test_interval_class_planted_orders():
    plane = ProjectiveSpace.build(3, 2)
    orders = planted_line_orders(plane, np.random.default_rng(9))
    C = interval_class(3, orders)
    assert is_maximum_class(C, 2)
    again = interval_class(3, planted_line_orders(plane, np.random.default_rng(9)))
    assert C.matrix == again.matrix  # same seed, same class
    with pytest.raises(ValueError):
        bad = default_line_orders(plane)[:-1]
        interval_class(3, type(orders)(bad))


def test_line_subset_random():
    rng = np.random.default_rng(1)
    S = line_subset_random(3, rng)
    assert vc_dimension(S) <= 2
    B = to_boolean(S).entries
    # no all-ones 2x2 boolean submatrix: any two rows share at most one column
    for a, b in itertools.combinations(range(13), 2):
        assert int((B[a] & B[b]).sum()) <= 1

    keep_all = line_subset_random(3, ArrayStubRng(0.0))
    assert keep_all == projective_incidence(3, 2)
    drop_all = line_subset_random(3, ArrayStubRng(1.0))
    assert (drop_all.entries == -1).all()
    assert vc_dimension(drop_all) == 0


def test_heavy_dominant_free_d3():
    rng = np.random.default_rng(2)
    S, log = heavy_dominant_free_random_logged(20, 3, rng)
    B = to_boolean(S).entries
    assert not heavy_dominant_present(B)
    assert vc_dimension(S) <= 3
    assert log["ones_final"] == log["ones_initial"] - log["ones_deleted"]
    assert log["ones_deleted"] <= 2 * log["occurrences"]
    assert log["ones_final"] > 0


def test_heavy_dominant_free_d3_dense_draw_gets_cleaned():
    # An all-ones draw is saturated with occurrences; the cleaner must still
    # leave a pattern-free matrix.
    S, log = heavy_dominant_free_random_logged(8, 3, ArrayStubRng(0.0))
    B = to_boolean(S).entries
    assert log["occurrences"] > 0
    assert not heavy_dominant_present(B)


def test_heavy_dominant_check_finds_a_planted_pattern():
    """The reference check sees the pattern planted on scattered rows and
    columns, and misses it once the all-ones row loses a one."""
    B = np.zeros((12, 12), dtype=np.int8)
    rows, cols = [11, 2, 7, 5, 9], [1, 4, 6, 10]
    B[np.ix_(rows, cols)] = HEAVY_PATTERNS
    assert heavy_dominant_present(B)
    B[11, 6] = 0
    assert not heavy_dominant_present(B)


def test_heavy_dominant_free_all_zero_draw():
    S = heavy_dominant_free_random(10, 3, ArrayStubRng(1.0))
    assert (S.entries == -1).all()
    assert vc_dimension(S) == 0


def test_heavy_dominant_free_d5_small():
    rng = np.random.default_rng(3)
    S, log = heavy_dominant_free_random_logged(12, 5, rng)
    assert S.shape == (12, 12)
    assert vc_dimension(S) <= 5
    assert log["ones_final"] == log["ones_initial"] - log["ones_deleted"]


def test_heavy_dominant_free_validation():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        heavy_dominant_free_random(10, 4, rng)
    with pytest.raises(ValueError):
        heavy_dominant_free_random(10, 2, rng)
    with pytest.raises(SizeLimitError):
        heavy_dominant_free_random(41, 3, rng)
    with pytest.raises(SizeLimitError):
        heavy_dominant_free_random(26, 5, rng)
    with pytest.raises(ValueError):
        heavy_dominant_free_random(0, 3, rng)


@pytest.mark.parametrize("n, d", [(10, 12), (5, 5), (1, 3), (10, 40), (25, 24)])
def test_heavy_dominant_free_without_column_sets(n, d):
    # Fewer than d + 1 columns, or (25, 24) fewer rows than patterns: no
    # pattern can occur, so the draw is returned.
    S, log = heavy_dominant_free_random_logged(n, d, np.random.default_rng(6))
    draw = np.random.default_rng(6).random((n, n)) < log["probability"]
    assert (to_boolean(S).entries == draw).all()
    assert log["occurrences"] == log["ones_deleted"] == 0
    assert log["ones_final"] == log["ones_initial"] == int(draw.sum())


@pytest.mark.parametrize("n, d, min_weight", [(8, 3, 3), (22, 5, 4)])
def test_heavy_dominant_free_lists_every_heavy_pattern(monkeypatch, n, d, min_weight):
    """The patterns matched on an all-ones draw are every (d+1)-bit mask of
    weight at least min_weight, in increasing order. (At d = 5 they are 22,
    so n = 22 is the least n that can hold them.)"""

    class Seen(Exception):
        pass

    def spy(masks, patterns):
        raise Seen(patterns)

    monkeypatch.setattr(generators, "_dominating_assignment", spy)
    with pytest.raises(Seen) as seen:
        heavy_dominant_free_random_logged(n, d, ArrayStubRng(0.0))
    expected = [m for m in range(1 << d + 1) if m.bit_count() >= min_weight]
    assert seen.value.args[0] == expected


def test_heavy_dominant_free_scans_no_set_with_fewer_rows_than_patterns():
    """From d = 6 on there are at least 29 patterns, more than the at most
    25 rows can match, so none of the C(25, 13) column sets of d = 12 (about
    6 s to scan) is examined."""
    start = time.perf_counter()
    S, log = heavy_dominant_free_random_logged(25, 12, np.random.default_rng(0))
    assert time.perf_counter() - start < 1.0
    assert log["occurrences"] == 0 and S.shape == (25, 25)


def test_interval_class_refuses_an_order_missing_a_point():
    orders = list(default_line_orders(ProjectiveSpace.build(3, 2)))
    orders[5] = orders[5][:-1] + orders[4][:1]  # same length, one point of line 4
    with pytest.raises(ValueError, match="order for line 5 does not cover its points"):
        interval_class(3, tuple(orders))


def test_generator_parameters_below_their_range():
    with pytest.raises(ValueError, match="n must be at least 1"):
        disjointness(0)
    with pytest.raises(ValueError, match="order 1 is not prime"):
        ProjectiveSpace.build(1, 2)


def _planted_interval_class_5():
    plane = ProjectiveSpace.build(5, 2)
    return interval_class(5, planted_line_orders(plane, np.random.default_rng(4)))


# sha256 of `to_text()` of each instance as first released, so that a change
# to a generator cannot silently change the instances built on it.
PINNED = {
    "projective-5-2": (lambda: projective_incidence(5, 2), "96cc3daf362e9b677510daa19a47f4ebe3d99ba489230c1d2d4d1697436223da"),
    "projective-2-3": (lambda: projective_incidence(2, 3), "9b13a68ebe685d387ce0709b4a22497af5f5ea82a650c7de25a103b415f41e53"),
    "interval-5": (lambda: interval_class(5).matrix, "fc4b217414ab3af4583ad0a138af6bcdec6b7785e4a419d3801bfb04c8b7236c"),
    "interval-5-planted": (lambda: _planted_interval_class_5().matrix, "8a9f72d4a00f1363ac3de79547b705fd22d8aa315f5b1a34f0d9a776081ac659"),
    "grid-6-3": (lambda: grid_hyperplane(6, 3), "126e984befb3fe9190dee832ef7af86f4f540b367f348096ef01415ea69d3952"),
    "grid-4-3": (lambda: grid_hyperplane(4, 3), "c56329e0e8b3a32fadc543705bb94320b188ce96506686cb7bfdd84a3c86b6a7"),
    "line-subset-5": (lambda: line_subset_random(5, np.random.default_rng(0)), "5bd68b9e0e9d6bbdd668369216240b08d9fcb30f1988a18462b8521007bec6c8"),
    "heavy-free-16-3": (lambda: heavy_dominant_free_random(16, 3, np.random.default_rng(0)), "7b3e518567d71844868b0f07dfc8408fe5c91543654fbb363e97a6085510071b"),
    "hamming-14-2": (lambda: hamming_ball(14, 2).matrix, "77d24eb47dcce3cc308bfee2e7be6e5cec8c399d28054cadd559b3d411cbcee9"),
}


@pytest.mark.parametrize("name", PINNED)
def test_generator_output_is_pinned(name):
    build, digest = PINNED[name]
    assert hashlib.sha256(build().to_text().encode()).hexdigest() == digest


def test_interval_class_cap_boundary():
    """Order 17 is the largest plane whose interval class fits the cell cap:
    307 points and 1 + 307 + C(307, 2) = 47279 members. Order 19 (381
    points) is refused."""
    assert interval_class(17).matrix.shape == (47279, 307)
    with pytest.raises(SizeLimitError, match="interval_class\\(19\\)"):
        interval_class(19)


def test_generators_cap_their_output_size():
    """The cap holds at 4096^2 cells, one past it is refused."""
    with pytest.raises(SizeLimitError):
        signed_identity(4097)
    with pytest.raises(SizeLimitError):
        disjointness(13)
    with pytest.raises(SizeLimitError):
        grid_hyperplane(2, 24)
    with pytest.raises(SizeLimitError):
        hamming_ball(64, 5)
    with pytest.raises(SizeLimitError):
        interval_class(29)
    assert signed_identity(4096).shape == (4096, 4096)
