import hashlib
import math
from fractions import Fraction

import numpy as np
import pytest

from signrank import (
    FactorizationWitness,
    SignMatrix,
    count_sign_changes,
    disjointness,
    distinct_rows,
    embed_vc1,
    approx_sign_rank,
    grid_hyperplane,
    hamming_ball,
    heavy_dominant_free_random,
    hinge_search_upper,
    interval_class,
    line_subset_random,
    low_stabbing_order,
    projective_incidence,
    regularity,
    sc_star_bruteforce,
    signed_identity,
    signrank_bracket,
    to_boolean,
    verify_realization,
)
from signrank import embed
from testutil import SORTABLE_VC2, random_distinct_matrix, random_sign_matrix, random_vc1_matrix


def assert_unit_circle_points(R):
    """The left factor of a planar embedding is [points, 1] with unit-norm
    points."""
    assert R.rank == 3 and R.left.shape[1] == 3
    assert (R.left[:, 2] == 1.0).all()
    assert np.allclose(np.linalg.norm(R.left[:, :2], axis=1), 1.0, atol=1e-9)


def test_embed_signed_identity():
    """Equal angles along the path give every column a margin of at least
    1 - cos(pi / n), the gap between a point and its arc's chord."""
    for n in (4, 64, 1000):
        S = signed_identity(n)
        R = embed_vc1(S)
        assert verify_realization(R, S)
        assert_unit_circle_points(R)
        margin = float((S.entries * R.values()).min())
        assert margin >= (1.0 - math.cos(math.pi / n)) * (1.0 - 1e-9)
        assert R.min_margin == margin


def test_embed_two_rows_one_column():
    # the one-row matrix has only constant columns
    for S in (SignMatrix([[1], [-1]]), SignMatrix([[1, -1, 1]])):
        assert verify_realization(embed_vc1(S), S)


def test_embed_rejects_vc2_and_duplicates():
    with pytest.raises(ValueError):
        embed_vc1(disjointness(2))
    with pytest.raises(ValueError):
        embed_vc1(SignMatrix([[1, 1], [1, 1]]))


def test_embed_sortable_vc2_matrix():
    """A VC-2 matrix whose sort leaves two changes per column embeds in the
    plane, and the bracket's row path is that sort, at the embedding's
    three."""
    S = SORTABLE_VC2
    assert verify_realization(embed_vc1(S), S)
    report = signrank_bracket(S, np.random.default_rng(0))
    assert report.vc == 2
    assert ("path_vc1", 3) in report.upper_bounds
    assert report.bracket[1] <= 3


def test_embed_random_vc1_instances():
    rng = np.random.default_rng(21)
    for _ in range(60):
        S = random_vc1_matrix(rng)
        R = embed_vc1(S)
        assert verify_realization(R, S)
        assert_unit_circle_points(R)


# The planar factors of `embed_vc1`, each pinned by the sha256 of the bytes of
# its left factor [points, 1] and right factor [normals, offsets]. The random
# draws are `random_vc1_matrix(np.random.default_rng(seed))`; all three have
# columns of both constant signs. Recorded with numpy 2.4 (x86-64); a libm that
# rounds cos or sin differently may need them recorded again.
GOLDEN_PLANAR = [
    (lambda: signed_identity(4),
     "d5274383bd789751737904328cdd2f1cbdcdb01b2d6a23d49459d2c0e7e7b6fa",
     "f61129cab668633c60a987c4e20b40cc23c62907eebf4b4365d9d2feed8b1e74"),
    (lambda: signed_identity(64),
     "521286138aa7b25bb6140310ee7ba4f346dbbb5b7a6519c5eb39467ff80f29a1",
     "7f65462a8db676001146a510442b5a9279ddcfa38af20023350ba43e134af9b8"),
    (lambda: signed_identity(1000),
     "bf41d9c5e594e690d589297413aa1941ffe78c23a7f4089df76f6de2ef483d45",
     "8aa6d0b44053adfab69a4f644b1fe14ad9e11d77fcc7112908bd2681b1aaf318"),
    (lambda: SORTABLE_VC2,
     "3eb4f97846567719e0f745c4d4e728cfd6bdcf154d9c45e32047f8b2737f60de",
     "c2a909c865286a37dec3e8f7cbe7d979c8d339545e1b45156cfc7d38f47112dd"),
    (lambda: random_vc1_matrix(np.random.default_rng(2)),
     "d8ba749b4e21089fd104d0502332bdc2a1f4e3ab91b389350dd81deb4d41c8ad",
     "9d4c4baf3a9f5348a401d07e5aeef43367a188ae6837833cbffc44bff96513ff"),
    (lambda: random_vc1_matrix(np.random.default_rng(7)),
     "44fdc001a7fc74796fb7e20d0db8bcc8140b90bad661e3fd6d76a2165e026555",
     "fe29f70244013a7e289c47a8668a9246a98c2c836a9f5ac9e0efe89a8d1c3bd1"),
    (lambda: random_vc1_matrix(np.random.default_rng(19)),
     "9ff7f61d50f248d90eefe45605ee53ac9b0bf295306958f27c27e2a2b9330c52",
     "1a6e5e57f99355b8b41b44667c898568174599b1d82283c1ca998b19fe4dcdb3"),
]


@pytest.mark.parametrize("build, left_digest, right_digest", GOLDEN_PLANAR)
def test_planar_factors_are_pinned(build, left_digest, right_digest):
    """Changes to how the embedding is built or returned must leave its
    factors bit for bit."""
    S = build()
    R = embed_vc1(S)
    assert hashlib.sha256(R.left.tobytes()).hexdigest() == left_digest
    assert hashlib.sha256(R.right.tobytes()).hexdigest() == right_digest


def test_verify_rejects_flipped_halfplane():
    S = signed_identity(4)
    R = embed_vc1(S)
    right = R.right.copy()
    right[0, :2] = -right[0, :2]  # the normal of column 0's halfplane
    broken = FactorizationWitness(3, R.left, right, R.min_margin)
    assert not verify_realization(broken, S)


def test_verify_rejects_zero_margin_factorization():
    S = SignMatrix([[1, -1], [-1, 1]])
    left = np.array([[1.0, 0.0], [0.0, 1.0]])
    right = np.array([[1.0, 0.0], [0.0, 0.0]])  # second column all zero products
    witness = FactorizationWitness(2, left, right, 0.0)
    assert not verify_realization(witness, S)


def exact_products(left, right):
    """U V^T in exact rational arithmetic."""
    return [
        [sum(Fraction(a) * Fraction(b) for a, b in zip(u, v)) for v in right.tolist()]
        for u in left.tolist()
    ]


def test_verify_factorization_signs_are_exact():
    """Whenever the verifier accepts a factorization, the exact products have
    the claimed signs, also when the float products nearly cancel or
    underflow."""
    rng = np.random.default_rng(11)
    accepted = rejected = 0
    for trial in range(400):
        k = int(rng.integers(1, 5))
        n, m = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        left = rng.standard_normal((n, k))
        right = rng.standard_normal((m, k))
        if k > 1 and trial % 2:
            # make row 0 of U nearly orthogonal to every row of V
            right[:, -1] = -(right[:, :-1] @ left[0, :-1]) / left[0, -1]
            right[:, -1] += rng.choice([0.0, 1e-17, 1e-15, 1e-13], size=m)
        scale = [1.0, 2.0**-537, 2.0**-520, 2.0**300][trial % 4]
        left = left * scale
        values = left @ right.T
        entries = np.where(values >= 0, 1, -1)
        if trial % 7 == 0:
            entries[0, 0] = -entries[0, 0]
        S = SignMatrix(entries)
        witness = FactorizationWitness(k, left, right, float((S.entries * values).min()))
        if verify_realization(witness, S):
            accepted += 1
            exact = exact_products(left, right)
            assert all(
                (exact[i][j] > 0) == (S.entries[i, j] > 0) and exact[i][j] != 0
                for i in range(n)
                for j in range(m)
            )
        else:
            rejected += 1
    assert accepted > 100 and rejected > 100


def test_verify_planar_signs_are_exact():
    """Whenever the verifier accepts a planar realization [p, 1] [n, o]^T,
    p . n + o has the claimed sign in exact arithmetic, also when the offset
    is one ulp past cancelling p . n."""
    rng = np.random.default_rng(5)
    accepted = rejected = 0
    for trial in range(4000):
        a, b = rng.uniform(0.0, 2.0 * math.pi, size=2)
        points = np.array([[math.cos(a), math.sin(a)]])
        normals = np.array([[math.cos(b), math.sin(b)]])
        offset = -float(points[0] @ normals[0])
        if trial % 4:
            offset = float(np.nextafter(offset, rng.choice([-np.inf, np.inf])))
        else:
            offset += rng.choice([-1.0, 1.0]) * 1e-6
        left = np.column_stack((points, [1.0]))
        right = np.column_stack((normals, [offset]))
        value = float((left @ right.T)[0, 0])
        S = SignMatrix([[1 if value >= 0 else -1]])
        R = FactorizationWitness(3, left, right, abs(value))
        if verify_realization(R, S):
            accepted += 1
            exact = sum(
                Fraction(p) * Fraction(q) for p, q in zip(points[0], normals[0])
            ) + Fraction(offset)
            assert exact != 0 and (exact > 0) == (S.entries[0, 0] > 0)
        else:
            rejected += 1
    assert accepted > 500 and rejected > 500


def test_verify_rejects_margin_below_rounding_bound():
    """Exact margin 2^-52 against a rounding bound of about 2^-51: the float
    margin is positive and exact, but too small to prove the sign."""
    S = SignMatrix([[1]])
    left = np.array([[1.0, 1.0]])
    right = np.array([[1.0 + 2.0**-52, -1.0]])
    witness = FactorizationWitness(2, left, right, 2.0**-52)
    assert float(witness.values()[0, 0]) == 2.0**-52
    assert not verify_realization(witness, S)
    healthy = np.array([[1.0 + 2.0**-40, -1.0]])
    assert verify_realization(FactorizationWitness(2, left, healthy, 2.0**-40), S)


def test_verify_rejects_non_finite_factorization():
    S = SignMatrix([[1, 1]])
    left = np.array([[np.inf]])
    assert not verify_realization(FactorizationWitness(1, left, np.ones((2, 1)), 1.0), S)
    left = np.array([[1e200]])
    huge = np.full((2, 1), 1e200)  # products overflow to +inf
    with np.errstate(over="ignore"):
        assert not verify_realization(FactorizationWitness(1, left, huge, 1.0), S)


def test_verify_rejects_mismatched_inner_dimension():
    S = SignMatrix([[1]])
    with pytest.raises(ValueError):
        verify_realization(FactorizationWitness(2, np.ones((1, 2)), np.ones((1, 3)), 1.0), S)


def test_verify_dimension_mismatch():
    S = signed_identity(4)
    R = embed_vc1(S)
    with pytest.raises(ValueError):
        verify_realization(R, signed_identity(5))


def test_hinge_search_all_plus_rank1():
    S = SignMatrix.constant(4, 4, 1)
    w = hinge_search_upper(S, 1, np.random.default_rng(0))
    assert w is not None and w.rank == 1
    assert verify_realization(w, S)


def test_hinge_search_refuses_rank_zero():
    with pytest.raises(ValueError, match="rank must be at least 1"):
        hinge_search_upper(signed_identity(3), 0, np.random.default_rng(0))


def test_hinge_search_signed_identity():
    S = signed_identity(4)
    w3 = hinge_search_upper(S, 3, np.random.default_rng(0))
    assert w3 is not None
    assert verify_realization(w3, S)
    assert w3.min_margin > 0
    # sign rank is 3, so no rank-2 witness exists; the search must come back
    # empty rather than claim one
    w2 = hinge_search_upper(
        S, 2, np.random.default_rng(0), restarts=8, max_alternations=600
    )
    assert w2 is None


def test_hinge_search_keeps_sign_consistent_witnesses():
    """A factorization with every margin positive certifies its rank even
    when its hinge loss is not zero."""
    G = grid_hyperplane(6, 3)
    w = hinge_search_upper(G, 4, np.random.default_rng(0), restarts=6, max_alternations=400)
    assert w is not None and w.rank == 4
    assert verify_realization(w, G)
    assert signrank_bracket(grid_hyperplane(5, 2), np.random.default_rng(0)).bracket == (3, 3)
    assert signrank_bracket(disjointness(5), np.random.default_rng(0)).bracket == (6, 6)


def test_hinge_search_draws_restarts_in_order():
    """Restart r starts from the r-th (U, V) pair of the stream, and the
    search draws exactly one pair per restart."""
    S = signed_identity(4)
    rng = np.random.default_rng(5)
    hinge_search_upper(S, 2, rng, restarts=3, max_alternations=2)
    reference = np.random.default_rng(5)
    for _ in range(3):
        reference.standard_normal((4, 2))
        reference.standard_normal((4, 2))
    assert rng.standard_normal() == reference.standard_normal()


def count_solves(monkeypatch, fail=False):
    calls = []
    original = np.linalg.solve

    def solve(a, b):
        calls.append(a.shape)
        if fail:
            raise np.linalg.LinAlgError("singular matrix")
        return original(a, b)

    monkeypatch.setattr(np.linalg, "solve", solve)
    return calls


def test_hinge_search_pinv_fallback(monkeypatch):
    calls = count_solves(monkeypatch, fail=True)
    S = signed_identity(4)
    w = hinge_search_upper(S, 3, np.random.default_rng(0))
    assert calls and w is not None
    assert verify_realization(w, S)


@pytest.mark.parametrize("alternations", [0, 1, 2, 7])
def test_hinge_search_budget_counts_solves(monkeypatch, alternations):
    """The rank-2 search on signed_identity(4) never succeeds, so it spends
    its whole budget: two stacked solves per alternation, none for 0."""
    calls = count_solves(monkeypatch)
    w = hinge_search_upper(
        signed_identity(4), 2, np.random.default_rng(0), restarts=5,
        max_alternations=alternations,
    )
    assert w is None
    assert len(calls) == 2 * alternations
    assert all(shape[0] == 5 and shape[1:] == (2, 2) for shape in calls)


class FixedStart:
    """A generator stand-in that hands the search fixed starting factors."""

    def __init__(self, start):
        self.start = np.array(start, dtype=float)

    def standard_normal(self, shape):
        assert self.start.shape == shape
        return self.start.copy()


def test_hinge_search_retires_non_finite_restarts(monkeypatch):
    calls = count_solves(monkeypatch)
    S = signed_identity(4)
    start = np.random.default_rng(0).standard_normal((2, 24))
    start[0] = np.nan
    assert hinge_search_upper(S, 3, FixedStart(start[:1]), restarts=1) is None
    assert calls == []  # retired at its first alternation, before any solve
    w = hinge_search_upper(S, 3, FixedStart(start), restarts=2)
    assert w is not None and np.isfinite(w.left).all() and np.isfinite(w.right).all()
    assert verify_realization(w, S)
    assert all(shape[0] == 1 for shape in calls)  # only restart 1 was solved


def test_hinge_search_retires_stalled_restarts(monkeypatch):
    """Zero factors are a fixed point (their Gram matrices are singular, so
    the pseudoinverse serves): the loss never improves after the first
    alternation, and the restart retires after 50 more."""
    calls = count_solves(monkeypatch)
    S = signed_identity(3)
    assert hinge_search_upper(S, 2, FixedStart(np.zeros((1, 12))), restarts=1) is None
    assert len(calls) == 2 * 50


def test_hinge_search_returns_lowest_consistent_restart(monkeypatch):
    calls = count_solves(monkeypatch)
    S = SignMatrix.constant(3, 3, 1)
    start = [[r + 1.0] * 3 + [1.0] * 3 for r in range(3)]
    w = hinge_search_upper(S, 1, FixedStart(start), restarts=3)
    assert np.array_equal(w.left, np.ones((3, 1))) and calls == []


def test_hinge_search_retires_restart_that_fails_the_proof(monkeypatch):
    """Restart 0 starts with every float margin positive but below the
    rounding bound: it is not returned, and it is not refit."""
    calls = count_solves(monkeypatch)
    S = SignMatrix([[1]])
    start = [[1.0, 1.0, 1.0 + 2.0**-52, -1.0], [1.0, -1.0, 1.0, 2.0]]
    w = hinge_search_upper(S, 2, FixedStart(start), restarts=2)
    assert w is not None and verify_realization(w, S)
    assert calls[0][0] == 1


@pytest.mark.parametrize(
    "S, solves",
    [(projective_incidence(7, 2), 104), (hamming_ball(12, 2).matrix, 188)],
)
def test_hinge_search_retires_hopeless_restarts_early(monkeypatch, S, solves):
    """Rank-5 searches that find nothing stop once no restart's loss has
    fallen by a fifth over 50 alternations, long before 2 * 400 solves."""
    calls = count_solves(monkeypatch)
    w = hinge_search_upper(S, 5, np.random.default_rng(0), restarts=6, max_alternations=400)
    assert w is None
    assert len(calls) == solves


def test_hinge_search_keeps_restarts_near_a_realization(monkeypatch):
    """Rank 2 leaves signed_identity(4) (sign rank 3) a wrong sign or more
    short of a realization. Every restart here gets within 3 wrong signs and
    is kept however slowly its loss falls, so the search spends its whole
    budget on all 8."""
    calls = count_solves(monkeypatch)
    w = hinge_search_upper(
        signed_identity(4), 2, np.random.default_rng(0), restarts=8, max_alternations=600
    )
    assert w is None
    assert len(calls) == 2 * 600
    assert all(shape[0] == 8 for shape in calls)


@pytest.mark.parametrize(
    "S",
    [
        grid_hyperplane(6, 3),
        grid_hyperplane(5, 2),
        disjointness(5),
        heavy_dominant_free_random(16, 3, np.random.default_rng(0)),
    ],
)
def test_bracket_keeps_factorization_witnesses(S):
    """Retiring restarts that make no progress loses none of these rank-lo
    witnesses at rng seeds 0-3. The search runs on the rng the bracket hands
    it, after the row path: on the grids a column path may close the
    bracket first, so the bracket alone would not show a lost witness."""
    Sd = distinct_rows(S)
    for seed in range(4):
        lo, hi = signrank_bracket(S, np.random.default_rng(seed)).bracket
        assert lo == hi
        rng = np.random.default_rng(seed)
        low_stabbing_order(Sd, rng)
        witness = hinge_search_upper(Sd, lo, rng)
        assert witness is not None and verify_realization(witness, Sd)


@pytest.mark.parametrize("draw, seed", [(2, 15), (5, 17), (6, 10)])
def test_bracket_keeps_late_factorization_witnesses(draw, seed):
    """These rank-4 witnesses appear after 200 or more alternations, on a
    long plateau of the hinge loss at one to five wrong signs; a rule on the
    loss alone retires them."""
    S = heavy_dominant_free_random(16, 3, np.random.default_rng(draw))
    report = signrank_bracket(S, np.random.default_rng(seed))
    assert report.bracket == (4, 4)
    assert ("factorization", 4) in report.upper_bounds


def test_hinge_search_rejects_negative_budget():
    S = signed_identity(4)
    with pytest.raises(ValueError):
        hinge_search_upper(S, 2, np.random.default_rng(0), max_alternations=-1)
    # The bracket rejects it even when no search would run.
    with pytest.raises(ValueError):
        signrank_bracket(SignMatrix.constant(2, 2, 1), hinge_alternations=-1)


@pytest.mark.parametrize(
    "S, path, trivial, cols",
    [
        pytest.param(interval_class(3).matrix, 15, 13, 9, id="S0-15-13"),
        pytest.param(hamming_ball(8, 2).matrix, 11, 8, 5, id="S1-11-8"),
        pytest.param(hamming_ball(10, 2).matrix, 13, 10, 5, id="S2-13-10"),
        pytest.param(hamming_ball(12, 2).matrix, 15, 12, 5, id="S3-15-12"),
    ],
)
def test_bracket_trivial_ceiling(S, path, trivial, cols):
    """Sign rank is at most min(rows, cols) of the distinct rows, below the
    Welzl path's bound on these tall matrices; an order of their few columns
    is at most that ceiling, does better still, and closes the Hamming balls
    at the dual."""
    Sd = distinct_rows(S)
    assert min(Sd.n_rows, distinct_rows(SignMatrix(Sd.entries.T)).n_rows) == trivial
    report = signrank_bracket(S, np.random.default_rng(0))
    assert ("path_welzl", path) in report.upper_bounds
    assert ("path_cols_welzl", cols) in report.upper_bounds
    assert cols < trivial < path
    assert report.bracket == (5, cols)


def test_column_path_closes_hamming_ball_without_search(monkeypatch):
    """The column order closes hamming_ball(8, 2) at the dual's 5, so no
    factorization is searched."""
    calls = []
    monkeypatch.setattr(embed, "hinge_search_upper", lambda *a, **k: calls.append(a))
    report = signrank_bracket(hamming_ball(8, 2).matrix, np.random.default_rng(0))
    assert report.bracket == (5, 5)
    assert ("path_cols_welzl", 5) in report.upper_bounds
    assert calls == []


@pytest.mark.parametrize("S", [projective_incidence(3), disjointness(4), signed_identity(8)])
def test_symmetric_matrix_computes_no_column_order(monkeypatch, S):
    """When the distinct columns are the distinct rows as a set, the column
    order would repeat the row path, so only the row order is computed."""
    from signrank import embed

    orders = []
    original = embed.low_stabbing_order

    def counting(M, rng):
        orders.append(M.shape)
        return original(M, rng)

    monkeypatch.setattr(embed, "low_stabbing_order", counting)
    report = signrank_bracket(S, np.random.default_rng(0))
    assert orders == [S.shape]
    assert not any(m.startswith("path_cols") for m, _ in report.upper_bounds)


def test_spawn_leaves_the_parent_stream():
    """The column order draws from a spawned child, so the row path and the
    hinge search draw what they drew before it existed."""
    rng, fresh = np.random.default_rng(5), np.random.default_rng(5)
    rng.spawn(1)
    assert rng.standard_normal(4).tolist() == fresh.standard_normal(4).tolist()


@pytest.mark.parametrize(
    "S",
    [
        interval_class(3).matrix,
        grid_hyperplane(6, 3),
        hamming_ball(8, 2).matrix,
        line_subset_random(3, np.random.default_rng(1)),
    ],
)
@pytest.mark.parametrize("seed", [0, 3])
def test_column_path_value_is_counted_on_the_transpose(S, seed):
    """The reported column bound is one plus the sign changes, counted
    afresh, of the column order in every row of the distinct rows."""
    Sd = distinct_rows(S)
    Std = distinct_rows(SignMatrix(Sd.entries.T))
    report = signrank_bracket(S, np.random.default_rng(seed))
    (value,) = [v for m, v in report.upper_bounds if m.startswith("path_cols_")]
    ordering, _, _ = low_stabbing_order(Std, np.random.default_rng(seed).spawn(1)[0])
    assert value == count_sign_changes(Std, ordering.permutation).max_sign_changes + 1
    assert report.bracket[0] <= value


def test_trivial_reads_distinct_columns():
    """Sign rank is at most the rank, so at most the number of distinct
    columns as well as of distinct rows: the column path, over the distinct
    columns, never exceeds it."""
    H = hamming_ball(4, 2).matrix.entries
    report = signrank_bracket(SignMatrix(np.hstack((H, H))), np.random.default_rng(0))
    (value,) = [v for m, v in report.upper_bounds if m.startswith("path_cols_")]
    assert value <= 4 and report.bracket[1] <= 4


def classical_bound_instances():
    """Random matrices (duplicate rows and columns allowed), random VC-1
    matrices, circulants of every degree and signed identities."""
    rng = np.random.default_rng(29)
    for _ in range(30):
        yield random_sign_matrix(rng, int(rng.integers(1, 9)), int(rng.integers(1, 9)))
    for _ in range(10):
        yield random_vc1_matrix(rng)
    for n in (5, 8, 12):
        for ones in range(n + 1):
            base = np.full(n, -1, dtype=np.int8)
            base[rng.choice(n, size=ones, replace=False)] = 1
            yield SignMatrix([np.roll(base, k) for k in range(n)])
    for n in (4, 8, 16):
        yield signed_identity(n)


@pytest.mark.parametrize("seed", [0, 3])
def test_paths_meet_the_classical_upper_bounds(seed):
    """With no factorization search, the paths alone keep hi within
    min(distinct rows, distinct columns) (sign rank is at most rank), within
    2 * degree + 1 on regular matrices, and within three when the row path
    is the VC-1 sort (the planar embedding)."""
    seen = set()
    for S in classical_bound_instances():
        report = signrank_bracket(S, np.random.default_rng(seed), hinge_alternations=0)
        hi = report.bracket[1]
        Sd = distinct_rows(S)
        assert hi <= min(Sd.n_rows, distinct_rows(SignMatrix(Sd.entries.T)).n_rows)
        degree = regularity(to_boolean(S)).degree
        if degree is not None:
            assert hi <= 2 * degree + 1
            seen.add("regular")
        if report.upper_bounds[0][0] == "path_vc1":
            assert hi <= 3
            seen.add("vc1")
    assert seen == {"regular", "vc1"}


def test_bracket_signed_identity():
    report = signrank_bracket(signed_identity(4), np.random.default_rng(0))
    assert report.bracket == (3, 3)
    assert report.vc == 1
    assert report.dual == 3
    methods = {m for m, _ in report.lower_bounds}
    assert "dual_sign_rank" in methods and "forster" in methods


def test_bracket_all_plus():
    report = signrank_bracket(SignMatrix.constant(4, 4, 1), np.random.default_rng(0))
    assert report.bracket == (1, 1)


def test_bracket_disjointness():
    report = signrank_bracket(disjointness(2), np.random.default_rng(0))
    assert report.bracket == (3, 3)


def test_bracket_hamming_ball():
    report = signrank_bracket(hamming_ball(5, 1).matrix, np.random.default_rng(0))
    assert report.bracket == (3, 3)
    assert report.dual == 3  # equals 2*vc + 1 here


def test_bracket_projective():
    report = signrank_bracket(projective_incidence(3, 2), np.random.default_rng(0))
    lo, hi = report.bracket
    assert lo >= 3  # the spectral certificate alone gives ceil(4/sqrt(3)) = 3
    assert hi <= 9
    assert lo <= hi
    values = dict((m, v) for m, v in report.lower_bounds)
    assert values["spectral"] == pytest.approx(4 / math.sqrt(3), abs=1e-4)
    # the regular plane's 2 * 4 + 1: every column has four +1 entries
    assert ("path_welzl", 9) in report.upper_bounds


def test_bracket_random_instances_sane():
    rng = np.random.default_rng(33)
    for _ in range(15):
        S = random_distinct_matrix(rng, max_rows=7, max_cols=7)
        report = signrank_bracket(S, rng, hinge_alternations=150)
        lo, hi = report.bracket
        assert 1 <= lo <= hi
        assert approx_sign_rank(S, np.random.default_rng(1)) >= lo


def test_approx_sign_rank_examples():
    eye = signed_identity(4)
    assert approx_sign_rank(eye) == 3
    # every order forces two sign changes somewhere, so 3 is also optimal
    assert sc_star_bruteforce(eye) == 2

    assert approx_sign_rank(SignMatrix.constant(5, 3, 1)) == 1

    P = projective_incidence(3, 2)
    v = approx_sign_rank(P, np.random.default_rng(3))
    report = signrank_bracket(P, np.random.default_rng(3))
    assert report.bracket[0] <= v <= 200 * 13**0.5 + 1


def test_approx_upper_bound_property():
    # one plus the achieved sign changes can never undercut the true optimum
    rng = np.random.default_rng(41)
    for _ in range(20):
        S = random_distinct_matrix(rng, max_rows=7, max_cols=6)
        v = approx_sign_rank(S, rng)
        assert v >= sc_star_bruteforce(S) + 1 - S.n_rows  # loose sanity
        assert v >= 1


def test_approx_respects_vc1_cap():
    rng = np.random.default_rng(43)
    for _ in range(20):
        S = random_vc1_matrix(rng)
        assert approx_sign_rank(S) <= 3


def test_bracket_computes_vc_once(monkeypatch):
    """The bracket computes the VC dimension once, the VC-1 path computes
    none, and the VC-1 path is sorted once."""
    from signrank import embed, stabbing, vc

    calls = []
    original = vc.vc_dimension

    def counting(S):
        calls.append(S.shape)
        return original(S)

    paths = []
    original_path = stabbing.vc1_path

    def counting_path(S):
        paths.append(S.shape)
        return original_path(S)

    for module in (embed, vc):
        monkeypatch.setattr(module, "vc_dimension", counting)
    for module in (embed, stabbing):
        monkeypatch.setattr(module, "vc1_path", counting_path)
    report = signrank_bracket(signed_identity(32), np.random.default_rng(0))
    assert report.vc == 1
    assert ("path_vc1", 3) in report.upper_bounds
    assert len(calls) == 1
    assert len(paths) == 1


# Searches as `signrank_bracket` runs them, each pinned by the sha256 of its
# witness's left and right factor bytes (None when it finds none) and its
# number of `np.linalg.solve` calls, two per alternation. Recorded with
# numpy 2.4 on OpenBLAS 0.3.31 (x86-64); a numpy or BLAS build that rounds
# differently may need them recorded again.
GOLDEN_SEARCHES = [
    # early witnesses
    (lambda: disjointness(4), 0, 5,
     "dce16d3ac25f72f527320a6aee6b46a05dd83d6ac5182d807a032974a2453a07", 6),
    (lambda: grid_hyperplane(4, 2), 0, 3,
     "755fc7f80db9c33d89ab745a66cc5200589bbbe493ebd44e93e9fec62780419e", 10),
    # late witnesses, after a long plateau a few wrong signs short
    (lambda: heavy_dominant_free_random(16, 3, np.random.default_rng(2)), 15, 4,
     "0578a01f9e1fe6ed8a0be285f22d791c2c2f64cafa1272316cffff2a6559cd31", 506),
    (lambda: heavy_dominant_free_random(16, 3, np.random.default_rng(5)), 0, 4,
     "cef24b16b52ef8c826801cdbca588ec9cf7d6ad38231ad87c5d6ce726746957c", 258),
    # every restart retires
    (lambda: projective_incidence(2), 0, 3, None, 164),
    # ... on a tall matrix (92x13)
    (lambda: interval_class(3).matrix, 0, 5, None, 192),
    # the whole budget of 400 alternations
    (lambda: heavy_dominant_free_random(16, 3, np.random.default_rng(6)), 0, 4, None, 800),
]


@pytest.mark.parametrize("build, seed, rank, digest, solves", GOLDEN_SEARCHES)
def test_hinge_search_trajectories_are_pinned(monkeypatch, build, seed, rank, digest, solves):
    """Bookkeeping changes to the alternation must leave every witness bit
    for bit and every solve in place. A change to its arithmetic may record
    the digests again, but must keep every solve count: the restarts still
    retire and succeed at the same alternations. The search draws from the
    rng the bracket hands it, after the row path."""
    calls = count_solves(monkeypatch)
    Sd = distinct_rows(build())
    rng = np.random.default_rng(seed)
    low_stabbing_order(Sd, rng)
    witness = hinge_search_upper(Sd, rank, rng)
    found = None
    if witness is not None:
        found = hashlib.sha256(witness.left.tobytes() + witness.right.tobytes()).hexdigest()
    assert (found, len(calls)) == (digest, solves)


@pytest.mark.parametrize(
    "S, k, alternations",
    [
        (interval_class(3).matrix, 5, 400),  # tall, 92x13
        (SignMatrix(interval_class(3).matrix.entries.T), 5, 400),  # wide
        (signed_identity(4), 1, 20),
    ],
)
def test_hinge_search_solves_only_k_by_k_systems(monkeypatch, S, k, alternations):
    """Each refit inverts its k x k Gram matrix: every solve has a k x k
    left-hand side and exactly k right-hand sides, never one per matrix
    row or column."""
    calls = count_solves(monkeypatch)
    counted, rhs = np.linalg.solve, []
    monkeypatch.setattr(np.linalg, "solve", lambda a, b: rhs.append(b.shape) or counted(a, b))
    hinge_search_upper(S, k, np.random.default_rng(0), max_alternations=alternations)
    assert calls and len(rhs) == len(calls)
    assert all(a[-2:] == (k, k) for a in calls)
    assert all(b[-2:] == (k, k) for b in rhs)


def lstsq_refit(X, A, R):
    """Reference refit: each restart's least-squares solution Y of
    Y A^T ~ X A^T + R, by `np.linalg.lstsq`."""
    return np.stack([
        np.linalg.lstsq(a, (x @ a.T + r).T, rcond=None)[0].T for x, a, r in zip(X, A, R)
    ])


def test_refit_matches_per_restart_lstsq():
    """On full-rank stacks, tall and wide, the residual-form refit is the
    least-squares refit to a relative error of 1e-10."""
    rng = np.random.default_rng(47)
    for k in range(1, 7):
        for n, m in ((40, k + 3), (k + 3, 40), (30, 30)):
            restarts = int(rng.integers(1, 7))
            X = rng.standard_normal((restarts, n, k))
            A = rng.standard_normal((restarts, m, k))
            R = rng.standard_normal((restarts, n, m))
            expected = lstsq_refit(X, A, R)
            got = embed._refit(X, A, R)
            assert np.linalg.norm(got - expected) <= 1e-10 * np.linalg.norm(expected)


def test_refit_singular_gram_takes_the_pseudoinverse(monkeypatch):
    """A zero column makes a Gram matrix singular: the whole stack is refit
    through the pseudoinverse, and its fitted values are still the least-
    squares ones."""
    pinvs = []
    pinv = np.linalg.pinv
    monkeypatch.setattr(np.linalg, "pinv", lambda a: pinvs.append(a.shape) or pinv(a))
    rng = np.random.default_rng(53)
    X = rng.standard_normal((3, 9, 4))
    A = rng.standard_normal((3, 7, 4))
    A[1, :, 2] = 0.0
    R = rng.standard_normal((3, 9, 7))
    got = embed._refit(X, A, R)
    assert pinvs == [(3, 7, 4)]
    fitted = got @ A.transpose(0, 2, 1)
    expected = lstsq_refit(X, A, R) @ A.transpose(0, 2, 1)
    assert np.linalg.norm(fitted - expected) <= 1e-10 * np.linalg.norm(expected)
