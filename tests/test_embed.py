import math
from fractions import Fraction

import numpy as np
import pytest

from signrank import (
    FactorizationWitness,
    SignMatrix,
    disjointness,
    embed_vc1,
    approx_sign_rank,
    grid_hyperplane,
    hamming_ball,
    hinge_search_upper,
    projective_incidence,
    sc_star_bruteforce,
    signed_identity,
    signrank_bracket,
    verify_realization,
)
from testutil import random_distinct_matrix, random_vc1_matrix


def test_embed_signed_identity():
    S = signed_identity(4)
    R = embed_vc1(S)
    assert verify_realization(R, S)
    norms = np.linalg.norm(R.points, axis=1)
    assert np.allclose(norms, 1.0, atol=1e-9)
    margin = float((S.entries * R.values()).min())
    assert margin >= 1e-12


def test_embed_two_rows_one_column():
    S = SignMatrix([[1], [-1]])
    assert verify_realization(embed_vc1(S), S)


def test_embed_rejects_vc2_and_duplicates():
    with pytest.raises(ValueError):
        embed_vc1(disjointness(2))
    with pytest.raises(ValueError):
        embed_vc1(SignMatrix([[1, 1], [1, 1]]))


def test_embed_random_vc1_instances():
    rng = np.random.default_rng(21)
    for _ in range(60):
        S = random_vc1_matrix(rng)
        R = embed_vc1(S)
        assert verify_realization(R, S)


def test_verify_rejects_flipped_halfplane():
    S = signed_identity(4)
    R = embed_vc1(S)
    normals = R.normals.copy()
    normals[0] = -normals[0]
    broken = type(R)(R.points, normals, R.offsets)
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
    assert ("regular_degree", 9) in report.upper_bounds


def test_bracket_json_schema():
    report = signrank_bracket(signed_identity(4), np.random.default_rng(0), instance="id4")
    doc = report.to_json_dict()
    assert set(doc) == {
        "instance",
        "n_rows",
        "n_cols",
        "vc",
        "dual",
        "lower",
        "upper",
        "bracket",
        "welzl",
    }
    assert doc["bracket"] == [3, 3]
    assert all(set(e) == {"method", "value"} for e in doc["lower"] + doc["upper"])
    assert set(doc["welzl"]) == {"max_sc", "constant_observed"}


def test_bracket_random_instances_sane():
    rng = np.random.default_rng(33)
    for _ in range(15):
        S = random_distinct_matrix(rng, max_rows=7, max_cols=7)
        report = signrank_bracket(S, rng, hinge_restarts=3, hinge_alternations=150)
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
    """The VC-1 path and the planar embedding reuse the bracket's VC
    dimension instead of recomputing it."""
    from signrank import embed, stabbing, vc

    calls = []
    original = vc.vc_dimension

    def counting(S):
        calls.append(S.shape)
        return original(S)

    for module in (embed, stabbing, vc):
        monkeypatch.setattr(module, "vc_dimension", counting)
    report = signrank_bracket(signed_identity(32), np.random.default_rng(0))
    assert report.vc == 1
    assert ("planar_embedding", 3) in report.upper_bounds
    assert len(calls) == 1
