import math

import numpy as np
import pytest

from signrank import (
    FactorizationWitness,
    SignMatrix,
    disjointness,
    embed_vc1,
    approx_sign_rank,
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
