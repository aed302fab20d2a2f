import math
from fractions import Fraction

import numpy as np
import pytest

from signrank import (
    BooleanMatrix,
    CertificationError,
    SignMatrix,
    signrank_bracket,
    spectral,
    WitnessMatrix,
    disjointness,
    forster_bound,
    identity_witness,
    integer_certificate,
    lower_certificates,
    projective_incidence,
    regular_upper_bound,
    regular_witness,
    sigma2_trace_floor,
    signed_identity,
    spectral_signrank_lower,
    star_norm_floor,
    to_boolean,
    to_signed,
    top_singular_values,
)
from testutil import random_sign_matrix


def random_regular_boolean(rng, n, degree):
    """Circulant with `degree` ones per row and column."""
    offsets = rng.choice(n, size=degree, replace=False)
    data = np.zeros((n, n), dtype=np.int8)
    for i in range(n):
        for off in offsets:
            data[i, (i + off) % n] = 1
    return BooleanMatrix(data)


def test_power_iteration_against_lapack():
    rng = np.random.default_rng(0)
    for _ in range(30):
        shape = (int(rng.integers(1, 9)), int(rng.integers(1, 9)))
        M = rng.standard_normal(shape)
        summary = top_singular_values(M)
        ref = np.linalg.svd(M, compute_uv=False)
        assert summary.sigma1 == pytest.approx(ref[0], rel=1e-6, abs=1e-8)
        sigma2_ref = ref[1] if len(ref) > 1 else 0.0
        assert summary.sigma2 == pytest.approx(sigma2_ref, rel=1e-5, abs=1e-6)
        assert summary.sigma1 >= summary.sigma2 >= 0.0


def test_top_singular_values_examples():
    B = to_boolean(projective_incidence(3, 2))
    summary = top_singular_values(B.entries.astype(float))
    assert summary.sigma1 == pytest.approx(4.0, abs=1e-6)
    assert summary.sigma2 == pytest.approx(math.sqrt(3), abs=1e-6)

    eye = top_singular_values(np.eye(4))
    assert eye.sigma1 == pytest.approx(1.0, abs=1e-9)
    assert eye.sigma2 == pytest.approx(1.0, abs=1e-9)

    ones = top_singular_values(np.ones((2, 2)))
    assert ones.sigma1 == pytest.approx(2.0, abs=1e-9)
    assert ones.sigma2 == pytest.approx(0.0, abs=1e-9)


def test_top_singular_values_rejects_bad_input():
    with pytest.raises(ValueError):
        top_singular_values(np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        top_singular_values(np.array([[np.nan, 1.0], [0.0, 1.0]]))


def test_identity_witness_feasible():
    for S in (signed_identity(4), disjointness(2), SignMatrix.constant(3, 3, 1)):
        W = identity_witness(S)  # construction succeeds, so W * S >= 1
        assert W.provenance == "identity-witness"


def test_regular_witness_projective():
    P = projective_incidence(3, 2)
    W = regular_witness(P)  # construction succeeds, so W * P >= 1
    assert W.spectral_norm == pytest.approx(13 / 4 * math.sqrt(3), abs=1e-6)
    assert W.spectral_norm == pytest.approx(5.6292, abs=1e-4)
    # deflated norm agrees with the dense computation
    dense = top_singular_values(W.matrix).sigma1
    assert W.spectral_norm == pytest.approx(dense, rel=1e-6)


def test_regular_witness_signed_identity():
    eye = signed_identity(4)
    W = regular_witness(eye)  # degree 1 <= 2; construction succeeds, so W * eye >= 1
    assert np.allclose(np.diag(W.matrix), 3.0)
    off = W.matrix[~np.eye(4, dtype=bool)]
    assert np.allclose(off, -1.0)


def test_regular_witness_preconditions():
    with pytest.raises(ValueError):
        regular_witness(SignMatrix([[1, 1], [1, -1]]))  # not regular
    with pytest.raises(ValueError):
        regular_witness(SignMatrix.constant(4, 4, 1))  # degree N > N/2
    with pytest.raises(ValueError):
        regular_witness(SignMatrix.constant(4, 4, -1))  # degree 0


def test_forster_bound_examples():
    eye = signed_identity(4)
    assert forster_bound(identity_witness(eye)) == pytest.approx(2.0, abs=1e-6)

    P = projective_incidence(3, 2)
    bound = forster_bound(regular_witness(P))
    assert bound == pytest.approx(4 / math.sqrt(3), abs=1e-6)
    assert bound == pytest.approx(2.3094, abs=1e-4)

    plus = SignMatrix.constant(5, 5, 1)
    assert forster_bound(identity_witness(plus)) == pytest.approx(1.0, abs=1e-9)


def test_forster_bound_rejects_infeasible_and_rectangular():
    eye = signed_identity(4)
    with pytest.raises(ValueError):
        WitnessMatrix(eye, np.ones((4, 4)), "custom")
    rect = SignMatrix.constant(2, 3, 1)
    with pytest.raises(ValueError):
        forster_bound(WitnessMatrix(rect, np.ones((2, 3)), "custom"))


def test_witness_feasibility_is_checked_before_the_norm(monkeypatch):
    """An infeasible or mis-shaped matrix is refused with ValueError when
    the witness is built, before the norm verifier runs."""
    calls = []
    certified_norm = spectral._certified_norm
    monkeypatch.setattr(spectral, "_certified_norm", lambda W: calls.append(W) or certified_norm(W))
    eye = signed_identity(4)
    with pytest.raises(ValueError, match="not feasible"):
        WitnessMatrix(eye, np.ones((4, 4)), "custom")
    with pytest.raises(ValueError, match="not feasible"):
        WitnessMatrix(eye, 0.5 * eye.entries, "custom")  # right signs, too small
    with pytest.raises(ValueError, match="shape"):
        WitnessMatrix(eye, np.ones((4, 3)), "custom")
    with pytest.raises(ValueError, match="shape"):
        WitnessMatrix(eye, eye.entries.T[:3], "custom")
    assert calls == []
    WitnessMatrix(eye, 2.0 * eye.entries, "custom")
    assert len(calls) == 1


def test_forster_bound_reads_only_its_witness():
    """forster_bound(W) is N / ||W|| for the N x N matrix W was built for;
    a witness of a rectangular matrix gives no bound."""
    W = WitnessMatrix(SignMatrix.constant(2, 3, 1), np.ones((2, 3)), "custom")
    with pytest.raises(ValueError, match="square"):
        forster_bound(W)
    P = projective_incidence(3, 2)
    W = regular_witness(P)
    assert forster_bound(W) == 13 / W.spectral_norm


def test_integer_certificate_keeps_integral_bounds():
    # A certified bound of exactly 4 certifies 4, and the next float above
    # it certifies 5: N/t > 4 holds whenever fl(N/t) > 4.
    assert integer_certificate(4.0) == 4
    assert integer_certificate(np.nextafter(4.0, 5.0)) == 5


def test_spectral_signrank_lower():
    P = projective_incidence(3, 2)
    lower = spectral_signrank_lower(P)
    assert lower == pytest.approx(4 / math.sqrt(3), abs=1e-6)
    assert integer_certificate(lower) == 3
    assert abs(lower - forster_bound(regular_witness(P))) <= 1e-6

    P5 = projective_incidence(5, 2)
    assert spectral_signrank_lower(P5) == pytest.approx(6 / math.sqrt(5), abs=1e-6)

    with pytest.raises(ValueError):
        spectral_signrank_lower(SignMatrix.constant(4, 4, 1))  # degree > N/2
    with pytest.raises(ValueError):
        spectral_signrank_lower(SignMatrix([[1, 1], [1, -1]]))


def test_star_norm_floor():
    for n in (2, 4, 7):
        assert star_norm_floor(SignMatrix.constant(n, n, 1)) == pytest.approx(float(n))
    assert star_norm_floor(signed_identity(4)) == pytest.approx(1.5)
    assert star_norm_floor(projective_incidence(3, 2)) == pytest.approx(3.0)
    with pytest.raises(ValueError):
        star_norm_floor(SignMatrix.constant(2, 3, 1))


def test_witness_norms_respect_star_floor():
    instances = [
        signed_identity(4),
        SignMatrix.constant(4, 4, 1),
        disjointness(2),
        projective_incidence(2, 2),
        projective_incidence(3, 2),
        projective_incidence(5, 2),
    ]
    for S in instances:
        floor = star_norm_floor(S)
        assert identity_witness(S).spectral_norm >= floor - 1e-6
        try:
            W = regular_witness(S)
        except ValueError:
            continue
        assert W.spectral_norm >= floor - 1e-6


def test_sigma2_trace_floor():
    B = to_boolean(projective_incidence(3, 2))
    floor = sigma2_trace_floor(B)
    assert floor == pytest.approx(math.sqrt(3), abs=1e-12)
    assert top_singular_values(B.entries.astype(float)).sigma2 >= floor - 1e-6

    eye = BooleanMatrix(np.eye(4, dtype=int))
    assert sigma2_trace_floor(eye) == pytest.approx(1.0)
    assert top_singular_values(np.eye(4)).sigma2 == pytest.approx(1.0, abs=1e-9)

    ones = BooleanMatrix.ones(5, 5)
    assert sigma2_trace_floor(ones) == pytest.approx(0.0)
    assert top_singular_values(np.ones((5, 5))).sigma2 == pytest.approx(0.0, abs=1e-9)

    with pytest.raises(ValueError):
        sigma2_trace_floor(BooleanMatrix([[1, 1], [1, 0]]))


def test_sigma2_trace_floor_one_point():
    assert sigma2_trace_floor(BooleanMatrix([[1]])) == 0.0


def test_witness_feasible_refuses_a_shape_mismatch():
    S = signed_identity(3)
    with pytest.raises(ValueError):
        WitnessMatrix(signed_identity(4), identity_witness(S).matrix, "custom")
    with pytest.raises(ValueError):
        WitnessMatrix(SignMatrix.constant(3, 4, 1), identity_witness(S).matrix, "custom")


def test_sigma2_trace_floor_random_regular():
    rng = np.random.default_rng(6)
    for _ in range(10):
        n = int(rng.integers(4, 10))
        degree = int(rng.integers(1, n))
        B = random_regular_boolean(rng, n, degree)
        floor = sigma2_trace_floor(B)
        sigma2 = top_singular_values(B.entries.astype(float)).sigma2
        assert sigma2 >= floor - 1e-6


def test_regular_upper_bound():
    assert regular_upper_bound(projective_incidence(3, 2)) == 9
    assert regular_upper_bound(signed_identity(4)) == 3
    with pytest.raises(ValueError):
        regular_upper_bound(SignMatrix([[1, 1], [1, -1]]))


def test_certificates_sound_on_known_sign_ranks():
    # (matrix, exact sign rank)
    known = [
        (signed_identity(4), 3),
        (SignMatrix.constant(4, 4, 1), 1),
        (disjointness(2), 3),
    ]
    for S, rank in known:
        assert forster_bound(identity_witness(S)) <= rank + 1e-9
        try:
            assert forster_bound(regular_witness(S)) <= rank + 1e-9
            assert regular_upper_bound(S) >= rank
        except ValueError:
            pass


def exact_psd(A: list[list[Fraction]]) -> bool:
    """Exact symmetric LDL^T elimination: A is positive semidefinite iff no
    pivot is negative and every zero pivot has a zero row beyond it."""
    A = [row[:] for row in A]
    n = len(A)
    for k in range(n):
        pivot = A[k][k]
        if pivot < 0:
            return False
        if pivot == 0:
            if any(A[k][j] != 0 for j in range(k + 1, n)):
                return False
            continue
        for i in range(k + 1, n):
            factor = A[i][k] / pivot
            for j in range(k + 1, n):
                A[i][j] -= factor * A[k][j]
    return True


def certifies(t: float, W: np.ndarray) -> bool:
    """Exactly: is t^2 I - W^T W positive semidefinite, i.e. ||W|| <= t?"""
    F = [[Fraction(float(x)) for x in row] for row in W]
    n = len(F[0])
    t2 = Fraction(t) ** 2
    return exact_psd(
        [
            [(t2 if i == j else 0) - sum(r[i] * r[j] for r in F) for j in range(n)]
            for i in range(n)
        ]
    )


def test_exact_psd_reference():
    assert exact_psd([[Fraction(2), Fraction(1)], [Fraction(1), Fraction(2)]])
    assert exact_psd([[Fraction(1), Fraction(1)], [Fraction(1), Fraction(1)]])
    assert not exact_psd([[Fraction(1), Fraction(2)], [Fraction(2), Fraction(1)]])
    assert not exact_psd([[Fraction(0), Fraction(1)], [Fraction(1), Fraction(5)]])
    assert certifies(2.0, np.eye(2) * 2.0)
    assert not certifies(math.nextafter(2.0, 0.0), np.eye(2) * 2.0)


def certified_witnesses():
    rng = np.random.default_rng(11)
    for _ in range(12):
        n = int(rng.integers(1, 13))
        yield identity_witness(random_sign_matrix(rng, n, n))
    for _ in range(8):
        n = int(rng.integers(2, 13))
        S = to_signed(random_regular_boolean(rng, n, int(rng.integers(1, n // 2 + 1))))
        yield identity_witness(S)
        yield regular_witness(S)
    for p in (2, 3):
        P = projective_incidence(p, 2)
        yield identity_witness(P)
        yield regular_witness(P)


def test_certified_norms_are_upper_bounds():
    for W in certified_witnesses():
        assert certifies(W.spectral_norm, W.matrix), W.provenance
        sigma1 = np.linalg.svd(W.matrix, compute_uv=False)[0]
        assert sigma1 <= W.spectral_norm <= sigma1 * (1 + 1e-12)


def test_low_candidates_never_certified(monkeypatch):
    """However far the LAPACK estimate errs low, a returned t is an upper
    bound: the verifier refuses t < sigma1 rather than passing it on."""
    rng = np.random.default_rng(12)
    matrices = [random_sign_matrix(rng, n, n).entries.astype(float) for n in (3, 7, 12)]
    matrices.append(regular_witness(projective_incidence(3, 2)).matrix)
    svd = np.linalg.svd
    for factor in (0.5, 1 - 1e-6, 1 - 1e-12, 1 - 1e-14):
        monkeypatch.setattr(
            np.linalg, "svd", lambda A, compute_uv=True: factor * svd(A, compute_uv=compute_uv)
        )
        for W in matrices:
            t = spectral._certified_norm(W)
            assert t is None or certifies(t, W)
            if factor <= 1 - 1e-6:
                assert t is None


def test_certified_norm_rank_deficient_and_rectangular():
    for W in (np.ones((1, 1)), np.ones((5, 5)), np.ones((3, 7)), np.zeros((2, 2)) + 1e-3):
        t = spectral._certified_norm(W)
        assert t is not None and certifies(t, W)
    assert spectral._certified_norm(np.array([[np.inf, 1.0]])) is None


def test_forster_bound_below_exact_on_random_100():
    """N / ||W|| must not exceed N / sigma1; the power iteration's low norm
    estimate put this bound 2.9e-9 above it."""
    rng = np.random.default_rng(1)
    S = SignMatrix(np.where(rng.random((100, 100)) < 0.5, 1, -1))
    sigma1 = np.linalg.svd(S.entries.astype(float), compute_uv=False)[0]
    assert forster_bound(identity_witness(S)) <= 100 / sigma1 * (1 + 1e-12)


def test_witness_norm_is_proven_not_given():
    """A witness carries only the norm the verifier proved: a caller cannot
    hand one in (a norm of 0.5 for signed_identity(8) once gave a bound of
    16, above its sign rank of 3)."""
    S = signed_identity(8)
    with pytest.raises(TypeError):
        WitnessMatrix(S, S.entries.astype(float), "custom", 0.5)
    W = WitnessMatrix(S, S.entries.astype(float), "custom")
    assert certifies(W.spectral_norm, W.matrix)
    sigma1 = np.linalg.svd(W.matrix, compute_uv=False)[0]
    assert forster_bound(W) <= 8 / sigma1 * (1 + 1e-12)


def test_uncertified_bounds_are_skipped(monkeypatch):
    monkeypatch.setattr(spectral, "_certified_norm", lambda W: None)
    P = projective_incidence(3, 2)
    with pytest.raises(CertificationError):
        identity_witness(P)
    with pytest.raises(CertificationError):
        forster_bound(WitnessMatrix(P, P.entries.astype(float), "custom"))
    _, _, lower, skipped = lower_certificates(P)
    assert lower == [("dual_sign_rank", 4.0)]  # no witness bound
    assert [m for m, _ in skipped] == ["forster", "spectral"]
    report = signrank_bracket(P, np.random.default_rng(0))
    assert [m for m, _ in report.lower_bounds] == ["dual_sign_rank"]
    assert [m for m, _ in report.skipped] == ["forster", "spectral"]
    # an uncertified bound must not be mistaken for an input error
    assert not issubclass(CertificationError, ValueError)


def test_witness_bounds_match_direct_calls():
    P = projective_incidence(3, 2)
    _, _, lower, skipped = lower_certificates(P)
    assert skipped == []
    assert lower[1:] == [
        ("forster", forster_bound(identity_witness(P))),
        ("spectral", spectral_signrank_lower(P)),
    ]
    _, _, lower, _ = lower_certificates(disjointness(3))  # not regular
    assert [m for m, _ in lower] == ["dual_sign_rank", "forster"]
