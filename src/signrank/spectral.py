"""Singular values and certified spectral sign-rank certificates.

Lower bounds on sign rank come from feasible witness matrices: any real W
with W_ij * S_ij >= 1 entrywise certifies sign-rank(S) >= N / ||W||. The
identity witness W = S is always feasible; for a regular matrix the witness
(N/degree) B - J is feasible, and since it kills the all-ones vector its
norm is (N/degree) sigma2(B), which is where a spectral gap pays off.

Such a bound is sound only if ||W|| is an upper bound, never an estimate
that may err low. Every witness norm therefore comes from one verifier,
`_certified_norm`, which runs when a `WitnessMatrix` has checked W * S >= 1
exactly: a LAPACK estimate of sigma1 is raised until a floating-point
Cholesky test (Rump, "Verification of positive definiteness", BIT 2006)
proves t^2 I - W^T W positive semidefinite. A witness whose norm cannot be
certified is never built: construction raises `CertificationError`, and
`embed.lower_certificates` reports such a bound as skipped instead.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass, field

import numpy as np

from .errors import CertificationError
from .matrix import BooleanMatrix, SignMatrix, regularity, to_boolean

# Unit roundoff of float64.
_U = 2.0**-53
# Verifier attempts; attempt k tries t^2 = sigma^2 (1 + 2^k n u).
_CERTIFY_ATTEMPTS = 12


@dataclass(frozen=True)
class SpectrumSummary:
    """Top two singular values (LAPACK estimates, not certified bounds)."""

    sigma1: float
    sigma2: float


@dataclass(frozen=True, eq=False)
class WitnessMatrix:
    """A real matrix W with W*S >= 1 entrywise for the sign matrix S it is
    built for (S is not kept). Both facts are proven when the witness is
    built: a shape mismatch or an entry with W*S < 1 raises ValueError, before
    the verifier runs, and `spectral_norm` is a certified upper bound on
    ||W||; a norm that cannot be certified raises `CertificationError`."""

    S: InitVar[SignMatrix]
    matrix: np.ndarray
    provenance: str
    spectral_norm: float = field(init=False)

    def __post_init__(self, S: SignMatrix) -> None:
        if self.matrix.shape != S.shape:
            raise ValueError("witness and sign matrix differ in shape")
        if not (self.matrix * S.entries >= 1.0).all():
            raise ValueError("witness is not feasible for this matrix")
        norm = _certified_norm(self.matrix)
        if norm is None:
            raise CertificationError(
                f"the norm of the {self.provenance.replace('-', ' ')} could not be "
                f"certified in {_CERTIFY_ATTEMPTS} Cholesky attempts"
            )
        object.__setattr__(self, "spectral_norm", norm)


def _gamma(k: int) -> float:
    return k * _U / (1.0 - k * _U)


def _certified_norm(W: np.ndarray) -> float | None:
    """A float t with ||W||_2 <= t proven, or None when every attempt fails.

    Attempt k sets T = s^2 (1 + 2^k n u), with s the LAPACK estimate of
    sigma1, raised to at least every diagonal entry of G = fl(W^T W) (n x n,
    W taken with m >= n rows), and factorizes A = fl(T I - G), which rounds
    only on the diagonal. A completed Cholesky factorization gives
    R^T R = A + dA with |dA| <= gamma_{n+1} |R^T| |R| (Higham, Accuracy and
    Stability of Numerical Algorithms, Thm 10.3, any inner-product order), so
    ||dA|| <= gamma_{n+1} / (1 - gamma_{n+1}) tr(A). Forming G errs by at
    most gamma_m ||W||_F^2 in norm and the diagonal of A by at most u T.
    Since A + dA is positive semidefinite, ||W||^2 <= T plus those three
    terms plus n 2^-1000 for underflow. The slack is doubled to cover the
    rounding in evaluating it, and the sum and its square root are rounded
    up.
    """
    A = np.asarray(W, dtype=float)
    if not np.isfinite(A).all():
        return None
    if A.shape[0] < A.shape[1]:
        A = A.T
    m, n = A.shape
    G = A.T @ A
    s = float(np.linalg.svd(A, compute_uv=False)[0])
    floor = float(G.diagonal().max())
    frobenius = float(np.square(A).sum())
    g = _gamma(n + 1)
    for k in range(_CERTIFY_ATTEMPTS):
        T = max(s * s * (1.0 + 2.0**k * n * _U), floor)
        shifted = T * np.eye(n) - G
        try:
            np.linalg.cholesky(shifted)
        except np.linalg.LinAlgError:
            continue
        slack = 2.0 * (
            g / (1.0 - g) * float(shifted.trace())
            + _gamma(m) * frobenius
            + _U * T
            + n * 2.0**-1000
        )
        return float(np.nextafter(math.sqrt(np.nextafter(T + slack, math.inf)), math.inf))
    return None


def top_singular_values(M) -> SpectrumSummary:
    """sigma1 and sigma2 (0 for a single row or column) of a real matrix,
    from LAPACK's SVD. These are estimates; witness norms are certified by
    the verifier instead."""
    A = np.asarray(M, dtype=float)
    if A.ndim != 2 or A.size == 0:
        raise ValueError("expected a non-empty 2-d matrix")
    if not np.isfinite(A).all():
        raise ValueError("matrix entries must be finite")
    s = np.linalg.svd(A, compute_uv=False)
    return SpectrumSummary(float(s[0]), float(s[1]) if len(s) > 1 else 0.0)


def identity_witness(S: SignMatrix) -> WitnessMatrix:
    """W = S itself; feasible since every entry has absolute value one."""
    return WitnessMatrix(S, S.entries.astype(float), "identity-witness")


def regular_witness(S: SignMatrix) -> WitnessMatrix:
    """W = (N/degree) B - J for a regular sign matrix with degree <= N/2.

    W kills the all-ones vector, so its norm is (N/degree) sigma2(B); the
    degree cap is exactly what makes W*S >= 1 hold on the ones of B.
    """
    return _regular_witness(S, regularity(to_boolean(S)).degree)


def _regular_witness(S: SignMatrix, degree: int | None) -> WitnessMatrix:
    """`regular_witness` of S, whose degree is known."""
    if degree is None:
        raise ValueError("matrix is not regular")
    n = S.n_rows
    if degree == 0:
        raise ValueError("degree 0 is degenerate; no ones to reweight")
    if 2 * degree > n:
        raise ValueError(f"degree {degree} exceeds half the order {n}")
    W = (n / degree) * to_boolean(S).entries.astype(float) - 1.0
    return WitnessMatrix(S, W, "regular-witness")


def forster_bound(W: WitnessMatrix) -> float:
    """N / ||W||: a lower bound on the sign rank of the N x N matrix W was
    built for, resting on the feasibility and norm proven then."""
    n, n_cols = W.matrix.shape
    if n != n_cols:
        raise ValueError("this bound needs a square matrix")
    return n / W.spectral_norm


def spectral_signrank_lower(S: SignMatrix) -> float:
    """degree / sigma2(B) for a regular sign matrix with degree <= N/2: the
    Forster bound of the regular witness."""
    return forster_bound(regular_witness(S))


def star_norm_floor(S: SignMatrix) -> float:
    """(N - gamma) / (sqrt(gamma) + 1) with gamma the largest, over rows, of
    the minority-entry count. Every feasible witness norm is at least this."""
    if S.n_rows != S.n_cols:
        raise ValueError("this floor is defined for square matrices")
    n = S.n_rows
    ones = (S.entries == 1).sum(axis=1)
    gamma = int(np.minimum(ones, n - ones).max())
    return (n - gamma) / (math.sqrt(gamma) + 1.0)


def sigma2_trace_floor(B: BooleanMatrix) -> float:
    """sqrt(degree (N - degree) / (N - 1)): trace-argument floor on sigma2 of
    a regular boolean matrix."""
    info = regularity(B)
    if info.degree is None:
        raise ValueError("matrix is not regular")
    n, degree = B.n_rows, info.degree
    if n == 1:
        return 0.0
    return math.sqrt(degree * (n - degree) / (n - 1))


def regular_upper_bound(S: SignMatrix) -> int:
    """2*degree + 1: sign-rank upper bound for regular sign matrices (each
    row has at most 2*degree sign changes, so a univariate polynomial of that
    degree separates it)."""
    info = regularity(to_boolean(S))
    if info.degree is None:
        raise ValueError("matrix is not regular")
    return 2 * info.degree + 1


def integer_certificate(bound: float) -> int:
    """Round a real lower bound up to the integer it certifies. A witness
    bound is one correctly rounded division N/t by a certified t, so
    fl(N/t) > k implies N/t > k: no float margin is needed, and one would
    only throw a certified unit away."""
    return math.ceil(bound)
