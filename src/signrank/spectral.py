"""Singular-value estimates and spectral sign-rank certificates.

Lower bounds on sign rank come from feasible witness matrices: any real W
with W_ij * S_ij >= 1 entrywise certifies sign-rank(S) >= N / ||W||. The
identity witness W = S is always feasible; for a regular matrix the witness
(N/degree) B - J is feasible and its norm is controlled by the second
singular value of B, which is where a spectral gap pays off.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from .matrix import BooleanMatrix, SignMatrix, regularity, to_boolean

DEFAULT_TOL = 1e-9
MAX_ITERATIONS = 10_000


@dataclass(frozen=True)
class SpectrumSummary:
    """Top two singular values with the convergence evidence for both:
    `iterations` is summed over every power run, `longest_run` is the most
    any single run used (a run that reaches its cap has not converged)."""

    sigma1: float
    sigma2: float
    residual: float
    iterations: int
    longest_run: int


@dataclass(frozen=True, eq=False)
class WitnessMatrix:
    """A real matrix W paired with a sign matrix, satisfying W*S >= 1
    entrywise; ||W|| upper-bounds the smallest feasible spectral norm."""

    matrix: np.ndarray
    provenance: str
    spectral_norm: float


def _power_single(
    apply: Callable[[np.ndarray], np.ndarray],
    start: np.ndarray,
    tol: float,
    max_iterations: int,
) -> tuple[float, np.ndarray, float, int] | None:
    """Power iteration from one start vector on a PSD operator.

    Returns (eigenvalue estimate, vector, relative residual, iterations), or
    None when the start lies in the exact kernel (or is zero). The estimate
    ||apply(v)|| of a unit vector never exceeds the true top eigenvalue, so
    estimates from different starts can be combined by taking the maximum.
    """
    nrm = float(np.linalg.norm(start))
    if nrm < 1e-300:
        return None
    v = start / nrm
    lam: float | None = None
    used = 0
    while used < max_iterations:
        used += 1
        w = apply(v)
        nw = float(np.linalg.norm(w))
        if nw == 0.0:
            return None
        v_new = w / nw
        if lam is not None and abs(nw - lam) <= tol * max(nw, 1e-30):
            res = float(np.linalg.norm(apply(v_new) - nw * v_new)) / max(nw, 1e-30)
            return nw, v_new, res, used
        lam, v = nw, v_new
    res = float(np.linalg.norm(apply(v) - (lam or 0.0) * v)) / max(lam or 1.0, 1e-30)
    return lam or 0.0, v, res, used


def _power_best(
    apply: Callable[[np.ndarray], np.ndarray],
    starts: Iterable[np.ndarray],
    tol: float,
    max_iterations: int,
) -> tuple[float, np.ndarray | None, float, int, int]:
    """Run the power iteration from every start and keep the largest value.
    Also returns the iterations summed over the runs and the longest run.

    A single deterministic start can coincide with a non-dominant eigenvector
    (the all-ones vector often does on structured matrices), in which case
    the iteration converges with a clean residual to the wrong value; pairing
    it with a generic start and maximizing repairs that while staying
    deterministic.
    """
    best: tuple[float, np.ndarray | None, float] = (0.0, None, 0.0)
    used = longest = 0
    for start in starts:
        result = _power_single(apply, start, tol, max_iterations)
        if result is None:
            continue
        lam, vec, res, its = result
        used += its
        longest = max(longest, its)
        if lam > best[0]:
            best = (lam, vec, res)
    return best[0], best[1], best[2], used, longest


def _generic_start(g: int) -> np.ndarray:
    # Fixed seed: deterministic, yet in general position with respect to any
    # particular matrix structure.
    return np.random.default_rng(0x51A9).standard_normal(g)


def _first_basis_start(g: int, against: np.ndarray | None = None) -> np.ndarray:
    e = np.zeros(g)
    e[0] = 1.0
    if against is not None:
        e = e - (against @ e) * against
    return e


def top_singular_values(
    M, tol: float = DEFAULT_TOL, max_iterations: int = MAX_ITERATIONS
) -> SpectrumSummary:
    """sigma1 and sigma2 of a real matrix via power iteration on the Gram
    matrix, with the leading singular pair deflated by projection.

    Start vectors are deterministic: the all-ones vector for the leading
    value, then coordinate basis vectors orthogonalized against the leading
    singular vector. Hitting the iteration cap is not fatal; the residual
    field carries the convergence evidence either way.
    """
    A = np.asarray(M, dtype=float)
    if A.ndim != 2 or A.size == 0:
        raise ValueError("expected a non-empty 2-d matrix")
    if not np.isfinite(A).all():
        raise ValueError("matrix entries must be finite")
    B = A if A.shape[0] >= A.shape[1] else A.T
    G = B.T @ B
    g = G.shape[0]

    starts1 = [np.ones(g), _generic_start(g)]
    lam1, v1, res1, it1, long1 = _power_best(lambda v: G @ v, starts1, tol, max_iterations)
    sigma1 = math.sqrt(max(lam1, 0.0))
    if v1 is None or g == 1:
        return SpectrumSummary(sigma1, 0.0, res1, it1, long1)

    def deflated(v: np.ndarray) -> np.ndarray:
        u = v - (v1 @ v) * v1
        w = G @ u
        return w - (v1 @ w) * v1

    starts2 = [
        _first_basis_start(g, against=v1),
        _generic_start(g) - (v1 @ _generic_start(g)) * v1,
    ]
    lam2, _, res2, it2, long2 = _power_best(deflated, starts2, tol, max_iterations)
    sigma2 = min(math.sqrt(max(lam2, 0.0)), sigma1)
    return SpectrumSummary(
        sigma1, sigma2, max(res1, res2), it1 + it2, max(long1, long2)
    )


def _second_singular_regular(
    B: np.ndarray, tol: float, max_iterations: int
) -> tuple[float, float, int]:
    """sigma2 of a regular boolean matrix.

    The top singular pair of a regular matrix is the normalized all-ones
    vector with value equal to the degree, so it is deflated analytically by
    projecting onto the ones-orthogonal complement.
    """
    n = B.shape[0]
    G = B.T @ B
    ones = np.full(n, 1.0 / math.sqrt(n))

    def deflated(v: np.ndarray) -> np.ndarray:
        u = v - (ones @ v) * ones
        w = G @ u
        return w - (ones @ w) * ones

    starts = [
        _first_basis_start(n, against=ones),
        _generic_start(n) - (ones @ _generic_start(n)) * ones,
    ]
    lam, _, res, used, _ = _power_best(deflated, starts, tol, max_iterations)
    return math.sqrt(max(lam, 0.0)), res, used


def witness_feasible(W: WitnessMatrix, S: SignMatrix) -> bool:
    """Exact entrywise check of W * S >= 1."""
    if W.matrix.shape != S.shape:
        return False
    return bool((W.matrix * S.entries >= 1.0).all())


def identity_witness(S: SignMatrix, tol: float = DEFAULT_TOL) -> WitnessMatrix:
    """W = S itself; feasible since every entry has absolute value one."""
    norm = top_singular_values(S.entries, tol=tol).sigma1
    return WitnessMatrix(S.entries.astype(float), "identity-witness", norm)


def regular_witness(S: SignMatrix, tol: float = DEFAULT_TOL) -> WitnessMatrix:
    """W = (N/degree) B - J for a regular sign matrix with degree <= N/2.

    W kills the all-ones vector, so its norm is (N/degree) sigma2(B); the
    degree cap is exactly what makes W*S >= 1 hold on the ones of B.
    """
    B = to_boolean(S)
    info = regularity(B)
    if info.degree is None:
        raise ValueError("matrix is not regular")
    n, degree = S.n_rows, info.degree
    if degree == 0:
        raise ValueError("degree 0 is degenerate; no ones to reweight")
    if 2 * degree > n:
        raise ValueError(f"degree {degree} exceeds half the order {n}")
    W = (n / degree) * B.entries.astype(float) - 1.0
    witness = WitnessMatrix(W, "regular-witness", 0.0)
    if not witness_feasible(witness, S):
        raise AssertionError("regular witness is not feasible for S")
    sigma2, _, _ = _second_singular_regular(
        B.entries.astype(float), tol, MAX_ITERATIONS
    )
    return WitnessMatrix(W, "regular-witness", (n / degree) * sigma2)


def forster_bound(S: SignMatrix, W: WitnessMatrix) -> float:
    """N / ||W||: a lower bound on the sign rank of S for any feasible W."""
    if S.n_rows != S.n_cols:
        raise ValueError("this bound needs a square matrix")
    if not witness_feasible(W, S):
        raise ValueError("witness is not feasible for this matrix")
    norm = W.spectral_norm
    if norm <= 0.0:
        norm = top_singular_values(W.matrix).sigma1
    return S.n_rows / norm


def spectral_signrank_lower(S: SignMatrix, tol: float = DEFAULT_TOL) -> float:
    """degree / sigma2(B) for a regular sign matrix with degree <= N/2; equal
    to the bound obtained from the regular witness."""
    B = to_boolean(S)
    info = regularity(B)
    if info.degree is None:
        raise ValueError("matrix is not regular")
    degree = info.degree
    if degree == 0:
        raise ValueError("degree 0 is degenerate")
    if 2 * degree > S.n_rows:
        raise ValueError(f"degree {degree} exceeds half the order {S.n_rows}")
    sigma2, _, _ = _second_singular_regular(
        B.entries.astype(float), tol, MAX_ITERATIONS
    )
    if sigma2 < 1e-12:
        raise ValueError("second singular value vanished; bound is degenerate")
    return degree / sigma2


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
    """Round a real lower bound up to the integer it certifies, guarding
    against float noise pushing exact values over the ceiling."""
    return math.ceil(bound - 1e-9)
