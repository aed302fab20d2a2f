"""Constructive sign-rank upper bounds and certified brackets.

Upper bounds come from row orders with few sign changes: the moment curve
realizes an order with c changes per column in dimension c + 1. At VC
dimension one the `vc1_path` order leaves every column's +1 rows a cyclic
arc, so rows at equal angles on the unit circle and one chord per column
realize the matrix as the rank-3 factorization [x, y, 1] [n_x, n_y, o]^T
(`embed_vc1`). A numerical factorization search provides rank-k witnesses
when it happens to find them. Every witness is a `FactorizationWitness`,
proven by one dot-product rounding bound. `lower_certificates` gathers the
lower bounds, leaving out any certificate that is refused, and
`signrank_bracket` assembles the certificates into one [lower, upper]
interval.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CertificationError, SizeLimitError
from .matrix import SignMatrix, distinct_rows, regularity, to_boolean
from .spectral import _gamma, _regular_witness, forster_bound, identity_witness, integer_certificate
from .stabbing import low_stabbing_order, vc1_path
from .vc import dual_sign_rank, vc_dimension


@dataclass(frozen=True)
class FactorizationWitness:
    """Rank-k sign factorization: sign(left @ right.T) matches the matrix
    with margin at least `min_margin` > 0."""

    rank: int
    left: np.ndarray  # (rows, k)
    right: np.ndarray  # (cols, k)
    min_margin: float

    def values(self) -> np.ndarray:
        return self.left @ self.right.T


@dataclass(frozen=True)
class BoundReport:
    """Named certificates and the sign-rank bracket they pin down."""

    vc: int | None  # None when the search was refused
    dual: int | None
    lower_bounds: list[tuple[str, float]]
    upper_bounds: list[tuple[str, int]]
    bracket: tuple[int, int]
    welzl_max_sc: int
    welzl_constant: float | None
    skipped: list[tuple[str, str]]  # (method, reason) of uncertified bounds


def embed_vc1(S: SignMatrix) -> FactorizationWitness:
    """Embed in the plane a distinct-row matrix of VC dimension at most one,
    or any other on which `vc1_path` succeeds, as a rank-3 factorization:
    unit-circle points [x, y, 1] along the `vc1_path` row order, with at most
    two sign changes per column, and one chord [n_x, n_y, o] per column.

    Row perm[k] sits at angle 2 pi k / n, so every non-constant column's +1
    rows fill a cyclic arc of L consecutive points. Its halfplane has the
    arc's midpoint direction as normal and offset -cos(L pi / n): the arc's
    points lie within (L - 1) pi / n of the midpoint and every other point at
    least (L + 1) pi / n away, so each margin is at least 1 - cos(pi / n). A
    constant column misses the circle: normal (1, 0) and offset +-2.
    """
    n = S.n_rows
    perm = list(vc1_path(S).permutation)
    plus = S.entries[perm] == 1
    angles = 2.0 * np.pi * np.arange(n) / n
    left = np.ones((n, 3))
    left[perm, :2] = np.column_stack((np.cos(angles), np.sin(angles)))
    length = plus.sum(axis=0)
    start = (plus & ~np.roll(plus, 1, axis=0)).argmax(axis=0)
    mid = 2.0 * np.pi * (start + (length - 1) / 2.0) / n
    right = np.column_stack((np.cos(mid), np.sin(mid), -np.cos(np.pi * length / n)))
    constant = (length == 0) | (length == n)
    right[constant, :2] = (1.0, 0.0)
    right[constant, 2] = np.where(length[constant] == n, 2.0, -2.0)
    return FactorizationWitness(3, left, right, float((S.entries * (left @ right.T)).min()))


def verify_realization(witness: FactorizationWitness, S: SignMatrix) -> bool:
    """Entrywise soundness check: every margin S * (left @ right^T) must
    exceed the rounding error of computing it, so an accepted witness has
    the right signs in exact arithmetic (zero margins are rejected)."""
    U, V = witness.left, witness.right
    if U.shape[0] != S.n_rows or V.shape != (S.n_cols, U.shape[1]):
        raise ValueError("factor dimensions do not match the matrix")
    # A length-k dot product computed in any order (FMA included) is off by
    # at most gamma_k |u|.|v|, gamma_k = ku/(1-ku), u = 2^-53 (Higham,
    # Accuracy and Stability of Numerical Algorithms, 3.1), plus half the
    # least subnormal 2^-1074 per product when products underflow. Doubling
    # gamma_k and the underflow term covers the same errors in forming
    # |U||V|^T and the rounding of the bound itself, so a float margin above
    # the bound proves the exact sign; a non-finite factor makes some
    # comparison false.
    k = U.shape[1]
    bound = 2.0 * _gamma(k) * (np.abs(U) @ np.abs(V).T) + k * 2.0**-1074
    return bool((S.entries * (U @ V.T) > bound).all())


def _refit(X: np.ndarray, A: np.ndarray, R: np.ndarray) -> np.ndarray:
    """The least-squares refit of a stack of factors X against the targets
    X A^T + R, in residual form: X + R A G^-1, where G = A^T A is the k x k
    Gram matrix, inverted by one solve with k right-hand sides. When LAPACK
    finds some Gram matrix singular, the pseudoinverse of A applies the same
    correction to the whole stack."""
    try:
        Ginv = np.linalg.solve(A.transpose(0, 2, 1) @ A, np.eye(A.shape[2]))
    except np.linalg.LinAlgError:
        return X + R @ np.linalg.pinv(A).transpose(0, 2, 1)
    return X + R @ (A @ Ginv)


# A restart retires unless its hinge loss fell by at least _PROGRESS of its
# current value over the last _WINDOW alternations, or it has at most _NEAR
# wrong signs: some witnesses appear only after hundreds of alternations on a
# slow loss plateau a few wrong signs short of a realization.
_WINDOW = 50
_PROGRESS = 0.2
_NEAR = 3
_BAD_BUDGET = "the alternation budget must be non-negative"


def hinge_search_upper(
    S: SignMatrix,
    k: int,
    rng: np.random.Generator,
    restarts: int = 6,
    max_alternations: int = 400,
) -> FactorizationWitness | None:
    """Search for a rank-k witness by alternating least squares on the hinge
    loss sum(max(0, 1 - S * (U V^T))).

    Each side is refit by exact least squares against targets that pull
    hinge-active entries to +-1 and leave inactive entries at their current
    prediction. The targets differ from the prediction by S * H, H the hinge
    matrix max(0, 1 - S * (U V^T)) that the loss sums, so each refit is a
    correction through the k x k Gram matrix of the other side (`_refit`).
    All restarts advance in lockstep as one stack, each starting from its
    own draw of `rng` (restart r from the r-th (U, V) pair). At
    alternation t a restart retires unless its loss fell by at least 0.2 of
    its current value since alternation t - 50 (losses before the start count
    as +inf) or at most 3 of its margins are not positive. A non-finite loss
    retires at once, and a fixed point with more than 3 wrong signs after 50
    alternations. `max_alternations` caps the alternations per restart. The
    search stops at the first alternation where some restart has every
    margin S * (U V^T) positive and returns the lowest such restart once
    `verify_realization` proves its signs (one that fails the proof retires).
    A None result is absence of evidence, never a lower bound.
    """
    if k < 1:
        raise ValueError("rank must be at least 1")
    if max_alternations < 0:
        raise ValueError(_BAD_BUDGET)
    n_rows, n_cols = S.shape
    E = np.tile(S.entries.astype(float), (restarts, 1, 1))
    start = rng.standard_normal((restarts, (n_rows + n_cols) * k))
    U = start[:, : n_rows * k].reshape(restarts, n_rows, k)
    V = start[:, n_rows * k :].reshape(restarts, n_cols, k)
    history = np.full((restarts, _WINDOW), math.inf)
    for t in range(max_alternations):
        margins = U @ V.transpose(0, 2, 1)
        margins *= E
        low = margins.min(axis=(1, 2))
        consistent = low > 0.0
        unproven = None
        if consistent.any():
            r = int(consistent.argmax())
            witness = FactorizationWitness(k, U[r].copy(), V[r].copy(), float(low[r]))
            if verify_realization(witness, S):
                return witness
            unproven = r
        H = 1.0 - margins
        np.maximum(H, 0.0, out=H)
        loss = H.sum(axis=(1, 2))
        # Both tests are written so that a NaN or infinite loss fails them;
        # the wrong signs are counted only for restarts short of progress.
        slot = t % _WINDOW
        keep = history[:, slot] - loss >= _PROGRESS * loss
        history[:, slot] = loss
        if not keep.all():
            keep |= ((margins <= 0.0).sum(axis=(1, 2)) <= _NEAR) & (loss < math.inf)
        if unproven is not None:
            keep[unproven] = False
        if not keep.all():
            if not keep.any():
                return None
            U, V, E, H, history = U[keep], V[keep], E[keep], H[keep], history[keep]
        U = _refit(U, V, np.multiply(H, E, out=H))
        H = U @ V.transpose(0, 2, 1)
        np.subtract(1.0, np.multiply(H, E, out=H), out=H)
        np.maximum(H, 0.0, out=H)
        V = _refit(V, U, np.multiply(H, E, out=H).transpose(0, 2, 1))
    return None


def approx_sign_rank(S: SignMatrix, rng: np.random.Generator | None = None) -> int:
    """One plus the maximum sign-change count of a low-stabbing row order of
    the distinct rows; always an upper bound on the sign rank, within a
    multiplicative O(N/log N) of it."""
    if rng is None:
        rng = np.random.default_rng(0)
    ordering, _, _ = low_stabbing_order(distinct_rows(S), rng)
    return ordering.max_sign_changes + 1


def certify(method: str, certificate, skipped: list[tuple[str, str]]):
    """The value of `certificate()`, or None when it is refused: over its
    budget (SizeLimitError) or not verified (CertificationError). A refused
    certificate is left out of the report and listed in `skipped` as
    (method, reason); it never aborts the report."""
    try:
        return certificate()
    except (SizeLimitError, CertificationError) as exc:
        skipped.append((method, str(exc)))
        return None


def lower_certificates(S: SignMatrix) -> tuple[int | None, int | None, list, list]:
    """The lower-bound certificates of a sign matrix, as (vc, dual, lower,
    skipped).

    vc and dual are the VC dimension and dual sign rank of the distinct rows,
    None when their search is refused. lower lists (method, value):
    "dual_sign_rank", and on a square S "forster" (identity witness) and, for
    a regular S with 1 <= degree <= N/2, "spectral" (regular witness). Each
    refused certificate is listed in skipped as (method, reason) by `certify`.
    """
    return _lower_certificates(S, regularity(to_boolean(S)).degree)


def _lower_certificates(S: SignMatrix, degree: int | None):
    """`lower_certificates` of S, whose degree is known."""
    Sd = distinct_rows(S)
    skipped: list[tuple[str, str]] = []
    vc = certify("vc", lambda: vc_dimension(Sd), skipped)
    dual = certify("dual_sign_rank", lambda: dual_sign_rank(Sd, vc=vc), skipped)
    lower = [] if dual is None else [("dual_sign_rank", float(dual))]
    if S.n_rows == S.n_cols:
        methods = [("forster", lambda: forster_bound(identity_witness(S)))]
        if degree and 2 * degree <= S.n_rows:
            methods.append(("spectral", lambda: forster_bound(_regular_witness(S, degree))))
        for method, bound in methods:
            value = certify(method, bound, skipped)
            if value is not None:
                lower.append((method, value))
    return vc, dual, lower, skipped


def _same_rows(A: SignMatrix, B: SignMatrix) -> bool:
    """Whether two distinct-row matrices have the same set of rows."""
    return A.shape == B.shape and (
        {r.tobytes() for r in A.entries} == {r.tobytes() for r in B.entries}
    )


def signrank_bracket(
    S: SignMatrix, rng: np.random.Generator | None = None, hinge_alternations: int = 400
) -> BoundReport:
    """Assemble every available certificate into a sign-rank bracket.

    Lower bounds: those of `lower_certificates`; with none, the lower end is
    1. Upper bounds: one plus the sign changes of a low-stabbing row order of
    the distinct rows ("path_vc1" or "path_welzl"), and any verified
    factorization found at the current lower end. Sign rank is invariant
    under transposition, so a column order with few sign changes in every
    row bounds it too ("path_cols_*", drawn from `rng.spawn(1)[0]`, which
    leaves `rng` where it was); it is skipped when the distinct columns are
    the distinct rows as a set, as on symmetric matrices, where it would
    repeat the row path's work. The paths never exceed min(distinct rows,
    distinct columns), nor 2*degree + 1 on regular matrices, nor three as
    the VC-1 sort, so those bounds are not listed. A failed factorization
    search never moves the lower end, and a refused certificate is left out
    and listed in `skipped`. A negative `hinge_alternations` raises
    ValueError even when no search runs.
    """
    if hinge_alternations < 0:
        raise ValueError(_BAD_BUDGET)
    if rng is None:
        rng = np.random.default_rng(0)
    Sd = distinct_rows(S)
    Std = distinct_rows(SignMatrix(Sd.entries.T))
    vc, dual, lower, skipped = lower_certificates(S)

    upper: list[tuple[str, int]] = []
    welzl_constant = None
    ordering, method, _ = low_stabbing_order(Sd, rng)
    upper.append((f"path_{method}", ordering.max_sign_changes + 1))
    if method == "welzl" and vc is not None:
        welzl_constant = ordering.constant(vc)
    if not _same_rows(Std, Sd):
        cols, cols_method, _ = low_stabbing_order(Std, rng.spawn(1)[0])
        upper.append((f"path_cols_{cols_method}", cols.max_sign_changes + 1))

    lo = max(1, integer_certificate(max((v for _, v in lower), default=1)))
    hi = min(v for _, v in upper)
    if lo < hi:
        witness = hinge_search_upper(Sd, lo, rng, max_alternations=hinge_alternations)
        if witness is not None:
            upper.append(("factorization", lo))
            hi = lo
    if lo > hi:
        raise AssertionError(
            f"certificates disagree: lower {lo} exceeds upper {hi}"
        )
    return BoundReport(
        vc=vc,
        dual=dual,
        lower_bounds=lower,
        upper_bounds=upper,
        bracket=(lo, hi),
        welzl_max_sc=ordering.max_sign_changes,
        welzl_constant=welzl_constant,
        skipped=skipped,
    )
