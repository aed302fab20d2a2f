"""Constructive sign-rank upper bounds and certified brackets.

A matrix of VC dimension one embeds in the plane: rows become points on the
unit circle and columns become halfplanes, which pins its sign rank at three
or less. A numerical factorization search provides rank-k witnesses when it
happens to find them, and `signrank_bracket` assembles every certificate into
one [lower, upper] interval.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import SizeLimitError
from .matrix import SignMatrix, distinct_rows, has_distinct_rows, regularity, to_boolean
from .spectral import integer_certificate, witness_bounds
from .stabbing import low_stabbing_order
from .vc import dual_sign_rank, vc_dimension

# Verification threshold for exported planar margins.
_PLANAR_MARGIN = 1e-12


@dataclass(frozen=True)
class PlanarRealization:
    """Unit-circle points (one per row) and halfplanes (one per column) whose
    incidence signs reproduce a sign matrix."""

    points: np.ndarray  # (rows, 2), unit norm
    normals: np.ndarray  # (cols, 2)
    offsets: np.ndarray  # (cols,)

    def values(self) -> np.ndarray:
        return self.points @ self.normals.T + self.offsets[None, :]


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

    instance: str
    n_rows: int
    n_cols: int
    vc: int
    dual: int
    lower_bounds: list[tuple[str, float]]
    upper_bounds: list[tuple[str, int]]
    bracket: tuple[int, int]
    welzl_max_sc: int
    welzl_constant: float | None
    skipped: list[tuple[str, str]]  # (method, reason) of uncertified bounds

    def to_json_dict(self) -> dict:
        doc = {
            "instance": self.instance,
            "n_rows": self.n_rows,
            "n_cols": self.n_cols,
            "vc": self.vc,
            "dual": self.dual,
            "lower": [{"method": m, "value": v} for m, v in self.lower_bounds],
            "upper": [{"method": m, "value": v} for m, v in self.upper_bounds],
            "bracket": list(self.bracket),
            "welzl": {
                "max_sc": self.welzl_max_sc,
                "constant_observed": self.welzl_constant,
            },
        }
        if self.skipped:
            doc["skipped"] = [{"method": m, "reason": r} for m, r in self.skipped]
        return doc


def _cyc_mid(a: Fraction, b: Fraction) -> Fraction:
    """Midpoint of the arc from a counterclockwise to b (angles in turns)."""
    gap = (b - a) % 1
    return (a + gap / 2) % 1


def _in_arc(theta: Fraction, a: Fraction, b: Fraction) -> bool:
    """Is theta strictly inside the arc from a counterclockwise to b?"""
    return (theta - a) % 1 < (b - a) % 1


def _embed_recursive(
    rows: list[tuple[int, tuple[int, ...]]], cols: list[int]
) -> tuple[dict[int, Fraction], dict[int, tuple]]:
    """Returns (angle per row id, halfplane descriptor per column id).

    Descriptors are ("arc", a, b) for the halfplane positive exactly on the open
    arc a -> b (counterclockwise), or ("all", flag) for halfplanes containing
    every point or none.
    """
    if len(rows) == 1:
        rid, values = rows[0]
        return {rid: Fraction(0)}, {
            c: ("all", values[j] == 1) for j, c in enumerate(cols)
        }

    # Constant columns become halfplanes missing the circle entirely.
    first = rows[0][1]
    constant = [j for j in range(len(cols)) if all(t[j] == first[j] for _, t in rows)]
    if constant:
        const_set = set(constant)
        sub_rows = [
            (i, tuple(v for j, v in enumerate(t) if j not in const_set))
            for i, t in rows
        ]
        sub_cols = [c for j, c in enumerate(cols) if j not in const_set]
        angles, planes = _embed_recursive(sub_rows, sub_cols)
        for j in constant:
            planes[cols[j]] = ("all", first[j] == 1)
        return angles, planes

    if len(cols) == 1:
        (id_a, t_a), (id_b, _) = rows  # two distinct rows over one column
        plus_id, minus_id = (id_a, id_b) if t_a[0] == 1 else (id_b, id_a)
        angles = {plus_id: Fraction(0), minus_id: Fraction(1, 2)}
        planes = {cols[0]: ("arc", Fraction(3, 4), Fraction(1, 4))}
        return angles, planes

    # Pivot: the column with the fewest minority entries (then lowest index)
    # has a unique minority row.
    r_count = len(rows)
    best_m, j0 = min(
        (min(ones, r_count - ones), j)
        for j, ones in (
            (j, sum(1 for _, t in rows if t[j] == 1)) for j in range(len(cols))
        )
    )
    if best_m != 1:
        raise AssertionError("pivot needs a unique minority entry")
    ones0 = sum(1 for _, t in rows if t[j0] == 1)
    minority = 1 if ones0 <= r_count - ones0 else -1
    min_pos = next(k for k, (_, t) in enumerate(rows) if t[j0] == minority)
    min_id, min_tuple = rows[min_pos]
    stripped = min_tuple[:j0] + min_tuple[j0 + 1 :]
    twin_pos = next(
        (
            k
            for k, (_, t) in enumerate(rows)
            if k != min_pos and t[:j0] + t[j0 + 1 :] == stripped
        ),
        None,
    )
    twin_id = rows[twin_pos][0] if twin_pos is not None else None
    reduced = [
        (i, t[:j0] + t[j0 + 1 :])
        for k, (i, t) in enumerate(rows)
        if k != twin_pos
    ]
    angles, planes = _embed_recursive(reduced, cols[:j0] + cols[j0 + 1 :])

    x = angles[min_id]
    occupied = set(angles.values())
    for halfplane in planes.values():
        if halfplane[0] == "arc":
            occupied.add(halfplane[1])
            occupied.add(halfplane[2])
    occupied.discard(x)
    if occupied:
        succ = min(occupied, key=lambda q: (q - x) % 1)
        pred = min(occupied, key=lambda q: (x - q) % 1)
    else:
        succ = pred = (x + Fraction(1, 2)) % 1
    m_ccw = _cyc_mid(x, succ)  # chord endpoint on the successor side
    m_cw = _cyc_mid(pred, x)  # chord endpoint on the predecessor side
    if minority == 1:
        planes[cols[j0]] = ("arc", m_cw, m_ccw)
    else:
        planes[cols[j0]] = ("arc", m_ccw, m_cw)
    if twin_id is not None:
        angles[twin_id] = _cyc_mid(m_ccw, succ)
    return angles, planes


def embed_vc1(S: SignMatrix, vc: int | None = None) -> PlanarRealization:
    """Embed a distinct-row matrix of VC dimension at most one in the plane
    (`vc`, when given, is taken as the VC dimension instead of recomputing
    it).

    Rows map to unit-circle points and columns to halfplanes, recursing on
    columns: a column with a unique minority entry is realized by a chord
    cutting its minority point off from the rest, and a row that collapses
    onto another when that column is dropped is re-inserted just across the
    chord inside the same cell. Angles are dyadic fractions of the turn, so
    the construction itself is exact; only the final float export rounds.
    """
    if not has_distinct_rows(S):
        raise ValueError("rows must be pairwise distinct (apply distinct_rows first)")
    if (vc_dimension(S) if vc is None else vc) > 1:
        raise ValueError("matrix has VC dimension at least 2")
    rows = [(i, t) for i, t in enumerate(S.row_tuples())]
    angles, planes = _embed_recursive(rows, list(range(S.n_cols)))

    # The recursion keeps splitting gaps around the same points, so exact
    # angles can cluster until float margins underflow. Every sign is decided
    # purely by the cyclic order of points and chord endpoints, so re-spacing
    # the occupied angles uniformly preserves all of them and keeps the
    # exported margins healthy.
    occupied = set(angles.values())
    for halfplane in planes.values():
        if halfplane[0] == "arc":
            occupied.add(halfplane[1])
            occupied.add(halfplane[2])
    ordered = sorted(occupied)
    spread = {theta: Fraction(k, len(ordered)) for k, theta in enumerate(ordered)}

    points = np.zeros((S.n_rows, 2))
    for rid, theta in angles.items():
        ang = 2.0 * math.pi * float(spread[theta])
        points[rid] = (math.cos(ang), math.sin(ang))
    normals = np.zeros((S.n_cols, 2))
    offsets = np.zeros(S.n_cols)
    for c in range(S.n_cols):
        halfplane = planes[c]
        if halfplane[0] == "all":
            normals[c] = (1.0, 0.0)
            offsets[c] = 2.0 if halfplane[1] else -2.0
        else:
            a, b = spread[halfplane[1]], spread[halfplane[2]]
            length = (b - a) % 1
            mid = 2.0 * math.pi * float(_cyc_mid(a, b))
            normals[c] = (math.cos(mid), math.sin(mid))
            offsets[c] = -math.cos(math.pi * float(length))
    realization = PlanarRealization(points, normals, offsets)
    margin = float((S.entries * realization.values()).min())
    if margin < _PLANAR_MARGIN:
        raise SizeLimitError(
            f"planar margin {margin:.3e} underflowed the verification "
            f"threshold {_PLANAR_MARGIN}"
        )
    return realization


def verify_realization(
    witness: PlanarRealization | FactorizationWitness, S: SignMatrix
) -> bool:
    """Entrywise soundness check: every sign matches with a strictly positive
    margin (zero margins are rejected). A factorization's margins must also
    exceed the rounding error of computing U V^T, so an accepted witness has
    the right signs in exact arithmetic."""
    if isinstance(witness, PlanarRealization):
        if witness.points.shape != (S.n_rows, 2) or witness.normals.shape != (
            S.n_cols,
            2,
        ):
            raise ValueError("realization dimensions do not match the matrix")
        norms = np.linalg.norm(witness.points, axis=1)
        if not (np.abs(norms - 1.0) <= 1e-9).all():
            return False
        return float((S.entries * witness.values()).min()) > 0.0
    if isinstance(witness, FactorizationWitness):
        U, V = witness.left, witness.right
        if U.shape[0] != S.n_rows or V.shape != (S.n_cols, U.shape[1]):
            raise ValueError("factor dimensions do not match the matrix")
        # A length-k dot product computed in any order (FMA included) is off
        # by at most gamma_k |u|.|v|, gamma_k = ku/(1-ku), u = 2^-53 (Higham,
        # Accuracy and Stability of Numerical Algorithms, 3.1), plus half the
        # least subnormal 2^-1074 per product when products underflow. Doubling gamma_k
        # and the underflow term covers the same errors in forming
        # |U||V|^T and the rounding of the bound itself, so a float margin
        # above the bound proves the exact sign; a non-finite factor makes
        # some comparison false.
        k = U.shape[1]
        gamma = k * 2.0**-53 / (1.0 - k * 2.0**-53)
        bound = 2.0 * gamma * (np.abs(U) @ np.abs(V).T) + k * 2.0**-1074
        return bool((S.entries * witness.values() > bound).all())
    raise TypeError(f"cannot verify {type(witness).__name__}")


def _lstsq_stack(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Least-squares solutions X of A X ~ B for a stack of matrices, by the
    normal equations; the pseudoinverse serves the whole stack when LAPACK
    finds a Gram matrix singular."""
    At = A.transpose(0, 2, 1)
    try:
        return np.linalg.solve(At @ A, At @ B)
    except np.linalg.LinAlgError:
        return np.linalg.pinv(A) @ B


def hinge_search_upper(
    S: SignMatrix,
    k: int,
    rng: np.random.Generator,
    restarts: int = 20,
    max_alternations: int = 5000,
) -> FactorizationWitness | None:
    """Search for a rank-k witness by alternating least squares on the hinge
    loss sum(max(0, 1 - S * (U V^T))).

    Each side is refit by exact least squares against targets that pull
    hinge-active entries to +-1 and leave inactive entries at their current
    prediction. All restarts advance in lockstep as one stack, each starting
    from its own draw of `rng` (restart r from the r-th (U, V) pair), and a
    restart retires after 50 alternations without improving its loss, or when
    its loss is not finite. The search stops at the first alternation where
    some restart has every margin S * (U V^T) positive and returns the lowest
    such restart once `verify_realization` proves its signs (one that fails
    the proof retires). A None result is absence of evidence, never a lower
    bound.
    """
    if k < 1:
        raise ValueError("rank must be at least 1")
    E = S.entries.astype(float)
    n_rows, n_cols = E.shape
    start = rng.standard_normal((restarts, (n_rows + n_cols) * k))
    U = start[:, : n_rows * k].reshape(restarts, n_rows, k)
    V = start[:, n_rows * k :].reshape(restarts, n_cols, k)
    best_loss = np.full(restarts, math.inf)
    stall = np.zeros(restarts, dtype=int)
    for _ in range(max_alternations):
        P = U @ V.transpose(0, 2, 1)
        margins = E * P
        low = margins.min(axis=(1, 2))
        retire = np.zeros(len(U), dtype=bool)
        consistent = np.flatnonzero(low > 0.0)
        if consistent.size:
            r = consistent[0]
            witness = FactorizationWitness(k, U[r].copy(), V[r].copy(), float(low[r]))
            if verify_realization(witness, S):
                return witness
            retire[r] = True
        loss = np.maximum(1.0 - margins, 0.0).sum(axis=(1, 2))
        improved = loss < best_loss - 1e-12
        best_loss = np.where(improved, loss, best_loss)
        stall = np.where(improved, 0, stall + 1)
        retire |= (stall >= 50) | ~np.isfinite(loss)
        if retire.any():
            keep = ~retire
            U, V, P, margins = U[keep], V[keep], P[keep], margins[keep]
            best_loss, stall = best_loss[keep], stall[keep]
        if not len(U):
            return None
        T = np.where(margins < 1.0, E, P)
        U = _lstsq_stack(V, T.transpose(0, 2, 1)).transpose(0, 2, 1)
        P = U @ V.transpose(0, 2, 1)
        T = np.where(E * P < 1.0, E, P)
        V = _lstsq_stack(U, T).transpose(0, 2, 1)
    return None


def approx_sign_rank(
    S: SignMatrix, rng: np.random.Generator | None = None, d: int | None = None
) -> int:
    """One plus the maximum sign-change count of a low-stabbing row order of
    the distinct rows; always an upper bound on the sign rank, within a
    multiplicative O(N/log N) of it."""
    if rng is None:
        rng = np.random.default_rng(0)
    Sd = distinct_rows(S)
    vc = vc_dimension(Sd) if d is None else int(d)
    ordering, _, _ = low_stabbing_order(Sd, rng, vc)
    return ordering.max_sign_changes + 1


def signrank_bracket(
    S: SignMatrix,
    rng: np.random.Generator | None = None,
    instance: str = "",
    hinge_restarts: int = 6,
    hinge_alternations: int = 400,
) -> BoundReport:
    """Assemble every available certificate into a sign-rank bracket.

    Lower bounds: dual sign rank, plus witness bounds on square matrices
    (identity witness always; the regular witness when it applies). Upper
    bounds: one plus the sign changes of a low-stabbing path, three when the
    VC dimension is at most one (verified planar embedding), 2*degree + 1 for
    regular matrices, and any verified factorization found at the current
    lower end. A failed factorization search never moves the lower end, and a
    witness bound whose norm could not be certified is left out and listed in
    `skipped`.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    Sd = distinct_rows(S)
    vc = vc_dimension(Sd)
    dual = dual_sign_rank(Sd, vc=vc)
    lower: list[tuple[str, float]] = [("dual_sign_rank", float(dual))]
    square = S.n_rows == S.n_cols
    info = regularity(to_boolean(S)) if square else None
    witnessed, skipped = witness_bounds(S) if square else ([], [])
    lower += witnessed

    upper: list[tuple[str, int]] = []
    welzl_constant = None
    ordering, method, _ = low_stabbing_order(Sd, rng, vc)
    upper.append((f"path_{method}", ordering.max_sign_changes + 1))
    if vc <= 1:
        realization = embed_vc1(Sd, vc)
        if verify_realization(realization, Sd):
            upper.append(("planar_embedding", 3))
    else:
        welzl_constant = ordering.max_sign_changes / Sd.n_rows ** (1.0 - 1.0 / vc)
    if info is not None and info.degree is not None:
        upper.append(("regular_degree", 2 * info.degree + 1))

    lo = max(1, integer_certificate(max(v for _, v in lower)))
    hi = min(v for _, v in upper)
    if lo < hi:
        witness = hinge_search_upper(
            Sd, lo, rng, restarts=hinge_restarts, max_alternations=hinge_alternations
        )
        if witness is not None:
            upper.append(("factorization", lo))
            hi = lo
    if lo > hi:
        raise AssertionError(
            f"certificates disagree: lower {lo} exceeds upper {hi}"
        )
    return BoundReport(
        instance=instance,
        n_rows=S.n_rows,
        n_cols=S.n_cols,
        vc=vc,
        dual=dual,
        lower_bounds=lower,
        upper_bounds=upper,
        bracket=(lo, hi),
        welzl_max_sc=ordering.max_sign_changes,
        welzl_constant=welzl_constant,
        skipped=skipped,
    )
