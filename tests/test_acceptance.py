"""Acceptance criteria, one test per numbered requirement.

Each test prints a single line so a `pytest -v -s` run doubles as the
acceptance report. Time limits are asserted; they are generous on desk
hardware.
"""

import itertools
import math
import time

import numpy as np
import pytest

from signrank import (
    SignMatrix,
    approx_sign_rank,
    disjointness,
    distinct_rows,
    dual_sign_rank,
    embed_vc1,
    enumerate_census,
    grid_hyperplane,
    hamming_ball,
    heavy_dominant_free_random,
    identity_witness,
    integer_certificate,
    interval_class,
    is_maximum_class,
    line_subset_random,
    projective_incidence,
    regular_upper_bound,
    regular_witness,
    regularity,
    sc_star_bruteforce,
    signed_identity,
    signrank_bracket,
    sigma2_trace_floor,
    spectral_signrank_lower,
    star_norm_floor,
    to_boolean,
    top_singular_values,
    vc_dimension,
    verify_realization,
    welzl_path,
)
from testutil import (
    heavy_dominant_present,
    random_distinct_matrix,
    random_sign_matrix,
    random_vc1_matrix,
)


def _report(number: int, label: str, started: float, limit: float) -> None:
    elapsed = time.time() - started
    print(f"ACCEPTANCE {number:02d} {label}: PASS ({elapsed:.2f}s / limit {limit:.0f}s)")
    assert elapsed < limit


def test_criterion_01_signed_identity():
    started = time.time()
    S = signed_identity(4)
    assert vc_dimension(S) == 1
    assert dual_sign_rank(S) == 3
    report = signrank_bracket(S, np.random.default_rng(0))
    assert report.bracket == (3, 3)
    assert approx_sign_rank(S) == 3
    _report(1, "signed identity 4x4", started, 1.0)


def test_criterion_02_projective_plane_order_3():
    started = time.time()
    P = projective_incidence(3, 2)
    B = to_boolean(P)
    assert regularity(B).degree == 4
    sigma2 = top_singular_values(B.entries.astype(float)).sigma2
    assert sigma2 == pytest.approx(math.sqrt(3), abs=1e-6)
    lower = spectral_signrank_lower(P)
    assert lower == pytest.approx(4 / math.sqrt(3), abs=1e-4)
    assert lower == pytest.approx(2.3094, abs=1e-4)
    assert integer_certificate(lower) == 3
    assert regular_upper_bound(P) == 9
    assert vc_dimension(P) == 2
    _report(2, "projective plane order 3", started, 5.0)


def test_criterion_03_trace_floor_equality_on_planes():
    started = time.time()
    for p in (2, 3, 5):
        B = to_boolean(projective_incidence(p, 2))
        sigma2 = top_singular_values(B.entries.astype(float)).sigma2
        floor = sigma2_trace_floor(B)
        assert sigma2 == pytest.approx(floor, abs=1e-6), f"plane order {p}"
        assert sigma2 == pytest.approx(math.sqrt(p), abs=1e-6)
    _report(3, "trace floor equality on planes p=2,3,5", started, 5.0)


def test_criterion_04_welzl_guarantees():
    started = time.time()
    grid = grid_hyperplane(3, 2)
    plane = projective_incidence(3, 2)
    for seed in range(50):
        rng = np.random.default_rng(seed)
        for S in (grid, plane, distinct_rows(line_subset_random(3, rng))):
            d = max(vc_dimension(S), 1)
            ordering, state = welzl_path(S, rng)
            n = S.n_rows
            for i, x in enumerate(state.x_log, start=1):
                assert x <= 4 * math.e**2 * (n - i) ** (-1 / d) + 1e-12
            assert ordering.max_sign_changes <= 200 * n ** (1 - 1 / d)
    _report(4, "welzl step and stabbing guarantees (150 runs)", started, 30.0)


def test_criterion_05_oracle_dominance():
    started = time.time()
    rng = np.random.default_rng(1005)
    for _ in range(100):
        S = random_distinct_matrix(rng, max_rows=8, max_cols=8)
        ordering, _ = welzl_path(S, rng)
        optimum = sc_star_bruteforce(S)
        assert ordering.max_sign_changes >= optimum
        report = signrank_bracket(S, rng, hinge_alternations=100)
        assert ordering.max_sign_changes + 1 >= report.bracket[0]
    _report(5, "ordering never beats the exact optimum (100 matrices)", started, 60.0)


def test_criterion_06_duality_sandwich():
    started = time.time()
    rng = np.random.default_rng(1006)
    for _ in range(200):
        S = random_sign_matrix(
            rng, int(rng.integers(1, 11)), int(rng.integers(1, 11))
        )
        vc = vc_dimension(S)
        dual = dual_sign_rank(S)
        assert vc <= dual <= 2 * vc + 1
    ball = hamming_ball(5, 1).matrix
    assert dual_sign_rank(ball) == 2 * vc_dimension(ball) + 1 == 3
    disj = disjointness(2)
    assert dual_sign_rank(disj) == vc_dimension(disj) + 1 == 3
    _report(6, "duality sandwich with both extremes", started, 60.0)


def test_criterion_07_vc1_embedding():
    started = time.time()
    rng = np.random.default_rng(1007)
    for _ in range(100):
        S = random_vc1_matrix(rng, max_cols=12)
        realization = embed_vc1(S)
        assert verify_realization(realization, S)
    _report(7, "planar realization of 100 VC-1 matrices", started, 30.0)


def test_criterion_08_exact_closures():
    started = time.time()
    rng = np.random.default_rng(1008)
    assert signrank_bracket(disjointness(2), rng).bracket == (3, 3)
    assert signrank_bracket(hamming_ball(5, 1).matrix, rng).bracket == (3, 3)
    assert signrank_bracket(SignMatrix.constant(4, 4, 1), rng).bracket == (1, 1)
    _report(8, "closed brackets on known instances", started, 30.0)


def test_criterion_09_maximum_classes():
    started = time.time()
    intervals = interval_class(3)
    assert intervals.n_rows == 92
    assert is_maximum_class(intervals, 2)
    assert is_maximum_class(hamming_ball(5, 1), 1)
    for n in (2, 3, 4):
        for d in range(1, n + 1):
            assert enumerate_census(n, d).all_maximum_connected
    _report(9, "maximum classes and cube connectivity", started, 60.0)


def test_criterion_10_census():
    started = time.time()
    result = enumerate_census(2, 1)
    assert result.count_exact == 10
    assert result.maximum_count == 4
    for n in (2, 3, 4):
        total = sum(enumerate_census(n, d).count_exact for d in range(n + 1))
        assert total == 2 ** (2**n) - 1
    _report(10, "exact census through n=4", started, 120.0)


def test_criterion_11_randomized_constructions():
    started = time.time()
    for seed in range(5):
        S = line_subset_random(3, np.random.default_rng(seed))
        assert vc_dimension(S) <= 2
        B = to_boolean(S).entries
        for a, b in itertools.combinations(range(13), 2):
            assert int((B[a] & B[b]).sum()) <= 1
    for seed in range(2):
        S = heavy_dominant_free_random(30, 3, np.random.default_rng(seed))
        assert not heavy_dominant_present(to_boolean(S).entries)
        assert vc_dimension(S) <= 3
    _report(11, "randomized constructions keep their guarantees", started, 120.0)


def test_criterion_12_star_norm_consistency():
    started = time.time()
    assert star_norm_floor(SignMatrix.constant(4, 4, 1)) == pytest.approx(4.0)
    assert star_norm_floor(SignMatrix.constant(7, 7, 1)) == pytest.approx(7.0)
    assert star_norm_floor(signed_identity(4)) == pytest.approx(1.5)
    instances = [
        SignMatrix.constant(4, 4, 1),
        signed_identity(4),
        disjointness(2),
        projective_incidence(2, 2),
        projective_incidence(3, 2),
        projective_incidence(5, 2),
    ]
    for S in instances:
        floor = star_norm_floor(S)
        assert identity_witness(S).spectral_norm >= floor - 1e-6
        try:
            witness = regular_witness(S)
        except ValueError:
            continue
        assert witness.spectral_norm >= floor - 1e-6
    _report(12, "every witness respects the star-norm floor", started, 10.0)
