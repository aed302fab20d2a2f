import itertools
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from signrank import stabbing
from signrank import (
    SignMatrix,
    SizeLimitError,
    count_sign_changes,
    disjointness,
    distinct_rows,
    doubling_update,
    grid_hyperplane,
    haussler_packing_limit,
    heavy_dominant_free_random,
    line_subset_random,
    low_stabbing_order,
    projective_incidence,
    sc_star_bruteforce,
    signed_identity,
    vc1_path,
    vc_dimension,
    welzl_path,
)
from testutil import random_distinct_matrix, random_vc1_matrix


def brute_sc_star(S):
    """Reference optimum via plain permutation loop (independent of the
    vectorized implementation)."""
    rows = S.row_tuples()
    best = math.inf
    for perm in itertools.permutations(range(len(rows))):
        worst = 0
        for c in range(S.n_cols):
            worst = max(
                worst,
                sum(
                    1
                    for a, b in zip(perm, perm[1:])
                    if rows[a][c] != rows[b][c]
                ),
            )
        best = min(best, worst)
    return best


def test_count_sign_changes_single_column():
    S = SignMatrix([[1], [1], [-1], [-1], [1]])
    ordering = count_sign_changes(S, (0, 1, 2, 3, 4))
    assert ordering.sign_changes == (2,)
    assert count_sign_changes(SignMatrix([[1], [1], [1]]), (0, 1, 2)).max_sign_changes == 0


def test_count_sign_changes_signed_identity():
    ordering = count_sign_changes(signed_identity(3), (0, 1, 2))
    assert ordering.sign_changes == (1, 2, 1)
    assert ordering.max_sign_changes == 2


def test_count_sign_changes_rejects_bad_permutation():
    with pytest.raises(ValueError):
        count_sign_changes(signed_identity(3), (0, 1))
    with pytest.raises(ValueError):
        count_sign_changes(signed_identity(3), (0, 1, 1))


def test_doubling_update_examples():
    p, x = doubling_update([0.25] * 4, (0, 1))
    assert x == pytest.approx(0.5)
    assert p.tolist() == pytest.approx([1 / 3, 1 / 3, 1 / 6, 1 / 6])

    p, x = doubling_update([0.25] * 4, ())
    assert x == 0.0
    assert p.tolist() == [0.25] * 4

    p, x = doubling_update([0.25] * 4, (0, 1, 2, 3))
    assert x == pytest.approx(1.0)
    assert p.tolist() == pytest.approx([0.25] * 4)


def test_doubling_update_preserves_total_mass():
    rng = np.random.default_rng(4)
    p = np.full(10, 0.1)
    for _ in range(200):
        crossed = np.flatnonzero(rng.random(10) < 0.3)
        p, _ = doubling_update(p, crossed)
        assert abs(p.sum() - 1.0) < 1e-12
    with pytest.raises(ValueError):
        doubling_update([0.5, 0.4], ())


def test_welzl_grid_bounds():
    G = grid_hyperplane(3, 2)
    ordering, state = welzl_path(G, np.random.default_rng(0))
    n, d = 9, 2
    assert ordering.max_sign_changes <= 200 * n ** (1 - 1 / d)
    # tighter internal chain
    assert ordering.max_sign_changes <= math.log2(n) + 8 * math.e**2 * n ** (1 - 1 / d)
    assert len(state.forest_edges) == n - 1
    assert abs(state.p.sum() - 1.0) < 1e-9


def test_welzl_single_column():
    S = SignMatrix([[1], [-1]])
    ordering, _ = welzl_path(S, np.random.default_rng(0))
    assert ordering.max_sign_changes <= 1


def test_welzl_step_weights_obey_packing_bound():
    P = projective_incidence(3, 2)
    _, state = welzl_path(P, np.random.default_rng(5), d=2)
    n = 13
    for i, x in enumerate(state.x_log, start=1):
        assert x <= 4 * math.e**2 * (n - i) ** (-1 / 2) + 1e-12


def test_welzl_forest_is_spanning_tree():
    P = line_subset_random(3, np.random.default_rng(8))
    Pd = distinct_rows(P)
    _, state = welzl_path(Pd, np.random.default_rng(8))
    n = Pd.n_rows
    parent = list(range(n))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for u, v in state.forest_edges:
        ru, rv = find(u), find(v)
        assert ru != rv, "edge closed a cycle"
        parent[ru] = rv
    assert len({find(i) for i in range(n)}) == 1


def test_welzl_never_beats_bruteforce():
    rng = np.random.default_rng(10)
    for _ in range(30):
        S = random_distinct_matrix(rng, max_rows=8, max_cols=8)
        ordering, _ = welzl_path(S, rng)
        assert ordering.max_sign_changes >= sc_star_bruteforce(S)


def test_welzl_rejects_duplicate_rows():
    with pytest.raises(ValueError):
        welzl_path(SignMatrix([[1, 1], [1, 1]]), np.random.default_rng(0))


def test_vc1_path_examples():
    assert vc1_path(signed_identity(4)).max_sign_changes <= 2
    assert vc1_path(SignMatrix([[1], [-1]])).max_sign_changes == 1
    with pytest.raises(ValueError):
        vc1_path(disjointness(2))


def test_vc1_path_random_instances():
    rng = np.random.default_rng(12)
    for _ in range(100):
        S = random_vc1_matrix(rng)
        assert vc_dimension(S) <= 1
        ordering = vc1_path(S)
        assert ordering.max_sign_changes <= 2
        # recount independently
        recount = count_sign_changes(S, ordering.permutation)
        assert recount.sign_changes == ordering.sign_changes


def test_sc_star_examples():
    assert sc_star_bruteforce(grid_hyperplane(2, 2)) == 2
    # forced by the crossing bound (2^2 - 1) / (2 * 1) = 1.5
    assert sc_star_bruteforce(grid_hyperplane(2, 2)) >= 1.5
    assert sc_star_bruteforce(signed_identity(3)) == 2
    assert sc_star_bruteforce(SignMatrix([[1], [1], [1]][0:1])) == 0
    assert sc_star_bruteforce(SignMatrix([[1, -1]])) == 0


def test_sc_star_grid_crossing_bounds():
    # (2^d - 1) / (d (n-1)) forces the optimum up on small grids
    assert sc_star_bruteforce(grid_hyperplane(2, 2)) >= (2**2 - 1) / (2 * 1)
    assert sc_star_bruteforce(grid_hyperplane(2, 3)) >= (2**3 - 1) / (3 * 1)


def test_sc_star_matches_reference():
    rng = np.random.default_rng(13)
    for _ in range(12):
        S = random_distinct_matrix(rng, max_rows=6, max_cols=5)
        assert sc_star_bruteforce(S) == brute_sc_star(S)


def test_sc_star_limits():
    rng = np.random.default_rng(14)
    big = distinct_rows(
        SignMatrix(rng.choice((-1, 1), size=(40, 12)).astype(np.int8))
    )
    if big.n_rows > 8:
        with pytest.raises(SizeLimitError):
            sc_star_bruteforce(big)
    with pytest.raises(ValueError):
        sc_star_bruteforce(SignMatrix([[1, 1], [1, 1]]))


def test_haussler_packing_limit():
    assert haussler_packing_limit(1, 0.5) == pytest.approx(8 * math.e**2)
    assert haussler_packing_limit(1, 0.5) == pytest.approx(59.112, abs=5e-4)
    assert haussler_packing_limit(0, 0.123) == pytest.approx(math.e)
    assert haussler_packing_limit(2, 0.5) == pytest.approx(48 * math.e**3)
    assert haussler_packing_limit(2, 0.5) == pytest.approx(964.10, abs=5e-2)
    with pytest.raises(ValueError):
        haussler_packing_limit(2, 0.0)
    with pytest.raises(ValueError):
        haussler_packing_limit(-1, 0.5)


def reference_welzl(S, rng):
    """The greedy with Python-int weights: the weight of a pair is the sum of
    2^e_j over the columns where it differs, e_j counting how often column j
    was crossed. Same tie order (row-major over u < v) and RNG draws as
    welzl_path."""
    rows = S.row_tuples()
    n, m = S.n_rows, S.n_cols
    e = [0] * m
    comp = list(range(n))
    edges, xs = [], []
    for _ in range(n - 1):
        best, ties = None, []
        for u in range(n):
            for v in range(u + 1, n):
                if comp[u] == comp[v]:
                    continue
                w = sum(1 << e[j] for j in range(m) if rows[u][j] != rows[v][j])
                if best is None or w < best:
                    best, ties = w, [(u, v)]
                elif w == best:
                    ties.append((u, v))
        u, v = ties[rng.integers(len(ties))]
        crossed = [j for j in range(m) if rows[u][j] != rows[v][j]]
        xs.append(sum(1 << e[j] for j in crossed) / sum(1 << k for k in e))
        for j in crossed:
            e[j] += 1
        old = comp[v]
        comp = [comp[u] if c == old else c for c in comp]
        edges.append((u, v))
    first = {}
    for r in stabbing._euler_circuit_doubled(n, edges):
        first.setdefault(r, len(first))
    return edges, xs, tuple(sorted(first, key=first.get)), e


def oracle_instances():
    rng = np.random.default_rng(21)
    mats = [random_distinct_matrix(rng, max_rows=12, max_cols=8) for _ in range(12)]
    mats += [
        projective_incidence(2),
        projective_incidence(3),
        grid_hyperplane(3, 2),
        # a constant column, which never enters any pair weight
        SignMatrix([[1, 1, -1], [1, -1, 1], [1, -1, -1], [1, 1, 1]]),
    ]
    return [S for S in mats if S.n_rows > 1]


def check_against_oracle(S, seed):
    ordering, state = welzl_path(S, np.random.default_rng(seed), d=2)
    edges, xs, perm, e = reference_welzl(S, np.random.default_rng(seed))
    assert state.forest_edges == edges
    assert state.x_log == xs
    assert ordering.permutation == perm
    total = sum(1 << k for k in e)
    assert state.p.tolist() == [(1 << k) / total for k in e]


def test_welzl_matches_exact_oracle():
    for k, S in enumerate(oracle_instances()):
        check_against_oracle(S, k)


def test_welzl_matches_exact_oracle_past_float_limit(monkeypatch):
    """With the float64 ceiling forced low, the greedy rebases and then
    moves to Python-int weights, and must still agree with the oracle."""
    shifts, switches = [], []
    rebase, to_exact = stabbing._PairWeights._rebase, stabbing._PairWeights._to_exact

    def spy_rebase(self):
        before = self.base
        rebase(self)
        shifts.append(self.base - before)

    def spy_to_exact(self):
        switches.append(self.base)
        to_exact(self)

    monkeypatch.setattr(stabbing._PairWeights, "_rebase", spy_rebase)
    monkeypatch.setattr(stabbing._PairWeights, "_to_exact", spy_to_exact)
    for limit in (2**3, 2**5, 2**8):
        monkeypatch.setattr(stabbing, "_EXACT_LIMIT", limit)
        for k, S in enumerate(oracle_instances()):
            check_against_oracle(S, k)
    assert any(shift > 0 for shift in shifts)
    assert switches


def test_welzl_edges_do_not_depend_on_blas_threads():
    """Exact tie sets: one and two BLAS threads give the same trees."""
    code = (
        "import json, numpy as np\n"
        "from signrank import distinct_rows, interval_class, projective_incidence, welzl_path\n"
        "mats = [projective_incidence(5), distinct_rows(interval_class(3).matrix)]\n"
        "edges = [welzl_path(S, np.random.default_rng(3), d=2)[1].forest_edges for S in mats]\n"
        "print(json.dumps(edges))\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(stabbing.__file__)))
    runs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        done = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True,
            timeout=120, check=True,
        )
        runs.append(json.loads(done.stdout))
    assert runs[0] == runs[1]
    assert all(len(edges) > 0 for edges in runs[0])


def test_analyze_bytes_do_not_depend_on_blas_threads(tmp_path):
    """The hinge search decides the upper end of both brackets; one and two
    BLAS threads give byte-identical analyze reports."""
    paths = []
    for name, S in (
        ("grid-5x2", grid_hyperplane(5, 2)),
        ("heavy-free", heavy_dominant_free_random(16, 3, np.random.default_rng(0))),
    ):
        paths.append(tmp_path / f"{name}.txt")
        paths[-1].write_text(S.to_text())
    src = os.path.dirname(os.path.dirname(os.path.abspath(stabbing.__file__)))
    runs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        runs.append([
            subprocess.run(
                [sys.executable, "-m", "signrank", "analyze", str(path)], env=env,
                capture_output=True, timeout=120, check=True,
            ).stdout
            for path in paths
        ])
    assert runs[0] == runs[1]
    assert all(b'"factorization"' in report for report in runs[0])


def test_low_stabbing_order_dispatch():
    S = signed_identity(5)
    ordering, method, state = low_stabbing_order(S, np.random.default_rng(0), 1)
    assert (ordering, method, state) == (vc1_path(S), "vc1", None)
    G = grid_hyperplane(3, 2)
    ordering, method, state = low_stabbing_order(G, np.random.default_rng(4), 2)
    expected, expected_state = welzl_path(G, np.random.default_rng(4), d=2)
    assert (ordering, method) == (expected, "welzl")
    assert state.forest_edges == expected_state.forest_edges
