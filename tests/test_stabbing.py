import hashlib
import itertools
import json
import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest

from signrank import stabbing
from signrank import (
    SignMatrix,
    SizeLimitError,
    count_sign_changes,
    disjointness,
    distinct_rows,
    grid_hyperplane,
    hamming_ball,
    heavy_dominant_free_random,
    interval_class,
    line_subset_random,
    low_stabbing_order,
    projective_incidence,
    sc_star_bruteforce,
    signed_identity,
    vc1_path,
    vc_dimension,
    welzl_path,
)
from testutil import (
    SORTABLE_VC2,
    random_distinct_matrix,
    random_tree_vc1_matrix,
    random_vc1_matrix,
)


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
    # one row: no consecutive pair, so no column changes sign
    one = count_sign_changes(SignMatrix([[1, -1, 1]]), (0,))
    assert (one.sign_changes, one.max_sign_changes) == ((0, 0, 0), 0)


def test_count_sign_changes_signed_identity():
    ordering = count_sign_changes(signed_identity(3), (0, 1, 2))
    assert ordering.sign_changes == (1, 2, 1)
    assert ordering.max_sign_changes == 2


def test_count_sign_changes_rejects_bad_permutation():
    with pytest.raises(ValueError):
        count_sign_changes(signed_identity(3), (0, 1))
    with pytest.raises(ValueError):
        count_sign_changes(signed_identity(3), (0, 1, 1))


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
    _, state = welzl_path(P, np.random.default_rng(5))
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


def test_welzl_refuses_tables_it_cannot_hold():
    """The greedy's n x n tables are refused past 16 MAX_CELLS cells, before
    anything grows with them: interval_class(17) has 47279 distinct rows."""
    S = interval_class(17).matrix
    start = time.perf_counter()
    with pytest.raises(SizeLimitError, match="47279 x 47279"):
        welzl_path(S, np.random.default_rng(0))
    assert time.perf_counter() - start < 1.0


def test_welzl_table_cap_boundary(monkeypatch):
    """With 16 cells allowed, four distinct rows run and five are refused."""
    monkeypatch.setattr(stabbing, "MAX_CELLS", 1)
    ordering, _ = welzl_path(signed_identity(4), np.random.default_rng(0))
    assert ordering.max_sign_changes == 2
    with pytest.raises(SizeLimitError):
        welzl_path(signed_identity(5), np.random.default_rng(0))


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


def chain(n):
    """Threshold matrix: row i is +1 on the columns before i, so the row
    order 0, 1, ..., n-1 has one sign change per column."""
    return np.where(np.arange(n - 1)[None, :] < np.arange(n)[:, None], 1, -1).astype(np.int8)


def test_vc1_path_is_optimal():
    # a shuffled 8-row chain, which still has an order with one change per
    # column
    shuffled = SignMatrix(chain(8)[[6, 5, 7, 2, 3, 4, 0, 1]])
    assert vc1_path(shuffled).max_sign_changes == 1
    rng = np.random.default_rng(15)
    for trial in range(120):
        if trial % 3 == 0:
            n = int(rng.integers(2, 9))
            S = SignMatrix(chain(n)[rng.permutation(n)] * rng.choice((-1, 1), size=n - 1))
        else:
            S = random_tree_vc1_matrix(rng)
        assert vc_dimension(S) <= 1
        assert vc1_path(S).max_sign_changes == sc_star_bruteforce(S)


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


def reference_welzl(S, rng):
    """The greedy with Python-int weights: the weight of a pair is the sum of
    2^e_j over the columns where it differs, e_j counting how often column j
    was crossed. Same tie order (row-major over u < v) and RNG draws as
    welzl_path, and the rows in preorder of the tree from the first row of
    the first edge, children in edge order."""
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
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    perm = []

    def visit(r, parent):
        perm.append(r)
        for c in adj[r]:
            if c != parent:
                visit(c, r)

    visit(edges[0][0], None)
    return edges, xs, tuple(perm), e


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
    ordering, state = welzl_path(S, np.random.default_rng(seed))
    edges, xs, perm, e = reference_welzl(S, np.random.default_rng(seed))
    assert state.forest_edges == edges
    assert state.x_log == xs
    assert ordering.permutation == perm
    total = sum(1 << k for k in e)
    assert state.p.tolist() == [(1 << k) / total for k in e]


def test_welzl_matches_exact_oracle():
    for k, S in enumerate(oracle_instances()):
        check_against_oracle(S, k)


def test_welzl_preorder_takes_children_in_edge_order():
    """Hand-built tree: row 2 differs from row 3 in column 0, from row 1 in
    columns 1-2, and row 0 from row 3 in columns 3-5. Each greedy step has
    one lightest pair, giving edges (2, 3), (1, 2), (0, 3) in that order.
    Children in edge order give 2, 3, 0, 1; reversed child order would give
    2, 1, 3, 0, breadth-first order 2, 3, 1, 0."""
    S = SignMatrix(
        [
            [-1, 1, 1, -1, -1, -1],
            [1, -1, -1, 1, 1, 1],
            [1, 1, 1, 1, 1, 1],
            [-1, 1, 1, 1, 1, 1],
        ]
    )
    ordering, state = welzl_path(S, np.random.default_rng(0))
    assert state.forest_edges == [(2, 3), (1, 2), (0, 3)]
    assert ordering.permutation == (2, 3, 0, 1)
    assert reference_welzl(S, np.random.default_rng(0))[2] == (2, 3, 0, 1)


def live_pair_weights(weights):
    """Weight of every live pair u < v (rows in different components) of a
    `_PairWeights`, recomputed from scratch as Python ints in units of
    2^base: the sum of 2^(e_j - base) over the columns where u and v differ.
    Keyed by the flat index u * n + v."""
    X = weights.XT.T
    n = len(X)
    return {
        u * n + v: sum(1 << int(weights.e[j] - weights.base) for j in np.flatnonzero(X[u] != X[v]))
        for u in range(n)
        for v in range(u + 1, n)
        if weights.comp[u] != weights.comp[v]
    }


def spy_on_ties(monkeypatch):
    """Check every ties() answer against the lightest pairs recomputed over
    all live pairs, not just the candidates, and at each sync, when the
    candidate weights are brought up to date, every candidate weight against
    its recomputed value; returns one record per ties() call: the weight
    mode, the base, how many levels the call admitted, how many candidates
    there were before it and whether it synced."""
    ties, sync = stabbing._PairWeights.ties, stabbing._PairWeights._sync
    calls, syncs = [], []

    def spy_sync(self):
        sync(self)
        live = live_pair_weights(self)
        candidates = (self.u * len(self.comp) + self.v).tolist()
        assert len(set(candidates)) == len(candidates)
        assert all(live[i] == w for i, w in zip(candidates, self.w.tolist()))
        syncs.append(True)

    def spy(self):
        levels, had, synced = len(self.levels), len(self.w), len(syncs)
        picked = ties(self)
        live = live_pair_weights(self)
        least = min(live.values())
        assert picked.tolist() == sorted(i for i, w in live.items() if w == least)
        calls.append(dict(exact=self.exact, base=self.base, admitted=levels - len(self.levels), had=had,
                          synced=len(syncs) > synced))
        return picked

    monkeypatch.setattr(stabbing._PairWeights, "_sync", spy_sync)
    monkeypatch.setattr(stabbing._PairWeights, "ties", spy)
    return calls


def test_welzl_matches_exact_oracle_past_float_limit(monkeypatch):
    """With the float64 ceiling forced low, the greedy rebases and then
    moves to Python-int weights, and must still agree with the oracle;
    ties() offers exactly the lightest live pairs in both modes."""
    calls = spy_on_ties(monkeypatch)
    for limit in (2**3, 2**5, 2**8, 2**52):
        monkeypatch.setattr(stabbing, "_EXACT_LIMIT", limit)
        for k, S in enumerate(oracle_instances()):
            check_against_oracle(S, k)
    assert any(call["base"] > 0 for call in calls if not call["exact"])
    assert {call["exact"] for call in calls} == {False, True}


def test_welzl_matches_exact_oracle_in_both_update_paths(monkeypatch):
    """Float weights are updated by gathering the candidates' columns, or
    by one n x n product when that has fewer cells; both must give the
    oracle's trees."""
    diff_sums = stabbing._PairWeights._diff_sums
    dense = set()

    def spy(self, u, v, cols, w):
        if not self.exact:
            dense.add(len(u) * len(cols) > len(self.comp) ** 2)
        return diff_sums(self, u, v, cols, w)

    monkeypatch.setattr(stabbing._PairWeights, "_diff_sums", spy)
    spy_on_ties(monkeypatch)
    for k, S in enumerate(oracle_instances()):
        check_against_oracle(S, k)
    assert dense == {False, True}


@pytest.mark.parametrize("cells", [1, 7, 40])
def test_welzl_matches_exact_oracle_across_blocks(monkeypatch, cells):
    """Candidate weights updated in blocks of a few candidates, each block
    choosing the gathered or the dense update for its own size, must still
    give the oracle's trees, in float mode and past the forced-low float64
    ceilings: each candidate's sum depends on that pair alone."""
    diff_sums = stabbing._PairWeights._diff_sums

    def blocked(self, u, v, cols, w):
        starts = range(0, len(u), cells)
        if not starts:
            return diff_sums(self, u, v, cols, w)
        return np.concatenate([diff_sums(self, u[i:i + cells], v[i:i + cells], cols, w) for i in starts])

    monkeypatch.setattr(stabbing._PairWeights, "_diff_sums", blocked)
    calls = spy_on_ties(monkeypatch)
    for limit in (stabbing._EXACT_LIMIT, 2**3, 2**5, 2**8):
        monkeypatch.setattr(stabbing, "_EXACT_LIMIT", limit)
        for k, S in enumerate(oracle_instances()):
            check_against_oracle(S, k)
    assert {call["exact"] for call in calls} == {False, True}


def test_welzl_admits_a_deeper_level_mid_run(monkeypatch):
    """Rows 0-1 and 2-3 differ in column 0 alone, rows 0-2 and 1-3 in
    columns 1-2. After the first join doubles column 0, the other distance-1
    pair weighs 2, exactly L(2) = 1 + 1: the distance-2 pairs must be
    admitted mid-run and tie with it."""
    S = SignMatrix([[1, 1, 1], [-1, 1, 1], [1, -1, -1], [-1, -1, -1]])
    calls = spy_on_ties(monkeypatch)
    for seed in range(8):
        check_against_oracle(S, seed)
    assert any(call["admitted"] and call["had"] for call in calls)


def test_welzl_projective_plane_admits_every_pair_at_once(monkeypatch):
    """Any two lines of a projective plane differ in 2p points, so all pairs
    lie at one distance and are candidates from the first step."""
    calls = spy_on_ties(monkeypatch)
    for seed in range(3):
        check_against_oracle(projective_incidence(3), seed)
    assert [call["admitted"] for call in calls[:12]] == [1] + [0] * 11
    assert calls[0]["had"] == 0


def test_welzl_admits_few_pairs_on_intervals(monkeypatch):
    """On interval_class(3) (92 rows) the greedy admits under a tenth of the
    4186 pairs (175 at seed 0), so a fallback to all pairs would fail here.
    Pairs are admitted only at a sync, after the dead candidates are
    dropped."""
    sync = stabbing._PairWeights._sync
    admitted = []

    def spy(self):
        live = int((self.comp[self.u] != self.comp[self.v]).sum())
        sync(self)
        admitted.append(len(self.w) - live)

    monkeypatch.setattr(stabbing._PairWeights, "_sync", spy)
    S = distinct_rows(interval_class(3).matrix)
    welzl_path(S, np.random.default_rng(0))
    assert sum(admitted) < S.n_rows * (S.n_rows - 1) // 2 // 10


def test_welzl_syncs_once_per_tie_set_on_intervals(monkeypatch):
    """On interval_class(5) (497 rows) the lightest tie set lasts many
    steps: 17 tie sets cover the 496 steps at seed 0, and the candidate
    weights are brought up to date only when a set runs out, so the syncs
    stay far below the steps."""
    sync = stabbing._PairWeights._sync
    syncs = []

    def spy(self):
        sync(self)
        syncs.append(len(self.tie))

    monkeypatch.setattr(stabbing._PairWeights, "_sync", spy)
    ordering, state = welzl_path(interval_class(5).matrix, np.random.default_rng(0))
    assert len(state.forest_edges) == 496
    assert len(syncs) <= 2 * 17
    assert sum(syncs) >= 496  # every step drew from a set found at some sync


def test_welzl_carried_ties_lose_pairs_to_both_filters(monkeypatch):
    """On grid_hyperplane(3, 2) at seed 2 one step drops a tie pair that
    now lies inside one component but agrees on the crossed columns, and
    another that lies across components but differs in a crossed column,
    and keeps the rest: the carried set must still be exactly the lightest
    live pairs, and the tree the oracle's."""
    double = stabbing._PairWeights.double
    drops = []

    def spy(self, crossed):
        tie, n = self.tie.copy(), len(self.comp)
        x = double(self, crossed)
        tu, tv = np.divmod(tie, n)
        inside = self.comp[tu] == self.comp[tv]
        differ = (self.XT[crossed][:, tu] != self.XT[crossed][:, tv]).any(axis=0)
        drops.append((int((inside & ~differ).sum()), int((differ & ~inside).sum()), len(self.tie)))
        return x

    monkeypatch.setattr(stabbing._PairWeights, "double", spy)
    calls = spy_on_ties(monkeypatch)
    check_against_oracle(grid_hyperplane(3, 2), 2)
    assert any(inside and differ and kept for inside, differ, kept in drops)
    assert not all(call["synced"] for call in calls)


def test_int_pair_weights_past_float_range():
    """Past 2^1024 a Python int no longer converts to float: the weights,
    L(h) and the admission test must stay Python ints. Rows 0-1 differ in
    column 0 (w = 2^1102), rows 0-2 in columns 1-2 (2^1100 each), so
    L(2) = 2^1101 and the first ties() admits distance 2 as well."""
    S = SignMatrix([[1, 1, 1], [-1, 1, 1], [1, -1, -1]])
    weights = stabbing._PairWeights(S)
    weights.exact = True
    weights.e[:] = (1102, 1100, 1100)
    weights.total = (1 << 1102) + (1 << 1101)
    assert weights.ties().tolist() == [2]  # the pair (0, 2)
    assert weights.levels == [3]
    weights.join(0, 2)
    assert weights.double(np.array([1, 2])) == 1 / 3
    assert weights.ties().tolist() == [1]
    assert weights.w.tolist() == [1 << 1102]  # the pair (0, 1), up to date after the sync


# sha256 of the JSON of (forest_edges, x_log, permutation) from welzl_path,
# recorded before the candidate-pair weights replaced the dense n x n update
GOLDEN = {
    ("interval_class(5)", 0): "e5d54f553e1db931d812524ee25ba57bae86d6ea4807b07a722d3a1f74a6d0eb",
    ("interval_class(5)", 11): "135572d50209213b991290e2e354329a8fff6f0bb50bc74fd298264d1da0bfb5",
    ("grid_hyperplane(16, 2)", 0): "cd49d708a8950a65dc8b9053d3bc49621823d005eee79c65d80ccf303fab7f0a",
    ("grid_hyperplane(16, 2)", 11): "9351479384e859a664491e2d6a55bcbf5145cf70e83b9afd7be54704f4e40e2d",
    ("hamming_ball(14, 2)", 0): "90dcc37b5082517713970e8d58c53d474be7bc7a27f2466d7ce336b61ca0ae65",
    ("hamming_ball(14, 2)", 11): "49d3f458612aa2713764e33b565680a35fe012f0fa81b69af945ff484b8a1bde",
    ("distinct interval_class(3)", 0): "c5347bbed81c1aad018922f0af5bef979178bd3e14870c852ef18609df9daf7e",
    ("distinct interval_class(3)", 11): "5f19fe9063b22b7f41799123e13d4c82f8b30c6c4a3c0adfcd954f39d3dcf44b",
    ("grid_hyperplane(6, 3)", 0): "400b63838d2a2f8f31e4c383b416f92ce1d38355194d15e34a097594b12b07c0",
    ("grid_hyperplane(6, 3)", 11): "915f927958b0b73ecc01fbb626be4935bae6b0097f93c02d6b2bb159532353b4",
}


def test_welzl_golden_outputs():
    mats = {
        "interval_class(5)": interval_class(5).matrix,
        "grid_hyperplane(16, 2)": grid_hyperplane(16, 2),
        "hamming_ball(14, 2)": hamming_ball(14, 2).matrix,
        "distinct interval_class(3)": distinct_rows(interval_class(3).matrix),
        "grid_hyperplane(6, 3)": grid_hyperplane(6, 3),
    }
    found = {}
    for (name, seed) in GOLDEN:
        ordering, state = welzl_path(mats[name], np.random.default_rng(seed))
        blob = json.dumps([[list(e) for e in state.forest_edges], state.x_log, list(ordering.permutation)])
        found[name, seed] = hashlib.sha256(blob.encode()).hexdigest()
    assert found == GOLDEN


def test_welzl_edges_do_not_depend_on_blas_threads():
    """Exact tie sets: one and two BLAS threads give the same trees, also
    through the float32 Hamming product and the admission of several
    distance levels (interval_class(5), 497 rows). The VC dimension and
    dual sign rank agree too."""
    code = (
        "import json, numpy as np\n"
        "from signrank import distinct_rows, dual_sign_rank, grid_hyperplane,"
        " interval_class, projective_incidence, vc_dimension, welzl_path\n"
        "mats = [projective_incidence(5), distinct_rows(interval_class(3).matrix),"
        " grid_hyperplane(6, 3), interval_class(5).matrix]\n"
        "edges = [welzl_path(S, np.random.default_rng(3))[1].forest_edges for S in mats]\n"
        "ranks = [(vc_dimension(S), dual_sign_rank(S)) for S in"
        " (interval_class(5).matrix, projective_incidence(7))]\n"
        "print(json.dumps([edges, ranks]))\n"
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
    assert all(len(edges) > 0 for edges in runs[0][0])
    assert runs[0][1] == [[2, 5], [2, 5]]


def test_analyze_bytes_do_not_depend_on_blas_threads(tmp_path):
    """The hinge search decides the upper end of both brackets; one and two
    BLAS threads give byte-identical analyze reports."""
    paths = []
    for name, S in (
        ("line-subset-3", line_subset_random(3, np.random.default_rng(1))),
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
    ordering, method, state = low_stabbing_order(S, np.random.default_rng(0))
    assert (ordering, method, state) == (vc1_path(S), "vc1", None)
    G = grid_hyperplane(3, 2)
    ordering, method, state = low_stabbing_order(G, np.random.default_rng(4))
    expected, expected_state = welzl_path(G, np.random.default_rng(4))
    assert (ordering, method) == (expected, "welzl")
    assert state.forest_edges == expected_state.forest_edges


def test_low_stabbing_order_sorts_a_vc2_matrix():
    """The sort, not the VC dimension, picks the VC-1 path: two changes per
    column are optimal whatever the VC dimension."""
    S = SORTABLE_VC2
    assert vc_dimension(S) == 2
    ordering, method, state = low_stabbing_order(S, np.random.default_rng(0))
    assert (method, state) == ("vc1", None)
    assert ordering.sign_changes == (1, 1, 1, 1, 2)
    assert ordering == vc1_path(S)
    assert sc_star_bruteforce(S) == 2


def test_low_stabbing_order_vc1_method_is_optimal():
    """Method "vc1" always reaches the optimum over all row orders, and
    method "welzl" only runs at VC dimension 2 or more."""
    rng = np.random.default_rng(17)
    methods = set()
    for _ in range(150):
        S = random_distinct_matrix(rng, max_rows=7, max_cols=5)
        ordering, method, _ = low_stabbing_order(S, rng)
        methods.add(method)
        if method == "vc1":
            assert ordering.max_sign_changes == sc_star_bruteforce(S)
        else:
            assert vc_dimension(S) >= 2
    assert methods == {"vc1", "welzl"}
