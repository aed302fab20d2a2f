import itertools
import math

import numpy as np
import pytest

from signrank import (
    ConceptClass,
    SignMatrix,
    SizeLimitError,
    disjointness,
    dual_sign_rank,
    grid_hyperplane,
    hamming_ball,
    interval_class,
    is_antipodally_shattered,
    cube_connected,
    is_maximum_class,
    is_shattered,
    projective_incidence,
    sauer_bound,
    signed_identity,
    signrank_bracket,
    vc_dimension,
)
from signrank import vc
from testutil import random_distinct_matrix, random_sign_matrix


def brute_shattered(S, cols):
    """Independent set-based shattering check."""
    pats = {tuple(r[c] for c in cols) for r in S.row_tuples()}
    return all(v in pats for v in itertools.product((1, -1), repeat=len(cols)))


def brute_antipodal(S, cols):
    pats = {tuple(r[c] for c in cols) for r in S.row_tuples()}
    return all(
        v in pats or tuple(-x for x in v) in pats
        for v in itertools.product((1, -1), repeat=len(cols))
    )


def brute_dual_sign_rank(S):
    best = 0
    for k in range(1, S.n_cols + 1):
        if any(
            brute_antipodal(S, c) for c in itertools.combinations(range(S.n_cols), k)
        ):
            best = k
    return best


def test_is_shattered_examples():
    assert not is_shattered(signed_identity(4), (1, 2))  # pattern (+,+) missing
    D = disjointness(2)  # columns: 0 = {}, 1 = {1}, 2 = {2}, 3 = {1,2}
    assert is_shattered(D, (1, 2))
    assert brute_shattered(D, (1, 2))
    assert not is_shattered(SignMatrix.constant(5, 3, 1), (0,))


def test_is_shattered_validation():
    S = signed_identity(3)
    with pytest.raises(IndexError):
        is_shattered(S, (0, 3))
    with pytest.raises(ValueError):
        is_shattered(S, ())
    with pytest.raises(ValueError):
        is_shattered(S, (1, 1))


def test_vc_dimension_examples():
    assert vc_dimension(signed_identity(4)) == 1
    assert vc_dimension(projective_incidence(3, 2)) == 2
    assert vc_dimension(SignMatrix.constant(4, 4, 1)) == 0


def test_antipodal_examples():
    D = disjointness(2)
    assert is_antipodally_shattered(D, (0, 1, 2))
    assert brute_antipodal(D, (0, 1, 2))
    assert not is_antipodally_shattered(D, (1, 2, 3))
    assert not brute_antipodal(D, (1, 2, 3))
    rng = np.random.default_rng(11)
    for _ in range(10):
        S = random_sign_matrix(rng, int(rng.integers(1, 6)), int(rng.integers(1, 6)))
        c = int(rng.integers(0, S.n_cols))
        assert is_antipodally_shattered(S, (c,))


def test_dual_sign_rank_examples():
    assert dual_sign_rank(disjointness(2)) == 3
    eye4 = signed_identity(4)
    assert dual_sign_rank(eye4) == 3
    assert brute_dual_sign_rank(eye4) == 3
    for n in range(1, 6):
        assert dual_sign_rank(SignMatrix.constant(n, n, 1)) == 1


def test_dual_sign_rank_matches_bruteforce():
    rng = np.random.default_rng(5)
    for _ in range(40):
        S = random_distinct_matrix(rng, max_rows=7, max_cols=6)
        assert dual_sign_rank(S) == brute_dual_sign_rank(S)


def test_sauer_bound():
    assert sauer_bound(13, 2) == 92
    assert sauer_bound(5, 1) == 6
    for n in range(7):
        assert sauer_bound(n, n) == 2**n
    with pytest.raises(ValueError):
        sauer_bound(3, 4)
    with pytest.raises(ValueError):
        sauer_bound(3, -1)


def test_is_maximum_class():
    assert is_maximum_class(hamming_ball(5, 1), 1)
    assert is_maximum_class(interval_class(3), 2)
    full_cube = hamming_ball(3, 3)
    assert not is_maximum_class(full_cube, 2)  # 8 rows != 7
    assert is_maximum_class(full_cube, 3)


def test_is_maximum_class_needs_the_sauer_size(monkeypatch):
    """A class of VC dimension d is not maximum when its size is off the
    Sauer bound, and no d outside 0..n is; neither case searches."""
    ball = hamming_ball(4, 2)
    short = ConceptClass(SignMatrix(ball.matrix.entries[1:]))  # the empty set left out
    assert vc_dimension(short.matrix) == 2
    monkeypatch.setattr(vc, "vc_dimension", lambda S: pytest.fail("searched"))
    assert not is_maximum_class(short, 2)
    assert not is_maximum_class(ball, -1)
    assert not is_maximum_class(ball, 5)


def test_is_cube_connected():
    """A class is cube connected when the masks of its rows (bit j set where
    column j is +1) are; the complement convention gives the same answer."""

    def row_masks(C):
        return {sum(1 << j for j, v in enumerate(row) if v > 0) for row in C.matrix.row_tuples()}

    assert cube_connected(row_masks(hamming_ball(3, 1)), 3)
    assert not cube_connected(row_masks(ConceptClass(SignMatrix([[1, 1], [-1, -1]]))), 2)


def test_cube_connected_vertex_sets():
    assert cube_connected({0b00, 0b01, 0b11}, 2)
    assert not cube_connected({0b00, 0b11}, 2)
    assert cube_connected({0b101}, 3)
    # the masks of hamming_ball(3, 1): the origin and its three neighbours
    assert cube_connected({0, 1, 2, 4}, 3)
    # 0b000 and 0b100 differ in bit 2, which a 2-bit cube does not have
    assert not cube_connected({0b000, 0b100}, 2)


def test_dual_sign_rank_runs_no_vc_search(monkeypatch):
    """Without `vc` the dual search runs no VC search, and its value equals
    the VC-capped one. On signed_identity(100) (dual 3 = 2 vc + 1) the
    search must stop before size 4, whose C(100, 4) subsets hold no witness
    and exceed the budget; on disjointness(6), whose VC search is refused,
    it finds the antipodally shattered 7-set."""
    rng = np.random.default_rng(31)
    cases = [disjointness(3), hamming_ball(6, 1).matrix, projective_incidence(3)]
    cases += [signed_identity(100), grid_hyperplane(4, 2)]
    for _ in range(30):
        cases.append(random_sign_matrix(rng, int(rng.integers(1, 11)), int(rng.integers(1, 8))))
    original = vc.vc_dimension
    calls = []
    monkeypatch.setattr(vc, "vc_dimension", lambda S: calls.append(S) or original(S))
    for S in cases:
        calls.clear()
        dual = dual_sign_rank(S)
        assert calls == []
        assert dual == dual_sign_rank(S, vc=original(S))
    assert dual_sign_rank(disjointness(6)) == 7
    assert calls == []


def test_sandwich_property():
    rng = np.random.default_rng(17)
    for _ in range(60):
        S = random_sign_matrix(rng, int(rng.integers(1, 11)), int(rng.integers(1, 11)))
        vc = vc_dimension(S)
        dual = dual_sign_rank(S)
        assert vc <= dual <= 2 * vc + 1


def test_monotone_under_row_removal():
    rng = np.random.default_rng(23)
    for _ in range(25):
        S = random_distinct_matrix(rng, max_rows=7, max_cols=6)
        if S.n_rows < 2:
            continue
        drop = int(rng.integers(0, S.n_rows))
        keep = [i for i in range(S.n_rows) if i != drop]
        T = SignMatrix(S.entries[keep])
        assert vc_dimension(T) <= vc_dimension(S)
        assert dual_sign_rank(T) <= dual_sign_rank(S)


def test_distinct_row_count_respects_sauer():
    rng = np.random.default_rng(29)
    for _ in range(30):
        S = random_distinct_matrix(rng, max_rows=8, max_cols=8)
        assert S.n_rows <= sauer_bound(S.n_cols, vc_dimension(S))


def test_shattered_implies_antipodally_shattered():
    rng = np.random.default_rng(31)
    checked = 0
    for _ in range(60):
        S = random_sign_matrix(rng, int(rng.integers(2, 9)), int(rng.integers(2, 7)))
        k = int(rng.integers(1, min(3, S.n_cols) + 1))
        cols = tuple(sorted(rng.choice(S.n_cols, size=k, replace=False)))
        if is_shattered(S, cols):
            assert is_antipodally_shattered(S, cols)
            checked += 1
    assert checked > 0


def _shattered_block(first: int) -> SignMatrix:
    """32 rows over 64 columns that shatter columns first..first+4 and are
    constant elsewhere."""
    rows = []
    for pattern in range(32):
        row = [-1] * 64
        for i in range(5):
            row[first + i] = 1 if (pattern >> i) & 1 else -1
        rows.append(row)
    return SignMatrix(rows)


def test_vc_dimension_size_limit(monkeypatch):
    # The shattered block sits on columns 59..63, the last 5-subset in
    # lexicographic order. With the budget at C(64, 4), size 4 is searched
    # in full (its witness comes late but within budget) and size 5 runs
    # out of budget before it reaches its only witness.
    monkeypatch.setattr(vc, "SUBSET_BUDGET", math.comb(64, 4))
    with pytest.raises(SizeLimitError, match=f"examined {math.comb(64, 4)} of"):
        vc_dimension(_shattered_block(59))


def test_vc_dimension_early_witness_within_budget():
    # C(64, 5) > 2e6 subsets, but the witness on columns 0..4 is the first
    # 5-subset examined, so the work-counted budget is never reached.
    assert vc_dimension(_shattered_block(0)) == 5


def test_budget_that_covers_a_whole_level(monkeypatch):
    # A budget that covers every subset is never exceeded, even when the
    # whole size is scanned without a witness: no 2-set of the signed
    # identity is shattered, and it has C(4, 2) = 6 of them.
    monkeypatch.setattr(vc, "SUBSET_BUDGET", 6)
    assert vc_dimension(signed_identity(4)) == 1
    monkeypatch.setattr(vc, "SUBSET_BUDGET", 5)
    with pytest.raises(SizeLimitError, match="examined 5 of 6"):
        vc_dimension(signed_identity(4))


def brute_vc_dimension(S):
    best = 0
    for k in range(1, S.n_cols + 1):
        if any(
            brute_shattered(S, c) for c in itertools.combinations(range(S.n_cols), k)
        ):
            best = k
    return best


def kernel_cases():
    """Random matrices with duplicate rows, single columns, constant
    matrices and fewer than 2^k rows, plus a few fixed families."""
    rng = np.random.default_rng(41)
    cases = [
        SignMatrix.constant(5, 4, 1),
        SignMatrix.constant(3, 1, -1),
        SignMatrix([[1], [-1], [1]]),
        signed_identity(5),
        disjointness(2),
        projective_incidence(2),
        SignMatrix(random_sign_matrix(rng, 6, 9).entries.T),  # column-major
    ]
    for _ in range(40):
        S = random_sign_matrix(rng, int(rng.integers(1, 12)), int(rng.integers(1, 7)))
        dup = rng.integers(0, S.n_rows, size=int(rng.integers(0, 4)))
        cases.append(SignMatrix(np.vstack([S.entries, S.entries[dup]])))
    for _ in range(10):
        cases.append(random_sign_matrix(rng, int(rng.integers(1, 4)), int(rng.integers(3, 7))))
    return cases


def check_kernel_against_brute(S):
    assert vc_dimension(S) == brute_vc_dimension(S)
    assert dual_sign_rank(S) == brute_dual_sign_rank(S)
    assert dual_sign_rank(S, vc=vc_dimension(S)) == brute_dual_sign_rank(S)
    for k in range(1, S.n_cols + 1):
        for cols in itertools.combinations(range(S.n_cols), k):
            assert is_shattered(S, cols) == brute_shattered(S, cols)
            assert is_antipodally_shattered(S, cols) == brute_antipodal(S, cols)


def test_kernel_matches_bruteforce():
    for S in kernel_cases():
        check_kernel_against_brute(S)


@pytest.mark.parametrize("cells", [1, 3, 7])
def test_kernel_matches_bruteforce_in_tiny_batches(monkeypatch, cells):
    # A batch of a few cells holds one or two subsets, so every search
    # crosses many batch boundaries.
    monkeypatch.setattr(vc, "_BATCH_CELLS", cells)
    for S in kernel_cases():
        check_kernel_against_brute(S)


@pytest.mark.parametrize("size", [1, 2, 5, 64])
def test_subsets_in_lexicographic_chunks(size):
    for m in range(1, 8):
        for k in range(1, m + 1):
            chunks = list(vc._subsets(m, k, size))
            assert all(C.shape[1] == k for C in chunks)
            got = [tuple(row) for C in chunks for row in C.tolist()]
            assert got == list(itertools.combinations(range(m), k))
            # batches of 1, 2, 4, ... subsets, capped at size; the last
            # one takes what is left
            want, left, batch = [], len(got), 1
            while left:
                want.append(min(batch, left))
                left -= want[-1]
                batch = min(2 * batch, size)
            assert [len(C) for C in chunks] == want


def test_signrank_bracket_formerly_over_budget():
    # C(57, 5) and C(32, 6) exceed the subset budget, but the witnesses come
    # early in the search, so both get a bracket.
    P = signrank_bracket(projective_incidence(7))
    assert (P.vc, P.dual) == (2, 5)
    assert 5 <= P.bracket[0] <= P.bracket[1]
    D = signrank_bracket(disjointness(5))
    assert (D.vc, D.dual) == (5, 6)
    assert 6 <= D.bracket[0] <= D.bracket[1]


def test_concept_class_requires_distinct_rows():
    with pytest.raises(ValueError):
        ConceptClass(SignMatrix([[1, 1], [1, 1]]))


def test_kernel_keeps_the_budget(monkeypatch):
    # Columns 59..63 are shattered; with the budget at C(64, 2) the pairs
    # are scanned in full, and the C(64, 3) triples exceed it and hold no
    # witness among the first 2016, so they are refused.
    monkeypatch.setattr(vc, "SUBSET_BUDGET", math.comb(64, 2))
    with pytest.raises(SizeLimitError) as refused:
        vc_dimension(_shattered_block(59))
    assert str(refused.value) == (
        f"examined 2016 of {math.comb(64, 3)} column subsets of size 3 without an "
        "answer, the budget of 2016; this input is too large for the exact search"
    )


def test_kernel_decides_a_level_within_budget(monkeypatch):
    # interval_class(5) has VC dimension 2: no triple of its 31 columns is
    # shattered, and C(31, 3) = 4495 triples fit a budget of 4495 exactly.
    S = interval_class(5).matrix
    monkeypatch.setattr(vc, "SUBSET_BUDGET", math.comb(31, 3))
    assert vc_dimension(S) == 2
    monkeypatch.setattr(vc, "SUBSET_BUDGET", math.comb(31, 3) - 1)
    with pytest.raises(SizeLimitError, match="examined 4494 of 4495 column subsets of size 3"):
        vc_dimension(S)


def test_vc1_pair_scan_is_bounded_by_work(monkeypatch):
    # No pair of the 1000 columns is shattered, and every prefix (one
    # column) has a pattern mask of one row, so every pair is passed over
    # with its prefix; the refusal still comes exactly at the budget edge.
    S = signed_identity(1000)
    assert vc_dimension(S) == 1
    assert dual_sign_rank(S, vc=1) == 3
    pairs = math.comb(1000, 2)
    monkeypatch.setattr(vc, "SUBSET_BUDGET", pairs)
    assert vc_dimension(S) == 1
    monkeypatch.setattr(vc, "SUBSET_BUDGET", pairs - 1)
    with pytest.raises(SizeLimitError) as refused:
        vc_dimension(S)
    assert str(refused.value) == (
        f"examined {pairs - 1} of {pairs} column subsets of size 2 without an answer, "
        f"the budget of {pairs - 1}; this input is too large for the exact search"
    )


def first_witness(S, k, antipodal):
    """Lexicographic index of the first k-set of columns that is shattered
    (plainly or antipodally), by brute force, or None."""
    test = brute_antipodal if antipodal else brute_shattered
    combos = itertools.combinations(range(S.n_cols), k)
    return next((i for i, cols in enumerate(combos) if test(S, cols)), None)


def level_answer(S, k, antipodal, budget):
    """What a lexicographic subset scan under `budget` answers for level k:
    whether a witness lies among the first `budget` sets, or the refusal
    message when none does and more sets remain."""
    w, total = first_witness(S, k, antipodal), math.comb(S.n_cols, k)
    if w is not None and w < budget:
        return True
    if total > budget:
        return (
            f"examined {budget} of {total} column subsets of size {k} without an "
            f"answer, the budget of {budget}; this input is too large for the exact search"
        )
    return False


def scanned_answer(S, k, antipodal):
    try:
        return bool(vc._some_shattered(vc._packed(vc._bit_columns(S)), k, antipodal))
    except SizeLimitError as refused:
        return str(refused)


def word_boundary_matrix(rng, rows):
    """`rows` distinct rows over 8 columns, each with at most four -1
    entries, so the all -1 pattern never occurs on a set of five columns and
    rarely on fewer: a padding bit counted as a row would show as one."""
    dense = [r for r in range(1 << 8) if bin(r).count("1") >= 4]
    picked = rng.choice(dense, size=rows, replace=False)
    return SignMatrix(np.where((picked[:, None] >> np.arange(8)) & 1, 1, -1))


@pytest.mark.parametrize("rows", [63, 64, 65, 128, 129])
def test_kernel_on_word_boundaries(rows):
    # Distinct-row counts on either side of one and two 64-bit words; levels
    # past log2(rows) have fewer rows than 2^k patterns.
    rng = np.random.default_rng(rows)
    S = word_boundary_matrix(rng, rows)
    packed = vc._packed(vc._bit_columns(S))
    assert packed[0].shape == (8, -(-rows // 64))
    some = {}
    for k in range(1, 9):
        for antipodal in (False, True):
            some[k, antipodal] = first_witness(S, k, antipodal) is not None
            assert bool(vc._scan(packed, k, antipodal, math.comb(8, k))) == some[k, antipodal]
    assert vc_dimension(S) == max(k for k in range(1, 9) if some[k, False])
    assert dual_sign_rank(S) == max(k for k in range(1, 9) if some[k, True])
    for cols in itertools.combinations(range(8), 4):
        assert is_shattered(S, cols) == brute_shattered(S, cols)
        assert is_antipodally_shattered(S, cols) == brute_antipodal(S, cols)
    stack = np.stack([vc._bit_columns(word_boundary_matrix(rng, rows)) for _ in range(3)])
    dims = [vc_dimension(SignMatrix(2 * b.T - 1)) for b in stack]
    for d in range(1, 5):
        assert vc.vc_at_most(stack, d).tolist() == [dim <= d for dim in dims]


@pytest.mark.parametrize("cells", [None, 1, 5])
def test_scan_matches_bruteforce_at_every_level_and_limit(monkeypatch, cells):
    # Every level k = 1 .. columns, rows fewer than 2^k included, plain and
    # antipodal, and every limit on the sets examined.
    if cells is not None:
        monkeypatch.setattr(vc, "_BATCH_CELLS", cells)
    for S in kernel_cases()[::3]:
        packed = vc._packed(vc._bit_columns(S))
        for k in range(1, S.n_cols + 1):
            for antipodal in (False, True):
                w = first_witness(S, k, antipodal)
                for limit in range(math.comb(S.n_cols, k) + 1):
                    got = bool(vc._scan(packed, k, antipodal, limit))
                    assert got == (w is not None and w < limit), (S.entries, k, antipodal, limit)


def block_matrix(shattered, m=10):
    """All sign patterns on the columns `shattered`, -1 elsewhere: the only
    shattered set of that size is `shattered`."""
    rows = itertools.product((1, -1), repeat=len(shattered))
    out = np.full((1 << len(shattered), m), -1)
    out[:, list(shattered)] = list(rows)
    return SignMatrix(out)


@pytest.mark.parametrize("cells", [None, 1, 7])
def test_budget_edges_inside_pruned_and_live_prefixes(monkeypatch, cells):
    # (0, 2, 3, 4) is the 29th 4-set: the 28 sets before it extend prefixes
    # (0, 1, j), which constant column 1 prunes. (0, 1, 2, 6) is the 4th:
    # the 3 sets before it extend the live prefix (0, 1, 2). Every budget
    # from 1 to C(10, 4) = 210 gives the lexicographic scan's answer, and the
    # same refusal message.
    if cells is not None:
        monkeypatch.setattr(vc, "_BATCH_CELLS", cells)
    cases = [(block_matrix((0, 2, 3, 4)), 28), (block_matrix((0, 1, 2, 6)), 3)]
    for S, witness in cases:
        assert first_witness(S, 4, False) == witness
        for budget in range(1, 211):
            monkeypatch.setattr(vc, "SUBSET_BUDGET", budget)
            assert scanned_answer(S, 4, False) == level_answer(S, 4, False, budget)
    monkeypatch.setattr(vc, "SUBSET_BUDGET", 5)
    with pytest.raises(SizeLimitError, match="examined 5 of 210 column subsets of size 4"):
        vc.vc_at_most(vc._bit_columns(cases[0][0]), 3)
    monkeypatch.setattr(vc, "SUBSET_BUDGET", 29)
    assert not vc.vc_at_most(vc._bit_columns(cases[0][0]), 3)


def test_budget_edges_on_random_levels(monkeypatch):
    rng = np.random.default_rng(59)
    for _ in range(12):
        S = random_sign_matrix(rng, int(rng.integers(4, 17)), int(rng.integers(4, 8)))
        for k in (2, 3, 4):
            for antipodal in (False, True):
                for budget in range(1, math.comb(S.n_cols, k) + 2):
                    monkeypatch.setattr(vc, "SUBSET_BUDGET", budget)
                    assert scanned_answer(S, k, antipodal) == level_answer(S, k, antipodal, budget)


@pytest.mark.parametrize("cells", [1, 6, 40])
def test_vc_at_most_stack_finds_witnesses_in_different_batches(monkeypatch, cells):
    # Each matrix shatters one 3-set only, at lexicographic index 0, 76, 96
    # and 119 of C(10, 3) = 120, and the last shatters none; in tiny batches
    # the witnesses fall in different batches, and a matrix keeps its
    # answer once found.
    monkeypatch.setattr(vc, "_BATCH_CELLS", cells)
    blocks = [(0, 1, 2), (2, 5, 7), (3, 6, 9), (7, 8, 9)]
    stack = [vc._bit_columns(block_matrix(cols)) for cols in blocks]
    stack = np.stack(stack + [vc._bit_columns(SignMatrix(signed_identity(10).entries[:8]))])
    combos = list(itertools.combinations(range(10), 3))
    assert [combos.index(cols) for cols in blocks] == [0, 76, 96, 119]
    want = [brute_vc_dimension(SignMatrix(2 * b.T - 1)) <= 2 for b in stack]
    assert want == [False, False, False, False, True]
    assert vc.vc_at_most(stack, 2).tolist() == want
    assert vc.vc_at_most(stack[::-1], 2).tolist() == want[::-1]


def test_dual_with_vc_refuses_as_the_level_scans(monkeypatch):
    # With `vc` given, sizes up to vc are known to hold a witness, but a
    # size of more sets than the budget is still scanned, and refused when
    # its first witness lies past the budget.
    S = block_matrix((3, 5, 7, 8), m=12)
    vc_S = vc_dimension(S)
    for budget in (1, 5, 12, 40, 66, 70, 200, 220, 495, 496):
        monkeypatch.setattr(vc, "SUBSET_BUDGET", budget)
        want = None
        for k in range(1, min(12, S.n_rows.bit_length(), 2 * vc_S + 1) + 1):
            level = level_answer(S, k, True, budget)
            if level is not True:
                want = k - 1 if level is False else level
                break
        try:
            got = dual_sign_rank(S, vc=vc_S)
        except SizeLimitError as refused:
            got = str(refused)
        assert got == (want if want is not None else min(12, 5, 2 * vc_S + 1))
