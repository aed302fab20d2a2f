import numpy as np
import pytest

from signrank import (
    SignMatrix,
    SizeLimitError,
    enumerate_census,
    is_maximum_class,
    maximum_class_masks,
    sample_census,
    sauer_bound,
    vc_dimension,
)
from signrank import census, vc
from testutil import class_from_mask, one_inclusion_connected


def test_census_n2_d1():
    result = enumerate_census(2, 1)
    assert result.count_exact == 10  # all 2- and 3-subsets of the square
    assert result.count_at_most == 14
    assert result.maximum_count == 4  # the four 3-subsets
    assert result.all_maximum_connected


def test_census_n2_d0():
    result = enumerate_census(2, 0)
    assert result.count_exact == 4  # singletons only
    assert result.maximum_count == 4


def test_census_totals():
    for n in (2, 3):
        total = sum(enumerate_census(n, d).count_exact for d in range(n + 1))
        assert total == 2 ** (2**n) - 1
    # at_most accumulates the exact counts
    assert enumerate_census(3, 1).count_at_most == enumerate_census(
        3, 0
    ).count_exact + enumerate_census(3, 1).count_exact


def test_census_full_cube_is_the_only_top_class():
    for n in (2, 3):
        assert enumerate_census(n, n).count_exact == 1
        assert enumerate_census(n, 0).count_exact == 2**n


def test_census_vc_table_matches_direct_computation():
    rng = np.random.default_rng(2)
    n = 3
    vc_by_d = {d: set(maximum_class_masks(n, d)) for d in range(n + 1)}
    for _ in range(50):
        mask = int(rng.integers(1, 1 << (1 << n)))
        C = class_from_mask(mask, n)
        direct = vc_dimension(C.matrix)
        # membership in maximum masks must agree with the direct predicates
        for d in range(n + 1):
            expected = mask in vc_by_d[d]
            assert expected == (
                direct == d and C.n_rows == sauer_bound(n, d)
            )
            if expected:
                assert is_maximum_class(C, d)


def test_census_vc_table_entries_match_vc_dimension():
    # every class mask for n <= 3, and a sample of the 65535 at n = 4
    rng = np.random.default_rng(3)
    for n in range(1, 5):
        vc, _ = census._census_tables(n)
        masks = range(1, 1 << (1 << n)) if n < 4 else rng.integers(1, 1 << 16, size=300)
        for mask in masks:
            assert vc[mask] == vc_dimension(class_from_mask(int(mask), n).matrix)


def test_maximum_classes_connected_and_sized():
    for n in (2, 3, 4):
        for d in range(n + 1):
            classes = [class_from_mask(mask, n) for mask in maximum_class_masks(n, d)]
            assert all(C.n_rows == sauer_bound(n, d) for C in classes)
            connected = all(one_inclusion_connected(C) for C in classes)
            assert enumerate_census(n, d).all_maximum_connected == connected
            assert connected
    assert [len(maximum_class_masks(4, d)) for d in range(5)] == [16, 400, 400, 16, 1]


def test_one_inclusion_reference_sees_gaps():
    # Opposite corners of the square, and two edges of the 3-cube joined
    # by no third one.
    assert not one_inclusion_connected(class_from_mask(0b1001, 2))
    assert not one_inclusion_connected(class_from_mask(0b11000011, 3))
    assert one_inclusion_connected(class_from_mask(0b1011, 2))


def test_census_rejects_large_n_and_bad_d():
    with pytest.raises(SizeLimitError):
        enumerate_census(5, 2)
    with pytest.raises(ValueError):
        enumerate_census(3, 4)
    with pytest.raises(ValueError):
        enumerate_census(0, 0)


def test_sample_census_degenerate_inputs():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        sample_census(2, 1, 3, 0, rng)
    with pytest.raises(ValueError):
        sample_census(2, 1, 5, 10, rng)


def test_sample_census_refuses_n_zero_and_d_past_n():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError, match="n must be at least 1"):
        sample_census(0, 0, 1, 10, rng)
    with pytest.raises(ValueError, match="d must be between 0 and 3"):
        sample_census(3, 4, 2, 10, rng)


def test_sample_census_trivial_fractions():
    rng = np.random.default_rng(1)
    # d = n: every class qualifies
    est = sample_census(3, 3, 4, 50, rng)
    assert est.fraction == 1.0
    # size-4 classes at n=2: only the full square, which has VC 2
    est = sample_census(2, 1, 4, 20, rng)
    assert est.fraction == 0.0
    est = sample_census(2, 2, 4, 20, rng)
    assert est.fraction == 1.0


def test_sample_census_matches_exhaustive_fraction():
    # at n=2, size=3: all four classes have VC exactly 1, fraction 1 for d>=1
    rng = np.random.default_rng(3)
    est = sample_census(2, 1, 3, 200, rng)
    assert abs(est.fraction - 1.0) <= est.ci_radius
    # size=2: every pair has VC 1, so d=0 fraction is 0
    est = sample_census(2, 0, 2, 200, rng)
    assert abs(est.fraction - 0.0) <= est.ci_radius


def test_sample_census_estimates_n5():
    rng = np.random.default_rng(4)
    est = sample_census(5, 2, 8, 60, rng)
    assert 0.0 <= est.fraction <= 1.0
    assert est.ci_radius > 0
    assert est.samples == 60


def test_census_sizes_count_vertices():
    for n in range(1, 5):
        _, sizes = census._census_tables(n)
        expected = [bin(mask).count("1") for mask in range(1 << (1 << n))]
        assert sizes.dtype == np.int8
        assert sizes.tolist() == expected


def per_sample_successes(n, d, size, samples, seed):
    """The census as one vc_dimension call per drawn class, in draw order."""
    rng = np.random.default_rng(seed)
    successes = 0
    for _ in range(samples):
        vertices = rng.choice(1 << n, size=size, replace=False)
        rows = ((vertices[:, None] >> np.arange(n)[None, :]) & 1) * 2 - 1
        successes += vc_dimension(SignMatrix(rows.astype(np.int8))) <= d
    return successes


def census_shapes():
    """(n, d, size, samples, seed): random shapes, then the edge cases d = n,
    2^(d+1) > size, size = 2^n and size = 1."""
    rng = np.random.default_rng(8)
    shapes = []
    for seed in range(24):
        n = int(rng.integers(1, 8))
        d = int(rng.integers(0, n + 1))
        size = int(rng.integers(1, min(1 << n, 40) + 1))
        shapes.append((n, d, size, 30, seed))
    shapes += [(4, 4, 9, 20, 0), (6, 2, 7, 20, 1), (3, 1, 8, 5, 2), (4, 3, 16, 5, 3)]
    shapes += [(5, 0, 1, 10, 4), (1, 0, 1, 3, 5), (1, 0, 2, 3, 6), (6, 1, 4, 40, 7)]
    return shapes


@pytest.mark.parametrize("stack_cells, batch_cells", [(None, None), (1, 1), (50, 7)])
def test_sample_census_matches_per_sample_loop(monkeypatch, stack_cells, batch_cells):
    # Tiny stacks and batches make every census cross many chunk and batch
    # boundaries.
    if stack_cells is not None:
        monkeypatch.setattr(census, "_STACK_CELLS", stack_cells)
        monkeypatch.setattr(vc, "_BATCH_CELLS", batch_cells)
    for n, d, size, samples, seed in census_shapes():
        est = sample_census(n, d, size, samples, np.random.default_rng(seed))
        assert est.successes == per_sample_successes(n, d, size, samples, seed), (n, d, size)


def test_sample_census_benchmark_counts():
    # The sampled ops of the small_batch benchmark workload, at seed 0.
    for (n, d, size), successes in (((5, 2, 10), 211), ((6, 2, 12), 54), ((7, 3, 20), 378)):
        est = sample_census(n, d, size, 400, np.random.default_rng(0))
        assert est.successes == successes


def test_sample_census_rejects_n_past_62():
    for n in (63, 64):
        with pytest.raises(ValueError, match="at most 62"):
            sample_census(n, 2, 10, 3, np.random.default_rng(0))
    est = sample_census(62, 2, 10, 3, np.random.default_rng(0))
    assert est.samples == 3


class RefusingGenerator:
    def choice(self, *args, **kwargs):
        raise AssertionError("a sample was drawn")


def test_sample_census_caps_class_cells():
    """n * size is checked against the generators' cell cap before any draw:
    62 x 300000 is over 4096^2, and 62 x 270000 is not."""
    with pytest.raises(SizeLimitError, match="cells"):
        sample_census(62, 1, 300000, 1, RefusingGenerator())
    with pytest.raises(AssertionError, match="a sample was drawn"):
        sample_census(62, 1, 270000, 1, RefusingGenerator())


def test_sample_census_subset_budget(monkeypatch):
    # Level 4 of the 8-cube has C(8, 4) = 70 subsets, and 16 random vertices
    # shatter none of them here, so every sample scans the whole level.
    assert per_sample_successes(8, 3, 16, 5, 0) == 5
    monkeypatch.setattr(vc, "SUBSET_BUDGET", 70)
    assert sample_census(8, 3, 16, 5, np.random.default_rng(0)).successes == 5
    monkeypatch.setattr(vc, "SUBSET_BUDGET", 69)
    with pytest.raises(SizeLimitError, match="examined 69 of 70 column subsets of size 4"):
        sample_census(8, 3, 16, 5, np.random.default_rng(0))
