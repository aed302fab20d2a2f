"""Shared instance builders and reference checks for the test suite."""

from __future__ import annotations

import itertools

import numpy as np

from signrank import ConceptClass, SignMatrix, distinct_rows, hamming_ball


def random_sign_matrix(rng: np.random.Generator, n_rows: int, n_cols: int) -> SignMatrix:
    data = rng.choice((-1, 1), size=(n_rows, n_cols)).astype(np.int8)
    return SignMatrix(data)


def random_distinct_matrix(
    rng: np.random.Generator, max_rows: int = 8, max_cols: int = 10
) -> SignMatrix:
    n_rows = int(rng.integers(2, max_rows + 1))
    n_cols = int(rng.integers(2, max_cols + 1))
    return distinct_rows(random_sign_matrix(rng, n_rows, n_cols))


def random_vc1_matrix(rng: np.random.Generator, max_cols: int = 12) -> SignMatrix:
    """Random distinct-row matrix of VC dimension at most one.

    Starts from a radius-one ball (VC dimension one), then applies operations
    that cannot raise the VC dimension: dropping rows, flipping the sign of
    whole columns, permuting columns, and duplicating columns.
    """
    base_cols = int(rng.integers(2, max_cols + 1))
    base = hamming_ball(base_cols, 1).matrix.entries
    n_rows = int(rng.integers(2, base.shape[0] + 1))
    rows = rng.choice(base.shape[0], size=n_rows, replace=False)
    data = base[np.sort(rows)]
    flips = rng.choice((-1, 1), size=base_cols)
    data = data * flips[None, :]
    if rng.random() < 0.4 and base_cols < max_cols:
        dup = int(rng.integers(0, base_cols))
        data = np.hstack([data, data[:, dup : dup + 1]])
    perm = rng.permutation(data.shape[1])
    return SignMatrix(data[:, perm].astype(np.int8))


def random_tree_vc1_matrix(
    rng: np.random.Generator, max_rows: int = 8, max_cols: int = 9
) -> SignMatrix:
    """Random distinct-row matrix of VC dimension at most one, drawn from a
    maximum class: a tree in the cube whose edges flip distinct columns, one
    new vertex per column. Keeps a random set of at most max_rows vertices in
    random order, and may duplicate a column and flip column signs."""
    n_cols = int(rng.integers(1, max_cols + 1))
    tree = [rng.choice((-1, 1), size=n_cols)]
    for j in rng.permutation(n_cols):
        v = tree[int(rng.integers(len(tree)))].copy()
        v[j] = -v[j]
        tree.append(v)
    n_rows = int(rng.integers(1, min(max_rows, len(tree)) + 1))
    data = np.array(tree)[rng.choice(len(tree), size=n_rows, replace=False)]
    if rng.random() < 0.3:
        data = np.hstack([data, data[:, [int(rng.integers(n_cols))]]])
    data = data * rng.choice((-1, 1), size=data.shape[1])
    return SignMatrix(data.astype(np.int8))


def class_from_mask(mask: int, n: int) -> ConceptClass:
    """The class of a census mask over the n-cube: vertex v, in increasing
    order, is the row whose column j carries +1 iff bit j of v is set."""
    vertices = np.flatnonzero((mask >> np.arange(1 << n)) & 1)
    return ConceptClass(SignMatrix((((vertices[:, None] >> np.arange(n)) & 1) * 2 - 1).astype(np.int8)))


def one_inclusion_connected(C: ConceptClass) -> bool:
    """Reference connectivity check: the rows of C, joined when they differ
    in exactly one column, form a connected graph. Reachability is squared
    until it stops growing."""
    X = C.matrix.entries.astype(np.int64)
    reach = ((C.n_cols - X @ X.T) // 2 <= 1).astype(np.int64)
    while True:
        grown = (reach @ reach > 0).astype(np.int64)
        if (grown == reach).all():
            return bool(reach.all())
        reach = grown


# The dense 5x4 pattern that forces VC dimension 4: the all-ones row and the
# four rows of weight 3.
HEAVY_PATTERNS = np.array([(1, 1, 1, 1), (0, 1, 1, 1), (1, 0, 1, 1), (1, 1, 0, 1), (1, 1, 1, 0)])


def heavy_dominant_present(B: np.ndarray) -> bool:
    """Independent exhaustive check for a dominated heavy pattern: 5 distinct
    rows of the boolean matrix B that dominate the rows of HEAVY_PATTERNS on
    some 4 columns, by direct assignment search (no matching code shared with
    the generator). The rows dominating each pattern are found in numpy for
    4096 column sets at a time; each set with a dominating row for every
    pattern and at least 5 in all is searched over permutations of them."""
    col_sets = np.array(list(itertools.combinations(range(B.shape[1]), 4)), dtype=np.intp)
    for start in range(0, len(col_sets), 4096):
        sets = col_sets[start:start + 4096]
        # dom[p, r, s]: row r dominates pattern p on column set s
        dom = (B[:, sets][None] >= HEAVY_PATTERNS[:, None, None]).all(axis=3)
        live = dom.any(axis=1).all(axis=0) & (dom.any(axis=0).sum(axis=0) >= 5)
        for s in np.flatnonzero(live):
            dominating = [np.flatnonzero(d).tolist() for d in dom[:, :, s]]
            pool = sorted(set(itertools.chain.from_iterable(dominating)))
            for choice in itertools.permutations(pool, 5):
                if all(choice[i] in dominating[i] for i in range(5)):
                    return True
    return False


# VC dimension 2, yet the `vc1_path` sort leaves at most two sign changes in
# every column.
SORTABLE_VC2 = SignMatrix(
    [
        [1, -1, -1, 1, -1],
        [-1, 1, 1, -1, -1],
        [1, 1, 1, 1, 1],
        [1, 1, -1, 1, -1],
        [-1, 1, 1, 1, 1],
    ]
)
