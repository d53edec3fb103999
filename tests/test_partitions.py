import itertools
import timeit
from math import comb

import numpy as np
import pytest
from exact_reference import add_box, dim_irrep, mult_schur_weyl, theta_dim

from pbt_recycling.partitions import _frame_tables, frame_count, frame_parts, frame_table, partitions_bounded


# -- independent oracles -------------------------------------------------

def count_standard_tableaux(shape):
    """Brute-force count of standard fillings (grow cell by cell)."""
    shape = tuple(shape)
    if sum(shape) == 0:
        return 1
    total = 0
    for i in range(len(shape)):
        below = shape[i + 1] if i + 1 < len(shape) else 0
        if shape[i] > below:
            smaller = tuple(
                x for x in shape[:i] + (shape[i] - 1,) + shape[i + 1:] if x > 0
            )
            total += count_standard_tableaux(smaller)
    return total


def count_semistandard_tableaux(shape, d):
    """Brute-force count of semistandard fillings with entries 1..d."""
    shape = tuple(shape)
    cells = [(i, j) for i, row in enumerate(shape) for j in range(row)]

    def fill(k, grid):
        if k == len(cells):
            return 1
        i, j = cells[k]
        lo = 1
        if j > 0:
            lo = max(lo, grid[(i, j - 1)])  # rows weakly increase
        if i > 0:
            lo = max(lo, grid[(i - 1, j)] + 1)  # columns strictly increase
        total = 0
        for val in range(lo, d + 1):
            grid[(i, j)] = val
            total += fill(k + 1, grid)
        grid.pop((i, j), None)
        return total

    return fill(0, {})


# -- construction and enumeration ----------------------------------------

def test_partition_validation():
    assert frame_parts([3, 1]) == (3, 1)
    assert frame_parts(()) == ()
    with pytest.raises(ValueError, match="weakly decreasing"):
        frame_parts((1, 2))
    with pytest.raises(ValueError, match="positive"):
        frame_parts((2, 0))
    with pytest.raises(ValueError, match="positive"):
        frame_parts((-1,))
    # parts are integers: no floats, strings or booleans, even when int() would take them
    for parts in [(2.5, "1"), (2.0, 1), (True, True), ("2", "1"), (np.float64(2.0),), (np.bool_(True),)]:
        with pytest.raises(TypeError, match="integers"):
            frame_parts(parts)
    numpy_ints = frame_parts((np.int64(2), np.int32(1), np.uint8(1)))
    assert numpy_ints == (2, 1, 1)
    assert all(type(x) is int for x in numpy_ints)


def test_partitions_bounded_examples():
    assert partitions_bounded(4, 4) == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]
    assert partitions_bounded(4, 2) == [(4,), (3, 1), (2, 2)]
    assert partitions_bounded(0, 3) == [()]


def test_partitions_bounded_order_and_uniqueness():
    for n, h in [(6, 3), (8, 2), (7, 7), (30, 4), (40, 5)]:
        frames = partitions_bounded(n, h)
        assert len(set(frames)) == len(frames)
        assert frames == sorted(frames, reverse=True)  # descending lexicographic
        assert all(sum(f) == n and len(f) <= h for f in frames)


def test_partitions_bounded_count_matches_generating_function():
    # coefficients of prod_{k <= h} 1/(1 - x^k): partitions of n into at most h parts
    for h in range(1, 6):
        counts = [1] + [0] * 60
        for k in range(1, h + 1):
            for m in range(k, 61):
                counts[m] += counts[m - k]
        for n in range(61):
            assert len(partitions_bounded(n, h)) == counts[n], (n, h)
            assert frame_count(n, h) == counts[n], (n, h)
    # closed forms at two and three rows: n // 2 + 1 and the integer nearest (n + 3)^2 / 12
    assert frame_count(64000, 2) == 32001
    assert frame_count(1999, 3) == round(2002**2 / 12)


@pytest.mark.parametrize("d", range(1, 7))
def test_stacked_frame_tables_concatenate_the_single_ones(d):
    for n in range(41):
        assert frame_table(n, d).tolist() == [list(p) + [0] * (d - len(p)) for p in partitions_bounded(n, d)]
    # n = 0, d = 1 and d > n included; sizes need not ascend or be distinct
    for sizes in (list(range(41)), [40, 0, 3, 17, 1, d - 1, d, d + 1, 2 * d, 40]):
        table, counts = _frame_tables(sizes, d)
        assert table.dtype == np.int64
        np.testing.assert_array_equal(table, np.concatenate([frame_table(n, d) for n in sizes]))
        assert counts.tolist() == [frame_count(n, d) for n in sizes]


@pytest.mark.parametrize("d", range(1, 7))
def test_frame_table_matches_partitions(d):
    # brute force: nonincreasing d-tuples over n..0 in descending lexicographic order, kept when they sum to n
    for n in range(15):
        reference = [list(c) for c in itertools.combinations_with_replacement(range(n, -1, -1), d) if sum(c) == n]
        assert frame_table(n, d).tolist() == reference
        assert partitions_bounded(n, d) == [tuple(x for x in c if x) for c in reference]


def test_partitions_bounded_clamps_the_height():
    assert partitions_bounded(5, 10**6) == partitions_bounded(5, 5)
    # the table is filled column by column: built at height 10^6 this call takes seconds
    assert min(timeit.repeat(lambda: partitions_bounded(5, 10**6), number=1, repeat=5)) < 0.01


def test_partitions_bounded_errors():
    for count in (partitions_bounded, frame_count, frame_table):
        with pytest.raises(ValueError):
            count(-1, 2)
        with pytest.raises(ValueError):
            count(3, 0)


# -- dimensions and multiplicities ----------------------------------------

def test_dim_irrep_examples():
    assert dim_irrep((7,)) == 1
    assert dim_irrep((3, 1)) == 3
    assert dim_irrep(()) == 1


@pytest.mark.parametrize("shape", [(3, 1), (2, 2), (4, 2, 1), (3, 3, 2), (2, 1, 1, 1)])
def test_dim_irrep_against_enumeration(shape):
    assert dim_irrep(shape) == count_standard_tableaux(shape)


def test_dim_two_row_closed_form():
    for n in range(1, 61):
        for l in range(0, n // 2 + 1):
            shape = (n - l, l) if l else (n - l,)
            assert dim_irrep(shape) == comb(n, l) - (comb(n, l - 1) if l else 0)


def test_mult_examples():
    for d in (1, 2, 3, 5):
        assert mult_schur_weyl((1,), d) == d
    assert mult_schur_weyl((1, 1, 1), 2) == 0
    # two-row multiplicity at d=2 counts the residual row difference
    for n in range(1, 41):
        for l in range(0, n // 2 + 1):
            shape = (n - l, l) if l else (n - l,)
            assert mult_schur_weyl(shape, 2) == n - 2 * l + 1


@pytest.mark.parametrize("shape", [(2, 1), (3, 1), (2, 2), (3, 2, 1), (1, 1, 1)])
@pytest.mark.parametrize("d", [2, 3, 4])
def test_mult_against_enumeration(shape, d):
    assert mult_schur_weyl(shape, d) == count_semistandard_tableaux(shape, d)


def test_schur_weyl_completeness_exact():
    for n in range(0, 13):
        for d in range(1, 5):
            total = sum(
                mult_schur_weyl(a, d) * dim_irrep(a) for a in partitions_bounded(n, d)
            )
            assert total == d**n


def test_branching_dimension_identity():
    for n in range(0, 11):
        for alpha in partitions_bounded(n, n if n else 1):
            grown = add_box(alpha)  # unbounded
            assert sum(dim_irrep(m) for m in grown) == (n + 1) * dim_irrep(alpha)


# -- box moves -------------------------------------------------------------

def test_add_box_examples():
    assert add_box((4, 1)) == [(5, 1), (4, 2), (4, 1, 1)]
    assert add_box(()) == [(1,)]
    assert add_box((2, 2), max_height=2) == [(3, 2)]
    assert add_box((2, 2)) == [(3, 2), (2, 2, 1)]


# -- theta frames -----------------------------------------------------------

def test_theta_examples():
    assert theta_dim((2, 1), 2) == 3
    assert theta_dim((3,), 2) == 0
    with pytest.raises(ValueError, match="exceeds local dimension"):
        theta_dim((2, 1, 1), 2)


def test_theta_two_row_identity():
    # appended-row dimension via the hook-length ratio for two-row frames
    for N in range(3, 40):
        for l in range(1, (N - 1) // 2 + 1):
            alpha = (N - 1 - l, l)
            d_a = dim_irrep(alpha)
            expected = N * (N - l) * l * d_a // ((N + 1 - l) * (l + 1))
            assert theta_dim(alpha, 2) == expected
