from math import comb

import pytest
from hypothesis import given
from hypothesis import strategies as st

from pbt_recycling.partitions import (
    Partition,
    add_box,
    dim_irrep,
    dims,
    mult_schur_weyl,
    partitions_bounded,
    remove_box,
    theta_dim,
    theta_of,
)


def P(*parts):
    return Partition(tuple(parts))


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
    assert P(3, 1).n == 4
    assert P(3, 1).height == 2
    assert P().n == 0 and P().height == 0
    with pytest.raises(ValueError):
        P(1, 2)
    with pytest.raises(ValueError):
        P(2, 0)
    with pytest.raises(ValueError):
        P(-1)


def test_partitions_bounded_examples():
    assert partitions_bounded(4, 4) == [P(4), P(3, 1), P(2, 2), P(2, 1, 1), P(1, 1, 1, 1)]
    assert partitions_bounded(4, 2) == [P(4), P(3, 1), P(2, 2)]
    assert partitions_bounded(0, 3) == [P()]


def test_partitions_bounded_order_and_uniqueness():
    for n, h in [(6, 3), (8, 2), (7, 7), (30, 4), (40, 5)]:
        frames = partitions_bounded(n, h)
        assert len(set(frames)) == len(frames)
        keys = [f.parts for f in frames]
        assert keys == sorted(keys, reverse=True)  # descending lexicographic
        assert all(f.n == n and f.height <= h for f in frames)


def test_partitions_bounded_count_matches_generating_function():
    # coefficients of prod_{k <= h} 1/(1 - x^k): partitions of n into at most h parts
    for h in range(1, 6):
        counts = [1] + [0] * 60
        for k in range(1, h + 1):
            for m in range(k, 61):
                counts[m] += counts[m - k]
        for n in range(61):
            assert len(partitions_bounded(n, h)) == counts[n], (n, h)


def test_partitions_bounded_errors():
    with pytest.raises(ValueError):
        partitions_bounded(-1, 2)
    with pytest.raises(ValueError):
        partitions_bounded(3, 0)


# -- dimensions and multiplicities ----------------------------------------

def test_dim_irrep_examples():
    assert dim_irrep(P(7)) == 1
    assert dim_irrep(P(3, 1)) == 3
    assert dim_irrep(P()) == 1


@pytest.mark.parametrize("shape", [(3, 1), (2, 2), (4, 2, 1), (3, 3, 2), (2, 1, 1, 1)])
def test_dim_irrep_against_enumeration(shape):
    assert dim_irrep(Partition(shape)) == count_standard_tableaux(shape)


def test_dim_two_row_closed_form():
    for n in range(1, 61):
        for l in range(0, n // 2 + 1):
            shape = P(n - l, l) if l else P(n - l)
            assert dim_irrep(shape) == comb(n, l) - (comb(n, l - 1) if l else 0)


def test_mult_examples():
    for d in (1, 2, 3, 5):
        assert mult_schur_weyl(P(1), d) == d
    assert mult_schur_weyl(P(1, 1, 1), 2) == 0
    # two-row multiplicity at d=2 counts the residual row difference
    for n in range(1, 41):
        for l in range(0, n // 2 + 1):
            shape = P(n - l, l) if l else P(n - l)
            assert mult_schur_weyl(shape, 2) == n - 2 * l + 1


@pytest.mark.parametrize("shape", [(2, 1), (3, 1), (2, 2), (3, 2, 1), (1, 1, 1)])
@pytest.mark.parametrize("d", [2, 3, 4])
def test_mult_against_enumeration(shape, d):
    assert mult_schur_weyl(Partition(shape), d) == count_semistandard_tableaux(shape, d)


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


def test_dims_pair():
    assert dims(P(2, 1), 2) == (2, 2)
    assert dims(P(1, 1, 1), 2) == (1, 0)


# -- box moves -------------------------------------------------------------

def test_add_box_examples():
    assert add_box(P(4, 1)) == [P(5, 1), P(4, 2), P(4, 1, 1)]
    assert add_box(P()) == [P(1)]
    assert add_box(P(2, 2), max_height=2) == [P(3, 2)]
    assert add_box(P(2, 2)) == [P(3, 2), P(2, 2, 1)]


def test_remove_box_examples():
    assert remove_box(P(3, 1)) == [P(2, 1), P(3)]
    assert remove_box(P(1)) == [P()]
    assert remove_box(P(2, 2)) == [P(2, 1)]
    with pytest.raises(ValueError, match="no box to remove"):
        remove_box(P())


@st.composite
def partition_strategy(draw, max_n=12):
    n = draw(st.integers(min_value=0, max_value=max_n))
    h = draw(st.integers(min_value=1, max_value=max(n, 1)))
    frames = partitions_bounded(n, h)
    return draw(st.sampled_from(frames))


@given(partition_strategy())
def test_add_remove_inverse(alpha):
    for mu in add_box(alpha):
        assert alpha in remove_box(mu)
    if alpha.n > 0:
        for beta in remove_box(alpha):
            assert alpha in add_box(beta)


# -- theta frames -----------------------------------------------------------

def test_theta_examples():
    theta, d_th = theta_of(P(2, 1), 2)
    assert theta == P(2, 1, 1) and d_th == 3
    assert theta_of(P(3), 2) is None
    assert theta_dim(P(3), 2) == 0
    with pytest.raises(ValueError, match="exceeds local dimension"):
        theta_of(P(2, 1, 1), 2)


def test_theta_two_row_identity():
    # appended-row dimension via the hook-length ratio for two-row frames
    for N in range(3, 40):
        for l in range(1, (N - 1) // 2 + 1):
            alpha = P(N - 1 - l, l)
            d_a = dim_irrep(alpha)
            expected = N * (N - l) * l * d_a // ((N + 1 - l) * (l + 1))
            assert theta_dim(alpha, 2) == expected
