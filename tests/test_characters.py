import math
from collections import Counter
from itertools import permutations

import pytest
from group_average import character, cycle_type

from pbt_recycling.partitions import dim_irrep, partitions_bounded


def class_size(ct):
    n = sum(ct)
    denom = 1
    for length, count in Counter(ct).items():
        denom *= length**count * math.factorial(count)
    return math.factorial(n) // denom


def all_cycle_types(n):
    return [p.parts for p in partitions_bounded(n, n)]


@pytest.mark.parametrize("n", range(1, 7))
def test_identity_class_gives_dimension(n):
    ident = tuple([1] * n)
    for shape in partitions_bounded(n, n):
        assert character(shape.parts, ident) == dim_irrep(shape)


@pytest.mark.parametrize("n", range(1, 7))
def test_row_orthogonality(n):
    shapes = [p.parts for p in partitions_bounded(n, n)]
    for a in shapes:
        for b in shapes:
            total = sum(
                class_size(ct) * character(a, ct) * character(b, ct)
                for ct in all_cycle_types(n)
            )
            assert total == (math.factorial(n) if a == b else 0)


@pytest.mark.parametrize("n", range(1, 7))
def test_trivial_and_sign_characters(n):
    for ct in all_cycle_types(n):
        assert character((n,), ct) == 1
        parity = (-1) ** (n - len(ct))  # each k-cycle contributes (-1)^(k-1)
        assert character(tuple([1] * n), ct) == parity


def test_known_table_s3():
    # classes: (1,1,1), (2,1), (3)
    assert [character((2, 1), ct) for ct in [(1, 1, 1), (2, 1), (3,)]] == [2, 0, -1]


def test_class_sizes_sum_to_group_order():
    for n in range(1, 8):
        assert sum(class_size(ct) for ct in all_cycle_types(n)) == math.factorial(n)


def test_cycle_type_of_permutations():
    assert cycle_type((0, 1, 2)) == (1, 1, 1)
    assert cycle_type((1, 0, 2)) == (2, 1)
    assert cycle_type((1, 2, 0)) == (3,)
    counts = Counter(cycle_type(p) for p in permutations(range(4)))
    assert counts[(1, 1, 1, 1)] == 1
    assert counts[(2, 1, 1)] == 6
    assert counts[(2, 2)] == 3
    assert counts[(3, 1)] == 8
    assert counts[(4,)] == 6


def test_size_mismatch_raises():
    with pytest.raises(ValueError):
        character((2, 1), (2,))
