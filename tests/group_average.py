"""Symmetric-group characters and the group-averaged Young projector, kept as references.

The package builds its Young projectors from box contents; this module
builds the same projectors the textbook way, as (d_mu/n!) sum_sigma
chi_mu(sigma) V_sigma over all n! permutations, with the characters from the
recursive border-strip rule.  It is only fast enough for a handful of boxes.
"""

import math
from functools import lru_cache
from itertools import permutations

import numpy as np


def _beta_set(parts: tuple[int, ...]) -> list[int]:
    # first-column hook lengths: strictly decreasing beta_i = parts_i + (r-1-i)
    r = len(parts)
    return [parts[i] + (r - 1 - i) for i in range(r)]


def _shape_from_beta(beta: list[int]) -> tuple[int, ...]:
    beta = sorted(beta, reverse=True)
    r = len(beta)
    parts = [beta[i] - (r - 1 - i) for i in range(r)]
    return tuple(p for p in parts if p > 0)


@lru_cache(maxsize=1 << 16)
def character(shape: tuple[int, ...], cycle_type: tuple[int, ...]) -> int:
    """Character of the irrep labeled ``shape`` on the class ``cycle_type``.

    Border strips of each cycle length are removed on the beta-set (abacus):
    removing a strip of length k moves one bead from b to b-k, with sign
    (-1)^(number of beads jumped over).
    """
    if sum(shape) != sum(cycle_type):
        raise ValueError("shape and cycle type must have equal size")
    if not cycle_type:
        return 1
    k = cycle_type[0]
    rest = cycle_type[1:]
    beta = _beta_set(shape)
    occupied = set(beta)
    total = 0
    for b in beta:
        target = b - k
        if target < 0 or target in occupied:
            continue
        jumped = sum(1 for c in beta if target < c < b)
        new_beta = [target if c == b else c for c in beta]
        total += (-1) ** jumped * character(_shape_from_beta(new_beta), rest)
    return total


def cycle_type(perm: tuple[int, ...]) -> tuple[int, ...]:
    """Cycle type of a 0-based permutation given as a tuple of images."""
    n = len(perm)
    seen = [False] * n
    lengths = []
    for start in range(n):
        if seen[start]:
            continue
        length = 0
        j = start
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        lengths.append(length)
    return tuple(sorted(lengths, reverse=True))


def group_average_projector(shape: tuple[int, ...], d: int) -> np.ndarray:
    """(d_mu/n!) sum over S(n) of chi_mu(sigma) V_sigma on (C^d)^(x)n, d_mu = chi_mu(identity)."""
    n = sum(shape)
    dim = d**n
    digits = np.array(list(np.ndindex(*(d,) * n)), dtype=np.int64).reshape(dim, n)  # big-endian
    place = d ** np.arange(n - 1, -1, -1)
    cols = np.arange(dim)
    total = np.zeros((dim, dim))
    for perm in permutations(range(n)):
        chi = character(shape, cycle_type(perm))
        if chi:
            # factor k of the input becomes factor perm[k] of the output
            total[digits[:, np.argsort(perm)] @ place, cols] += chi
    return total * character(shape, (1,) * n) / math.factorial(n)
