"""Exact-integer frame combinatorics, the reference for the package's frame tables.

A frame is a tuple of positive, weakly decreasing parts.  Dimensions and
multiplicities are Python ints from the hook-length and Weyl dimension
formulas, exact at any size.  The package computes the same numbers from
int64 frame tables inside the oracle's reach and in log space beyond it.
"""

import math
from functools import cache


@cache
def dim_irrep(parts) -> int:
    """Number of standard Young tableaux of shape ``parts``: n! over the hook product."""
    # Frobenius: prod of hooks = prod_i l_i! / prod_{i<j} (l_i - l_j), l_i = parts_i + k - 1 - i
    k = len(parts)
    shifted = [row + k - 1 - i for i, row in enumerate(parts)]
    num = math.prod(math.factorial(l) for l in shifted)
    den = math.prod(a - b for i, a in enumerate(shifted) for b in shifted[i + 1:])
    return math.factorial(sum(parts)) // (num // den)


@cache
def mult_schur_weyl(parts, d: int) -> int:
    """Number of semistandard tableaux of shape ``parts`` with entries <= ``d``.

    The multiplicity of the frame's block in (C^d)^(x)n, 0 exactly when the
    frame is taller than ``d``.
    """
    if len(parts) > d:
        return 0
    # Weyl dimension formula over the d rows, zero-padded
    rows = tuple(parts) + (0,) * (d - len(parts))
    num = math.prod(rows[i] - rows[j] + j - i for i in range(d) for j in range(i + 1, d))
    q, r = divmod(num, math.prod(math.factorial(k) for k in range(d)))
    assert r == 0, "the Weyl dimension formula is integral"
    return q


def add_box(parts, max_height=None) -> list[tuple[int, ...]]:
    """Frames obtained from ``parts`` by adding one box, tallest row first.

    ``max_height`` drops frames taller than that; ``None`` keeps all.
    """
    parts = tuple(parts)
    out = []
    for i in range(len(parts) + 1):
        if i < len(parts):
            if i > 0 and parts[i] == parts[i - 1]:
                continue  # not a corner: the frame would stop decreasing
            grown = parts[:i] + (parts[i] + 1,) + parts[i + 1:]
        else:
            grown = parts + (1,)
        if max_height is None or len(grown) <= max_height:
            out.append(grown)
    return out


def theta_dim(parts, d: int) -> int:
    """Dimension of the over-height frame parts + (1,) when ``parts`` has height ``d``, else 0."""
    if len(parts) > d:
        raise ValueError("frame exceeds local dimension")
    return dim_irrep(tuple(parts) + (1,)) if len(parts) == d else 0
