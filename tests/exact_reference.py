"""Exact-integer frame combinatorics, the reference for the package's frame tables.

A frame is a tuple of positive, weakly decreasing parts.  Dimensions and
multiplicities are Python ints from the hook-length and Weyl dimension
formulas, exact at any size.  The package computes the same numbers from
int64 frame tables inside the oracle's reach and in log space beyond it.

The module also keeps a frozen copy of the package's float kernel (last
section), the reference for its bits.
"""

import math
from functools import cache
from itertools import accumulate

import numpy as np

from pbt_recycling.partitions import _bd0, _ln_factorial_remainder, _point_block


@cache
def dim_irrep(parts) -> int:
    """Number of standard Young tableaux of shape ``parts``: n! over the hook product."""
    # Frobenius: prod of hooks = prod_i l_i! / prod_{i<j} (l_i - l_j), l_i = parts_i + k - 1 - i.
    # l_i! = parts_i! perm(l_i, k - 1 - i), and n! / prod_i parts_i! is the multinomial,
    # a product of binomials over the partial sums of the parts
    k = len(parts)
    shifted = [row + k - 1 - i for i, row in enumerate(parts)]
    num = math.prod(a - b for i, a in enumerate(shifted) for b in shifted[i + 1:])
    num *= math.prod(math.comb(total, row) for total, row in zip(accumulate(parts), parts))
    q, r = divmod(num, math.prod(math.perm(l, k - 1 - i) for i, l in enumerate(shifted)))
    assert r == 0, "the hook-length formula is integral"
    return q


@cache
def mult_schur_weyl(parts, d: int) -> int:
    """Number of semistandard tableaux of shape ``parts`` with entries <= ``d``.

    The multiplicity of the frame's block in (C^d)^(x)n, 0 exactly when the
    frame is taller than ``d``.
    """
    if len(parts) > d:
        return 0
    # Weyl dimension formula over the d rows, zero-padded: prod_{i<j} (r_i - r_j + j - i)/(j - i).
    # A pair of two zero rows has factor 1, so i runs over the h nonzero rows.  Against the
    # zero rows j = h..d-1, row i's factors (r_i + j - i)/(j - i) telescope to
    # perm(r_i + d - 1 - i, r_i) / perm(r_i + h - 1 - i, r_i), falling factorials of r_i terms
    h = len(parts)
    num = math.prod(parts[i] - parts[j] + j - i for i in range(h) for j in range(i + 1, h))
    den = math.prod(math.factorial(h - 1 - i) for i in range(h))  # prod_{i<j<h} (j - i)
    for i, row in enumerate(parts):
        num *= math.perm(row + d - 1 - i, row)
        den *= math.perm(row + h - 1 - i, row)
    q, r = divmod(num, den)
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


# -- the float kernel, frozen -------------------------------------------------------
#
# The per-row arithmetic of ``ln_schur_weyl_probability``, ``s_over_sqrt_p`` and
# ``height_correction`` as it stood before their column-wise rewrite, kept
# verbatim so a test can hold the package's kernel to the same bits, and
# ``frec_optimal``'s frame sum as it stood before V(alpha) became a column
# sum.  The Loader terms (``_bd0``, ``_ln_factorial_remainder``) and the
# one-box rank map are the package's own.


def ln_schur_weyl_probability(table, d: int):
    """ln p(lam) per row of a frame table: the multinomial weight in Loader's form times the Weyl factors."""
    lam = np.asarray(table, dtype=np.int64)
    n = lam.sum(axis=1)
    sizes, which = np.unique(n, return_inverse=True)
    runs = sizes + 1
    offset = np.cumsum(runs) - runs
    lengths = np.arange(runs.sum()) - np.repeat(offset, runs)
    b = _bd0(lengths, np.repeat(sizes, runs), d)
    g = _ln_factorial_remainder(np.arange(n.max(initial=0) + 1))
    i, j = np.nonzero(np.arange(d)[:, None] < np.arange(d))
    gap = j - i
    diff = lam[:, i] - lam[:, j] + gap
    weyl = np.zeros(len(lam))
    for logs in np.log(diff * diff / ((lam[:, i] + gap) * gap)).T:
        weyl += logs
    return g[n] - g[lam].sum(axis=1) - b[offset[which][:, None] + lam].sum(axis=1) + weyl


def s_over_sqrt_p(N, alphas):
    """S(alpha)/sqrt(p(alpha)) per row of a frame table of N-1 boxes: sqrt(N/d) sum_i |R_i|/sqrt(l_i + 1)."""
    d = alphas.shape[1]
    l = (alphas + np.arange(d - 1, -1, -1)).astype(float)
    total = np.zeros(len(alphas))
    for i in range(d):
        num, den = np.ones(len(alphas)), np.ones(len(alphas))
        for k in range(d):
            if k != i:
                num *= l[:, i] + 1 - l[:, k]
                den *= l[:, i] - l[:, k]
        total += np.abs(num / den) / np.sqrt(l[:, i] + 1)
    return np.sqrt(np.asarray(N) / d) * total


def height_correction(alphas, d: int):
    """c(alpha) per row: 1/sqrt(1 - prod_i h_i/(h_i+1)) at height d, else 1."""
    c = np.ones(len(alphas))
    full = alphas[:, -1] > 0
    hooks = alphas[full] + np.arange(d - 1, -1, -1)
    c[full] = 1.0 / np.sqrt(-np.expm1(-np.log1p(1.0 / hooks).sum(axis=1)))
    return c


def frec_optimal(N: int, d: int, vN, vNm1) -> float:
    """The optimal-protocol recycling fidelity from weight arrays, V(alpha) summed along each row of d ranks."""
    record = _point_block(N - 1, d)
    alphas, ranks = record.table, record.ranks
    big_v = np.where(ranks >= 0, vN[ranks], 0.0).sum(axis=1)
    terms = vNm1 * height_correction(alphas, d) * s_over_sqrt_p(N, alphas) * big_v
    first = alphas[:, 0]
    opens = np.ones(len(first), dtype=bool)
    opens[1:] = first[1:] != first[:-1]
    return math.fsum(np.add.reduceat(terms, np.flatnonzero(opens)).tolist()) / (d * math.sqrt(N))
