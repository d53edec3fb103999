"""Integer partitions (Young frames) and exact irrep combinatorics.

Frames with height at most ``d`` label the blocks that the symmetric group
and the diagonal unitary action carve out of ``(C^d)^{(x)n}``.  Dimensions and
multiplicities are exact integers.  The closed forms use one floating-point
quantity instead, the Schur-Weyl probability p(lam) = m_lam d_lam / d^n of a
frame (the weights sum to 1 over the frames of n boxes), evaluated in log
space over an integer frame table so that no term overflows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from numbers import Integral
from typing import Iterator, Optional

import numpy as np

#: Capacity of the memoization caches for exact dimensions and multiplicities.
#: Their callers are the oracle's spectral predictions and exact-integer test
#: references, which ask for the same small frames many times.
CACHE_CAPACITY = 1 << 16


@dataclass(frozen=True)
class Partition:
    """A Young frame: weakly decreasing positive parts, possibly empty."""

    parts: tuple[int, ...] = ()

    def __post_init__(self):
        p = tuple(self.parts)
        # numpy ints are Integral; bool is an int subclass and is not a part
        if not all(isinstance(x, Integral) and not isinstance(x, bool) for x in p):
            raise TypeError(f"partition parts must be integers: {p!r}")
        p = tuple(map(int, p))
        object.__setattr__(self, "parts", p)
        if any(x <= 0 for x in p):
            raise ValueError(f"partition parts must be positive: {p}")
        if any(p[i] < p[i + 1] for i in range(len(p) - 1)):
            raise ValueError(f"partition parts must be weakly decreasing: {p}")

    @property
    def n(self) -> int:
        return sum(self.parts)

    @property
    def height(self) -> int:
        return len(self.parts)

    def __iter__(self) -> Iterator[int]:
        return iter(self.parts)

    def __len__(self) -> int:
        return len(self.parts)

    def __getitem__(self, i):
        return self.parts[i]

    def __str__(self) -> str:
        return ",".join(str(x) for x in self.parts)

    def __repr__(self) -> str:
        return f"Partition({self.parts!r})"


def as_partition(p) -> Partition:
    """Coerce a Partition, tuple or list of parts into a Partition."""
    if isinstance(p, Partition):
        return p
    return Partition(tuple(p))


def _check_frame_bounds(n: int, max_height: int) -> None:
    if n < 0:
        raise ValueError("n must be nonnegative")
    if max_height < 1:
        raise ValueError("max_height must be positive")


def partitions_bounded(n: int, max_height: int) -> list[Partition]:
    """All partitions of ``n`` with height <= ``max_height``, descending lexicographic.

    The ``Partition`` view of the rows of ``frame_table``, trailing zeros
    dropped.  No frame of n boxes has more than n rows, so the table is
    built at height min(max_height, n): its column fill loops over the height.
    ``n = 0`` yields the singleton list containing the empty partition.
    """
    _check_frame_bounds(n, max_height)
    table = frame_table(n, max(1, min(max_height, n)))
    return [Partition(tuple(filter(None, row))) for row in table.tolist()]


def _frame_counts(n: int, max_height: int) -> np.ndarray:
    """``frame_count(m, max_height)`` for m = 0..n, as an object array."""
    counts = np.zeros(n + 1, dtype=object)
    counts[0] = 1
    for k in range(1, min(n, max_height) + 1):
        for r in range(k):
            counts[r::k] = np.cumsum(counts[r::k])
    return counts


def frame_count(n: int, max_height: int) -> int:
    """``len(partitions_bounded(n, max_height))``, without building the frames.

    The partitions of n into at most h parts are those into parts of size at
    most h, counted by the recurrence c[m] += c[m - k] for k = 1..h, m ascending.
    For one k that is a running sum along each residue class of m mod k.
    Object entries keep the counts exact.
    """
    _check_frame_bounds(n, max_height)
    return int(_frame_counts(n, max_height)[n])


def _frame_tables(sizes, d: int) -> tuple[np.ndarray, np.ndarray]:
    """The frame tables of n boxes and height <= d for each n of ``sizes``, stacked in that order.

    Returns the table and the row count of each n.  Column k is filled for
    every prefix at once: a prefix with ``rem`` boxes left, last part
    ``largest`` and ``d - k`` rows to go takes the parts min(rem, largest)
    down to ceil(rem / (d - k)), so rows stay in descending lexicographic
    order (a prefix with no box left takes the one part 0).  Each column
    keeps the map from its rows to their parent prefixes, and the table is
    filled through those maps once the last column fixes the rows.
    """
    sizes = np.asarray(sizes, dtype=np.int64)
    _check_frame_bounds(int(sizes.min(initial=0)), d)
    rem, largest = sizes, sizes
    parts, parents = [], []
    for rows_left in range(d, 1, -1):
        hi = np.minimum(rem, largest)
        width = hi - (rem + rows_left - 1) // rows_left + 1
        parent = np.repeat(np.arange(len(rem)), width)
        # a prefix's run of parts counts down from hi, starting at its first row
        start = np.cumsum(width) - width
        largest = (hi + start)[parent] - np.arange(len(parent))
        rem = rem[parent] - largest
        parts.append(largest)
        parents.append(parent)
    table = np.empty((len(rem), d), dtype=np.int64)
    table[:, -1] = rem  # the last row takes what is left, which the bound keeps <= largest
    rows = np.arange(len(rem))
    for k in range(d - 2, -1, -1):
        table[:, k] = parts[k][rows]
        rows = parents[k][rows]
    return table, np.bincount(rows, minlength=len(sizes))


def frame_table(n: int, d: int) -> np.ndarray:
    """The frames of ``n`` boxes and height <= ``d``, descending lexicographic, as an int table.

    One row per frame, zero-padded to ``d`` columns: the one-size case of
    ``_frame_tables``.  This is the package's one frame order: every weight
    array indexes frames by row of this table, and ``partitions_bounded``
    lists the same rows as ``Partition`` objects.
    """
    return _frame_tables([n], d)[0]


#: Dimensions of the frames of n boxes share n! and most of their row factorials.
_factorial = lru_cache(maxsize=CACHE_CAPACITY)(math.factorial)


@lru_cache(maxsize=CACHE_CAPACITY)
def _hook_product(parts: tuple[int, ...]) -> int:
    # Frobenius: prod of hooks = prod_i l_i! / prod_{i<j} (l_i - l_j), l_i = parts_i + k - 1 - i
    k = len(parts)
    shifted = [row + k - 1 - i for i, row in enumerate(parts)]
    num = math.prod(_factorial(l) for l in shifted)
    den = math.prod(a - b for i, a in enumerate(shifted) for b in shifted[i + 1:])
    return num // den


@lru_cache(maxsize=CACHE_CAPACITY)
def _dim_irrep(parts: tuple[int, ...]) -> int:
    return _factorial(sum(parts)) // _hook_product(parts)


@lru_cache(maxsize=CACHE_CAPACITY)
def _mult_schur_weyl(parts: tuple[int, ...], d: int) -> int:
    if len(parts) > d:
        return 0
    # Weyl dimension formula over the d rows, zero-padded
    rows = parts + (0,) * (d - len(parts))
    num = math.prod(rows[i] - rows[j] + j - i for i in range(d) for j in range(i + 1, d))
    den = math.prod(math.factorial(k) for k in range(d))
    q, r = divmod(num, den)
    assert r == 0, "the Weyl dimension formula is integral"
    return q


def dim_irrep(alpha) -> int:
    """Number of standard Young tableaux of shape ``alpha`` (hook lengths, exact)."""
    return _dim_irrep(as_partition(alpha).parts)


def mult_schur_weyl(alpha, d: int) -> int:
    """Number of semistandard tableaux of shape ``alpha`` with entries <= ``d``.

    This is the multiplicity of the frame's block in ``(C^d)^{(x)n}``; it is 0
    exactly when the frame is taller than ``d``.
    """
    if d < 1:
        raise ValueError("d must be positive")
    return _mult_schur_weyl(as_partition(alpha).parts, d)


#: stirlerr(k) = ln k! - (k + 1/2) ln k + k - ln(2 pi)/2 for k = 0..15 (entry 0 unused),
#: the exact table of C. Loader, "Fast and accurate computation of binomial
#: probabilities" (2000); above 15 the Stirling series of ``_STIRLERR_SERIES`` is used.
_STIRLERR_SMALL = np.array([
    0.0,
    0.08106146679532725821967026, 0.04134069595540929409382208,
    0.02767792568499833914878929, 0.02079067210376509311152277,
    0.01664469118982119216319487, 0.01387612882307074799874573,
    0.01189670994589177009505572, 0.01041126526197209649747857,
    0.009255462182712732917728637, 0.008330563433362871256469319,
    0.007573675487951840794972024, 0.006942840107209529865664153,
    0.006408994188004207068439631, 0.005951370112758847735624416,
    0.00555473355196280137103869,
])
#: Coefficients 1/12, -1/360, 1/1260, -1/1680, 1/1188 of 1/k, 1/k^3, ..., 1/k^9.
_STIRLERR_SERIES = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188)
#: 1/(2j+1) for j = 1..8: the atanh series of bd0 below |v| < 0.1, cut below 1e-17.
_BD0_SERIES = tuple(1 / (2 * j + 1) for j in range(1, 9))


def _ln_factorial_remainder(x: np.ndarray) -> np.ndarray:
    """ln x! - (x ln x - x), elementwise over nonnegative ints (0 at x = 0)."""
    xf = np.maximum(x, 1).astype(float)
    inv2 = 1.0 / (xf * xf)
    series = np.zeros_like(xf)
    for coef in reversed(_STIRLERR_SERIES):
        series = coef + series * inv2
    stirlerr = np.where(x > 15, series / xf, _STIRLERR_SMALL[np.minimum(x, 15)])
    return np.where(x > 0, 0.5 * np.log(2 * math.pi * xf) + stirlerr, 0.0)


def _bd0(x: np.ndarray, n: np.ndarray, d: int) -> np.ndarray:
    """Loader's deviance x ln(x/M) + M - x at M = n/d, elementwise.

    The ratio v = (x - M)/(x + M) is formed from the exact integer d x - n.
    """
    num = d * x - n
    n_safe = np.maximum(n, 1)
    v = num / np.maximum(d * x + n, 1)
    v2 = v * v
    tail = np.zeros_like(v)
    for coef in reversed(_BD0_SERIES):
        tail = coef + tail * v2
    series = (num / d) * v + 2.0 * x * v * v2 * tail
    direct = x * np.log(np.where(x > 0, d * x, n_safe) / n_safe) + n / d - x
    return np.where(np.abs(v) < 0.1, series, direct)


def ln_schur_weyl_probability(table: np.ndarray, d: int) -> np.ndarray:
    """ln p(lam) = ln(m_lam d_lam / d^n) for each row of a frame table.

    Rows are frames zero-padded to ``d`` columns (as from ``frame_table``);
    they may have different box counts n.  p is the multinomial weight
    n! / (prod_i lam_i! d^n), in Loader's saddle-point form, times
    prod_{i<j} (lam_i - lam_j + j - i)^2 / ((lam_i + j - i) (j - i)),
    the Weyl and hook-length factors.  No bigints; the absolute error in ln p
    stays below 1e-13 * max(1, |ln p|).

    The saddle-point terms depend on n and one row length only, so they are
    evaluated by table and gathered: the factorial remainder once on
    0..max n, and the deviance once on a run of lengths 0..m for each
    distinct box count m, the runs laid end to end.  Each entry gets the
    value it would get on its own, so the cost is O(entries + sum over
    distinct n of n); on a full frame table of height >= 2 the runs hold no
    more values than the table.
    """
    lam = np.asarray(table, dtype=np.int64)
    if lam.ndim != 2 or lam.shape[1] != d:
        raise ValueError(f"frame table must have {d} columns")
    if (lam < 0).any() or (lam[:, :-1] < lam[:, 1:]).any():
        raise ValueError("frame table rows must be nonnegative and weakly decreasing")
    n = lam.sum(axis=1)
    sizes, which = np.unique(n, return_inverse=True)
    runs = sizes + 1
    offset = np.cumsum(runs) - runs  # where the run of lengths 0..m of each distinct m starts
    lengths = np.arange(runs.sum()) - np.repeat(offset, runs)
    b = _bd0(lengths, np.repeat(sizes, runs), d)
    g = _ln_factorial_remainder(np.arange(n.max(initial=0) + 1))
    i, j = np.nonzero(np.arange(d)[:, None] < np.arange(d))  # row pairs i < j
    gap = j - i
    diff = lam[:, i] - lam[:, j] + gap
    return (
        g[n]
        - g[lam].sum(axis=1)
        - b[offset[which][:, None] + lam].sum(axis=1)
        + np.log(diff * diff / ((lam[:, i] + gap) * gap)).sum(axis=1)
    )


def add_box(alpha, max_height: Optional[int] = None) -> list[Partition]:
    """Frames obtained from ``alpha`` by adding one box, tallest row first.

    ``max_height`` drops frames exceeding that height; ``None`` keeps all.
    """
    a = as_partition(alpha)
    parts = a.parts
    out = []
    for i in range(len(parts) + 1):
        if i < len(parts):
            if i > 0 and parts[i] == parts[i - 1]:
                continue  # not a valid corner: would break weak decrease
            grown = parts[:i] + (parts[i] + 1,) + parts[i + 1:]
        else:
            grown = parts + (1,)
        if max_height is None or len(grown) <= max_height:
            out.append(Partition(grown))
    return out


def theta_dim(alpha, d: int) -> int:
    """Dimension of the over-height frame of ``alpha`` at local dimension ``d``, or 0.

    When ``alpha`` has height exactly ``d``, appending a one-box row yields the
    single frame of height ``d + 1``; its dimension corrects the measurement
    spectrum.  Frames shorter than ``d`` have no such frame (dimension 0).
    """
    a = as_partition(alpha)
    if a.height > d:
        raise ValueError("frame exceeds local dimension")
    return _dim_irrep(a.parts + (1,)) if a.height == d else 0
