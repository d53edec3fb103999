"""Integer partitions (Young frames) as rows of int64 frame tables.

Frames with height at most ``d`` label the blocks that the symmetric group
and the diagonal unitary action carve out of ``(C^d)^{(x)n}``.  A frame is a
row of ``frame_table``, zero-padded to ``d`` columns, or, outside the tables,
a plain tuple of its positive parts (``frame_parts`` validates one).  The
closed forms use one floating-point quantity of a frame, the Schur-Weyl
probability p(lam) = m_lam d_lam / d^n (the weights sum to 1 over the frames
of n boxes), evaluated in log space over a frame table so that no term
overflows.  Exact-integer dimensions and multiplicities live in the tests, as
the reference the tables are checked against.

``frame_table`` and ``frame_count`` are memoised (``_memo``), as are the
weight layer's frame maps and factors, each on its ``_MEMO_ENTRIES`` latest
(n, d) points; a held array is read-only, so no caller changes what the next
one reads.  ``partitions_bounded`` lists the held table's rows afresh per call.
"""

from __future__ import annotations

import math
from functools import wraps
from numbers import Integral

import numpy as np

#: Bytes ``partitions_bounded`` may hold at once: the frame table and its rows as tuples.
PARTITIONS_BYTE_BUDGET = 1 << 30

#: (n, d) points each frame memo holds; a miss at a new point evicts the oldest.
_MEMO_ENTRIES = 8


def _read_only(value):
    """``value``, with every array in it (or in tuples within it) made read-only."""
    if isinstance(value, np.ndarray):
        value.flags.writeable = False
    elif isinstance(value, tuple):
        for item in value:
            _read_only(item)
    return value


def _memo(size: int, companion: dict | None = None):
    """Memoise on the arguments; a miss first evicts the oldest entries, so at most ``size`` are held.

    Every array a value holds is made read-only (``_read_only``).  Keyword
    arguments key as (name, value) pairs after the positional ones.
    ``companion``, a dict of values derived from the entries, is emptied before
    every build and by ``cache_clear``, so it outlives no entry.
    """
    derived = {} if companion is None else companion

    def decorate(build):
        held: dict = {}

        @wraps(build)
        def cached(*args, **kwargs):
            key = args + tuple(kwargs.items())
            if key not in held:
                derived.clear()
                while len(held) >= size:
                    del held[next(iter(held))]
                held[key] = _read_only(build(*args, **kwargs))
            return held[key]

        cached.cache_clear = lambda: derived.clear() or held.clear()
        return cached

    return decorate


def frame_parts(parts) -> tuple[int, ...]:
    """``parts`` as a frame: a tuple of positive, weakly decreasing ints, possibly empty.

    Parts must be integers (numpy ints are; bool, an int subclass, is not):
    TypeError otherwise, and ValueError when they are not positive or not
    weakly decreasing.
    """
    p = tuple(parts)
    if not all(isinstance(x, Integral) and not isinstance(x, bool) for x in p):
        raise TypeError(f"partition parts must be integers: {p!r}")
    p = tuple(map(int, p))
    if any(x <= 0 for x in p):
        raise ValueError(f"partition parts must be positive: {p}")
    if any(a < b for a, b in zip(p, p[1:])):
        raise ValueError(f"partition parts must be weakly decreasing: {p}")
    return p


def frame_text(parts) -> str:
    """A frame as the CLI and coefficient-file errors print it: parts joined by commas, '' when empty."""
    return ",".join(map(str, parts))


def _check_frame_bounds(n: int, max_height: int) -> None:
    if n < 0:
        raise ValueError("n must be nonnegative")
    if max_height < 1:
        raise ValueError("max_height must be positive")


def partitions_bounded(n: int, max_height: int) -> list[tuple[int, ...]]:
    """All partitions of ``n`` with height <= ``max_height``, descending lexicographic.

    The rows of ``frame_table`` as tuples of their positive parts, listed
    afresh on every call, so a caller may change the list.  No frame of n
    boxes has more than n rows, so the table is read at height
    min(max_height, n): its column fill loops over the height.
    ``n = 0`` yields the singleton list containing the empty tuple.

    With h = max(1, min(max_height, n)) columns a frame costs at most
    32 h + 128 bytes: its int64 table row and the table's fill maps, the row
    as a list and as a tuple of Python ints, and two list slots.  The frames
    are counted first (``frame_count``), and ValueError is raised before
    anything is built when they would take more than
    ``PARTITIONS_BYTE_BUDGET`` bytes.
    """
    _check_frame_bounds(n, max_height)
    height = max(1, min(max_height, n))
    count = frame_count(n, height)
    nbytes = count * (32 * height + 128)
    if nbytes > PARTITIONS_BYTE_BUDGET:
        raise ValueError(
            f"{count} frames of {n} boxes and height <= {max_height} need {nbytes} bytes, "
            f"over the budget of {PARTITIONS_BYTE_BUDGET}"
        )
    table = frame_table(n, height)
    return [tuple(filter(None, row)) for row in table.tolist()]


def _frame_counts(n: int, max_height: int) -> np.ndarray:
    """``frame_count(m, max_height)`` for m = 0..n, as an object array.

    Laid out k to a row, the counts of one residue class mod k form a column,
    so one ``cumsum`` per k runs its recurrence; padding past n feeds no m <= n.
    """
    height = min(n, max_height)
    counts = np.zeros(n + height + 1, dtype=object)
    counts[0] = 1
    for k in range(1, height + 1):
        grid = counts[: -(-(n + 1) // k) * k].reshape(-1, k)
        np.cumsum(grid, axis=0, out=grid)
    return counts[: n + 1]


@_memo(_MEMO_ENTRIES)
def frame_count(n: int, max_height: int) -> int:
    """``len(partitions_bounded(n, max_height))``, without building the frames; memoised.

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


@_memo(_MEMO_ENTRIES)
def frame_table(n: int, d: int) -> np.ndarray:
    """The frames of ``n`` boxes and height <= ``d``, descending lexicographic, as an int table.

    One row per frame, zero-padded to ``d`` columns: the one-size case of
    ``_frame_tables``.  This is the package's one frame order: every weight
    array indexes frames by row of this table, and ``partitions_bounded``
    lists the same rows as tuples.  Memoised: every call at (n, d) returns
    the same read-only table.
    """
    return _frame_tables([n], d)[0]


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

