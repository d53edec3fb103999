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

Every closed-form frame sum walks its frames here (``_frame_blocks``), in
table order and in blocks of at most ``_BLOCK_ROWS`` rows: consecutive n
share a block, and an n with more frames is split into runs of first parts
k, top down, the frames of n - k boxes, height <= d - 1 and parts <= k
behind their k, at most frame_count(n - k, d - 1) of them.  The extensions
of a run over [a, b] are the frames of n + 1 boxes with first part in
[a, b + 1] less those opening with (b + 1, b + 1): one row range, which
opens t rows before the previous run's range ends, t the run's frames with
first part b (alpha + e_0 maps them onto that tail).  ``_frame_sums`` sums
in two stages: first each run of rows that share a first part, with one
``np.add.reduceat`` per block, then one ``math.fsum`` per n over that n's
run sums, largest first (a split n's from all its blocks).  For nonnegative
terms a run of r terms is within (r - 1) u relative of its exact sum (u the
unit roundoff, 2^-53), and ``fsum`` rounds the sum of the run sums once, so
an n's sum is within (r_max - 1) u + u relative of the exact one, r_max its
longest run; at d <= 2 each run is one row, and the sum is the exact sum
rounded once.  No block splits a first part, and a block's factors give a
row the same bits in any table, so no value depends on the blocks.  A block
(``_Block``) carries what the walk knows of its rows: the port count of each
row, the rows that open its runs, and its Loader chunk, the consecutive box
counts that key its Loader build (``_loader_tables``).  From these it
computes the per-row factors of the closed forms in ``recycling`` and
``optimal`` (ln p, c, S/sqrt(p) and its extension ranks), each on first read
and once, so they live as long as the block: c and S/sqrt(p) from one pass
over the shifted rows, and the ranks as one (d, rows) array of rank lines.
ln p's Weyl loop and S/sqrt(p)'s loop over i stop at the block's height, so
at large d they cost what the frames' height does.  The walk assigns
the chunks: one opens at the n of the first block it does not cover and
extends while its deviance runs, sum (m + 1) values, fit in
``_BLOCK_ROWS * d``, the entries a block may hold (one n may hold more).
Every block of a chunk reads its one build, whoever walks the blocks:
``sweep`` to 90 ports at d = 3 builds once, not once for each of its 6
blocks, while at d = 2, whose blocks hold about as many values as the bound,
a sweep still builds once per block.  Stacked blocks, first-part blocks and
sweeps are made afresh on every walk; a one-point walk whose n fits in one
block yields that n's held block (``_point_block``) whatever the walk asks
of it, and with it the factors it has computed, so the closed forms at one
point share one c and one S/sqrt(p), and a repeat evaluation there computes
only what reads its weights.

The held block of (n, d) is the closed-form layer's one record of that
point, memoised (``_memo``) on the ``_MEMO_ENTRIES`` points read last: its
table is ``frame_table(n, d)``, and it computes its extension ranks on first
read, so they live and die with it; a held array is read-only, so no caller
changes what the next one reads.  A repeat point enumerates no frame.
``frame_count`` keeps its own memo of ints, since it counts points whose
table is never built (a weight document is checked against the count), and
``partitions_bounded`` builds a table of its own per call and drops it.
Counts, tables and listings are sized before they are built, a table by
what its build holds at its peak, not by the table alone, and one over
``PARTITIONS_BYTE_BUDGET`` raises ValueError.
"""

from __future__ import annotations

import math
import sys
from contextlib import nullcontext
from dataclasses import dataclass
from functools import cached_property, wraps
from itertools import accumulate, chain, groupby
from numbers import Integral
from operator import attrgetter, ge, sub

import numpy as np

#: Bytes a frame listing (``partitions_bounded``), a frame table or an array of frame counts may hold.
PARTITIONS_BYTE_BUDGET = 1 << 30

#: (n, d) points each point memo holds; a miss at a new point evicts the least recently used.
_MEMO_ENTRIES = 8


def _read_only(value):
    """``value``, with every array in it (or in tuples within it) made read-only."""
    if isinstance(value, np.ndarray):
        value.setflags(write=False)
    elif isinstance(value, tuple):
        for item in value:
            _read_only(item)
    return value


def _memo(size: int):
    """Memoise on the arguments; a miss first evicts the least recently used entries, so at most ``size`` are held.

    Every array a value holds, alone or in tuples, is made read-only (``_read_only``).
    Keyword arguments key as (name, value) pairs after the positional ones.
    A hit makes its entry the newest, so a point whose records are read
    again keeps them while a call there reads other points too.
    """

    def decorate(build):
        held: dict = {}

        @wraps(build)
        def cached(*args, **kwargs):
            key = args + tuple(kwargs.items())
            if key in held:
                held[key] = held.pop(key)
            else:
                while len(held) >= size:
                    del held[next(iter(held))]
                held[key] = _read_only(build(*args, **kwargs))
            return held[key]

        cached.cache_clear = held.clear
        return cached

    return decorate


def frame_parts(parts) -> tuple[int, ...]:
    """``parts`` as a frame: a tuple of positive, weakly decreasing ints, possibly empty.

    Parts must be integers (numpy ints are; bool, an int subclass, is not):
    TypeError otherwise, and ValueError when they are not positive or not
    weakly decreasing.
    """
    p = tuple(parts)
    if not {int}.issuperset(map(type, p)):  # exact ints are kept as they are; other integers become ints
        if not all(isinstance(x, Integral) and not isinstance(x, bool) for x in p):
            raise TypeError(f"partition parts must be integers: {p!r}")
        p = tuple(map(int, p))
    if p and min(p) <= 0:
        raise ValueError(f"partition parts must be positive: {p}")
    if not all(map(ge, p, p[1:])):
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


def _check_bytes(nbytes: int, what: str) -> None:
    """ValueError naming ``what`` when ``nbytes`` exceeds ``PARTITIONS_BYTE_BUDGET``."""
    if nbytes > PARTITIONS_BYTE_BUDGET:
        raise ValueError(f"{what} need {nbytes} bytes, over the budget of {PARTITIONS_BYTE_BUDGET}")


def partitions_bounded(n: int, max_height: int) -> list[tuple[int, ...]]:
    """All partitions of ``n`` with height <= ``max_height``, descending lexicographic.

    The rows of ``frame_table`` at the height h = max(1, min(max_height, n)),
    since no frame of n boxes is taller than n, as tuples of their positive
    parts in a fresh list per call; ``n = 0`` gives [()].  A listed frame
    costs at most 32 h + 128 bytes: its table row and fill maps, the row as a
    list and as a tuple of ints, and two list or map slots.  The frames are
    counted first, and ValueError is raised before anything is built when
    they would take more than ``PARTITIONS_BYTE_BUDGET`` bytes.  The table is
    built for the call and dropped, so no listing outlives its list.
    """
    _check_frame_bounds(n, max_height)
    height = max(1, min(max_height, n))
    count = frame_count(n, height)
    _check_bytes(count * (32 * height + 128), f"{count} frames of {n} boxes and height <= {max_height}")
    table = _frame_tables([n], height)[0]
    return [tuple(filter(None, row)) for row in table.tolist()]


def _frame_counts(n: int, max_height: int) -> np.ndarray:
    """``frame_count(m, max_height)`` for m = 0..n, int64 when every entry fits, else object.

    The partitions into at most h parts are those into parts of size at most
    h, counted by c[m] += c[m - k] for k = 1..h, m ascending: for one k, a
    running sum along each residue class mod k, a column when the counts are
    laid out k to a row, so one ``cumsum`` per k; padding past n feeds no
    m <= n.  At n <= 2h + 1 a part above h leaves fewer than it boxes, so
    the frames of m boxes it opens are any frames of what is left, and the
    count is p(m) - sum_{r < m - h} p(r), p from ``_partition_numbers`` in
    O(n^1.5) additions, not O(n h).  No entry, padding included, exceeds
    C(n + 2h, h), a bound on weak compositions, so below 2^63 the int64
    counts are exact.  An entry costs its array slot and, in a ``.tolist()``
    copy, a list slot and an int: 52 bytes for an int below 2^63, checked
    before the bound is computed, since its cost grows with n and h; in an
    object array, 16 bytes and the size of the bound.  ValueError is raised
    before the array is built when the entries take more than
    ``PARTITIONS_BYTE_BUDGET`` bytes.
    """
    height = min(n, max_height)
    size, what = n + height + 1, f"the frame counts of 0..{n} boxes and height <= {max_height}"
    _check_bytes(size * 52, what)
    bound = math.comb(n + 2 * height, height)
    dtype = np.int64 if bound < 1 << 63 else object
    if dtype is object:
        _check_bytes(size * (16 + sys.getsizeof(bound)), what)
    if n <= 2 * height + 1:
        p = _partition_numbers(n)
        p[height:] = map(sub, p[height:], accumulate(p[: n - height], initial=0))
        return np.array(p, dtype=dtype)
    counts = np.zeros(size, dtype=dtype)
    counts[0] = 1
    for k in range(1, height + 1):
        grid = counts[: -(-(n + 1) // k) * k].reshape(-1, k)
        np.cumsum(grid, axis=0, out=grid)
    return counts[: n + 1]


def _partition_numbers(n: int) -> list[int]:
    """p(m) for m = 0..n, by Euler's pentagonal recurrence: p(m) = sum_k (-1)^(k+1) p(m - k(3k -+ 1)/2)."""
    # k(3k - 1)/2 and k(3k + 1)/2 at odd k, then at even k; each k past sqrt(n) + 1 gives more than n
    plus, minus = ([k * (3 * k + s) // 2 for k in range(j, math.isqrt(n) + 2, 2) for s in (-1, 1)] for j in (1, 2))
    p = [1] + [0] * n
    for m in range(1, n + 1):
        p[m] = sum(p[m - g] for g in plus if g <= m) - sum(p[m - g] for g in minus if g <= m)
    return p


@_memo(_MEMO_ENTRIES)
def frame_count(n: int, max_height: int) -> int:
    """``len(partitions_bounded(n, max_height))``, without building the frames (``_frame_counts``); memoised."""
    _check_frame_bounds(n, max_height)
    return int(_frame_counts(n, max_height)[n])


def _frame_tables(sizes, d: int, largest=None) -> tuple[np.ndarray, np.ndarray]:
    """The frame tables of n boxes and height <= d for each n of ``sizes``, stacked in that order.

    ``largest`` (one per n, each at least n / d) caps the first part.
    Returns the table and the row count of each n.  Only the first h =
    min(d, max n) columns are filled, since no frame is taller than its box
    count; the rest stay 0.  Column k is filled for every prefix at once: a
    prefix with ``rem`` boxes left, last part ``largest`` and ``h - k`` rows
    to go takes the parts min(rem, largest) down to ceil(rem / (h - k)), so
    rows stay in descending lexicographic order (a prefix with no box left
    takes the one part 0).  Each column keeps the map from its rows to their
    parent prefixes, and the table is filled through those maps once the
    last column fixes the rows, each map dropped as the fill consumes it.
    """
    sizes = np.asarray(sizes, dtype=np.int64)
    _check_frame_bounds(int(sizes.min(initial=0)), d)
    h = min(d, max(1, int(sizes.max(initial=0))))
    rem, largest = sizes, sizes if largest is None else np.asarray(largest, dtype=np.int64)
    parts, parents = [], []
    for rows_left in range(h, 1, -1):
        hi = np.minimum(rem, largest)
        width = hi - (rem + rows_left - 1) // rows_left + 1
        parent = np.repeat(np.arange(len(rem)), width)
        # a prefix's run of parts counts down from hi, starting at its first row
        start = np.cumsum(width) - width
        largest = (hi + start)[parent] - np.arange(len(parent))
        rem = rem[parent] - largest
        parts.append(largest)
        parents.append(parent)
    table = np.zeros((len(rem), d), dtype=np.int64)
    table[:, h - 1] = rem  # the last row takes what is left, which the bound keeps <= largest
    rows = np.arange(len(rem))
    for k in range(h - 2, -1, -1):
        table[:, k] = parts.pop()[rows]
        rows = parents.pop()[rows]
    return table, np.bincount(rows, minlength=len(sizes))


def frame_table(n: int, d: int) -> np.ndarray:
    """The frames of ``n`` boxes and height <= ``d``, descending lexicographic, as an int table.

    One row per frame, zero-padded to ``d`` columns: the one-size case of
    ``_frame_tables``.  This is the package's one frame order: every weight
    array indexes frames by row of this table, and ``partitions_bounded``
    lists the same rows as tuples.  The read-only table of the point's
    record (``_point_block``), so a call returns the same table while the
    record is held.  The frames are counted first, and ValueError is raised
    before the table is built when its build would take more than
    ``PARTITIONS_BYTE_BUDGET`` bytes: 8 (d + 2h + 4) a frame, h the
    max(1, min(d, n)) columns ``_frame_tables`` fills, for the table row, a part
    and a parent entry in each of the h - 1 column maps (no map has more
    entries than the table has rows), and six rows of scratch.
    """
    count = frame_count(n, d)
    nbytes = count * (d + 2 * max(1, min(d, n)) + 4) * 8
    _check_bytes(nbytes, f"{count} frames of {n} boxes and height <= {d} as a table")
    return _point_block(n, d).table


def _extension_ranks(alphas: np.ndarray) -> np.ndarray:
    """Line i: the rank of each alpha + e_i among the rows' distinct one-box extensions, descending; -1 if no frame."""
    valid = np.ones(alphas.shape, dtype=bool)
    valid[:, 1:] = alphas[:, :-1] > alphas[:, 1:]
    row, i = np.nonzero(valid)
    grown = alphas[row, : i.max() + 1]  # the columns past the height + 1 are 0 in every extension
    grown[np.arange(len(row)), i] += 1
    order = np.lexsort(grown.T[::-1])  # first column first
    grown = grown[order]
    new = np.ones(len(grown), dtype=bool)
    new[1:] = (grown[1:] != grown[:-1]).any(axis=1)
    ascending = np.empty(len(grown), dtype=np.int64)
    ascending[order] = np.cumsum(new) - 1
    lines = np.full(alphas.shape[::-1], -1, dtype=np.int64)
    lines[i, row] = ascending.max() - ascending
    return lines


#: Most rows in a block of ``_frame_blocks``, unless one first part has more.
_BLOCK_ROWS = 4096


def _run_starts(table: np.ndarray) -> np.ndarray:
    """The row that opens each run of rows sharing a first part."""
    first = table[:, 0]
    opens = np.ones(len(first), dtype=bool)
    opens[1:] = first[1:] != first[:-1]
    return np.flatnonzero(opens)


def _frame_blocks(n_min: int, n_max: int, d: int, extend: bool = False):
    """The frames of n = n_min..n_max boxes, height <= d, as ``_Block``s in order.

    No block boundary falls inside a run of rows that share a first part.
    ``_frame_sums`` relies on this: its run sums, so its results, have the
    same bits in any block layout.  A walk that splits a first part (by its
    second part, say) must give its blocks that finer run instead.  A block
    takes the last block's Loader chunk when it covers the block's box
    counts, else a new one from its n (``_loader_chunk``).  A one-point walk
    (n_min = n_max) whose n fits in one block yields its held block
    (``_point_block``), with the factors it holds; every other block is new.
    ``extend`` gives the first-part blocks of a split n their extension
    ranks (``_Block.rank_lines``); a held block computes its own.
    """
    counts = [frame_count(n_max, d)] if n_min == n_max else _frame_counts(n_max, d)[n_min:].tolist()
    n, chunk = n_min, ()
    while n <= n_max:
        stop, rows = n, counts[n - n_min]
        while stop < n_max and rows + counts[stop + 1 - n_min] <= _BLOCK_ROWS:
            stop += 1
            rows += counts[stop - n_min]
        if not chunk or chunk[-1] < stop:  # chunks open at ascending n, so chunk[0] <= n
            chunk = _loader_chunk(n, n_max, d)
        if rows > _BLOCK_ROWS:
            yield from _first_part_blocks(n, d, extend, chunk)
        elif n_min == n_max:
            yield _point_block(n, d)
        else:
            table, sizes = _frame_tables(range(n, stop + 1), d)
            ports = np.repeat(np.arange(n + 1, stop + 2), sizes)
            yield _Block(table, ports, chunk, _run_starts(table), n, sizes.tolist())
        n = stop + 1


@_memo(_MEMO_ENTRIES)
def _point_block(n: int, d: int) -> _Block:
    """The record of the point (n, d): the block of a one-point walk, with its own n as chunk; memoised, factors and all."""
    table = _read_only(_frame_tables([n], d)[0])
    return _Block(table, n + 1, (n,), _read_only(_run_starts(table)), n, [len(table)])


def _first_part_blocks(n: int, d: int, extend: bool, chunk: tuple[int, ...]):
    """The frames of n boxes in blocks of consecutive first parts k, top down (see the module docstring)."""
    bound = _frame_counts(n, d - 1).tolist()  # bound[n - k] >= the frames with first part k
    top, low, start, ext = n, -(-n // d), 0, 0
    while top >= low:
        k, rows = top, bound[n - top]
        while k > low and rows + bound[n - k + 1] <= _BLOCK_ROWS:
            k -= 1
            rows += bound[n - k]
        firsts = np.arange(top, k - 1, -1)
        rest, sizes = _frame_tables(n - firsts, d - 1, firsts)
        table = np.column_stack([np.repeat(firsts, sizes), rest])
        lines = _extension_ranks(table) if extend else None
        if extend:
            ext -= int(sizes[0]) if start else 0  # this range opens on the last one's tail
            lines[lines >= 0] += ext
            ext = int(lines.max()) + 1
        yield _Block(table, n + 1, chunk, np.cumsum(sizes) - sizes, n, [len(table)], start, lines)
        start += len(table)
        top = k - 1


def _loader_chunk(n: int, n_max: int, d: int) -> tuple[int, ...]:
    """The box counts n..m for the largest m <= n_max whose deviance runs fit in a block's entries.

    The runs of lengths 0..k, one per count k, hold sum (k + 1) values, at
    most ``_BLOCK_ROWS * d``, so no build outgrows the tables the blocks
    hold; n alone may hold more.
    """
    room, m = _BLOCK_ROWS * d - (n + 1), n
    while m < n_max and room >= m + 2:
        m += 1
        room -= m + 1
    return tuple(range(n, m + 1))


def _frame_sums(n_min: int, n_max: int, d: int, term, extend: bool = False) -> list[float]:
    """One ``math.fsum`` per n of the run sums of ``term(block)``, a float per row, over ``_frame_blocks``.

    A run's sum is ``np.add.reduceat``'s at the block's run starts (its
    first value plus numpy's pairwise sum of the rest), so it depends on the
    run's values alone; a run of one row (every run at d = 2) keeps its
    value.  No run spans two n: the next n opens with a larger first part.
    ``fsum`` takes an n's run sums largest first, a split n's gathered from
    all its blocks; it rounds their exact sum once, so the order moves no
    bit, and largest first keeps its partials few.  Each term reads its
    block's Loader chunk from the block, so the walk builds its Loader
    tables once per chunk, not once per block.
    """

    def run_sums(block):
        return np.add.reduceat(term(block), block.runs).tolist()

    sums = []
    for n, run in groupby(_frame_blocks(n_min, n_max, d, extend), attrgetter("n")):
        first = next(run)
        values, last, stop = run_sums(first), n + len(first.sizes) - 1, 0
        del first  # its factors, held with the block, need not outlive a split n's walk
        for m in range(n, last):
            runs = m + 1 + -m // d  # first parts ceil(m / d)..m
            sums.append(math.fsum(sorted(values[stop: stop + runs], reverse=True)))
            stop += runs
        rest = chain.from_iterable(map(run_sums, run))
        sums.append(math.fsum(sorted(chain(values[stop:], rest), reverse=True)))
    return sums


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


@_memo(_MEMO_ENTRIES)
def _loader_tables(sizes: tuple[int, ...], d: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(g, b, offset) of ``ln_schur_weyl_probability`` for the ascending box counts ``sizes``.

    g is the factorial remainder on 0..max n; run m of b, from offset[m] on, the deviance on lengths 0..m.
    """
    sizes = np.array(sizes, dtype=np.int64)
    top = int(sizes.max(initial=0))
    runs = sizes + 1
    start = np.cumsum(runs) - runs  # where the run of lengths 0..m of each distinct m starts
    offset = np.zeros(top + 1, dtype=np.int64)
    offset[sizes] = start
    lengths = np.arange(runs.sum()) - np.repeat(start, runs)
    b = _bd0(lengths, np.repeat(sizes, runs), d)
    return _ln_factorial_remainder(np.arange(top + 1)), b, offset


def _row_order_sum(cols: np.ndarray) -> np.ndarray:
    """Sum down axis 0 of a (k, rows) float array, each column in the order numpy sums a row of k entries.

    That is numpy's pairwise sum of a contiguous line: below 8 terms in order
    from 0; up to 128 on eight accumulators, the terms j, j + 8, ... in
    accumulator j, joined as a tree, and the last k % 8 terms added in order;
    above 128 the sum of its two parts split at the multiple of 8 at or below
    k/2.  So the column sums of the transpose have the bits of
    ``x.sum(axis=1)`` on a (rows, k) table, at any k.
    """
    k = len(cols)
    if k > 128:
        half = k // 2 - k // 2 % 8
        return _row_order_sum(cols[:half]) + _row_order_sum(cols[half:])
    if k < 8:
        total = np.zeros(cols.shape[1:])
        for col in cols:
            total += col
        return total
    acc = cols[:8].copy()
    stop = k - k % 8
    for start in range(8, stop, 8):
        acc += cols[start: start + 8]
    total = ((acc[0] + acc[1]) + (acc[2] + acc[3])) + ((acc[4] + acc[5]) + (acc[6] + acc[7]))
    for col in cols[stop:]:
        total += col
    return total


def ln_schur_weyl_probability(table: np.ndarray, d: int) -> np.ndarray:
    """ln p(lam) = ln(m_lam d_lam / d^n) for each row of a frame table.

    Rows are frames zero-padded to ``d`` columns (as from ``frame_table``);
    they may have different box counts n.  p is the multinomial weight
    n! / (prod_i lam_i! d^n), in Loader's saddle-point form, times
    prod_{i<j} (lam_i - lam_j + j - i)^2 / ((lam_i + j - i) (j - i)),
    the Weyl and hook-length factors.  No bigints; the absolute error in ln p
    stays below 1e-13 * max(1, |ln p|).

    The table is transposed once into a C-ordered (d, rows) array, one
    contiguous line per column, and every step runs on those lines: the
    check that rows are frames (the last column nonnegative, no column below
    the next), the gathers and the sums down the columns.  The saddle-point
    terms depend on n and one row length only, so they are evaluated by
    table and gathered: the factorial remainder once on 0..max n, and the
    deviance once on a run of lengths 0..m for each distinct box count m, the
    runs laid end to end; a presence map of the box counts (``np.bincount``)
    finds them, with no sort.  The tables are memoised per (box counts, d),
    and this call builds them for the table's own distinct counts.  A block
    of a walk reads the build its Loader chunk keys instead (``_Block.ln_p``),
    so the blocks of a sweep, or of a split n, share one build per chunk.  A
    table entry depends on (m, length, d) alone, so both builds give it the
    same bits.
    A build costs O(max n + sum over its counts m of m): a chunk's runs hold
    at most a block's entries (``_loader_chunk``), and on a full frame table
    of height >= 2 the table's own runs hold no more values than the table.
    Past the build the cost is O(entries), and no step reduces along a
    row of d entries.  The Weyl factors are taken on float copies of the
    int columns, one i at a time against all j > i, in place on two reused
    (d - 1, rows) buffers; every value is an integer below 2^53, so each
    product and quotient rounds as the int/int ones of the per-row form do.
    The loop stops at the table's height: past it both parts of a pair are 0
    in every row, its factor is exactly 1 and its log adds +0.0, which moves
    no bit, so a block's cost is set by its height, not by d.
    The two Loader gathers (``np.take``) are subtracted from g[n] in place,
    in the order g[n] - sum g - sum b + Weyl logs.  A row gets the same bits
    in any table, in any memory layout: each gathered column sum is taken in
    the order numpy sums a row (``_row_order_sum``), and the Weyl logs are
    added left to right, pair by pair.  The result is read-only.
    """
    lam = np.asarray(table, dtype=np.int64)
    if lam.ndim != 2 or lam.shape[1] != d:
        raise ValueError(f"frame table must have {d} columns")
    return _Block(lam).ln_p


@dataclass(frozen=True, eq=False)
class _Block:
    """Rows of a frame table, what is known of them, and the per-row factors of the closed forms.

    A block of ``_frame_blocks`` knows every field (``split_ranks`` only as
    a first-part block of an ``extend`` walk): ``table`` holds ``sizes[j]``
    frames of n + j boxes, from row ``start`` of ``frame_table(n, d)`` on.
    A table outside a walk knows its rows and at most its ports, and reads a
    Loader build for its own distinct box counts.

    The factors are those of the ``recycling`` docstring: ln p keys its
    Loader build by the block's chunk, and S/sqrt(p) is taken at the block's
    port counts (frames of N - 1 boxes at N ports).  Each is a read-only row
    vector computed on first read (``cached_property``) that lives as long as
    the block, as do the extension ranks; a repeat read computes nothing.  A
    block holds each array once: its table, its rank lines (``ranks`` is
    their (rows, d) view) and rows, and no 2-D float array.  c and S/sqrt(p)
    are read from one hook pass (``_hook_pass``) over a C-ordered (d, rows)
    float array of the shifted rows, l_k = alpha_k + d - 1 - k in line k,
    which it drops on return, so every step runs on contiguous lines and no
    sum runs along a row of d entries; S/sqrt(p) applies its port factor
    sqrt(N/d) on read, so c needs no port count.  ln p transposes the table
    into int columns of its own (``ln_schur_weyl_probability``), and only ln
    p checks that the rows are frames.  Each factor runs its ufuncs in place
    (``out=``) on buffers it reuses, in the order and rounding of the
    per-row arithmetic they replace: besides the shifted rows, the hook pass
    holds one (d - 1, rows) array and four rows.
    """

    table: np.ndarray
    ports: int | np.ndarray | None = None  # N of each row, a frame of N - 1 boxes: one count or one per row
    chunk: tuple[int, ...] | None = None  # box counts, covering the table's, that key its Loader build
    runs: np.ndarray | None = None  # the row that opens each run of rows sharing a first part
    n: int | None = None
    sizes: list | None = None
    start: int = 0
    split_ranks: np.ndarray | None = None  # a first-part block's ``rank_lines``, from an ``extend`` walk

    @cached_property
    def rank_lines(self) -> np.ndarray:
        """Line i: each alpha + e_i's row in ``frame_table(n + 1, d)`` or -1; a whole n's, else the walk's."""
        if self.split_ranks is None:  # every frame of n + 1 boxes extends one of n
            return _read_only(_extension_ranks(self.table))
        return self.split_ranks

    @property
    def ranks(self) -> np.ndarray:
        """The extension ranks as a (rows, d) view of ``rank_lines``: row f holds frame f's."""
        return self.rank_lines.T

    @cached_property
    def ln_p(self) -> np.ndarray:
        """``ln_schur_weyl_probability`` of the int64 rows, on the chunk's Loader build, else the rows' own."""
        rows, d = self.table.shape
        cols = self.table.T.copy()  # one contiguous line per column
        if (cols[-1:] < 0).any() or (cols[:-1] < cols[1:]).any():
            raise ValueError("frame table rows must be nonnegative and weakly decreasing")
        n = cols.sum(axis=0)
        chunk = self.chunk
        if chunk is None:
            chunk = tuple(np.flatnonzero(np.bincount(n)).tolist())  # the distinct box counts, ascending
        g, b, offset = _loader_tables(chunk, d)
        lines = cols.astype(float)  # integers below 2^53: each product and quotient rounds as the int one does
        nums, dens = np.empty_like(lines[1:]), np.empty_like(lines[1:])
        gaps = np.arange(1.0, d)[:, None]  # j - i for the columns j > i
        weyl = np.zeros(rows)
        top = np.count_nonzero(cols.any(axis=1))  # columns past it are 0 in every row: their pairs add log 1 = +0.0
        for i in range(min(top, d - 1)):
            num, den, gap = nums[i:], dens[i:], gaps[: d - 1 - i]
            np.subtract(lines[i], lines[i + 1:], out=num)
            num += gap
            num *= num
            np.add(lines[i], gap, out=den)
            den *= gap
            num /= den
            for logs in np.log(num, out=num):  # pair by pair: one order in any table
                weyl += logs
        del lines, nums, dens  # before the gathers' (d, rows) arrays
        ln_p = np.take(g, n)
        ln_p -= _row_order_sum(np.take(g, cols))
        cols += offset[n]
        ln_p -= _row_order_sum(np.take(b, cols))
        ln_p += weyl
        return _read_only(ln_p)

    @cached_property
    def _hook_pass(self) -> tuple[np.ndarray, np.ndarray]:
        """c and sum_i R_i/sqrt(l_i + 1), S/sqrt(p) before its port factor, from one read of the shifted rows.

        The shifted rows l_k = alpha_k + d - 1 - k fill one C-ordered
        (d, rows) float array, line k of it, in one strided read of the
        table.  S/sqrt(p)'s loop over i reads them first: the factors g_k + 1,
        then g_k, of R_i for k != i fill one reused (d - 1, rows) array, each
        product is one reduction into a row buffer, and R_i/sqrt(l_i + 1) is
        added to the total in place.  The loop stops at i = top, top the
        block's count of nonzero columns: past it alpha_{i-1} = 0 in every
        row, so g_{i-1} + 1 = 0 and R_i is exactly 0 (the guarded path's
        log1p(-1) = -inf gives 0 too), and adding it would move no bit.  Both
        products have d - 1 factors of size at most l_0 + 1, so below
        (d - 1) log2(l_0 + 1) = 1000, l_0 the block's largest, they stay under
        2^1000: only a block at or above that bound tests them for finiteness
        and takes the log-space fallback, with numpy's overflow and
        invalid-value warnings off.  c then takes the same lines in place as
        its hooks h_k = l_k, so 1/h = inf gives exactly 1 below height d.
        """
        rows, d = self.table.shape
        shifts = np.arange(d - 1, -1, -1)
        l = np.add(self.table.T, shifts[:, None], out=np.empty((d, rows)))  # integers below 2^53, exact as floats
        highest = l.max(axis=1, initial=0.0)
        top = np.count_nonzero(highest > shifts)  # the columns nonzero in some row
        factors = np.empty_like(l[1:])
        num, den, root, total = np.empty(rows), np.empty(rows), np.empty(rows), np.zeros(rows)
        guarded = (d - 1) * math.log2(highest[0] + 1) >= 1000
        with np.errstate(over="ignore", invalid="ignore", divide="ignore") if guarded else nullcontext():
            for i in range(min(top + 1, d)):
                np.add(l[i], 1, out=root)
                if i:  # g_k + 1 for k < i, then for k > i, skipping empty slices: a call costs as much as on a row
                    np.subtract(root, l[:i], out=factors[:i])
                if i < d - 1:
                    np.subtract(root, l[i + 1:], out=factors[i:])
                np.multiply.reduce(factors, axis=0, out=num)
                factors -= 1
                np.multiply.reduce(factors, axis=0, out=den)
                if guarded:
                    wide = ~(np.isfinite(num) & np.isfinite(den))  # inf * 0 is NaN where alpha + e_i is no frame
                # R_i >= 0: both products have the sign (-1)^i, or num is a zero, which adds nothing to total
                np.divide(num, den, out=num)
                if guarded and wide.any():
                    num[wide] = np.exp(np.log1p(1 / factors[:, wide]).sum(axis=0))
                num /= np.sqrt(root, out=root)
                total += num
        del factors, num, den, root  # freed first, so c's column sums stay under the loop's peak
        with np.errstate(divide="ignore"):
            logs = _row_order_sum(np.log1p(np.divide(1.0, l, out=l), out=l))
        return _read_only((1.0 / np.sqrt(-np.expm1(-logs)), total))

    @cached_property
    def c(self) -> np.ndarray:
        """``recycling.height_correction``, from the hook pass."""
        return self._hook_pass[0]

    @cached_property
    def s_over_sqrt_p(self) -> np.ndarray:
        """``recycling.s_over_sqrt_p`` at the block's port counts: the hook pass's sum times sqrt(N/d)."""
        return _read_only(self._hook_pass[1] * np.sqrt(np.asarray(self.ports) / self.table.shape[1]))
