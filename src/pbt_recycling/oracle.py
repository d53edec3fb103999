"""Exact dense-matrix construction of every protocol object for small N.

Everything lives on (C^d)^(x)(N+1) with the port systems first and the input
system last; basis indices are big-endian in the local digits.  Fidelities
are computed directly from their defining expressions, against which every
closed form in the package is checked.  No closed form imports this
module; constructors only tests read are in ``tests/dense_reference.py``.

Every object is real in the computational basis, so every operator is a
plain float64 ``np.ndarray``; the one eigensolve helper checks symmetry.

The Young projectors come from box contents (Okounkov and Vershik,
arXiv:math/0503040).  The central elements C1 = sum_{i<j} (i j) and
C2 = sum_k X_k^2, X_k the Jucys-Murphy elements, act on the block of frame mu
as the sums of c and c^2 over its boxes' contents c.  A = K C1 + C2 is a sum
of port permutations, which keep every digit count, so A is block diagonal by
port weight, the digit counts of (C^d)^(x)n.  It is summed packed on those
blocks (``_young_basis``, grouped by the code that groups the torus weights
below) and solved by one stacked eigensolve per block size: at (6, 4) the
largest block is 180 x 180, not 4096 x 4096.  Each eigenvector is labelled
with the frame whose predicted eigenvalue lies nearest.  An eigenvalue far
from every prediction raises ``RuntimeError``, so the oracle tests the
content theory it relies on.  A basis keeps the packed eigenvectors U and
the labels, one frame row of ``frame_table`` per eigenvector; no projector
is stored.  A projector is U_mu U_mu^T over the eigenvectors labelled mu, and
the sender rotation O is U diag(scale[labels]) U^T, block by block
(``_rotation``).  Port operators have this one packed format; only
``build_optimizing_operator`` unpacks O into a dense d^N x d^N array.

The square-root measurement is built from the signals' factors.  With
D = d^(N+1) and r = d^(N-1), sigma_a = d^(1-N) Q_a Q_a^T, where the D x r
isometry Q_a is |phi+> on (port a, input) times the identity on the other
ports; each column has d nonzeros (``_signal_columns``).  Every signal
commutes with U^(x)N (x) conj(U), so for diagonal U every operator of the
measurement is block diagonal by torus weight: the port digit counts minus
the unit vector of the input digit (``_torus_blocks``).  The blocks hold a
small share of D^2 (7.9%, 4.1% and 2.1% at (4, 3), (3, 4) and (2, 6)), so
the measurement is held packed (``_Packing``): one flat float64 buffer per
operator holding every block, with one (k, s, s) view per block size s for
stacked ``matmul`` and ``eigh``.  One premise is checked exactly, before
any signal is summed: each column of every Q_a lies inside one block, else
``RuntimeError`` (``_Point.signal_blocks``).  rho = d^(1-N) sum_a Q_a Q_a^T is then
a sum of outer products of vectors that each lie in one block, so it has no
entry off the blocks, and it is summed packed, column by column
(``_packed_signal``), with the bits of the dense sum.  The torus weights are
sorted on N + 1 digits per basis index, not d counts (``_torus_blocks``).
rho's blocks of one size are solved as one stacked eigensolve, which gives
W = rho^(-1/2) on the support, packed, and rho's spectrum.  At (3, 4) that is
50 blocks of 5 sizes, the largest 18 x 18, in place of one 256 x 256
eigensolve.  On a block holding r_b columns of Q_a, the bare element
pi_a = W sigma_a W is Y Y^T with the s x r_b factor Y = d^((1-N)/2) W Q_a,
whose columns are sums of W's rows; the excess Delta = 1 - sum_a pi_a
projects onto ker rho.  Port N's completed element pi_N + Delta/N has the
root sqrt(pi_N) + Delta/sqrt(N), because pi_N lives on supp rho, and the
polar identity sqrt(Y Y^T) = Y (Y^T Y)^(-1/2) Y^T takes sqrt(pi_N) from the
r_b x r_b blocks of the Gram matrix G = Y_N^T Y_N, one stacked eigensolve per
block size and column count (``_Point.signal_blocks``).  The measurement is
one read-only ``_Measurement`` tuple on the record (``_Point.measurement``):
the N bare elements, Delta and that completed root (the operator behind every
recycling fidelity), all packed, with rho's eigenvalues and G's.  It is built
once per (N, d) and shared by every call; ``srm_povm`` and
``channel_fidelity_oracle`` unpack what they read into dense arrays through
the record's packing.  Its eigensolves are the only ones of the
measurement: ``rho_spectrum_report`` reads rho's eigenvalues, and
``povm_spectrum_deviation`` reads G's, the nonzero spectrum of pi_N.  So a
fresh point costs its index tables, the stacked eigensolves of rho's and G's
blocks and products on the blocks, besides the Young eigenbases of the
rotation, and a cached point none.  No call but the dense views of
``srm_povm`` and ``channel_fidelity_oracle`` allocates a D x D array, and
none but ``build_optimizing_operator`` and its callers a d^N x d^N one.

Everything the oracle keeps at (N, d) lives on one record, ``_Point``, each
part a cached property built on first read and read-only: the digit table
of N + 1 factors; the torus ``_Packing`` and every port's signal blocks; the
measurement and each value read from it alone; the Young bases of N and
N - 1 ports on their port packings, each built on its own digit table of n
factors, so a call that reads only a rotation builds no table of N + 1; and
the gather pairs of ``_Point.embedded``.  Every public call reaches its
state through the record at its own point, which ``_point`` holds alone: a
call at a new point drops the record at the old one, with its measurement,
bases and tables, before it allocates, so interleaving two points rebuilds
each at every switch.

Memory has one limit, ``ORACLE_BYTE_BUDGET`` bytes.  Before a public call
allocates, it counts the bytes it will hold at once (``_srm_blocks``): what
the record it finds at its point keeps in the properties it has built, or
nothing when the record is at another point; then, in build order, each
property the call reads and the record lacks, what it holds while built
beside what is kept and then what it keeps; last, what the call holds beside
them: operators, temporaries, four arrays per eigensolve (LAPACK's copy,
workspace and eigenvectors; four per matrix of a stack, at the stack's size)
and dense arrays.  A packed operator counts as its
entries, the sum of its blocks' s^2, an exact integer sum taken before any
index array exists (``_packed_entries``, on the port blocks and, counted as
N + 1 ports, the torus blocks), and an int64 array as many float64 entries
as it has.  A call whose first table, the digits of N + 1 factors or of a
Young basis's N, is over the budget alone while built counts it alone.  Over
the budget a call raises ``DimensionCapError``, exit code 2 in the CLI; the
class lives in ``reports`` and is re-exported here.

One measurement serves the optimal protocol too.  Its sender rotation
O (x) 1 is a weighted sum of port Young projectors, so it commutes with
rho = sum_a sigma_a.  With positive weights O is invertible, the rotated
signals sum to O rho O^T = O^2 rho, and whitening undoes the rotation:
(O^2 rho)^(-1/2) O sigma_a O (O^2 rho)^(-1/2) = rho^(-1/2) sigma_a rho^(-1/2).
With a zero weight O is singular; the oracle then uses the plain measurement,
as ``frec_optimal`` does.

What reads no weight is a cached property of the record, computed on first
read from its measurement and kept beside it, read-only: ``frec_oracle``'s
value, root sigma_N, both spectral reports, and ten of ``verify_suite``'s
checks, the last ``frec``'s closed form against ``frec_oracle``'s value.
So every value the record caches sits in its one ``vars``, which
``_srm_blocks`` counts.  A cached value lives and dies with its record, and
reads the record's own measurement and tables, never the memo: the memo
drops the old record before it builds a new one, a record it has dropped
still computes on its own tables, and a fresh record given another
measurement computes its own values from it.  The checks that
read rotation weights hold the rotations on the torus blocks.  O (x) 1 and
O_(N-1) (x) 1 (x) 1 commute with U^(x)N (x) conj(U) for diagonal U, so each
is block diagonal by torus weight: entry (m, n) is the rotation's entry
(m // q, n // q), q = d or d^2, where m and n share the input digit (and
port N's), else 0, and those two port indices share one port weight.  Each
is one gather of the packed rotation, at index pairs kept on the record per
q (``_Point.embedded``).  One check is vdot(c_a, (O (x) 1)(O (x) 1)^T)
for the completed elements c_a = pi_a + Delta/N; the other, given weights
for N - 1 ports, is the optimal fidelity, a vdot of root sigma_N with
(O_N (x) 1)(O_(N-1) (x) 1 (x) 1)^T (``_optimal_value``, which
``frec_optimal_oracle`` calls too): stacked products on the record's views.
So a repeat ``verify_suite`` call at a point pays only for its rotations:
one budget count, O_N and O_(N-1) built once each on the port blocks, two
gathers and two products on the torus blocks, and no D x D array.

``verify_suite`` checks covariance under the port group S(N) on its N - 1
generators, the adjacent transpositions.  Conjugating by a permutation
matrix only permutes entries, so deviations add along a word, and every
permutation is a word of at most N(N - 1)/2 of them: the reported value,
N(N - 1)/2 times the largest deviation over the generators, bounds the
deviation over all N! permutations.  A port permutation keeps every digit
count, so it maps each torus block to itself: conjugating a packed operator
is one gather of its buffer, computed once per transposition
(``_swap_gather``) for the signals and the completed elements alike.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import cached_property
from math import sqrt
from typing import NamedTuple, Optional

import numpy as np

from .optimal import VCoefficients, _check_optimal_point, frec_optimal
from .partitions import _memo, _point_block, _read_only, frame_count, frame_table
from .recycling import _check_point, frec, trace_sqrt_povm_signal
from .reports import DimensionCapError, FidelityReport, VerifyReport

#: Bytes of dense float64 arrays one oracle call may hold at once.
ORACLE_BYTE_BUDGET = 1 << 30

#: Relative support threshold: eigenvalues below tol*lambda_max count as kernel.
SUPPORT_TOL = 1e-12

#: Eigenvalues in (-1e-10, 0) are clamped to 0; more negative ones are an error.
NEGATIVE_EIG_TOL = 1e-10

#: Largest distance of an eigenvalue of K C1 + C2 from its frame's prediction, relative to max|e|.
CONTENT_TOL = 1e-10

#: Dense arrays one eigensolve holds besides its input: LAPACK's copy, workspace and eigenvectors.
_EIGH_ARRAYS = 4


def _require(*blocks: tuple[int, int]) -> None:
    """Raise unless ``count`` dense dim x dim float64 arrays per (count, dim) block fit the budget.

    Counted in Python ints, which never wrap, whatever integer type the counts are.
    """
    nbytes = _nbytes(blocks)
    if nbytes > ORACLE_BYTE_BUDGET:
        raise DimensionCapError(f"dense arrays of {nbytes} bytes: exceeds cap, the byte budget is {ORACLE_BYTE_BUDGET}")


@dataclass(frozen=True, eq=False)
class SpectrumReport:
    """Oracle eigenvalues, ascending and read-only, versus a predicted (value, multiplicity) list."""

    eigenvalues: np.ndarray
    predicted: tuple[tuple[float, int], ...]
    max_deviation: float


def _digits(d: int, n: int) -> np.ndarray:
    """Base-d digits of every basis index of (C^d)^(x)n, most significant first."""
    return (np.arange(d**n)[:, None] // d ** np.arange(n - 1, -1, -1)) % d


def _permuted_indices(perm, digits: np.ndarray, d: int) -> np.ndarray:
    """Where each basis index goes when factor ``k`` becomes factor ``perm[k]``, from the ``_digits`` of n factors.

    The permutation operator V has V[rows[j], j] = 1, so (V X V^T)[rows][:, rows] = X.
    """
    perm, n = tuple(perm), digits.shape[1]
    if sorted(perm) != list(range(n)):
        raise ValueError(f"{perm} is not a permutation of 0..{n - 1}")
    return digits[:, np.argsort(perm)] @ d ** np.arange(n - 1, -1, -1)


def transposition(i: int, j: int, n: int) -> tuple[int, ...]:
    """The permutation exchanging positions i and j (0-based)."""
    p = list(range(n))
    p[i], p[j] = p[j], p[i]
    return tuple(p)


def _signal_columns(a: int, digits: np.ndarray, d: int) -> np.ndarray:
    """Where signal ``a``'s factor is nonzero: a d^(N-1) x d array, one row per column of Q_a.

    ``digits`` are the ``_digits`` of N + 1 factors.  sigma_a = d^(1-N) Q_a Q_a^T, and column j of the isometry Q_a is
    |phi+> on (port a, input) times basis state j on the other ports: it is
    d^(-1/2) at the d indices whose port-a and input digits agree and whose
    other digits spell j.  Adding 1 to both digits adds d^(N+1-a) + 1.
    """
    N = digits.shape[1] - 1
    base = np.flatnonzero((digits[:, a - 1] == 0) & (digits[:, N] == 0))
    return base[:, None] + np.arange(d) * (d ** (N + 1 - a) + 1)


def _eigh(m: np.ndarray):
    """``eigh`` of a real symmetric matrix or a stack of them, after checking symmetry."""
    _require((_EIGH_ARRAYS * math.prod(m.shape[:-2]), m.shape[-1]))
    dev = np.abs(m - np.swapaxes(m, -1, -2)).max()
    if not dev <= 1e-12:
        raise ValueError(f"operator is not symmetric (deviation {dev})")
    return np.linalg.eigh(m)


def _psd_function(stacks: list, f, tol: float) -> tuple[list, list]:
    """(f of each matrix or stack, their eigenvalues) for the diagonal blocks of one PSD operator.

    f acts on eigenvalues above tol*lambda_max, 0 on the rest, lambda_max
    the largest eigenvalue over every block.  One eigensolve per entry that
    is not all zero; an all-zero entry has eigenvalues 0, so f of it is 0.
    """
    solved = [_eigh(m) if np.any(m) else (np.zeros(m.shape[:-1]), np.zeros_like(m)) for m in stacks]
    spectra = [w for w, _ in solved]
    lam_max = max((float(w.max()) for w in spectra if w.size), default=0.0)
    lam_min = min((float(w.min()) for w in spectra if w.size), default=0.0)
    neg_floor = -NEGATIVE_EIG_TOL * max(1.0, abs(lam_max))
    if lam_min < neg_floor:
        raise ValueError(f"not PSD: eigenvalue {lam_min} below {neg_floor}")
    values = []
    for w in spectra:
        _, u = solved.pop(0)
        support = w > tol * max(lam_max, 0.0)
        vals = np.zeros_like(w)
        vals[support] = f(w[support])
        m = (u * vals[..., None, :]) @ np.swapaxes(u, -1, -2)
        del u
        values.append(0.5 * (m + np.swapaxes(m, -1, -2)))
    return values, spectra


def _torus_blocks(digits: np.ndarray) -> list[np.ndarray]:
    """The basis indices of rho's diagonal blocks, one k x s array per block size s, sizes ascending.

    ``digits`` are the ``_digits`` of N + 1 factors.  A row of an array is
    one block: the indices of one torus weight, the digit counts of the ports
    minus the unit vector of the input digit.  rho commutes with
    U^(x)N (x) conj(U) for every diagonal unitary U, which multiplies a basis
    state by its weight's character, so rho has no entry between two weights.

    Weights are grouped by sorting N + 1 digits per index, a key that orders
    them as their entries do read from digit d - 1 down.  Where the input
    digit k is among the ports, the weight is the port digits less one k:
    their N - 1 digits descending, then -1 twice (nothing left).  Else it is
    the port digits with -1 at k: the N port digits descending with -2 - k
    between those above k and those below, the -1 at k ranking below every
    count, and a -1 further down below one nearer the top.
    """
    N = digits.shape[1] - 1
    k = digits[:, N]
    ports = np.full((N + 2, len(digits)), -1)  # the port digits descending, two -1s after
    ports[:N] = np.sort(digits[:, :N], axis=1)[:, ::-1].T
    above = (ports[:N] > k).sum(axis=0)
    present = (ports[:N] == k).any(axis=0)
    key = np.empty((N + 1, len(digits)), dtype=np.int64)
    for j in range(N + 1):
        absent = np.where(j == above, -2 - k, ports[j - 1])
        key[j] = np.where(j < above, ports[j], np.where(present, ports[j + 1], absent))
    del ports, above, present
    return _grouped(key)


def _grouped(key: np.ndarray) -> list[np.ndarray]:
    """The basis indices grouped by equal columns of ``key``, one k x s array per block size s, sizes ascending.

    Blocks are sorted by their key, read from its first row down.
    """
    order = np.lexsort(key[::-1])
    change = np.zeros(len(order) - 1, dtype=bool)
    for row in key:
        row = row[order]
        change |= row[1:] != row[:-1]
    starts = np.flatnonzero(np.concatenate(([True], change)))
    sizes = np.diff(starts, append=len(order))
    return [order[starts[sizes == s][:, None] + np.arange(s)] for s in np.flatnonzero(np.bincount(sizes)).tolist()]


def _packed_entries(n: int, d: int) -> list[int]:
    """Entries of a packed operator on the port weights of m factors, S_d(m), for m = 0..n, in exact integers.

    S_j(m) sums multinomial(m; c)^2 over the compositions c of m into j parts.
    Splitting c into its first i parts and its last j, by the k factors they
    hold, gives S_(i+j)(m) = sum_k C(m, k)^2 S_i(k) S_j(m - k); from
    S_0(m) = [m = 0] and S_1(m) = 1 the bits of d take about 2 log2(d) of these
    n^2 steps.  The ``_torus_blocks`` of (N, d) hold as many entries as the port
    weights of N + 1 factors: exchanging the input digits of two indices maps
    the pairs with one torus weight one to one onto the pairs with one digit count.
    """

    def join(x, y):
        return [sum(math.comb(m, k) ** 2 * x[k] * y[m - k] for k in range(m + 1)) for m in range(n + 1)]

    s = [1] + [0] * n
    for bit in bin(d)[2:]:
        s = join(s, s) if bit == "0" else join(join(s, s), [1] * (n + 1))
    return s


class _Packing(NamedTuple):
    """Where a block-diagonal operator sits in one flat float64 buffer, its packed form.

    The blocks are ``_grouped`` basis indices: the ``_torus_blocks`` of the
    measurement (``_Point.packing``), or the port weights of a Young basis (``_young_basis``).

    The blocks of one size s follow each other, each s x s and row-major,
    sizes ascending; ``views`` gives one (k, s, s) view per size.  Per basis
    index: ``pos`` is its place in its block, ``width`` its block's size,
    ``start`` where its row of the block begins in the buffer, so entry (m, n)
    of a block sits at ``start[m] + pos[n]``, and ``first`` where its block
    begins in ``order``, the blocks' indices one block after another.
    """

    blocks: tuple[np.ndarray, ...]
    order: np.ndarray
    start: np.ndarray
    pos: np.ndarray
    width: np.ndarray
    first: np.ndarray
    size: int

    diagonal = property(lambda self: self.start + self.pos)

    def views(self, buf: np.ndarray) -> list[np.ndarray]:
        """The (k, s, s) view of each block size of a packed operator ``buf``."""
        views, offset = [], 0
        for b in self.blocks:
            k, s = b.shape
            views.append(buf[offset:offset + k * s * s].reshape(k, s, s))
            offset += k * s * s
        return views

    def over_entries(self, f, dtype=np.float64) -> np.ndarray:
        """f(row index, column index) at every packed entry, in buffer order.

        f gets the (k, s, 1) and (k, 1, s) index arrays of each block size.
        """
        out = np.empty(self.size, dtype)
        for b, view in zip(self.blocks, self.views(out)):
            view[...] = f(b[:, :, None], b[:, None, :])
        return out

    def pack(self, dense: np.ndarray) -> np.ndarray:
        return self.over_entries(lambda m, n: dense[m, n])

    def unpack(self, buf: np.ndarray) -> np.ndarray:
        """The dense D x D operator of a packed one, zero outside the blocks."""
        dense = np.zeros((len(self.order),) * 2)
        for b, view in zip(self.blocks, self.views(buf)):
            dense[b[:, :, None], b[:, None, :]] = view
        return dense

    def eye(self) -> np.ndarray:
        one = np.zeros(self.size)
        one[self.diagonal] = 1.0
        return one

    def product(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """x y^T of two packed operators, packed: one stacked ``matmul`` per block size."""
        out = np.empty(self.size)
        for o, a, b in zip(self.views(out), self.views(x), self.views(y)):
            np.matmul(a, b.transpose(0, 2, 1), out=o)
        return out


def _pack(blocks: list[np.ndarray]) -> _Packing:
    """The ``_Packing`` of blocks from ``_grouped``; its blocks are views of ``order``."""
    order = np.concatenate([b.ravel() for b in blocks])
    bounds = np.cumsum([0] + [b.size for b in blocks])
    blocks = [order[lo:hi].reshape(b.shape) for lo, hi, b in zip(bounds, bounds[1:], blocks)]
    start, pos, width, first = (np.empty(len(order), dtype=np.int64) for _ in range(4))
    offset = row = 0
    for b in blocks:
        k, s = b.shape
        pos[b] = np.arange(s)
        width[b] = s
        start[b] = offset + s * s * np.arange(k)[:, None] + s * np.arange(s)
        first[b] = row + s * np.arange(k)[:, None]
        offset += k * s * s
        row += k * s
    return _Packing(tuple(blocks), order, start, pos, width, first, offset)


def _packed_signal(point: _Point, ports) -> np.ndarray:
    """The sum of sigma_a over ``ports``, on ``point``'s torus blocks: d^(-N) at each index pair of a column of Q_a.

    Each port's columns come from ``_Point.signal_blocks``, which first checks
    that each lies inside one block: one that does not raises before any is added.
    """
    buf, packing = np.zeros(point.packing.size), point.packing
    for a in ports:
        for cols in point.signal_blocks[a - 1]:
            buf[packing.start[cols][..., None] + packing.pos[cols][..., None, :]] += 1.0 / point.d**point.N
    return buf


def _summed_rows(packing: _Packing, x: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Packed x's rows summed over the d indices of each column of a ``_Point.signal_blocks`` array: k x r x s.

    Each sum is the s entries of the column's block.  For symmetric x the sums
    over Q_a's columns are d^(1/2) Q_a^T x, and x sigma_a is d^(-N) times them at each index of the column.
    """
    s = packing.width[cols.flat[0]]
    return x[packing.start[cols][..., None] + np.arange(s)].sum(axis=-2)


def _block_entries(packing: _Packing, cols: np.ndarray) -> np.ndarray:
    """Where each block of a ``_Point.signal_blocks`` array sits in a packed buffer: k x s^2."""
    head = cols[:, 0, 0]
    s = packing.width[head[0]]
    return (packing.start[head] - s * packing.pos[head])[:, None] + np.arange(s * s)


def _swap_gather(packing: _Packing, perm, digits: np.ndarray, d: int) -> np.ndarray:
    """The gather g of packed operators with (V X V^T) packed = X[g], V the port permutation operator of ``perm``.

    (V X V^T)[m, n] = X[p[m], p[n]] with p the inverse of ``_permuted_indices``;
    a port permutation keeps every digit count, so p maps each block to itself.
    """
    inverse = np.argsort(_permuted_indices(perm, digits, d))
    return packing.over_entries(lambda m, c: packing.start[inverse[m]] + packing.pos[inverse[c]], np.int64)


def _blocked_inverse_root(point: _Point) -> tuple[np.ndarray, np.ndarray]:
    """(W = rho^(-1/2) on the support, packed; rho's eigenvalues ascending), one stacked eigensolve per block size.

    rho is summed packed (``_packed_signal``).  A stack that is all zero
    (torus weights no signal reaches) is not solved.
    """
    rho = _packed_signal(point, range(1, point.N + 1))
    roots, spectra = _psd_function(point.packing.views(rho), lambda w: 1.0 / np.sqrt(w), SUPPORT_TOL)
    del rho
    return np.concatenate([m.ravel() for m in roots]), np.sort(np.concatenate([w.ravel() for w in spectra]))


def _symmetric_gram(yt: np.ndarray) -> np.ndarray:
    """yt^T yt for each matrix of a stack, symmetrised in place."""
    m = np.swapaxes(yt, -1, -2) @ yt
    m += np.swapaxes(m, -1, -2)
    m *= 0.5
    return m


def _nbytes(blocks) -> int:
    return sum(int(count) * int(dim) ** 2 * 8 for count, dim in blocks)


#: The record properties the measurement reads, in build order.
_MEASURED = ("digit_table", "packing", "signal_blocks", "measurement")

#: Those the rotations of ``frec_optimal_oracle`` read, in build order; O_N (x) 1 alone reads the first two.
_ROTATED = ("young", "gather", "prev_young", "prev_gather", "root_signal")

#: The record's cached values that its public readers return, each read alone.
_REPORTS = ("frec_value", "rho_spectrum_report", "povm_spectrum_deviation")


def _srm_blocks(N: int, d: int, names: tuple[str, ...], packed: int = 0, ports: int = 0, dense=()) -> tuple:
    """``_require`` blocks of a call at (N, d) that reads the record's properties ``names``, in build order.

    The record at (N, d) counts as what its built properties keep, every one
    of them in its ``vars``: nothing when ``_point`` held a record at another
    point, which it drops here.  Each of ``names`` the record lacks is then
    built in turn, holding at most the entries ``sizes`` gives beside those
    kept, then keeping its own.  Last, the call holds ``packed`` operators on
    the torus blocks, ``ports`` on the port blocks of N ports and the
    ``dense`` blocks beside all that is kept.  With D = d^(N+1) and P_n the
    entries of a packed operator on n factors (P_(N+1) on the torus blocks):
    the digit table holds two tables and an index column while built; the
    torus packing's build (``_torus_blocks``, ``_grouped``, ``_pack``) up to
    2N + 8 index entries per basis index, and it keeps five; the signal blocks
    keep N d^N columns; the measurement holds N + 8 packed operators (W, the N
    bare elements, the excess and the root, with the gathers and products of
    one ``signal_blocks`` array; rho with its eigensolves holds fewer) and
    keeps N + 2 with both spectra; the checks hold 2N + 4 packed operators and
    N + 12 index entries per basis index; a Young basis of n ports keeps its
    port packing, U and a label per packed entry, and its build holds its own
    digit table of n factors, the sort and group tables and the permutation
    indices, two distances per frame and index while labelling, and A with one
    stacked eigensolve; a gather pair keeps two int64 arrays of d^held entries
    per port entry.  Where the first table a call builds, the digits of N + 1
    factors or of a Young basis's N, is over the budget alone while built, it
    is counted alone: such a point's frame counts and P_n can take long to sum.
    """
    N, d = operator.index(N), operator.index(d)
    point = _point(N, d)  # a call at another point drops the record held there now, before it allocates
    built = set(vars(point))
    D, p, r = d ** (N + 1), d**N, d ** (N - 1)
    first = (2 * N + 3) * D if names[0] == "digit_table" else (2 * N + 1) * p  # the first table the call builds
    if names[0] not in built and _nbytes([(first, 1)]) > ORACLE_BYTE_BUDGET:
        return ((first, 1),)
    P, Pn, Pm = point.packed_entries
    sizes = {  # property: (entries it keeps, entries it holds at most while built, those included)
        "digit_table": ((N + 1) * D, (2 * N + 3) * D),
        "packing": (5 * D, (2 * N + 8) * D),
        "signal_blocks": (N * p, (N + 6) * p + 2 * D),
        "measurement": ((N + 2) * P + D + r, (N + 8) * P),
        "checks": (0, (2 * N + 4) * P + (N + 12) * D),
        # ``frec_oracle``'s value, the rho spectrum report, the POVM spectrum deviation
        **dict.fromkeys(_REPORTS, (0, P + 4 * D + (2 * frame_count(N - 1, d) + 3) * r)),
        # the rotations' builds with what their callers hold beside them: O_N (x) 1 from ``prev_young``
        # on, and with it the product of the two rotations beside ``root_signal``
        "young": (5 * p + 2 * Pn, (4 * N + 13 + 2 * frame_count(N, d)) * p + (_EIGH_ARRAYS + 3) * Pn),
        "gather": (2 * d * Pn, 3 * P + 2 * d * Pn),
        "prev_young": (5 * r + 2 * Pm, (4 * N + 9 + 2 * frame_count(N - 1, d)) * r + (_EIGH_ARRAYS + 3) * Pm + P),
        "prev_gather": (2 * d * d * Pm, 4 * P + 2 * d * d * Pm),
        "root_signal": (P, 4 * P + 2 * D),
    }
    kept = sum(sizes[name][0] for name in built & sizes.keys())
    steps = []
    for name in names:
        if name not in built:
            steps.append(((kept + sizes[name][1], 1),))
            kept += sizes[name][0]
    return max(steps + [((kept + packed * P + ports * Pn, 1),) + tuple(dense)], key=_nbytes)


#: The Young eigenbasis of n ports, read-only (``_young_basis``): U and its labels, packed on ``packing``.
_Young = NamedTuple("_Young", [("packing", _Packing)] + [(name, np.ndarray) for name in ("frames", "u", "labels")])

class _Measurement(NamedTuple):
    """The square-root measurement at one point (``_Point.measurement``), read-only.

    The N bare elements ``pis``, the excess ``delta`` and the completed
    ``root`` are packed on the record's torus ``_Packing``; both spectra are ascending.
    """

    pis: tuple[np.ndarray, ...]
    delta: np.ndarray
    root: np.ndarray
    rho_eigenvalues: np.ndarray
    gram_eigenvalues: np.ndarray


class _Point:
    """Everything the oracle keeps at one (N, d), each part a cached property, built on first read and read-only.

    They are the (N + 1)-digit table and the torus ``_Packing``; every port's
    signal blocks; the ``_Measurement`` and the values read from it alone
    (``frec_oracle``'s value, root sigma_N, both spectral reports and the
    weightless checks); the Young bases of N and N - 1 ports with their port
    packings; and the two gather pairs of ``embedded``.  Each reads this
    record's own tables, so a record that ``_point`` no longer holds still
    computes on them.  ``_point`` holds one record, so a call at another
    point drops this one, with all it holds, before it builds.
    """

    def __init__(self, N: int, d: int):
        self.N, self.d = N, d

    # the digits of N + 1 factors and the ``_Packing`` of their ``_torus_blocks``; the Young bases
    # of N and N - 1 ports, each on its own digit table; and ``embedded``'s index pairs for their rotations
    digit_table = cached_property(lambda self: _read_only(_digits(self.d, self.N + 1)))
    packing = cached_property(lambda self: _read_only(_pack(_torus_blocks(self.digit_table))))
    young = cached_property(lambda self: _young_basis(_digits(self.d, self.N), self.d))
    prev_young = cached_property(lambda self: _young_basis(_digits(self.d, self.N - 1), self.d))
    gather = cached_property(lambda self: self._gather_pair(1, self.young.packing))
    prev_gather = cached_property(lambda self: self._gather_pair(2, self.prev_young.packing))
    # what ``_srm_blocks`` counts a packed operator as: on the torus blocks, on N and on N - 1 ports
    packed_entries = cached_property(lambda self: _packed_entries(self.N + 1, self.d)[::-1][:3])

    @cached_property
    def signal_blocks(self) -> tuple[tuple[np.ndarray, ...], ...]:
        """Per port, Q_a's columns (``_signal_columns``) by torus block: k x r x d per (block size, columns per block).

        Row i of an array holds the r columns inside its i-th block; blocks
        holding none are left out.  Port by port, raises ``RuntimeError``
        unless each column lies inside one block.
        """
        N, d, packing = self.N, self.d, self.packing
        ports = []
        for a in range(1, N + 1):
            cols = _signal_columns(a, self.digit_table, d)
            blocks = packing.first[cols]
            if not (blocks == blocks[:, :1]).all():
                raise RuntimeError(f"a column of signal {a}'s factor at ({N}, {d}) spans two torus-weight blocks")
            order = np.argsort(blocks[:, 0], kind="stable")
            cols, blocks = cols[order], blocks[order, 0]
            counts = np.bincount(blocks)[blocks]  # of each column's block
            widths = packing.width[cols[:, 0]]
            ports.append(tuple(
                cols[(widths == s) & (counts == r)].reshape(-1, r, d)
                for s, r in sorted(set(zip(widths.tolist(), counts.tolist())))
            ))
        return _read_only(tuple(ports))

    @cached_property
    def measurement(self) -> _Measurement:
        """The ``_Measurement``, as the module docstring builds it.

        On each block, pi_a = Y Y^T with Y = d^(-N/2) W Q_a' (Q_a' the 0/1
        pattern of Q_a's columns there), a gather of rows of the symmetric W, and
        sqrt(pi_N) = Y V Lambda^(-1/2) V^T Y^T from G = Y_N^T Y_N = V Lambda V^T,
        positive definite as W is invertible on supp rho: one stacked eigensolve per
        ``signal_blocks`` array.  G is block diagonal, so its spectrum is its blocks'.
        """
        N, d, packing = self.N, self.d, self.packing
        whiten, rho_eigenvalues = _blocked_inverse_root(self)
        pis = np.zeros((N, packing.size))
        for a, port in enumerate(self.signal_blocks, start=1):
            factors = []  # (columns, Y^T) per ``signal_blocks`` array
            for cols in port:
                factors.append((cols, _summed_rows(packing, whiten, cols) * d ** (-N / 2)))
                pis[a - 1, _block_entries(packing, cols)] = _symmetric_gram(factors[-1][1]).reshape(len(cols), -1)
        del whiten
        delta = packing.eye()
        delta -= pis.sum(axis=0)
        grams = [_eigh(yt @ np.swapaxes(yt, -1, -2)) for _, yt in factors]  # the loop leaves port N's factors
        lam = np.sort(np.concatenate([w.ravel() for w, _ in grams]))
        if not lam[0] > SUPPORT_TOL * lam[-1]:
            raise RuntimeError(f"Gram matrix of port {N}'s whitened signal is singular: eigenvalue {lam[0]}")
        root = delta / sqrt(N)
        for (cols, yt), (w, v) in zip(factors, grams):
            half = np.swapaxes(v * w[:, None, :] ** -0.25, -1, -2) @ yt  # Lambda^(-1/4) V^T Y^T
            root[_block_entries(packing, cols)] += _symmetric_gram(half).reshape(len(cols), -1)
        return _read_only(_Measurement(tuple(pis), delta, root, rho_eigenvalues, lam))

    @cached_property
    def frec_value(self) -> float:
        """``frec_oracle``'s value: its defining trace expression on the completed root."""
        N, d, (pis, delta, root, *_), diagonal = self.N, self.d, self.measurement, self.packing.diagonal
        norm = sqrt(pis[N - 1][diagonal].sum() + delta[diagonal].sum() / N)
        # tr(sigma_N root) = vdot(sigma_N, root): both are symmetric, and both packed
        overlap = abs(np.vdot(_packed_signal(self, (N,)), root))
        return float((N / d) * norm / sqrt(d ** (N + 1)) * overlap)

    @cached_property
    def root_signal(self) -> np.ndarray:
        """root sigma_N, packed: the weightless factor of the optimal fidelity (``_optimal_value``)."""
        return _read_only(self.packing.product(self.measurement.root, _packed_signal(self, (self.N,))))

    @cached_property
    def rho_spectrum_report(self) -> SpectrumReport:
        """rho's eigenvalues against ``_rho_spectrum_prediction``."""
        eigenvalues, predicted = self.measurement.rho_eigenvalues, _rho_spectrum_prediction(self.N, self.d)
        expanded = np.sort(np.concatenate([np.full(m, lam) for lam, m in predicted]))
        return SpectrumReport(
            eigenvalues=eigenvalues,
            predicted=tuple(sorted(predicted)),
            max_deviation=float(np.abs(eigenvalues - expanded).max()),
        )

    @cached_property
    def povm_spectrum_deviation(self) -> float:
        """Worst distance of an eigenvalue of G from zero and the ``_povm_block_factors``."""
        allowed = np.array([0.0] + _povm_block_factors(self.N, self.d))
        return float(np.abs(self.measurement.gram_eigenvalues[:, None] - allowed).min(axis=1).max())

    @cached_property
    def checks(self) -> tuple[tuple[str, float, str], ...]:
        """(name, deviation, detail) of the ten checks that read no weights, in ``verify_suite``'s order."""
        N, d, packing, (pis, delta, root, *_) = self.N, self.d, self.packing, self.measurement
        n, diagonal = N + 1, packing.diagonal
        sigs = [_packed_signal(self, (a,)) for a in range(1, N + 1)]
        checks = []

        def add(name: str, deviation, detail: str = ""):
            checks.append((name, float(deviation), detail))

        excess = delta / N
        completed = [pi + excess for pi in pis]
        del excess
        total = sum(completed[1:], completed[0].copy())
        total[diagonal] -= 1.0
        add("povm_completeness", np.abs(total).max())
        del total
        add("excess_idempotent", max(np.abs(m @ m - m).max() for m in packing.views(delta)))
        # every column of delta sigma_s at an index of column j of Q_s is d^(-N) times
        # the sum of delta's columns there, its rows as delta is symmetric
        dev_orth = max(
            np.abs(_summed_rows(packing, delta, cols)).max()
            for s in range(1, N + 1)
            for cols in self.signal_blocks[s - 1]
        )
        add("excess_signal_orthogonal", dev_orth / d**N)

        # covariance under the adjacent port transpositions (acting trivially on the input);
        # a word of at most N(N - 1)/2 of them reaches any permutation, and its deviations add up
        dev_cov = 0.0
        for i in range(N - 1):
            perm = transposition(i, i + 1, N)
            swap = _swap_gather(packing, transposition(i, i + 1, n), self.digit_table, d)
            for a in range(1, N + 1):
                b = perm[a - 1] + 1
                for x in (sigs, completed):
                    diff = x[b - 1][swap]
                    diff -= x[a - 1]
                    dev_cov = max(dev_cov, float(np.abs(diff, out=diff).max()))
            del swap, diff
        add("signal_and_povm_covariance", dev_cov * N * (N - 1) / 2)

        add("completed_trace", max(abs(c[diagonal].sum() - d ** (N + 1) / N) for c in completed))
        del completed

        add("rho_spectrum", self.rho_spectrum_report.max_deviation)
        add("povm_spectrum", self.povm_spectrum_deviation)

        # signal N equals the partially transposed port<->input swap v' over d^N.  The swap
        # V has V[rows[j], j] = 1; the partial transpose exchanges the input digits of
        # each entry's row and column.  A nonzero of v' outside the blocks meets a zero
        rows, cols = _permuted_indices(transposition(N - 1, N, n), self.digit_table, d), np.arange(d**n)
        rows, cols = rows - rows % d + cols % d, cols - cols % d + rows % d
        inside = packing.first[rows] == packing.first[cols]
        at = packing.start[rows[inside]] + packing.pos[cols[inside]]
        v_prime = np.zeros(packing.size)
        v_prime[at] = 1.0 / d**N
        dev_swap = np.abs(sigs[N - 1] - v_prime).max()
        add("signal_is_transposed_swap", dev_swap if inside.all() else max(dev_swap, 1.0 / d**N))
        del sigs, v_prime

        # tr(root v') is vdot(root, v') because root is symmetric.  The completed
        # root is sqrt(pi_N) + delta / sqrt(N), since pi_N lives on the support of rho
        # and delta projects onto its kernel, and tr(delta v') = d^N tr(delta sigma_N)
        # is zero (excess_signal_orthogonal): this is the trace of the bare root.
        tr_direct = float(root[at].sum())
        add("sqrt_povm_signal_trace", abs(tr_direct - trace_sqrt_povm_signal(N, d)), f"oracle={tr_direct!r}")
        add("frec_formula_vs_oracle", abs(frec(N, d).value - self.frec_value))
        return tuple(checks)

    def _gather_pair(self, held: int, ports: _Packing) -> tuple[np.ndarray, np.ndarray]:
        q, packing = self.d**held, self.packing
        kept = np.flatnonzero(packing.over_entries(lambda m, n: m % q == n % q, bool))
        source = packing.over_entries(lambda m, n: ports.start[m // q] + ports.pos[n // q], np.int64)[kept]
        return _read_only((kept, source))

    def embedded(self, v: VCoefficients, held: int) -> np.ndarray:
        """The ``_rotation`` of ``v``'s weights on N + 1 - held ports, (x) 1 on the last ``held`` factors, packed.

        Entry (m, n) is the rotation's entry (m // q, n // q), q = d^held,
        where m and n share their last ``held`` digits, else 0.  Two such
        indices of one torus block have one port weight on the first
        N + 1 - held factors, so the entry sits in one port block: one gather
        at the packed entries (m, n) with m = n mod q, from
        start[m // q] + pos[n // q] of the port packing.
        """
        young, (kept, source) = (self.young, self.gather) if held == 1 else (self.prev_young, self.prev_gather)
        out = np.zeros(self.packing.size)
        out[kept] = _rotation(self.N + 1 - held, self.d, v, young)[source]
        return out


#: The record at (N, d); a miss drops the record at another point, and all it holds, before it builds.
_point = _memo(1)(_Point)


def _measured(N: int, d: int, names: tuple[str, ...] = (), check=_check_point, **use) -> _Point:
    """The record at (N, d), its measurement built, once ``check`` passes the point and the budget ``names``.

    The budget counts the ``_srm_blocks`` of the measurement's properties, then of ``names``.
    """
    N, d = operator.index(N), operator.index(d)
    check(N, d)
    _require(*_srm_blocks(N, d, _MEASURED + names, **use))
    point = _point(N, d)
    point.measurement  # built before the properties ``names`` adds, in the order ``_srm_blocks`` counts
    return point


def srm_povm(a: int, N: int, d: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(bare element, excess projector, completed element) of the square-root measurement.

    The bare elements are the whitened signals; the excess term completes
    them to a resolution of identity, spread evenly over the N outcomes.
    All three are fresh dense arrays, unpacked from the cached record.
    """
    N, d = operator.index(N), operator.index(d)
    _check_point(N, d)
    if not 1 <= a <= N:
        raise ValueError(f"port index {a} out of range 1..{N}")
    # the three arrays and a temporary, and unpacking's broadcast index arrays
    point = _measured(N, d, packed=2, dense=((4, d ** (N + 1)),))
    bare, excess = (point.packing.unpack(x) for x in (point.measurement.pis[a - 1], point.measurement.delta))
    return bare, excess, bare + excess / N


def _box_grid(table: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(inside, contents, hooks) of the frames of a frame table, each rows x d x lambda_1.

    Cell (i, j) of a row's grid is box (i, j) of its frame when j < lam_i
    (``inside``).  A box has content j - i and hook length
    lam_i - j + lam'_j - i - 1, lam' the conjugate frame.  Cells outside the
    frame hold content 0 and hook 1, so sums and products over a grid run over
    the frame's boxes.  lambda_1 is the table's largest first part.
    """
    i = np.arange(table.shape[1])[:, None]
    j = np.arange(table[:, 0].max(initial=0))
    inside = j < table[:, :, None]
    conjugate = inside.sum(axis=1, keepdims=True)
    contents = np.where(inside, j - i, 0)
    hooks = np.where(inside, table[:, :, None] - j + conjugate - i - 1, 1)
    return inside, contents, hooks


def _dims_and_multiplicities(table: np.ndarray, d: int) -> tuple[np.ndarray, np.ndarray]:
    """(d_lam, m_lam) per row of a frame table of n boxes, as int64 arrays, by hook content.

    d_lam = n!/H and m_lam = prod (d + c)/H over the boxes, H the hook
    product.  Exact while n! and prod (d + c) stay below 2^63; every oracle
    point the byte budget admits keeps them at most 12! (about 4.8e8).
    """
    inside, contents, hooks = _box_grid(table)
    hook_product = hooks.prod(axis=(1, 2))
    boxes = int(table[0].sum())
    return (
        math.factorial(boxes) // hook_product,
        np.where(inside, d + contents, 1).prod(axis=(1, 2)) // hook_product,
    )


def _young_basis(digits: np.ndarray, d: int) -> _Young:
    """The Young eigenbasis of frames of n boxes and height <= d, packed, from the ``_digits`` of n factors.

    ``frames`` is ``frame_table(n, d)``.  A = K C1 + C2 is a sum of port
    permutations, which keep digit counts, so it is summed packed on the
    ``_Packing`` of (C^d)^(x)n by port weight, the digit counts, and solved
    by one stacked eigensolve per block size.  U holds each block's
    eigenvectors as its columns, packed, and ``labels`` the frame row of each
    packed entry's column, its eigenvector's; the diagonal entries,
    ``labels[packing.diagonal]``, label each eigenvector once.  A acts on
    frame mu's block as e(mu) = K sum c + sum c^2 over the contents of
    ``_box_grid``; K = n^3 + 1 exceeds every sum c^2, so frames with distinct
    content sums get distinct e, and a frame left without eigenvectors in
    every block raises.  Taller frames vanish on (C^d)^(x)n.
    """
    n = digits.shape[1]
    frames = frame_table(n, d)
    k = n**3 + 1
    contents = _box_grid(frames)[1]
    predicted = (k * contents.sum(axis=(1, 2)) + (contents**2).sum(axis=(1, 2))).astype(float)
    packing = _pack(_grouped(np.sort(digits, axis=1).T))
    a = np.zeros(packing.size)
    for j in range(1, n):
        # X_j = sum_{i<j} (i j) adds K X_j to C1; X_j^2 = j + sum_{i != h < j} (i j)(h j).
        # A permutation's entries (rows[c], c) sit at start[rows] + pos in the packed buffer
        swaps = [_permuted_indices(transposition(i, j, n), digits, d) for i in range(j)]
        a[packing.diagonal] += j
        for i, rows in enumerate(swaps):
            a[packing.start[rows] + packing.pos] += k
            for h, other in enumerate(swaps):
                if h != i:
                    a[packing.start[rows[other]] + packing.pos] += 1.0
    solved = [_eigh(m) for m in packing.views(a)]
    del a
    w = np.concatenate([values.ravel() for values, _ in solved])
    u = np.concatenate([vectors.ravel() for _, vectors in solved])
    nearest = np.abs(w[:, None] - predicted).argmin(axis=1)
    dev = float(np.abs(w - predicted[nearest]).max())
    counts = np.bincount(nearest, minlength=len(frames))
    if dev > CONTENT_TOL * np.abs(predicted).max() or not counts.all():
        raise RuntimeError(
            f"spectrum of K C1 + C2 at ({n}, {d}) breaks the content prediction: "
            f"deviation {dev}, eigenvectors per frame {counts.tolist()}"
        )
    # a block's column c holds the eigenvector at first[c] + pos[c] of ``order``
    labels = nearest[packing.over_entries(lambda m, c: packing.first[c] + packing.pos[c], np.int64)]
    return _read_only(_Young(packing, frames, u, labels))


def _rotation(N: int, d: int, v: VCoefficients, young: _Young) -> np.ndarray:
    """Sender rotation, packed on ``young``'s port packing: sqrt(d^N) sum of v-weighted, rank-normalized projectors.

    That is U diag(scale[labels]) U^T over the Young eigenbasis, with
    scale = sqrt(d^N) v / sqrt(rank).  A projector's rank d_mu m_mu is the
    exact count of eigenvectors labelled with its frame.  Trace of O^T O
    must come out d^N (weights have unit 2-norm); checked.
    """
    if v.ports != N or v.dim != d:
        raise ValueError(f"coefficient set is labeled ({v.ports}, {v.dim})")
    packing, _, u, labels = young
    scale = sqrt(d**N) * v.entries / np.sqrt(np.bincount(labels[packing.diagonal]))
    o = packing.product(u * scale[labels], u)  # U's columns scaled, times U^T
    trace = np.vdot(o, o)
    if abs(trace - d**N) > 1e-8 * d**N:
        raise RuntimeError(f"normalization broken: tr(O^T O) = {trace}, want {d**N}")
    return o


def build_optimizing_operator(N: int, d: int, v: VCoefficients) -> np.ndarray:
    """Sender rotation on the ports, a fresh dense d^N x d^N array unpacked from ``_rotation``."""
    _require(*_srm_blocks(N, d, ("young",), ports=3, dense=((1, d**N),)))  # a rotation's build, then O
    young = _point(N, d).young
    return young.packing.unpack(_rotation(N, d, v, young))


def frec_oracle(N: int, d: int) -> FidelityReport:
    """One-round recycling fidelity from the defining trace expression, kept on the record at its point."""
    point = _measured(N, d, ("frec_value",))
    return FidelityReport(value=point.frec_value, method="oracle", ports=point.N, dim=point.d)


def _optimal_value(point: _Point, rotated: np.ndarray, vNm1: VCoefficients) -> float:
    """The optimal fidelity's trace expression for ``rotated`` = O_N (x) 1, packed, and ``vNm1``'s rotation."""
    # sqrt(N)/d |tr(sigma_N root (O_N (x) 1)(O_(N-1) (x) 1 (x) 1)^T)|, and tr(sigma root X) = vdot(root sigma, X)
    # as sigma_N and root are symmetric (product gives root sigma_N^T); every factor is block diagonal by torus weight
    rotations = point.packing.product(rotated, point.embedded(vNm1, 2))
    return float((sqrt(point.N) / point.d) * abs(np.vdot(point.root_signal, rotations)))


def frec_optimal_oracle(N: int, d: int, vN: VCoefficients, vNm1: VCoefficients) -> FidelityReport:
    """Optimal-protocol recycling fidelity from its defining trace expression.

    The measurement is the plain one of the record, for any weights (see the module docstring).
    """
    N, d = operator.index(N), operator.index(d)
    _check_optimal_point(N, d)
    if vN.ports != N or vN.dim != d or vNm1.ports != N - 1 or vNm1.dim != d:
        raise ValueError("coefficient sets must be labeled (N, d) and (N-1, d)")
    point = _measured(N, d, _ROTATED, packed=5, ports=3)
    value = _optimal_value(point, point.embedded(vN, 1), vNm1)
    return FidelityReport(value=value, method="oracle", ports=N, dim=d)


def channel_fidelity_oracle(N: int, d: int, rotation: Optional[np.ndarray] = None) -> float:
    """Entanglement fidelity of the teleportation channel itself.

    ``rotation`` is an operator on the ports (identity when omitted); it is
    extended by identity on the input system.
    """
    N, d = operator.index(N), operator.index(d)
    # the rotation and a signal with its two products, then a completed element,
    # packed and dense, with unpacking's broadcast index arrays
    point = _measured(N, d, packed=3, dense=((5, d ** (N + 1)),))
    (pis, delta, *_), unpack = point.measurement, point.packing.unpack
    o = None if rotation is None else np.kron(rotation, np.eye(d))
    total = 0.0
    for a in range(1, N + 1):
        sig = unpack(_packed_signal(point, (a,)))
        if o is not None:
            sig = o @ sig @ o.T
        # tr(O^T pi O sig) = vdot(pi, O sig O^T) because pi is symmetric
        total += np.vdot(unpack(pis[a - 1] + delta / N), sig)
    return float(total) / d**2


def resource_fidelity_oracle(N: int, d: int, v: VCoefficients) -> float:
    """Direct overlap of the rotated and plain resource state vectors.

    Builds the length-d^(2N) product of maximally entangled pairs and applies
    the rotation to the sender half; no trace shortcut is taken.
    """
    dim = d**N
    _require(*_srm_blocks(N, d, ("young",), ports=3, dense=((3, dim),)))  # O, the state and its image
    o = build_optimizing_operator(N, d, v)
    phi = np.zeros(dim * dim)
    phi[:: dim + 1] = 1.0 / sqrt(dim)  # sum_i |i>_ports |i>_receiver
    rotated = (o @ phi.reshape(dim, dim)).reshape(-1)
    return float(abs(phi @ rotated))


def _rho_spectrum_prediction(N: int, d: int) -> list[tuple[float, int]]:
    """(eigenvalue, multiplicity) of rho per block (alpha, nu), then (0, the rest of d^(N+1)).

    alpha runs over ``frame_table(N - 1, d)`` and nu = alpha + e_i over its
    extensions of height <= d, ranked by the record of (N - 1, d)
    (``partitions._Block.ranks``).  The eigenvalue is
    N m_nu d_alpha / (d^N m_alpha d_nu) = (d + c)/d^N, c = alpha_i - i the
    content of the added box, one correctly rounded division of integers;
    the multiplicity is m_alpha d_nu, from ``_dims_and_multiplicities``.
    """
    record = _point_block(N - 1, d)
    alphas, ranks = record.table, record.ranks
    f, i = np.nonzero(ranks >= 0)
    m_alpha = _dims_and_multiplicities(alphas, d)[1]
    d_nu = _dims_and_multiplicities(frame_table(N, d), d)[0]
    mults = m_alpha[f] * d_nu[ranks[f, i]]
    predicted = list(zip(((d + alphas[f, i] - i) / d**N).tolist(), mults.tolist()))
    predicted.append((0.0, d ** (N + 1) - int(mults.sum())))
    return predicted


def rho_spectrum_report(N: int, d: int) -> SpectrumReport:
    """Oracle spectrum of the summed signals against the block prediction, no eigensolve of its own.

    The eigenvalues are those the record's measurement solved for rho; ``_rho_spectrum_prediction`` reads int64 tables.
    """
    return _measured(N, d, ("rho_spectrum_report",)).rho_spectrum_report


def _povm_block_factors(N: int, d: int) -> list[float]:
    """The nonzero eigenvalue of a bare element on the blocks of each alpha of ``frame_table(N - 1, d)``.

    With h_i = alpha_i + d - 1 - i, the first-column hook lengths when alpha
    has height d, it is 1 - d_theta/(N d_alpha) = 1 - prod h_i/(h_i + 1)
    (arXiv:2105.14886), taken as (prod (h_i + 1) - prod h_i)/prod (h_i + 1),
    one correctly rounded division of Python ints.  A shorter alpha has
    h_(d-1) = 0 and gets exactly 1: its element is a projector there.
    """
    factors = []
    for hooks in (frame_table(N - 1, d) + np.arange(d - 1, -1, -1)).tolist():
        if not hooks[-1]:  # a shorter alpha
            factors.append(1.0)
            continue
        grown = math.prod(h + 1 for h in hooks)
        factors.append((grown - math.prod(hooks)) / grown)
    return factors


def povm_spectrum_deviation(N: int, d: int) -> float:
    """Worst distance of any bare-element eigenvalue from its allowed set.

    Reads the spectrum of port N's r x r Gram matrix G = Y_N^T Y_N, block
    diagonal by torus weight, from the record's measurement; no eigensolve of its own.  Those r = d^(N-1) eigenvalues
    are the nonzero spectrum of pi_N = Y_N Y_N^T, and its other D - r are zero
    because rank pi_N <= r; zero is allowed, and so is each frame's
    ``_povm_block_factors`` entry, exact integer arithmetic on the frame
    table that reads no closed-form kernel.  One element stands for all:
    pi_a = V pi_N V^T for the permutation V exchanging ports a and N, so
    the elements share one spectrum.  ``verify_suite`` checks that
    covariance (``signal_and_povm_covariance``), and by Weyl's inequality a
    covariance deviation e moves no eigenvalue by more than D e.
    """
    return _measured(N, d, ("povm_spectrum_deviation",)).povm_spectrum_deviation


def verify_suite(
    N: int,
    d: int,
    tol: float = 1e-9,
    v: Optional[VCoefficients] = None,
    v_prev: Optional[VCoefficients] = None,
) -> VerifyReport:
    """Run every protocol invariant check at one parameter point; failures are reported, not raised.

    The report holds, in order: ``povm_completeness``, ``excess_idempotent``,
    ``excess_signal_orthogonal``, ``signal_and_povm_covariance``, ``completed_trace``,
    ``rotated_completed_trace``, ``rho_spectrum``, ``povm_spectrum``,
    ``signal_is_transposed_swap``, ``sqrt_povm_signal_trace`` and ``frec_formula_vs_oracle``,
    then, when ``v_prev`` is given, ``frec_optimal_formula_vs_oracle``.  All but the
    rotated trace and the last are kept on the record at the point.  ``rotated_completed_trace``
    checks tr(O^T c_a O) = d^(N+1)/N for c_a = pi_a + Delta/N and the rotation O of ``v``'s
    weights (uniform when omitted), taken on the ports (module docstring).  ``v_prev``, weights
    for N - 1 ports, adds ``frec_optimal`` against ``frec_optimal_oracle`` for the pair
    (v, v_prev), the oracle side on the same O.  ``tol`` is applied per call.
    """
    N, d = operator.index(N), operator.index(d)
    # one after another: the record's checks, then the rotations, O_(N-1)'s only under v_prev
    rotations, check = (_ROTATED[:2], _check_point) if v_prev is None else (_ROTATED, _check_optimal_point)
    point = _measured(N, d, ("checks",) + rotations, check, packed=5, ports=3)
    checks, (pis, delta, *_) = point.checks, point.measurement
    v = v if v is not None else VCoefficients.uniform(N, d)
    rotated = point.embedded(v, 1)
    # tr(O^T c O) = vdot(c, (O (x) 1)(O (x) 1)^T) because c is symmetric
    gram = point.packing.product(rotated, rotated)
    excess = np.vdot(delta, gram) / N
    dev_rot = max(abs(np.vdot(pi, gram) + excess - d ** (N + 1) / N) for pi in pis)
    del gram

    report = VerifyReport(ports=N, dim=d, tol=tol)
    for name, deviation, detail in checks:
        report.add(name, deviation, detail)
        if name == "completed_trace":
            report.add("rotated_completed_trace", dev_rot)
    if v_prev is not None:
        closed = frec_optimal(N, d, v, v_prev).value
        report.add("frec_optimal_formula_vs_oracle", abs(closed - _optimal_value(point, rotated, v_prev)))
    return report
