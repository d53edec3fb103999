"""Exact dense-matrix construction of every protocol object for small N.

Everything lives on (C^d)^(x)(N+1) with the port systems first and the input
system last; basis indices are big-endian in the local digits.  Fidelities
are computed directly from their defining expressions, against which every
closed form in the package is checked.

Every object is real in the computational basis, so every operator is a
plain float64 ``np.ndarray``; the one eigensolve helper checks symmetry.

The Young projectors come from box contents (Okounkov and Vershik,
arXiv:math/0503040).  The central elements C1 = sum_{i<j} (i j) and
C2 = sum_k X_k^2, X_k the Jucys-Murphy elements, act on the block of frame mu
as the sums of c and c^2 over its boxes' contents c.  One eigensolve of
A = K C1 + C2, a sum of permutation gathers, splits (C^d)^(x)n into the
blocks: each eigenvector is labelled with the frame whose predicted
eigenvalue lies nearest.  An eigenvalue far from every prediction raises
``RuntimeError``, so the oracle tests the content theory it relies on.  The
cache keeps the eigenvector matrix U and the labels, one frame row of
``frame_table`` per column; no projector is stored.  A projector is
U_mu U_mu^T over the columns labelled mu, and the sender rotation is
U diag(scale[labels]) U^T.  Every call that needs U counts A and A's
eigensolve against the budget, a fixed number of arrays whatever the frame
count.

The square-root measurement is built from the signals' factors.  With
D = d^(N+1) and r = d^(N-1), sigma_a = d^(1-N) Q_a Q_a^T, where the D x r
isometry Q_a is |phi+> on (port a, input) times the identity on the other
ports; each column has d nonzeros (``_signal_columns``).  One eigensolve of
rho = sum_a sigma_a gives W = rho^(-1/2) on the support and rho's spectrum.
The bare element pi_a = W sigma_a W is Y_a Y_a^T with the D x r factor
Y_a = d^((1-N)/2) W Q_a, a gather of W's rows, so no D x D product is taken
against a signal.  The excess Delta = 1 - sum_a pi_a projects onto ker rho.
Port N's completed element pi_N + Delta/N has the root
sqrt(pi_N) + Delta/sqrt(N), because pi_N lives on supp rho, and the polar
identity sqrt(Y Y^T) = Y (Y^T Y)^(-1/2) Y^T takes sqrt(pi_N) from the r x r
Gram matrix G = Y_N^T Y_N.  ``_srm_bundle`` holds, read-only: the N bare
elements, Delta, that completed root (the operator behind every recycling
fidelity), rho's eigenvalues and G's.  It is built once per (N, d) and
shared by every call.  Its two eigensolves are the only ones of the
measurement: ``rho_spectrum_report`` reads rho's eigenvalues, and
``povm_spectrum_deviation`` reads G's, the nonzero spectrum of pi_N.  So a
fresh point costs one D x D and one r x r eigensolve, besides the Young
eigenbases of the rotation, and a cached point none.

Memory has one limit, ``ORACLE_BYTE_BUDGET`` bytes.  Before a public call
allocates, it counts the dense arrays it will hold at once: operators,
temporaries, four per eigensolve (LAPACK's copy, workspace and eigenvectors)
and the cache entries it creates (``_srm_bundle`` keeps one (N, d) point,
``_young_projectors`` two; a miss evicts the oldest first; cached arrays are
read-only).  A D x r factor counts as one d^N x d^N array, since
D r = d^(2N).  Building the bundle peaks at N + 4 arrays of D x D, two
factors and the r x r eigensolve (``_srm_blocks``); N + 2 of D x D stay.
Index arrays (d^n by n digits) are not counted.  Over the budget a call
raises ``DimensionCapError``, exit code 2 in the CLI.

One measurement serves the optimal protocol too.  Its sender rotation
O (x) 1 is a weighted sum of port Young projectors, so it commutes with
rho = sum_a sigma_a.  With positive weights O is invertible, the rotated
signals sum to O rho O^T = O^2 rho, and whitening undoes the rotation:
(O^2 rho)^(-1/2) O sigma_a O (O^2 rho)^(-1/2) = rho^(-1/2) sigma_a rho^(-1/2).
With a zero weight O is singular; the oracle then uses the plain measurement,
as ``frec_optimal`` does.

``verify_suite`` splits its checks by what they read.  Nine read only the
measurement; they run once per bundle build, and their deviations are kept
beside the bundle (``_MEASUREMENT_CHECKS``, emptied with it) and reused only
while ``_srm_bundle`` returns the very bundle they came from.  The one check
that reads the rotation weights runs per call, with G = (O O^T) (x) 1 taken
on the ports and embedded.  So a repeat call at a point pays only for its
rotation.  The optimal fidelity's two rotations meet on port space too:
(O_N (x) 1)(O_(N-1) (x) 1 (x) 1)^T = [O_N (O_(N-1) (x) 1)^T] (x) 1, one
d^N x d^N product.

``verify_suite`` checks covariance under the port group S(N) on its N - 1
generators, the adjacent transpositions.  Conjugating by a permutation
matrix only permutes entries, so deviations add along a word, and every
permutation is a word of at most N(N - 1)/2 of them: the reported value,
N(N - 1)/2 times the largest deviation over the generators, bounds the
deviation over all N! permutations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, wraps
from math import sqrt
from typing import Optional

import numpy as np

from .optimal import VCoefficients, one_box_ranks
from .partitions import frame_parts, frame_table
from .recycling import trace_sqrt_povm_signal
from .reports import FidelityReport, VerifyReport

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

#: Dense d^n x d^n arrays held while building the Young eigenbasis: A and A's eigensolve.
_YOUNG_BASIS_ARRAYS = 1 + _EIGH_ARRAYS


class DimensionCapError(RuntimeError):
    """Raised when a dense construction would exceed ``ORACLE_BYTE_BUDGET``."""


def _require(*blocks: tuple[int, int]) -> None:
    """Raise unless ``count`` dense dim x dim float64 arrays per (count, dim) block fit the budget."""
    nbytes = sum(count * dim * dim * 8 for count, dim in blocks)
    if nbytes > ORACLE_BYTE_BUDGET:
        raise DimensionCapError(
            f"dense arrays of {nbytes} bytes: exceeds cap, the byte budget is {ORACLE_BYTE_BUDGET}"
        )


def _memo(size: int, companion: Optional[dict] = None):
    """Memoise on the arguments; a miss first evicts the oldest entries, so at most ``size`` are held.

    ``companion``, a dict of values derived from the entries, is emptied before
    every build and by ``cache_clear``, so it outlives no entry.
    """
    derived = {} if companion is None else companion

    def decorate(build):
        held: dict = {}

        def cached(*key):
            if key not in held:
                derived.clear()
                while len(held) >= size:
                    del held[next(iter(held))]
                held[key] = build(*key)
            return held[key]

        def cache_clear():
            derived.clear()
            held.clear()

        cached.cache_clear = cache_clear
        return wraps(build)(cached)

    return decorate


@dataclass(frozen=True)
class SpectrumReport:
    """Sorted oracle eigenvalues versus a predicted (value, multiplicity) list."""

    eigenvalues: tuple[float, ...]
    predicted: tuple[tuple[float, int], ...]
    max_deviation: float


@lru_cache(maxsize=4)
def _digits(d: int, n: int) -> np.ndarray:
    """Base-d digits of every basis index of (C^d)^(x)n, most significant first (read-only)."""
    digits = (np.arange(d**n)[:, None] // d ** np.arange(n - 1, -1, -1)) % d
    digits.flags.writeable = False
    return digits


def _permuted_indices(perm, d: int, n: int) -> np.ndarray:
    """Where each basis index goes when factor ``k`` becomes factor ``perm[k]``.

    The permutation operator V has V[rows[j], j] = 1, so (V X V^T)[rows][:, rows] = X.
    """
    perm = tuple(perm)
    if sorted(perm) != list(range(n)):
        raise ValueError(f"{perm} is not a permutation of 0..{n - 1}")
    return _digits(d, n)[:, np.argsort(perm)] @ d ** np.arange(n - 1, -1, -1)


def permutation_operator(perm, d: int, n: int) -> np.ndarray:
    """0/1 matrix permuting tensor factors by ``perm`` (0-based images).

    Factor ``k`` of the input becomes factor ``perm[k]`` of the output.
    """
    _require((1, d**n))
    m = np.zeros((d**n, d**n))
    m[_permuted_indices(perm, d, n), np.arange(d**n)] = 1.0
    return m


def transposition(i: int, j: int, n: int) -> tuple[int, ...]:
    """The permutation exchanging positions i and j (0-based)."""
    p = list(range(n))
    p[i], p[j] = p[j], p[i]
    return tuple(p)


def partial_transpose_last(op: np.ndarray, d: int, n: int) -> np.ndarray:
    """Transpose on the last tensor factor only."""
    t = np.swapaxes(op.reshape((d,) * (2 * n)), n - 1, 2 * n - 1)
    return t.reshape(d**n, d**n)


def _signal_columns(a: int, N: int, d: int) -> np.ndarray:
    """Where signal ``a``'s factor is nonzero: a d^(N-1) x d array, one row per column of Q_a.

    sigma_a = d^(1-N) Q_a Q_a^T, and column j of the isometry Q_a is
    |phi+> on (port a, input) times basis state j on the other ports: it is
    d^(-1/2) at the d indices whose port-a and input digits agree and whose
    other digits spell j.  Adding 1 to both digits adds d^(N+1-a) + 1.
    """
    digits = _digits(d, N + 1)
    base = np.flatnonzero((digits[:, a - 1] == 0) & (digits[:, N] == 0))
    return base[:, None] + np.arange(d) * (d ** (N + 1 - a) + 1)


def _signal_gather(m: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Row sums of ``m`` over each row of ``cols``: d^(N-1) x D, one row per column of Q_a.

    For symmetric ``m`` its transpose is d^(1/2) m Q_a, and
    m sigma_a = d^(-N) m Q_a' Q_a'^T with Q_a' the 0/1 pattern of Q_a.
    """
    g = m[cols[:, 0]]
    for c in cols[:, 1:].T:
        g += m[c]
    return g


def _signal_sum(ports, N: int, d: int) -> np.ndarray:
    """Sum of the signal states of ``ports``, built entry by entry."""
    _require((1, d ** (N + 1)))
    m = np.zeros((d ** (N + 1),) * 2)
    for a in ports:
        # d^(1-N) Q_a Q_a^T is d^(-N) on every pair of indices in one column of Q_a
        cols = _signal_columns(a, N, d)
        m[cols[:, :, None], cols[:, None, :]] += 1.0 / d**N
    return m


def signal_state(a: int, N: int, d: int) -> np.ndarray:
    """Reduced state flagging teleportation through port ``a`` (1-based).

    Maximally entangled projector between port ``a`` and the input system,
    maximally mixed elsewhere; unit trace.
    """
    if not 1 <= a <= N:
        raise ValueError(f"port index {a} out of range 1..{N}")
    return _signal_sum((a,), N, d)


def rho_operator(N: int, d: int) -> np.ndarray:
    """Sum of all signal states; the operator whose inverse root whitens them."""
    return _signal_sum(range(1, N + 1), N, d)


def _eigh(m: np.ndarray, vectors: bool = True):
    """``eigh`` (or ``eigvalsh``) of a real symmetric matrix, after checking that it is one."""
    _require((_EIGH_ARRAYS, len(m)))
    dev = np.abs(m - m.T).max()
    if not dev <= 1e-12:
        raise ValueError(f"operator is not symmetric (deviation {dev})")
    return np.linalg.eigh(m) if vectors else np.linalg.eigvalsh(m)


def _psd_function(m: np.ndarray, f, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """(f of a PSD matrix, its eigenvalues); f acts on eigenvalues above tol*lambda_max, 0 on the rest."""
    w, u = _eigh(m)
    lam_max = float(w[-1]) if w.size else 0.0
    neg_floor = -NEGATIVE_EIG_TOL * max(1.0, abs(lam_max))
    if w[0] < neg_floor:
        raise ValueError(f"not PSD: eigenvalue {w[0]} below {neg_floor}")
    support = w > tol * max(lam_max, 0.0)
    vals = np.zeros_like(w)
    vals[support] = f(w[support])
    m = (u * vals) @ u.T
    del u
    return 0.5 * (m + m.T), w


def _inverse_root(w: np.ndarray) -> np.ndarray:
    return 1.0 / np.sqrt(w)


def sqrt_psd(m: np.ndarray, tol: float = SUPPORT_TOL) -> np.ndarray:
    """Spectral square root with sub-threshold eigenvalues clamped to zero."""
    return _psd_function(m, np.sqrt, tol)[0]


def pinv_sqrt_psd(m: np.ndarray, tol: float = SUPPORT_TOL) -> np.ndarray:
    """Inverse square root on the support; the kernel is left untouched."""
    return _psd_function(m, _inverse_root, tol)[0]


def _symmetric_gram(yt: np.ndarray) -> np.ndarray:
    """yt^T yt, symmetrised."""
    m = yt.T @ yt
    return 0.5 * (m + m.T)


def _srm_blocks(N: int, d: int) -> tuple[tuple[int, int], ...]:
    """The dense arrays ``_srm_bundle`` holds at its peak, as ``_require`` blocks.

    N + 4 of D x D (the whitening, the excess, the N bare elements and two
    temporaries of the last one's symmetrised product), two D x r factors,
    each the size of one d^N x d^N array since D r = d^(2N), and the r x r
    Gram matrix with its eigensolve.
    """
    return (N + 4, d ** (N + 1)), (2, d**N), (1 + _EIGH_ARRAYS, d ** (N - 1))


#: The measurement checks of the bundle ``_srm_bundle`` holds: (N, d) -> [that very
#: bundle, its deviations or None until ``verify_suite`` first needs them].  Only a
#: bundle build enters it, and a build or ``cache_clear`` empties it first, so it
#: holds no array that the memo does not.
_MEASUREMENT_CHECKS: dict = {}


@_memo(1, companion=_MEASUREMENT_CHECKS)
def _srm_bundle(
    N: int, d: int
) -> tuple[tuple[np.ndarray, ...], np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(bare elements, excess projector, completed root, spectrum of rho, spectrum of G), read-only.

    One eigensolve of rho gives W = rho^(-1/2) on the support and rho's
    eigenvalues.  Port a's bare element is Y_a Y_a^T with the D x r factor
    Y_a = d^(-N/2) W Q_a', Q_a' the 0/1 pattern of Q_a, a gather of d rows
    of W per column (W is symmetric).  The excess Delta = 1 - sum_a pi_a
    projects onto ker rho.  The root of port N's completed element is
    sqrt(pi_N) + Delta/sqrt(N), because pi_N lives on supp rho; and
    sqrt(pi_N) = Y V Lambda^(-1/2) V^T Y^T from the r x r Gram matrix
    G = Y_N^T Y_N = V Lambda V^T (the polar identity).  G is positive definite,
    since W is invertible on supp rho, which holds every column of Q_N; its
    eigenvalues Lambda, ascending, are the nonzero spectrum of pi_N.  Both
    eigenvalue arrays come as ``eigh`` returns them, ascending.  The peak is
    ``_srm_blocks``; after, N + 2 dense arrays stay.  The bundle is entered in
    ``_MEASUREMENT_CHECKS`` with its measurement checks not yet computed.
    """
    whiten, rho_eigenvalues = _psd_function(rho_operator(N, d), _inverse_root, SUPPORT_TOL)
    delta = np.eye(d ** (N + 1))
    pis = []
    for a in range(1, N + 1):
        yt = _signal_gather(whiten, _signal_columns(a, N, d))
        yt *= d ** (-N / 2)
        pis.append(_symmetric_gram(yt))
        delta -= pis[-1]
    del whiten
    lam, v = _eigh(yt @ yt.T)  # the loop leaves port N's factor in yt
    if not lam[0] > SUPPORT_TOL * lam[-1]:
        raise RuntimeError(f"Gram matrix of port {N}'s whitened signal is singular: eigenvalue {lam[0]}")
    root = _symmetric_gram((v * lam**-0.25).T @ yt)
    del yt
    root += delta / sqrt(N)
    for m in (*pis, delta, root, rho_eigenvalues, lam):
        m.flags.writeable = False
    bundle = tuple(pis), delta, root, rho_eigenvalues, lam
    _MEASUREMENT_CHECKS[N, d] = [bundle, None]
    return bundle


def srm_povm(a: int, N: int, d: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(bare element, excess projector, completed element) of the square-root measurement.

    The bare elements are the whitened signals; the excess term completes
    them to a resolution of identity, spread evenly over the N outcomes.
    The first two are the cached, read-only arrays.
    """
    if not 1 <= a <= N:
        raise ValueError(f"port index {a} out of range 1..{N}")
    _require(*_srm_blocks(N, d))  # then the bundle and the completed element with its temporary
    pis, delta = _srm_bundle(N, d)[:2]
    return pis[a - 1], delta, pis[a - 1] + delta / N


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


@_memo(2)
def _young_projectors(n: int, d: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(frames, U, labels): the Young eigenbasis of frames of n boxes and height <= d.

    ``frames`` is ``frame_table(n, d)``, U the eigenvector matrix of
    A = K C1 + C2, and ``labels`` the row in ``frames`` of each column's
    frame, all three read-only.  A acts on frame mu's block as
    e(mu) = K sum c + sum c^2, the sums over the contents of ``_box_grid``;
    since K = n^3 + 1 exceeds every sum c^2, frames with distinct content sums
    get distinct e.  Two frames sharing e would leave one without
    eigenvectors, which raises.  Taller frames are left out: their blocks
    vanish on (C^d)^(x)n.
    """
    frames = frame_table(n, d)
    k = n**3 + 1
    contents = _box_grid(frames)[1]
    predicted = (k * contents.sum(axis=(1, 2)) + (contents**2).sum(axis=(1, 2))).astype(float)
    dim = d**n
    a = np.zeros((dim, dim))
    cols = np.arange(dim)
    for j in range(1, n):
        # X_j = sum_{i<j} (i j) adds K X_j to C1; X_j^2 = j + sum_{i != h < j} (i j)(h j)
        swaps = [_permuted_indices(transposition(i, j, n), d, n) for i in range(j)]
        a[cols, cols] += j
        for i, rows in enumerate(swaps):
            a[rows, cols] += k
            for h, other in enumerate(swaps):
                if h != i:
                    a[rows[other], cols] += 1.0
    w, u = _eigh(a)
    del a
    nearest = np.abs(w[:, None] - predicted).argmin(axis=1)
    dev = float(np.abs(w - predicted[nearest]).max())
    counts = np.bincount(nearest, minlength=len(frames))
    if dev > CONTENT_TOL * np.abs(predicted).max() or not counts.all():
        raise RuntimeError(
            f"spectrum of K C1 + C2 at ({n}, {d}) breaks the content prediction: "
            f"deviation {dev}, eigenvectors per frame {counts.tolist()}"
        )
    for m in (frames, u, nearest):
        m.flags.writeable = False
    return frames, u, nearest


def young_projector(mu, d: int) -> np.ndarray:
    """Projector onto the isotypic block of frame ``mu`` in (C^d)^(x)n (zero when taller than d).

    That block is the sum of the copies of mu's S(n) irrep, so the projector
    is the group average (d_mu / n!) sum_sigma chi_mu(sigma) V_sigma; it is
    built from box contents instead (see the module docstring), as
    U_mu U_mu^T over the cached eigenvectors labelled mu.  Every call returns
    a fresh array.  ``mu`` is any sequence of parts that ``frame_parts`` accepts.
    """
    p = frame_parts(mu)
    n = sum(p)
    if len(p) > d:
        _require((1, d**n))
        return np.zeros((d**n, d**n))
    _require((_YOUNG_BASIS_ARRAYS, d**n))
    frames, u, labels = _young_projectors(n, d)
    row = frames.tolist().index(list(p) + [0] * (d - len(p)))
    block = u[:, labels == row]
    return block @ block.T


def build_optimizing_operator(N: int, d: int, v: VCoefficients) -> np.ndarray:
    """Sender rotation: sqrt(d^N) sum of v-weighted, rank-normalized projectors.

    That is U diag(scale[labels]) U^T over the Young eigenbasis, with
    scale = sqrt(d^N) v / sqrt(rank).  A projector's rank d_mu m_mu is the
    exact count of eigenvectors labelled with its frame.  Trace of O^T O
    must come out d^N (weights have unit 2-norm); checked.
    """
    if v.ports != N or v.dim != d:
        raise ValueError(f"coefficient set is labeled ({v.ports}, {v.dim})")
    _require((_YOUNG_BASIS_ARRAYS + 2, d**N))  # the eigenbasis's build, then O and one scaled copy of U
    _, u, labels = _young_projectors(N, d)
    scale = sqrt(d**N) * v.entries / np.sqrt(np.bincount(labels))
    o = (u * scale[labels]) @ u.T
    trace = np.vdot(o, o)
    if abs(trace - d**N) > 1e-8 * d**N:
        raise RuntimeError(f"normalization broken: tr(O^T O) = {trace}, want {d**N}")
    return o


def _embed_ports_operator(o: np.ndarray, d: int) -> np.ndarray:
    """Extend an operator on the ports by identity on the input system: ``np.kron(o, np.eye(d))``.

    Entry (i d + k, j d + l) is o[i, j] when k = l and 0 otherwise, so each of
    the d diagonal (k, k) slices of a zero (n, d, n, d) array is a copy of o.
    """
    n = len(o)
    out = np.zeros((n, d, n, d))
    for k in range(d):
        out[:, k, :, k] = o
    return out.reshape(n * d, n * d)


def frec_oracle(N: int, d: int) -> FidelityReport:
    """One-round recycling fidelity from the defining trace expression."""
    _require(*_srm_blocks(N, d))  # then the bundle
    pis, delta, root = _srm_bundle(N, d)[:3]
    norm = sqrt(np.trace(pis[N - 1]) + np.trace(delta) / N)
    # tr(sigma_N root) = d^(-N) times the sum of root's entries on every pair of
    # indices in one column of Q_N, the entries ``_signal_sum`` fills for sigma_N
    cols = _signal_columns(N, N, d)
    overlap = abs(root[cols[:, :, None], cols[:, None, :]].sum()) / d**N
    value = (N / d) * norm / sqrt(d ** (N + 1)) * overlap
    return FidelityReport(value=float(value), method="oracle", ports=N, dim=d)


def frec_optimal_oracle(N: int, d: int, vN: VCoefficients, vNm1: VCoefficients) -> FidelityReport:
    """Optimal-protocol recycling fidelity from its defining trace expression.

    The measurement is the plain square-root measurement of ``_srm_bundle``.
    The rotation O commutes with the summed signals, so for positive weights
    whitening the rotated signals gives the same elements.  With a zero weight
    O is singular, and the plain measurement is kept, as in ``frec_optimal``
    (see the module docstring).
    """
    if N < 2:
        raise ValueError("N must be at least 2 for the optimal protocol")
    if vN.ports != N or vN.dim != d or vNm1.ports != N - 1 or vNm1.dim != d:
        raise ValueError("coefficient sets must be labeled (N, d) and (N-1, d)")
    _require(
        (N + 5, d ** (N + 1)),  # the bundle's build, or the bundle, the rotation and its two factors
        (_YOUNG_BASIS_ARRAYS + 2, d**N),
        (_YOUNG_BASIS_ARRAYS + 2, d ** (N - 1)),
    )
    root = _srm_bundle(N, d)[2]
    # (O_N (x) 1)(O_{N-1} (x) 1 (x) 1)^T = [O_N (O_{N-1} (x) 1)^T] (x) 1, the last
    # factor the input system: one product on the ports
    ports = build_optimizing_operator(N, d, vN)
    ports = ports @ _embed_ports_operator(build_optimizing_operator(N - 1, d, vNm1), d).T
    rotation = _embed_ports_operator(ports, d)
    del ports
    # tr(sig root O Q^T) = vdot(root sig, O Q^T).  Every column of root sig at an index
    # of column j of Q_N is d^(-N) times the sum of root's columns there, so the vdot is
    # d^(-N) times that sum against the sum of O Q^T's columns there, over every j
    cols = _signal_columns(N, N, d)
    overlap = np.vdot(_signal_gather(root, cols), _signal_gather(rotation.T, cols)) / d**N
    value = (sqrt(N) / d) * abs(overlap)
    return FidelityReport(value=float(value), method="oracle", ports=N, dim=d)


def channel_fidelity_oracle(N: int, d: int, rotation: Optional[np.ndarray] = None) -> float:
    """Entanglement fidelity of the teleportation channel itself.

    ``rotation`` is an operator on the ports (identity when omitted); it is
    extended by identity on the input system.
    """
    # the bundle's build, or the bundle, the rotation and a signal with its two
    # products, then a completed element's two temporaries
    _require((N + 6, d ** (N + 1)))
    pis, delta = _srm_bundle(N, d)[:2]
    o = None if rotation is None else _embed_ports_operator(rotation, d)
    total = 0.0
    for a in range(1, N + 1):
        sig = signal_state(a, N, d)
        if o is not None:
            sig = o @ sig @ o.T
        # tr(O^T pi O sig) = vdot(pi, O sig O^T) because pi is symmetric
        total += np.vdot(pis[a - 1] + delta / N, sig)
    return float(total) / d**2


def resource_fidelity_oracle(N: int, d: int, v: VCoefficients) -> float:
    """Direct overlap of the rotated and plain resource state vectors.

    Builds the length-d^(2N) product of maximally entangled pairs and applies
    the rotation to the sender half; no trace shortcut is taken.
    """
    dim = d**N
    _require((_YOUNG_BASIS_ARRAYS + 3, dim))  # the eigenbasis's build, O, the state and its image
    o = build_optimizing_operator(N, d, v)
    phi = np.zeros(dim * dim)
    phi[:: dim + 1] = 1.0 / sqrt(dim)  # sum_i |i>_ports |i>_receiver
    rotated = (o @ phi.reshape(dim, dim)).reshape(-1)
    return float(abs(phi @ rotated))


def _rho_spectrum_prediction(N: int, d: int) -> list[tuple[float, int]]:
    """(eigenvalue, multiplicity) of rho per block (alpha, nu), then (0, the rest of d^(N+1)).

    alpha runs over ``frame_table(N - 1, d)`` and nu = alpha + e_i over its
    extensions of height <= d (``one_box_ranks``).  The eigenvalue is
    N m_nu d_alpha / (d^N m_alpha d_nu) = (d + c)/d^N, c = alpha_i - i the
    content of the added box, one correctly rounded division of integers;
    the multiplicity is m_alpha d_nu, from ``_dims_and_multiplicities``.
    """
    alphas, ranks = one_box_ranks(N, d)
    f, i = np.nonzero(ranks >= 0)
    m_alpha = _dims_and_multiplicities(alphas, d)[1]
    d_nu = _dims_and_multiplicities(frame_table(N, d), d)[0]
    mults = m_alpha[f] * d_nu[ranks[f, i]]
    predicted = list(zip(((d + alphas[f, i] - i) / d**N).tolist(), mults.tolist()))
    predicted.append((0.0, d ** (N + 1) - int(mults.sum())))
    return predicted


def rho_spectrum_report(N: int, d: int) -> SpectrumReport:
    """Oracle spectrum of the summed signals against the block prediction.

    The eigenvalues are the ones ``_srm_bundle`` solved for rho to whiten
    the signals; no eigensolve of its own.  The prediction,
    ``_rho_spectrum_prediction``, reads only int64 frame tables.
    """
    _require(*_srm_blocks(N, d))
    eig = np.sort(_srm_bundle(N, d)[3])
    predicted = _rho_spectrum_prediction(N, d)
    expanded = np.sort(np.concatenate([np.full(m, lam) for lam, m in predicted]))
    dev = float(np.abs(eig - expanded).max())
    return SpectrumReport(
        eigenvalues=tuple(float(x) for x in eig),
        predicted=tuple(sorted(predicted)),
        max_deviation=dev,
    )


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
        grown = math.prod(h + 1 for h in hooks)
        factors.append((grown - math.prod(hooks)) / grown)
    return factors


def povm_spectrum_deviation(N: int, d: int) -> float:
    """Worst distance of any bare-element eigenvalue from its allowed set.

    Reads the spectrum of port N's r x r Gram matrix G = Y_N^T Y_N from
    ``_srm_bundle``; no eigensolve of its own.  Those r = d^(N-1) eigenvalues
    are the nonzero spectrum of pi_N = Y_N Y_N^T, and its other D - r are zero
    because rank pi_N <= r; zero is allowed, and so is each frame's
    ``_povm_block_factors`` entry, exact integer arithmetic on the frame
    table that reads no closed-form kernel.  One element stands for all:
    pi_a = V pi_N V^T for the permutation V exchanging ports a and N, so
    the elements share one spectrum.  ``verify_suite`` checks that
    covariance (``signal_and_povm_covariance``), and by Weyl's inequality a
    covariance deviation e moves no eigenvalue by more than D e.
    """
    _require(*_srm_blocks(N, d))
    lam = _srm_bundle(N, d)[4]
    allowed = np.array([0.0] + _povm_block_factors(N, d))
    return float(np.abs(lam[:, None] - allowed).min(axis=1).max())


def _swap_deviation(x: np.ndarray, y: np.ndarray, i: int, d: int, n: int) -> float:
    """max |x - V y V^T| for V the permutation operator exchanging factors i and i + 1 of n.

    Conjugating by V swaps those two axes of the row and of the column index:
    a strided view of y, with no gather.
    """
    shape = (d**i, d, d, d ** (n - i - 2)) * 2
    swapped = y.reshape(shape).transpose(0, 2, 1, 3, 4, 6, 5, 7)
    return float(np.abs(x.reshape(shape) - swapped).max())


def _measurement_checks(N: int, d: int, bundle) -> tuple[tuple[str, float, str], ...]:
    """(name, deviation, detail) of the nine checks that read only the measurement, in report order.

    None reads the rotation weights, so one computation serves every call on
    the same bundle.  Port covariance is checked on the N - 1 adjacent
    transpositions only: the reported ``signal_and_povm_covariance`` is
    N(N - 1)/2 times their largest deviation, an upper bound on the deviation
    under every permutation.
    """
    n = N + 1
    dim = d**n
    pis, delta, root = bundle[:3]
    sigs = [signal_state(a, N, d) for a in range(1, N + 1)]
    checks = []

    def add(name: str, deviation, detail: str = ""):
        checks.append((name, float(deviation), detail))

    completed = [pi + delta / N for pi in pis]
    add("povm_completeness", np.abs(sum(completed) - np.eye(dim)).max())
    add("excess_idempotent", np.abs(delta @ delta - delta).max())
    # every column of delta sigma_s at an index of column j of Q_s is d^(-N) times
    # the sum of delta's columns there
    dev_orth = max(np.abs(_signal_gather(delta, _signal_columns(s, N, d))).max() for s in range(1, N + 1))
    add("excess_signal_orthogonal", dev_orth / d**N)

    # covariance under the adjacent port transpositions (acting trivially on the input);
    # a word of at most N(N - 1)/2 of them reaches any permutation, and its deviations add up
    dev_cov = 0.0
    for i in range(N - 1):
        perm = transposition(i, i + 1, N)
        for a in range(1, N + 1):
            b = perm[a - 1] + 1
            dev_cov = max(
                dev_cov,
                _swap_deviation(sigs[a - 1], sigs[b - 1], i, d, n),
                _swap_deviation(completed[a - 1], completed[b - 1], i, d, n),
            )
    add("signal_and_povm_covariance", dev_cov * N * (N - 1) / 2)

    add("completed_trace", max(abs(np.trace(c) - d ** (N + 1) / N) for c in completed))
    del completed

    add("rho_spectrum", rho_spectrum_report(N, d).max_deviation)
    add("povm_spectrum", povm_spectrum_deviation(N, d))

    # signal N equals the partially transposed port<->input swap over d^N
    v_prime = partial_transpose_last(permutation_operator(transposition(N - 1, n - 1, n), d, n), d, n)
    add("signal_is_transposed_swap", np.abs(sigs[N - 1] - v_prime / d**N).max())
    del sigs

    # tr(root v') is vdot(root, v') because root is symmetric.  The completed
    # root is sqrt(pi_N) + delta / sqrt(N), since pi_N lives on the support of rho
    # and delta projects onto its kernel, and tr(delta v') = d^N tr(delta sigma_N)
    # is zero (excess_signal_orthogonal): this is the trace of the bare root.
    tr_direct = float(np.vdot(root, v_prime))
    add("sqrt_povm_signal_trace", abs(tr_direct - trace_sqrt_povm_signal(N, d)), f"oracle={tr_direct!r}")
    return tuple(checks)


def _measurement_deviations(N: int, d: int, bundle) -> tuple[tuple[str, float, str], ...]:
    """``_measurement_checks`` of ``bundle``, computed once for the bundle ``_srm_bundle`` holds.

    Any other bundle, such as one a caller substitutes, is checked afresh and
    not kept.
    """
    entry = _MEASUREMENT_CHECKS.get((N, d))
    if entry is None or entry[0] is not bundle:
        return _measurement_checks(N, d, bundle)
    if entry[1] is None:
        entry[1] = _measurement_checks(N, d, bundle)
    return entry[1]


def verify_suite(
    N: int,
    d: int,
    tol: float = 1e-9,
    v: Optional[VCoefficients] = None,
) -> VerifyReport:
    """Run every protocol invariant check at one parameter point.

    Failures are reported, not raised.  Nine checks read only the measurement
    (``_measurement_checks``); their deviations are computed once per bundle
    build and kept with it, and ``tol`` is applied per call.  The one
    rotation check, ``rotated_completed_trace``, is computed per call from
    ``v``'s rotation weights (uniform weights when omitted): with
    G = (O O^T) (x) 1 and c_a = pi_a + Delta/N, tr(O^T c_a O) = vdot(c_a, G)
    must be d^(N+1)/N.  O O^T is taken on the ports, and each c_a is formed in
    turn in one buffer, so no list of completed elements is built.
    """
    dim = d ** (N + 1)
    # the SRM with its completed root, signals and completed elements hold 3N + 2
    # arrays, and three temporaries; the bundle's build and the rotation need fewer
    _require((3 * N + 5, dim), (_YOUNG_BASIS_ARRAYS + 2, d**N))
    bundle = _srm_bundle(N, d)
    pis, delta = bundle[:2]
    o = build_optimizing_operator(N, d, v if v is not None else VCoefficients.uniform(N, d))
    # tr(O^T c O) = vdot(c, G) because c is symmetric
    gram = _embed_ports_operator(o @ o.T, d)
    excess = delta / N
    completed = np.empty_like(delta)
    dev_rot = max(abs(np.vdot(np.add(pi, excess, out=completed), gram) - dim / N) for pi in pis)
    del o, gram, excess, completed

    report = VerifyReport(ports=N, dim=d, tol=tol)
    for name, deviation, detail in _measurement_deviations(N, d, bundle):
        report.add(name, deviation, detail)
        if name == "completed_trace":
            report.add("rotated_completed_trace", dev_rot)
    return report
