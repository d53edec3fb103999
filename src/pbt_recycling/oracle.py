"""Exact dense-matrix construction of every protocol object for small N.

Everything lives on (C^d)^(x)(N+1) with the port systems first and the input
system last; basis indices are big-endian in the local digits.  Fidelities
are computed directly from their defining expressions, against which every
closed form in the package is checked.

Every object is real in the computational basis, so every operator is a
plain float64 ``np.ndarray``; the one eigensolve helper checks symmetry.

Memory has one limit, ``ORACLE_BYTE_BUDGET`` bytes.  Before a public call
allocates, it counts the dense arrays it will hold at once: operators,
temporaries, four per eigensolve (LAPACK's copy, workspace and eigenvectors)
and the cache entries it creates (``_srm_bundle`` keeps one, ``_young_projectors``
two; a miss evicts the oldest first; cached arrays are read-only).  Index
arrays (d^n by n digits) are not counted.  Over the budget a call raises
``DimensionCapError``, exit code 2 in the CLI.

The Young projectors come from box contents (Okounkov and Vershik,
arXiv:math/0503040).  The central elements C1 = sum_{i<j} (i j) and
C2 = sum_k X_k^2, X_k the Jucys-Murphy elements, act on the block of frame mu
as the sums of c and c^2 over its boxes' contents c.  One eigensolve of
A = K C1 + C2, a sum of permutation gathers, splits (C^d)^(x)n into the
blocks: each projector spans the eigenvectors nearest its frame's predicted
eigenvalue.  An eigenvalue far from every prediction raises ``RuntimeError``,
so the oracle tests the content theory it relies on.  Every call that builds
projectors counts them, A and A's eigensolve against the budget.

``_srm_bundle`` holds the bare elements, the excess projector and the square
root of port N's completed element, the operator behind every recycling
fidelity; that root is solved once per (N, d) and shared by ``frec_oracle``,
``frec_optimal_oracle`` and ``verify_suite``.

One measurement serves the optimal protocol too.  Its sender rotation
O (x) 1 is a weighted sum of port Young projectors, so it commutes with
rho = sum_a sigma_a.  With positive weights O is invertible, the rotated
signals sum to O rho O^T = O^2 rho, and whitening undoes the rotation:
(O^2 rho)^(-1/2) O sigma_a O (O^2 rho)^(-1/2) = rho^(-1/2) sigma_a rho^(-1/2).
With a zero weight O is singular; the oracle then uses the plain measurement,
as ``frec_optimal`` does.

``verify_suite`` checks covariance under the port group S(N) on its N - 1
generators, the adjacent transpositions.  Conjugating by a permutation
matrix only permutes entries, so deviations add along a word, and every
permutation is a word of at most N(N - 1)/2 of them: the reported value,
N(N - 1)/2 times the largest deviation over the generators, bounds the
deviation over all N! permutations.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, wraps
from math import sqrt
from typing import Optional

import numpy as np

from .optimal import VCoefficients
from .partitions import (
    Partition,
    add_box,
    as_partition,
    dim_irrep,
    mult_schur_weyl,
    partitions_bounded,
)
from .recycling import povm_block_factor, srm_eigenvalue, trace_sqrt_povm_signal
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


class DimensionCapError(RuntimeError):
    """Raised when a dense construction would exceed ``ORACLE_BYTE_BUDGET``."""


def _require(*blocks: tuple[int, int]) -> None:
    """Raise unless ``count`` dense dim x dim float64 arrays per (count, dim) block fit the budget."""
    nbytes = sum(count * dim * dim * 8 for count, dim in blocks)
    if nbytes > ORACLE_BYTE_BUDGET:
        raise DimensionCapError(
            f"dense arrays of {nbytes} bytes: exceeds cap, the byte budget is {ORACLE_BYTE_BUDGET}"
        )


def _memo(size: int):
    """Memoise on the arguments; a miss first evicts the oldest entries, so at most ``size`` are held."""

    def decorate(build):
        held: dict = {}

        def cached(*key):
            if key not in held:
                while len(held) >= size:
                    del held[next(iter(held))]
                held[key] = build(*key)
            return held[key]

        cached.cache_clear = held.clear
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


def _signal_sum(ports, N: int, d: int) -> np.ndarray:
    """Sum of the signal states of ``ports``, built entry by entry."""
    _require((1, d ** (N + 1)))
    digits = _digits(d, N + 1)
    m = np.zeros((d ** (N + 1),) * 2)
    for a in ports:
        # rows where port a and the input share a digit; the projector onto sum_k |kk>
        # maps that pair to every (k, k), and adding 1 to both digits adds `step`
        rows = np.flatnonzero(digits[:, a - 1] == digits[:, N])
        step = d ** (N + 1 - a) + 1
        cols = rows[:, None] + (np.arange(d) - digits[rows, N][:, None]) * step
        m[rows[:, None], cols] += 1.0 / d**N
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


def _psd_function(m: np.ndarray, f, tol: float) -> np.ndarray:
    """``f`` of the eigenvalues above tol*lambda_max, 0 on the rest, for a PSD matrix."""
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
    return 0.5 * (m + m.T)


def sqrt_psd(m: np.ndarray, tol: float = SUPPORT_TOL) -> np.ndarray:
    """Spectral square root with sub-threshold eigenvalues clamped to zero."""
    return _psd_function(m, np.sqrt, tol)


def pinv_sqrt_psd(m: np.ndarray, tol: float = SUPPORT_TOL) -> np.ndarray:
    """Inverse square root on the support; the kernel is left untouched."""
    return _psd_function(m, lambda w: 1.0 / np.sqrt(w), tol)


@_memo(1)
def _srm_bundle(N: int, d: int) -> tuple[tuple[np.ndarray, ...], np.ndarray, np.ndarray]:
    """Bare elements, excess projector and the root of port N's completed element, read-only.

    Holds N + 6 arrays at peak, the root's eigensolve included, and N + 2 after.
    """
    whiten = pinv_sqrt_psd(rho_operator(N, d))
    delta = np.eye(d ** (N + 1))
    pis = []
    for a in range(1, N + 1):
        m = whiten @ signal_state(a, N, d) @ whiten
        pis.append(0.5 * (m + m.T))
        delta -= pis[-1]
    del whiten, m
    root = sqrt_psd(pis[N - 1] + delta / N)
    for m in (*pis, delta, root):
        m.flags.writeable = False
    return tuple(pis), delta, root


def srm_povm(a: int, N: int, d: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(bare element, excess projector, completed element) of the square-root measurement.

    The bare elements are the whitened signals; the excess term completes
    them to a resolution of identity, spread evenly over the N outcomes.
    The first two are the cached, read-only arrays.
    """
    if not 1 <= a <= N:
        raise ValueError(f"port index {a} out of range 1..{N}")
    _require((N + 6, d ** (N + 1)))  # the SRM with its completed root, and that root's eigensolve
    pis, delta, _ = _srm_bundle(N, d)
    return pis[a - 1], delta, pis[a - 1] + delta / N


def _projector_arrays(n: int, d: int) -> int:
    """Dense d^n x d^n arrays held while building the projectors: theirs, A and A's eigensolve."""
    return len(partitions_bounded(n, d)) + 1 + _EIGH_ARRAYS


def _content_sums(mu: Partition) -> tuple[int, int]:
    """(sum c, sum c^2) over the contents c = column - row of the boxes of ``mu``."""
    contents = [col - row for row, length in enumerate(mu) for col in range(length)]
    return sum(contents), sum(c * c for c in contents)


@_memo(2)
def _young_projectors(n: int, d: int) -> dict[Partition, np.ndarray]:
    """The isotypic projectors for frames of n boxes and height <= d, from one eigensolve.

    A = K C1 + C2 acts on frame mu's block as e(mu) = K sum c + sum c^2; since
    K = n^3 + 1 exceeds every sum c^2, frames with distinct content sums get
    distinct e.  Two frames sharing e would leave one without eigenvectors,
    which raises.  Taller frames are left out: their projectors vanish on (C^d)^(x)n.
    """
    frames = partitions_bounded(n, d)
    k = n**3 + 1
    predicted = np.array([k * s1 + s2 for s1, s2 in map(_content_sums, frames)], dtype=float)
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
    projectors = {}
    for f, mu in enumerate(frames):
        block = u[:, nearest == f]
        projectors[mu] = block @ block.T
        projectors[mu].flags.writeable = False
    return projectors


def young_projector(mu, d: int) -> np.ndarray:
    """Projector onto the isotypic block of frame ``mu`` in (C^d)^(x)n (zero when taller than d).

    That block is the sum of the copies of mu's S(n) irrep, so the projector
    is the group average (d_mu / n!) sum_sigma chi_mu(sigma) V_sigma; it is
    built from box contents instead (see the module docstring).  Frames of
    height <= d return the cached, read-only array.
    """
    p = as_partition(mu)
    if p.height > d:
        _require((1, d**p.n))
        return np.zeros((d**p.n, d**p.n))
    _require((_projector_arrays(p.n, d), d**p.n))
    return _young_projectors(p.n, d)[p]


def build_optimizing_operator(N: int, d: int, v: VCoefficients) -> np.ndarray:
    """Sender rotation: sqrt(d^N) sum of v-weighted, rank-normalized projectors.

    A projector's rank, its eigenvector count, is d_mu m_mu.  Trace of O^T O
    must come out d^N (weights have unit 2-norm); checked.
    """
    if v.ports != N or v.dim != d:
        raise ValueError(f"coefficient set is labeled ({v.ports}, {v.dim})")
    _require((_projector_arrays(N, d) + 2, d**N))  # the projectors' build, O and one scaled projector
    projectors = _young_projectors(N, d)
    o = np.zeros((d**N, d**N))
    for p, vm in zip(projectors.values(), v.entries.tolist()):
        if vm == 0.0:
            continue
        o += sqrt(d**N) * vm / sqrt(round(np.trace(p))) * p
    trace = np.vdot(o, o)
    if abs(trace - d**N) > 1e-8 * d**N:
        raise RuntimeError(f"normalization broken: tr(O^T O) = {trace}, want {d**N}")
    return o


def _embed_ports_operator(o: np.ndarray, d: int) -> np.ndarray:
    """Extend an operator on the ports by identity on the input system."""
    return np.kron(o, np.eye(d))


def frec_oracle(N: int, d: int) -> FidelityReport:
    """One-round recycling fidelity from the defining trace expression."""
    _require((N + 6, d ** (N + 1)))  # the SRM with its completed root, and that root's eigensolve
    pis, delta, root = _srm_bundle(N, d)
    norm = sqrt(np.trace(pis[N - 1] + delta / N))
    # tr(sig root) is vdot(sig, root) because root is symmetric
    overlap = abs(np.vdot(signal_state(N, N, d), root))
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
        (N + 7, d ** (N + 1)),  # rotation, SRM with its completed root, the root's eigensolve
        (_projector_arrays(N, d) + 2, d**N),
        (_projector_arrays(N - 1, d) + 2, d ** (N - 1)),
    )
    o_full = _embed_ports_operator(build_optimizing_operator(N, d, vN), d)
    root = _srm_bundle(N, d)[2]
    # identity on port N and the input system
    rotation = o_full @ np.kron(build_optimizing_operator(N - 1, d, vNm1), np.eye(d * d)).T
    del o_full
    # tr(sig root O Q^T) = vdot((sig root)^T, O Q^T), and (sig root)^T = root sig
    value = (sqrt(N) / d) * abs(np.vdot(root @ signal_state(N, N, d), rotation))
    return FidelityReport(value=float(value), method="oracle", ports=N, dim=d)


def channel_fidelity_oracle(N: int, d: int, rotation: Optional[np.ndarray] = None) -> float:
    """Entanglement fidelity of the teleportation channel itself.

    ``rotation`` is an operator on the ports (identity when omitted); it is
    extended by identity on the input system.
    """
    _require((N + 6, d ** (N + 1)))  # the SRM with its completed root, and that root's eigensolve
    pis, delta, _ = _srm_bundle(N, d)
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
    _require((_projector_arrays(N, d) + 3, dim))  # the projectors' build, O, the state and its image
    o = build_optimizing_operator(N, d, v)
    phi = np.zeros(dim * dim)
    phi[:: dim + 1] = 1.0 / sqrt(dim)  # sum_i |i>_ports |i>_receiver
    rotated = (o @ phi.reshape(dim, dim)).reshape(-1)
    return float(abs(phi @ rotated))


def rho_spectrum_report(N: int, d: int) -> SpectrumReport:
    """Oracle spectrum of the summed signals against the block prediction."""
    _require((1 + _EIGH_ARRAYS, d ** (N + 1)))
    eig = np.sort(_eigh(rho_operator(N, d), vectors=False))
    predicted: list[tuple[float, int]] = []
    rank = 0
    for alpha in partitions_bounded(N - 1, d):
        m_a = mult_schur_weyl(alpha, d)
        for nu in add_box(alpha, d):
            lam = srm_eigenvalue(alpha, nu, N, d)
            mult = m_a * dim_irrep(nu)
            predicted.append((lam, mult))
            rank += mult
    predicted.append((0.0, d ** (N + 1) - rank))
    expanded = np.sort(np.concatenate([np.full(m, lam) for lam, m in predicted]))
    dev = float(np.abs(eig - expanded).max())
    return SpectrumReport(
        eigenvalues=tuple(float(x) for x in eig),
        predicted=tuple(sorted(predicted)),
        max_deviation=dev,
    )


def povm_spectrum_deviation(N: int, d: int) -> float:
    """Worst distance of any bare-element eigenvalue from its allowed set."""
    _require((N + 6, d ** (N + 1)))  # the SRM with its completed root, and that root's eigensolve
    pis, _, _ = _srm_bundle(N, d)
    allowed = np.array(
        [0.0] + [povm_block_factor(alpha, N, d) for alpha in partitions_bounded(N - 1, d)]
    )
    worst = 0.0
    for pi in pis:
        lam = _eigh(pi, vectors=False)
        worst = max(worst, float(np.abs(lam[:, None] - allowed).min(axis=1).max()))
    return worst


def verify_suite(
    N: int,
    d: int,
    tol: float = 1e-9,
    v: Optional[VCoefficients] = None,
) -> VerifyReport:
    """Run every protocol invariant check at one parameter point.

    Failures are reported, not raised.  ``v`` supplies rotation weights for
    the rotation-dependent checks (uniform weights when omitted).

    Port covariance is checked on the N - 1 adjacent transpositions only.  The
    reported ``signal_and_povm_covariance`` is N(N - 1)/2 times their largest
    deviation, an upper bound on the deviation under every permutation.
    """
    n = N + 1
    dim = d**n
    # the SRM with its completed root, signals and completed elements hold 3N + 2
    # arrays; the rest are temporaries, the rotation and the eigensolves
    _require((3 * N + 7, dim), (_projector_arrays(N, d) + 2, d**N))
    report = VerifyReport(ports=N, dim=d, tol=tol)
    pis, delta, _ = _srm_bundle(N, d)
    sigs = [signal_state(a, N, d) for a in range(1, N + 1)]

    completed = [pi + delta / N for pi in pis]
    report.add("povm_completeness", np.abs(sum(completed) - np.eye(dim)).max())
    report.add("excess_idempotent", np.abs(delta @ delta - delta).max())
    report.add("excess_signal_orthogonal", max(np.abs(delta @ s).max() for s in sigs))

    # covariance under the adjacent port transpositions (acting trivially on the input):
    # V X V^T = Y for the permutation operator V is X = Y[rows][:, rows]; a word of at
    # most N(N - 1)/2 of them reaches any permutation, and its deviations add up
    dev_cov = 0.0
    for i in range(N - 1):
        perm = transposition(i, i + 1, N)
        idx = _permuted_indices(perm + (N,), d, n)
        rows = np.ix_(idx, idx)
        for a in range(1, N + 1):
            b = perm[a - 1] + 1
            dev_cov = max(
                dev_cov,
                np.abs(sigs[a - 1] - sigs[b - 1][rows]).max(),
                np.abs(completed[a - 1] - completed[b - 1][rows]).max(),
            )
    report.add("signal_and_povm_covariance", dev_cov * N * (N - 1) / 2)

    report.add("completed_trace", max(abs(np.trace(c) - d ** (N + 1) / N) for c in completed))

    vv = v if v is not None else VCoefficients.uniform(N, d)
    o = build_optimizing_operator(N, d, vv)
    # tr(O^T c O) = vdot(c, O O^T) because c is symmetric
    gram = _embed_ports_operator(o @ o.T, d)
    dev_rot = max(abs(np.vdot(c, gram) - d ** (N + 1) / N) for c in completed)
    report.add("rotated_completed_trace", dev_rot)
    del gram, completed

    report.add("rho_spectrum", rho_spectrum_report(N, d).max_deviation)
    report.add("povm_spectrum", povm_spectrum_deviation(N, d))

    # signal N equals the partially transposed port<->input swap over d^N
    v_prime = partial_transpose_last(permutation_operator(transposition(N - 1, n - 1, n), d, n), d, n)
    report.add("signal_is_transposed_swap", np.abs(sigs[N - 1] - v_prime / d**N).max())
    del sigs

    # tr(root v') is vdot(root, v') because root is symmetric
    tr_direct = float(np.vdot(sqrt_psd(pis[N - 1]), v_prime))
    report.add(
        "sqrt_povm_signal_trace",
        abs(tr_direct - trace_sqrt_povm_signal(N, d)),
        detail=f"oracle={tr_direct!r}",
    )
    del v_prime
    return report
