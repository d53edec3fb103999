"""Exact dense-matrix construction of every protocol object for small N.

Everything lives on (C^d)^(x)(N+1) with the port systems first and the input
system last; basis indices are big-endian in the local digits.  Fidelities
are computed directly from their defining expressions, against which every
closed form in the package is checked.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from math import sqrt
from typing import Optional

import numpy as np

from .characters import character, cycle_type
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

#: Hard cap on dense operator dimension d^(N+1); requests beyond it error out.
DEFAULT_DIM_CAP = 2**14

#: Group-averaged projectors iterate all n! permutations; keep n modest.
MAX_PROJECTOR_BOXES = 8

#: Bytes the dense projectors of one (n, d) may hold; requests beyond it error out.
PROJECTOR_BYTE_BUDGET = 1 << 30

#: Relative support threshold: eigenvalues below tol*lambda_max count as kernel.
SUPPORT_TOL = 1e-12

#: Eigenvalues in (-1e-10, 0) are clamped to 0; more negative ones are an error.
NEGATIVE_EIG_TOL = 1e-10

#: State vectors on all 2N systems are capped separately (length d^(2N)).
VECTOR_CAP = 1 << 22


class DimensionCapError(RuntimeError):
    """Raised when a dense construction would exceed the configured cap."""


def _check_cap(dim: int, dim_cap: int):
    if dim > dim_cap:
        raise DimensionCapError(f"dense dimension {dim} exceeds cap {dim_cap}")


@dataclass(frozen=True)
class DenseOperator:
    """Square complex matrix on (C^d)^(x)n with an optional Hermitian flag."""

    matrix: np.ndarray
    hermitian: bool = False

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        object.__setattr__(self, "matrix", m)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("matrix must be square")
        if self.hermitian:
            dev = np.abs(m - m.conj().T).max()
            if dev > 1e-12:
                raise ValueError(f"hermitian flag set but deviation is {dev}")

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True)
class SpectrumReport:
    """Sorted oracle eigenvalues versus a predicted (value, multiplicity) list."""

    eigenvalues: tuple[float, ...]
    predicted: tuple[tuple[float, int], ...]
    max_deviation: float


def permutation_operator(perm, d: int, n: int, dim_cap: int = DEFAULT_DIM_CAP) -> DenseOperator:
    """0/1 matrix permuting tensor factors by ``perm`` (0-based images).

    Factor ``k`` of the input becomes factor ``perm[k]`` of the output.
    """
    perm = tuple(perm)
    if sorted(perm) != list(range(n)):
        raise ValueError(f"{perm} is not a permutation of 0..{n - 1}")
    dim = d**n
    _check_cap(dim, dim_cap)
    inv = [0] * n
    for k, pk in enumerate(perm):
        inv[pk] = k
    powers = d ** np.arange(n - 1, -1, -1)
    idx = np.arange(dim)
    digits = (idx[:, None] // powers[None, :]) % d
    rows = digits[:, inv] @ powers
    m = np.zeros((dim, dim))
    m[rows, idx] = 1.0
    return DenseOperator(matrix=m)


def transposition(i: int, j: int, n: int) -> tuple[int, ...]:
    """The permutation exchanging positions i and j (0-based)."""
    p = list(range(n))
    p[i], p[j] = p[j], p[i]
    return tuple(p)


def partial_transpose_last(op: DenseOperator, d: int, n: int) -> DenseOperator:
    """Transpose on the last tensor factor only."""
    t = op.matrix.reshape((d,) * (2 * n))
    t = np.swapaxes(t, n - 1, 2 * n - 1)
    return DenseOperator(matrix=t.reshape(d**n, d**n))


def maximally_entangled_projector(d: int) -> np.ndarray:
    v = np.zeros(d * d)
    v[:: d + 1] = 1.0 / sqrt(d)
    return np.outer(v, v)


def signal_state(a: int, N: int, d: int, dim_cap: int = DEFAULT_DIM_CAP) -> DenseOperator:
    """Reduced state flagging teleportation through port ``a`` (1-based).

    Maximally entangled projector between port ``a`` and the input system,
    maximally mixed elsewhere; unit trace.
    """
    if not 1 <= a <= N:
        raise ValueError(f"port index {a} out of range 1..{N}")
    n = N + 1
    dim = d**n
    _check_cap(dim, dim_cap)
    base = np.kron(np.eye(d ** (N - 1)), maximally_entangled_projector(d))
    if a != N:
        v = permutation_operator(transposition(a - 1, N - 1, n), d, n, dim_cap).matrix
        base = v @ base @ v.T
    return DenseOperator(matrix=base / d ** (N - 1), hermitian=True)


def rho_operator(N: int, d: int, dim_cap: int = DEFAULT_DIM_CAP) -> DenseOperator:
    """Sum of all signal states; the operator whose inverse root whitens them."""
    total = sum(signal_state(a, N, d, dim_cap).matrix for a in range(1, N + 1))
    return DenseOperator(matrix=total, hermitian=True)


def _clamped_eigh(op: DenseOperator, tol: float):
    m = op.matrix
    dev = np.abs(m - m.conj().T).max()
    if dev > 1e-12:
        raise ValueError(f"operator is not Hermitian (deviation {dev})")
    w, u = np.linalg.eigh(m)
    lam_max = float(w[-1]) if w.size else 0.0
    neg_floor = -NEGATIVE_EIG_TOL * max(1.0, abs(lam_max))
    if w[0] < neg_floor:
        raise ValueError(f"not PSD: eigenvalue {w[0]} below {neg_floor}")
    support = w > tol * max(lam_max, 0.0)
    w = np.where(w > 0.0, w, 0.0)
    return w, u, support


def sqrt_psd(op: DenseOperator, tol: float = SUPPORT_TOL) -> DenseOperator:
    """Spectral square root with sub-threshold eigenvalues clamped to zero."""
    w, u, support = _clamped_eigh(op, tol)
    vals = np.where(support, np.sqrt(w), 0.0)
    m = (u * vals) @ u.conj().T
    return DenseOperator(matrix=0.5 * (m + m.conj().T), hermitian=True)


def pinv_sqrt_psd(op: DenseOperator, tol: float = SUPPORT_TOL) -> DenseOperator:
    """Inverse square root on the support; the kernel is left untouched."""
    w, u, support = _clamped_eigh(op, tol)
    vals = np.zeros_like(w)
    vals[support] = 1.0 / np.sqrt(w[support])
    m = (u * vals) @ u.conj().T
    return DenseOperator(matrix=0.5 * (m + m.conj().T), hermitian=True)


@lru_cache(maxsize=8)
def _srm_bundle(N: int, d: int, dim_cap: int):
    rho = rho_operator(N, d, dim_cap)
    root = pinv_sqrt_psd(rho)
    pis = []
    for a in range(1, N + 1):
        m = root.matrix @ signal_state(a, N, d, dim_cap).matrix @ root.matrix
        pis.append(0.5 * (m + m.conj().T))
    delta = np.eye(d ** (N + 1)) - sum(pis)
    delta = 0.5 * (delta + delta.conj().T)
    return rho, tuple(pis), delta


def srm_povm(
    a: int, N: int, d: int, dim_cap: int = DEFAULT_DIM_CAP
) -> tuple[DenseOperator, DenseOperator, DenseOperator]:
    """(bare element, excess projector, completed element) of the square-root measurement.

    The bare elements are the whitened signals; the excess term completes
    them to a resolution of identity, spread evenly over the N outcomes.
    """
    if not 1 <= a <= N:
        raise ValueError(f"port index {a} out of range 1..{N}")
    _, pis, delta = _srm_bundle(N, d, dim_cap)
    pi_a = DenseOperator(matrix=pis[a - 1], hermitian=True)
    excess = DenseOperator(matrix=delta, hermitian=True)
    completed = DenseOperator(matrix=pis[a - 1] + delta / N, hermitian=True)
    return pi_a, excess, completed


@lru_cache(maxsize=32)
def _young_projectors(n: int, d: int, dim_cap: int) -> dict[Partition, np.ndarray]:
    """The group-averaged projectors for frames of n boxes and height <= d, one pass over S(n).

    Taller frames are left out: their projectors vanish on (C^d)^(x)n.
    """
    if n > MAX_PROJECTOR_BOXES:
        raise DimensionCapError(
            f"group-averaged projectors capped at {MAX_PROJECTOR_BOXES} boxes, got {n}"
        )
    dim = d**n
    _check_cap(dim, dim_cap)
    shapes = [p.parts for p in partitions_bounded(n, d)]
    nbytes = len(shapes) * dim * dim * np.dtype(float).itemsize
    if nbytes > PROJECTOR_BYTE_BUDGET:
        raise DimensionCapError(
            f"projectors for {n} boxes at d={d} need {nbytes} bytes, budget {PROJECTOR_BYTE_BUDGET}"
        )
    sums: dict[tuple[int, ...], np.ndarray] = {s: np.zeros((dim, dim)) for s in shapes}
    powers = d ** np.arange(n - 1, -1, -1)
    idx = np.arange(dim)
    digits = (idx[:, None] // powers[None, :]) % d
    for perm in itertools.permutations(range(n)):
        ct = cycle_type(perm)
        inv = [0] * n
        for k, pk in enumerate(perm):
            inv[pk] = k
        rows = digits[:, inv] @ powers
        for s in shapes:
            chi = character(s, ct)
            if chi:
                np.add.at(sums[s], (rows, idx), float(chi))
    for s, m in sums.items():
        m *= dim_irrep(s) / math.factorial(n)
    return {Partition(s): m for s, m in sums.items()}


def young_projector(mu, d: int, dim_cap: int = DEFAULT_DIM_CAP) -> DenseOperator:
    """Group-averaged projector onto the isotypic block of frame ``mu`` (zero when taller than d)."""
    p = as_partition(mu)
    if p.height > d:
        _check_cap(d**p.n, dim_cap)
        return DenseOperator(matrix=np.zeros((d**p.n, d**p.n)), hermitian=True)
    return DenseOperator(matrix=_young_projectors(p.n, d, dim_cap)[p], hermitian=True)


def build_optimizing_operator(
    N: int, d: int, v: VCoefficients, dim_cap: int = DEFAULT_DIM_CAP
) -> DenseOperator:
    """Sender rotation: sqrt(d^N) sum of v-weighted, dimension-normalized projectors.

    Trace of O^dag O must come out d^N (weights have unit 2-norm); checked.
    """
    if v.ports != N or v.dim != d:
        raise ValueError(f"coefficient set is labeled ({v.ports}, {v.dim})")
    dim = d**N
    _check_cap(dim, dim_cap)
    projectors = _young_projectors(N, d, dim_cap)
    o = np.zeros((dim, dim))
    for mu in partitions_bounded(N, d):
        vm = v[mu]
        if vm == 0.0:
            continue
        dm = dim_irrep(mu) * mult_schur_weyl(mu, d)
        o += sqrt(d**N) * vm / sqrt(dm) * projectors[mu]
    trace = np.trace(o.conj().T @ o).real
    if abs(trace - d**N) > 1e-8 * d**N:
        raise RuntimeError(f"normalization broken: tr(O^dag O) = {trace}, want {d**N}")
    return DenseOperator(matrix=o, hermitian=True)


def _embed_ports_operator(o: np.ndarray, d: int) -> np.ndarray:
    """Extend an operator on the ports by identity on the input system."""
    return np.kron(o, np.eye(d))


def frec_oracle(N: int, d: int, dim_cap: int = DEFAULT_DIM_CAP) -> FidelityReport:
    """One-round recycling fidelity from the defining trace expression."""
    _, _, completed = srm_povm(N, N, d, dim_cap)
    sig = signal_state(N, N, d, dim_cap)
    root = sqrt_psd(completed)
    value = (
        (N / d)
        * sqrt(np.trace(completed.matrix).real)
        / sqrt(d ** (N + 1))
        * abs(np.trace(sig.matrix @ root.matrix))
    )
    return FidelityReport(value=float(value), method="oracle", ports=N, dim=d)


def frec_optimal_oracle(
    N: int,
    d: int,
    vN: VCoefficients,
    vNm1: VCoefficients,
    dim_cap: int = DEFAULT_DIM_CAP,
    rotated_srm: bool = False,
) -> FidelityReport:
    """Optimal-protocol recycling fidelity from its defining trace expression.

    ``rotated_srm=True`` swaps in the square-root measurement of the rotated
    signals instead of the plain one (comparison mode; the two coincide for
    strictly positive weights because whitening undoes the block rotation).
    """
    if N < 2:
        raise ValueError("N must be at least 2 for the optimal protocol")
    if vN.ports != N or vN.dim != d or vNm1.ports != N - 1 or vNm1.dim != d:
        raise ValueError("coefficient sets must be labeled (N, d) and (N-1, d)")
    sig = signal_state(N, N, d, dim_cap)
    o_full = _embed_ports_operator(build_optimizing_operator(N, d, vN, dim_cap).matrix, d)
    o_prev = np.kron(
        build_optimizing_operator(N - 1, d, vNm1, dim_cap).matrix, np.eye(d * d)
    )  # identity on port N and the input system
    if rotated_srm:
        rotated = [
            DenseOperator(
                matrix=o_full @ signal_state(a, N, d, dim_cap).matrix @ o_full.conj().T,
                hermitian=True,
            )
            for a in range(1, N + 1)
        ]
        rho = DenseOperator(matrix=sum(s.matrix for s in rotated), hermitian=True)
        root = pinv_sqrt_psd(rho).matrix
        pi_n = root @ rotated[N - 1].matrix @ root
        delta = np.eye(d ** (N + 1)) - sum(root @ s.matrix @ root for s in rotated)
        completed = DenseOperator(matrix=0.5 * ((pi_n + delta / N) + (pi_n + delta / N).conj().T), hermitian=True)
    else:
        _, _, completed = srm_povm(N, N, d, dim_cap)
    root_pi = sqrt_psd(completed)
    value = (sqrt(N) / d) * abs(
        np.trace(sig.matrix @ root_pi.matrix @ o_full @ o_prev.conj().T)
    )
    return FidelityReport(value=float(value), method="oracle", ports=N, dim=d)


def channel_fidelity_oracle(
    N: int, d: int, rotation: Optional[DenseOperator] = None, dim_cap: int = DEFAULT_DIM_CAP
) -> float:
    """Entanglement fidelity of the teleportation channel itself.

    ``rotation`` is an operator on the ports (identity when omitted); it is
    extended by identity on the input system.
    """
    _, pis, delta = _srm_bundle(N, d, dim_cap)
    if rotation is None:
        o = np.eye(d ** (N + 1))
    else:
        o = _embed_ports_operator(rotation.matrix, d)
    total = 0.0
    for a in range(1, N + 1):
        pi_t = pis[a - 1] + delta / N
        total += np.trace(o.conj().T @ pi_t @ o @ signal_state(a, N, d, dim_cap).matrix).real
    return float(total) / d**2


def resource_fidelity_oracle(
    N: int, d: int, v: VCoefficients, dim_cap: int = DEFAULT_DIM_CAP
) -> float:
    """Direct overlap of the rotated and plain resource state vectors.

    Builds the length-d^(2N) product of maximally entangled pairs and applies
    the rotation to the sender half; no trace shortcut is taken.
    """
    dim = d**N
    _check_cap(dim * dim, min(dim_cap**2, VECTOR_CAP))
    o = build_optimizing_operator(N, d, v, dim_cap).matrix
    phi = np.zeros(dim * dim)
    phi[:: dim + 1] = 1.0 / sqrt(dim)  # sum_i |i>_ports |i>_receiver
    rotated = (o @ phi.reshape(dim, dim)).reshape(-1)
    return float(abs(phi @ rotated))


def rho_spectrum_report(N: int, d: int, dim_cap: int = DEFAULT_DIM_CAP) -> SpectrumReport:
    """Oracle spectrum of the summed signals against the block prediction."""
    rho = rho_operator(N, d, dim_cap)
    eig = np.sort(np.linalg.eigvalsh(rho.matrix))
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


def povm_spectrum_deviation(N: int, d: int, dim_cap: int = DEFAULT_DIM_CAP) -> float:
    """Worst distance of any bare-element eigenvalue from its allowed set."""
    _, pis, _ = _srm_bundle(N, d, dim_cap)
    allowed = [0.0] + [
        povm_block_factor(alpha, N, d) for alpha in partitions_bounded(N - 1, d)
    ]
    worst = 0.0
    for pi in pis:
        for lam in np.linalg.eigvalsh(pi):
            worst = max(worst, min(abs(lam - a) for a in allowed))
    return float(worst)


def verify_suite(
    N: int,
    d: int,
    tol: float = 1e-9,
    v: Optional[VCoefficients] = None,
    compare_optimal_povm: bool = False,
    dim_cap: int = DEFAULT_DIM_CAP,
) -> VerifyReport:
    """Run every protocol invariant check at one parameter point.

    Failures are reported, not raised.  ``v`` supplies rotation weights for
    the rotation-dependent checks (uniform weights when omitted).
    """
    n = N + 1
    report = VerifyReport(ports=N, dim=d, tol=tol)
    _, pis, delta = _srm_bundle(N, d, dim_cap)
    sigs = [signal_state(a, N, d, dim_cap).matrix for a in range(1, N + 1)]
    identity = np.eye(d**n)

    completed = [pi + delta / N for pi in pis]
    report.add("povm_completeness", np.abs(sum(completed) - identity).max())
    report.add("excess_idempotent", np.abs(delta @ delta - delta).max())
    report.add(
        "excess_signal_orthogonal",
        max(np.abs(delta @ s).max() for s in sigs),
    )

    # covariance under every port permutation (acting trivially on the input)
    dev_cov = 0.0
    for perm in itertools.permutations(range(N)):
        full = tuple(perm) + (N,)
        vmat = permutation_operator(full, d, n, dim_cap).matrix
        for a in range(1, N + 1):
            b = perm[a - 1] + 1
            dev_cov = max(dev_cov, np.abs(vmat @ sigs[a - 1] @ vmat.T - sigs[b - 1]).max())
            dev_cov = max(
                dev_cov,
                np.abs(vmat @ completed[a - 1] @ vmat.T - completed[b - 1]).max(),
            )
    report.add("signal_and_povm_covariance", dev_cov)

    report.add(
        "completed_trace",
        max(abs(np.trace(c).real - d ** (N + 1) / N) for c in completed),
    )

    vv = v if v is not None else VCoefficients.uniform(N, d)
    o_ports = build_optimizing_operator(N, d, vv, dim_cap)
    o_full = _embed_ports_operator(o_ports.matrix, d)
    report.add(
        "rotated_completed_trace",
        max(
            abs(np.trace(o_full.conj().T @ c @ o_full).real - d ** (N + 1) / N)
            for c in completed
        ),
    )

    report.add("rho_spectrum", rho_spectrum_report(N, d, dim_cap).max_deviation)
    report.add("povm_spectrum", povm_spectrum_deviation(N, d, dim_cap))

    # signal N equals the partially transposed port<->input swap over d^N
    swap = permutation_operator(transposition(N - 1, n - 1, n), d, n, dim_cap)
    v_prime = partial_transpose_last(swap, d, n).matrix
    report.add("signal_is_transposed_swap", np.abs(sigs[N - 1] - v_prime / d**N).max())

    tr_direct = float(
        np.trace(sqrt_psd(DenseOperator(matrix=pis[N - 1], hermitian=True)).matrix @ v_prime).real
    )
    report.add(
        "sqrt_povm_signal_trace",
        abs(tr_direct - trace_sqrt_povm_signal(N, d)),
        detail=f"oracle={tr_direct!r}",
    )

    if compare_optimal_povm and N >= 2:
        prev = VCoefficients.uniform(N - 1, d)
        lit = frec_optimal_oracle(N, d, vv, prev, dim_cap, rotated_srm=False)
        rot = frec_optimal_oracle(N, d, vv, prev, dim_cap, rotated_srm=True)
        report.notes.append(
            "optimal-measurement comparison: plain-SRM value "
            f"{lit.value!r}, rotated-signal-SRM value {rot.value!r}, "
            f"difference {abs(lit.value - rot.value):.3e} (reported, not asserted)"
        )
    return report
