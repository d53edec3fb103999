"""Optimal-protocol quantities: rotation coefficients and their fidelities.

The optimal sender pre-rotates the shared state by a positive combination of
Young projectors whose weights are the dominant eigenvector of a tridiagonal
"teleportation" matrix (known explicitly for qubit ports).  This module
carries that eigenvector (analytic and numeric routes), the optimal-protocol
recycling fidelity, and the overlap between the optimal and plain resource
states, cross-checkable in an angular-momentum parametrization.

Both fidelities are sums of the Schur-Weyl probability p of ``partitions``
(weights v_mu over frames of N boxes, v_alpha over frames of N-1 boxes):

    frec_optimal = 1/(d sqrt(N)) * sum_alpha v_alpha c(alpha) S(alpha) V(alpha) / sqrt(p(alpha)),
    V(alpha) = sum over one-box extensions mu of alpha of v_mu,
    resource_state_fidelity = sum_mu v_mu sqrt(p(mu)),

with c and S as in ``recycling``.  The first equals the exact-integer form
d^(-3/2) sum_alpha v_alpha s(alpha) V(alpha) / sqrt(m_alpha (N d_alpha - d_theta)),
s = sum sqrt(m_nu d_nu); the second equals sum_mu v_mu sqrt(d_mu m_mu / d^N).
With the uniform weights v_mu = sqrt(p(mu)) the optimal form collapses to the
plain recycling fidelity and the overlap to 1; the dense oracle pins both.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from math import factorial, sqrt

import numpy as np
from scipy.linalg import eigh_tridiagonal

from .partitions import (
    Partition,
    as_partition,
    frame_table,
    ln_schur_weyl_probability,
    partitions_bounded,
)
from .recycling import height_correction, on_mask, one_box_frames
from .reports import FidelityReport

#: Normalization slack for coefficient vectors.
NORM_TOL = 1e-9

#: Eigen-residual demanded from the numeric dominant eigenvector.
RESIDUAL_TOL = 1e-12


class CoefficientError(ValueError):
    """Raised when a coefficient set or coefficient file fails validation."""


@dataclass(frozen=True)
class TriDiagonalMatrix:
    """Symmetric tridiagonal matrix stored as diagonal and off-diagonal."""

    diagonal: tuple[float, ...]
    off_diagonal: tuple[float, ...]

    def __post_init__(self):
        if len(self.off_diagonal) != max(len(self.diagonal) - 1, 0):
            raise ValueError("off-diagonal length must be size - 1")

    @property
    def size(self) -> int:
        return len(self.diagonal)

    def to_dense(self) -> np.ndarray:
        m = np.diag(self.diagonal).astype(float)
        if self.off_diagonal:
            m += np.diag(self.off_diagonal, 1) + np.diag(self.off_diagonal, -1)
        return m


@dataclass(frozen=True)
class VCoefficients:
    """Rotation weights v over all frames of N boxes with height <= d.

    Entries are nonnegative with unit 2-norm; every admissible frame appears
    exactly once (zeros allowed).
    """

    ports: int
    dim: int
    entries: dict[Partition, float] = field(default_factory=dict)

    def __post_init__(self):
        expected = partitions_bounded(self.ports, self.dim)
        expected_set = set(expected)
        missing = [p for p in expected if p not in self.entries]
        extra = [p for p in self.entries if p not in expected_set]
        if missing or extra:
            raise CoefficientError(
                f"incomplete support: missing={[str(p) for p in missing]} "
                f"unexpected={[str(p) for p in extra]}"
            )
        vals = list(self.entries.values())
        if any(v < 0 for v in vals):
            raise CoefficientError("negative entry in coefficient set")
        norm2 = math.fsum(v * v for v in vals)
        if abs(norm2 - 1.0) > NORM_TOL:
            raise CoefficientError(f"not normalized: sum of squares = {norm2}")

    def __getitem__(self, mu) -> float:
        return self.entries[as_partition(mu)]

    def on_table(self, table: np.ndarray) -> np.ndarray:
        """The weight of each row of a zero-padded frame table."""
        by_parts = {p.parts: x for p, x in self.entries.items()}
        return np.array([by_parts[tuple(x for x in row if x)] for row in table.tolist()], dtype=float)

    def as_document(self) -> dict:
        return {
            "N": self.ports,
            "d": self.dim,
            "entries": [
                {"partition": list(p.parts), "v": self.entries[p]}
                for p in partitions_bounded(self.ports, self.dim)
            ],
        }

    @classmethod
    def uniform(cls, N: int, d: int) -> "VCoefficients":
        """Weights reproducing the un-rotated state: v = sqrt(p) = sqrt(dim * mult / d^N)."""
        sqrt_p = np.exp(0.5 * ln_schur_weyl_probability(frame_table(N, d), d))
        return cls(ports=N, dim=d, entries=dict(zip(partitions_bounded(N, d), sqrt_p.tolist())))


def parse_v_coefficients(document) -> VCoefficients:
    """Validate a coefficient document (dict or JSON text) into VCoefficients."""
    if isinstance(document, (str, bytes)):
        try:
            document = json.loads(document)
        except json.JSONDecodeError as e:
            raise CoefficientError(f"invalid JSON: {e}") from e
    if not isinstance(document, dict):
        raise CoefficientError("document must be a JSON object")
    for key in ("N", "d", "entries"):
        if key not in document:
            raise CoefficientError(f"missing field {key!r}")
    N, d = document["N"], document["d"]
    if not isinstance(N, int) or not isinstance(d, int) or N < 1 or d < 1:
        raise CoefficientError("wrong N or d")
    entries = {}
    if not isinstance(document["entries"], list):
        raise CoefficientError("entries must be a list")
    for item in document["entries"]:
        if not isinstance(item, dict) or "partition" not in item or "v" not in item:
            raise CoefficientError("each entry needs 'partition' and 'v'")
        try:
            p = Partition(tuple(item["partition"]))
        except (TypeError, ValueError) as e:
            raise CoefficientError(f"bad partition {item['partition']}: {e}") from e
        if p.n != N:
            raise CoefficientError(f"partition {p} does not have {N} boxes")
        if p in entries:
            raise CoefficientError(f"duplicate partition {p}")
        v = item["v"]
        if not isinstance(v, (int, float)) or not math.isfinite(v):
            raise CoefficientError(f"bad coefficient for {p}")
        entries[p] = float(v)
    return VCoefficients(ports=N, dim=d, entries=entries)


def load_v_coefficients(path) -> VCoefficients:
    """Read and validate a coefficient file (schema: N, d, entries[])."""
    with open(path, "r", encoding="utf-8") as fh:
        return parse_v_coefficients(fh.read())


def save_v_coefficients(v: VCoefficients, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(v.as_document(), fh, indent=2)
        fh.write("\n")


def teleportation_matrix_qubit(N: int) -> TriDiagonalMatrix:
    """Tridiagonal matrix whose dominant eigenvector gives the qubit weights.

    Size floor(N/2 + 1); every entry is 1/4 except the middle diagonal 2/4 and
    parity-dependent end cells.  For N = 1 the single cell is prescribed two
    conflicting values by the parity rules, so the request is rejected.
    """
    if N < 1:
        raise ValueError("N must be positive")
    if N == 1:
        raise ValueError(
            "teleportation matrix is ambiguous for N=1 (single cell, conflicting end rules)"
        )
    t = N // 2 + 1
    x1, x2 = (1.0, 1.0) if N % 2 == 0 else (1.0, 0.0)
    diag = [0.5] * t
    diag[0] = (2.0 - x1) / 4.0
    diag[-1] = (2.0 - x2) / 4.0
    return TriDiagonalMatrix(diagonal=tuple(diag), off_diagonal=tuple([0.25] * (t - 1)))


def _partition_for_l(N: int, l: int) -> Partition:
    return Partition((N - l, l) if l else (N,))


def _vector_to_coefficients(N: int, vec: np.ndarray) -> VCoefficients:
    if vec.sum() < 0:
        vec = -vec
    vec = vec / np.linalg.norm(vec)
    if not (vec > 0).all():
        raise ValueError("eigenvector positivity violated")
    entries = {_partition_for_l(N, l): float(vec[l]) for l in range(len(vec))}
    return VCoefficients(ports=N, dim=2, entries=entries)


def v_qubit_analytic(N: int) -> VCoefficients:
    """Dominant-eigenvector weights from the explicit sine formulas.

    Index l (second-row length) runs over the full matrix size; row 0 of the
    matrix corresponds to l = 0 (the one-row frame).  The normalized vector
    must come out strictly positive.
    """
    if N < 2:
        raise ValueError("analytic eigenvector requires N >= 2")
    t = N // 2 + 1
    vals = np.empty(t)
    s0 = math.sin(N * math.pi / (N + 2))
    for l in range(t):
        if N % 2 == 0:
            vals[l] = (
                (-1) ** (N // 2 - l)
                * (
                    math.sin(((N + 2) / 2 - l) * N * math.pi / (N + 2))
                    - math.sin((N / 2 - l) * N * math.pi / (N + 2))
                )
                / s0
            )
        else:
            vals[l] = (-1) ** ((N - 1) // 2 - l) * math.sin(
                ((N + 1) / 2 - l) * N * math.pi / (N + 2)
            ) / s0
    return _vector_to_coefficients(N, vals)


def v_qubit_numeric(N: int, residual_tol: float = RESIDUAL_TOL) -> VCoefficients:
    """Dominant eigenvector of the qubit teleportation matrix, solved numerically."""
    m = teleportation_matrix_qubit(N)
    w, u = eigh_tridiagonal(np.asarray(m.diagonal), np.asarray(m.off_diagonal))
    vec = u[:, -1]
    residual = np.linalg.norm(m.to_dense() @ vec - w[-1] * vec)
    if residual > residual_tol:
        raise RuntimeError(f"eigensolver residual {residual} exceeds {residual_tol}")
    return _vector_to_coefficients(N, vec)


def v_qubit(N: int) -> VCoefficients:
    """Qubit weights for any N >= 1.

    For N = 1 there is a single admissible frame, so normalization forces the
    trivial coefficient set without consulting the (ambiguous) 1x1 matrix.
    """
    if N == 1:
        return VCoefficients(ports=1, dim=2, entries={Partition((1,)): 1.0})
    return v_qubit_analytic(N)


def lambda_max_qubit(N: int) -> float:
    """Largest eigenvalue of the qubit teleportation matrix (numeric)."""
    m = teleportation_matrix_qubit(N)
    w = eigh_tridiagonal(
        np.asarray(m.diagonal), np.asarray(m.off_diagonal), eigvals_only=True
    )
    return float(w[-1])


def _as_half_integer(j) -> int:
    twoj = 2 * j
    twoj_int = int(round(twoj))
    if abs(twoj - twoj_int) > 1e-12:
        raise ValueError(f"j={j} is not a half-integer")
    return twoj_int


def angular_dim(N: int, j) -> int:
    """Path-counting dimension of the total-spin-j sector of N qubits (exact)."""
    twoj = _as_half_integer(j)
    if (N - twoj) % 2 != 0 or twoj < 0 or twoj > N:
        raise ValueError(f"j={j} out of range for N={N}")
    return (twoj + 1) * factorial(N) // (factorial((N - twoj) // 2) * factorial((N + twoj) // 2 + 1))


def gamma_angular(N: int, j) -> float:
    """Optimal rotation weight of the spin-j sector, squared amplitude.

    j runs over j_min, j_min+1, ..., N/2 with j_min = 0 (even N) or 1/2 (odd N).
    """
    twoj = _as_half_integer(j)
    jmin = 0 if N % 2 == 0 else 1
    if twoj < jmin or twoj > N or (twoj - jmin) % 2 != 0:
        raise ValueError(f"j={j} out of range for N={N}")
    dj = angular_dim(N, j)
    s = math.sin(math.pi * (twoj + 1) / (N + 2))
    return 2 ** (N + 2) / ((N + 2) * (twoj + 1) * dj) * s * s


def frec_optimal(N: int, d: int, vN: VCoefficients, vNm1: VCoefficients) -> FidelityReport:
    """One-round recycling fidelity of the optimal protocol, arbitrary d.

    The p-form sum of the module docstring; qubit ports take
    ``vN = v_qubit(N)``, ``vNm1 = v_qubit(N - 1)``.
    """
    if N < 2:
        raise ValueError("N must be at least 2 for the optimal protocol")
    if d < 2:
        raise ValueError("d must be at least 2")
    if vN.ports != N or vN.dim != d:
        raise CoefficientError(f"coefficient set for N is labeled ({vN.ports}, {vN.dim})")
    if vNm1.ports != N - 1 or vNm1.dim != d:
        raise CoefficientError(
            f"coefficient set for N-1 is labeled ({vNm1.ports}, {vNm1.dim})"
        )
    alphas, grown, valid = one_box_frames(N, d)
    ln_p = ln_schur_weyl_probability(np.concatenate([alphas, grown[valid]]), d)
    ln_p_alpha, ln_p_grown = ln_p[: len(alphas)], on_mask(ln_p[len(alphas):], valid, -np.inf)
    # S(alpha)/sqrt(p(alpha)) term by term, so no underflowing p is divided by
    s_over_sqrt_p = np.exp(0.5 * (ln_p_grown - ln_p_alpha[:, None])).sum(axis=1)
    big_v = on_mask(vN.on_table(grown[valid]), valid, 0.0).sum(axis=1)
    terms = vNm1.on_table(alphas) * height_correction(alphas, d) * s_over_sqrt_p * big_v
    value = math.fsum(terms) / (d * sqrt(N))
    return FidelityReport(value=value, method="optimal_general", ports=N, dim=d)


def resource_state_fidelity(N: int, d: int, v: VCoefficients) -> FidelityReport:
    """Overlap between the plain and rotated resource states: sum of v * sqrt(p)."""
    if v.ports != N or v.dim != d:
        raise CoefficientError(f"coefficient set is labeled ({v.ports}, {v.dim})")
    table = frame_table(N, d)
    value = math.fsum(v.on_table(table) * np.exp(0.5 * ln_schur_weyl_probability(table, d)))
    return FidelityReport(value=value, method="general", ports=N, dim=d)


def resource_state_fidelity_qubit_angular(N: int) -> float:
    """Same overlap computed in the total-spin parametrization (d = 2 only)."""
    if N < 1:
        raise ValueError("N must be positive")
    jmin = 0 if N % 2 == 0 else 1  # doubled
    total = math.fsum(
        (twoj + 1)
        * math.sin(math.pi * (twoj + 1) / (N + 2))
        / sqrt(factorial((N - twoj) // 2) * factorial((N + twoj) // 2 + 1))
        for twoj in range(jmin, N + 1, 2)
    )
    return sqrt(factorial(N) / (2 ** (N - 2) * (N + 2))) * total
