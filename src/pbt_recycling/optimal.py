"""Optimal-protocol quantities: rotation weights and their fidelities.

The optimal sender pre-rotates the shared state by a positive combination of
Young projectors.  Its weights v_mu over the frames mu of N boxes (height <= d)
are the Perron vector of the teleportation matrix M = d^(-2) B^T B, where B is
the 0/1 incidence matrix with B[alpha, mu] = 1 when mu is a frame alpha of
N-1 boxes plus one box; lambda_max(M) is the entanglement fidelity of the
optimal channel (Mozrzymas, Studzinski, Strelchuk, Horodecki, "Optimal
port-based teleportation", arXiv:1707.08456).  At d = 2 the Perron vector is
v_mu = 2/sqrt(N+2) sin(pi (mu_1 - mu_2 + 1)/(N+2)); above, ``v_optimal``
solves for it.  This module also carries the optimal-protocol recycling
fidelity and the overlap between the optimal and plain resource states,
cross-checkable in an angular-momentum parametrization.

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
from math import factorial, lgamma, sqrt

import numpy as np

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

#: Relative eigen-residual demanded of the Perron vector, and the most negative
#: entry tolerated before it is read as zero.
PERRON_TOL = 1e-12


class CoefficientError(ValueError):
    """Raised when a coefficient set or coefficient file fails validation."""


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


def _from_table(N: int, d: int, table: np.ndarray, values: np.ndarray) -> VCoefficients:
    """Weights given per row of a zero-padded frame table."""
    frames = [Partition(tuple(x for x in row if x)) for row in table.tolist()]
    return VCoefficients(ports=N, dim=d, entries=dict(zip(frames, values.tolist())))


def _perron_weights(N: int, d: int) -> tuple[np.ndarray, np.ndarray]:
    """(frame table of N boxes, Perron vector of d^(-2) B^T B on its rows), any d >= 2.

    B is the incidence matrix of the frames of N-1 boxes against their
    one-box extensions, all of height <= d.
    """
    # imported here: scipy.sparse adds a tenth of a second to every start-up
    # of the package, and only d >= 3 needs it
    from scipy.sparse import csr_matrix
    from scipy.sparse.linalg import eigsh

    alphas, grown, valid = one_box_frames(N, d)
    table, cols = np.unique(grown[valid], axis=0, return_inverse=True)
    if len(table) == 1:  # ARPACK needs more rows than eigenvectors
        return table, np.ones(1)
    rows = np.nonzero(valid)[0]
    incidence = csr_matrix((np.ones(len(rows)), (rows, cols.ravel())), shape=(len(alphas), len(table)))
    m = (incidence.T @ incidence) / d**2
    w, u = eigsh(m, k=1, which="LA", v0=np.ones(len(table)))
    v = u[:, 0] * np.sign(u[:, 0].sum())
    v /= np.linalg.norm(v)
    residual = np.linalg.norm(m @ v - w[0] * v)
    if residual > PERRON_TOL * w[0]:
        raise RuntimeError(f"Perron residual {residual} exceeds {PERRON_TOL} * {w[0]}")
    if v.min() < -PERRON_TOL:
        raise RuntimeError(f"Perron vector has a negative entry {v.min()}")
    # entries below the solver's accuracy may come out as tiny negatives
    return table, np.maximum(v, 0.0)


def v_optimal(N: int, d: int) -> VCoefficients:
    """Optimal-protocol weights: the Perron vector of the teleportation matrix.

    d = 2 takes the closed form 2/sqrt(N+2) sin(pi k/(N+2)), k = mu_1 - mu_2 + 1,
    with k folded to min(k, N+2-k) so the sine's argument stays in (0, pi/2];
    d >= 3 takes a sparse eigensolve.
    """
    if N < 1:
        raise ValueError("N must be positive")
    if d < 2:
        raise ValueError("d must be at least 2")
    if d > 2:
        return _from_table(N, d, *_perron_weights(N, d))
    table = frame_table(N, 2)
    k = table[:, 0] - table[:, 1] + 1
    k = np.minimum(k, N + 2 - k)
    return _from_table(N, 2, table, 2.0 / sqrt(N + 2) * np.sin(np.pi * k / (N + 2)))


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

    The p-form sum of the module docstring; the optimal protocol takes
    ``vN = v_optimal(N, d)``, ``vNm1 = v_optimal(N - 1, d)``.
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
    """Same overlap computed in the total-spin parametrization (d = 2 only).

    Factorials enter as log-gamma sums, so no term overflows at large N.
    """
    if N < 1:
        raise ValueError("N must be positive")
    jmin = 0 if N % 2 == 0 else 1  # doubled
    ln_prefactor = lgamma(N + 1) - (N - 2) * math.log(2) - math.log(N + 2)
    return math.fsum(
        (twoj + 1)
        * math.sin(math.pi * (twoj + 1) / (N + 2))
        * math.exp(0.5 * (ln_prefactor - lgamma((N - twoj) // 2 + 1) - lgamma((N + twoj) // 2 + 2)))
        for twoj in range(jmin, N + 1, 2)
    )
