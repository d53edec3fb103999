"""Optimal-protocol quantities: rotation weights and their fidelities.

The optimal sender pre-rotates the shared state by a positive combination of
Young projectors.  Its weights v_mu over the frames mu of N boxes (height <= d)
are the Perron vector of the teleportation matrix M = d^(-2) B^T B, where B is
the 0/1 incidence matrix with B[alpha, mu] = 1 when mu is a frame alpha of
N-1 boxes plus one box; lambda_max(M) is the entanglement fidelity of the
optimal channel (Mozrzymas, Studzinski, Strelchuk, Horodecki, "Optimal
port-based teleportation", arXiv:1707.08456).  At d = 2 the Perron vector is
v_mu = 2/sqrt(N+2) sin(pi (mu_1 - mu_2 + 1)/(N+2)); above, ``v_optimal``
solves for it.  Weights are arrays in ``frame_table`` row order.  This
module also carries the optimal-protocol recycling fidelity and the overlap
between the optimal and plain resource states.  B, the uniform weights and
both fidelities are per-row terms over the frame walk of ``partitions``,
whose module docstring describes the blocks, the held record of a point and
the run sums: a fidelity gathers weights at a block's rows and extension
rows, and V(alpha) below adds its d weights down the columns of the
transposed extension ranks (``partitions._row_order_sum``), so no sum runs
along a row.  The weights enter only through v_alpha and V(alpha), so a
repeat evaluation with new weights at a held point computes only those.  A
coefficient document is checked entry by entry, each a frame of N boxes
(``partitions.frame_parts``), not repeated, with a finite weight; its
distinct frames, none taller than d, are then all the point's exactly when
there are ``frame_count(N, d)`` of them, and in descending tuple order they
fall in ``frame_table`` row order.  So a complete document builds no frame
table; only an incomplete one lists the point's frames, to name the
missing ones.

Both fidelities are sums over frames (weights v_mu over frames of N boxes,
v_alpha over frames of N-1 boxes):

    frec_optimal = 1/(d sqrt(N)) * sum_alpha v_alpha c(alpha) V(alpha) S(alpha)/sqrt(p(alpha)),
    V(alpha) = sum over one-box extensions mu of alpha of v_mu,
    resource_state_fidelity = sum_mu v_mu sqrt(p(mu)),

with c, S and the Schur-Weyl probability p as in ``recycling``, where
S(alpha)/sqrt(p(alpha)) needs no log-probability.  frec_optimal equals the exact-integer form
d^(-3/2) sum_alpha v_alpha s(alpha) V(alpha) / sqrt(m_alpha (N d_alpha - d_theta)),
s = sum sqrt(m_nu d_nu); the overlap equals sum_mu v_mu sqrt(d_mu m_mu / d^N).
With the uniform weights v_mu = sqrt(p(mu)) the optimal form collapses to the
plain recycling fidelity and the overlap to 1; the dense oracle pins both.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from math import sqrt

import numpy as np

from .partitions import (
    _frame_blocks,
    _frame_sums,
    _row_order_sum,
    frame_count,
    frame_parts,
    frame_table,
    frame_text,
    partitions_bounded,
)
from .recycling import _check_point
from .reports import FidelityReport

#: Normalization slack for coefficient vectors.
NORM_TOL = 1e-9

#: Relative eigen-residual demanded of the Perron vector, and the most negative
#: entry tolerated before it is read as zero.
PERRON_TOL = 1e-12


class CoefficientError(ValueError):
    """Raised when a coefficient set or coefficient file fails validation."""


@dataclass(frozen=True, eq=False)
class VCoefficients:
    """Rotation weights v over all frames of N boxes with height <= d.

    ``entries`` is a read-only float64 array with one weight per row of
    ``frame_table(ports, dim)``, in that order (descending lexicographic, as
    ``partitions_bounded``).  Weights are finite and nonnegative (zeros
    allowed) with unit 2-norm.
    """

    ports: int
    dim: int
    entries: np.ndarray

    def __post_init__(self):
        entries = np.array(self.entries, dtype=float)  # a copy: no caller keeps a writable view
        frames = frame_count(self.ports, self.dim)
        if entries.shape != (frames,):
            raise CoefficientError(f"incomplete support: {entries.size} entries for {frames} frames")
        if not np.isfinite(entries).all():
            raise CoefficientError("bad coefficient in coefficient set")
        if (entries < 0).any():
            raise CoefficientError("negative entry in coefficient set")
        norm2 = float(entries @ entries)
        if abs(norm2 - 1.0) > NORM_TOL:
            raise CoefficientError(f"not normalized: sum of squares = {norm2}")
        entries.flags.writeable = False
        object.__setattr__(self, "entries", entries)

    def __eq__(self, other):
        if not isinstance(other, VCoefficients):
            return NotImplemented
        return (self.ports, self.dim) == (other.ports, other.dim) and np.array_equal(self.entries, other.entries)

    def as_document(self) -> dict:
        return {
            "N": self.ports,
            "d": self.dim,
            "entries": [
                {"partition": list(p), "v": x}
                for p, x in zip(partitions_bounded(self.ports, self.dim), self.entries.tolist())
            ],
        }

    @classmethod
    def uniform(cls, N: int, d: int) -> "VCoefficients":
        """Weights reproducing the un-rotated state: v = sqrt(p) = sqrt(dim * mult / d^N)."""
        return cls(ports=N, dim=d, entries=np.concatenate([_sqrt_p(b) for b in _frame_blocks(N, N, d)]))


def _sqrt_p(block) -> np.ndarray:
    """sqrt(p(mu)) per row of a ``partitions._Block``."""
    return np.exp(0.5 * block.ln_p)


def _is_json_int(x) -> bool:
    """Whether ``x`` is an integer; JSON true and false load as bool, an int subclass, and are not."""
    return isinstance(x, int) and not isinstance(x, bool)


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
    if not _is_json_int(N) or not _is_json_int(d) or N < 1 or d < 1:
        raise CoefficientError("wrong N or d")
    if not isinstance(document["entries"], list):
        raise CoefficientError("entries must be a list")
    entries = {}
    for item in document["entries"]:
        if not isinstance(item, dict) or "partition" not in item or "v" not in item:
            raise CoefficientError("each entry needs 'partition' and 'v'")
        parts = item["partition"]
        try:
            p = frame_parts(parts)
        except (TypeError, ValueError) as e:
            raise CoefficientError(f"bad partition {parts}: {e}") from e
        if sum(p) != N:
            raise CoefficientError(f"partition {frame_text(p)} does not have {N} boxes")
        if p in entries:
            raise CoefficientError(f"duplicate partition {frame_text(p)}")
        v = item["v"]
        try:  # float() of an int beyond the float range raises OverflowError
            v = float(v) if isinstance(v, float) or _is_json_int(v) else math.nan
        except OverflowError:
            v = math.nan
        if not math.isfinite(v):
            raise CoefficientError(f"bad coefficient for {frame_text(p)}")
        entries[p] = v
    if max(map(len, entries), default=0) > d or len(entries) != frame_count(N, d):
        frames = partitions_bounded(N, d)  # listed only to name the missing ones
        raise CoefficientError(
            f"incomplete support: missing={[frame_text(p) for p in frames if p not in entries]} "
            f"unexpected={[frame_text(p) for p in entries if len(p) > d]}"
        )
    return VCoefficients(ports=N, dim=d, entries=np.array([v for _, v in sorted(entries.items(), reverse=True)]))


def load_v_coefficients(path) -> VCoefficients:
    """Read and validate a coefficient file (schema: N, d, entries[])."""
    with open(path, "r", encoding="utf-8") as fh:
        return parse_v_coefficients(fh.read())


def save_v_coefficients(v: VCoefficients, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(v.as_document(), fh, indent=2)
        fh.write("\n")


def _perron_weights(N: int, d: int) -> np.ndarray:
    """Perron vector of d^(-2) B^T B on the rows of ``frame_table(N, d)``, any d >= 2.

    B is the incidence matrix of the frames of N-1 boxes against their
    one-box extensions, all of height <= d.
    """
    # imported here: scipy.sparse adds a tenth of a second to every start-up
    # of the package, and only d >= 3 needs it
    from scipy.sparse import csr_matrix
    from scipy.sparse.linalg import eigsh

    ranks = np.concatenate([b.ranks for b in _frame_blocks(N - 1, N - 1, d, extend=True)])
    frames = ranks.max() + 1
    if frames == 1:  # ARPACK needs more rows than eigenvectors
        return np.ones(1)
    rows, cols = np.nonzero(ranks >= 0)
    incidence = csr_matrix((np.ones(len(rows)), (rows, ranks[rows, cols])), shape=(len(ranks), frames))
    m = (incidence.T @ incidence) / d**2
    w, u = eigsh(m, k=1, which="LA", v0=np.ones(frames))
    v = u[:, 0] * np.sign(u[:, 0].sum())
    v /= np.linalg.norm(v)
    residual = np.linalg.norm(m @ v - w[0] * v)
    if residual > PERRON_TOL * w[0]:
        raise RuntimeError(f"Perron residual {residual} exceeds {PERRON_TOL} * {w[0]}")
    if v.min() < -PERRON_TOL:
        raise RuntimeError(f"Perron vector has a negative entry {v.min()}")
    # entries below the solver's accuracy may come out as tiny negatives
    return np.maximum(v, 0.0)


def v_optimal(N: int, d: int) -> VCoefficients:
    """Optimal-protocol weights: the Perron vector of the teleportation matrix.

    d = 2 takes the closed form 2/sqrt(N+2) sin(pi k/(N+2)), k = mu_1 - mu_2 + 1,
    with k folded to min(k, N+2-k) so the sine's argument stays in (0, pi/2];
    d >= 3 takes a sparse eigensolve.
    """
    _check_point(N, d)
    if d > 2:
        return VCoefficients(ports=N, dim=d, entries=_perron_weights(N, d))
    table = frame_table(N, 2)
    k = table[:, 0] - table[:, 1] + 1
    k = np.minimum(k, N + 2 - k)
    return VCoefficients(ports=N, dim=2, entries=2.0 / sqrt(N + 2) * np.sin(np.pi * k / (N + 2)))


def _check_optimal_point(N: int, d: int):
    if N < 2:
        raise ValueError("N must be at least 2 for the optimal protocol")
    _check_point(N, d)


def frec_optimal(N: int, d: int, vN: VCoefficients, vNm1: VCoefficients) -> FidelityReport:
    """One-round recycling fidelity of the optimal protocol: the frame sum of the module docstring.

    The optimal protocol takes ``vN = v_optimal(N, d)``, ``vNm1 = v_optimal(N - 1, d)``.
    """
    _check_optimal_point(N, d)
    if vN.ports != N or vN.dim != d:
        raise CoefficientError(f"coefficient set for N is labeled ({vN.ports}, {vN.dim})")
    if vNm1.ports != N - 1 or vNm1.dim != d:
        raise CoefficientError(
            f"coefficient set for N-1 is labeled ({vNm1.ports}, {vNm1.dim})"
        )

    extended = np.append(vN.entries, 0.0)  # rank -1, off the frames, gathers the 0

    def terms(block):
        big_v = _row_order_sum(extended[block.rank_lines])
        return vNm1.entries[block.start: block.start + len(block.table)] * block.c * block.s_over_sqrt_p * big_v

    value = _frame_sums(N - 1, N - 1, d, terms, extend=True)[0] / (d * sqrt(N))
    return FidelityReport(value=value, method="optimal_general", ports=N, dim=d)


def resource_state_fidelity(N: int, d: int, v: VCoefficients) -> FidelityReport:
    """Overlap between the plain and rotated resource states: sum of v * sqrt(p)."""
    if v.ports != N or v.dim != d:
        raise CoefficientError(f"coefficient set is labeled ({v.ports}, {v.dim})")
    value = _frame_sums(N, N, d, lambda b: v.entries[b.start: b.start + len(b.table)] * _sqrt_p(b))[0]
    return FidelityReport(value=value, method="general", ports=N, dim=d)
