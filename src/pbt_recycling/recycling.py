"""Closed forms for the one-round recycling fidelity of deterministic PBT.

The resource state degrades when the sender's square-root measurement fires;
its overlap with the ideal post-teleportation state reduces to a sum over
Young frames alpha of N-1 boxes and height <= d.  Every term is written with
the Schur-Weyl probability p(lam) = m_lam d_lam / d^n of ``partitions``:

    F = 1/(d sqrt(N)) * sum_alpha c(alpha) S(alpha)^2,
    S(alpha) = sum over one-box extensions nu of alpha of sqrt(p(nu)),

where c(alpha) = 1/sqrt(1 - prod_i h_i/(h_i + 1)) when alpha has height d,
h_i being the first-column hook lengths of alpha, and c(alpha) = 1 otherwise.

This equals the exact-integer form F = sqrt(N)/d^(N+1) * T, with the overlap
trace T = sum_alpha k(alpha) s(alpha)^2 / N, s = sum_nu sqrt(m_nu d_nu) and
k = sqrt(N d_alpha / (N d_alpha - d_theta)) for the over-height frame
theta = alpha + (1,): s^2 = d^N S^2, and d_theta/(N d_alpha) is the hook
product above.  On the bare sum sum_alpha k s^2 (without the 1/N) the
normalisation is 1/(sqrt(N) d^(N+1)); sqrt(N)/d^(N+1) there would exceed 1
already at N = d = 2.  F = 1/d at N = 1, and the dense-matrix oracle
reproduces F.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .partitions import (
    CACHE_CAPACITY,
    add_box,
    as_partition,
    dim_irrep,
    frame_table,
    ln_schur_weyl_probability,
    mult_schur_weyl,
    theta_dim,
)
from .reports import FidelityReport


def _check_point(N: int, d: int):
    if N < 1:
        raise ValueError("N must be positive")
    if d < 2:
        raise ValueError("d must be at least 2")


def one_box_frames(N: int, d: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The frames alpha of N-1 boxes and their one-box extensions nu, height <= d.

    Returns the frame table of alpha (F x d), the grown frames (F x d x d,
    entry [f, i] adds a box to row i) and the mask of those that are frames.
    """
    alphas = frame_table(N - 1, d)
    grown = alphas[:, None, :] + np.eye(d, dtype=alphas.dtype)
    valid = np.ones(alphas.shape, dtype=bool)
    valid[:, 1:] = alphas[:, :-1] > alphas[:, 1:]
    return alphas, grown, valid


def on_mask(values: np.ndarray, valid: np.ndarray, fill: float) -> np.ndarray:
    """An array shaped like ``valid`` holding ``values`` where it is set, else ``fill``."""
    out = np.full(valid.shape, fill)
    out[valid] = values
    return out


def height_correction(alphas: np.ndarray, d: int) -> np.ndarray:
    """c(alpha) per row: 1/sqrt(1 - prod_i h_i/(h_i+1)) at height d, else 1."""
    c = np.ones(len(alphas))
    full = alphas[:, -1] > 0
    hooks = alphas[full] + np.arange(d - 1, -1, -1)
    c[full] = 1.0 / np.sqrt(-np.expm1(-np.log1p(1.0 / hooks).sum(axis=1)))
    return c


@lru_cache(maxsize=CACHE_CAPACITY)
def _recycling_sum(N: int, d: int) -> float:
    """sum_alpha c(alpha) S(alpha)^2 (``frec`` and the trace share it)."""
    alphas, grown, valid = one_box_frames(N, d)
    s = np.exp(0.5 * on_mask(ln_schur_weyl_probability(grown[valid], d), valid, -np.inf)).sum(axis=1)
    return math.fsum(height_correction(alphas, d) * s * s)


def srm_eigenvalue(alpha, nu, N: int, d: int) -> float:
    """Eigenvalue of the summed-signal operator on the block labeled (alpha, nu).

    ``alpha`` has N-1 boxes, ``nu`` is ``alpha`` plus one box; both heights
    must fit in ``d``.
    """
    a, v = as_partition(alpha), as_partition(nu)
    if a.n != N - 1:
        raise ValueError(f"alpha must have {N - 1} boxes, got {a.n}")
    if a.height > d or v.height > d:
        raise ValueError("frame exceeds local dimension")
    if v not in add_box(a):
        raise ValueError(f"{v} is not obtained from {a} by adding one box")
    # one correctly rounded division of exact integers
    return N * mult_schur_weyl(v, d) * dim_irrep(a) / (d**N * mult_schur_weyl(a, d) * dim_irrep(v))


def povm_block_factor(alpha, N: int, d: int) -> float:
    """Unique nonzero eigenvalue of one SRM element on blocks labeled ``alpha``.

    Frames shorter than ``d`` give 1 (projector); frames of height ``d`` are
    damped by the over-height frame's dimension.
    """
    a = as_partition(alpha)
    if a.height > d:
        raise ValueError("frame exceeds local dimension")
    if a.n != N - 1:
        raise ValueError(f"alpha must have {N - 1} boxes, got {a.n}")
    d_th = theta_dim(a, d)
    if d_th == 0:
        return 1.0
    # exact rational -> nearest float, safe for huge dimensions
    return float(1 - Fraction(d_th, N * dim_irrep(a)))


def trace_sqrt_povm_signal(N: int, d: int) -> float:
    """Overlap trace between one SRM square root and its signal: d^N/N * sum_alpha c S^2.

    Raises OverflowError once the trace itself exceeds the float range.
    """
    _check_point(N, d)
    return d**N / N * _recycling_sum(N, d)


def frec(N: int, d: int) -> FidelityReport:
    """One-round recycling fidelity, arbitrary local dimension."""
    _check_point(N, d)
    value = _recycling_sum(N, d) / (d * math.sqrt(N))
    return FidelityReport(value=value, method="general", ports=N, dim=d)


def kround_lower_bound(f1: float, k: int) -> float:
    """Lower bound after k rounds: 1 - 2k(1 - f1), returned raw.

    A negative return signals a vacuous bound; it is intentionally not
    clamped.
    """
    if not 0.0 <= f1 <= 1.0:
        raise ValueError("one-round fidelity must lie in [0, 1]")
    if k < 1:
        raise ValueError("round count must be positive")
    return 1.0 - 2.0 * k * (1.0 - f1)
