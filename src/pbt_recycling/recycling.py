"""Closed forms for the one-round recycling fidelity of deterministic PBT.

The resource state degrades when the sender's square-root measurement fires;
its overlap with the ideal post-teleportation state reduces to a sum over
Young frames alpha of N-1 boxes and height <= d.  Every term is written with
the Schur-Weyl probability p(lam) = m_lam d_lam / d^n of ``partitions``:

    F = 1/(d sqrt(N)) * sum_alpha c(alpha) S(alpha)^2,
    S(alpha) = sum over one-box extensions nu of alpha of sqrt(p(nu)),

where c(alpha) = 1/sqrt(1 - prod_i h_i/(h_i + 1)) when alpha has height d,
h_i being the first-column hook lengths of alpha, and c(alpha) = 1 otherwise.

Only the ratio S(alpha)/sqrt(p(alpha)) is needed, and the Weyl-dimension and
hook-length formulas give it exactly.  With the shifted rows
l_k = alpha_k + d - 1 - k (k = 0..d-1) and
R_i = prod_{k != i} (l_i + 1 - l_k)/(l_i - l_k),

    p(alpha + e_i)/p(alpha) = (N/d) R_i^2/(l_i + 1),
    S(alpha)/sqrt(p(alpha)) = sqrt(N/d) * sum_i |R_i|/sqrt(l_i + 1),

and R_i is exactly 0 where alpha + e_i is not a frame (alpha_{i-1} = alpha_i).
So F = 1/(d sqrt(N)) * sum_alpha c(alpha) p(alpha) (S/sqrt(p))^2 evaluates ln p
on the frames alpha only, never on their extensions.

This equals the exact-integer form F = sqrt(N)/d^(N+1) * T, with the overlap
trace T = sum_alpha k(alpha) s(alpha)^2 / N, s = sum_nu sqrt(m_nu d_nu) and
k = sqrt(N d_alpha / (N d_alpha - d_theta)) for the over-height frame
theta = alpha + (1,): s^2 = d^N S^2, and d_theta/(N d_alpha) is the hook
product above.  On the bare sum sum_alpha k s^2 (without the 1/N) the
normalisation is 1/(sqrt(N) d^(N+1)); sqrt(N)/d^(N+1) there would exceed 1
already at N = d = 2.  F = 1/d at N = 1, and the dense-matrix oracle
reproduces F.

Evaluation: the frames of consecutive N are stacked into blocks of at most
``_BLOCK_ROWS`` rows (one N with more frames is a block of its own), so a
sweep holds one block of frames at a time and pays numpy's fixed cost once
per block rather than once per N.  Each block takes one pass of ln p, c and
S/sqrt(p); ln p evaluates Loader's saddle-point terms once per (box count,
row length) of the block and gathers them onto the rows.  Each N's terms go
to one ``math.fsum`` as a list of Python floats.  Every term depends on its
own row and N only, and ``fsum`` rounds the exact sum once, so a value is
bit for bit the same whatever block it lands in: ``frec(N, d)`` is the
one-N case of ``frec_values``.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .partitions import (
    CACHE_CAPACITY,
    _frame_counts,
    _frame_tables,
    add_box,
    as_partition,
    dim_irrep,
    ln_schur_weyl_probability,
    theta_dim,
)
from .reports import FidelityReport


def _check_point(N: int, d: int):
    if N < 1:
        raise ValueError("N must be positive")
    if d < 2:
        raise ValueError("d must be at least 2")


def s_over_sqrt_p(N: int | np.ndarray, alphas: np.ndarray) -> np.ndarray:
    """S(alpha)/sqrt(p(alpha)) per row of a frame table of N-1 boxes: sqrt(N/d) sum_i |R_i|/sqrt(l_i + 1).

    ``N`` is one port count or one per row.
    """
    d = alphas.shape[1]
    l = (alphas + np.arange(d - 1, -1, -1)).astype(float)
    total = np.zeros(len(alphas))
    for i in range(d):
        # R_i as one division of two products of small integers, exact while they stay below 2^53
        num, den = np.ones(len(alphas)), np.ones(len(alphas))
        for k in range(d):
            if k != i:
                num *= l[:, i] + 1 - l[:, k]
                den *= l[:, i] - l[:, k]
        total += np.abs(num / den) / np.sqrt(l[:, i] + 1)
    return np.sqrt(np.asarray(N) / d) * total


def height_correction(alphas: np.ndarray, d: int) -> np.ndarray:
    """c(alpha) per row: 1/sqrt(1 - prod_i h_i/(h_i+1)) at height d, else 1."""
    c = np.ones(len(alphas))
    full = alphas[:, -1] > 0
    hooks = alphas[full] + np.arange(d - 1, -1, -1)
    c[full] = 1.0 / np.sqrt(-np.expm1(-np.log1p(1.0 / hooks).sum(axis=1)))
    return c


#: Rows of stacked frames per kernel pass of ``_recycling_sums``; one N with
#: more frames than this is a block of its own.
_BLOCK_ROWS = 4096


def _recycling_sums(n_min: int, n_max: int, d: int) -> list[float]:
    """sum_alpha c(alpha) S(alpha)^2 for N = n_min..n_max, one kernel pass per block of N."""
    counts = _frame_counts(n_max - 1, d)[n_min - 1:]
    sums = []
    start = n_min
    while start <= n_max:
        stop, rows = start, counts[start - n_min]
        while stop < n_max and rows + counts[stop + 1 - n_min] <= _BLOCK_ROWS:
            stop += 1
            rows += counts[stop - n_min]
        alphas, sizes = _frame_tables(range(start - 1, stop), d)
        ports = np.repeat(np.arange(start, stop + 1), sizes)
        p = np.exp(ln_schur_weyl_probability(alphas, d))
        terms = height_correction(alphas, d) * p * s_over_sqrt_p(ports, alphas) ** 2
        flat, ends = terms.tolist(), np.cumsum(sizes).tolist()
        sums += [math.fsum(flat[a:b]) for a, b in zip([0] + ends[:-1], ends)]
        start = stop + 1
    return sums


@lru_cache(maxsize=CACHE_CAPACITY)
def _recycling_sum(N: int, d: int) -> float:
    """sum_alpha c(alpha) S(alpha)^2 (``frec`` and the trace share it)."""
    return _recycling_sums(N, N, d)[0]


def srm_eigenvalue(alpha, nu, N: int, d: int) -> float:
    """Eigenvalue of the summed-signal operator on the block labeled (alpha, nu).

    ``alpha`` has N-1 boxes, ``nu`` is ``alpha`` plus one box; both heights
    must fit in ``d``.  The eigenvalue is N m_nu d_alpha / (d^N m_alpha d_nu)
    = (d + c)/d^N, with c = alpha_i - i the content of the box added in
    row i (0-based).
    """
    a, v = as_partition(alpha), as_partition(nu)
    if a.n != N - 1:
        raise ValueError(f"alpha must have {N - 1} boxes, got {a.n}")
    if a.height > d or v.height > d:
        raise ValueError("frame exceeds local dimension")
    if v not in add_box(a):
        raise ValueError(f"{v} is not obtained from {a} by adding one box")
    # nu's new box sits in row i, column nu_i - 1 = alpha_i (0-based)
    i = next(i for i, part in enumerate(v) if i == len(a) or part != a[i])
    return (d + v[i] - 1 - i) / d**N  # one correctly rounded division of exact integers


def povm_block_factor(alpha, N: int, d: int) -> float:
    """Unique nonzero eigenvalue of one SRM element on blocks labeled ``alpha``.

    Frames shorter than ``d`` give 1 (projector); frames of height ``d`` are
    damped by the over-height frame's dimension, to
    1 - d_theta/(N d_alpha) = 1 - prod_i h_i/(h_i + 1) = 1/c(alpha)^2, the
    first-column hook product of ``height_correction``.
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


def frec_values(n_min: int, n_max: int, d: int) -> list[float]:
    """``frec(N, d).value`` for N = n_min..n_max, bit for bit, from stacked frame blocks."""
    _check_point(n_min, d)
    if n_max < n_min:
        return []
    sums = _recycling_sums(n_min, n_max, d)
    return [s / (d * math.sqrt(N)) for N, s in zip(range(n_min, n_max + 1), sums)]


def lower_bound_qubit(N: int) -> float:
    """The reference curve 1 - 11/(4N) printed beside the qubit recycling fidelity.

    No derivation of it is recorded here; a test pins frec(N, 2) >= this
    value for N = 1..3000.
    """
    return 1.0 - 11.0 / (4.0 * N)


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
