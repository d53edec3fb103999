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

Evaluation: ``partitions._frame_sums`` walks the frames of every N and sums
the nonnegative terms c p (S/sqrt(p))^2 per row.  The ``partitions`` module
docstring describes the walk's blocks, the held record of a point (so
``frec``, ``trace_sqrt_povm_signal`` and the optimal fidelity at one point
share one c and one S/sqrt(p)), its memo and the run sums, whose bits do not
depend on the blocks; ``partitions._Block`` computes the factors, each with
the bits of the frozen per-row kernel of the tests.  A term depends on its
own row and N only, so ``frec(N, d)`` has the same bits as the one-N case of
``frec_values``; a term that works on a held factor (the square of S/sqrt(p)
here) writes a fresh array.
"""

from __future__ import annotations

import math

import numpy as np

from .partitions import _Block, _frame_sums
from .reports import FidelityReport


def _check_point(N: int, d: int):
    if N < 1:
        raise ValueError("N must be positive")
    if d < 2:
        raise ValueError("d must be at least 2")


def s_over_sqrt_p(N: int | np.ndarray, alphas: np.ndarray) -> np.ndarray:
    """S(alpha)/sqrt(p(alpha)) per row of a frame table of N-1 boxes: sqrt(N/d) sum_i |R_i|/sqrt(l_i + 1).

    ``N`` is one port count or one per row.  With g_k = l_i - l_k,
    R_i = prod_{k != i} (g_k + 1) / prod_{k != i} g_k.  Each product is taken
    along k != i over the block's C-ordered (d, rows) shifted rows
    (``partitions._Block``), in k order; products of integers are exact
    below 2^53, and R_i is their quotient wherever both are finite.  A
    product has d - 1 factors of up to l_0 + 1, so it can leave the float
    range only in a block where (d - 1) log2(l_0 + 1) >= 1000 (every block
    from d = 142 on, since l_0 >= d - 1).  There, in a column where either
    product is not finite, |R_i| = exp sum_{k != i} log1p(1/g_k) instead, a
    moderate number: g_k = -1, where alpha + e_i is no frame, gives -inf
    there and so R_i = 0, as the product's exact 0 does elsewhere.  Any other
    block runs with numpy's floating-point warnings as the caller set them.
    """
    return _Block(alphas, N).s_over_sqrt_p


def height_correction(alphas: np.ndarray, d: int) -> np.ndarray:
    """c(alpha) per row: 1/sqrt(1 - prod_i h_i/(h_i+1)) at height d, else 1.

    The hooks h_i are the shifted rows l_i of a block
    (``partitions._Block``), and sum_i log1p(1/h_i) is taken down their
    columns in the order numpy sums a row (``partitions._row_order_sum``), so
    a row has the same bits in any table.  Below height d the last hook h is
    0, and 1/h = inf carries through to exactly 1.
    """
    if alphas.shape[1] != d:
        raise ValueError(f"frame table must have {d} columns")
    return _Block(alphas).c


def _recycling_terms(block) -> np.ndarray:
    """c(alpha) S(alpha)^2 per row of a ``partitions._Block`` of frames alpha of N-1 boxes, N its ports."""
    terms = np.exp(block.ln_p)  # p first: ln p's temporaries are freed before the shifted rows are built
    terms *= block.c
    terms *= np.multiply(block.s_over_sqrt_p, block.s_over_sqrt_p)  # a fresh square: the block's S/sqrt(p) is held
    return terms


def _recycling_sum(N: int, d: int) -> float:
    """sum_alpha c(alpha) S(alpha)^2 (``frec`` and the trace share it)."""
    return _frame_sums(N - 1, N - 1, d, _recycling_terms)[0]


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
    """``frec(N, d).value`` for N = n_min..n_max, bit for bit, one frame walk for all N."""
    _check_point(n_min, d)
    if n_max < n_min:
        return []
    sums = _frame_sums(n_min - 1, n_max - 1, d, _recycling_terms)
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
