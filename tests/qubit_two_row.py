"""The paper's two-row (qubit) closed forms, kept as independent cross-checks.

They use exact binomials of two-row frames (l = second-row length) and plain
floats, so they only reach N of a few hundred; the package evaluates the
same quantities through the general frame sum.
"""

import math
from math import comb, sqrt

from pbt_recycling.optimal import v_optimal


def _bracket(N: int, l: int) -> float:
    """sum over the one-box extensions of (N-1-l, l) of sqrt(mult * dim)."""
    b1 = (N - 2 * l + 1) * sqrt(comb(N + 1, l) / (N + 1))
    b2 = (N - 2 * l - 1) * sqrt(comb(N + 1, l + 1) / (N + 1)) if N - 2 * l - 1 > 0 else 0.0
    return b1 + b2


def trace_qubit(N: int) -> float:
    """Overlap trace sum_l sqrt((N+1-l)(l+1)/(N+1)) bracket^2 / N, l <= ceil(N/2 - 1)."""
    return math.fsum(
        sqrt((N + 1 - l) * (l + 1) / (N + 1)) * _bracket(N, l) ** 2 / N for l in range((N - 1) // 2 + 1)
    )


def frec_qubit(N: int) -> float:
    """Recycling fidelity sqrt(N)/2^(N+1) * trace_qubit(N)."""
    return sqrt(N) / 2 ** (N + 1) * trace_qubit(N)


def frec_optimal_qubit(N: int) -> float:
    """Optimal-protocol recycling fidelity with the analytic weights, 2^(-3/2) normalisation."""
    vN, vNm1 = v_optimal(N, 2), v_optimal(N - 1, 2)

    def v_of(vc, ports, l):
        # the frame (ports - l, l) is row l of the two-row frame table
        return vc.entries[l] if l <= ports // 2 else 0.0

    terms = []
    for l in range((N - 1) // 2 + 1):
        m_a = N - 2 * l
        d_a = comb(N - 1, l) - (comb(N - 1, l - 1) if l else 0)
        d_th = N * (N - l) * l * d_a // ((N + 1 - l) * (l + 1)) if l >= 1 else 0
        vsum = v_of(vN, N, l) + v_of(vN, N, l + 1)
        terms.append(v_of(vNm1, N - 1, l) * vsum / sqrt(m_a) * _bracket(N, l) / sqrt(N * d_a - d_th))
    return math.fsum(terms) / (2.0 * sqrt(2.0))
