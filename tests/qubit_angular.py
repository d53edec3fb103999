"""The paper's total-spin (angular-momentum) picture of the qubit rotation, kept as cross-checks.

A two-row frame (N - l, l) is the spin-j sector with j = N/2 - l.  The
optimal rotation weights and the resource-state overlap are written here in
that parametrization; the package evaluates the same quantities as frame sums.
"""

import math
from math import factorial, lgamma


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


def resource_state_fidelity_qubit_angular(N: int) -> float:
    """Overlap of the plain and optimally rotated resource states in the total-spin picture.

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
