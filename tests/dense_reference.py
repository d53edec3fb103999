"""Dense constructors that only the tests read, built on the oracle's own helpers.

Each is a whole d^n x d^n (or d^(N+1) x d^(N+1)) array, counted against
``oracle.ORACLE_BYTE_BUDGET`` before it is allocated, as the oracle's public
calls are.  The oracle itself works on packed blocks and needs none of them;
it sums rho packed, and a test holds that sum to ``rho_operator`` bit for bit.
"""

import numpy as np

from pbt_recycling import oracle
from pbt_recycling.partitions import frame_parts


def permutation_operator(perm, d: int, n: int) -> np.ndarray:
    """0/1 matrix permuting tensor factors by ``perm`` (0-based images).

    Factor ``k`` of the input becomes factor ``perm[k]`` of the output.
    """
    oracle._require((1, d**n))
    m = np.zeros((d**n, d**n))
    m[oracle._permuted_indices(perm, oracle._digits(d, n), d), np.arange(d**n)] = 1.0
    return m


def partial_transpose_last(op: np.ndarray, d: int, n: int) -> np.ndarray:
    """Transpose on the last tensor factor only."""
    t = np.swapaxes(op.reshape((d,) * (2 * n)), n - 1, 2 * n - 1)
    return t.reshape(d**n, d**n)


def _signal_sum(ports, N: int, d: int) -> np.ndarray:
    """Sum of the signal states of ``ports``, built entry by entry."""
    oracle._require((1, d ** (N + 1)))
    m = np.zeros((d ** (N + 1),) * 2)
    digits = oracle._digits(d, N + 1)
    for a in ports:
        # d^(1-N) Q_a Q_a^T is d^(-N) on every pair of indices in one column of Q_a
        cols = oracle._signal_columns(a, digits, d)
        m[cols[:, :, None], cols[:, None, :]] += 1.0 / d**N
    return m


def rho_operator(N: int, d: int) -> np.ndarray:
    """Sum of all signal states; the operator whose inverse root whitens them."""
    return _signal_sum(range(1, N + 1), N, d)


def signal_state(a: int, N: int, d: int) -> np.ndarray:
    """Reduced state flagging teleportation through port ``a`` (1-based).

    Maximally entangled projector between port ``a`` and the input system,
    maximally mixed elsewhere; unit trace.
    """
    if not 1 <= a <= N:
        raise ValueError(f"port index {a} out of range 1..{N}")
    return _signal_sum((a,), N, d)


def sqrt_psd(m: np.ndarray, tol: float = oracle.SUPPORT_TOL) -> np.ndarray:
    """Spectral square root with sub-threshold eigenvalues clamped to zero."""
    return oracle._psd_function([m], np.sqrt, tol)[0][0]


def pinv_sqrt_psd(m: np.ndarray, tol: float = oracle.SUPPORT_TOL) -> np.ndarray:
    """Inverse square root on the support; the kernel is left untouched."""
    return oracle._psd_function([m], lambda w: 1.0 / np.sqrt(w), tol)[0][0]


def young_projector(mu, d: int) -> np.ndarray:
    """Projector onto the isotypic block of frame ``mu`` in (C^d)^(x)n (zero when taller than d).

    The group average (d_mu / n!) sum_sigma chi_mu(sigma) V_sigma, built from
    box contents instead (see the oracle's docstring) as U_mu U_mu^T over the
    eigenvectors labelled mu, block by block on the port packing of the
    oracle's record at (|mu|, d), then unpacked into a fresh array.  ``mu`` is
    any parts ``frame_parts`` accepts.
    """
    p = frame_parts(mu)
    n = sum(p)
    if len(p) > d:
        oracle._require((1, d**n))
        return np.zeros((d**n, d**n))
    # the basis, then the packed projector's build and the dense projector
    oracle._require(*oracle._srm_blocks(n, d, ("young",), ports=3, dense=((1, d**n),)))
    packing, frames, u, labels = oracle._point(n, d).young
    row = frames.tolist().index(list(p) + [0] * (d - len(p)))
    return packing.unpack(packing.product(u * (labels == row), u))
