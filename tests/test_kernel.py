"""The Schur-Weyl-probability kernel against exact integers and mpmath."""

import math

import mpmath
import numpy as np
import pytest

from pbt_recycling.optimal import frec_optimal, resource_state_fidelity, v_qubit
from pbt_recycling.partitions import (
    add_box,
    dim_irrep,
    frame_table,
    ln_schur_weyl_probability,
    mult_schur_weyl,
    partitions_bounded,
    theta_dim,
)
from pbt_recycling.recycling import frec

GRID = [(0, 2), (1, 2), (1, 3), (7, 3), (40, 2), (30, 4), (12, 6), (300, 2), (120, 3), (2000, 2)]


@pytest.mark.parametrize("n,d", GRID)
def test_frame_table_matches_partitions(n, d):
    table = frame_table(n, d)
    assert table.shape == (len(partitions_bounded(n, d)), d)
    assert [tuple(x for x in row if x) for row in table.tolist()] == [
        p.parts for p in partitions_bounded(n, d)
    ]


@pytest.mark.parametrize("n,d", GRID)
def test_ln_probability_matches_exact_integers(n, d):
    ln_p = ln_schur_weyl_probability(frame_table(n, d), d)
    exact = np.array([
        math.log(mult_schur_weyl(p, d) * dim_irrep(p)) - n * math.log(d)
        for p in partitions_bounded(n, d)
    ])
    assert np.all(np.abs(ln_p - exact) <= 1e-13 * np.maximum(1.0, np.abs(exact)))
    # Schur-Weyl duality: the weights of all frames sum to 1
    assert math.fsum(np.exp(ln_p)) == pytest.approx(1.0, abs=1e-14)


def test_ln_probability_mixed_box_counts():
    table = np.array([[0, 0, 0], [1, 0, 0], [2, 1, 0], [1, 1, 1]])
    expected = [0.0, 0.0, math.log(16 / 27), math.log(1 / 27)]
    np.testing.assert_allclose(ln_schur_weyl_probability(table, 3), expected, atol=1e-15)
    with pytest.raises(ValueError, match="columns"):
        ln_schur_weyl_probability(table, 2)
    with pytest.raises(ValueError, match="weakly decreasing"):
        ln_schur_weyl_probability(np.array([[1, 2, 0]]), 3)
    with pytest.raises(ValueError, match="weakly decreasing"):
        ln_schur_weyl_probability(np.array([[2, 0, -1]]), 3)


# -- mpmath references on the exact-integer forms ---------------------------------


def _mp_sqrt_md(nu, d):
    return mpmath.sqrt(mpmath.mpf(mult_schur_weyl(nu, d) * dim_irrep(nu)))


def _mp_frec(N, d):
    """sqrt(N)/d^(N+1) * sum_alpha k(alpha) s(alpha)^2 / N, exact integers throughout."""
    total = mpmath.mpf(0)
    for alpha in partitions_bounded(N - 1, d):
        s = mpmath.fsum(_mp_sqrt_md(nu, d) for nu in add_box(alpha, d))
        d_a = dim_irrep(alpha)
        total += s * s / N * mpmath.sqrt(mpmath.mpf(N * d_a) / (N * d_a - theta_dim(alpha, d)))
    return mpmath.sqrt(N) / mpmath.mpf(d) ** (N + 1) * total


def _mp_frec_optimal(N, d, vN, vNm1):
    """d^(-3/2) sum_alpha v_alpha s(alpha) V(alpha) / sqrt(m_alpha (N d_alpha - d_theta))."""
    total = mpmath.mpf(0)
    for alpha in partitions_bounded(N - 1, d):
        grown = add_box(alpha, d)
        s = mpmath.fsum(_mp_sqrt_md(nu, d) for nu in grown)
        big_v = mpmath.fsum(mpmath.mpf(vN[mu]) for mu in grown)
        den = mult_schur_weyl(alpha, d) * (N * dim_irrep(alpha) - theta_dim(alpha, d))
        total += mpmath.mpf(vNm1[alpha]) * s * big_v / mpmath.sqrt(den)
    return total / mpmath.mpf(d) ** 1.5


def _mp_resource_fidelity(N, d, v):
    """sum_mu v_mu sqrt(d_mu m_mu / d^N)."""
    total = mpmath.fsum(mpmath.mpf(v[mu]) * _mp_sqrt_md(mu, d) for mu in partitions_bounded(N, d))
    return total / mpmath.sqrt(mpmath.mpf(d) ** N)


def _rel(value, ref):
    return abs(mpmath.mpf(value) - ref) / abs(ref)


@pytest.mark.parametrize("N,d", [(2000, 2), (150, 3), (60, 4)])
def test_frec_matches_mpmath(N, d):
    with mpmath.workdps(40):
        assert _rel(frec(N, d).value, _mp_frec(N, d)) <= 1e-13


def test_optimal_and_resource_fidelity_match_mpmath():
    N = 2000
    vN, vNm1 = v_qubit(N), v_qubit(N - 1)
    with mpmath.workdps(40):
        assert _rel(frec_optimal(N, 2, vN, vNm1).value, _mp_frec_optimal(N, 2, vN, vNm1)) <= 1e-13
        assert _rel(resource_state_fidelity(N, 2, vN).value, _mp_resource_fidelity(N, 2, vN)) <= 1e-13
