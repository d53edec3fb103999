"""The Schur-Weyl-probability kernel against exact integers and mpmath."""

import math

import mpmath
import numpy as np
import pytest
from exact_reference import add_box, dim_irrep, mult_schur_weyl, theta_dim

from pbt_recycling import partitions, recycling
from pbt_recycling.optimal import frec_optimal, one_box_ranks, resource_state_fidelity, v_optimal
from pbt_recycling.partitions import frame_table, ln_schur_weyl_probability, partitions_bounded
from pbt_recycling.recycling import frec, frec_values, s_over_sqrt_p

GRID = [(0, 2), (1, 2), (1, 3), (7, 3), (40, 2), (30, 4), (12, 6), (300, 2), (120, 3), (2000, 2)]


@pytest.mark.parametrize("n,d", GRID)
def test_frame_table_matches_partitions(n, d):
    table = frame_table(n, d)
    assert table.shape == (len(partitions_bounded(n, d)), d)
    assert [tuple(x for x in row if x) for row in table.tolist()] == partitions_bounded(n, d)


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


#: (N, d) for the one-box rank map and ratio: N = 1..30 at d = 2 down to 1..8 at d = 5.
ONE_BOX_GRID = [(N, d) for d, top in ((2, 30), (3, 15), (4, 10), (5, 8)) for N in range(1, top + 1)]


@pytest.mark.parametrize("N,d", ONE_BOX_GRID)
def test_one_box_ranks_match_brute_force(N, d):
    alphas, ranks = one_box_ranks(N, d)
    np.testing.assert_array_equal(alphas, frame_table(N - 1, d))
    frames = partitions_bounded(N, d)
    expected = np.full(alphas.shape, -1)
    for f, alpha in enumerate(partitions_bounded(N - 1, d)):
        for nu in add_box(alpha, d):
            row = next(i for i in range(d) if (nu + (0,) * d)[i] != (alpha + (0,) * d)[i])
            expected[f, row] = frames.index(nu)
    np.testing.assert_array_equal(ranks, expected)


@pytest.mark.parametrize("N,d", ONE_BOX_GRID)
def test_s_over_sqrt_p_matches_log_probabilities(N, d):
    # sum over the extensions nu of sqrt(p(nu)/p(alpha)), each ratio from the log kernel
    alphas = frame_table(N - 1, d)
    ln_p_alpha = ln_schur_weyl_probability(alphas, d)
    expected = []
    for alpha, ln_pa in zip(partitions_bounded(N - 1, d), ln_p_alpha):
        grown = add_box(alpha, d)
        ln_p_nu = ln_schur_weyl_probability(np.array([nu + (0,) * (d - len(nu)) for nu in grown]), d)
        expected.append(math.fsum(np.exp(0.5 * (ln_p_nu - ln_pa))))
    np.testing.assert_allclose(s_over_sqrt_p(N, alphas), expected, rtol=1e-13, atol=0)


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


# -- the saddle-point tables against entrywise evaluation -------------------------


def _ln_probability_entrywise(table, d):
    """ln p with Loader's terms evaluated on every table entry: the reference for the tables."""
    lam = np.asarray(table, dtype=np.int64)
    n = lam.sum(axis=1)
    g = partitions._ln_factorial_remainder(np.column_stack([n, lam]))
    i, j = np.nonzero(np.arange(d)[:, None] < np.arange(d))
    gap = j - i
    diff = lam[:, i] - lam[:, j] + gap
    return (
        g[:, 0]
        - g[:, 1:].sum(axis=1)
        - partitions._bd0(lam, n[:, None], d).sum(axis=1)
        + np.log(diff * diff / ((lam[:, i] + gap) * gap)).sum(axis=1)
    )


def _mixed_table():
    table, _ = partitions._frame_tables([5, 30, 2, 17, 17, 0, 40, 1], 4)
    return table[np.random.default_rng(7).permutation(len(table))]


@pytest.mark.parametrize(
    "table,d",
    [
        *[(partitions._frame_tables(range(41), d)[0], d) for d in range(1, 7)],
        (frame_table(1999, 3), 3),
        (frame_table(299, 4), 4),
        (frame_table(119, 5), 5),
        (_mixed_table(), 4),
        (np.zeros((0, 3), dtype=np.int64), 3),
    ],
    ids=[*(f"stacked-d{d}" for d in range(1, 7)), "1999-3", "299-4", "119-5", "shuffled", "empty"],
)
def test_tables_match_entrywise_evaluation_bit_for_bit(table, d):
    assert np.array_equal(ln_schur_weyl_probability(table, d), _ln_probability_entrywise(table, d))


def test_tables_stay_within_the_entry_count(monkeypatch):
    # Loader's terms are evaluated at most once per table entry on full frame tables of height >= 2
    evaluations = {}
    bd0, remainder = partitions._bd0, partitions._ln_factorial_remainder

    def bd0_spy(x, n, d):
        evaluations["bd0"] += np.broadcast(x, n).size
        return bd0(x, n, d)

    def remainder_spy(x):
        evaluations["remainder"] += np.size(x)
        return remainder(x)

    calls = []

    def kernel_spy(table, d):
        evaluations.update(bd0=0, remainder=0)
        out = ln_schur_weyl_probability(table, d)
        calls.append((np.size(table), dict(evaluations)))
        return out

    monkeypatch.setattr(partitions, "_bd0", bd0_spy)
    monkeypatch.setattr(partitions, "_ln_factorial_remainder", remainder_spy)
    monkeypatch.setattr(recycling, "ln_schur_weyl_probability", kernel_spy)
    kernel_spy(frame_table(1999, 3), 3)
    kernel_spy(partitions._frame_tables(range(1, 128), 2)[0], 2)
    frec_values(2, 90, 3)
    assert len(calls) > 3
    for entries, counts in calls:
        assert 0 < counts["bd0"] <= entries
        assert 0 < counts["remainder"] <= entries


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
    v_of = dict(zip(partitions_bounded(N, d), vN.entries.tolist()))
    total = mpmath.mpf(0)
    for alpha, v_alpha in zip(partitions_bounded(N - 1, d), vNm1.entries.tolist()):
        grown = add_box(alpha, d)
        s = mpmath.fsum(_mp_sqrt_md(nu, d) for nu in grown)
        big_v = mpmath.fsum(mpmath.mpf(v_of[mu]) for mu in grown)
        den = mult_schur_weyl(alpha, d) * (N * dim_irrep(alpha) - theta_dim(alpha, d))
        total += mpmath.mpf(v_alpha) * s * big_v / mpmath.sqrt(den)
    return total / mpmath.mpf(d) ** 1.5


def _mp_resource_fidelity(N, d, v):
    """sum_mu v_mu sqrt(d_mu m_mu / d^N)."""
    total = mpmath.fsum(
        mpmath.mpf(v_mu) * _mp_sqrt_md(mu, d) for mu, v_mu in zip(partitions_bounded(N, d), v.entries.tolist())
    )
    return total / mpmath.sqrt(mpmath.mpf(d) ** N)


def _rel(value, ref):
    return abs(mpmath.mpf(value) - ref) / abs(ref)


@pytest.mark.parametrize("N,d", [(2000, 2), (150, 3), (60, 4)])
def test_frec_matches_mpmath(N, d):
    with mpmath.workdps(40):
        assert _rel(frec(N, d).value, _mp_frec(N, d)) <= 1e-13


def test_optimal_and_resource_fidelity_match_mpmath():
    N = 2000
    vN, vNm1 = v_optimal(N, 2), v_optimal(N - 1, 2)
    with mpmath.workdps(40):
        assert _rel(frec_optimal(N, 2, vN, vNm1).value, _mp_frec_optimal(N, 2, vN, vNm1)) <= 1e-13
        assert _rel(resource_state_fidelity(N, 2, vN).value, _mp_resource_fidelity(N, 2, vN)) <= 1e-13


@pytest.mark.parametrize("N,d", [(545, 2), (1000, 2), (60, 3), (30, 4)])
def test_frec_optimal_within_a_few_ulp_of_mpmath(N, d):
    # the same float weights on both sides, so only the kernel's own rounding shows
    vN, vNm1 = v_optimal(N, d), v_optimal(N - 1, d)
    with mpmath.workdps(40):
        assert _rel(frec_optimal(N, d, vN, vNm1).value, _mp_frec_optimal(N, d, vN, vNm1)) <= 1e-15
