import itertools
import tracemalloc
from fractions import Fraction
from math import sqrt

import numpy as np
import pytest
from exact_reference import add_box, dim_irrep, mult_schur_weyl, theta_dim
from group_average import group_average_projector
from hypothesis import given, settings
from hypothesis import strategies as st

from pbt_recycling import oracle
from pbt_recycling.optimal import VCoefficients, v_optimal
from pbt_recycling.oracle import (
    DimensionCapError,
    build_optimizing_operator,
    channel_fidelity_oracle,
    frec_optimal_oracle,
    frec_oracle,
    partial_transpose_last,
    permutation_operator,
    pinv_sqrt_psd,
    povm_spectrum_deviation,
    resource_fidelity_oracle,
    rho_operator,
    rho_spectrum_report,
    signal_state,
    sqrt_psd,
    srm_povm,
    transposition,
    verify_suite,
    young_projector,
)
from pbt_recycling.partitions import frame_table, partitions_bounded
from pbt_recycling.recycling import frec


def maximally_entangled_projector(d):
    v = np.zeros(d * d)
    v[:: d + 1] = 1.0 / sqrt(d)
    return np.outer(v, v)


def random_v(N, d, rng):
    w = rng.random(len(partitions_bounded(N, d))) + 0.05
    w /= np.linalg.norm(w)
    return VCoefficients(ports=N, dim=d, entries=w)


# -- permutation operators -----------------------------------------------------

def test_identity_permutation():
    op = permutation_operator((0, 1, 2), 2, 3)
    np.testing.assert_allclose(op, np.eye(8))


def test_swap_matrix():
    swap = permutation_operator(transposition(0, 1, 2), 2, 2)
    expected = np.zeros((4, 4))
    expected[0, 0] = expected[3, 3] = 1
    expected[1, 2] = expected[2, 1] = 1
    np.testing.assert_allclose(swap, expected)


@given(st.permutations(range(4)), st.permutations(range(4)))
@settings(max_examples=15)
def test_permutation_homomorphism(p, q):
    d = 2
    vp = permutation_operator(tuple(p), d, 4)
    vq = permutation_operator(tuple(q), d, 4)
    composed = tuple(p[q[k]] for k in range(4))
    vpq = permutation_operator(composed, d, 4)
    np.testing.assert_allclose(vp @ vq, vpq)


def test_permutation_cap():
    with pytest.raises(DimensionCapError, match="exceeds cap"):
        permutation_operator(tuple(range(20)), 2, 20)
    with pytest.raises(ValueError):
        permutation_operator((0, 0, 1), 2, 3)


# -- signals and their sum --------------------------------------------------------

def test_signal_trace_one():
    for d in (2, 3):
        for N in (1, 2, 3):
            for a in range(1, N + 1):
                sig = signal_state(a, N, d)
                assert np.trace(sig).real == pytest.approx(1.0, abs=1e-12)


def test_signal_single_port_is_entangled_projector():
    sig = signal_state(1, 1, 2)
    np.testing.assert_allclose(sig, maximally_entangled_projector(2), atol=1e-15)


def test_signal_covariance_under_port_swap():
    N, d, n = 3, 2, 4
    for a, b in [(1, 2), (2, 3), (1, 3)]:
        v = permutation_operator(transposition(a - 1, b - 1, n), d, n)
        lhs = v @ signal_state(a, N, d) @ v.T
        np.testing.assert_allclose(lhs, signal_state(b, N, d), atol=1e-13)


def test_signal_index_range():
    with pytest.raises(ValueError):
        signal_state(0, 2, 2)
    with pytest.raises(ValueError):
        signal_state(3, 2, 2)


def test_signal_equals_scaled_partial_transpose():
    for N, d in [(2, 2), (3, 2), (2, 3)]:
        n = N + 1
        swap = permutation_operator(transposition(N - 1, n - 1, n), d, n)
        v_prime = partial_transpose_last(swap, d, n)
        np.testing.assert_allclose(
            signal_state(N, N, d), v_prime / d**N, atol=1e-14
        )


def test_rho_basic():
    rho = rho_operator(2, 2)
    assert np.trace(rho).real == pytest.approx(2.0, abs=1e-12)
    w = np.sort(np.linalg.eigvalsh(rho))
    np.testing.assert_allclose(w, [0, 0, 0, 0, 0.25, 0.25, 0.75, 0.75], atol=1e-12)


def test_rho_commutes_with_port_permutations():
    N, d, n = 3, 2, 4
    rho = rho_operator(N, d)
    for perm in [(1, 0, 2, 3), (2, 0, 1, 3), (0, 2, 1, 3)]:
        v = permutation_operator(perm, d, n)
        np.testing.assert_allclose(v @ rho, rho @ v, atol=1e-13)


def test_rho_spectrum_report_fields():
    rep = rho_spectrum_report(2, 2)
    assert len(rep.eigenvalues) == 8
    assert rep.max_deviation <= 1e-12
    assert (0.75, 2) in rep.predicted and (0.25, 2) in rep.predicted


# -- spectral square roots ----------------------------------------------------------

def test_sqrt_psd_examples():
    np.testing.assert_allclose(sqrt_psd(np.eye(3)), np.eye(3))
    diag = np.diag([4.0, 0.0])
    np.testing.assert_allclose(sqrt_psd(diag), np.diag([2.0, 0.0]))
    np.testing.assert_allclose(pinv_sqrt_psd(diag), np.diag([0.5, 0.0]))


def test_sqrt_psd_squares_back():
    rho = rho_operator(3, 2)
    root = sqrt_psd(rho)
    np.testing.assert_allclose(root @ root, rho, atol=1e-10)


def test_sqrt_psd_rejects_negative():
    bad = np.diag([1.0, -1e-6])
    with pytest.raises(ValueError, match="not PSD"):
        sqrt_psd(bad)
    tiny = np.diag([1.0, -1e-12])
    np.testing.assert_allclose(sqrt_psd(tiny), np.diag([1.0, 0.0]), atol=1e-12)


def test_eigensolve_rejects_asymmetric():
    bad = np.array([[0.0, 1.0], [0.0, 0.0]])
    for spectral in (sqrt_psd, pinv_sqrt_psd):
        with pytest.raises(ValueError, match="not symmetric"):
            spectral(bad)
        with pytest.raises(ValueError):
            spectral(np.zeros((2, 3)))


# -- the square-root measurement -----------------------------------------------------

def test_povm_traces_and_completeness():
    for N, d in [(2, 2), (3, 2), (2, 3)]:
        total = np.zeros((d ** (N + 1), d ** (N + 1)), dtype=complex)
        for a in range(1, N + 1):
            _, _, completed = srm_povm(a, N, d)
            assert np.trace(completed).real == pytest.approx(
                d ** (N + 1) / N, abs=1e-10
            )
            total += completed
        np.testing.assert_allclose(total, np.eye(d ** (N + 1)), atol=1e-10)


def test_povm_spectrum_small():
    # nonzero eigenvalues at (3,2) are exactly {2/3, 1}
    bare, _, _ = srm_povm(3, 3, 2)
    w = np.linalg.eigvalsh(bare)
    allowed = {0.0, 2.0 / 3.0, 1.0}
    assert all(min(abs(x - a) for a in allowed) < 1e-10 for x in w)
    assert povm_spectrum_deviation(3, 2) <= 1e-10
    assert set(oracle._povm_block_factors(3, 2)) == {1.0, 2.0 / 3.0}


def _admissible_points():
    """Every (N, d), d >= 2, whose measurement bundle the byte budget admits."""
    points = []
    for d in itertools.count(2):
        for N in itertools.count(1):
            try:
                oracle._require(*oracle._srm_blocks(N, d))
            except DimensionCapError:
                break
            points.append((N, d))
        if N == 1:  # not even one port fits, nor at any larger d
            return points


def test_predictions_match_the_exact_reference_on_the_admissible_domain():
    # the int64 frame-table predictions against bigint dimensions, wherever a public call can reach them
    points = _admissible_points()
    assert len(points) == 104 and max(N for N, _ in points) == 10 and max(d for _, d in points) == 71
    for N, d in points:
        for n in (N - 1, N, N + 1):
            frames = partitions_bounded(n, d)
            dims, mults = oracle._dims_and_multiplicities(frame_table(n, d), d)
            assert dims.tolist() == [dim_irrep(p) for p in frames]
            assert mults.tolist() == [mult_schur_weyl(p, d) for p in frames]
        alphas = partitions_bounded(N - 1, d)
        expected = [
            # N m_nu d_alpha / (d^N m_alpha d_nu), one int/int division
            (N * mult_schur_weyl(nu, d) * dim_irrep(a) / (d**N * mult_schur_weyl(a, d) * dim_irrep(nu)),
             mult_schur_weyl(a, d) * dim_irrep(nu))
            for a in alphas for nu in add_box(a, d)
        ]
        expected.append((0.0, d ** (N + 1) - sum(m for _, m in expected)))
        assert oracle._rho_spectrum_prediction(N, d) == expected
        # 1 - d_theta/(N d_alpha), rounded once from the exact rational
        factors = [float(1 - Fraction(theta_dim(a, d), N * dim_irrep(a))) for a in alphas]
        assert oracle._povm_block_factors(N, d) == factors


def test_povm_projector_regime():
    # all bare elements are projectors once d is at least the port count
    for N, d in [(2, 3), (2, 4)]:
        bare, _, _ = srm_povm(N, N, d)
        w = np.linalg.eigvalsh(bare)
        assert all(min(abs(x), abs(x - 1.0)) < 1e-10 for x in w)


def test_excess_term_properties():
    for N, d in [(2, 2), (3, 2)]:
        _, excess, _ = srm_povm(N, N, d)
        np.testing.assert_allclose(excess @ excess, excess, atol=1e-10)
        for a in range(1, N + 1):
            assert np.abs(excess @ signal_state(a, N, d)).max() < 1e-10


# -- group-averaged projectors ----------------------------------------------------------

def test_young_projector_traces_n4():
    for mu in partitions_bounded(4, 4):
        p = young_projector(mu, 2)
        expected = dim_irrep(mu) * mult_schur_weyl(mu, 2)
        assert np.trace(p).real == pytest.approx(expected, abs=1e-10)


def test_young_projectors_orthogonal_idempotent():
    ps = [young_projector(mu, 2) for mu in partitions_bounded(3, 2)]
    for i, pi in enumerate(ps):
        np.testing.assert_allclose(pi @ pi, pi, atol=1e-12)
        for j, pj in enumerate(ps):
            if i != j:
                np.testing.assert_allclose(pi @ pj, np.zeros_like(pi), atol=1e-12)


def test_build_optimizing_operator_uniform_is_identity():
    for N, d in [(2, 2), (3, 2), (2, 3)]:
        o = build_optimizing_operator(N, d, VCoefficients.uniform(N, d))
        np.testing.assert_allclose(o, np.eye(d**N), atol=1e-10)


@pytest.mark.parametrize("N,d", [(2, 2), (3, 2), (4, 2), (5, 2), (2, 3), (3, 3), (2, 4)])
def test_optimizing_operator_is_the_weighted_projector_sum(N, d):
    frames = partitions_bounded(N, d)
    w = np.random.default_rng(N * 10 + d).uniform(0.25, 1.0, len(frames))
    w[1] = 0.0  # a zero weight drops its frame's block
    weight_sets = [v_optimal(N, d), VCoefficients(ports=N, dim=d, entries=w / np.linalg.norm(w))]
    for v in weight_sets:
        reference = sum(
            sqrt(d**N) * vm / sqrt(dim_irrep(mu) * mult_schur_weyl(mu, d)) * young_projector(mu, d)
            for mu, vm in zip(frames, v.entries)
        )
        np.testing.assert_allclose(build_optimizing_operator(N, d, v), reference, rtol=0, atol=1e-12)


def test_rotated_povm_trace_invariant():
    # conjugating the completed elements by the rotation preserves their trace
    for N, d in [(2, 2), (3, 2)]:
        o = build_optimizing_operator(N, d, v_optimal(N, d))
        o_full = np.kron(o, np.eye(d))
        for a in range(1, N + 1):
            _, _, completed = srm_povm(a, N, d)
            got = np.trace(o_full.conj().T @ completed @ o_full).real
            assert got == pytest.approx(d ** (N + 1) / N, abs=1e-10)


@pytest.mark.parametrize(
    "n,d", [(n, d) for d in range(1, 7) for n in range(1, 7) if d**n <= 729]
)
def test_young_projectors_match_group_average(n, d):
    for mu in partitions_bounded(n, n):
        reference = group_average_projector(mu, d)
        np.testing.assert_allclose(young_projector(mu, d), reference, rtol=0, atol=1e-12)


def test_young_projectors_check_the_content_prediction(monkeypatch):
    # predicting e(mu) from the negated contents, those of mu's conjugate, must fail the check
    real = oracle._box_grid

    def conjugate_contents(table):
        inside, contents, hooks = real(table)
        return inside, -contents, hooks

    monkeypatch.setattr(oracle, "_box_grid", conjugate_contents)
    oracle._young_projectors.cache_clear()
    with pytest.raises(RuntimeError, match="content prediction"):
        oracle._young_projectors(3, 2)


@pytest.mark.parametrize("n", [9, 10])
def test_young_projectors_beyond_eight_boxes(n):
    frames = partitions_bounded(n, 2)
    ps = [young_projector(mu, 2) for mu in frames]
    for mu, p in zip(frames, ps):
        assert np.trace(p) == pytest.approx(dim_irrep(mu) * mult_schur_weyl(mu, 2), abs=1e-9)
    np.testing.assert_allclose(sum(ps), np.eye(2**n), rtol=0, atol=1e-12)
    for i, j in itertools.combinations(range(len(ps)), 2):
        np.testing.assert_allclose(ps[i] @ ps[j], 0.0, rtol=0, atol=1e-12)


def test_young_projector_frame_arguments():
    for parts, error, text in [
        ((1, 2), ValueError, "weakly decreasing"), ((2, 0), ValueError, "positive"), ((2.5,), TypeError, "integers"),
    ]:
        with pytest.raises(error, match=f"partition parts must be {text}"):
            young_projector(parts, 2)
    # any sequence of parts; a frame taller than d has no block on (C^d)^(x)n
    np.testing.assert_allclose(young_projector([2, 1], 2), young_projector((2, 1), 2), rtol=0, atol=0)
    assert np.array_equal(young_projector((1, 1, 1), 2), np.zeros((8, 8)))
    assert np.array_equal(young_projector(np.array([2, 1, 1, 1]), 3), np.zeros((243, 243)))


def test_projector_byte_budget():
    # the Young eigenbasis of 8 boxes at d = 3 counts 5 dense 6561^2 arrays, about 1.7 GB
    with pytest.raises(DimensionCapError, match="budget"):
        young_projector((8,), 3)


# -- oracle fidelities ---------------------------------------------------------------------

def test_frec_oracle_single_port():
    assert frec_oracle(1, 2).value == pytest.approx(0.5, abs=1e-12)


@pytest.mark.parametrize("N,d", [(2, 2), (3, 2), (2, 3)])
def test_frec_oracle_matches_closed_form(N, d):
    assert frec_oracle(N, d).value == pytest.approx(frec(N, d).value, abs=1e-11)


def test_frec_optimal_oracle_uniform_reduces(pinned):
    for N, d in [(2, 2), (3, 2), (2, 3)]:
        got = frec_optimal_oracle(
            N, d, VCoefficients.uniform(N, d), VCoefficients.uniform(N - 1, d)
        ).value
        assert got == pytest.approx(frec_oracle(N, d).value, abs=1e-10)
    assert frec_optimal_oracle(2, 2, v_optimal(2, 2), v_optimal(1, 2)).value == pytest.approx(
        pinned["frec_optimal_oracle/N=2,d=2"], abs=1e-12
    )


@pytest.mark.parametrize("N,d", [(2, 2), (3, 2), (4, 2), (5, 2), (2, 3), (3, 3), (2, 4)])
@pytest.mark.parametrize("weights", ["optimal", "random"])
def test_rotated_signals_share_the_plain_measurement(N, d, weights):
    # O (x) 1 commutes with rho, so whitening the rotated signals undoes the rotation
    if weights == "optimal":
        v = v_optimal(N, d)
    else:
        w = np.random.default_rng(N * 10 + d).uniform(0.25, 1.0, len(partitions_bounded(N, d)))
        v = VCoefficients(ports=N, dim=d, entries=w / np.linalg.norm(w))
    o = np.kron(build_optimizing_operator(N, d, v), np.eye(d))
    rho = rho_operator(N, d)
    assert np.abs(o @ rho - rho @ o).max() <= 1e-12
    whiten = pinv_sqrt_psd(o @ rho @ o.T)
    for a in range(1, N + 1):
        rotated = whiten @ o @ signal_state(a, N, d) @ o.T @ whiten
        assert np.abs(rotated - srm_povm(a, N, d)[0]).max() <= 1e-12


def test_frec_optimal_oracle_beyond_eight_ports():
    from pbt_recycling.optimal import frec_optimal

    vN, vNm1 = v_optimal(9, 2), v_optimal(8, 2)
    oracle = frec_optimal_oracle(9, 2, vN, vNm1).value
    assert oracle == pytest.approx(frec_optimal(9, 2, vN, vNm1).value, abs=1e-12)


def test_frec_optimal_oracle_vfile_case(vcoeff_path):
    from pbt_recycling.optimal import frec_optimal, parse_v_coefficients

    v3 = parse_v_coefficients(vcoeff_path(3, 3).read_text())
    v2 = parse_v_coefficients(vcoeff_path(2, 3).read_text())
    oracle = frec_optimal_oracle(3, 3, v3, v2).value
    formula = frec_optimal(3, 3, v3, v2).value
    assert oracle == pytest.approx(formula, abs=1e-11)


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=8)
def test_random_weights_formula_matches_oracle(seed):
    from pbt_recycling.optimal import frec_optimal

    rng = np.random.default_rng(seed)
    for N, d in [(2, 2), (3, 2), (2, 3)]:
        v_n = random_v(N, d, rng)
        v_prev = random_v(N - 1, d, rng)
        oracle = frec_optimal_oracle(N, d, v_n, v_prev).value
        formula = frec_optimal(N, d, v_n, v_prev).value
        assert oracle == pytest.approx(formula, abs=1e-10)


def test_channel_fidelity_examples():
    assert channel_fidelity_oracle(1, 2) == pytest.approx(0.25, abs=1e-12)
    values = [channel_fidelity_oracle(N, 2) for N in range(1, 6)]
    assert all(b > a for a, b in zip(values, values[1:]))
    rot = build_optimizing_operator(3, 2, v_optimal(3, 2))
    assert channel_fidelity_oracle(3, 2, rotation=rot) > channel_fidelity_oracle(3, 2)


def test_resource_fidelity_oracle(pinned):
    assert resource_fidelity_oracle(3, 3, VCoefficients.uniform(3, 3)) == pytest.approx(
        1.0, abs=1e-12
    )
    got = resource_fidelity_oracle(6, 2, v_optimal(6, 2))
    assert got == pytest.approx(pinned["resource_fidelity_oracle/N=6,d=2"], abs=1e-12)
    from pbt_recycling.optimal import resource_state_fidelity

    for N in range(1, 7):
        closed = resource_state_fidelity(N, 2, v_optimal(N, 2)).value
        assert resource_fidelity_oracle(N, 2, v_optimal(N, 2)) == pytest.approx(closed, abs=1e-11)


# -- the verification suite ----------------------------------------------------------------

@pytest.mark.parametrize("N,d", [(2, 2), (3, 2), (5, 2), (7, 2), (8, 2), (2, 3), (4, 3), (3, 4)])
def test_verify_suite_passes(N, d):
    report = verify_suite(N, d, tol=1e-9)
    failing = [c.name for c in report.checks if not c.passed]
    assert report.all_passed, failing


def _all_permutation_covariance(N, d, sigs, completed):
    """Largest deviation of V^T X_b V from X_a, b the image of port a, over all N! permutations."""
    dev = 0.0
    for perm in itertools.permutations(range(N)):
        V = permutation_operator(perm + (N,), d, N + 1)
        for a, b in enumerate(perm):
            for x in (sigs, completed):
                dev = max(dev, np.abs(x[a] - V.T @ x[b] @ V).max())
    return dev


@pytest.mark.parametrize("n,d", [(3, 2), (5, 2), (3, 3), (4, 3), (3, 4)])
def test_swap_deviation_conjugates_by_the_transposition(n, d):
    rng = np.random.default_rng(n * 10 + d)
    x, y = rng.standard_normal((2, d**n, d**n))
    for i in range(n - 1):
        V = permutation_operator(transposition(i, i + 1, n), d, n)
        assert oracle._swap_deviation(x, y, i, d, n) == np.abs(x - V @ y @ V.T).max()


@pytest.mark.parametrize("N,d", [(4, 2), (3, 3)])
@pytest.mark.parametrize("perturbation", ["none", "one", "graded"])
def test_covariance_bound_covers_every_permutation(monkeypatch, N, d, perturbation):
    pis, delta, root, rho_eig, gram_eig = oracle._srm_bundle(N, d)
    if perturbation == "one":
        # a random symmetric perturbation of size 1e-7 on the first bare element
        e = np.random.default_rng(3).standard_normal(pis[0].shape)
        e += e.T
        pis = (pis[0] + 1e-7 / np.abs(e).max() * e, *pis[1:])
    elif perturbation == "graded":
        # a * 1e-7 * identity on element a: each generator moves it by 1e-7,
        # the cycle taking port 1 to port N by (N - 1) * 1e-7
        pis = tuple(pi + a * 1e-7 * np.eye(len(pi)) for a, pi in enumerate(pis))
    monkeypatch.setattr(oracle, "_srm_bundle", lambda *point: (pis, delta, root, rho_eig, gram_eig))
    check = {c.name: c for c in verify_suite(N, d, tol=1e-9).checks}["signal_and_povm_covariance"]
    sigs = [signal_state(a, N, d) for a in range(1, N + 1)]
    brute = _all_permutation_covariance(N, d, sigs, [pi + delta / N for pi in pis])
    assert check.max_deviation >= brute
    assert check.passed is (perturbation == "none")
    if perturbation != "none":
        assert brute > 1e-8


@pytest.mark.parametrize("N,d", [(2, 2), (3, 2), (4, 2), (5, 2), (2, 3), (3, 3), (2, 4)])
def test_completed_root_gives_the_bare_root_trace(N, d):
    # sqrt(pi_N + delta/N) = sqrt(pi_N) + delta/sqrt(N), and delta is orthogonal to v' = d^N sigma_N
    n = N + 1
    v_prime = partial_transpose_last(permutation_operator(transposition(N - 1, n - 1, n), d, n), d, n)
    bare_root = sqrt_psd(srm_povm(N, N, d)[0])
    completed_root = oracle._srm_bundle(N, d)[2]
    assert np.vdot(completed_root, v_prime) == pytest.approx(np.vdot(bare_root, v_prime), rel=0, abs=1e-12)


#: (N, d) points where the factored measurement is checked against dense eigensolves.
FACTOR_GRID = [(N, 2) for N in range(2, 8)] + [(N, 3) for N in range(2, 5)] + [(2, 4), (3, 4), (2, 5), (2, 6)]


@pytest.mark.parametrize("N,d", FACTOR_GRID)
def test_factored_root_matches_the_dense_root(N, d):
    # sqrt(Y Y^T) = Y (Y^T Y)^(-1/2) Y^T, completed by delta / sqrt(N) on ker rho
    dense = sqrt_psd(srm_povm(N, N, d)[2])
    assert np.abs(oracle._srm_bundle(N, d)[2] - dense).max() <= 1e-12


@pytest.mark.parametrize("N,d", FACTOR_GRID)
def test_bundle_keeps_the_spectrum_of_rho(N, d):
    rho_eigenvalues = oracle._srm_bundle(N, d)[3]
    assert np.abs(rho_eigenvalues - np.linalg.eigvalsh(rho_operator(N, d))).max() <= 1e-13


@pytest.mark.parametrize("N,d", [(3, 2), (2, 3), (4, 2)])
@pytest.mark.parametrize("index,name", [(3, "rho_spectrum"), (4, "povm_spectrum")])
def test_spectral_checks_catch_a_moved_eigenvalue(monkeypatch, N, d, index, name):
    # the spectral checks read the bundle's eigenvalues: moving one by 1e-6 must fail its check only
    bundle = list(oracle._srm_bundle(N, d))
    moved = bundle[index].copy()
    moved[len(moved) // 2] += 1e-6
    bundle[index] = moved
    monkeypatch.setattr(oracle, "_srm_bundle", lambda *point: tuple(bundle))
    failing = [c.name for c in verify_suite(N, d, tol=1e-9).checks if not c.passed]
    assert failing == [name]


@pytest.mark.parametrize("N,d", [(3, 2), (2, 3)])
def test_excess_signal_orthogonal_matches_the_dense_product(monkeypatch, N, d):
    # the check gathers delta's columns; a perturbed excess must read as max |delta sigma_s|
    pis, delta, *spectra = oracle._srm_bundle(N, d)
    e = np.random.default_rng(N * 10 + d).standard_normal(delta.shape)
    delta = delta + 1e-6 * (e + e.T)
    monkeypatch.setattr(oracle, "_srm_bundle", lambda *point: (pis, delta, *spectra))
    check = {c.name: c for c in verify_suite(N, d, tol=1e-9).checks}["excess_signal_orthogonal"]
    dense = max(np.abs(delta @ signal_state(a, N, d)).max() for a in range(1, N + 1))
    assert check.max_deviation == pytest.approx(dense, rel=1e-12)
    assert not check.passed


def test_singular_gram_matrix_raises(monkeypatch):
    # a zero eigenvalue of port N's r x r Gram matrix has no inverse fourth root
    eigh = oracle._eigh

    def flatten_gram(m, vectors=True):
        w, u = eigh(m, vectors)
        return (np.zeros_like(w), u) if len(m) == 2**2 else (w, u)

    monkeypatch.setattr(oracle, "_eigh", flatten_gram)
    oracle._srm_bundle.cache_clear()
    with pytest.raises(RuntimeError, match="singular"):
        oracle._srm_bundle(3, 2)


def test_oracle_cap_errors(monkeypatch):
    with pytest.raises(DimensionCapError):
        frec_oracle(20, 2)
    # rho at (2, 2) is one dense 8 x 8 array of 512 bytes
    monkeypatch.setattr(oracle, "ORACLE_BYTE_BUDGET", 511)
    with pytest.raises(DimensionCapError, match="budget"):
        rho_operator(2, 2)
    monkeypatch.setattr(oracle, "ORACLE_BYTE_BUDGET", 512)
    assert rho_operator(2, 2).shape == (8, 8)


# -- float64 arrays, read-only caches and the byte budget ------------------------------------

def test_operators_are_float64():
    N, d = 3, 2
    rho = rho_operator(N, d)
    ops = [
        permutation_operator((1, 0, 2, 3), d, 4),
        signal_state(1, N, d),
        rho,
        *srm_povm(1, N, d),
        young_projector((2, 1), d),
        young_projector((1, 1, 1), d),  # taller than d: the zero operator
        build_optimizing_operator(N, d, v_optimal(N, d)),
        sqrt_psd(rho),
        pinv_sqrt_psd(rho),
        partial_transpose_last(permutation_operator((0, 2, 1), d, 3), d, 3),
    ]
    assert [op.dtype for op in ops] == [np.float64] * len(ops)


def test_cached_arrays_are_read_only():
    bare, excess, completed = srm_povm(2, 2, 2)
    _, u, labels = oracle._young_projectors(2, 2)
    for cached in (bare, excess, u, labels):
        with pytest.raises(ValueError, match="read-only"):
            cached[:] = 0
    completed[:] = 0  # a fresh array, not a cache entry
    assert frec_oracle(2, 2).value == pytest.approx(frec(2, 2).value, abs=1e-11)
    assert verify_suite(2, 2).all_passed


def _traced(call):
    """(DimensionCapError raised or None, peak bytes traced) of one call on empty caches."""
    oracle._srm_bundle.cache_clear()
    oracle._young_projectors.cache_clear()
    tracemalloc.start()
    try:
        call()
        error = None
    except DimensionCapError as e:
        error = e
    finally:
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    return error, peak


#: Qubit weights of the calls below, solved before any tracing.
W = {N: v_optimal(N, 2) for N in (5, 6, 7)}

#: Calls whose dense arrays are 128 x 128 (128 KiB each): d^(N+1) = 128, or d^N = 128.
BUDGET_CALLS = {
    "verify_suite": lambda: verify_suite(6, 2, v=W[6]),
    "frec_oracle": lambda: frec_oracle(6, 2),
    "frec_optimal_oracle": lambda: frec_optimal_oracle(6, 2, W[6], W[5]),
    "channel_fidelity_oracle": lambda: channel_fidelity_oracle(6, 2),
    "resource_fidelity_oracle": lambda: resource_fidelity_oracle(7, 2, W[7]),
    "rho_spectrum_report": lambda: rho_spectrum_report(6, 2),
    "povm_spectrum_deviation": lambda: povm_spectrum_deviation(6, 2),
    "srm_povm": lambda: srm_povm(1, 6, 2),
    "young_projector": lambda: young_projector((4, 3), 2),
    "build_optimizing_operator": lambda: build_optimizing_operator(7, 2, W[7]),
    "signal_state": lambda: signal_state(1, 6, 2),
    "rho_operator": lambda: rho_operator(6, 2),
    "permutation_operator": lambda: permutation_operator(tuple(range(6, -1, -1)), 2, 7),
}


@pytest.mark.parametrize("name", ["verify_suite", "frec_oracle", "young_projector", "resource_fidelity_oracle"])
def test_budget_rejects_before_allocating(monkeypatch, name):
    W[6], v_optimal(7, 2)  # weights solved before tracing
    monkeypatch.setattr(oracle, "ORACLE_BYTE_BUDGET", 1 << 16)
    error, peak = _traced(BUDGET_CALLS[name])
    assert isinstance(error, DimensionCapError) and "budget" in str(error)
    assert peak < 1 << 14  # an eighth of one dense array


@pytest.mark.parametrize("name", sorted(BUDGET_CALLS))
def test_budget_counts_cover_traced_peak(monkeypatch, name):
    # a call's first check counts every dense array it holds at once; tracemalloc
    # sees every numpy allocation except LAPACK's workspace, which is counted too
    counted = []
    check = oracle._require

    def spy(*blocks):
        counted.append(sum(count * dim * dim * 8 for count, dim in blocks))
        check(*blocks)

    W[5], W[6], v_optimal(7, 2)
    monkeypatch.setattr(oracle, "_require", spy)
    error, peak = _traced(BUDGET_CALLS[name])
    assert error is None
    assert peak <= counted[0] + (1 << 16)  # digit tables and Python objects, under half an array


# -- the measurement checks, once per bundle build ---------------------------------------------

#: Checks that read no rotation weights; ``verify_suite`` computes them once per bundle build.
MEASUREMENT_CHECKS = (
    "povm_completeness", "excess_idempotent", "excess_signal_orthogonal",
    "signal_and_povm_covariance", "completed_trace", "rho_spectrum", "povm_spectrum",
    "signal_is_transposed_swap", "sqrt_povm_signal_trace",
)


def _deviations(report):
    return [(c.name, c.max_deviation, c.detail) for c in report.checks if c.name in MEASUREMENT_CHECKS]


@pytest.mark.parametrize("N,d", [(2, 2), (3, 2), (5, 2), (7, 2), (8, 2), (2, 3), (4, 3), (3, 4)])
def test_cached_measurement_checks_equal_fresh_ones(N, d):
    rng = np.random.default_rng(N * 10 + d)
    oracle._srm_bundle.cache_clear()
    assert oracle._MEASUREMENT_CHECKS == {}
    reports = [verify_suite(N, d, v=random_v(N, d, rng)) for _ in range(3)]
    assert oracle._MEASUREMENT_CHECKS[N, d][0] is oracle._srm_bundle(N, d)
    fresh = list(oracle._measurement_checks(N, d, oracle._srm_bundle(N, d)))
    assert [name for name, _, _ in fresh] == list(MEASUREMENT_CHECKS)
    for report in reports:
        assert report.all_passed
        assert _deviations(report) == fresh  # bit for bit: floats compare exactly


def test_check_cache_follows_the_bundle_memo():
    verify_suite(3, 2)
    assert (3, 2) in oracle._MEASUREMENT_CHECKS
    oracle._srm_bundle(2, 2)  # a build at another point drops the entry before it allocates
    assert list(oracle._MEASUREMENT_CHECKS) == [(2, 2)]
    bundle, deviations = oracle._MEASUREMENT_CHECKS[2, 2]
    assert bundle is oracle._srm_bundle(2, 2) and deviations is None
    oracle._srm_bundle.cache_clear()
    assert oracle._MEASUREMENT_CHECKS == {}


def test_check_cache_rechecks_a_substituted_bundle(monkeypatch):
    # measurement checks kept for the held bundle must not answer for another one at the same point
    assert verify_suite(3, 2).all_passed
    bundle = list(oracle._srm_bundle(3, 2))
    moved = bundle[3].copy()
    moved[len(moved) // 2] += 1e-6
    bundle[3] = moved
    monkeypatch.setattr(oracle, "_srm_bundle", lambda *point: tuple(bundle))
    failing = [c.name for c in verify_suite(3, 2, tol=1e-9).checks if not c.passed]
    assert failing == ["rho_spectrum"]
    monkeypatch.undo()
    assert verify_suite(3, 2).all_passed


# -- the rotation on port space ------------------------------------------------------------------

@pytest.mark.parametrize("n,d", [(1, 1), (3, 1), (1, 2), (4, 2), (6, 3), (9, 4)])
def test_embed_ports_operator_is_the_kronecker_product(n, d):
    o = np.random.default_rng(n * 10 + d).standard_normal((n, n))
    assert np.array_equal(oracle._embed_ports_operator(o, d), np.kron(o, np.eye(d)))


def _random_weights_with_a_zero(N, d, rng):
    w = rng.uniform(0.25, 1.0, len(partitions_bounded(N, d)))
    if len(w) > 1:
        w[-1] = 0.0
    return VCoefficients(ports=N, dim=d, entries=w / np.linalg.norm(w))


def _frec_optimal_dense(N, d, vN, vNm1):
    """sqrt(N)/d |tr(sigma_N root O Q^T)| with O Q^T the D x D product of the two embedded rotations."""
    root = oracle._srm_bundle(N, d)[2]
    o_full = np.kron(build_optimizing_operator(N, d, vN), np.eye(d))
    rotation = o_full @ np.kron(build_optimizing_operator(N - 1, d, vNm1), np.eye(d * d)).T
    return sqrt(N) / d * abs(np.vdot(root @ signal_state(N, N, d), rotation))


@pytest.mark.parametrize("N,d", FACTOR_GRID)
def test_port_space_rotation_matches_the_dense_product(N, d):
    rng = np.random.default_rng(N * 10 + d)
    for vN, vNm1 in [
        (v_optimal(N, d), v_optimal(N - 1, d)),
        (_random_weights_with_a_zero(N, d, rng), _random_weights_with_a_zero(N - 1, d, rng)),
    ]:
        got = frec_optimal_oracle(N, d, vN, vNm1).value
        assert got == pytest.approx(_frec_optimal_dense(N, d, vN, vNm1), rel=0, abs=1e-13)
