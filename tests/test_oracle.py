import itertools
import re
import tracemalloc
import weakref
from fractions import Fraction
from math import comb, sqrt

import numpy as np
import pytest
from dense_reference import (
    partial_transpose_last,
    permutation_operator,
    pinv_sqrt_psd,
    rho_operator,
    signal_state,
    sqrt_psd,
    young_projector,
)
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
    povm_spectrum_deviation,
    resource_fidelity_oracle,
    rho_spectrum_report,
    srm_povm,
    transposition,
    verify_suite,
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


@pytest.mark.parametrize("N,d", [(0, 2), (-1, 2), (2, 1), (0, 0)])
def test_oracle_entry_points_check_the_point(N, d):
    # every entry point taking (N, d) rejects a bad point as the closed form does
    with pytest.raises(ValueError) as closed_form:
        frec(N, d)
    for call in (
        lambda: srm_povm(1, N, d),
        lambda: frec_oracle(N, d),
        lambda: verify_suite(N, d),
        lambda: rho_spectrum_report(N, d),
        lambda: povm_spectrum_deviation(N, d),
        lambda: channel_fidelity_oracle(N, d),
    ):
        with pytest.raises(ValueError, match=f"^{re.escape(str(closed_form.value))}$"):
            call()


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
    assert isinstance(rep.eigenvalues, np.ndarray) and len(rep.eigenvalues) == 8
    assert not rep.eigenvalues.flags.writeable
    assert np.all(np.diff(rep.eigenvalues) >= 0)
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
                oracle._require(*oracle._srm_blocks(N, d, oracle._MEASURED))
            except DimensionCapError:
                break
            points.append((N, d))
        if N == 1:  # not even one port fits, nor at any larger d
            return points


def test_predictions_match_the_exact_reference_on_the_admissible_domain():
    # the int64 frame-table predictions against bigint dimensions, wherever a public call can reach them
    points = _admissible_points()
    assert len(points) == 2489 and max(N for N, _ in points) == 11 and max(d for _, d in points) == 2317
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
    with pytest.raises(RuntimeError, match="content prediction"):
        oracle._young_basis(oracle._digits(2, 3), 2)


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
    # the dense projector of 9 boxes at d = 3 is one 19683^2 array, about 3.1 GB
    with pytest.raises(DimensionCapError, match="budget"):
        young_projector((9,), 3)


@pytest.mark.parametrize("n", range(1, 13))
def test_port_weight_eigenbasis_labels_the_rank_of_each_frame(n):
    # at every d with d^n <= 4096: d_mu m_mu eigenvectors per frame, counted over every port-weight block
    for d in range(1, 4097):
        if d**n > 4096:
            break
        packing, frames, u, labels = oracle._young_basis(oracle._digits(d, n), d)
        dims, mults = oracle._dims_and_multiplicities(frames, d)
        assert np.bincount(labels[packing.diagonal], minlength=len(frames)).tolist() == (dims * mults).tolist()
        assert u.shape == labels.shape == (packing.size,)


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


def _block_perturbation(point, rng):
    """A random symmetric operator inside the record's torus blocks, packed."""
    e = rng.standard_normal((point.d ** (point.N + 1),) * 2)
    return point.packing.pack(e + e.T)


def _substituted(N, d, **fields):
    """A fresh record at (N, d) whose measurement is the held record's with ``fields`` replaced."""
    point = oracle._Point(N, d)
    point.measurement = oracle._point(N, d).measurement._replace(**fields)
    return point


def _all_permutation_covariance(N, d, sigs, completed):
    """Largest deviation of V^T X_b V from X_a, b the image of port a, over all N! permutations."""
    dev = 0.0
    for perm in itertools.permutations(range(N)):
        V = permutation_operator(perm + (N,), d, N + 1)
        for a, b in enumerate(perm):
            for x in (sigs, completed):
                dev = max(dev, np.abs(x[a] - V.T @ x[b] @ V).max())
    return dev


@pytest.mark.parametrize("N,d", [(3, 2), (5, 2), (3, 3), (4, 3), (3, 4)])
def test_swap_gather_conjugates_by_the_transposition(N, d):
    # a random block-diagonal X, packed: the gather of each adjacent port swap is V X V^T exactly
    packing = oracle._point(N, d).packing
    x = np.random.default_rng(N * 10 + d).standard_normal(packing.size)
    dense = packing.unpack(x)
    n = N + 1
    for i in range(N - 1):
        V = permutation_operator(transposition(i, i + 1, n), d, n)
        swapped = packing.unpack(x[oracle._swap_gather(packing, transposition(i, i + 1, n), oracle._digits(d, n), d)])
        assert np.array_equal(swapped, V @ dense @ V.T)


@pytest.mark.parametrize("N,d", [(4, 2), (3, 3)])
@pytest.mark.parametrize("perturbation", ["none", "one", "graded"])
def test_covariance_bound_covers_every_permutation(monkeypatch, N, d, perturbation):
    point = oracle._point(N, d)
    pis, delta = point.measurement.pis, point.measurement.delta
    if perturbation == "one":
        # a random symmetric perturbation of size 1e-7 on the first bare element, inside the torus blocks
        e = _block_perturbation(point, np.random.default_rng(3))
        pis = (pis[0] + 1e-7 / np.abs(e).max() * e, *pis[1:])
    elif perturbation == "graded":
        # a * 1e-7 * identity on element a: each generator moves it by 1e-7,
        # the cycle taking port 1 to port N by (N - 1) * 1e-7
        pis = tuple(pi + a * 1e-7 * point.packing.eye() for a, pi in enumerate(pis))
    substituted = _substituted(N, d, pis=pis)
    monkeypatch.setattr(oracle, "_point", lambda *point: substituted)
    check = {c.name: c for c in verify_suite(N, d, tol=1e-9).checks}["signal_and_povm_covariance"]
    sigs = [signal_state(a, N, d) for a in range(1, N + 1)]
    brute = _all_permutation_covariance(N, d, sigs, [point.packing.unpack(pi + delta / N) for pi in pis])
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
    point = oracle._point(N, d)
    completed_root = point.packing.unpack(point.measurement.root)
    assert np.vdot(completed_root, v_prime) == pytest.approx(np.vdot(bare_root, v_prime), rel=0, abs=1e-12)


#: (N, d) points where the factored measurement is checked against dense eigensolves.
FACTOR_GRID = [(N, 2) for N in range(2, 8)] + [(N, 3) for N in range(2, 5)] + [(2, 4), (3, 4), (2, 5), (2, 6)]


@pytest.mark.parametrize("N,d", FACTOR_GRID)
def test_factored_root_matches_the_dense_root(N, d):
    # sqrt(Y Y^T) = Y (Y^T Y)^(-1/2) Y^T, completed by delta / sqrt(N) on ker rho
    dense = sqrt_psd(srm_povm(N, N, d)[2])
    point = oracle._point(N, d)
    assert np.abs(point.packing.unpack(point.measurement.root) - dense).max() <= 1e-12
    # the record holds its operators packed, no D x D array
    packed = (*point.measurement.pis, point.measurement.delta, point.measurement.root)
    assert {x.shape for x in packed} == {(point.packing.size,)}


@pytest.mark.parametrize("N,d", FACTOR_GRID + [(8, 2), (5, 3)])
def test_bundle_keeps_the_spectrum_of_rho(N, d):
    rho_eigenvalues = oracle._point(N, d).measurement.rho_eigenvalues
    assert np.abs(rho_eigenvalues - np.linalg.eigvalsh(rho_operator(N, d))).max() <= 1e-13


@pytest.mark.parametrize(
    "N,d,zero",
    [
        (4, 3, [(6, 1, 1), (6, 4, 4), (3, 6, 6)]),
        (3, 4, [(12, 1, 1), (24, 3, 3), (4, 6, 6)]),
        (2, 6, [(30, 1, 1), (60, 2, 2)]),
    ],
)
def test_all_zero_stacks_of_rho_are_not_solved(monkeypatch, N, d, zero):
    # a torus weight with a -1 entry that no port digit can cancel has rho, so W, zero on its block
    packing = oracle._point(N, d).packing
    views = packing.views(packing.pack(rho_operator(N, d)))
    assert [m.shape for m in views if not np.any(m)] == zero
    solved = []
    eigh = oracle._eigh
    monkeypatch.setattr(oracle, "_eigh", lambda m: solved.append(m.shape) or eigh(m))
    whiten, spectrum = oracle._blocked_inverse_root(oracle._point(N, d))
    assert solved == [m.shape for m in views if np.any(m)]
    for m, w in zip(views, packing.views(whiten)):
        assert np.any(m) or not np.any(w)
    assert np.abs(spectrum - np.linalg.eigvalsh(rho_operator(N, d))).max() <= 1e-13


@pytest.mark.parametrize("N,d", [(1, 2), (3, 2), (6, 2), (2, 3), (4, 3), (3, 4), (2, 6)])
def test_torus_blocks_partition_the_basis_by_weight(N, d):
    digits = oracle._digits(d, N + 1)
    blocks = oracle._torus_blocks(digits)
    assert np.array_equal(np.sort(np.concatenate([b.ravel() for b in blocks])), np.arange(d ** (N + 1)))
    sizes = [b.shape[1] for b in blocks]
    assert sizes == sorted(set(sizes))
    seen = set()
    for b in blocks:
        for row in b.tolist():
            weights = {
                tuple(np.bincount(digits[index, :N], minlength=d) - np.eye(d, dtype=int)[digits[index, N]])
                for index in row
            }
            assert len(weights) == 1 and not weights & seen  # one weight per block, one block per weight
            seen |= weights
    # the budget counts a packed operator's entries from frame tables alone, on the port packing of N and
    # N + 1 ports, and on the torus blocks as many as on the port packing of N + 1
    for n in (N, N + 1):
        ports = oracle._point(n, d).young.packing
        assert oracle._packed_entries(n, d)[n] == sum(b.size * b.shape[1] for b in ports.blocks)
    assert oracle._packed_entries(N + 1, d)[N + 1] == sum(b.size * b.shape[1] for b in blocks)


def test_packed_entries_square_in_d():
    # squaring over the bits of d gives the values of the recurrence that adds one part at a time
    for d in [*range(1, 12), 100, 257, 2317]:
        s = [1] + [0] * 13
        for _ in range(d):
            s = [sum(comb(m, k) ** 2 * s[m - k] for k in range(m + 1)) for m in range(14)]
        assert oracle._packed_entries(13, d) == s


@pytest.mark.parametrize(
    "N,d", [(3, 2), (6, 2), (9, 2), (10, 2), (3, 3), (5, 3), (3, 4), (4, 4), (2, 6)]
)
def test_packed_rho_is_the_packed_dense_sum(N, d):
    # summed block by block, rho has the bits of the dense sum, and the dense sum has no entry off the blocks
    point = oracle._point(N, d)
    dense = rho_operator(N, d)
    packed = point.packing.pack(dense)
    assert np.array_equal(oracle._packed_signal(point, range(1, N + 1)), packed)
    assert np.count_nonzero(packed) == np.count_nonzero(dense)


def test_signal_column_across_blocks_raises(monkeypatch):
    # swapping the first nonzeros of Q_a's first and last columns puts each column in two blocks
    N, d = 3, 2
    columns = oracle._signal_columns
    checked, added = [], []

    def crossed(a, digits, d):
        checked.append(a)
        cols = columns(a, digits, d).copy()
        cols[0, 0], cols[-1, 0] = cols[-1, 0], cols[0, 0]
        return cols

    monkeypatch.setattr(oracle, "_signal_columns", crossed)
    monkeypatch.setattr(oracle, "_psd_function", lambda *args: added.append(args))
    oracle._point.cache_clear()
    with pytest.raises(RuntimeError, match="spans two torus-weight blocks"):
        oracle._point(N, d).measurement
    # port 1's check raised before rho was summed: no other port's columns were read, nothing was solved
    assert checked == [1] and added == []


@pytest.mark.parametrize("N,d", [(3, 2), (2, 3), (4, 2)])
@pytest.mark.parametrize("field,name", [("rho_eigenvalues", "rho_spectrum"), ("gram_eigenvalues", "povm_spectrum")])
def test_spectral_checks_catch_a_moved_eigenvalue(monkeypatch, N, d, field, name):
    # the spectral checks read the record's eigenvalues: moving one by 1e-6 must fail its check only
    moved = getattr(oracle._point(N, d).measurement, field).copy()
    moved[len(moved) // 2] += 1e-6
    substituted = _substituted(N, d, **{field: moved})
    monkeypatch.setattr(oracle, "_point", lambda *point: substituted)
    failing = [c.name for c in verify_suite(N, d, tol=1e-9).checks if not c.passed]
    assert failing == [name]


@pytest.mark.parametrize("N,d", [(3, 2), (2, 3)])
def test_excess_signal_orthogonal_matches_the_dense_product(monkeypatch, N, d):
    # the check gathers delta's columns; a perturbed excess must read as max |delta sigma_s|
    point = oracle._point(N, d)
    delta = point.measurement.delta + 1e-6 * _block_perturbation(point, np.random.default_rng(N * 10 + d))
    substituted = _substituted(N, d, delta=delta)
    monkeypatch.setattr(oracle, "_point", lambda *point: substituted)
    check = {c.name: c for c in verify_suite(N, d, tol=1e-9).checks}["excess_signal_orthogonal"]
    dense = max(np.abs(point.packing.unpack(delta) @ signal_state(a, N, d)).max() for a in range(1, N + 1))
    assert check.max_deviation == pytest.approx(dense, rel=1e-12)
    assert not check.passed


def test_transposed_swap_counts_a_nonzero_outside_the_blocks(monkeypatch):
    # exchanging the swap's images of the first and last basis states moves two nonzeros of v'
    # between blocks, where sigma_N is zero: the check must read at least d^(-N)
    N, d = 3, 2
    n = N + 1
    point = _substituted(N, d)
    permuted_indices = oracle._permuted_indices

    def exchanged(perm, digits, d):
        rows = permuted_indices(perm, digits, d)
        if tuple(perm) == transposition(N - 1, N, n):
            rows = rows.copy()
            rows[[0, -1]] = rows[[-1, 0]]
        return rows

    monkeypatch.setattr(oracle, "_permuted_indices", exchanged)
    deviations = {name: deviation for name, deviation, _ in point.checks}
    assert deviations["signal_is_transposed_swap"] >= 1 / d**N
    assert deviations["signal_and_povm_covariance"] <= 1e-12


def test_singular_gram_matrix_raises(monkeypatch):
    # a zero eigenvalue of port N's Gram matrix has no inverse fourth root; rho is solved before the flattening
    whitened = oracle._blocked_inverse_root(oracle._point(3, 2))
    eigh = oracle._eigh

    def flatten_gram(m):
        w, u = eigh(m)
        return np.zeros_like(w), u

    monkeypatch.setattr(oracle, "_blocked_inverse_root", lambda *point: whitened)
    monkeypatch.setattr(oracle, "_eigh", flatten_gram)
    oracle._point.cache_clear()
    with pytest.raises(RuntimeError, match="singular"):
        oracle._point(3, 2).measurement


def test_oracle_cap_errors(monkeypatch):
    with pytest.raises(DimensionCapError):
        frec_oracle(20, 2)
    # a numpy-integer N is counted exactly, not in wrapping int64
    with pytest.raises(DimensionCapError, match="budget"):
        oracle._require(*oracle._srm_blocks(np.int64(40), 2, oracle._MEASURED))
    with pytest.raises(DimensionCapError, match="budget"):
        frec_oracle(np.int64(40), 2)
    # nor are the dimensions it makes: 2**71 wraps to 0 in int64
    for N in (62, 63, 70):
        for call in (frec_oracle, verify_suite, channel_fidelity_oracle):
            with pytest.raises(DimensionCapError, match="budget"):
                call(np.int64(N), 2)
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
    frec_optimal_oracle(2, 2, v_optimal(2, 2), v_optimal(1, 2))  # builds both bases, root sigma_N and both gather pairs
    point = oracle._point(2, 2)
    measurement = point.measurement
    bases = [array for young in (point.young, point.prev_young) for array in (young.u, young.labels)]
    for cached in (
        *bases, *measurement.pis, measurement.delta, measurement.root,
        measurement.rho_eigenvalues, measurement.gram_eigenvalues, point.root_signal,
        *point.gather, *point.prev_gather, point.digit_table, *point.packing[1:-1],
    ):
        with pytest.raises(ValueError, match="read-only"):
            cached[:] = 0
    bare[:] = excess[:] = completed[:] = 0  # fresh arrays, unpacked from the record
    assert frec_oracle(2, 2).value == pytest.approx(frec(2, 2).value, abs=1e-11)
    assert verify_suite(2, 2).all_passed


def _clear_memos():
    """Drop the oracle's record, and all it holds, index tables included."""
    oracle._point.cache_clear()


def _traced(call):
    """(DimensionCapError raised or None, peak bytes traced) of one call on empty caches, index tables included."""
    _clear_memos()
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
W = {N: v_optimal(N, 2) for N in (5, 6, 7, 9, 11)}

#: Calls whose dense arrays are 128 x 128 (128 KiB each): d^(N+1) = 128, or d^N = 128.
BUDGET_CALLS = {
    "verify_suite": lambda: verify_suite(6, 2, v=W[6]),
    "verify_suite-optimal": lambda: verify_suite(6, 2, v=W[6], v_prev=W[5]),
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


#: One- and two-port calls: a packed operator has about 2 and 5 entries per basis index there,
#: so the per-index tables (digits, torus keys, the packing) are a large share of the count.
TABLE_CALLS = {
    "frec_oracle-1-64": lambda: frec_oracle(1, 64),
    "verify_suite-1-64": lambda: verify_suite(1, 64),
    "frec_oracle-2-16": lambda: frec_oracle(2, 16),
    "verify_suite-2-16": lambda: verify_suite(2, 16),
}


@pytest.mark.parametrize("name", ["verify_suite", "frec_oracle", "young_projector", "resource_fidelity_oracle"])
def test_budget_rejects_before_allocating(monkeypatch, name):
    W[6], v_optimal(7, 2)  # weights solved before tracing
    monkeypatch.setattr(oracle, "ORACLE_BYTE_BUDGET", 1 << 16)
    error, peak = _traced(BUDGET_CALLS[name])
    assert isinstance(error, DimensionCapError) and "budget" in str(error)
    assert peak < 1 << 14  # an eighth of one dense array


@pytest.mark.parametrize("name", sorted(BUDGET_CALLS) + sorted(TABLE_CALLS))
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
    error, peak = _traced({**BUDGET_CALLS, **TABLE_CALLS}[name])
    assert error is None
    assert peak <= counted[0] + (1 << 16)  # Python objects, under half of a 128 x 128 array
    if name in TABLE_CALLS:
        # a budget one byte short of the count rejects the call before it allocates
        monkeypatch.setattr(oracle, "ORACLE_BYTE_BUDGET", counted[0] - 1)
        error, peak = _traced(TABLE_CALLS[name])
        assert isinstance(error, DimensionCapError) and peak < 1 << 14


def test_verify_suite_counts_fit_the_budget_at_6_4_not_8_3(monkeypatch):
    # the first count of verify_suite with both weight sets, read before anything is allocated
    counted = []

    class Counted(Exception):
        pass

    def spy(*blocks):
        counted.append(oracle._nbytes(blocks))
        raise Counted

    monkeypatch.setattr(oracle, "_require", spy)
    for N, d in [(6, 4), (8, 3)]:
        with pytest.raises(Counted):
            verify_suite(N, d, v=VCoefficients.uniform(N, d), v_prev=VCoefficients.uniform(N - 1, d))
    assert counted[0] <= oracle.ORACLE_BYTE_BUDGET < counted[1]


def test_budget_counts_cover_a_point_built_after_another(monkeypatch):
    # the record of one point is dropped when the next is built, not held beside it uncounted
    counted = []
    check = oracle._require
    init = oracle._Point.__init__

    def spy(*blocks):
        counted.append(sum(count * dim * dim * 8 for count, dim in blocks))
        check(*blocks)

    def fresh(self, N, d):  # the memo has dropped the record at (1, 160) by now: the peak counts from here
        tracemalloc.reset_peak()
        init(self, N, d)

    _clear_memos()
    tracemalloc.start()
    try:
        frec_oracle(1, 160)  # its 25600 x 2 digit table is half the count of the call below
        monkeypatch.setattr(oracle._Point, "__init__", fresh)
        monkeypatch.setattr(oracle, "_require", spy)
        frec_oracle(1, 64)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= counted[0] + (1 << 16)


def test_young_only_calls_build_no_torus_digit_table(monkeypatch):
    # a rotation reads the digits of N factors, which its Young basis builds: the digit table of
    # N + 1 factors, 4.2 M rows at (1, 2048), is neither built nor counted beside the dense O
    counted = []
    check = oracle._require

    def spy(*blocks):
        counted.append(oracle._nbytes(blocks))
        check(*blocks)

    N, d = 1, 2048
    _clear_memos()
    monkeypatch.setattr(oracle, "_require", spy)
    build_optimizing_operator(N, d, VCoefficients.uniform(N, d))
    assert "digit_table" not in vars(oracle._point(N, d))
    assert counted[0] < 2 * oracle._nbytes([(1, d**N)])


#: (calls before, the last call): what the earlier calls leave held, the last call's count must cover or drop.
HELD_SEQUENCES = {
    # a Young basis of 11 ports held at another point, about 12 MB beside a count of under 1 MB at the parent
    "young-basis-elsewhere": ((lambda: frec_oracle(6, 2), lambda: build_optimizing_operator(11, 2, W[11])),
                              lambda: verify_suite(6, 2)),
    # a measurement held at the point of a call that reads only its Young basis
    "measurement-then-rotation": ((lambda: frec_oracle(9, 2),), lambda: build_optimizing_operator(9, 2, W[9])),
    "measurement-then-resource": ((lambda: frec_oracle(9, 2),), lambda: resource_fidelity_oracle(9, 2, W[9])),
    # controls: a repeat at one point, and a new point's build after a basis held elsewhere
    "same-point": ((lambda: frec_oracle(6, 2),), lambda: verify_suite(6, 2)),
    "new-point": ((lambda: build_optimizing_operator(11, 2, W[11]),), lambda: frec_oracle(3, 2)),
}


@pytest.mark.parametrize("name", sorted(HELD_SEQUENCES))
def test_budget_counts_cover_what_earlier_calls_left_held(monkeypatch, name):
    # the last call's first count covers what the record holds when it starts, or the call drops
    # that record before it builds: its peak stays within what was held then or what it counts
    earlier, last = HELD_SEQUENCES[name]
    counted = []
    check = oracle._require

    def spy(*blocks):
        counted.append(oracle._nbytes(blocks))
        check(*blocks)

    _clear_memos()
    tracemalloc.start()
    try:
        for call in earlier:
            call()
        held = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        monkeypatch.setattr(oracle, "_require", spy)
        last()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= max(held, counted[0]) + (1 << 16)


# -- the measurement checks, once per measurement record -----------------------------------------

#: Checks that read no rotation weights; ``verify_suite`` computes them once per measurement record.
MEASUREMENT_CHECKS = (
    "povm_completeness", "excess_idempotent", "excess_signal_orthogonal",
    "signal_and_povm_covariance", "completed_trace", "rho_spectrum", "povm_spectrum",
    "signal_is_transposed_swap", "sqrt_povm_signal_trace", "frec_formula_vs_oracle",
)


def _deviations(report):
    return [(c.name, c.max_deviation, c.detail) for c in report.checks if c.name in MEASUREMENT_CHECKS]


@pytest.mark.parametrize("N,d", [(2, 2), (3, 2), (5, 2), (7, 2), (8, 2), (2, 3), (4, 3), (3, 4)])
def test_cached_measurement_checks_equal_fresh_ones(N, d):
    rng = np.random.default_rng(N * 10 + d)
    oracle._point.cache_clear()
    assert "checks" not in vars(oracle._point(N, d))
    reports = [verify_suite(N, d, v=random_v(N, d, rng)) for _ in range(3)]
    assert "checks" in vars(oracle._point(N, d))
    fresh = list(_substituted(N, d).checks)
    assert [name for name, _, _ in fresh] == list(MEASUREMENT_CHECKS)
    for report in reports:
        assert report.all_passed
        assert _deviations(report) == fresh  # bit for bit: floats compare exactly


def test_check_cache_follows_the_bundle_memo(monkeypatch):
    verify_suite(3, 2)
    held = weakref.ref(oracle._point(3, 2))
    assert "checks" in vars(held())
    dropped = []

    def spy(*point, _build=oracle._blocked_inverse_root):
        dropped.append(held() is None)
        return _build(*point)

    monkeypatch.setattr(oracle, "_blocked_inverse_root", spy)
    oracle._point(2, 2).measurement  # a build at another point drops the record, and its checks, before it allocates
    assert dropped == [True]
    held = weakref.ref(oracle._point(2, 2))
    assert "checks" not in vars(held())
    oracle._point.cache_clear()
    assert held() is None


def test_a_dropped_record_reads_only_its_own_tables():
    # a record the memo has dropped computes its checks on its own tables: it builds no record at
    # its point, so the one held at another point stays held
    point = oracle._point(3, 2)
    point.measurement
    frec_oracle(2, 2)
    held = oracle._point(2, 2)
    checks = list(point.checks)
    assert oracle._point(2, 2) is held
    assert _deviations(verify_suite(3, 2)) == checks


def test_check_cache_rechecks_a_substituted_bundle(monkeypatch):
    # measurement checks kept on the held record must not answer for another one at the same point
    assert verify_suite(3, 2).all_passed
    moved = oracle._point(3, 2).measurement.rho_eigenvalues.copy()
    moved[len(moved) // 2] += 1e-6
    substituted = _substituted(3, 2, rho_eigenvalues=moved)
    monkeypatch.setattr(oracle, "_point", lambda *point: substituted)
    failing = [c.name for c in verify_suite(3, 2, tol=1e-9).checks if not c.passed]
    assert failing == ["rho_spectrum"]
    monkeypatch.undo()
    assert verify_suite(3, 2).all_passed


# -- the rotation on port space ------------------------------------------------------------------

def _random_weights_with_a_zero(N, d, rng):
    w = rng.uniform(0.25, 1.0, len(partitions_bounded(N, d)))
    if len(w) > 1:
        w[-1] = 0.0
    return VCoefficients(ports=N, dim=d, entries=w / np.linalg.norm(w))


def _frec_optimal_dense(N, d, vN, vNm1):
    """sqrt(N)/d |tr(sigma_N root O Q^T)| with O Q^T the D x D product of the two embedded rotations."""
    point = oracle._point(N, d)
    root = point.packing.unpack(point.measurement.root)
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
