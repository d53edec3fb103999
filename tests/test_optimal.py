import json
import math
from math import sqrt

import numpy as np
import pytest
from qubit_two_row import frec_optimal_qubit

from pbt_recycling.optimal import (
    CoefficientError,
    VCoefficients,
    angular_dim,
    frec_optimal,
    gamma_angular,
    lambda_max_qubit,
    load_v_coefficients,
    parse_v_coefficients,
    resource_state_fidelity,
    resource_state_fidelity_qubit_angular,
    save_v_coefficients,
    teleportation_matrix_qubit,
    v_qubit,
    v_qubit_analytic,
    v_qubit_numeric,
)
from pbt_recycling.partitions import Partition, dim_irrep, mult_schur_weyl, partitions_bounded
from pbt_recycling.recycling import frec


def P(*parts):
    return Partition(tuple(parts))


# -- teleportation matrix ------------------------------------------------------

def test_matrix_n2():
    m = teleportation_matrix_qubit(2)
    assert m.size == 2
    np.testing.assert_allclose(m.to_dense(), np.array([[0.25, 0.25], [0.25, 0.25]]))


def test_matrix_n3():
    m = teleportation_matrix_qubit(3)
    assert m.size == 2
    assert m.diagonal == (0.25, 0.5)
    assert m.off_diagonal == (0.25,)


def test_matrix_n1_rejected():
    with pytest.raises(ValueError, match="ambiguous"):
        teleportation_matrix_qubit(1)


def test_matrix_sizes_by_parity():
    for N in range(2, 30):
        assert teleportation_matrix_qubit(N).size == N // 2 + 1


# -- eigenvectors ------------------------------------------------------------

def test_v_qubit_analytic_n2():
    v = v_qubit_analytic(2)
    assert v[P(2)] == pytest.approx(1 / sqrt(2), abs=1e-14)
    assert v[P(1, 1)] == pytest.approx(1 / sqrt(2), abs=1e-14)


def test_v_qubit_analytic_requires_two_ports():
    with pytest.raises(ValueError):
        v_qubit_analytic(1)
    with pytest.raises(ValueError):
        v_qubit_numeric(1)


def test_v_qubit_trivial_single_port():
    v = v_qubit(1)
    assert v[P(1)] == 1.0


def test_analytic_matches_numeric():
    for N in range(2, 41):
        va = v_qubit_analytic(N)
        vn = v_qubit_numeric(N)
        for mu in partitions_bounded(N, 2):
            assert va[mu] == pytest.approx(vn[mu], abs=1e-8)


def test_analytic_eigen_residual_and_orientation():
    # matrix row 0 corresponds to the one-row frame; the analytic vector must
    # satisfy the eigen-equation in that orientation
    for N in range(2, 41):
        m = teleportation_matrix_qubit(N).to_dense()
        v = v_qubit_analytic(N)
        vec = np.array([v[P(N - l, l) if l else P(N)] for l in range(N // 2 + 1)])
        lam = lambda_max_qubit(N)
        assert np.linalg.norm(m @ vec - lam * vec) <= 1e-10


def test_v_positive_and_normalized():
    for N in (2, 7, 24, 41):
        v = v_qubit_analytic(N)
        vals = list(v.entries.values())
        assert all(x > 0 for x in vals)
        assert sum(x * x for x in vals) == pytest.approx(1.0, abs=1e-12)


# -- angular picture ------------------------------------------------------------

def test_gamma_normalization():
    for N in (2, 3, 4, 7, 12, 21):
        jmin = 0.0 if N % 2 == 0 else 0.5
        total = 0.0
        j = jmin
        while j <= N / 2:
            total += gamma_angular(N, j) * angular_dim(N, j) * (int(2 * j) + 1)
            j += 1
        assert total == pytest.approx(2**N, rel=1e-12)


def test_gamma_positive_and_range_checks():
    assert gamma_angular(2, 1) > 0
    with pytest.raises(ValueError):
        gamma_angular(2, 0.5)
    with pytest.raises(ValueError):
        gamma_angular(2, 2)
    with pytest.raises(ValueError):
        gamma_angular(3, 0)


def test_gamma_consistent_with_v():
    # both parametrize the same rotation: sqrt(2^N) v_l / sqrt(dim*mult) = sqrt(gamma)
    for N in range(2, 21):
        v = v_qubit_analytic(N)
        for mu in partitions_bounded(N, 2):
            l = mu.parts[1] if mu.height == 2 else 0
            j = N / 2 - l
            lhs = sqrt(2**N) * v[mu] / sqrt(dim_irrep(mu) * mult_schur_weyl(mu, 2))
            assert lhs == pytest.approx(sqrt(gamma_angular(N, j)), abs=1e-8)


# -- optimal recycling fidelity ---------------------------------------------------

def test_frec_optimal_qubit_pinned(pinned):
    for N in (2, 3, 4, 5):
        assert frec_optimal(N, 2, v_qubit(N), v_qubit(N - 1)).value == pytest.approx(
            pinned[f"frec_optimal_oracle/N={N},d=2"], abs=1e-10
        )


def test_frec_optimal_matches_qubit_form():
    # the paper's two-row form, kept in the tests as the cross-check
    for N in range(2, 41):
        general = frec_optimal(N, 2, v_qubit(N), v_qubit(N - 1)).value
        assert frec_optimal_qubit(N) == pytest.approx(general, abs=1e-12)


def test_frec_optimal_qubit_verify_mode():
    # the two-row form verifies the frame sum to 1e-9 at scattered N
    for N in (2, 9, 24):
        general = frec_optimal(N, 2, v_qubit(N), v_qubit(N - 1)).value
        assert abs(frec_optimal_qubit(N) - general) <= 1e-9


def test_frec_optimal_uniform_collapses_to_plain():
    for N, d in [(2, 2), (3, 2), (5, 2), (2, 3), (3, 3), (2, 4)]:
        uniform = frec_optimal(N, d, VCoefficients.uniform(N, d), VCoefficients.uniform(N - 1, d))
        assert uniform.value == pytest.approx(frec(N, d).value, abs=1e-12)


def test_frec_optimal_label_mismatch():
    with pytest.raises(CoefficientError):
        frec_optimal(3, 2, v_qubit(2), v_qubit(2))
    with pytest.raises(CoefficientError):
        frec_optimal(3, 3, v_qubit(3), v_qubit(2))


# -- resource-state overlap ----------------------------------------------------------

def test_resource_fidelity_uniform_is_one():
    for N, d in [(3, 2), (4, 3)]:
        r = resource_state_fidelity(N, d, VCoefficients.uniform(N, d))
        assert r.value == pytest.approx(1.0, abs=1e-12)


def test_resource_fidelity_pinned(pinned):
    got = resource_state_fidelity(6, 2, v_qubit(6)).value
    assert got == pytest.approx(pinned["resource_fidelity_oracle/N=6,d=2"], abs=1e-10)
    assert got == pytest.approx(0.9977, abs=5e-4)


def test_resource_fidelity_angular_agrees():
    for N in range(1, 31):
        schur = resource_state_fidelity(N, 2, v_qubit(N)).value
        assert resource_state_fidelity_qubit_angular(N) == pytest.approx(schur, abs=1e-9)


def test_resource_fidelity_decreasing_tail():
    values = [resource_state_fidelity(N, 2, v_qubit(N)).value for N in range(50, 61)]
    assert all(b < a for a, b in zip(values, values[1:]))


# -- coefficient files ------------------------------------------------------------

def test_document_roundtrip(tmp_path):
    v = v_qubit(5)
    path = tmp_path / "v.json"
    save_v_coefficients(v, path)
    loaded = load_v_coefficients(path)
    assert loaded == v


def test_shipped_files_load(vcoeff_path):
    for N in (2, 3):
        v = parse_v_coefficients(vcoeff_path(N, 3).read_text())
        assert v.ports == N and v.dim == 3


def _document(N, d, entries):
    return {"N": N, "d": d, "entries": entries}


def test_parse_rejects_bad_norm():
    doc = _document(2, 2, [{"partition": [2], "v": 0.9}, {"partition": [1, 1], "v": 0.3}])
    with pytest.raises(CoefficientError, match="not normalized"):
        parse_v_coefficients(doc)


def test_parse_rejects_incomplete_support():
    doc = _document(2, 2, [{"partition": [2], "v": 1.0}])
    with pytest.raises(CoefficientError, match="incomplete support"):
        parse_v_coefficients(doc)


def test_parse_rejects_negative_entry():
    doc = _document(2, 2, [{"partition": [2], "v": -0.6}, {"partition": [1, 1], "v": 0.8}])
    with pytest.raises(CoefficientError, match="negative"):
        parse_v_coefficients(doc)


def test_parse_rejects_wrong_boxes():
    doc = _document(3, 2, [{"partition": [2], "v": 1.0}])
    with pytest.raises(CoefficientError, match="boxes"):
        parse_v_coefficients(doc)


def test_parse_rejects_bad_schema():
    with pytest.raises(CoefficientError, match="invalid JSON"):
        parse_v_coefficients("{nope")
    with pytest.raises(CoefficientError, match="missing field"):
        parse_v_coefficients(json.dumps({"N": 2, "d": 2}))
    with pytest.raises(CoefficientError, match="wrong N or d"):
        parse_v_coefficients(_document(0, 2, []))
    doc = _document(2, 2, [{"partition": [2], "v": 0.6}, {"partition": [2], "v": 0.8}])
    with pytest.raises(CoefficientError, match="duplicate"):
        parse_v_coefficients(doc)


def test_uniform_coefficients_valid():
    for N, d in [(4, 2), (3, 3), (5, 4)]:
        VCoefficients.uniform(N, d)  # must not raise


# -- cross-check against the channel picture ------------------------------------------

def test_lambda_max_equals_optimal_channel_fidelity():
    # the dominant eigenvalue of the teleportation matrix is the channel
    # entanglement fidelity achieved by the corresponding rotation
    from pbt_recycling.oracle import build_optimizing_operator, channel_fidelity_oracle

    for N in (2, 3, 4):
        rot = build_optimizing_operator(N, 2, v_qubit(N))
        fid = channel_fidelity_oracle(N, 2, rotation=rot)
        assert fid == pytest.approx(lambda_max_qubit(N), abs=1e-12)
