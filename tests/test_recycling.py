import math
from math import sqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from qubit_two_row import frec_qubit, trace_qubit

from pbt_recycling.partitions import (
    Partition,
    add_box,
    dim_irrep,
    mult_schur_weyl,
    partitions_bounded,
    theta_dim,
)
from pbt_recycling.recycling import (
    frec,
    kround_lower_bound,
    povm_block_factor,
    srm_eigenvalue,
    trace_sqrt_povm_signal,
)


def P(*parts):
    return Partition(tuple(parts))


# -- block eigenvalues ------------------------------------------------------

def test_srm_eigenvalue_examples():
    assert srm_eigenvalue(P(1), P(2), N=2, d=2) == pytest.approx(0.75, abs=1e-15)
    assert srm_eigenvalue(P(1), P(1, 1), N=2, d=2) == pytest.approx(0.25, abs=1e-15)
    # single port: the summed signal is a rank-d^0 projector-like block of weight 1
    assert srm_eigenvalue(P(), P(1), N=1, d=2) == pytest.approx(1.0, abs=1e-15)
    assert srm_eigenvalue(P(), P(1), N=1, d=3) == pytest.approx(1.0, abs=1e-15)


def test_srm_eigenvalue_errors():
    with pytest.raises(ValueError, match="adding one box"):
        srm_eigenvalue(P(1), P(3), N=2, d=2)
    with pytest.raises(ValueError, match="boxes"):
        srm_eigenvalue(P(2), P(2, 1), N=2, d=2)
    with pytest.raises(ValueError, match="local dimension"):
        srm_eigenvalue(P(1, 1, 1), P(2, 1, 1), N=4, d=2)


def test_povm_block_factor_examples():
    assert povm_block_factor(P(1), N=2, d=2) == 1.0
    assert povm_block_factor(P(1, 1), N=3, d=2) == pytest.approx(2.0 / 3.0, abs=1e-15)
    assert povm_block_factor(P(2), N=3, d=2) == 1.0
    with pytest.raises(ValueError):
        povm_block_factor(P(1, 1, 1), N=4, d=2)


# -- overlap traces ----------------------------------------------------------

def test_trace_examples():
    for d in (2, 3, 4):
        assert trace_sqrt_povm_signal(1, d) == pytest.approx(d, rel=1e-14)
    assert trace_sqrt_povm_signal(2, 2) == pytest.approx(2 + sqrt(3), rel=1e-14)


def test_trace_qubit_examples():
    # the paper's two-row form, kept in the tests as the cross-check
    assert trace_qubit(1) == pytest.approx(2.0, rel=1e-14)
    assert trace_qubit(2) == pytest.approx(2 + sqrt(3), rel=1e-14)


@pytest.mark.parametrize("N", [1, 2, 3, 5, 8, 13, 21, 30])
def test_trace_qubit_matches_general(N):
    assert trace_qubit(N) == pytest.approx(trace_sqrt_povm_signal(N, 2), rel=1e-12)


# -- fidelities ----------------------------------------------------------------

def test_frec_examples(pinned):
    assert frec(1, 2).value == pytest.approx(0.5, abs=1e-12)
    assert frec(2, 2).value == pytest.approx((2 + sqrt(3)) * sqrt(2) / 8, abs=1e-14)
    assert frec(2, 2).value == pytest.approx(pinned["frec_oracle/N=2,d=2"], abs=1e-10)
    assert frec(3, 3).value == pytest.approx(pinned["frec_oracle/N=3,d=3"], abs=1e-10)


def test_frec_report_fields():
    r = frec(4, 3)
    assert r.method == "general" and (r.ports, r.dim) == (4, 3)
    assert r.as_dict() == {"value": r.value, "method": "general", "ports": 4, "dim": 3}


def test_frec_qubit_examples(pinned):
    assert frec_qubit(1) == pytest.approx(0.5, abs=1e-14)
    assert frec_qubit(2) == pytest.approx(pinned["frec_oracle/N=2,d=2"], abs=1e-10)
    assert frec_qubit(200) == pytest.approx(frec(200, 2).value, abs=1e-9)


def test_frec_qubit_matches_general_small():
    for N in range(1, 41):
        assert frec_qubit(N) == pytest.approx(frec(N, 2).value, abs=1e-12)


def test_frec_values_bounded():
    for N, d in [(1, 2), (5, 2), (30, 2), (6, 3), (4, 5), (160, 2), (300, 2)]:
        v = frec(N, d).value
        assert 0.0 < v <= 1.0 + 1e-9


def test_frec_qubit_increasing_prefix():
    values = [frec(N, 2).value for N in range(2, 30)]
    assert all(b > a for a, b in zip(values, values[1:]))


def test_qubit_cutoff_forms_agree():
    # ceil(N/2 - 1) == floor((N-1)/2) for every positive port count
    for N in range(1, 10_001):
        assert math.ceil(N / 2 - 1) == (N - 1) // 2


def test_input_validation():
    with pytest.raises(ValueError):
        frec(0, 2)
    with pytest.raises(ValueError):
        frec(3, 1)
    with pytest.raises(ValueError):
        trace_sqrt_povm_signal(0, 2)


# -- multi-round bound ---------------------------------------------------------

def test_kround_examples():
    assert kround_lower_bound(1.0, 7) == pytest.approx(1.0)
    assert kround_lower_bound(0.99, 5) == pytest.approx(0.9)
    assert kround_lower_bound(0.9, 10) == pytest.approx(-1.0)


def test_kround_errors():
    with pytest.raises(ValueError):
        kround_lower_bound(1.2, 1)
    with pytest.raises(ValueError):
        kround_lower_bound(-0.1, 1)
    with pytest.raises(ValueError):
        kround_lower_bound(0.5, 0)


# -- property tests ---------------------------------------------------------------

def _frec_exact_int(N, d):
    """The exact-integer form sqrt(N)/d^(N+1) * sum over frames, in plain floats."""
    total = []
    for alpha in partitions_bounded(N - 1, d):
        s = sum(sqrt(mult_schur_weyl(nu, d) * dim_irrep(nu)) for nu in add_box(alpha, d))
        d_a = dim_irrep(alpha)
        total.append(s * s / N * sqrt(N * d_a / (N * d_a - theta_dim(alpha, d))))
    return sqrt(N) / d ** (N + 1) * math.fsum(total)


@given(st.integers(min_value=1, max_value=60), st.integers(min_value=2, max_value=4))
@settings(max_examples=20)
def test_frec_paths_agree(N, d):
    # the p-form kernel against the exact-integer frame sum it replaced
    value = frec(N, d).value
    assert value == pytest.approx(_frec_exact_int(N, d), rel=1e-12)
    assert 0.0 < value <= 1.0 + 1e-9
