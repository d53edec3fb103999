import math
from math import sqrt

import numpy as np
import pytest
from exact_reference import add_box, dim_irrep, mult_schur_weyl, theta_dim
from hypothesis import given, settings
from hypothesis import strategies as st
from qubit_two_row import frec_qubit, trace_qubit

from pbt_recycling import oracle, partitions
from pbt_recycling.partitions import frame_count, partitions_bounded
from pbt_recycling.recycling import frec, frec_values, kround_lower_bound, lower_bound_qubit, trace_sqrt_povm_signal


# -- block eigenvalues ------------------------------------------------------

def test_srm_eigenvalue_examples():
    # (eigenvalue, multiplicity) of the summed signals: (d + c)/d^N on each block (alpha, nu),
    # c the content of the added box, then the kernel
    assert oracle._rho_spectrum_prediction(2, 2) == [(0.75, 2), (0.25, 2), (0.0, 4)]
    # single port: the summed signal is one maximally entangled projector
    for d in (2, 3):
        assert oracle._rho_spectrum_prediction(1, d) == [(1.0, 1), (0.0, d**2 - 1)]


def test_povm_block_factor_examples():
    # frames of N - 1 = 1 and 2 boxes at d = 2: only (1, 1) has height d
    assert oracle._povm_block_factors(2, 2) == [1.0]
    assert oracle._povm_block_factors(3, 2) == [1.0, pytest.approx(2.0 / 3.0, abs=1e-15)]
    assert oracle._povm_block_factors(1, 3) == [1.0]


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


@pytest.fixture(scope="module")
def qubit_sweep():
    return frec_values(1, 3000, 2)


def test_lower_bound_qubit_below_frec(qubit_sweep):
    assert lower_bound_qubit(4) == 1.0 - 11.0 / 16.0
    assert all(f >= lower_bound_qubit(N) for N, f in zip(range(1, 3001), qubit_sweep))
    assert [qubit_sweep[N - 1] for N in (1, 2, 1000, 3000)] == [frec(N, 2).value for N in (1, 2, 1000, 3000)]


@pytest.mark.parametrize("n_min,n_max,d", [(1, 3000, 2), (2, 200, 3), (2, 80, 4), (2, 25, 6)])
def test_frec_values_are_frec_bit_for_bit(n_min, n_max, d, qubit_sweep):
    values = qubit_sweep if (n_min, n_max, d) == (1, 3000, 2) else frec_values(n_min, n_max, d)
    assert len(values) == n_max - n_min + 1
    assert values == [frec(N, d).value for N in range(n_min, n_max + 1)]


def _spy_on_kernel_passes(spy_on_block_factor) -> list[tuple[int, int, int]]:
    """Record (rows, distinct box counts, distinct first parts) of each block whose ln p the recycling sum reads."""
    seen = []

    def record(block):
        table = block.table
        seen.append((len(table), len(np.unique(table.sum(axis=1))), len(np.unique(table[:, 0]))))

    spy_on_block_factor("ln_p", record)
    return seen


def test_frec_values_blocks_hold_at_most_block_rows(spy_on_block_factor):
    seen = _spy_on_kernel_passes(spy_on_block_factor)
    frec_values(2, 200, 3)
    assert len(seen) > 1 and sum(rows for rows, _, _ in seen) == sum(frame_count(N - 1, 3) for N in range(2, 201))
    assert all(rows <= partitions._BLOCK_ROWS for rows, _, _ in seen)


def test_frec_values_give_a_block_over_the_cap_one_first_part(monkeypatch, spy_on_block_factor):
    expected = frec_values(2, 40, 4)
    seen = _spy_on_kernel_passes(spy_on_block_factor)
    monkeypatch.setattr(partitions, "_BLOCK_ROWS", 30)
    assert frec_values(2, 40, 4) == expected
    assert all(rows <= 30 or (sizes, firsts) == (1, 1) for rows, sizes, firsts in seen)
    assert any(rows > 30 for rows, _, _ in seen) and any(sizes > 1 for _, sizes, _ in seen)
    # an N with more frames than a block is split into runs of first parts
    assert any(sizes == 1 and firsts > 1 and rows < frame_count(39, 4) for rows, sizes, firsts in seen)


def test_split_frec_holds_one_block_at_a_time(monkeypatch):
    import tracemalloc

    def peak():
        partitions._point_block.cache_clear()
        tracemalloc.start()
        try:
            value = frec(200, 4).value
            return value, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert frame_count(199, 4) > 10 * partitions._BLOCK_ROWS
    split, split_peak = peak()
    monkeypatch.setattr(partitions, "_BLOCK_ROWS", 10**9)
    whole, whole_peak = peak()
    assert split == whole
    assert split_peak < whole_peak / 4


def test_frec_values_errors():
    assert frec_values(5, 4, 2) == []
    assert frec_values(1, 0, 2) == []
    with pytest.raises(ValueError):
        frec_values(0, 4, 2)
    with pytest.raises(ValueError):
        frec_values(1, 4, 1)


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
