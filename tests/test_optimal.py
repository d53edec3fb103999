import json
from math import cos, pi, sqrt

import mpmath
import numpy as np
import pytest
from exact_reference import add_box, dim_irrep, mult_schur_weyl
from qubit_angular import angular_dim, gamma_angular, resource_state_fidelity_qubit_angular
from qubit_two_row import frec_optimal_qubit

from pbt_recycling.optimal import (
    CoefficientError,
    VCoefficients,
    _perron_weights,
    frec_optimal,
    load_v_coefficients,
    parse_v_coefficients,
    resource_state_fidelity,
    save_v_coefficients,
    v_optimal,
)
from pbt_recycling.oracle import build_optimizing_operator, channel_fidelity_oracle, frec_optimal_oracle
from pbt_recycling.partitions import partitions_bounded
from pbt_recycling.recycling import frec


#: (N, d) points where the optimal weights are checked against the dense oracle.
ORACLE_POINTS = [(2, 2), (3, 2), (4, 2), (5, 2), (2, 3), (3, 3), (4, 3), (2, 4), (3, 4)]


def _pinned_points(pinned, kind):
    """(N, d, value) of every pinned entry of ``kind``, keyed ``kind/N=..,d=..``."""
    points = []
    for key, value in pinned.items():
        name, point = key.split("/")
        if name == kind:
            N, d = (int(part.split("=")[1]) for part in point.split(","))
            points.append((N, d, value))
    return points


# -- optimal weights ------------------------------------------------------------

def test_v_optimal_qubit_n2():
    v = v_optimal(2, 2)  # rows (2) and (1, 1)
    assert v.entries.tolist() == pytest.approx([1 / sqrt(2), 1 / sqrt(2)], abs=1e-14)


def test_v_optimal_rejects_bad_point():
    for N, d in [(0, 2), (-1, 3), (3, 1)]:
        with pytest.raises(ValueError):
            v_optimal(N, d)


def test_v_optimal_single_port():
    for d in (2, 3, 4):
        assert v_optimal(1, d).entries.tolist() == [1.0]


def test_v_positive_and_normalized():
    for N, d in [(2, 2), (7, 2), (24, 2), (41, 2), (12, 3), (30, 3), (20, 4)]:
        v = v_optimal(N, d)
        vals = v.entries.tolist()
        assert all(x > 0 for x in vals)
        assert sum(x * x for x in vals) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("N", [899, 1140])
def test_v_optimal_qubit_matches_mpmath(N):
    # the sine formula at 40 digits, unfolded argument
    v = v_optimal(N, 2)
    with mpmath.workdps(40):
        for mu, x in zip(partitions_bounded(N, 2), v.entries.tolist()):
            k = mu[0] - (mu[1] if len(mu) == 2 else 0) + 1
            ref = 2 / mpmath.sqrt(N + 2) * mpmath.sin(mpmath.pi * k / (N + 2))
            assert abs(x - ref) <= 1e-14 * ref


def test_v_optimal_qubit_matches_perron_solve():
    # the closed form is the Perron vector the general solve finds at d = 2
    for N in range(1, 61):
        np.testing.assert_allclose(v_optimal(N, 2).entries, _perron_weights(N, 2), rtol=0, atol=1e-10)


def test_v_optimal_matches_fixture_files(vcoeff_path):
    for N in (2, 3):
        fixture = load_v_coefficients(vcoeff_path(N, 3))
        np.testing.assert_allclose(v_optimal(N, 3).entries, fixture.entries, rtol=0, atol=1e-8)


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
        v = v_optimal(N, 2)
        for mu, vm in zip(partitions_bounded(N, 2), v.entries.tolist()):
            l = mu[1] if len(mu) == 2 else 0
            j = N / 2 - l
            lhs = sqrt(2**N) * vm / sqrt(dim_irrep(mu) * mult_schur_weyl(mu, 2))
            assert lhs == pytest.approx(sqrt(gamma_angular(N, j)), abs=1e-8)


# -- optimal recycling fidelity ---------------------------------------------------

def test_frec_optimal_qubit_pinned(pinned):
    # every pinned point of the optimal protocol, the qubit ones and those at d >= 3
    points = _pinned_points(pinned, "frec_optimal_oracle")
    assert {(N, 2) for N in (2, 3, 4, 5)} <= {(N, d) for N, d, _ in points}
    for N, d, value in points:
        assert frec_optimal(N, d, v_optimal(N, d), v_optimal(N - 1, d)).value == pytest.approx(value, abs=1e-10)


def test_frec_optimal_matches_qubit_form():
    # the paper's two-row form, kept in the tests as the cross-check
    for N in range(2, 41):
        general = frec_optimal(N, 2, v_optimal(N, 2), v_optimal(N - 1, 2)).value
        assert frec_optimal_qubit(N) == pytest.approx(general, abs=1e-12)


def test_frec_optimal_qubit_verify_mode():
    # the two-row form verifies the frame sum to 1e-9 at scattered N
    for N in (2, 9, 24):
        general = frec_optimal(N, 2, v_optimal(N, 2), v_optimal(N - 1, 2)).value
        assert abs(frec_optimal_qubit(N) - general) <= 1e-9


def test_frec_optimal_uniform_collapses_to_plain():
    for N, d in [(2, 2), (3, 2), (5, 2), (2, 3), (3, 3), (2, 4)]:
        uniform = frec_optimal(N, d, VCoefficients.uniform(N, d), VCoefficients.uniform(N - 1, d))
        assert uniform.value == pytest.approx(frec(N, d).value, abs=1e-12)


def test_frec_optimal_matches_oracle_any_d():
    for N, d in ORACLE_POINTS:
        v_n, v_prev = v_optimal(N, d), v_optimal(N - 1, d)
        oracle = frec_optimal_oracle(N, d, v_n, v_prev).value
        assert frec_optimal(N, d, v_n, v_prev).value == pytest.approx(oracle, abs=1e-12)


def test_frec_optimal_label_mismatch():
    with pytest.raises(CoefficientError):
        frec_optimal(3, 2, v_optimal(2, 2), v_optimal(2, 2))
    with pytest.raises(CoefficientError):
        frec_optimal(3, 3, v_optimal(3, 2), v_optimal(2, 2))


# -- resource-state overlap ----------------------------------------------------------

def test_resource_fidelity_uniform_is_one():
    for N, d in [(3, 2), (4, 3)]:
        r = resource_state_fidelity(N, d, VCoefficients.uniform(N, d))
        assert r.value == pytest.approx(1.0, abs=1e-12)


def test_resource_fidelity_pinned(pinned):
    got = resource_state_fidelity(6, 2, v_optimal(6, 2)).value
    assert got == pytest.approx(pinned["resource_fidelity_oracle/N=6,d=2"], abs=1e-10)
    assert got == pytest.approx(0.9977, abs=5e-4)
    for N, d, value in _pinned_points(pinned, "resource_fidelity_oracle"):
        assert resource_state_fidelity(N, d, v_optimal(N, d)).value == pytest.approx(value, abs=1e-10)


def test_resource_fidelity_angular_agrees():
    for N in range(1, 31):
        schur = resource_state_fidelity(N, 2, v_optimal(N, 2)).value
        assert resource_state_fidelity_qubit_angular(N) == pytest.approx(schur, abs=1e-9)
    # large N, where factorial-sized integers would overflow a float
    for N in (200, 1000):
        schur = resource_state_fidelity(N, 2, v_optimal(N, 2)).value
        assert resource_state_fidelity_qubit_angular(N) == pytest.approx(schur, abs=1e-12)


def test_resource_fidelity_decreasing_tail():
    values = [resource_state_fidelity(N, 2, v_optimal(N, 2)).value for N in range(50, 61)]
    assert all(b < a for a, b in zip(values, values[1:]))


# -- coefficient files ------------------------------------------------------------

def test_document_roundtrip(tmp_path):
    v = v_optimal(5, 2)
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


@pytest.mark.parametrize(
    "doc",
    [
        _document(True, 2, [{"partition": [1], "v": 1.0}]),
        _document(1, True, [{"partition": [1], "v": 1.0}]),
        _document(2, 2, [{"partition": [2], "v": 0.6}, {"partition": [True, True], "v": 0.8}]),
        _document(1, 2, [{"partition": [1], "v": True}]),
    ],
)
def test_parse_rejects_json_booleans(doc):
    # bool is an int subclass: true must not pass for 1, nor false for 0
    with pytest.raises(CoefficientError):
        parse_v_coefficients(json.dumps(doc))


def _entries(*pairs, N=3, d=2):
    """A coefficient document at (N, d) of (partition, v) pairs, as a dict."""
    return _document(N, d, [{"partition": p, "v": v} for p, v in pairs])


_VALID = VCoefficients(ports=3, dim=2, entries=[0.6, 0.8])

#: Documents at (3, 2), whose frames are (3) and (2, 1), unless they say otherwise, and what each parses to:
#: weights or the error in full.
_WEIGHT_DOCUMENTS = [
    (_entries(([3], 0.6), ([2, 1], 0.8)), _VALID),
    (json.dumps(_entries(([3], 0.6), ([2, 1], 0.8))), _VALID),
    (_entries(([np.int64(3)], 0.6), ([np.int64(2), np.int64(1)], 0.8)), _VALID),
    (_entries(((3,), 0.6), ((2, 1), 0.8)), _VALID),
    (_entries(([3.0], 0.6), ([2, 1], 0.8)), "bad partition [3.0]: partition parts must be integers: (3.0,)"),
    (_entries(([3], 0.6), ([2, 1.0], 0.8)), "bad partition [2, 1.0]: partition parts must be integers: (2, 1.0)"),
    (_entries(([3], 0.6), ([2, True], 0.8)), "bad partition [2, True]: partition parts must be integers: (2, True)"),
    (_entries(([True], 1.0), N=1), "bad partition [True]: partition parts must be integers: (True,)"),
    (_entries(([[3]], 0.6), ([2, 1], 0.8)), "bad partition [[3]]: partition parts must be integers: ([3],)"),
    (_entries(([3, 0], 0.6), ([2, 1], 0.8)), "bad partition [3, 0]: partition parts must be positive: (3, 0)"),
    (_entries(([3], 0.6), ([1, 2], 0.8)), "bad partition [1, 2]: partition parts must be weakly decreasing: (1, 2)"),
    (_entries(([3], 0.6), ([2, 2], 0.8)), "partition 2,2 does not have 3 boxes"),
    (_entries(([3], 0.6), ([2, 1], 0.8), ([1, 1, 1], 0.0)), "incomplete support: missing=[] unexpected=['1,1,1']"),
    (_entries(([3], 0.6), ([3], 0.8)), "duplicate partition 3"),
    (_entries(([1, 1, 1], 0.6), ([1, 1, 1], 0.8)), "duplicate partition 1,1,1"),
    (_entries(([3], 0.6), ([3], "x")), "duplicate partition 3"),
    (_entries(([3], 0.6), ([2, 1], True)), "bad coefficient for 2,1"),
    (_entries(([3], 1.0)), "incomplete support: missing=['2,1'] unexpected=[]"),
    # more frames than the partition budget: the entry's own error still comes first
    (_entries(([1.5], 1.0), N=10_000, d=3), "bad partition [1.5]: partition parts must be integers: (1.5,)"),
    (_entries(([2, 1], 0.8), ([3], 0.6)), _VALID),  # in reverse row order
    (_entries(([1, 1, 1], 0.0), ([3], 0.6), ([2, 1], 0.8), d=4), VCoefficients(ports=3, dim=4, entries=[0.6, 0.8, 0.0])),
    (_entries(([3], 10**400), ([2, 1], 0.8)), "bad coefficient for 3"),  # an int beyond the float range
]


@pytest.mark.parametrize("document,expected", _WEIGHT_DOCUMENTS)
def test_parse_gives_the_same_weights_or_error(document, expected):
    if isinstance(expected, VCoefficients):
        assert parse_v_coefficients(document) == expected
    else:
        with pytest.raises(CoefficientError) as error:
            parse_v_coefficients(document)
        assert str(error.value) == expected


@pytest.mark.parametrize("N,d", [(12, 3), (3, 4)])
def test_a_valid_document_builds_no_frame_table(monkeypatch, N, d):
    # a complete document is checked against the point's frame count: nothing lists its frames or reads its record
    from pbt_recycling import partitions

    text = json.dumps(VCoefficients.uniform(N, d).as_document())
    expected = VCoefficients.uniform(N, d)
    partitions._point_block.cache_clear()
    called = []
    for name in ("_frame_tables", "_point_block"):
        real = getattr(partitions, name)
        monkeypatch.setattr(partitions, name, lambda *args, name=name, real=real: called.append(name) or real(*args))
    assert parse_v_coefficients(text) == expected
    assert called == []


def test_only_an_incomplete_document_lists_the_frames_under_the_byte_budget(monkeypatch):
    # the count settles a complete document; the listing that names missing frames checks the budget
    from pbt_recycling import partitions

    document = VCoefficients.uniform(12, 3).as_document()
    expected = VCoefficients.uniform(12, 3)
    monkeypatch.setattr(partitions, "PARTITIONS_BYTE_BUDGET", 1000)  # the counts' 832 bytes fit, the listing's do not
    assert parse_v_coefficients(document) == expected
    del document["entries"][0]
    with pytest.raises(ValueError, match="^19 frames of 12 boxes and height <= 3 need 4256 bytes, over the budget"):
        parse_v_coefficients(document)


@pytest.mark.parametrize("N", [4, 5])
def test_the_perron_walk_frec_optimal_and_the_rho_spectrum_rank_a_point_once(monkeypatch, N):
    # each reads the extension ranks of the frames of N - 1 boxes from that point's record
    from pbt_recycling import oracle, partitions

    ranked = []
    real = partitions._extension_ranks
    monkeypatch.setattr(partitions, "_extension_ranks", lambda table: ranked.append(int(table[0].sum())) or real(table))
    partitions._point_block.cache_clear()
    oracle._point.cache_clear()
    assert partitions.frame_count(N - 1, 3) <= partitions._BLOCK_ROWS
    vN, vNm1 = v_optimal(N, 3), v_optimal(N - 1, 3)
    frec_optimal(N, 3, vN, vNm1)
    oracle.rho_spectrum_report(N, 3)
    assert sorted(ranked) == [N - 2, N - 1]


def test_uniform_coefficients_valid():
    for N, d in [(4, 2), (3, 3), (5, 4)]:
        VCoefficients.uniform(N, d)  # must not raise


def test_weights_are_read_only(vcoeff_path):
    # validation holds for the object's lifetime: no write can slip past it
    for v in (v_optimal(4, 2), VCoefficients.uniform(3, 3), load_v_coefficients(vcoeff_path(3, 3))):
        with pytest.raises(ValueError, match="read-only"):
            v.entries[0] = -5.0
        assert (v.entries >= 0).all()


def test_constructor_validates_array():
    with pytest.raises(CoefficientError, match="incomplete support"):
        VCoefficients(ports=4, dim=2, entries=np.full(2, 1 / sqrt(2)))
    with pytest.raises(CoefficientError, match="negative"):
        VCoefficients(ports=2, dim=2, entries=np.array([-0.6, 0.8]))
    with pytest.raises(CoefficientError, match="bad coefficient"):
        VCoefficients(ports=2, dim=2, entries=np.array([np.nan, 0.8]))
    with pytest.raises(CoefficientError, match="not normalized"):
        VCoefficients(ports=2, dim=2, entries=np.array([0.9, 0.3]))
    w = np.array([0.6, 0.8])
    v = VCoefficients(ports=2, dim=2, entries=w)
    w[0] = 5.0  # the caller's array is copied, not shared
    assert v.entries.tolist() == [0.6, 0.8]


# -- cross-check against the channel picture ------------------------------------------

def _lambda_max(v: VCoefficients) -> float:
    """d^-2 |B v|^2, B the incidence of frames of N-1 boxes and their one-box extensions."""
    N, d = v.ports, v.dim
    v_of = dict(zip(partitions_bounded(N, d), v.entries.tolist()))
    return sum(
        sum(v_of[nu] for nu in add_box(alpha, d)) ** 2 for alpha in partitions_bounded(N - 1, d)
    ) / d**2


def test_lambda_max_equals_optimal_channel_fidelity():
    # the Perron eigenvalue of the teleportation matrix is the channel
    # entanglement fidelity the optimal rotation achieves, and no other
    # positive weights do better
    rng = np.random.default_rng(7)
    for N, d in ORACLE_POINTS:
        v = v_optimal(N, d)
        fid = channel_fidelity_oracle(N, d, rotation=build_optimizing_operator(N, d, v))
        assert fid == pytest.approx(_lambda_max(v), abs=1e-12)
        frames = partitions_bounded(N, d)
        for _ in range(5):
            w = rng.random(len(frames)) + 0.05
            w /= np.linalg.norm(w)
            other = VCoefficients(ports=N, dim=d, entries=w)
            assert channel_fidelity_oracle(N, d, rotation=build_optimizing_operator(N, d, other)) <= fid + 1e-12
    assert _lambda_max(v_optimal(4, 3)) == pytest.approx(0.431042804619, abs=1e-12)


def test_qubit_lambda_max_law():
    # at d = 2 the Perron vector is v_optimal's sine in k = mu_1 - mu_2 + 1, and its
    # eigenvalue d^-2 |B v|^2 is cos^2(pi/(N + 2))
    for N in range(2, 61):
        assert abs(_lambda_max(v_optimal(N, 2)) - cos(pi / (N + 2)) ** 2) <= 1e-14


def test_qubit_optimal_recycling_limit():
    # frec_optimal(N, 2) tends to F_inf(2) = int_0^1 sin^2(pi x) (sqrt(1 - x) + sqrt(1 + x)) dx,
    # with corrections in 1/N and 1/N^2: two Richardson steps on N, 2N and 4N remove both
    f = [frec_optimal(N, 2, v_optimal(N, 2), v_optimal(N - 1, 2)).value for N in (16000, 32000, 64000)]
    first = [2 * f[1] - f[0], 2 * f[2] - f[1]]
    limit = (4 * first[1] - first[0]) / 3
    with mpmath.workdps(30):
        ref = mpmath.quad(lambda x: mpmath.sin(mpmath.pi * x) ** 2 * (mpmath.sqrt(1 - x) + mpmath.sqrt(1 + x)), [0, 1])
    assert abs(limit - float(ref)) <= 1e-10
    assert float(ref) == pytest.approx(0.958245837318207, abs=1e-15)
