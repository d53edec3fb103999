"""The Schur-Weyl-probability kernel against exact integers and mpmath."""

import math
import time
import tracemalloc

import mpmath
import numpy as np
import pytest
import exact_reference
from exact_reference import add_box, dim_irrep, mult_schur_weyl, theta_dim

from pbt_recycling import optimal, partitions, recycling
from pbt_recycling.optimal import VCoefficients, frec_optimal, resource_state_fidelity, v_optimal
from pbt_recycling.partitions import frame_count, frame_table, ln_schur_weyl_probability, partitions_bounded
from pbt_recycling.recycling import frec, frec_values, s_over_sqrt_p, trace_sqrt_povm_signal

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
    record = partitions._point_block(N - 1, d)
    alphas, ranks = record.table, record.ranks
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


@pytest.mark.parametrize("n,d", [(12, 6), (9, 8), (30, 5)])
def test_a_row_gets_the_same_bits_in_any_table(n, d):
    # one row alone, the case a frame block can reach, against the whole table
    table = frame_table(n, d)
    alone = [ln_schur_weyl_probability(table[k: k + 1], d)[0] for k in range(len(table))]
    assert alone == ln_schur_weyl_probability(table, d).tolist()


def test_tables_stay_within_the_entry_count(monkeypatch, spy_on_block_factor):
    # Loader's terms are evaluated at most once per table entry on full frame tables of height >= 2:
    # per call on a table alone, and summed over a sweep, whose blocks share their builds
    evaluations = {}
    bd0, remainder = partitions._bd0, partitions._ln_factorial_remainder

    def bd0_spy(x, n, d):
        evaluations["bd0"] += np.broadcast(x, n).size
        return bd0(x, n, d)

    def remainder_spy(x):
        evaluations["remainder"] += np.size(x)
        return remainder(x)

    entries = []
    monkeypatch.setattr(partitions, "_bd0", bd0_spy)
    monkeypatch.setattr(partitions, "_ln_factorial_remainder", remainder_spy)
    spy_on_block_factor("ln_p", lambda block: entries.append(np.size(block.table)))
    partitions._loader_tables.cache_clear()  # every table alone below builds its tables
    for table, d in [(frame_table(1999, 3), 3), (partitions._frame_tables(range(1, 128), 2)[0], 2)]:
        evaluations.update(bd0=0, remainder=0)
        ln_schur_weyl_probability(table, d)
        assert 0 < evaluations["bd0"] <= np.size(table)
        assert 0 < evaluations["remainder"] <= np.size(table)
    evaluations.update(bd0=0, remainder=0)
    entries.clear()
    frec_values(2, 90, 3)
    assert len(entries) > 3
    assert 0 < evaluations["bd0"] <= sum(entries)
    assert 0 < evaluations["remainder"] <= sum(entries)


def _spy_on_builds(monkeypatch):
    """The (values, distinct box counts) of each Loader deviance build from here on, in a list."""
    builds = []
    bd0 = partitions._bd0

    def spy(x, n, d):
        builds.append((np.size(x), len(np.unique(n))))
        return bd0(x, n, d)

    monkeypatch.setattr(partitions, "_bd0", spy)
    partitions._loader_tables.cache_clear()
    return builds


@pytest.mark.parametrize("n_max,d", [(90, 3), (56, 4)])
def test_a_sweep_builds_its_loader_tables_once(monkeypatch, n_max, d):
    # the stacked blocks of a sweep read one build over its box counts, not one each
    builds = _spy_on_builds(monkeypatch)
    frec_values(2, n_max, d)
    assert len(list(partitions._frame_blocks(1, n_max - 1, d))) > 5
    assert builds == [(sum(range(2, n_max + 1)), n_max - 1)]  # lengths 0..m of each m = 1..n_max - 1


def test_blocks_walked_by_hand_share_one_loader_build(monkeypatch):
    # a block carries its Loader chunk, so its ln p reads the chunk's build outside any frame sum too
    builds = _spy_on_builds(monkeypatch)
    blocks = list(partitions._frame_blocks(1, 89, 3))
    for block in blocks:
        block.ln_p
    assert len(blocks) == 6
    assert builds == [(sum(range(2, 91)), 89)]  # lengths 0..m of each m = 1..89


@pytest.mark.parametrize("n_min,n_max,d,block_rows", [(1, 3000, 2, 4096), (2, 90, 3, 64)])
def test_loader_builds_stay_within_a_blocks_entries(monkeypatch, n_min, n_max, d, block_rows):
    # a build over several box counts holds at most the entries a block may hold, and no block builds twice
    monkeypatch.setattr(partitions, "_BLOCK_ROWS", block_rows)
    builds = _spy_on_builds(monkeypatch)
    frec_values(n_min, n_max, d)
    blocks = len(list(partitions._frame_blocks(n_min - 1, n_max - 1, d)))
    assert 1 < len(builds) <= blocks
    assert all(values <= block_rows * d or counts == 1 for values, counts in builds)
    assert max(counts for _, counts in builds) > 1


@pytest.mark.parametrize("N,d", [(2000, 3), (200, 4)])
def test_split_n_builds_its_loader_tables_once(monkeypatch, N, d):
    # every first-part block of a split n holds the same box count, so the blocks share one build
    builds = []
    bd0 = partitions._bd0
    monkeypatch.setattr(partitions, "_bd0", lambda x, n, d: builds.append(np.size(x)) or bd0(x, n, d))
    partitions._loader_tables.cache_clear()
    frec(N, d)
    assert len(list(partitions._frame_blocks(N - 1, N - 1, d))) > 20
    assert builds == [N]  # lengths 0..N - 1 of the one box count N - 1

def _stacked_table(d):
    """Frames of several box counts, zero boxes among them, shuffled: every row shape a block can hold."""
    table, _ = partitions._frame_tables([0, 1, 2, d, 7, 0, 3 * d + 2, 60 // d + 4], d)
    return table[np.random.default_rng(d).permutation(len(table))]


#: Whole frontier tables of N - 1 boxes, by d.
_LARGE_TABLES = {3: 1999, 4: 299, 5: 119}


@pytest.mark.parametrize("d", range(2, 9))
def test_kernel_rows_keep_their_frozen_bits(d):
    # a stacked table, 1-row tables (the empty frame among them) and a frontier table
    table = _stacked_table(d)
    tables = [table, table[:1], table[-1:], np.zeros((1, d), dtype=np.int64)]
    if d in _LARGE_TABLES:
        tables.append(frame_table(_LARGE_TABLES[d], d))
    for t in tables:
        N = t.sum(axis=1) + 1
        assert np.array_equal(ln_schur_weyl_probability(t, d), exact_reference.ln_schur_weyl_probability(t, d))
        assert np.array_equal(s_over_sqrt_p(N, t), exact_reference.s_over_sqrt_p(N, t))
        assert np.array_equal(recycling.height_correction(t, d), exact_reference.height_correction(t, d))


@pytest.mark.parametrize("block_rows", [4096, 64])
@pytest.mark.parametrize("N,d", [(200, 2), (60, 3), (200, 3), (30, 4), (20, 5)])
def test_frec_optimal_keeps_its_frozen_bits(monkeypatch, block_rows, N, d):
    # optimal weights, and random ones that hold a zero, in whole and split walks
    monkeypatch.setattr(partitions, "_BLOCK_ROWS", block_rows)
    assert (len(list(partitions._frame_blocks(N - 1, N - 1, d, extend=True))) > 1) == (block_rows == 64)
    rng = np.random.default_rng(N * d)

    def weights(n):
        w = rng.uniform(0.0, 1.0, frame_count(n, d))
        w[rng.integers(len(w))] = 0.0
        return VCoefficients(ports=n, dim=d, entries=w / np.linalg.norm(w))

    for vN, vNm1 in [(v_optimal(N, d), v_optimal(N - 1, d)), (weights(N), weights(N - 1))]:
        frozen = exact_reference.frec_optimal(N, d, vN.entries, vNm1.entries)
        assert frec_optimal(N, d, vN, vNm1).value == frozen


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


@pytest.mark.parametrize("N,d", [(1, 171), (2, 170), (5, 168), (2, 200), (3, 400)])
def test_frec_where_the_ratio_products_overflow_matches_mpmath(N, d):
    # R_i's two products of d - 1 factors leave the float range there, R_i itself does not
    with mpmath.workdps(40):
        assert _rel(frec(N, d).value, _mp_frec(N, d)) <= 1e-13


@pytest.mark.parametrize("d", [*range(2, 9), 120, 140, 149, 150, 151])
def test_kernel_keeps_the_frozen_bits_where_its_products_are_finite(d):
    # R_i's products of d - 1 factors of up to l_0 + 1 first can overflow near
    # (d - 1) log2(l_0 + 1) = 1000, between d = 120 and d = 149 here; while they
    # stay finite, every row keeps the frozen kernel's bits, at every d.  At
    # d = 140 the n = 0, 1 and 3 tables sit below that bound and skip the
    # finiteness test, and the n = 12 table sits above it and takes it
    for n in (0, 1, 3, 12):
        t = frame_table(n, d)
        if d == 140:
            assert ((d - 1) * math.log2(n + d) >= 1000) == (n == 12)
        assert np.array_equal(s_over_sqrt_p(n + 1, t), exact_reference.s_over_sqrt_p(n + 1, t))


@pytest.mark.parametrize("n", [0, 1, 3])
def test_wide_kernel_keeps_the_frozen_bits_where_its_products_are_finite(n):
    # at d = 150 the overflow bound, (d - 1) log2(l_0 + 1) > 1000, says a product may
    # leave the float range, yet every product is finite: the rows keep the frozen kernel's bits
    d = 150
    t = frame_table(n, d)
    assert (d - 1) * math.log2(n + d) > 1000
    assert np.array_equal(s_over_sqrt_p(t.sum(axis=1) + 1, t), exact_reference.s_over_sqrt_p(t.sum(axis=1) + 1, t))


@pytest.mark.parametrize("d", [*range(1, 141), 255, 256, 257, 400, 2317])
def test_column_sums_take_numpys_row_order(d):
    # the kernel sums down the columns of a (d, rows) array in the order numpy sums a row
    # of a (rows, d) table: sequential below 8 terms, eight accumulators up to 128, halves above
    rng = np.random.default_rng(d)
    x = rng.choice([-1.0, 1.0], (37, d)) * 10.0 ** rng.uniform(-6.0, 6.0, (37, d))
    expected = x.sum(axis=1)
    got = partitions._row_order_sum(x.T.copy())
    assert got.tobytes() == expected.tobytes()
    empty = np.zeros((0, d))
    assert partitions._row_order_sum(empty.T.copy()).tobytes() == empty.sum(axis=1).tobytes()


@pytest.mark.parametrize("d", [9, 16, 17, 120, 129, 150])
def test_ln_p_and_c_keep_the_frozen_bits_in_the_pairwise_and_halving_sums(d):
    # from d = 8 on a row's sum runs on eight accumulators, above 128 terms by halves;
    # at n = 20 >= d the full-height rows have c != 1
    sizes = (0, 1, 3, 12, 20) if d < 20 else (0, 1, 3, 12)
    for n in sizes:
        t = frame_table(n, d)
        assert np.array_equal(ln_schur_weyl_probability(t, d), exact_reference.ln_schur_weyl_probability(t, d))
        assert np.array_equal(recycling.height_correction(t, d), exact_reference.height_correction(t, d))
    assert sizes[-1] < d or (recycling.height_correction(frame_table(sizes[-1], d), d) != 1).any()


@pytest.mark.parametrize("d", [2, 3, 5, 9, 17, 129])
def test_kernel_bits_do_not_depend_on_the_table_layout(d):
    # the kernel transposes its input; C and Fortran order, int32 and a strided view give the same bits
    table, _ = partitions._frame_tables([0, 1, 3, 20, 14], d)
    N = table.sum(axis=1) + 1
    layouts = [
        np.asfortranarray(table),
        table.astype(np.int32),
        np.pad(table, ((0, 0), (0, 1)))[:, :d],
    ]
    assert not layouts[2].flags.c_contiguous and not layouts[2].flags.f_contiguous
    expected = [
        ln_schur_weyl_probability(table, d),
        recycling.height_correction(table, d),
        s_over_sqrt_p(N, table),
    ]
    for t in layouts:
        got = [ln_schur_weyl_probability(t, d), recycling.height_correction(t, d), s_over_sqrt_p(N, t)]
        for a, b in zip(got, expected):
            assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("n,d", [(30, 120), (20, 60)])
def test_kernel_holds_a_few_arrays_of_shifted_rows(n, d):
    # l and one reused (d - 1, rows) array of R_i's factors, besides a few rows: not
    # a second copy of the factors, nor one array per pair of columns
    t = frame_table(n, d)
    tracemalloc.start()
    try:
        s_over_sqrt_p(n + 1, t)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * d * len(t) * 8


@pytest.mark.parametrize("block_rows", [4096, 64])
@pytest.mark.parametrize("N,d", [(6, 2), (40, 3), (12, 4)])
def test_held_blocks_keep_the_bits_and_hold_read_only_results(monkeypatch, block_rows, N, d):
    # a cold call, a repeat call on the held blocks and a call after as many other points as the
    # memo holds have evicted them give the same bits; no array a held block holds can be written
    monkeypatch.setattr(partitions, "_BLOCK_ROWS", block_rows)
    rng = np.random.default_rng(N * d)

    def weights(n):
        w = rng.uniform(0.0, 1.0, frame_count(n, d))
        w[rng.integers(len(w))] = 0.0
        return VCoefficients(ports=n, dim=d, entries=w / np.linalg.norm(w))

    pairs = [(v_optimal(N, d), v_optimal(N - 1, d)), (weights(N), weights(N - 1))]
    walks = [(N - 1, False), (N - 1, True), (N, False)]

    def values():
        floats = [frec(N, d).value]
        for vN, vNm1 in pairs:
            floats += [frec_optimal(N, d, vN, vNm1).value, resource_state_fidelity(N, d, vN).value]
        return [x.hex() for x in floats + VCoefficients.uniform(N, d).entries.tolist()]

    def held():
        return [next(partitions._frame_blocks(n, n, d, extend)) for n, extend in walks]

    partitions._point_block.cache_clear()
    cold = values()
    blocks = held()
    assert values() == cold
    whole = [frame_count(n, d) <= block_rows for n, _ in walks]
    assert [a is b for a, b in zip(held(), blocks)] == whole
    for m in range(2, 2 + partitions._MEMO_ENTRIES):  # one-block points (m - 1, d + 1) and (m, d + 1)
        frec_optimal(m, d + 1, VCoefficients.uniform(m, d + 1), VCoefficients.uniform(m - 1, d + 1))
    assert values() == cold
    assert not any(a is b for a, b in zip(held(), blocks))
    exposed = [{"ln_p", "c", "s_over_sqrt_p"}, {"c", "s_over_sqrt_p", "rank_lines"}, {"ln_p"}]
    for block, names, kept in zip(blocks, exposed, whole):
        if kept:
            arrays = {name: a for name, a in vars(block).items() if isinstance(a, np.ndarray)}
            assert names <= arrays.keys()
            for a in arrays.values():
                with pytest.raises(ValueError, match="read-only"):
                    a *= 1


@pytest.mark.parametrize("N,d", [(20, 60), (25, 120)])
def test_a_held_block_keeps_no_array_of_shifted_rows(N, d):
    # the held block keeps its table, one copy of its extension ranks and a
    # few rows: no (d, rows) float array, such as the shifted rows
    rng = np.random.default_rng(N)

    def weights(n):
        w = rng.uniform(0.1, 1.0, frame_count(n, d))
        return VCoefficients(ports=n, dim=d, entries=w / np.linalg.norm(w))

    vN, vNm1 = weights(N), weights(N - 1)
    partitions._point_block.cache_clear()
    tracemalloc.start()
    try:
        frec_optimal(N, d, vN, vNm1)
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    block = next(partitions._frame_blocks(N - 1, N - 1, d, extend=True))
    arrays = [a for a in vars(block).values() if isinstance(a, np.ndarray)]
    assert {"c", "s_over_sqrt_p", "rank_lines"} <= vars(block).keys()
    assert not any(a.ndim == 2 and a.dtype.kind == "f" for a in arrays)
    assert kept < 2.5 * d * len(block.table) * 8


@pytest.mark.parametrize("N,d", [(20, 60), (3, 3)])
def test_a_block_holds_its_extension_ranks_once(N, d):
    # ranks is a (rows, d) view of the rank lines, not a second copy
    partitions._point_block.cache_clear()
    block = partitions._point_block(N - 1, d)
    assert block.ranks.shape == (len(block.table), d) and block.rank_lines.flags.c_contiguous
    assert np.shares_memory(block.ranks, block.rank_lines)
    block.c, block.s_over_sqrt_p
    tables = [a for a in vars(block).values() if isinstance(a, np.ndarray) and a.ndim == 2]
    assert len(tables) == 2 and tables[0] is block.table and tables[1] is block.rank_lines


@pytest.mark.parametrize("N,d", [(2, 10000), (5, 3000)])
def test_s_over_sqrt_p_stops_at_the_frames_height(N, d):
    # a block of frames h high takes R_i for i <= h only: the rest are exactly 0
    partitions._point_block.cache_clear()
    start = time.perf_counter()
    frec(N, d)
    assert time.perf_counter() - start < 0.5


@pytest.mark.parametrize("N,d", [(3, 3), (2, 4), (40, 3), (12, 4)])
def test_a_point_holds_one_block_and_computes_its_factors_once(spy_on_block_factor, N, d):
    # frec, the trace and frec_optimal at one point read one held block, whatever the walk asks
    # of it, so c and S/sqrt(p) are each computed once; a repeat computes neither again
    computed = []
    for name in ("c", "s_over_sqrt_p"):
        spy_on_block_factor(name, lambda block, _name=name: computed.append(_name))
    vN, vNm1 = VCoefficients.uniform(N, d), VCoefficients.uniform(N - 1, d)
    partitions._point_block.cache_clear()
    for n in (N - 1, N):
        assert frame_count(n, d) <= partitions._BLOCK_ROWS
        assert next(partitions._frame_blocks(n, n, d)) is next(partitions._frame_blocks(n, n, d, True))
    for _ in range(2):
        frec(N, d)
        trace_sqrt_povm_signal(N, d)
        frec_optimal(N, d, vN, vNm1)
    assert sorted(computed) == ["c", "s_over_sqrt_p"]


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


# -- one frame walk behind every closed form ---------------------------------------


@pytest.mark.parametrize("N,d", [(14, 3), (10, 4), (9, 5), (7, 6)])
def test_split_frame_walks_give_the_same_bits(monkeypatch, N, d):
    # every walker user, with each N's frames in one block and split into runs of first parts
    rng = np.random.default_rng(N * d)

    def weights(n):
        w = rng.uniform(0.0, 1.0, frame_count(n, d))
        w[rng.integers(len(w))] = 0.0
        return VCoefficients(ports=n, dim=d, entries=w / np.linalg.norm(w))

    wN, wNm1 = weights(N), weights(N - 1)

    def values():
        vN, vNm1 = v_optimal(N, d), v_optimal(N - 1, d)
        floats = [
            frec(N, d).value,
            trace_sqrt_povm_signal(N, d),
            *frec_values(1, N, d),
            frec_optimal(N, d, vN, vNm1).value,
            frec_optimal(N, d, wN, wNm1).value,
            resource_state_fidelity(N, d, vN).value,
            resource_state_fidelity(N, d, wN).value,
        ]
        arrays = [VCoefficients.uniform(N, d).entries, optimal._perron_weights(N, d), vN.entries, vNm1.entries]
        return floats, arrays

    whole = values()
    monkeypatch.setattr(partitions, "_BLOCK_ROWS", 2)
    assert len(list(partitions._frame_blocks(N - 1, N - 1, d))) > 2
    split = values()
    assert split[0] == whole[0]
    for a, b in zip(split[1], whole[1]):
        np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("N,d", [(200, 3), (60, 4)])
def test_small_blocks_split_only_between_first_parts(monkeypatch, N, d):
    # the run sums of ``_frame_sums`` are the same in any block layout because no block splits a first part
    rng = np.random.default_rng(N + d)

    def weights(n):
        w = rng.uniform(0.0, 1.0, frame_count(n, d))
        w[rng.integers(len(w))] = 0.0
        return VCoefficients(ports=n, dim=d, entries=w / np.linalg.norm(w))

    wN, wNm1 = weights(N), weights(N - 1)

    def values():
        vN, vNm1 = v_optimal(N, d), v_optimal(N - 1, d)
        floats = [
            frec(N, d).value,
            trace_sqrt_povm_signal(N, d),
            *frec_values(N - 8, N, d),
            frec_optimal(N, d, vN, vNm1).value,
            frec_optimal(N, d, wN, wNm1).value,
            resource_state_fidelity(N, d, vN).value,
            resource_state_fidelity(N, d, wN).value,
        ]
        return floats, VCoefficients.uniform(N, d).entries

    whole = values()
    monkeypatch.setattr(partitions, "_BLOCK_ROWS", 64)
    for n in (N - 1, N):
        for extend in (False, True):
            blocks = list(partitions._frame_blocks(n, n, d, extend))
            assert len(blocks) > 4
            np.testing.assert_array_equal(np.concatenate([b.table for b in blocks]), frame_table(n, d))
            for before, after in zip(blocks, blocks[1:]):
                assert before.table[-1, 0] > after.table[0, 0]  # a boundary falls between first parts
    split = values()
    assert split[0] == whole[0]
    np.testing.assert_array_equal(split[1], whole[1])


@pytest.mark.parametrize("d,n_max", [(2, 300), (3, 60), (4, 30)])
def test_frame_sums_equal_fsum_of_the_run_sums_in_table_order(monkeypatch, d, n_max):
    # fsum takes an n's run sums largest first, a split n's from all its blocks; it rounds their
    # exact sum once, so each value is fsum's over the run sums in table order, bit for bit
    def term(block):
        return np.exp(block.ln_p) * (1.0 + block.table[:, 0])

    monkeypatch.setattr(partitions, "_BLOCK_ROWS", 64)
    assert frame_count(n_max, d) > 64  # the last n is split by first part
    expected = []
    for n in range(1, n_max + 1):
        block = partitions._Block(frame_table(n, d), runs=partitions._run_starts(frame_table(n, d)))
        expected.append(math.fsum(np.add.reduceat(term(block), block.runs).tolist()))
    assert partitions._frame_sums(1, n_max, d, term) == expected
