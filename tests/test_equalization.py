import sys
import threading

import numpy as np
import pytest
from helpers import dense_llrs
from test_channel import BAND_CASES, band_to_dense, delay_channel

from otfsim import equalization
from otfsim._kernels import band_cholesky, band_solve
from otfsim.channel import (
    ChannelRealization,
    PathTap,
    apply_channel_operator,
    apply_channel_operator_adjoint,
    build_channel_matrix,
    gram_matrix,
    load_profile,
    sample_channel,
)
from otfsim.equalization import (
    LLR_CHUNK,
    VAR_FLOOR,
    EqualizedFrame,
    _diagonal_noise_vars,
    _factor,
    _lower_band,
    _probed_noise_vars,
    _sign_probes,
    compute_llrs,
    fold_order,
    lmmse_equalize,
    single_tap_equalize,
)
from otfsim.grid import desk_scale_params
from otfsim.mapping import by_name, qpsk
from otfsim.transforms import GridTransform


def random_channel(rng, m, n, n_taps=3):
    taps = []
    seen = set()
    while len(taps) < n_taps:
        l = int(rng.integers(0, min(4, m)))
        k = int(rng.integers(-2, 3))
        if (l, k) in seen:
            continue
        seen.add((l, k))
        g = (rng.standard_normal() + 1j * rng.standard_normal()) / np.sqrt(2)
        taps.append(PathTap(g, l, k))
    return ChannelRealization(tuple(taps), m, n)


def explicit_mmse(h, a, noise_var, r):
    """Direct textbook evaluation on dense matrices."""
    g = h @ a
    core = np.linalg.solve(g @ g.conj().T + noise_var * np.eye(g.shape[0]), r)
    return g.conj().T @ core


def combiner_row_vars(ch, t, noise_var):
    """noise_var times the squared row norms of the explicit combiner."""
    g = build_channel_matrix(ch) @ t.dense()
    w = g.conj().T @ np.linalg.inv(g @ g.conj().T + noise_var * np.eye(t.size))
    return noise_var * np.sum(np.abs(w) ** 2, axis=1)


def distinct_delays(ch):
    return np.unique(ch.delay_bins % ch.block_len).size


def test_scalar_closed_form():
    # one flat tap h: x_hat = conj(h) r / (|h|^2 + rho)
    h = 0.6 - 0.8j
    ch = ChannelRealization((PathTap(h, 0, 0),), 4, 2)
    t = GridTransform(4, 2, "otfs")
    x = np.ones(8, dtype=complex)
    r = apply_channel_operator(ch, t.apply(x))
    out = lmmse_equalize(r, ch, t, noise_var=0.5)
    expect = np.conj(h) * h / (abs(h) ** 2 + 0.5)
    np.testing.assert_allclose(out.symbols, expect * x, atol=1e-12)
    # output noise: sigma^2 |h|^2 / (|h|^2 + rho)^2 on every symbol
    expect_var = 0.5 * abs(h) ** 2 / (abs(h) ** 2 + 0.5) ** 2
    np.testing.assert_allclose(out.noise_vars, expect_var, atol=1e-12)


@pytest.mark.parametrize("kind", ["otfs", "block_ofdm"])
def test_matches_explicit_formula(kind):
    rng = np.random.default_rng(1)
    m, n = 8, 4
    ch = random_channel(rng, m, n)
    t = GridTransform(m, n, kind)
    r = rng.standard_normal(32) + 1j * rng.standard_normal(32)
    out = lmmse_equalize(r, ch, t, noise_var=0.3)
    expect = explicit_mmse(build_channel_matrix(ch), t.dense(), 0.3, r)
    np.testing.assert_allclose(out.symbols, expect, atol=1e-10)


def test_dense_noise_vars_match_combiner_rows():
    rng = np.random.default_rng(2)
    m, n = 8, 4
    ch = random_channel(rng, m, n)
    assert distinct_delays(ch) >= 2  # takes the identity probes
    t = GridTransform(m, n, "otfs")
    out = lmmse_equalize(np.zeros(32), ch, t, noise_var=0.2)
    np.testing.assert_allclose(out.noise_vars, combiner_row_vars(ch, t, 0.2), atol=1e-12)


@pytest.mark.parametrize("m, n", [(8, 4), (16, 8)])
@pytest.mark.parametrize("kind", ["otfs", "block_ofdm"])
def test_identity_probes_match_combiner_rows(kind, m, n):
    # below the exact limit a multi-delay estimate is probed with Z = I
    rng = np.random.default_rng(m * n)
    ch = random_channel(rng, m, n, n_taps=4)
    assert distinct_delays(ch) >= 2
    t = GridTransform(m, n, kind)
    out = lmmse_equalize(np.zeros(m * n), ch, t, noise_var=0.2)
    np.testing.assert_allclose(
        out.noise_vars, combiner_row_vars(ch, t, 0.2), rtol=1e-12
    )


@pytest.mark.parametrize("kind", ["otfs", "block_ofdm"])
def test_diagonal_noise_vars_match_dense_on_desk_draws(kind):
    params = desk_scale_params()
    profile = load_profile("tdl_a", 37e-9)
    rng = np.random.default_rng(11)
    t = GridTransform(params.num_delay_bins, params.num_doppler_bins, kind)
    for _ in range(10):
        ch = sample_channel(profile, params, 2779.7, rng)
        assert distinct_delays(ch) == 1
        nv = 10 ** rng.uniform(-3, 0)
        lu = _factor(ch, nv)
        exact = _probed_noise_vars(ch, t, lu, nv, np.eye(t.size))
        np.testing.assert_allclose(_diagonal_noise_vars(ch, t, lu, nv), exact, rtol=1e-12)
        out = lmmse_equalize(np.zeros(t.size), ch, t, nv)
        np.testing.assert_allclose(out.noise_vars, exact, rtol=1e-12)


def test_single_delay_skips_the_dense_path(monkeypatch):
    def dense_path(*args):
        raise AssertionError("probe variances computed for a single-delay estimate")

    monkeypatch.setattr(equalization, "_probed_noise_vars", dense_path)
    # the exact identity pass is the only forward operator call in the equalizer
    monkeypatch.setattr(equalization.chan, "apply_channel_operator", dense_path)
    ch = ChannelRealization((PathTap(0.8, 2, 1), PathTap(0.3j, 34, 0)), 8, 4)
    out = lmmse_equalize(np.zeros(32), ch, GridTransform(8, 4, "otfs"), 0.1)
    assert np.all(out.noise_vars > 0)


@pytest.mark.parametrize("kind", ["otfs", "block_ofdm"])
def test_single_nonzero_delay_matches_combiner_rows(kind):
    # two Dopplers on delay 3: H = diag(c) P^3 with a non-constant c
    taps = (PathTap(0.8 - 0.3j, 3, 1), PathTap(-0.4 + 0.5j, 3, -2))
    ch = ChannelRealization(taps, 8, 4)
    t = GridTransform(8, 4, kind)
    out = lmmse_equalize(np.zeros(32), ch, t, noise_var=0.15)
    np.testing.assert_allclose(
        out.noise_vars, combiner_row_vars(ch, t, 0.15), rtol=1e-12
    )
    assert np.ptp(out.noise_vars) > 0.1 * out.noise_vars.max()


@pytest.mark.parametrize("kind", ["otfs", "block_ofdm"])
def test_single_delay_above_the_exact_limit_stays_exact(monkeypatch, kind):
    # a frame larger than the limit with one delay keeps the closed form
    def probes(*args):
        raise AssertionError("sign probes ran for a single-delay estimate")

    monkeypatch.setattr(equalization, "EXACT_VARIANCE_LIMIT", 16)
    monkeypatch.setattr(equalization, "_probed_noise_vars", probes)
    taps = (PathTap(0.8 - 0.3j, 3, 1), PathTap(-0.4 + 0.5j, 3, -2))
    ch = ChannelRealization(taps, 8, 4)
    t = GridTransform(8, 4, kind)
    out = lmmse_equalize(np.zeros(32), ch, t, noise_var=0.15)
    np.testing.assert_allclose(
        out.noise_vars, combiner_row_vars(ch, t, 0.15), rtol=1e-12
    )


def test_zero_gain_tap_gets_the_dense_floor():
    # noiseless and zero gain: only the ridge keeps the system solvable,
    # and every cell gets the variance floor rather than 0 / 0
    ch = ChannelRealization((PathTap(0.0, 0, 0),), 8, 4)
    t = GridTransform(8, 4, "otfs")
    with pytest.warns(RuntimeWarning, match="^equalizer system singular"):
        out = lmmse_equalize(np.ones(32), ch, t, noise_var=0.0)
        lu = _factor(ch, 0.0)
    assert np.all(np.isfinite(out.noise_vars))
    np.testing.assert_array_equal(
        out.noise_vars, _probed_noise_vars(ch, t, lu, 0.0, np.eye(32))
    )


def test_zero_forcing_limit():
    # vanishing noise: the equalizer inverts the channel
    rng = np.random.default_rng(3)
    m, n = 8, 4
    ch = random_channel(rng, m, n)
    t = GridTransform(m, n, "otfs")
    x = rng.standard_normal(32) + 1j * rng.standard_normal(32)
    r = apply_channel_operator(ch, t.apply(x))
    out = lmmse_equalize(r, ch, t, noise_var=1e-12)
    np.testing.assert_allclose(out.symbols, x, atol=1e-6)


def test_stochastic_variances_track_exact():
    # frames this small get exact variances (Z = I); the sign probes that
    # larger frames use are passed directly on the same factor
    rng = np.random.default_rng(5)
    m, n = 16, 8
    ch = random_channel(rng, m, n, n_taps=4)
    t = GridTransform(m, n, "otfs")
    exact = lmmse_equalize(np.zeros(128), ch, t, noise_var=0.25).noise_vars
    est = _probed_noise_vars(ch, t, _factor(ch, 0.25), 0.25, _sign_probes(128, 64, 9))
    ratio = est / exact
    assert np.median(np.abs(ratio - 1.0)) < 0.4
    assert abs(np.mean(est) / np.mean(exact) - 1.0) < 0.1


def test_singular_system_retries_with_ridge():
    # noiseless H = I - P annihilates the all-ones vector from the left,
    # so H H^H is singular; an unridged solve blows rounding up to O(10)
    ch = ChannelRealization((PathTap(1.0, 0, 0), PathTap(-1.0, 1, 0)), 8, 4)
    t = GridTransform(8, 4, "otfs")
    with pytest.warns(RuntimeWarning, match="^equalizer system singular"):
        out = lmmse_equalize(np.ones(32), ch, t, noise_var=0.0)
    assert np.all(np.isfinite(out.symbols))
    assert np.abs(out.symbols).max() < 1e-2


def dense_system(ch, rho):
    h = build_channel_matrix(ch)
    return h @ h.conj().T + rho * np.eye(ch.block_len)


def right_hand_sides(rng, n, rows):
    b = rng.standard_normal((rows, n)) + 1j * rng.standard_normal((rows, n))
    return b[0] if rows == 1 else b


def test_fold_order_turns_a_cyclic_band_into_a_plain_one():
    # cyclic neighbours at distance d land at most 2d places apart
    for n in range(1, 70):
        order = fold_order(n)
        assert sorted(order.tolist()) == list(range(n))
        place = np.empty(n, dtype=np.int64)
        place[order] = np.arange(n)
        u = np.arange(n)
        for d in range(n // 2 + 1):
            assert np.abs(place[u] - place[(u + d) % n]).max(initial=0) <= 2 * d


@pytest.mark.parametrize("n, half", [(1, 0), (2, 1), (7, 2), (8, 3), (8, 4), (9, 4), (32, 1), (32, 16)])
def test_lower_band_is_the_fold_ordered_matrix(n, half):
    # any band, not only a Gram band: rows whose offsets are congruent mod
    # n (both ends of a band of width n + 1) must add into one entry
    rng = np.random.default_rng(n * 100 + half)
    band = rng.standard_normal((2 * half + 1, n)) + 1j * rng.standard_normal((2 * half + 1, n))
    order = fold_order(n)
    folded = band_to_dense(band, n)[np.ix_(order, order)]
    ab = _lower_band(band, np.argsort(order))
    assert ab.shape == (min(2 * half, n - 1) + 1, n)
    for r in range(n):
        want = np.diagonal(folded, -r)
        got = ab[r, : n - r] if r < ab.shape[0] else np.zeros(n - r)
        np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("rows", [1, 9])
@pytest.mark.parametrize("case", sorted(BAND_CASES))
def test_band_factor_solves_like_dense(case, rows):
    ch = BAND_CASES[case]
    n, rho = ch.block_len, 0.1
    k = dense_system(ch, rho)
    np.testing.assert_allclose(
        band_to_dense(gram_matrix(ch), n) + rho * np.eye(n), k, atol=1e-12
    )
    b = right_hand_sides(np.random.default_rng(31), n, rows)
    want = np.linalg.solve(k, b.T).T
    got = _factor(ch, rho).solve(b)
    assert got.shape == b.shape
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * np.abs(want).max())


@pytest.mark.parametrize("rows", [1, 9])
def test_large_band_factor_solves_the_system(rows):
    # 256x16 with delays 0, 1 and 3: the residual is taken through the
    # operators, since a dense H of 4096 samples is 268 MB
    ch = delay_channel((0, 1, 3), 256, 16, seed=3)
    rho = 0.05
    b = right_hand_sides(np.random.default_rng(32), ch.block_len, rows)
    x = _factor(ch, rho).solve(b)
    kx = apply_channel_operator(ch, apply_channel_operator_adjoint(ch, x)) + rho * x
    np.testing.assert_allclose(kx, b, rtol=0, atol=1e-11)


@pytest.mark.parametrize(
    "taps",
    [(PathTap(0.0, 0, 0),), (PathTap(1.0, 0, 0), PathTap(-1.0, 1, 0))],
    ids=["zero_gain", "one_minus_shift"],
)
def test_ridged_factor_solves_the_ridged_system(taps):
    # noiseless and singular: the factor is of K + ridge I, with the ridge
    # 1e-12 times the largest diagonal entry (at least 1).  K + ridge I of
    # I - P has condition number 4e12, so two backward-stable solves agree
    # only to about 4e12 * eps; the residual is held to rounding instead
    ch = ChannelRealization(taps, 8, 4)
    k = dense_system(ch, 0.0)
    ridged = k + 1e-12 * max(np.abs(np.diag(k)).max(), 1.0) * np.eye(32)
    with pytest.warns(RuntimeWarning, match="^equalizer system singular"):
        factor = _factor(ch, 0.0)
    for rows in (1, 9):
        b = right_hand_sides(np.random.default_rng(33), 32, rows)
        got = factor.solve(b)
        want = np.linalg.solve(ridged, b.T).T
        scale = np.linalg.norm(ridged, 2) * np.abs(got).max()
        np.testing.assert_allclose(got @ ridged.T, b, rtol=0, atol=1e-14 * scale)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-3 * np.abs(want).max())


def test_batched_probes_equal_a_probe_by_probe_loop():
    # the probe rows solved as one block give each 1-D probe's terms, bit
    # for bit, summed in probe order
    ch = delay_channel((0, 1), 256, 16, seed=4)
    nv, probes, seed = 0.07, 8, 12345
    factor = _factor(ch, nv)
    for kind in ("otfs", "block_ofdm"):
        t = GridTransform(256, 16, kind)
        rng = np.random.default_rng(seed)
        acc = np.zeros(t.size)
        for _ in range(probes):
            z = rng.integers(0, 2, size=t.size) * 2.0 - 1.0
            mz = factor.solve(apply_channel_operator(ch, t.apply(z)))
            mhmz = t.adjoint(apply_channel_operator_adjoint(ch, factor.solve(mz)))
            acc += np.real(np.conj(z) * mhmz)
        want = np.maximum(nv * (acc / probes), VAR_FLOOR)
        got = _probed_noise_vars(ch, t, factor, nv, _sign_probes(t.size, probes, seed))
        np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("case", sorted(BAND_CASES))
def test_band_factor_rows_equal_single_solves(case):
    ch = BAND_CASES[case]
    factor = _factor(ch, 0.1)
    b = right_hand_sides(np.random.default_rng(34), ch.block_len, 6)
    for rows in (b, np.asfortranarray(b)):
        got = factor.solve(rows)
        assert got.shape == b.shape
        for j in range(6):
            np.testing.assert_array_equal(got[j], factor.solve(b[j]))
    n = ch.block_len
    for bad in (np.zeros(n - 1), np.zeros((2, n + 1)), np.zeros((2, 2, n))):
        with pytest.raises(ValueError):
            factor.solve(bad)


def band_to_lower(lower, n):
    """The dense lower triangle that a lower band storage holds."""
    dense = np.zeros((n, n), dtype=complex)
    for r in range(lower.shape[0]):
        cols = np.arange(n - r)
        dense[cols + r, cols] = lower[r, : n - r]
    return dense


# fold-order band half-widths 0, 2 and 6 on 16x8 frames, and frames of 4 and
# 5 samples whose band covers the whole matrix (2 L >= n - 1)
KERNEL_CASES = {
    "half_0": (delay_channel((2,), 16, 8), 0),
    "half_2": (delay_channel((0, 1), 16, 8), 2),
    "half_6": (delay_channel((0, 1, 2, 3), 16, 8), 6),
    "full_n4": (delay_channel((0, 1, 2), 2, 2), 3),
    "full_n5": (delay_channel((0, 1, 2), 5, 1), 4),
}


@pytest.mark.parametrize("case", sorted(KERNEL_CASES))
def test_band_kernel_matches_dense_oracle(case):
    ch, half = KERNEL_CASES[case]
    n, rho = ch.block_len, 0.1
    factor = _factor(ch, rho)
    assert factor.lower.shape == (half + 1, n)
    k = dense_system(ch, rho)
    want_lower = np.linalg.cholesky(k[np.ix_(factor.order, factor.order)])
    np.testing.assert_allclose(
        band_to_lower(factor.lower, n), want_lower, rtol=0, atol=1e-13 * np.abs(want_lower).max()
    )
    # 11 rows: one block of eight solved together, then three
    rng = np.random.default_rng(35)
    wide = rng.standard_normal((11, 2 * n)) + 1j * rng.standard_normal((11, 2 * n))
    inputs = {
        "one row": wide[0, :n].copy(),
        "strided row": wide[0, ::2],
        "rows": np.ascontiguousarray(wide[:, :n]),
        "F-ordered rows": np.asfortranarray(wide[:, :n]),
        "strided rows": wide[::2, ::2],
    }
    for name, b in inputs.items():
        want = np.linalg.solve(k, np.atleast_2d(b).T).T.reshape(b.shape)
        got = factor.solve(b)
        assert got.shape == b.shape, name
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * np.abs(want).max(), err_msg=name)


@pytest.mark.parametrize("m, n", [(16, 8), (64, 16)])
def test_one_sample_band_rounds_as_reciprocal_products(m, n):
    # a band of half-width 0: each pivot is the square root of its diagonal
    # entry, and the solve multiplies by the pivot's reciprocal twice; that
    # is how LAPACK's zpbtrs rounds, and b / (l * l) rounds otherwise
    ch = delay_channel((3,), m, n, seed=6)
    rho = 0.07
    factor = _factor(ch, rho)
    band = gram_matrix(ch)
    band[0] += rho
    ab = _lower_band(band, factor.place)
    np.testing.assert_array_equal(factor.lower, np.sqrt(ab.real) + 0j)
    assert not np.signbit(factor.lower.imag).any()
    pivots = factor.lower[0].real[factor.place]
    b = right_hand_sides(np.random.default_rng(36), ch.block_len, 3)
    want = b * (1 / pivots) * (1 / pivots)
    np.testing.assert_array_equal(factor.solve(b), want)
    np.testing.assert_array_equal(factor.solve(b[1]), want[1])
    assert not np.array_equal(b / (pivots * pivots), want)  # the test tells the two apart


def test_indefinite_system_takes_the_ridge_path():
    # two taps that cancel leave K = rho I; below zero it is not positive
    # definite, and the factor stops at its first column
    taps = (PathTap(1.0, 0, 0), PathTap(-1.0, 0, 0))
    ch = ChannelRealization(taps, 8, 4)
    with pytest.raises(np.linalg.LinAlgError, match="column 0"):
        band_cholesky(np.full((1, 32), -1e-14 + 0j))
    # the ridge (1e-12 here) makes a slightly indefinite system definite ...
    with pytest.warns(RuntimeWarning, match="^equalizer system singular"):
        factor = _factor(ch, -1e-14)
    np.testing.assert_allclose(factor.solve(np.ones(32)), 1 / (1e-12 - 1e-14), rtol=1e-12)
    # ... and a system that stays indefinite is an error, not a factor
    with pytest.warns(RuntimeWarning, match="^equalizer system singular"):
        with pytest.raises(np.linalg.LinAlgError):
            _factor(ch, -2.0)


def test_band_cholesky_leaves_its_input_and_names_the_column():
    ab = np.array([[4.0, 1.0, -1.0, 1.0], [0.5, 0.5, 0.5, 0.0]], dtype=complex)
    kept = ab.copy()
    with pytest.raises(np.linalg.LinAlgError, match="column 2"):
        band_cholesky(ab)
    np.testing.assert_array_equal(ab, kept)


def test_concurrent_band_solves_agree():
    # the C solve releases the interpreter lock, so threads solve at once;
    # each solves its own rows, which a shared scratch would mix up
    ch = delay_channel((0, 1, 3), 64, 16, seed=5)
    factor = _factor(ch, 0.05)
    workers = 4  # more than the cores of a small host
    blocks = [right_hand_sides(np.random.default_rng(40 + w), ch.block_len, 11) for w in range(workers)]
    want = [factor.solve(b) for b in blocks]
    start = threading.Barrier(workers, timeout=60)
    results = [[] for _ in range(workers)]

    def work(slot):
        start.wait()
        for _ in range(5):
            results[slot].append(factor.solve(blocks[slot]))

    threads = [threading.Thread(target=work, args=(w,)) for w in range(workers)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
            assert not t.is_alive()
    finally:
        sys.setswitchinterval(interval)
    for got, expected in zip(results, want):
        assert len(got) == 5
        for x in got:
            np.testing.assert_array_equal(x, expected)


def test_band_solve_rejects_mismatched_shapes():
    factor = _factor(delay_channel((0, 1), 4, 2), 0.1)
    with pytest.raises(ValueError):
        band_solve(factor.lower[:, :-1], factor.order, np.zeros(8))
    with pytest.raises(ValueError):
        band_solve(factor.lower[:0], factor.order, np.zeros(8))
    with pytest.raises(ValueError):
        band_solve(factor.lower, factor.order + 1, np.zeros(8))


@pytest.mark.parametrize("probes", [0, -3])
def test_variance_probes_below_one_are_rejected(probes):
    ch = ChannelRealization((PathTap(1.0, 0, 0),), 4, 2)
    with pytest.raises(ValueError, match="variance_probes"):
        lmmse_equalize(np.zeros(8), ch, GridTransform(4, 2, "otfs"), 0.1, probes)


def test_mode_and_shape_validation():
    ch = ChannelRealization((PathTap(1.0, 0, 0),), 4, 2)
    t = GridTransform(4, 2, "otfs")
    with pytest.raises(ValueError):
        lmmse_equalize(np.zeros(7), ch, t, 0.1)
    with pytest.raises(ValueError):
        lmmse_equalize(np.zeros(8), ch, GridTransform(4, 4, "otfs"), 0.1)
    with pytest.raises(ValueError):
        lmmse_equalize(np.zeros(8), ch, t, -0.1)


def test_single_tap_division_and_noise():
    y = np.array([[2.0 + 2.0j, 1.0]], dtype=complex)
    h = np.array([[2.0, 0.5j]], dtype=complex)
    out = single_tap_equalize(y, h, noise_var=0.1)
    np.testing.assert_allclose(out.symbols, [1.0 + 1.0j, -2.0j])
    np.testing.assert_allclose(out.noise_vars, [0.1 / 4.0, 0.1 / 0.25])
    assert not out.erasures.any()


def test_faded_cells_become_erasures():
    y = np.array([1.0 + 1.0j, 3.0 + 2.0j], dtype=complex)
    h = np.array([1e-15, 1.0], dtype=complex)
    out = single_tap_equalize(y, h, noise_var=0.1)
    assert out.erasures.tolist() == [True, False]
    assert out.symbols[0] == 0.0
    assert out.noise_vars[0] == 1.0
    llrs = compute_llrs(out, qpsk())
    np.testing.assert_array_equal(llrs[0], 0.0)
    assert (llrs[1] != 0).all()


def test_llr_frozen_qpsk_example():
    # symbol exactly on the bits-(0,0) point, noise 0.5: the competing
    # bit-1 point sits sqrt(2) away on each axis, so both LLRs are
    # (2 - 0) / 0.5 = +4, positive favouring bit 0
    const = qpsk()
    x0 = const.map_bits(np.array([0, 0]))
    assert x0[0] == pytest.approx((-1 - 1j) / np.sqrt(2))
    eq = EqualizedFrame(x0, np.array([0.5]))
    np.testing.assert_allclose(compute_llrs(eq, const), [[4.0, 4.0]], atol=1e-12)


def test_llrs_scale_inversely_with_noise():
    rng = np.random.default_rng(6)
    const = by_name("16qam")
    sym = rng.standard_normal(20) + 1j * rng.standard_normal(20)
    a = compute_llrs(EqualizedFrame(sym, np.full(20, 0.5)), const)
    b = compute_llrs(EqualizedFrame(sym, np.full(20, 0.25)), const)
    np.testing.assert_allclose(b, 2.0 * a, atol=1e-9)


def test_llr_sign_recovers_transmitted_bits():
    rng = np.random.default_rng(7)
    const = by_name("16qam")
    bits = rng.integers(0, 2, 400)
    sym = const.map_bits(bits)
    noisy = sym + 0.05 * (rng.standard_normal(100) + 1j * rng.standard_normal(100))
    llrs = compute_llrs(EqualizedFrame(noisy, np.full(100, 0.005)), const)
    hard = (llrs.ravel() < 0).astype(int)
    np.testing.assert_array_equal(hard, bits)


def test_equalized_frame_validation():
    with pytest.raises(ValueError):
        EqualizedFrame(np.zeros(3), np.zeros(2))
    with pytest.raises(ValueError):
        EqualizedFrame(np.zeros(2), np.array([1.0, 0.0]))
    with pytest.raises(ValueError):
        EqualizedFrame(np.zeros(2), np.array([1.0, np.inf]))


def test_perturbing_the_equalizer_never_helps():
    # the computed matrix minimizes mean squared symbol error, so any
    # perturbed variant must do worse on a common set of noise draws
    rng = np.random.default_rng(8)
    m, n = 8, 8
    ch = random_channel(rng, m, n)
    t = GridTransform(m, n, "otfs")
    g = build_channel_matrix(ch) @ t.dense()
    nv = 0.1
    w = g.conj().T @ np.linalg.inv(g @ g.conj().T + nv * np.eye(m * n))
    draws = 1000
    x = (rng.standard_normal((m * n, draws)) + 1j * rng.standard_normal((m * n, draws))) / np.sqrt(2)
    noise = np.sqrt(nv / 2) * (
        rng.standard_normal((m * n, draws)) + 1j * rng.standard_normal((m * n, draws))
    )
    r = g @ x + noise
    base = np.mean(np.abs(w @ r - x) ** 2)
    for _ in range(10):
        d = rng.standard_normal(w.shape) + 1j * rng.standard_normal(w.shape)
        d *= 0.1 * np.linalg.norm(w) / np.linalg.norm(d)
        assert np.mean(np.abs((w + d) @ r - x) ** 2) > base


def test_llrs_invariant_under_common_rescaling():
    # scaling symbols and constellation by c and variances by c^2 is a
    # pure change of units
    rng = np.random.default_rng(9)
    const = by_name("16qam")
    sym = rng.standard_normal(50) + 1j * rng.standard_normal(50)
    nv = 10 ** rng.uniform(-2, 0, 50)
    base = compute_llrs(EqualizedFrame(sym, nv), const)
    c = 3.7
    scaled_const = type(const)(const.name, const.points * c, const.bits)
    scaled = compute_llrs(EqualizedFrame(sym * c, nv * c * c), scaled_const)
    np.testing.assert_allclose(scaled, base, atol=1e-12)


def test_llr_signs_match_nearest_point_decisions():
    # for any input, per-bit signs agree with the minimum-distance symbol
    rng = np.random.default_rng(10)
    const = by_name("16qam")
    sym = 1.5 * (rng.standard_normal(500) + 1j * rng.standard_normal(500))
    llrs = compute_llrs(EqualizedFrame(sym, np.full(500, 0.3)), const)
    hard = (llrs.ravel() < 0).astype(np.uint8)
    np.testing.assert_array_equal(hard, const.hard_bits(sym))


@pytest.mark.parametrize("name", ["qpsk", "16qam", "64qam"])
@pytest.mark.parametrize("n", [LLR_CHUNK - 1, LLR_CHUNK, 2 * LLR_CHUNK + 1])
def test_chunked_llrs_equal_the_dense_table(name, n):
    # chunk edges on both sides of a boundary, erasures in several chunks
    rng = np.random.default_rng(n)
    const = by_name(name)
    sym = 1.2 * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
    nv = 10 ** rng.uniform(-3, 0, n)
    erased = rng.random(n) < 0.05
    llrs = compute_llrs(EqualizedFrame(sym, nv, erased), const)
    assert llrs.tobytes() == dense_llrs(sym, nv, erased, const).tobytes()


def test_concurrent_llrs_keep_their_own_tables():
    # each thread keeps its distance tables between calls; frames of
    # different sizes and constellations, computed at once, must not share them
    rng = np.random.default_rng(41)
    jobs = []
    for name, n in (("qpsk", 300), ("16qam", 985), ("64qam", LLR_CHUNK + 7), ("16qam", 5)):
        sym = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        jobs.append((EqualizedFrame(sym, np.full(n, 0.2)), by_name(name)))
    want = [dense_llrs(eq.symbols, eq.noise_vars, eq.erasures, c) for eq, c in jobs]
    start = threading.Barrier(len(jobs), timeout=60)
    results = [[] for _ in jobs]

    def work(slot):
        start.wait()
        for _ in range(20):
            results[slot].append(compute_llrs(*jobs[slot]))

    threads = [threading.Thread(target=work, args=(w,)) for w in range(len(jobs))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
            assert not t.is_alive()
    finally:
        sys.setswitchinterval(interval)
    for got, expected in zip(results, want):
        assert len(got) == 20
        for llrs in got:
            assert llrs.tobytes() == expected.tobytes()
