import os
import subprocess
import sys

import numpy as np
import pytest
from helpers import identity_channel, max_delay_bin, ramp_diagonals, tf_response

import otfsim
from otfsim.channel import (
    RAMP_BLOCK,
    ChannelRealization,
    PathTap,
    TdlProfile,
    apply_channel,
    apply_channel_operator,
    apply_channel_operator_adjoint,
    build_channel_matrix,
    delay_bin_bound,
    doppler_bin_bound,
    gram_matrix,
    load_profile,
    sample_channel,
)
from otfsim.grid import FrameParams, desk_scale_params, full_scale_params
from otfsim.transforms import add_cp, remove_cp

DESK = desk_scale_params()
FULL = full_scale_params()
NU_500KMPH_6GHZ = (500.0 / 3.6) * 6e9 / 299792458.0  # about 2779.7 Hz


def band_to_dense(band, n):
    """The n-by-n matrix of a cyclic band: row L + d holds diagonal d, and
    rows whose offsets are congruent mod n add into the same entries."""
    half = band.shape[0] // 2
    dense = np.zeros((n, n), dtype=complex)
    rows = np.arange(n)
    for d in range(-half, half + 1):
        dense[rows, (rows + d) % n] += band[half + d]
    return dense


def delay_channel(delays, m, n, seed=0):
    """Two Doppler taps on each of the given delays, with random gains."""
    rng = np.random.default_rng(seed)
    taps = tuple(
        PathTap(complex(*rng.standard_normal(2)), l, k) for l in delays for k in (1, -2)
    )
    return ChannelRealization(taps, m, n)


# small cases held to a dense H H^H; the names say what each exercises
BAND_CASES = {
    "one_delay": delay_channel((3,), 8, 4),
    "wrap_0_31": delay_channel((0, 31), 8, 4),
    "wide_0_15": delay_channel((0, 15), 8, 4),
    "width_n_0_16": delay_channel((0, 16), 8, 4),
    "width_n_2x1": delay_channel((0, 1), 2, 1),
    "delay_past_n": delay_channel((0, 3, 34), 8, 4),
}


def small_channel():
    taps = (
        PathTap(0.8 - 0.1j, 0, 0),
        PathTap(0.3 + 0.2j, 2, 1),
        PathTap(-0.15 + 0.25j, 3, -2),
    )
    return ChannelRealization(taps, 8, 4)


def test_profile_normalization_and_length():
    p = load_profile("tdl_a", 37e-9)
    assert p.normalized_delays.size == 23
    assert p.linear_powers.sum() == pytest.approx(1.0)
    assert p.normalized_delays.max() == pytest.approx(9.6586)
    assert p.delays_s.max() == pytest.approx(9.6586 * 37e-9)
    # strongest tap is the first nonzero-delay one, not the LOS-like first
    assert int(p.linear_powers.argmax()) == 1


def test_profile_validation():
    with pytest.raises(ValueError):
        TdlProfile("bad", np.array([0.0, 1.0]), np.array([0.0]), 1e-9)
    with pytest.raises(ValueError):
        TdlProfile("bad", np.array([-1.0]), np.array([0.0]), 1e-9)
    with pytest.raises(ValueError):
        TdlProfile("bad", np.array([0.0]), np.array([0.0]), -1.0)


def test_bin_bounds_at_both_scales():
    p = load_profile("tdl_a", 37e-9)
    assert doppler_bin_bound(NU_500KMPH_6GHZ, DESK) == 3
    assert doppler_bin_bound(NU_500KMPH_6GHZ, FULL) == 24
    assert delay_bin_bound(p, DESK) == 1
    assert delay_bin_bound(p, FULL) == 3
    # exact integer products must not round up
    assert doppler_bin_bound(2.0 / DESK.frame_duration_s, DESK) == 2


def test_sampled_taps_respect_bounds():
    p = load_profile("tdl_a", 37e-9)
    rng = np.random.default_rng(11)
    for _ in range(50):
        ch = sample_channel(p, FULL, NU_500KMPH_6GHZ, rng)
        assert ch.delay_bins.min() >= 0
        assert max_delay_bin(ch) <= delay_bin_bound(p, FULL)
        assert np.abs(ch.doppler_bins).max() <= doppler_bin_bound(NU_500KMPH_6GHZ, FULL)
        assert len(set(zip(ch.delay_bins, ch.doppler_bins))) == len(ch.taps)


def test_desk_scale_quantizes_all_delays_to_zero():
    # 357 ns of spread is a third of a sample at 960 kHz
    p = load_profile("tdl_a", 37e-9)
    rng = np.random.default_rng(12)
    ch = sample_channel(p, DESK, NU_500KMPH_6GHZ, rng)
    assert max_delay_bin(ch) == 0


def test_colliding_taps_merge_by_gain_sum():
    p = TdlProfile("two", np.array([0.0, 1e-3]), np.array([0.0, 0.0]), 1e-9)
    rng = np.random.default_rng(13)
    ch = sample_channel(p, DESK, 0.0, rng)
    assert len(ch.taps) == 1
    assert ch.taps[0].delay_bin == 0 and ch.taps[0].doppler_bin == 0
    # total mean power is preserved in expectation; check the one draw
    rng2 = np.random.default_rng(13)
    g = rng2.standard_normal((2, 2))
    expect = np.sqrt(0.25) * ((g[0, 0] + g[1, 0]) + 1j * (g[0, 1] + g[1, 1]))
    assert ch.taps[0].gain == pytest.approx(expect)


def test_sample_channel_rejects_out_of_range():
    p = load_profile("tdl_a", 37e-9)
    with pytest.raises(ValueError):
        sample_channel(p, DESK, -1.0, np.random.default_rng(0))
    with pytest.raises(ValueError):
        # Doppler at half the bin count is no longer representable
        sample_channel(p, DESK, 8.0 / DESK.frame_duration_s, np.random.default_rng(0))
    long_p = TdlProfile("long", np.array([0.0, 70.0]), np.array([0.0, 0.0]), 1e-6)
    with pytest.raises(ValueError):
        sample_channel(long_p, DESK, 0.0, np.random.default_rng(0))


def test_operator_matches_dense_matrix():
    ch = small_channel()
    h = build_channel_matrix(ch)
    rng = np.random.default_rng(14)
    v = rng.standard_normal(32) + 1j * rng.standard_normal(32)
    np.testing.assert_allclose(apply_channel_operator(ch, v), h @ v, atol=1e-12)
    np.testing.assert_allclose(
        apply_channel_operator_adjoint(ch, v), h.conj().T @ v, atol=1e-12
    )
    np.testing.assert_allclose(band_to_dense(gram_matrix(ch), 32), h @ h.conj().T, atol=1e-12)


def test_operator_batches_rows():
    # a block of rows is the same as each row on its own, bit for bit
    ch = small_channel()
    h = build_channel_matrix(ch)
    rng = np.random.default_rng(24)
    v = rng.standard_normal((5, 32)) + 1j * rng.standard_normal((5, 32))
    hv = apply_channel_operator(ch, v)
    hhv = apply_channel_operator_adjoint(ch, v)
    np.testing.assert_allclose(hv, v @ h.T, atol=1e-12)
    np.testing.assert_allclose(hhv, v @ h.conj(), atol=1e-12)
    for j in range(5):
        np.testing.assert_array_equal(hv[j], apply_channel_operator(ch, v[j]))
        np.testing.assert_array_equal(hhv[j], apply_channel_operator_adjoint(ch, v[j]))
    for bad in (np.zeros(31), np.zeros((2, 31)), np.zeros((32, 2)), np.zeros((2, 2, 32))):
        with pytest.raises(ValueError):
            apply_channel_operator(ch, bad)
        with pytest.raises(ValueError):
            apply_channel_operator_adjoint(ch, bad)


@pytest.mark.parametrize("case", sorted(BAND_CASES))
def test_gram_band_matches_dense_product(case):
    ch = BAND_CASES[case]
    n = ch.block_len
    h = build_channel_matrix(ch)
    band = gram_matrix(ch)
    assert band.shape[0] % 2 == 1 and band.shape[1] == n
    np.testing.assert_allclose(band_to_dense(band, n), h @ h.conj().T, atol=1e-12)


def test_gram_band_half_width_is_the_cyclic_delay_offset():
    assert gram_matrix(BAND_CASES["one_delay"]).shape[0] == 1
    assert gram_matrix(BAND_CASES["wrap_0_31"]).shape[0] == 3  # 31 = -1 mod 32
    assert gram_matrix(BAND_CASES["wide_0_15"]).shape[0] == 31
    assert gram_matrix(BAND_CASES["delay_past_n"]).shape[0] == 7  # 34 = 2 mod 32
    # both pairs of delays 0 and 16 on 32 samples share offset 16 = -16
    # mod 32: the band is one wider than the frame, and they add up
    band = gram_matrix(BAND_CASES["width_n_0_16"])
    assert band.shape[0] == 33
    np.testing.assert_array_equal(band[-1], 0.0)


def test_folded_diagonals_hold_the_dense_entries():
    ch = BAND_CASES["delay_past_n"]
    h = build_channel_matrix(ch)
    delays, rows = ch.folded_diagonals
    assert delays.tolist() == [0, 2, 3]
    u = np.arange(ch.block_len)
    for l, c in zip(delays, rows):
        np.testing.assert_allclose(c, h[u, (u - l) % ch.block_len], atol=1e-12)
    assert not rows.flags.writeable
    assert ch.folded_diagonals[1] is rows


def test_two_level_ramps_match_the_direct_exponential_at_full_scale():
    # a full-scale draw over its whole stream, prefix included
    p = load_profile("tdl_a", 37e-9)
    ch = sample_channel(p, FULL, NU_500KMPH_6GHZ, np.random.default_rng(23))
    assert len(set(ch.delay_bins.tolist())) > 1
    cp = FULL.cp_samples
    count = cp + FULL.block_len
    fast = ch.diagonals(-cp, count)
    slow = ramp_diagonals(ch, np.arange(count) - cp)
    assert list(fast) == list(slow)
    for l, c in slow.items():
        assert np.abs(fast[l] - c).max() <= 1e-13 * np.abs(c).max()


@pytest.mark.parametrize("m, n, cp", [(20, 15, 70), (16, 40, 300)])
def test_stream_and_fold_ramps_agree_bit_for_bit(m, n, cp):
    # bodies of 300 and 640 samples, not multiples of the ramp block, after
    # prefixes that start one and two blocks before time zero
    assert (m * n) % RAMP_BLOCK
    rng = np.random.default_rng(m * n)
    taps = tuple(
        PathTap(complex(rng.standard_normal(), rng.standard_normal()), l, k)
        for l, k in ((0, 2), (5, -3), (0, -1), (9, 4), (5, 1))
    )
    ch = ChannelRealization(taps, m, n)
    stream = ch.diagonals(-cp, cp + m * n)
    delays, rows = ch.folded_diagonals
    for l, row in zip(delays.tolist(), rows):
        assert stream[l][cp:].tobytes() == row.tobytes()
    # one delay: the stream's received body is the operator's to the bit
    one = ChannelRealization(tuple(PathTap(t.gain, 5, t.doppler_bin) for t in taps), m, n)
    body = rng.standard_normal(m * n) + 1j * rng.standard_normal(m * n)
    rx = remove_cp(apply_channel(add_cp(body, cp), one, cp_samples=cp), cp)
    assert rx.tobytes() == apply_channel_operator(one, body).tobytes()


def test_large_gram_band_matches_the_operators():
    # 256x16 with delays 0, 1 and 3: too large for a dense H (268 MB), so
    # K's columns come from the operators, which are held to the dense H
    # on small grids
    ch = delay_channel((0, 1, 3), 256, 16, seed=3)
    n = ch.block_len
    band = gram_matrix(ch)
    assert band.shape == (7, n)
    cols = np.array([0, 1, 2, 5, n // 2, n - 3, n - 1])
    unit = np.zeros((cols.size, n), dtype=complex)
    unit[np.arange(cols.size), cols] = 1.0
    want = apply_channel_operator(ch, apply_channel_operator_adjoint(ch, unit))
    half = band.shape[0] // 2
    got = np.zeros_like(want)
    for j, col in enumerate(cols):
        for d in range(-half, half + 1):
            got[j, (col - d) % n] += band[half + d, (col - d) % n]
    np.testing.assert_allclose(got, want, atol=1e-12)


def test_import_leaves_scipy_sparse_unloaded():
    # the channel and the equalizer work on dense bands: nothing in the
    # package may pull scipy's sparse module back in
    src = os.path.dirname(os.path.dirname(os.path.abspath(otfsim.__file__)))
    code = "import sys, otfsim; print('scipy.sparse' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
    )
    assert out.stdout.strip() == "False"


def test_runs_leave_scipy_unloaded():
    # one desk trial of each waveform kind, the OTFS one through a two-delay
    # channel so the equalizer factors a band wider than one sample, and one
    # PAPR frame: none of it may import scipy, now or deferred
    src = os.path.dirname(os.path.dirname(os.path.abspath(otfsim.__file__)))
    config = os.path.join(os.path.dirname(src), "configs", "desk.json")
    code = f"""
import dataclasses, sys
from otfsim import equalization, harness
from otfsim.channel import ChannelRealization, PathTap

widths = []
factor = equalization._factor
def recorded(ch, rho):
    out = factor(ch, rho)
    widths.append(out.lower.shape[0] - 1)
    return out
equalization._factor = recorded

cfg = harness.load_config({config!r})
sim = harness.LinkSimulator(cfg)
two = ChannelRealization(
    (PathTap(0.8, 0, 1), PathTap(0.6j, 1, -2)), cfg.num_delay_bins, cfg.num_doppler_bins
)
kinds = {{}}
for wf in cfg.waveforms:
    kinds.setdefault(wf.kind, wf)
for kind, wf in kinds.items():
    sim.run_trial(wf, 20.0, harness.trial_seed(3, wf.label, 0, 0),
                  channel=two if kind == "otfs" else None)
harness.run_papr(dataclasses.replace(cfg, papr_frames=1))
print(sorted(kinds), max(widths))
print([m for m in sys.modules if m == "scipy" or m.startswith("scipy.")])
"""
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
    )
    ran, loaded = out.stdout.strip().splitlines()
    assert ran == "['block_ofdm', 'otfs', 'vsb_ofdm'] 2"
    assert loaded == "[]"


def test_operator_adjoint_identity():
    ch = small_channel()
    rng = np.random.default_rng(15)
    v = rng.standard_normal(32) + 1j * rng.standard_normal(32)
    w = rng.standard_normal(32) + 1j * rng.standard_normal(32)
    lhs = np.vdot(w, apply_channel_operator(ch, v))
    rhs = np.vdot(apply_channel_operator_adjoint(ch, w), v)
    assert lhs == pytest.approx(rhs)


def test_random_channels_match_dense():
    p = load_profile("tdl_a", 37e-9)
    params = FrameParams(16, 8, 15e3, 4.69e-6)
    rng = np.random.default_rng(16)
    nu = 2.5 / params.frame_duration_s  # within bins, near the upper edge
    for _ in range(20):
        ch = sample_channel(p, params, nu, rng)
        h = build_channel_matrix(ch)
        v = rng.standard_normal(128) + 1j * rng.standard_normal(128)
        np.testing.assert_allclose(apply_channel_operator(ch, v), h @ v, atol=1e-10)


def test_stream_application_reduces_to_cyclic_matrix():
    # with a long-enough prefix the linear time-varying convolution,
    # started at time -cp, equals H on the frame body
    ch = small_channel()
    rng = np.random.default_rng(17)
    body = rng.standard_normal(32) + 1j * rng.standard_normal(32)
    tx = add_cp(body, 5)
    r = apply_channel(tx, ch, cp_samples=5)
    np.testing.assert_allclose(
        remove_cp(r, 5), build_channel_matrix(ch) @ body, atol=1e-12
    )


def test_short_prefix_breaks_the_identity():
    ch = small_channel()  # max delay 3
    rng = np.random.default_rng(18)
    body = rng.standard_normal(32) + 1j * rng.standard_normal(32)
    tx = add_cp(body, 2)
    r = apply_channel(tx, ch, cp_samples=2)
    err = np.abs(remove_cp(r, 2) - build_channel_matrix(ch) @ body)
    assert err.max() > 1e-3


def test_identity_channel_is_transparent():
    ch = identity_channel(DESK)
    rng = np.random.default_rng(19)
    s = rng.standard_normal(ch.block_len) + 1j * rng.standard_normal(ch.block_len)
    np.testing.assert_allclose(apply_channel(s, ch), s, atol=1e-15)


def test_noise_variance_calibration():
    rng = np.random.default_rng(20)
    s = np.ones(200_000, dtype=complex)
    ch = ChannelRealization((PathTap(1.0 + 0.0j, 0, 0),), 500, 400)
    r = apply_channel(s, ch, rng, noise_var=0.1)
    measured = np.mean(np.abs(r - s) ** 2)
    assert measured == pytest.approx(0.1, rel=0.02)
    with pytest.raises(ValueError):
        apply_channel(s, identity_channel(DESK), rng=None, noise_var=0.1)


@pytest.mark.parametrize("cp", [2, 5])  # shorter and longer than the largest delay, 3
def test_batched_stream_rows_equal_one_dimensional_calls(cp):
    # each row rides the channel alone: no row's tail leaks into the next
    # through the delay taps, and each row draws its noise from its own
    # generator exactly as the 1-D call with that generator does
    ch = small_channel()
    rng = np.random.default_rng(24)
    rows = add_cp(rng.standard_normal((3, 32)) + 1j * rng.standard_normal((3, 32)), cp)
    clean = apply_channel(rows, ch, cp_samples=cp)
    noisy = apply_channel(
        rows, ch, [np.random.default_rng(s) for s in range(3)], cp_samples=cp, noise_var=0.3
    )
    assert clean.shape == noisy.shape == rows.shape
    for i, row in enumerate(rows):
        np.testing.assert_array_equal(clean[i], apply_channel(row, ch, cp_samples=cp))
        one = apply_channel(row, ch, np.random.default_rng(i), cp_samples=cp, noise_var=0.3)
        np.testing.assert_array_equal(noisy[i], one)


def test_batched_noise_needs_one_generator_per_row():
    ch = small_channel()
    rows = np.ones((2, 32), dtype=complex)
    with pytest.raises(ValueError):
        apply_channel(rows, ch, [np.random.default_rng(0)], noise_var=0.1)
    with pytest.raises(ValueError):
        apply_channel(rows, ch, None, noise_var=0.1)
    # a noiseless call draws nothing from the generators it is given
    gens = [np.random.default_rng(s) for s in range(2)]
    apply_channel(rows, ch, gens)
    for s, g in enumerate(gens):
        assert g.bit_generator.state == np.random.default_rng(s).bit_generator.state


def test_tf_response_static_oracle():
    # zero Doppler: every OFDM cell sees the narrowband gain exactly
    from otfsim.ofdm import vsb_demodulate, vsb_modulate

    taps = (PathTap(0.9 + 0.1j, 0, 0), PathTap(0.2 - 0.4j, 3, 0))
    ch = ChannelRealization(taps, 64, 16)
    rng = np.random.default_rng(21)
    grid = rng.standard_normal((64, 16)) + 1j * rng.standard_normal((64, 16))
    r = apply_channel(vsb_modulate(grid, DESK, 0), ch, cp_samples=0)
    y = vsb_demodulate(r, DESK, 0)
    np.testing.assert_allclose(y / grid, tf_response(ch, DESK, 0), atol=1e-10)


def test_single_unit_gain_tap_preserves_energy():
    rng = np.random.default_rng(22)
    for l, k in ((0, 0), (2, 3), (5, -1)):
        phase = np.exp(1j * rng.uniform(0, 2 * np.pi))
        ch = ChannelRealization((PathTap(phase, l, k),), 16, 8)
        v = rng.standard_normal(128) + 1j * rng.standard_normal(128)
        out = apply_channel_operator(ch, v)
        assert np.linalg.norm(out) == pytest.approx(np.linalg.norm(v))


def test_doppler_draw_statistics():
    # over many draws: Doppler bins symmetric about zero and inside the
    # ceil(nu * N * T) bound, per-delay mean power matching the profile
    p = load_profile("tdl_a", 37e-9)
    rng = np.random.default_rng(23)
    bound = doppler_bin_bound(NU_500KMPH_6GHZ, FULL)
    counts = np.zeros(2 * bound + 1)
    power = {}
    n_draws = 10_000
    for _ in range(n_draws):
        ch = sample_channel(p, FULL, NU_500KMPH_6GHZ, rng)
        assert np.abs(ch.doppler_bins).max() <= bound
        for tap in ch.taps:
            counts[tap.doppler_bin + bound] += 1
            power[tap.delay_bin] = power.get(tap.delay_bin, 0.0) + abs(tap.gain) ** 2
    heavy = np.flatnonzero(counts >= 1000) - bound
    for k in heavy[heavy > 0]:
        assert counts[k + bound] == pytest.approx(counts[-k + bound], rel=0.1)
    expected = {}
    for delay, pw in zip(np.rint(p.delays_s * FULL.bandwidth_hz).astype(int), p.linear_powers):
        expected[delay] = expected.get(delay, 0.0) + pw
    for delay, pw in expected.items():
        assert power[delay] / n_draws == pytest.approx(pw, rel=0.03)


def test_path_tap_rejects_negative_delay():
    with pytest.raises(ValueError):
        PathTap(1.0, -1, 0)
