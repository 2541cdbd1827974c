import numpy as np
import pytest

from otfsim.channel import (
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
    identity_channel,
    load_profile,
    sample_channel,
    tf_response,
)
from otfsim.grid import FrameParams, desk_scale_params, full_scale_params
from otfsim.transforms import add_cp, remove_cp

DESK = desk_scale_params()
FULL = full_scale_params()
NU_500KMPH_6GHZ = (500.0 / 3.6) * 6e9 / 299792458.0  # about 2779.7 Hz


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
        assert ch.max_delay_bin <= delay_bin_bound(p, FULL)
        assert np.abs(ch.doppler_bins).max() <= doppler_bin_bound(NU_500KMPH_6GHZ, FULL)
        assert len(set(zip(ch.delay_bins, ch.doppler_bins))) == len(ch.taps)


def test_desk_scale_quantizes_all_delays_to_zero():
    # 357 ns of spread is a third of a sample at 960 kHz
    p = load_profile("tdl_a", 37e-9)
    rng = np.random.default_rng(12)
    ch = sample_channel(p, DESK, NU_500KMPH_6GHZ, rng)
    assert ch.max_delay_bin == 0


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
    np.testing.assert_allclose(gram_matrix(ch), h @ h.conj().T, atol=1e-12)


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
