import numpy as np
import pytest
from helpers import interp_rows, lstsq_frequency_fit, tf_response

from otfsim.channel import (
    ChannelRealization,
    PathTap,
    apply_channel,
    build_channel_matrix,
)
from otfsim.estimation import (
    interpolate_frequency,
    interpolate_time,
    ofdm_estimate,
    otfs_estimate,
    rs_cell_estimates,
)
from otfsim.grid import (
    CELL_DATA,
    CELL_RS,
    CELL_UNUSED,
    PilotConfig,
    derive_vsb_dims,
    desk_scale_params,
    full_scale_params,
    ofdm_roles,
    place_ofdm_frame,
    place_otfs_frame,
    otfs_roles,
)
from otfsim.ofdm import vsb_demodulate, vsb_modulate
from otfsim.transforms import GridTransform, add_cp, remove_cp

DESK = desk_scale_params()
M, N = DESK.num_delay_bins, DESK.num_doppler_bins


def received_grid(cfg, ch, data=None, rng=None, noise_var=0.0):
    """Send a pilot frame (optionally with data) through the channel."""
    n_data = M * N - (4 * cfg.k_nu + 1) * (2 * cfg.l_tau + 1)
    if data is None:
        data = np.zeros(n_data, dtype=complex)
    grid = place_otfs_frame(data, cfg, DESK)
    t = GridTransform(M, N, "otfs")
    tx = add_cp(t.apply(grid.ravel(order="F")), DESK.cp_samples)
    r = apply_channel(tx, ch, rng, cp_samples=DESK.cp_samples, noise_var=noise_var)
    body = remove_cp(r, DESK.cp_samples)
    return t.adjoint(body).reshape(M, N, order="F")


def test_single_tap_recovered_exactly():
    cfg = PilotConfig.centered(DESK, 3, 1, boost_db=28.0)
    ch = ChannelRealization((PathTap(0.7 - 0.3j, 1, 2),), M, N)
    est = otfs_estimate(received_grid(cfg, ch), cfg, cfg.amplitude_for_unit_data, 0.0)
    assert len(est.taps) == 1
    tap = est.taps[0]
    assert (tap.delay_bin, tap.doppler_bin) == (1, 2)
    assert tap.gain == pytest.approx(0.7 - 0.3j, abs=1e-9)


def test_multi_tap_recovery_rebuilds_the_channel():
    cfg = PilotConfig.centered(DESK, 3, 1, boost_db=28.0)
    taps = (
        PathTap(0.6 + 0.2j, 0, -3),
        PathTap(-0.3 + 0.4j, 0, 1),
        PathTap(0.2 - 0.1j, 1, 3),
    )
    ch = ChannelRealization(taps, M, N)
    est = otfs_estimate(received_grid(cfg, ch), cfg, cfg.amplitude_for_unit_data, 0.0)
    assert {(t.delay_bin, t.doppler_bin) for t in est.taps} == {
        (0, -3), (0, 1), (1, 3)
    }
    np.testing.assert_allclose(
        build_channel_matrix(est), build_channel_matrix(ch), atol=1e-9
    )


def test_estimate_ignores_surrounding_data():
    # data cells outside the guard region must not alter the taps
    cfg = PilotConfig.centered(DESK, 3, 1, boost_db=28.0)
    ch = ChannelRealization((PathTap(0.5 + 0.5j, 1, -2),), M, N)
    rng = np.random.default_rng(7)
    n_data = M * N - 39
    data = (rng.standard_normal(n_data) + 1j * rng.standard_normal(n_data)) / np.sqrt(2)
    est = otfs_estimate(
        received_grid(cfg, ch, data), cfg, cfg.amplitude_for_unit_data, 0.0
    )
    assert len(est.taps) == 1
    assert est.taps[0].gain == pytest.approx(0.5 + 0.5j, abs=1e-9)


def test_detection_threshold_is_strict():
    cfg = PilotConfig.centered(DESK, 3, 1)
    y = np.zeros((M, N), dtype=complex)
    y[cfg.l_p, cfg.k_p] = 0.3  # exactly at the 3 sigma threshold
    est = otfs_estimate(y, cfg, 1.0, 0.1)
    assert est.taps == ()
    y[cfg.l_p, cfg.k_p] = 0.3 + 1e-6
    est = otfs_estimate(y, cfg, 1.0, 0.1)
    assert len(est.taps) == 1


def test_noise_only_false_alarm_rate():
    # P(|noise| > 3 sigma) = exp(-9) for complex Gaussian cells
    cfg = PilotConfig.centered(DESK, 3, 1)
    rng = np.random.default_rng(8)
    window = (2 * 3 + 1) * (1 + 1)
    trials = 4000
    false_alarms = 0
    for _ in range(trials):
        y = (rng.standard_normal((M, N)) + 1j * rng.standard_normal((M, N))) / np.sqrt(2)
        false_alarms += len(otfs_estimate(y, cfg, 1.0, 1.0).taps)
    expect = trials * window * np.exp(-9.0)
    assert false_alarms <= 5 * max(expect, 1.0)


def test_noisy_recovery_close():
    cfg = PilotConfig.centered(DESK, 3, 1, boost_db=28.0)
    ch = ChannelRealization((PathTap(0.8 + 0.1j, 1, -1),), M, N)
    rng = np.random.default_rng(9)
    y = received_grid(cfg, ch, rng=rng, noise_var=1e-4)
    est = otfs_estimate(y, cfg, cfg.amplitude_for_unit_data, 1e-2)
    gains = {(t.delay_bin, t.doppler_bin): t.gain for t in est.taps}
    assert (1, -1) in gains
    # pilot amplitude ~25, cell noise sigma 0.01: expect ~4e-4 error
    assert abs(gains[(1, -1)] - (0.8 + 0.1j)) < 5e-3


def test_rs_cell_estimates_shrink_with_noise():
    roles = np.full((4, 2), 0, dtype=np.int8)
    roles[1, 0] = CELL_RS
    rs = np.zeros((4, 2), dtype=complex)
    rs[1, 0] = 2.0
    y = np.zeros((4, 2), dtype=complex)
    y[1, 0] = 2.0 * (0.5 - 0.5j)
    est = rs_cell_estimates(y, rs, roles, noise_var=4.0)
    # |x|^2 = 4 and noise_var = 4 halve the raw ratio
    assert est[1, 0] == pytest.approx((0.5 - 0.5j) / 2)
    assert np.isnan(est[0, 0].real)


def test_frequency_interpolation_exact_for_short_responses():
    rng = np.random.default_rng(10)
    n_sc = 24
    imp = np.zeros(5, dtype=complex)
    imp[:3] = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    truth = np.exp(
        -2j * np.pi * np.outer(np.arange(n_sc), np.arange(5)) / n_sc
    ) @ imp
    positions = (0, 3, 6, 9)
    out = interpolate_frequency(positions, n_sc, num_delay_taps=3) @ truth[list(positions)]
    np.testing.assert_allclose(out, truth, atol=1e-9)


def test_frequency_operators_are_cached_and_read_only():
    op = interpolate_frequency((1, 4, 7), 12, 2)
    assert interpolate_frequency((1, 4, 7), 12, 2) is op
    assert op.shape == (12, 3)
    with pytest.raises(ValueError):
        op[0, 0] = 0.0


@pytest.mark.parametrize(
    "columns, n_symbols",
    [
        ([0, 3, 4, 6, 11, 13], 14),  # spans the grid: exact hits at both ends
        ([2, 5, 9], 12),  # held edges on both sides
        ([4], 9),  # one column, held everywhere
        ([0.5, 2.25, 7.75], 10),  # off-grid columns: no exact hits
    ],
)
def test_time_interpolation_equals_per_row_interp(columns, n_symbols):
    rng = np.random.default_rng(len(columns))
    vals = rng.standard_normal((5, len(columns))) + 1j * rng.standard_normal((5, len(columns)))
    out = interpolate_time(vals, np.array(columns), n_symbols)
    assert out.tobytes() == interp_rows(vals, columns, n_symbols).tobytes()


def test_time_interpolation_equals_per_row_interp_on_random_columns():
    rng = np.random.default_rng(13)
    for _ in range(20):
        n_symbols = int(rng.integers(2, 200))
        columns = np.sort(rng.choice(n_symbols, int(rng.integers(1, n_symbols + 1)), replace=False))
        vals = rng.standard_normal((3, columns.size)) + 1j * rng.standard_normal((3, columns.size))
        out = interpolate_time(vals, columns, n_symbols)
        assert out.tobytes() == interp_rows(vals, columns, n_symbols).tobytes()


@pytest.mark.parametrize("mu", [0, 3])
def test_ofdm_estimate_matches_per_column_lstsq_at_full_scale(mu):
    # the full-scale role maps: two subcarrier patterns over 36 (mu 0) and
    # 292 (mu 3) reference-bearing symbols
    full = full_scale_params()
    roles = ofdm_roles(full, mu)
    _, _, cp_len = derive_vsb_dims(full, mu)
    rng = np.random.default_rng(14 + mu)
    y = rng.standard_normal(roles.shape) + 1j * rng.standard_normal(roles.shape)
    rs_grid = np.exp(2j * np.pi * rng.random(roles.shape))
    est = ofdm_estimate(y, rs_grid, roles, 0.1, cp_len)

    cells = rs_cell_estimates(y, rs_grid, roles, 0.1)
    rs_mask = roles == CELL_RS
    rs_columns = np.flatnonzero(rs_mask.any(axis=0))
    per_column = np.empty((roles.shape[0], rs_columns.size), dtype=complex)
    for j, col in enumerate(rs_columns):
        positions = np.flatnonzero(rs_mask[:, col])
        per_column[:, j] = lstsq_frequency_fit(
            cells[positions, col], positions, roles.shape[0], cp_len
        )
    want = interp_rows(per_column, rs_columns, roles.shape[1])
    assert np.abs(est - want).max() <= 1e-12 * np.abs(want).max()


def test_time_interpolation_is_linear_with_held_edges():
    cols = np.array([2, 5])
    vals = np.array([[1.0 + 1.0j, 4.0 - 2.0j]])
    out = interpolate_time(vals, cols, 8)
    np.testing.assert_allclose(out[0, :3], 1.0 + 1.0j)  # edge hold left
    np.testing.assert_allclose(out[0, 5:], 4.0 - 2.0j)  # edge hold right
    np.testing.assert_allclose(out[0, 3], 2.0)  # one third of the way
    np.testing.assert_allclose(out[0, 4], 3.0 - 1.0j)


def test_ofdm_estimate_static_channel_exact():
    # static two-tap channel: the reference-signal estimate matches the
    # narrowband response on every cell, including non-reference columns
    taps = (PathTap(0.9 + 0.0j, 0, 0), PathTap(0.3 - 0.2j, 1, 0))
    ch = ChannelRealization(taps, M, N)
    rng = np.random.default_rng(11)
    roles = ofdm_roles(DESK, 0)
    n_data = int(np.sum(roles == CELL_DATA))
    data = rng.standard_normal(n_data) + 1j * rng.standard_normal(n_data)
    rs = np.exp(2j * np.pi * rng.random(int(np.sum(roles == CELL_RS))))
    grid = place_ofdm_frame(data, rs, DESK, 0)
    r = apply_channel(vsb_modulate(grid, DESK, 0), ch, cp_samples=5)
    y = vsb_demodulate(r, DESK, 0)
    rs_grid = place_ofdm_frame(np.zeros(n_data), rs, DESK, 0)
    est = ofdm_estimate(y, rs_grid, roles, 0.0, num_delay_taps=5)
    truth = tf_response(ch, DESK, 0)
    used = roles != CELL_UNUSED  # cells outside whole blocks carry nothing
    np.testing.assert_allclose(est[used], truth[used], atol=1e-9)


def test_detection_grows_with_pilot_power():
    # on one fixed noise draw, raising the boost never loses a true tap
    taps = (PathTap(1.0 + 0.0j, 0, 0), PathTap(0.02 - 0.01j, 1, 2))
    ch = ChannelRealization(taps, M, N)
    true_bins = {(0, 0), (1, 2)}
    rng = np.random.default_rng(12)
    noise = 0.05 * (rng.standard_normal((M, N)) + 1j * rng.standard_normal((M, N))) / np.sqrt(2)
    found = []
    for boost in (8.0, 14.0, 20.0, 26.0, 32.0):
        cfg = PilotConfig.centered(DESK, 3, 1, boost_db=boost)
        y = received_grid(cfg, ch) + noise
        est = otfs_estimate(y, cfg, cfg.amplitude_for_unit_data, 0.05)
        found.append({(t.delay_bin, t.doppler_bin) for t in est.taps} & true_bins)
    for earlier, later in zip(found, found[1:]):
        assert earlier <= later
    assert found[0] < found[-1] == true_bins  # the weak tap needs the boost


def test_input_validation():
    cfg = PilotConfig.centered(DESK, 3, 1)
    with pytest.raises(ValueError):
        otfs_estimate(np.zeros(8), cfg, 1.0, 0.0)
    with pytest.raises(ValueError):
        otfs_estimate(np.zeros((M, N)), cfg, 0.0, 0.0)
    with pytest.raises(ValueError):
        otfs_estimate(np.zeros((M, N)), cfg, 1.0, -1.0)
    with pytest.raises(ValueError):
        ofdm_estimate(np.zeros((4, 2)), np.zeros((4, 2)), np.zeros((4, 3)), 0.0, 2)
    with pytest.raises(ValueError):
        interpolate_frequency((), 8, 2)
    with pytest.raises(ValueError):
        ofdm_estimate(
            np.zeros((4, 2)), np.zeros((4, 2)), np.zeros((4, 2), dtype=np.int8) + 1,
            0.0, 2,
        )
