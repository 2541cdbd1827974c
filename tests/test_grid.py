import numpy as np
import pytest

from otfsim.grid import (
    CELL_DATA,
    CELL_GUARD,
    CELL_RS,
    CELL_UNUSED,
    FrameParams,
    PilotConfig,
    cp_sample_count,
    data_cell_indices,
    derive_vsb_dims,
    desk_scale_params,
    equal_total_pilot_power_boost_db,
    extract_ofdm_frame,
    extract_otfs_frame,
    full_scale_params,
    guard_cell_count,
    num_prb,
    ofdm_roles,
    otfs_roles,
    place_ofdm_frame,
    place_otfs_frame,
)

FULL = full_scale_params()
DESK = desk_scale_params()


def test_frame_derived_quantities():
    assert FULL.bandwidth_hz == pytest.approx(7.68e6)
    assert FULL.frame_duration_s == pytest.approx(128 / 15e3)
    assert FULL.block_len == 512 * 128
    assert DESK.bandwidth_hz == pytest.approx(960e3)


def test_cp_sample_counts():
    # 4.69 us at 7.68 MHz spans 36.02 samples, so 37 whole samples
    assert cp_sample_count(4.69e-6, 7.68e6) == 37
    assert cp_sample_count(4.69e-6, 960e3) == 5
    assert FULL.cp_samples == 37
    assert DESK.cp_samples == 5
    # an exact integer span must not round up to the next sample
    assert cp_sample_count(1e-3, 4e3) == 4
    assert cp_sample_count(0.0, 7.68e6) == 0


@pytest.mark.parametrize(
    "mu,expected",
    [(0, (512, 128, 37)), (1, (256, 256, 19)), (2, (128, 512, 10)), (3, (64, 1024, 5))],
)
def test_vsb_dims_full_scale(mu, expected):
    assert derive_vsb_dims(FULL, mu) == expected


@pytest.mark.parametrize(
    "mu,expected",
    [(0, (64, 16, 5)), (1, (32, 32, 3)), (2, (16, 64, 2)), (3, (8, 128, 1))],
)
def test_vsb_dims_desk_scale(mu, expected):
    assert derive_vsb_dims(DESK, mu) == expected


def test_resource_block_counts():
    assert num_prb(FULL, 0) == 378
    assert num_prb(FULL, 3) == 365
    assert [num_prb(DESK, mu) for mu in range(4)] == [5, 4, 4, 0]


def test_equal_total_pilot_power_boost():
    # 8 references per block, one power unit each, concentrated in one cell
    assert equal_total_pilot_power_boost_db(FULL, 0) == pytest.approx(
        10 * np.log10(8 * 378)
    )
    assert equal_total_pilot_power_boost_db(DESK, 0) == pytest.approx(
        10 * np.log10(40)
    )
    # the impulse placed at that boost carries the role map's references
    for params, n_rs in ((FULL, 3024), (DESK, 40)):
        assert np.count_nonzero(ofdm_roles(params, 0) == CELL_RS) == n_rs
        cfg = PilotConfig.centered(
            params, 1, 1, boost_db=equal_total_pilot_power_boost_db(params, 0)
        )
        frame = place_otfs_frame(
            np.zeros(params.block_len - guard_cell_count(cfg)), cfg, params
        )
        assert np.sum(np.abs(frame.values) ** 2) == pytest.approx(
            n_rs, rel=1e-12
        )
    with pytest.raises(ValueError):
        equal_total_pilot_power_boost_db(DESK, 3)


def test_pilot_config_validation():
    cfg = PilotConfig.centered(DESK, k_nu=3, l_tau=1)
    assert (cfg.k_p, cfg.l_p) == (8, 16)
    # the Doppler window leaves exactly [7, 8] at N=16, so 6 must fail
    with pytest.raises(ValueError):
        PilotConfig.centered(DESK, 3, 1, k_p=6)
    with pytest.raises(ValueError):
        PilotConfig.centered(DESK, 3, 1, l_p=1)
    # a window too wide for the grid leaves no valid placement at all
    with pytest.raises(ValueError):
        PilotConfig.centered(DESK, 4, 1)


def test_otfs_roles_and_counts():
    cfg = PilotConfig.centered(DESK, 3, 1)
    roles = otfs_roles(DESK, cfg)
    assert roles.shape == (64, 16)
    assert guard_cell_count(cfg) == (4 * 3 + 1) * (2 * 1 + 1)
    counts = {c: int(np.sum(roles == c)) for c in (CELL_DATA, CELL_GUARD)}
    assert counts[CELL_DATA] == 64 * 16 - 39
    assert counts[CELL_GUARD] == 38  # guard region minus the pilot cell
    # guard block spans delay l_p +- l_tau and Doppler k_p +- 2 k_nu
    block = roles[cfg.l_p - 1 : cfg.l_p + 2, cfg.k_p - 6 : cfg.k_p + 7]
    assert not np.any(block == CELL_DATA)


def test_otfs_place_extract_round_trip():
    cfg = PilotConfig.centered(DESK, 3, 1, boost_db=28.0)
    rng = np.random.default_rng(2)
    n_data = 64 * 16 - guard_cell_count(cfg)
    data = rng.standard_normal(n_data) + 1j * rng.standard_normal(n_data)
    grid = place_otfs_frame(data, cfg, DESK, data_power=2.0)
    np.testing.assert_allclose(extract_otfs_frame(grid.values, cfg, DESK), data)
    pilot = grid.values[cfg.l_p, cfg.k_p]
    assert abs(pilot) == pytest.approx(np.sqrt(2.0) * 10 ** (28 / 20))
    with pytest.raises(ValueError):
        place_otfs_frame(data[:-1], cfg, DESK)


def test_ofdm_roles_and_round_trip():
    roles = ofdm_roles(DESK, 0)
    assert int(np.sum(roles == CELL_RS)) == 8 * 5
    assert int(np.sum(roles == CELL_DATA)) == 160 * 5
    # everything right of the 5 whole blocks stays unused
    assert np.all(roles[60:, :] == CELL_UNUSED)
    assert np.all(roles[:, 14:] == CELL_UNUSED)

    rng = np.random.default_rng(3)
    data = rng.standard_normal(800) + 1j * rng.standard_normal(800)
    rs = np.exp(2j * np.pi * rng.random(40))
    grid = place_ofdm_frame(data, rs, DESK, 0)
    np.testing.assert_allclose(extract_ofdm_frame(grid.values, DESK, 0), data)
    flat = grid.values.ravel(order="F")
    np.testing.assert_allclose(flat[roles.ravel(order="F") == CELL_RS], rs)
    assert np.all(flat[roles.ravel(order="F") == CELL_UNUSED] == 0)
    # every frame of a geometry shares one read-only map
    assert ofdm_roles(DESK, 0) is roles and grid.roles is roles
    with pytest.raises(ValueError):
        roles[0, 0] = CELL_DATA


def test_data_cell_indices_are_column_major():
    cfg = PilotConfig.centered(DESK, 3, 1)
    roles = otfs_roles(DESK, cfg)
    idx = data_cell_indices(roles)
    assert np.all(np.diff(idx) > 0)
    m = DESK.num_delay_bins
    delay, doppler = idx % m, idx // m
    assert roles[delay[0], doppler[0]] == CELL_DATA


def test_invalid_frame_params():
    with pytest.raises(ValueError):
        FrameParams(0, 16, 15e3, 0.0)
    with pytest.raises(ValueError):
        FrameParams(64, 16, -1.0, 0.0)
    with pytest.raises(ValueError):
        FrameParams(64, 16, 15e3, -1e-6)


@pytest.mark.parametrize("k_nu,l_tau", [(1, 0), (2, 2), (3, 3), (3, 1)])
def test_place_extract_inverse_across_guard_sizes(k_nu, l_tau):
    cfg = PilotConfig.centered(DESK, k_nu, l_tau)
    rng = np.random.default_rng(10 * k_nu + l_tau)
    n_data = DESK.num_delay_bins * DESK.num_doppler_bins - guard_cell_count(cfg)
    data = rng.standard_normal(n_data) + 1j * rng.standard_normal(n_data)
    grid = place_otfs_frame(data, cfg, DESK)
    np.testing.assert_array_equal(extract_otfs_frame(grid.values, cfg, DESK), data)
