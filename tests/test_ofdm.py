import numpy as np
import pytest

from otfsim.grid import derive_vsb_dims, desk_scale_params
from otfsim.ofdm import (
    ofdm_demodulate,
    ofdm_modulate,
    vsb_demodulate,
    vsb_modulate,
)

DESK = desk_scale_params()


def test_modulate_demodulate_round_trip():
    rng = np.random.default_rng(0)
    grid = rng.standard_normal((32, 7)) + 1j * rng.standard_normal((32, 7))
    stream = ofdm_modulate(grid, 4)
    assert stream.size == 36 * 7
    np.testing.assert_allclose(ofdm_demodulate(stream, 32, 4), grid, atol=1e-12)


def test_each_symbol_prefix_copies_its_tail():
    rng = np.random.default_rng(1)
    grid = rng.standard_normal((16, 3)) + 1j * rng.standard_normal((16, 3))
    stream = ofdm_modulate(grid, 5).reshape(21, 3, order="F")
    for k in range(3):
        np.testing.assert_array_equal(stream[:5, k], stream[-5:, k])


def test_a_stack_of_grids_modulates_frame_by_frame():
    rng = np.random.default_rng(4)
    grids = rng.standard_normal((3, 16, 5)) + 1j * rng.standard_normal((3, 16, 5))
    streams = ofdm_modulate(grids, 3)
    assert streams.shape == (3, 19 * 5) and streams.flags.c_contiguous
    for f in range(3):
        np.testing.assert_array_equal(streams[f], ofdm_modulate(grids[f], 3))
    # a column-major frame (as the grid placers lay it out) gives the same bits
    np.testing.assert_array_equal(ofdm_modulate(np.asfortranarray(grids[1]), 3), streams[1])


def test_modulation_preserves_energy_per_body():
    rng = np.random.default_rng(2)
    grid = rng.standard_normal((64, 2)) + 1j * rng.standard_normal((64, 2))
    stream = ofdm_modulate(grid, 0)
    assert np.sum(np.abs(stream) ** 2) == pytest.approx(np.sum(np.abs(grid) ** 2))


def test_vsb_wrappers_check_shapes():
    rng = np.random.default_rng(3)
    grid = rng.standard_normal((64, 16)) + 1j * rng.standard_normal((64, 16))
    stream = vsb_modulate(grid, DESK, 0)
    assert stream.size == (64 + 5) * 16
    np.testing.assert_allclose(vsb_demodulate(stream, DESK, 0), grid, atol=1e-12)
    with pytest.raises(ValueError):
        vsb_modulate(grid, DESK, 1)  # numerology 1 wants a 32x32 grid
    with pytest.raises(ValueError):
        vsb_demodulate(stream[:-1], DESK, 0)


def test_demodulators_take_batch_rows():
    # a (frames, samples) stack demodulates row by row, bit for bit, and a
    # vsb_modulate stack round-trips to its grids
    rng = np.random.default_rng(4)
    for mu in (0, 2):
        n_sc, n_sym, cp_len = derive_vsb_dims(DESK, mu)
        grids = rng.standard_normal((2, n_sc, n_sym)) + 1j * rng.standard_normal((2, n_sc, n_sym))
        streams = vsb_modulate(grids, DESK, mu)
        assert streams.shape == (2, (n_sc + cp_len) * n_sym)
        got = vsb_demodulate(streams, DESK, mu)
        assert got.shape == grids.shape
        np.testing.assert_allclose(got, grids, atol=1e-12)
        rows = ofdm_demodulate(streams, n_sc, cp_len)
        for f in range(2):
            np.testing.assert_array_equal(got[f], vsb_demodulate(streams[f], DESK, mu))
            np.testing.assert_array_equal(rows[f], ofdm_demodulate(streams[f], n_sc, cp_len))


def test_stream_lengths_grow_with_numerology():
    # shorter symbols need proportionally more prefixes
    lengths = [
        vsb_modulate(np.zeros(derive_vsb_dims(DESK, mu)[:2]), DESK, mu).size
        for mu in range(4)
    ]
    assert lengths == [69 * 16, 35 * 32, 18 * 64, 9 * 128]
    assert lengths == sorted(lengths)


def test_invalid_arguments():
    with pytest.raises(ValueError):
        ofdm_modulate(np.zeros(8), 2)
    with pytest.raises(ValueError):
        ofdm_modulate(np.zeros((8, 2)), 9)
    with pytest.raises(ValueError):
        ofdm_demodulate(np.zeros(10), 8, 3)
