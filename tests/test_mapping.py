import numpy as np
import pytest

from otfsim.mapping import by_name, qam16, qam64, qpsk


@pytest.mark.parametrize("const", [qpsk(), qam16(), qam64()])
def test_unit_average_power(const):
    assert np.mean(np.abs(const.points) ** 2) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("const", [qpsk(), qam16(), qam64()])
def test_bit_to_symbol_round_trip(const):
    rng = np.random.default_rng(0)
    bits = rng.integers(0, 2, size=600 * const.bits_per_symbol, dtype=np.uint8)
    symbols = const.map_bits(bits)
    np.testing.assert_array_equal(const.hard_bits(symbols).ravel(), bits)


def test_mapping_is_msb_first():
    const = qam16()
    # bits 0000 select point index 0, bits 1000 flip the most significant bit
    s0 = const.map_bits(np.array([0, 0, 0, 0], dtype=np.uint8))[0]
    s8 = const.map_bits(np.array([1, 0, 0, 0], dtype=np.uint8))[0]
    assert s0 == const.points[0]
    assert s8 == const.points[8]


def test_gray_neighbours_differ_in_one_bit():
    const = qam16()
    # adjacent real levels at fixed imaginary part differ by exactly one bit
    order = np.argsort(const.points.real + 1e-3 * const.points.imag)
    grid = order.reshape(4, 4)
    for row in grid:
        for a, b in zip(row[:-1], row[1:]):
            diff = np.sum(const.bits[a] != const.bits[b])
            assert diff == 1


def test_by_name_aliases_and_errors():
    assert by_name("4qam").points.size == 4
    assert by_name("16qam").bits_per_symbol == 4
    with pytest.raises(ValueError):
        by_name("8psk")


def test_hard_bits_nearest_point_under_noise():
    const = qam16()
    rng = np.random.default_rng(1)
    bits = rng.integers(0, 2, size=400, dtype=np.uint8)
    symbols = const.map_bits(bits)
    noisy = symbols + 0.05 * (rng.standard_normal(100) + 1j * rng.standard_normal(100))
    np.testing.assert_array_equal(const.hard_bits(noisy).ravel(), bits)


def test_constellations_are_built_once_and_read_only():
    for make, name in ((qpsk, "qpsk"), (qam16, "16qam"), (qam64, "64qam")):
        const = make()
        assert make() is const
        assert by_name(name) is const
        for arr in (const.points, const.bits):
            with pytest.raises(ValueError):
                arr[0] = arr[1]
    assert by_name("4qam") is qpsk()


@pytest.mark.parametrize("const", [qpsk(), qam16(), qam64()])
def test_every_label_maps_as_the_weighted_sum_did(const):
    k = const.bits_per_symbol
    # every label once, MSB first, then random groups
    rng = np.random.default_rng(4)
    bits = np.concatenate(
        [const.bits.ravel(), rng.integers(0, 2, size=300 * k, dtype=np.uint8)]
    )
    labels = bits.reshape(-1, k) @ (1 << np.arange(k - 1, -1, -1))
    np.testing.assert_array_equal(const.map_bits(bits), const.points[labels])
    np.testing.assert_array_equal(const.map_bits(const.bits.ravel()), const.points)
    for bad in (np.zeros(k + 1, dtype=np.uint8), np.zeros((2, k), dtype=np.uint8)):
        with pytest.raises(ValueError, match="multiple"):
            const.map_bits(bad)
