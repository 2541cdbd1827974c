"""Gray-labeled QAM constellations and bit/symbol conversion."""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class Constellation:
    """Unit-average-power constellation with integer labels.

    ``points[i]`` is the symbol whose bit label is the binary expansion of
    ``i`` (MSB first).  ``bits[i]`` is that expansion as a 0/1 row.  The bit
    group is split evenly between the I axis (first half) and Q axis
    (second half), each half Gray-coded so neighbouring amplitude levels
    differ in one bit.
    """

    name: str
    points: np.ndarray
    bits: np.ndarray = field(repr=False)

    @property
    def bits_per_symbol(self) -> int:
        return self.bits.shape[1]

    def map_bits(self, bit_stream: np.ndarray) -> np.ndarray:
        """Map a flat 0/1 array (length divisible by bits_per_symbol) to symbols."""
        k = self.bits_per_symbol
        bit_stream = np.asarray(bit_stream, dtype=np.uint8)
        if bit_stream.ndim != 1 or bit_stream.size % k:
            raise ValueError(
                f"bit stream length {bit_stream.size} is not a multiple of {k}"
            )
        # MSB-first labels in the smallest integer type that holds them; an
        # int64 label array would be a batch's largest temporary
        labels = np.zeros(bit_stream.size // k, dtype=np.min_scalar_type(self.points.size - 1))
        for column in bit_stream.reshape(-1, k).T:
            labels <<= 1
            labels |= column
        return self.points[labels]

    def hard_bits(self, symbols: np.ndarray) -> np.ndarray:
        """Nearest-point decision, returned as a flat 0/1 array."""
        symbols = np.asarray(symbols, dtype=complex).ravel()
        d2 = np.abs(symbols[:, None] - self.points[None, :]) ** 2
        idx = np.argmin(d2, axis=1)
        return self.bits[idx].reshape(-1)


def _gray_levels(bits_per_axis: int) -> np.ndarray:
    """Amplitude level for each bit pattern of one axis, Gray ordered."""
    n = 1 << bits_per_axis
    idx = np.arange(n)
    gray = idx ^ (idx >> 1)
    levels = np.empty(n)
    levels[gray] = 2 * idx - (n - 1)
    return levels


def square_qam(order: int, name: str | None = None) -> Constellation:
    """Square QAM of the given order (4, 16, 64, ...), unit average power."""
    k = int(round(np.log2(order)))
    if (1 << k) != order or k % 2:
        raise ValueError(f"order {order} is not an even power of two")
    half = k // 2
    axis = _gray_levels(half)
    n_axis = 1 << half
    scale = np.sqrt(2 * (n_axis**2 - 1) / 3)
    labels = np.arange(order)
    i_bits = labels >> half
    q_bits = labels & (n_axis - 1)
    points = (axis[i_bits] + 1j * axis[q_bits]) / scale
    bits = ((labels[:, None] >> np.arange(k - 1, -1, -1)) & 1).astype(np.uint8)
    points.flags.writeable = False
    bits.flags.writeable = False
    return Constellation(name or f"{order}qam", points, bits)


# Each named constellation is built once and shared; its arrays are read-only.
@functools.cache
def qpsk() -> Constellation:
    return square_qam(4, "qpsk")


@functools.cache
def qam16() -> Constellation:
    return square_qam(16, "16qam")


@functools.cache
def qam64() -> Constellation:
    return square_qam(64, "64qam")


_BY_NAME = {"qpsk": qpsk, "4qam": qpsk, "16qam": qam16, "64qam": qam64}


def by_name(name: str) -> Constellation:
    try:
        return _BY_NAME[name.lower()]()
    except KeyError:
        raise ValueError(f"unknown constellation {name!r}") from None


def qpsk_symbols(count: int, rng: np.random.Generator) -> np.ndarray:
    """Unit-magnitude QPSK draws, used for OFDM reference symbols."""
    return qpsk().points[rng.integers(0, 4, size=count)]
