"""Multicarrier waveform with one cyclic prefix per OFDM symbol.

Numerology ``mu`` trades frequency against time on a fixed budget:
``2**-mu * M`` subcarriers with ``2**mu`` times the base spacing across
``2**mu * N`` symbols, so every numerology occupies the same bandwidth
and frame duration.  Each symbol carries its own prefix, unlike the
block waveforms in :mod:`transforms` which share one prefix per frame.
"""

from __future__ import annotations

import numpy as np

from .grid import FrameParams, derive_vsb_dims


def ofdm_modulate(grid: np.ndarray, cp_len: int) -> np.ndarray:
    """Unitary-IFFT each symbol column and prepend its cyclic prefix.

    ``grid`` is subcarriers by symbols, or a stack of such grids behind
    leading frame axes; each frame becomes one stream along the last
    axis, symbol after symbol.
    """
    grid = np.asarray(grid, dtype=complex)
    if grid.ndim < 2:
        raise ValueError("expected a subcarriers-by-symbols grid")
    n_sc, n_sym = grid.shape[-2:]
    if not 0 <= cp_len <= n_sc:
        raise ValueError("prefix longer than the symbol body")
    # one symbol a row: its prefix, then its body, which the IFFT writes in place
    symbols = np.empty(grid.shape[:-2] + (n_sym, cp_len + n_sc), dtype=complex)
    np.fft.ifft(grid.swapaxes(-1, -2), axis=-1, norm="ortho", out=symbols[..., cp_len:])
    symbols[..., :cp_len] = symbols[..., n_sc:]
    return symbols.reshape(grid.shape[:-2] + (-1,))


def ofdm_demodulate(
    stream: np.ndarray, num_subcarriers: int, cp_len: int
) -> np.ndarray:
    """Strip per-symbol prefixes and unitary-FFT back to the grid, one per
    stream of a ``(frames, samples)`` batch: the inverse of :func:`ofdm_modulate`."""
    stream = np.asarray(stream, dtype=complex)
    step = num_subcarriers + cp_len
    if stream.shape[-1] == 0 or stream.shape[-1] % step:
        raise ValueError(f"stream length {stream.shape[-1]} is not a multiple of {step}")
    # one symbol a row, as ofdm_modulate writes them; the grid is their transpose
    symbols = stream.reshape(stream.shape[:-1] + (-1, step))[..., cp_len:]
    return np.fft.fft(symbols, axis=-1, norm="ortho").swapaxes(-1, -2)


def vsb_modulate(grid: np.ndarray, params: FrameParams, mu: int) -> np.ndarray:
    """Modulate a numerology-``mu`` grid (or a stack of them) sized for ``params``."""
    n_sc, n_sym, cp_len = derive_vsb_dims(params, mu)
    grid = np.asarray(grid, dtype=complex)
    if grid.shape[-2:] != (n_sc, n_sym):
        raise ValueError(f"expected a {n_sc}x{n_sym} grid, got {grid.shape}")
    return ofdm_modulate(grid, cp_len)


def vsb_demodulate(stream: np.ndarray, params: FrameParams, mu: int) -> np.ndarray:
    """Inverse of :func:`vsb_modulate`."""
    n_sc, _, cp_len = derive_vsb_dims(params, mu)
    return ofdm_demodulate(stream, n_sc, cp_len)
