"""Channels, counts and reference implementations that only tests use.

The fast paths in ``otfsim`` are held to these: ``ramp_diagonals`` is the
direct one-exponential-per-sample tap ramp, ``lstsq_frequency_fit`` the
per-column least-squares interpolation, ``interp_rows`` the per-row
``np.interp`` and ``dense_llrs`` the whole-frame distance table.
"""

from __future__ import annotations

import numpy as np

from otfsim.channel import ChannelRealization, PathTap
from otfsim.grid import FrameParams, PilotConfig


def identity_channel(params: FrameParams) -> ChannelRealization:
    """Single unit tap at zero delay and Doppler."""
    return ChannelRealization(
        (PathTap(1.0 + 0.0j, 0, 0),),
        params.num_delay_bins,
        params.num_doppler_bins,
    )


def max_delay_bin(ch: ChannelRealization) -> int:
    """The largest tap delay, zero for a realization without taps."""
    return int(ch.delay_bins.max(initial=0))


def guard_cell_count(cfg: PilotConfig) -> int:
    """Cells in the guard region including the pilot cell itself."""
    return (4 * cfg.k_nu + 1) * (2 * cfg.l_tau + 1)


def tf_response(
    ch: ChannelRealization, params: FrameParams, mu: int = 0
) -> np.ndarray:
    """Time-frequency channel gains on the numerology-``mu`` OFDM grid.

    ``h[m, i] = sum_p h_p exp(j 2 pi (k_p i 2**-mu / N - m 2**mu l_p / M))``,
    the narrowband per-cell gain at subcarrier m and symbol i.  Exact for
    zero Doppler; with Doppler it ignores intra-symbol rotation and
    inter-carrier leakage, so it serves as an oracle only in the static
    case.
    """
    scale = 1 << mu
    if params.num_delay_bins % scale:
        raise ValueError(f"numerology {mu} does not divide the grid")
    n_sc = params.num_delay_bins // scale
    n_sym = params.num_doppler_bins * scale
    m_idx = np.arange(n_sc)[:, None]
    i_idx = np.arange(n_sym)[None, :]
    h = np.zeros((n_sc, n_sym), dtype=complex)
    for tap in ch.taps:
        doppler = tap.doppler_bin * i_idx / (scale * params.num_doppler_bins)
        delay = m_idx * scale * tap.delay_bin / params.num_delay_bins
        h += tap.gain * np.exp(2j * np.pi * (doppler - delay))
    return h


def ramp_diagonals(ch: ChannelRealization, times: np.ndarray) -> dict[int, np.ndarray]:
    """Each distinct delay's Doppler diagonal, one exponential per tap and sample."""
    out: dict[int, np.ndarray] = {}
    for g, l, w in zip(ch.gains, ch.delay_bins, ch.phase_rates):
        c = out.setdefault(int(l), np.zeros(times.size, dtype=complex))
        c += g * np.exp(1j * w * (times - l))
    return out


def lstsq_frequency_fit(
    estimates: np.ndarray, positions: np.ndarray, n_subcarriers: int, num_delay_taps: int
) -> np.ndarray:
    """One column's least-squares delay-domain fit, evaluated on every subcarrier."""
    taps = np.arange(min(num_delay_taps, positions.size))
    basis = np.exp(-2j * np.pi * np.outer(positions, taps) / n_subcarriers)
    coeffs, *_ = np.linalg.lstsq(basis, estimates, rcond=None)
    full = np.exp(-2j * np.pi * np.outer(np.arange(n_subcarriers), taps) / n_subcarriers)
    return full @ coeffs


def interp_rows(column_estimates: np.ndarray, columns: np.ndarray, n_symbols: int) -> np.ndarray:
    """``np.interp`` row by row, on the real and imaginary parts apart."""
    columns = np.asarray(columns, dtype=float)
    grid = np.arange(n_symbols, dtype=float)
    out = np.empty((column_estimates.shape[0], n_symbols), dtype=complex)
    for row, vals in enumerate(column_estimates):
        out[row] = np.interp(grid, columns, vals.real) + 1j * np.interp(
            grid, columns, vals.imag
        )
    return out


def dense_llrs(symbols, noise_vars, erasures, constellation) -> np.ndarray:
    """Max-log LLRs from one symbol-by-point distance table over the whole frame."""
    dists = np.abs(symbols[:, None] - constellation.points[None, :]) ** 2
    llrs = np.empty((symbols.size, constellation.bits_per_symbol))
    for j in range(constellation.bits_per_symbol):
        zero_set = constellation.bits[:, j] == 0
        llrs[:, j] = (dists[:, ~zero_set].min(axis=1) - dists[:, zero_set].min(axis=1)) / noise_vars
    llrs[erasures] = 0.0
    return llrs
