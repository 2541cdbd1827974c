"""Channel estimation for both waveform families.

The delay-Doppler path reads the channel taps directly off the received
grid around the embedded impulse pilot and returns a
:class:`~otfsim.channel.ChannelRealization`, so the estimate plugs into
the same operators as the true channel.  The time-frequency path forms
per-cell gains at the reference symbols and interpolates them over the
grid (least-squares delay-domain fit along frequency, linear along
time), returning a dense gain grid for the single-tap equalizer.
"""

from __future__ import annotations

import functools

import numpy as np

from .channel import ChannelRealization, PathTap
from .grid import CELL_RS, PilotConfig

# Relative floor under the detection threshold: cells whose magnitude is
# explainable by transform round-off of the pilot itself never count as
# taps, even at zero noise.
_PILOT_LEAK_FLOOR = 1e-10

# OpenBLAS runs a complex matrix product of fewer than 2**16 multiply-adds
# (m * n * k) in the calling thread and splits a larger one over its threads.
_SERIAL_GEMM = 1 << 16


def otfs_estimate(
    y: np.ndarray,
    cfg: PilotConfig,
    pilot_amplitude: float,
    noise_std: float,
) -> ChannelRealization:
    """Read channel taps from the pilot neighbourhood of a received grid.

    Scans delays ``l_p .. l_p + l_tau`` and Dopplers ``k_p - k_nu ..
    k_p + k_nu``; every cell with magnitude above ``max(3 * noise_std,
    floor)`` yields one tap.  A tap delayed by ``l`` keeps the Doppler
    phase it accrued over those ``l`` samples plus the pilot's own
    placement, ``exp(j 2 pi k l_p / MN)`` under this demodulator layout;
    that known factor is removed so the recovered gain matches the
    physical tap and the rebuilt operator reproduces the true channel on
    clean input.
    """
    y = np.asarray(y, dtype=complex)
    if y.ndim != 2:
        raise ValueError("expected a delay-Doppler grid")
    if pilot_amplitude <= 0:
        raise ValueError("pilot amplitude must be positive")
    if noise_std < 0:
        raise ValueError("noise level must be non-negative")
    m_bins, n_bins = y.shape
    mn = m_bins * n_bins
    threshold = max(3.0 * noise_std, _PILOT_LEAK_FLOOR * pilot_amplitude)
    taps = []
    for delay in range(cfg.l_tau + 1):
        for doppler in range(-cfg.k_nu, cfg.k_nu + 1):
            cell = y[(cfg.l_p + delay) % m_bins, (cfg.k_p + doppler) % n_bins]
            if abs(cell) > threshold:
                gain = (
                    cell
                    * np.exp(-2j * np.pi * doppler * cfg.l_p / mn)
                    / pilot_amplitude
                )
                taps.append(PathTap(complex(gain), delay, doppler))
    return ChannelRealization(tuple(taps), m_bins, n_bins)


def rs_cell_estimates(
    y: np.ndarray,
    rs_grid: np.ndarray,
    roles: np.ndarray,
    noise_var: float,
) -> np.ndarray:
    """Per-cell gain estimates at the reference symbols.

    ``h = conj(x) y / (|x|^2 + noise_var)`` at each reference cell; NaN
    elsewhere so downstream interpolation cannot silently consume
    non-reference cells.
    """
    rs_mask = roles == CELL_RS
    est = np.full(y.shape, np.nan, dtype=complex)
    x = rs_grid[rs_mask]
    est[rs_mask] = np.conj(x) * y[rs_mask] / (np.abs(x) ** 2 + noise_var)
    return est


@functools.lru_cache(maxsize=16)
def interpolate_frequency(
    positions: tuple[int, ...], n_subcarriers: int, num_delay_taps: int
) -> np.ndarray:
    """The operator that extends per-subcarrier estimates to the whole symbol.

    Returns the ``(n_subcarriers, len(positions))`` matrix ``F pinv(A)``.
    ``A`` evaluates a delay-domain impulse response of length
    ``min(num_delay_taps, len(positions))`` at the given subcarrier
    positions and ``F`` at every subcarrier, so ``operator @ estimates``
    is the least-squares fit to the estimates, evaluated everywhere.
    Exact whenever the true response has that delay support, whatever the
    position pattern.  Built once per pattern and shared, so the array is
    read-only.
    """
    if not positions:
        raise ValueError("no reference positions to interpolate from")
    taps = np.arange(min(int(num_delay_taps), len(positions)))
    basis = np.exp(-2j * np.pi * np.outer(positions, taps) / n_subcarriers)
    full = np.exp(
        -2j * np.pi * np.outer(np.arange(n_subcarriers), taps) / n_subcarriers
    )
    operator = full @ np.linalg.pinv(basis)
    operator.flags.writeable = False
    return operator


def interpolate_time(column_estimates: np.ndarray, columns: np.ndarray, n_symbols: int) -> np.ndarray:
    """Linear interpolation between estimated symbol columns.

    ``column_estimates`` is subcarriers by len(columns); symbols outside
    the estimated span hold the nearest column.  All rows go at once with
    ``np.interp``'s arithmetic on the real and imaginary parts, so each
    row equals its ``np.interp`` to the bit.
    """
    columns = np.asarray(columns, dtype=float)
    grid = np.arange(n_symbols, dtype=float)
    # the last column at or before each symbol, -1 before the first; the
    # ends and exact hits take the column's value as it is
    last = np.searchsorted(columns, grid, side="right") - 1
    held = np.clip(last, 0, columns.size - 1)
    between = (last >= 0) & (last < columns.size - 1) & (grid != columns[held])
    lo = last[between]
    offset = grid[between] - columns[lo]
    width = columns[lo + 1] - columns[lo]
    parts = []
    for vals in (column_estimates.real, column_estimates.imag):
        part = vals[:, held]
        part[:, between] = (vals[:, lo + 1] - vals[:, lo]) / width * offset + vals[:, lo]
        parts.append(part)
    return parts[0] + 1j * parts[1]


def ofdm_estimate(
    y: np.ndarray,
    rs_grid: np.ndarray,
    roles: np.ndarray,
    noise_var: float,
    num_delay_taps: int,
) -> np.ndarray:
    """Reference-signal channel estimate over the full grid.

    Per-cell estimates at the reference symbols, delay-domain
    least-squares interpolation along frequency within each
    reference-bearing symbol (one operator for all the symbols that share
    a subcarrier pattern, applied in row blocks that OpenBLAS keeps in
    the calling thread), then linear interpolation
    along time with edge columns held.  ``rs_grid`` is the transmitted
    grid; only its reference cells are read.  ``num_delay_taps`` bounds
    the assumed delay support (the per-symbol prefix length is the
    natural choice).
    """
    y = np.asarray(y, dtype=complex)
    if y.shape != roles.shape or y.shape != np.shape(rs_grid):
        raise ValueError("grid, reference grid and roles must share a shape")
    rs_mask = roles == CELL_RS
    rs_columns = np.flatnonzero(rs_mask.any(axis=0))
    if rs_columns.size == 0:
        raise ValueError("frame carries no reference symbols")
    cells = rs_cell_estimates(y, rs_grid, roles, noise_var)
    n_sc = y.shape[0]
    per_column = np.empty((n_sc, rs_columns.size), dtype=complex)
    groups: dict[tuple[int, ...], list[int]] = {}
    for j, col in enumerate(rs_columns.tolist()):
        groups.setdefault(tuple(np.flatnonzero(rs_mask[:, col]).tolist()), []).append(j)
    for positions, group in groups.items():
        operator = interpolate_frequency(positions, n_sc, num_delay_taps)
        block = cells[np.ix_(positions, rs_columns[group])]
        # operator @ block, in row blocks small enough that OpenBLAS runs
        # each in the calling thread: a larger product wakes its worker,
        # which then spins on the core the decode helpers need
        rows = max(1, (_SERIAL_GEMM - 1) // block.size)
        for r in range(0, n_sc, rows):
            per_column[r : r + rows, group] = operator[r : r + rows] @ block
    return interpolate_time(per_column, rs_columns, y.shape[1])
