"""Frame parameters and resource-grid construction.

Two frame layouts are used throughout: a delay-Doppler grid (M delay
rows by N Doppler columns) carrying data plus an embedded impulse pilot,
and a time-frequency grid for the narrowband-OFDM reference waveform
carrying data plus scattered reference symbols on a resource-block
lattice.  Each layout is one read-only role map per geometry
(``otfs_roles``, ``ofdm_roles``), built once and shared; a placed frame
is just its complex value grid over that map, and the data cells are
read back with ``data_cell_indices``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

# Cell roles shared by both grid kinds.
CELL_DATA = 0
CELL_PILOT = 1  # delay-Doppler impulse pilot
CELL_GUARD = 2  # zeroed cells around the impulse
CELL_RS = 3  # OFDM reference symbol
CELL_UNUSED = 4  # outside any resource block

# One resource block spans 12 subcarriers by 14 symbols and carries 8
# reference symbols at these (subcarrier, symbol) offsets.
PRB_SUBCARRIERS = 12
PRB_SYMBOLS = 14
PRB_RS_PATTERN = ((0, 0), (6, 0), (3, 4), (9, 4), (0, 7), (6, 7), (3, 11), (9, 11))


@dataclass(frozen=True)
class FrameParams:
    """Sampling-grid geometry of one transmission frame.

    The bandwidth is ``num_delay_bins * subcarrier_spacing_hz`` and the
    frame duration is ``num_doppler_bins / subcarrier_spacing_hz``; both
    are derived rather than stored so they cannot drift out of step.
    """

    num_delay_bins: int  # M: subcarriers of the wideband grid
    num_doppler_bins: int  # N: symbols of the wideband grid
    subcarrier_spacing_hz: float
    cp_duration_s: float
    carrier_freq_hz: float = 6e9

    def __post_init__(self):
        if self.num_delay_bins < 1 or self.num_doppler_bins < 1:
            raise ValueError("grid dimensions must be positive")
        if self.subcarrier_spacing_hz <= 0:
            raise ValueError("subcarrier spacing must be positive")
        if self.cp_duration_s < 0:
            raise ValueError("cyclic prefix duration must be non-negative")

    @property
    def bandwidth_hz(self) -> float:
        return self.num_delay_bins * self.subcarrier_spacing_hz

    @property
    def symbol_duration_s(self) -> float:
        return 1.0 / self.subcarrier_spacing_hz

    @property
    def frame_duration_s(self) -> float:
        return self.num_doppler_bins * self.symbol_duration_s

    @property
    def block_len(self) -> int:
        """Samples in one frame body (M * N)."""
        return self.num_delay_bins * self.num_doppler_bins

    @property
    def cp_samples(self) -> int:
        """Block cyclic-prefix length, ceil(cp duration * bandwidth)."""
        return cp_sample_count(self.cp_duration_s, self.bandwidth_hz)


def cp_sample_count(cp_duration_s: float, bandwidth_hz: float) -> int:
    return math.ceil(cp_duration_s * bandwidth_hz - 1e-12)


def full_scale_params() -> FrameParams:
    """7.68 MHz / 15 kHz grid, 512 by 128, 4.69 us prefix, 6 GHz carrier."""
    return FrameParams(512, 128, 15e3, 4.69e-6)


def desk_scale_params() -> FrameParams:
    """Reduced 64-by-16 grid with the full-scale spacing, for fast runs."""
    return FrameParams(64, 16, 15e3, 4.69e-6)


def derive_vsb_dims(params: FrameParams, mu: int) -> tuple[int, int, int]:
    """Variable-subcarrier-bandwidth OFDM dimensions for numerology ``mu``.

    Returns ``(n_subcarriers, n_symbols, cp_samples)`` where the grid has
    ``M / 2**mu`` subcarriers of spacing ``2**mu * subcarrier_spacing`` and
    ``N * 2**mu`` symbols, each prefixed with ``ceil(2**-mu * Tcp * B)``
    samples.  The total bandwidth and frame body length are unchanged.
    """
    if mu < 0 or int(mu) != mu:
        raise ValueError(f"numerology must be a non-negative integer, got {mu}")
    scale = 1 << mu
    if params.num_delay_bins % scale:
        raise ValueError(
            f"numerology {mu} does not divide {params.num_delay_bins} subcarriers"
        )
    n_sc = params.num_delay_bins // scale
    n_sym = params.num_doppler_bins * scale
    cp = cp_sample_count(params.cp_duration_s / scale, params.bandwidth_hz)
    return n_sc, n_sym, cp


def num_prb(params: FrameParams, mu: int) -> int:
    """Whole resource blocks that fit the numerology-``mu`` grid.

    May be zero for tiny frames; the caller decides whether that is an
    error.
    """
    n_sc, n_sym, _ = derive_vsb_dims(params, mu)
    return (n_sc // PRB_SUBCARRIERS) * (n_sym // PRB_SYMBOLS)


@dataclass(frozen=True)
class PilotConfig:
    """Embedded impulse-pilot geometry on the delay-Doppler grid.

    ``k_p``/``l_p`` locate the impulse, ``k_nu``/``l_tau`` bound the
    channel's Doppler and delay spread in grid bins, and ``boost_db`` is
    the pilot power over the per-data-symbol power.
    """

    k_p: int
    l_p: int
    k_nu: int
    l_tau: int
    boost_db: float = 28.0

    def __post_init__(self):
        if self.k_nu < 0 or self.l_tau < 0:
            raise ValueError("channel spread bounds must be non-negative")

    def validate(self, params: FrameParams) -> None:
        """Check the guard region fits the grid without wrapping."""
        n = params.num_doppler_bins
        m = params.num_delay_bins
        k_lo, k_hi = 2 * self.k_nu + 1, n - 2 * self.k_nu - 2
        l_lo, l_hi = self.l_tau + 1, m - self.l_tau - 2
        if not k_lo <= self.k_p <= k_hi:
            raise ValueError(
                f"pilot Doppler bin {self.k_p} outside [{k_lo}, {k_hi}] for N={n}"
            )
        if not l_lo <= self.l_p <= l_hi:
            raise ValueError(
                f"pilot delay bin {self.l_p} outside [{l_lo}, {l_hi}] for M={m}"
            )

    @classmethod
    def centered(
        cls,
        params: FrameParams,
        k_nu: int,
        l_tau: int,
        boost_db: float = 28.0,
        k_p: int | None = None,
        l_p: int | None = None,
    ) -> "PilotConfig":
        """Place the pilot at (or clamped near) the grid centre.

        Explicit ``k_p``/``l_p`` are honoured but still validated.
        """
        n = params.num_doppler_bins
        m = params.num_delay_bins
        if k_p is None:
            k_p = int(np.clip(n // 2, 2 * k_nu + 1, n - 2 * k_nu - 2))
        if l_p is None:
            l_p = int(np.clip(m // 4, l_tau + 1, m - l_tau - 2))
        cfg = cls(k_p, l_p, k_nu, l_tau, boost_db)
        cfg.validate(params)
        return cfg

    @property
    def amplitude_for_unit_data(self) -> float:
        return float(10.0 ** (self.boost_db / 20.0))


@functools.lru_cache(maxsize=16)
def otfs_roles(params: FrameParams, cfg: PilotConfig) -> np.ndarray:
    """Role map for the delay-Doppler frame.

    The guard spans ``k_p +- 2 k_nu`` in Doppler but only ``l_p +- l_tau``
    in delay: received pilot energy appears at Doppler offsets up to
    ``2 k_nu`` (two-sided spread convolved with the read-out window) while
    delay spread is one-sided.  Built once per geometry and shared, so
    the array is read-only.
    """
    cfg.validate(params)
    roles = np.full(
        (params.num_delay_bins, params.num_doppler_bins), CELL_DATA, dtype=np.uint8
    )
    l_span = slice(cfg.l_p - cfg.l_tau, cfg.l_p + cfg.l_tau + 1)
    k_span = slice(cfg.k_p - 2 * cfg.k_nu, cfg.k_p + 2 * cfg.k_nu + 1)
    roles[l_span, k_span] = CELL_GUARD
    roles[cfg.l_p, cfg.k_p] = CELL_PILOT
    roles.flags.writeable = False
    return roles


def data_cell_indices(roles: np.ndarray) -> np.ndarray:
    """Flat indices (column-major, delay fastest) of the data cells."""
    return np.flatnonzero(roles.ravel(order="F") == CELL_DATA)


def _frames_of(flat: np.ndarray, roles: np.ndarray) -> np.ndarray:
    """View flat column-major frames (last axis) as grids shaped like ``roles``."""
    return flat.reshape(flat.shape[:-1] + roles.shape[::-1]).swapaxes(-1, -2)


def place_otfs_frame(
    data: np.ndarray, cfg: PilotConfig, params: FrameParams
) -> np.ndarray:
    """Assemble the M-by-N delay-Doppler frame: data, impulse pilot, zero guard.

    ``data`` must hold exactly ``M*N - (4 k_nu + 1)(2 l_tau + 1)`` symbols
    of unit mean power; they fill the data cells column-major (delay
    fastest).  The pilot amplitude is ``10**(boost_db / 20)``.  A
    ``(frames, symbols)`` batch gives a ``(frames, M, N)`` stack; every
    frame is column-major in memory, so ``swapaxes(-1, -2)`` of the
    result reshapes to flat column-major vectors without a copy.
    """
    roles = otfs_roles(params, cfg)
    idx = data_cell_indices(roles)
    data = np.asarray(data, dtype=complex)
    if data.shape[-1:] != (idx.size,):
        raise ValueError(f"expected {idx.size} data symbols, got shape {data.shape}")
    flat = np.zeros(data.shape[:-1] + (roles.size,), dtype=complex)
    flat[..., idx] = data
    flat[..., cfg.k_p * params.num_delay_bins + cfg.l_p] = cfg.amplitude_for_unit_data
    return _frames_of(flat, roles)


def _prb_origins(n_sc: int, n_sym: int):
    """Resource-block corner coordinates, frequency index fastest."""
    for t in range(n_sym // PRB_SYMBOLS):
        for f in range(n_sc // PRB_SUBCARRIERS):
            yield f * PRB_SUBCARRIERS, t * PRB_SYMBOLS


@functools.lru_cache(maxsize=16)
def ofdm_roles(params: FrameParams, mu: int) -> np.ndarray:
    """Role map for the OFDM frame: RS lattice, data, unused remainder.

    Built once per geometry and shared, so the array is read-only.
    """
    n_sc, n_sym, _ = derive_vsb_dims(params, mu)
    roles = np.full((n_sc, n_sym), CELL_UNUSED, dtype=np.uint8)
    for sc0, sym0 in _prb_origins(n_sc, n_sym):
        roles[sc0 : sc0 + PRB_SUBCARRIERS, sym0 : sym0 + PRB_SYMBOLS] = CELL_DATA
        for dsc, dsym in PRB_RS_PATTERN:
            roles[sc0 + dsc, sym0 + dsym] = CELL_RS
    roles.flags.writeable = False
    return roles


def place_ofdm_frame(
    data: np.ndarray,
    rs_symbols: np.ndarray,
    params: FrameParams,
    mu: int,
) -> np.ndarray:
    """Assemble the subcarrier-by-symbol OFDM frame from data and references.

    ``data`` must hold ``160 * num_prb`` symbols and ``rs_symbols``
    ``8 * num_prb`` unit-magnitude references.  Both fill their cells
    column-major over the whole grid (subcarrier fastest, then symbol);
    cells outside any whole resource block stay zero.  A batch of
    ``(frames, symbols)`` rows gives a ``(frames, subcarriers, symbols)``
    stack, each frame column-major in memory.
    """
    roles = ofdm_roles(params, mu)
    flat_roles = roles.ravel(order="F")
    data = np.asarray(data, dtype=complex)
    flat = np.zeros(data.shape[:-1] + (roles.size,), dtype=complex)
    for name, symbols, role in (
        ("data", data, CELL_DATA),
        ("reference", rs_symbols, CELL_RS),
    ):
        cells = flat_roles == role
        symbols = np.asarray(symbols, dtype=complex)
        want = data.shape[:-1] + (int(np.count_nonzero(cells)),)
        if symbols.shape != want:
            raise ValueError(f"expected {want} {name} symbols, got {symbols.shape}")
        flat[..., cells] = symbols
    return _frames_of(flat, roles)


def equal_total_pilot_power_boost_db(params: FrameParams, mu: int = 0) -> float:
    """Pilot boost that matches the OFDM frame's total reference power.

    The single delay-Doppler impulse carries the power an OFDM frame of
    the same geometry spends on all its reference symbols (one per-data-
    symbol power unit each), so the boost is ``10 log10(8 * num_prb)``.
    On the full-scale 512x128 grid at ``mu = 0``, 42 x 9 = 378 whole
    blocks carry 3024 references, so the boost is 34.81 dB; on the 64x16
    desk grid it is 16.02 dB.
    """
    n_rs = len(PRB_RS_PATTERN) * num_prb(params, mu)
    if n_rs == 0:
        raise ValueError("frame too small to hold a resource block")
    return float(10.0 * np.log10(n_rs))
