"""Delay-Doppler and block-OFDM modulation transforms.

The delay-Doppler modulator (:class:`GridTransform`) is implemented in
its factored form: placing symbols on the M-by-N delay-Doppler grid,
applying the inverse symplectic finite Fourier transform and then
per-symbol IFFTs collapses to a single IDFT across the Doppler axis,

    Y = X @ W_N,        W_N = unitary N-point IDFT matrix,

read out column by column: ``s = vec(Y) = (W_N kron I_M) vec(X)``, a
unitary map from grid to time samples.  Read row by row instead,

    s_b = vec(Y.T),

the same ``Y`` is a block-OFDM frame with N subcarriers and M symbols.
So the two waveforms share one transform and differ only in sample
order, which is the perfect interleaver

    s[n * M + m] = s_b[m * N + n].

One cyclic prefix covers the whole M*N-sample block in both cases.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def interleave(s_block: np.ndarray, num_delay_bins: int, num_doppler_bins: int) -> np.ndarray:
    """Block-OFDM to delay-Doppler sample order: out[nM + m] = in[mN + n]."""
    s_block = np.asarray(s_block).ravel()
    m, n = num_delay_bins, num_doppler_bins
    if s_block.size != m * n:
        raise ValueError(f"expected {m * n} samples, got {s_block.size}")
    return s_block.reshape(m, n).T.ravel()


def deinterleave(s: np.ndarray, num_delay_bins: int, num_doppler_bins: int) -> np.ndarray:
    """Inverse of :func:`interleave`: out[mN + n] = in[nM + m]."""
    s = np.asarray(s).ravel()
    m, n = num_delay_bins, num_doppler_bins
    if s.size != m * n:
        raise ValueError(f"expected {m * n} samples, got {s.size}")
    return s.reshape(n, m).T.ravel()


def add_cp(s: np.ndarray, cp_samples: int) -> np.ndarray:
    """Prepend the last ``cp_samples`` samples as a cyclic prefix.

    Streams run along the last axis, so a ``(frames, samples)`` batch
    gets one prefix per row; the result is always C-contiguous.
    """
    s = np.asarray(s)
    n = s.shape[-1]
    if cp_samples < 0 or cp_samples > n:
        raise ValueError(f"prefix length {cp_samples} outside [0, {n}]")
    out = np.empty(s.shape[:-1] + (cp_samples + n,), dtype=s.dtype)
    out[..., :cp_samples] = s[..., n - cp_samples :]
    out[..., cp_samples:] = s
    return out


def remove_cp(r: np.ndarray, cp_samples: int) -> np.ndarray:
    """Drop the leading ``cp_samples`` samples of each stream (last axis)."""
    r = np.asarray(r)
    if not 0 <= cp_samples < r.shape[-1]:
        raise ValueError(f"prefix length {cp_samples} outside [0, {r.shape[-1]})")
    return r[..., cp_samples:]


@dataclass(frozen=True)
class GridTransform:
    """Unitary grid-to-samples map used by the equalizer.

    Both kinds run the same N-point IDFT along each row of the M-by-N
    grid; ``kind`` only picks the order in which the transformed grid is
    read out as samples.  ``"block_ofdm"`` reads it row by row (C order,
    sample ``m N + n``): M OFDM symbols of N subcarriers.  ``"otfs"``
    reads it column by column (F order, sample ``n M + m``), which is the
    same frame through the perfect interleaver.  A grid vector is the
    grid flattened column-major (delay fastest).  ``apply``/``adjoint``
    work matrix-free on one vector or a ``(batch, M*N)`` array of rows,
    ``adjoint_power`` pools per-sample powers into grid cells, and
    ``dense`` materializes the M*N square matrix for small problems and
    cross-checks.
    """

    num_delay_bins: int
    num_doppler_bins: int
    kind: str = "otfs"

    def __post_init__(self):
        if self.kind not in ("otfs", "block_ofdm"):
            raise ValueError(f"unknown transform kind {self.kind!r}")

    @property
    def size(self) -> int:
        return self.num_delay_bins * self.num_doppler_bins

    def _rows(self, v: np.ndarray) -> np.ndarray:
        v = np.asarray(v, dtype=complex)
        if v.ndim not in (1, 2) or v.shape[-1] != self.size:
            raise ValueError(f"expected {self.size} samples per row, got shape {v.shape}")
        return v

    def _grid_view(self, v: np.ndarray) -> np.ndarray:
        """Grid vectors as N-by-M grids: Doppler down axis -2, delay along -1."""
        return v.reshape(v.shape[:-1] + (self.num_doppler_bins, self.num_delay_bins))

    def _readout_view(self, s: np.ndarray) -> np.ndarray:
        """Sample rows as the N-by-M grids they are read out of."""
        m, n = self.num_delay_bins, self.num_doppler_bins
        if self.kind == "otfs":
            return s.reshape(s.shape[:-1] + (n, m))
        return s.reshape(s.shape[:-1] + (m, n)).swapaxes(-1, -2)

    def apply(self, x: np.ndarray) -> np.ndarray:
        """Grid vector(s) to time samples; rows are independent."""
        x = self._rows(x)
        out = np.empty(x.shape, dtype=complex)
        # the IDFT writes straight into the read-out order
        np.fft.ifft(self._grid_view(x), axis=-2, norm="ortho", out=self._readout_view(out))
        return out

    def adjoint(self, r: np.ndarray) -> np.ndarray:
        """Time samples back to grid vector(s); rows are independent."""
        r = self._rows(r)
        out = np.empty(r.shape, dtype=complex)
        np.fft.fft(self._readout_view(r), axis=-2, norm="ortho", out=self._grid_view(out))
        return out

    def adjoint_power(self, q: np.ndarray) -> np.ndarray:
        """``(|A|^2)^T q``: per-sample powers pooled into grid cells.

        Column ``m + M k`` of A holds N entries of magnitude 1/sqrt(N),
        at the samples of delay row m, so each cell gets the mean of its
        row's powers.
        """
        q = np.asarray(q, dtype=float).ravel()
        return np.tile(self._readout_view(q).mean(axis=-2), self.num_doppler_bins)

    def dense(self) -> np.ndarray:
        """The transform as an explicit unitary M*N square matrix."""
        return self.apply(np.eye(self.size, dtype=complex)).T
