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
    """Drop the leading ``cp_samples`` samples."""
    r = np.asarray(r)
    if cp_samples < 0 or cp_samples >= r.size:
        raise ValueError(f"prefix length {cp_samples} outside [0, {r.size})")
    return r[cp_samples:]


@dataclass(frozen=True)
class GridTransform:
    """Unitary grid-to-samples map used by the equalizer.

    Both kinds run the same N-point IDFT along each row of the M-by-N
    grid (columns of the column-major vectorized grids are independent
    inputs); ``kind`` only picks the order in which the transformed grid
    is read out as samples.  ``"block_ofdm"`` reads it row by row (C
    order, sample ``m N + n``): M OFDM symbols of N subcarriers.
    ``"otfs"`` reads it column by column (F order, sample ``n M + m``),
    which is the same frame through the perfect interleaver.
    ``apply``/``adjoint`` work matrix-free on batches of column vectors,
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

    @property
    def order(self) -> str:
        """Sample read order of the transformed grid: "F" for OTFS, "C" for block OFDM."""
        return "F" if self.kind == "otfs" else "C"

    def _as_batch(self, v: np.ndarray) -> tuple[np.ndarray, bool]:
        v = np.asarray(v, dtype=complex)
        if v.ndim == 1:
            return v[:, None], True
        return v, False

    def apply(self, x: np.ndarray) -> np.ndarray:
        """Grid vector(s) to time samples; columns are independent."""
        v, squeeze = self._as_batch(x)
        m, n, k = self.num_delay_bins, self.num_doppler_bins, v.shape[1]
        # laid out in read-out order, so the read-out is a view
        rows = np.empty((m, n, k), dtype=complex, order=self.order)
        np.fft.ifft(v.reshape(m, n, k, order="F"), axis=1, norm="ortho", out=rows)
        out = rows.reshape(m * n, k, order=self.order)
        return out[:, 0] if squeeze else out

    def adjoint(self, r: np.ndarray) -> np.ndarray:
        """Time samples back to grid vector(s)."""
        v, squeeze = self._as_batch(r)
        m, n, k = self.num_delay_bins, self.num_doppler_bins, v.shape[1]
        rows = np.fft.fft(v.reshape(m, n, k, order=self.order), axis=1, norm="ortho")
        out = rows.reshape(m * n, k, order="F")
        return out[:, 0] if squeeze else out

    def adjoint_power(self, q: np.ndarray) -> np.ndarray:
        """``(|A|^2)^T q``: per-sample powers pooled into grid cells.

        Column ``m + M k`` of A holds N entries of magnitude 1/sqrt(N),
        at the samples of delay row m, so each cell gets the mean of its
        row's powers.
        """
        q = np.asarray(q, dtype=float).ravel()
        m, n = self.num_delay_bins, self.num_doppler_bins
        return np.tile(q.reshape(m, n, order=self.order).mean(axis=1), n)

    def dense(self) -> np.ndarray:
        """The transform as an explicit unitary M*N square matrix."""
        return self.apply(np.eye(self.size, dtype=complex))
