"""Delay-Doppler and block-OFDM modulation transforms.

The delay-Doppler modulator (:class:`GridTransform`) is implemented in
its factored form: placing symbols on the M-by-N delay-Doppler grid,
applying the inverse symplectic finite Fourier transform and then
per-symbol IFFTs collapses to a single IDFT across the Doppler axis
followed by column-major vectorization,

    s = vec(X @ W_N),        W_N = unitary N-point IDFT matrix.

Equivalently ``s = (W_N kron I_M) vec(X)``: a unitary map from grid to
time samples.  The same grid sent through per-row IDFTs instead,

    s_b = vec(W_N @ X.T),

is a block-OFDM frame with N subcarriers and M symbols, and the two
sample streams are related by the perfect interleaver

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
    """Prepend the last ``cp_samples`` samples as a cyclic prefix."""
    s = np.asarray(s)
    if cp_samples < 0 or cp_samples > s.size:
        raise ValueError(f"prefix length {cp_samples} outside [0, {s.size}]")
    if cp_samples == 0:
        return s.copy()
    return np.concatenate([s[-cp_samples:], s])


def remove_cp(r: np.ndarray, cp_samples: int) -> np.ndarray:
    """Drop the leading ``cp_samples`` samples."""
    r = np.asarray(r)
    if cp_samples < 0 or cp_samples >= r.size:
        raise ValueError(f"prefix length {cp_samples} outside [0, {r.size})")
    return r[cp_samples:]


@dataclass(frozen=True)
class GridTransform:
    """Unitary grid-to-samples map used by the equalizer.

    ``kind`` selects the delay-Doppler map (``"otfs"``) or the block-OFDM
    map (``"block_ofdm"``); both act on column-major vectorized M-by-N
    grids.  ``apply``/``adjoint`` work matrix-free on batches of column
    vectors, ``adjoint_power`` pools per-sample powers into grid cells,
    and ``dense`` materializes the M*N square matrix for small problems
    and cross-checks.
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

    def _as_batch(self, v: np.ndarray) -> tuple[np.ndarray, bool]:
        v = np.asarray(v, dtype=complex)
        if v.ndim == 1:
            return v[:, None], True
        return v, False

    def apply(self, x: np.ndarray) -> np.ndarray:
        """Grid vector(s) to time samples; columns are independent."""
        v, squeeze = self._as_batch(x)
        m, n, k = self.num_delay_bins, self.num_doppler_bins, v.shape[1]
        grids = v.reshape(m, n, k, order="F")
        if self.kind == "otfs":
            out = np.fft.ifft(grids, axis=1, norm="ortho").reshape(m * n, k, order="F")
        else:
            sym = np.fft.ifft(grids.transpose(1, 0, 2), axis=0, norm="ortho")
            out = sym.reshape(m * n, k, order="F")
        return out[:, 0] if squeeze else out

    def adjoint(self, r: np.ndarray) -> np.ndarray:
        """Time samples back to grid vector(s)."""
        v, squeeze = self._as_batch(r)
        m, n, k = self.num_delay_bins, self.num_doppler_bins, v.shape[1]
        if self.kind == "otfs":
            grids = np.fft.fft(v.reshape(m, n, k, order="F"), axis=1, norm="ortho")
            out = grids.reshape(m * n, k, order="F")
        else:
            sym = np.fft.fft(v.reshape(n, m, k, order="F"), axis=0, norm="ortho")
            out = sym.transpose(1, 0, 2).reshape(m * n, k, order="F")
        return out[:, 0] if squeeze else out

    def adjoint_power(self, q: np.ndarray) -> np.ndarray:
        """``(|A|^2)^T q``: per-sample powers pooled into grid cells.

        Column ``m + M k`` of A holds N entries of magnitude 1/sqrt(N),
        at the samples of delay row m (``n M + m`` for OTFS, ``m N + n``
        for block OFDM), so each cell gets the mean of its row's powers.
        """
        q = np.asarray(q, dtype=float).ravel()
        m, n = self.num_delay_bins, self.num_doppler_bins
        if self.kind == "otfs":
            rows = q.reshape(m, n, order="F").mean(axis=1)
        else:
            rows = q.reshape(n, m, order="F").mean(axis=0)
        return np.tile(rows, n)

    def dense(self) -> np.ndarray:
        """The transform as an explicit unitary M*N square matrix."""
        return self.apply(np.eye(self.size, dtype=complex))
