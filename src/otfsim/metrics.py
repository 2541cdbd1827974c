"""Link metrics: PAPR, CCDF accumulation, CP overhead loss, BLER intervals."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def papr_db(stream: np.ndarray, oversample: int = 1) -> float | np.ndarray:
    """Peak-to-average power ratio of transmit streams, in dB.

    A 1-D stream gives one float.  A ``(frames, samples)`` array gives
    one value per row, each equal to the 1-D call on that row: every
    reduction runs along C-contiguous rows, whatever the input's layout.
    ``oversample`` must be at least 1; above 1 each stream is
    interpolated by zero-padded FFT before measuring, exposing peaks that
    fall between samples.  Interpolation preserves mean power.
    """
    stream = np.asarray(stream)
    if stream.ndim not in (1, 2):
        raise ValueError("expected one stream or a (frames, samples) array")
    if stream.shape[-1] == 0:
        raise ValueError("empty stream")
    if oversample < 1:
        raise ValueError("oversample must be at least 1")
    rows = np.ascontiguousarray(stream.reshape(-1, stream.shape[-1]))
    if oversample > 1:
        n = rows.shape[1]
        spec = np.fft.fft(rows, axis=1)
        padded = np.zeros((rows.shape[0], n * oversample), dtype=complex)
        half = n // 2
        padded[:, :half] = spec[:, :half]
        padded[:, -(n - half) :] = spec[:, half:]
        if n % 2 == 0:
            # split the Nyquist bin symmetrically
            padded[:, half] = spec[:, half] / 2
            padded[:, -half] = spec[:, half] / 2
        rows = np.fft.ifft(padded, axis=1) * oversample
    power = np.abs(rows)
    power *= power
    ratio = 10.0 * np.log10(power.max(axis=1) / power.mean(axis=1))
    return float(ratio[0]) if stream.ndim == 1 else ratio


@dataclass
class PaprAccumulator:
    """Counts threshold exceedances over frames."""

    thresholds_db: np.ndarray
    exceed: np.ndarray = None
    frames: int = 0

    def __post_init__(self):
        self.thresholds_db = np.asarray(self.thresholds_db, dtype=float)
        if self.exceed is None:
            self.exceed = np.zeros(self.thresholds_db.size, dtype=np.int64)

    def add(self, values_db) -> None:
        """Tally one frame's PAPR, or an array of per-frame values."""
        values = np.asarray(values_db, dtype=float).reshape(-1, 1)
        self.exceed += (values > self.thresholds_db).sum(axis=0)
        self.frames += values.shape[0]

    def ccdf(self) -> np.ndarray:
        """P(PAPR > threshold) at each of ``thresholds_db``."""
        if self.frames == 0:
            raise ValueError("no frames accumulated")
        return self.exceed / self.frames


def cp_snr_loss_db(body_samples: int, cp_samples: int) -> float:
    """SNR cost of spending fixed frame energy on a prefix the receiver drops."""
    if cp_samples < 0 or body_samples <= 0:
        raise ValueError("invalid sample counts")
    return 10.0 * np.log10((body_samples + cp_samples) / body_samples)


def wilson_interval(errors: int, trials: int, z: float = 1.96) -> tuple[float, float]:
    """Wilson score interval for an error proportion (95% at default z)."""
    if trials <= 0:
        return (0.0, 1.0)
    p = errors / trials
    denom = 1.0 + z * z / trials
    center = (p + z * z / (2 * trials)) / denom
    half = z * np.sqrt(p * (1 - p) / trials + z * z / (4 * trials * trials)) / denom
    return (max(0.0, center - half), min(1.0, center + half))


@dataclass
class BlerPoint:
    """Block-error tally at one SNR point, added to trial by trial."""

    snr_db: float
    block_errors: int = 0
    blocks: int = 0
    trials: int = 0

    def add(self, errors: int, blocks: int) -> None:
        """Tally one trial's codeword errors out of its ``blocks`` codewords."""
        self.block_errors += errors
        self.blocks += blocks
        self.trials += 1

    @property
    def bler(self) -> float:
        return self.block_errors / self.blocks if self.blocks else float("nan")

    def interval(self, z: float = 1.96) -> tuple[float, float]:
        return wilson_interval(self.block_errors, self.blocks, z)
