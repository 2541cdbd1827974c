"""Link metrics: PAPR, CCDF accumulation, CP overhead loss, BLER intervals."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def papr_db(stream: np.ndarray, oversample: int = 1) -> float:
    """Peak-to-average power ratio of one transmit stream, in dB.

    ``oversample`` must be at least 1; above 1 the stream is interpolated
    by zero-padded FFT before measuring, exposing peaks that fall between
    samples.  Interpolation preserves mean power.
    """
    stream = np.asarray(stream).ravel()
    if stream.size == 0:
        raise ValueError("empty stream")
    if oversample < 1:
        raise ValueError("oversample must be at least 1")
    if oversample > 1:
        n = stream.size
        spec = np.fft.fft(stream)
        padded = np.zeros(n * oversample, dtype=complex)
        half = n // 2
        padded[:half] = spec[:half]
        padded[-(n - half) :] = spec[half:]
        if n % 2 == 0:
            # split the Nyquist bin symmetrically
            padded[half] = spec[half] / 2
            padded[-half] = spec[half] / 2
        stream = np.fft.ifft(padded) * oversample
    power = np.abs(stream) ** 2
    return 10.0 * np.log10(power.max() / power.mean())


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

    def add(self, value_db: float) -> None:
        self.exceed += value_db > self.thresholds_db
        self.frames += 1

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
