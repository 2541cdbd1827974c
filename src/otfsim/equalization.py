"""Frame equalizers and per-symbol log-likelihood ratios.

The delay-Doppler waveforms share one linear MMSE equalizer acting on
the whole frame body: with G = H_hat A (channel estimate times the
unitary grid transform),

    x_hat = G^H (G G^H + rho I)^{-1} r,      rho = sigma_n^2 / sigma_d^2,

and per-symbol output noise sigma^2(eta) = sigma_n^2 times the squared
row norms of the combining matrix.  Since A is unitary, G G^H equals
H_hat H_hat^H, the sparse cyclic band that the channel module builds
from its few delay taps.  One sparse LU factor of G G^H + rho I serves
the payload solve and the variances.  Up to ``EXACT_VARIANCE_LIMIT``
samples the variances are exact: an estimate with one distinct delay
(every desk-scale channel) makes G G^H + rho I diagonal, and the column
norms reduce to per-sample powers pooled into grid cells in O(MN); more
delays take the dense column norms.  Beyond the limit seeded random sign
probes estimate them.

The narrowband-OFDM waveform uses per-cell division by the estimated
gain with effective noise sigma_v^2 / |h|^2; cells whose estimate sits
below a floor become erasures whose LLRs are forced to zero.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import splu

from . import channel as chan
from .channel import ChannelRealization
from .mapping import Constellation
from .transforms import GridTransform

# noise_vars stay finite and positive even on noiseless input
VAR_FLOOR = 1e-30
# |estimate| below this flags the cell as an erasure
FADE_FLOOR = 1e-12
# exact variances of a multi-delay estimate solve against the dense
# n-by-n H: a complex array of 16 n^2 bytes, 64 MB at n = 2048 and 268 MB
# at 4096; a single-delay estimate needs O(n); beyond, probes for both
EXACT_VARIANCE_LIMIT = 2048
# an LU pivot this far below the largest marks the system singular
SINGULAR_PIVOT_RATIO = 1e-12


@dataclass
class EqualizedFrame:
    """Equalized symbols with per-symbol output noise variances.

    ``erasures`` marks cells carrying no usable information (deep fades
    under single-tap equalization); their LLRs are forced to zero.
    """

    symbols: np.ndarray
    noise_vars: np.ndarray
    erasures: np.ndarray = field(default=None)

    def __post_init__(self):
        self.symbols = np.asarray(self.symbols, dtype=complex).ravel()
        self.noise_vars = np.asarray(self.noise_vars, dtype=float).ravel()
        if self.erasures is None:
            self.erasures = np.zeros(self.symbols.size, dtype=bool)
        self.erasures = np.asarray(self.erasures, dtype=bool).ravel()
        if not (self.symbols.size == self.noise_vars.size == self.erasures.size):
            raise ValueError("symbols, noise_vars and erasures must align")
        if not np.all(np.isfinite(self.noise_vars)) or np.any(self.noise_vars <= 0):
            raise ValueError("noise variances must be finite and positive")

    def select(self, indices: np.ndarray) -> "EqualizedFrame":
        """The sub-frame at the given cell indices (e.g. payload cells)."""
        return EqualizedFrame(
            self.symbols[indices], self.noise_vars[indices], self.erasures[indices]
        )


def _factor(ch: ChannelRealization, rho: float):
    """Sparse LU factor of H H^H + rho I, ridged if it is singular.

    SuperLU raises only on an exactly zero pivot; a pivot that is zero
    up to rounding is caught by its ratio to the largest one.
    """
    eye = sparse.identity(ch.block_len)
    k = (chan.gram_matrix(ch) + rho * eye).tocsc()
    try:
        lu = splu(k)
        pivots = np.abs(lu.U.diagonal())
        singular = pivots.min() < SINGULAR_PIVOT_RATIO * pivots.max()
    except RuntimeError:  # exactly singular
        singular = True
    if not singular:
        return lu
    scale = max(float(np.abs(k.diagonal().real).max()), 1.0)
    ridge = 1e-12 * scale
    warnings.warn(
        f"equalizer system singular (condition above {scale / ridge:.2e});"
        f" retrying with ridge {ridge:.2e}",
        RuntimeWarning,
        stacklevel=3,
    )
    return splu((k + ridge * eye).tocsc())


def _exact_noise_vars(
    ch: ChannelRealization, transform: GridTransform, lu, noise_var: float
) -> np.ndarray:
    """sigma_n^2 * squared column norms of (H H^H + rho I)^{-1} H A.

    Right-multiplying by A is done through the adjoint transform on the
    conjugate transpose, so no dense A is formed; the columns of B A are
    the rows of its conjugate transpose.
    """
    b = lu.solve(ch.matrix.toarray())
    ba_hermitian = transform.adjoint(b.conj().T)
    col_norms_sq = np.sum(np.abs(ba_hermitian) ** 2, axis=1)
    return np.maximum(noise_var * col_norms_sq, VAR_FLOOR)


def _diagonal_noise_vars(
    ch: ChannelRealization, transform: GridTransform, lu, noise_var: float
) -> np.ndarray:
    """Exact variances when H has one distinct delay, in O(n).

    Then H H^H + rho I is diagonal, so (H H^H + rho I)^{-1} H has the
    entries d_u H_ui with d the factored system's solve of the all-ones
    vector (ridge included), and its squared column norms after A are
    (|A|^2)^T q with q_i = sum_u |d_u H_ui|^2.
    """
    d_sq = np.abs(lu.solve(np.ones(ch.block_len, dtype=complex))) ** 2
    q = abs(ch.matrix).power(2).T @ d_sq
    return np.maximum(noise_var * transform.adjoint_power(q), VAR_FLOOR)


def _probe_noise_vars(
    ch: ChannelRealization,
    transform: GridTransform,
    lu,
    noise_var: float,
    probes: int,
    probe_seed: int,
) -> np.ndarray:
    """Stochastic diagonal estimate of the combining-matrix Gram.

    Averages conj(z) * (M^H M z) over random sign probes z, where
    M = (H H^H + rho I)^{-1} H A; unbiased with relative error shrinking
    like 1/sqrt(probes).
    """
    n = transform.size
    rng = np.random.default_rng(probe_seed)
    acc = np.zeros(n)
    for _ in range(max(1, probes)):
        z = rng.integers(0, 2, size=n) * 2.0 - 1.0
        mz = lu.solve(chan.apply_channel_operator(ch, transform.apply(z)))
        mhmz = transform.adjoint(chan.apply_channel_operator_adjoint(ch, lu.solve(mz)))
        acc += np.real(np.conj(z) * mhmz)
    diag = acc / max(1, probes)
    return np.maximum(noise_var * diag, VAR_FLOOR)


def lmmse_equalize(
    r_body: np.ndarray,
    ch: ChannelRealization,
    transform: GridTransform,
    noise_var: float,
    variance_probes: int = 8,
    probe_seed: int = 0,
) -> EqualizedFrame:
    """Whole-frame linear MMSE equalization against a tap-set estimate.

    The data symbols are taken to have unit power.  Per-symbol variances are exact up to ``EXACT_VARIANCE_LIMIT``
    samples, in closed form when the estimate has one distinct delay,
    and estimated with ``variance_probes`` random sign probes, drawn
    from ``probe_seed``, beyond.
    """
    r_body = np.asarray(r_body, dtype=complex).ravel()
    n = transform.size
    if r_body.size != n:
        raise ValueError(f"expected {n} samples, got {r_body.size}")
    if ch.block_len != n:
        raise ValueError("channel and transform describe different frame sizes")
    if noise_var < 0:
        raise ValueError("noise variance must be non-negative")

    lu = _factor(ch, noise_var)
    if n > EXACT_VARIANCE_LIMIT:
        noise_vars = _probe_noise_vars(
            ch, transform, lu, noise_var, variance_probes, probe_seed
        )
    elif np.unique(ch.delay_bins % n).size == 1:
        noise_vars = _diagonal_noise_vars(ch, transform, lu, noise_var)
    else:
        noise_vars = _exact_noise_vars(ch, transform, lu, noise_var)
    symbols = transform.adjoint(chan.apply_channel_operator_adjoint(ch, lu.solve(r_body)))
    return EqualizedFrame(symbols, noise_vars)


def single_tap_equalize(
    y_grid: np.ndarray, gain_grid: np.ndarray, noise_var: float
) -> EqualizedFrame:
    """Per-cell division by estimated gains on a time-frequency grid.

    Effective per-cell noise is ``noise_var / |gain|^2``.  Estimates with
    magnitude under ``FADE_FLOOR`` yield erasure cells: zero symbol, unit
    placeholder variance, LLRs later forced to zero.
    """
    y = np.asarray(y_grid, dtype=complex).ravel(order="F")
    h = np.asarray(gain_grid, dtype=complex).ravel(order="F")
    if y.shape != h.shape:
        raise ValueError("grid and gain shapes differ")
    faded = np.abs(h) < FADE_FLOOR
    safe = np.where(faded, 1.0, h)
    symbols = np.where(faded, 0.0, y / safe)
    noise_vars = np.where(
        faded, 1.0, np.maximum(noise_var / np.abs(safe) ** 2, VAR_FLOOR)
    )
    return EqualizedFrame(symbols, noise_vars, faded)


def compute_llrs(eq: EqualizedFrame, constellation: Constellation) -> np.ndarray:
    """Max-log bit LLRs, one row per symbol, positive favouring bit 0.

    Row eta, bit j is ``(min over bit-1 points of |x - s|^2 - min over
    bit-0 points) / noise_vars[eta]``: the squared-distance difference
    ordered so that a positive value means bit 0 is the nearer
    hypothesis, matching the decoder's input convention.  Erasure rows
    are zero.
    """
    points = constellation.points
    bits = constellation.bits
    dists = np.abs(eq.symbols[:, None] - points[None, :]) ** 2
    llrs = np.empty((eq.symbols.size, constellation.bits_per_symbol))
    for j in range(constellation.bits_per_symbol):
        zero_set = bits[:, j] == 0
        d0 = dists[:, zero_set].min(axis=1)
        d1 = dists[:, ~zero_set].min(axis=1)
        llrs[:, j] = (d1 - d0) / eq.noise_vars
    llrs[eq.erasures] = 0.0
    return llrs
