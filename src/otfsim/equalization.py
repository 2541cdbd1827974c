"""Frame equalizers and per-symbol log-likelihood ratios.

The delay-Doppler waveforms share one linear MMSE equalizer acting on
the whole frame body: with G = H_hat A (channel estimate times the
unitary grid transform),

    x_hat = G^H (G G^H + rho I)^{-1} r,      rho = sigma_n^2 / sigma_d^2,

and per-symbol output noise sigma^2(eta) = sigma_n^2 times the squared
row norms of the combining matrix.  Since A is unitary, G G^H equals
H_hat H_hat^H, the cyclic band of half-width L (the largest delay
offset) that the channel module builds from its per-delay diagonals.
Reordered by the fold 0, n-1, 1, n-2, ..., the cyclic band of
G G^H + rho I becomes a plain band of half-width 2L, so one banded
Cholesky factor serves the payload solve and the variances, with no
wrap-around correction.  The factor and its block solve are the C
kernel of ``otfsim._kernels`` on LAPACK's lower band storage.  An
estimate with one distinct delay (nearly every desk-scale one) makes
G G^H + rho I diagonal, and its exact variances, at any frame size,
reduce to per-sample powers pooled into grid cells in O(MN).  With
more delays, up to ``EXACT_VARIANCE_LIMIT`` samples, one block solve
against the identity gives the combiner's columns and so the exact
variances; beyond the limit a diagonal estimator probes the combiner
with a block of seeded random sign rows solved together.

The narrowband-OFDM waveform uses per-cell division by the estimated
gain with effective noise sigma_v^2 / |h|^2; cells whose estimate sits
below a floor become erasures whose LLRs are forced to zero.
"""

from __future__ import annotations

import threading
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import channel as chan
from ._kernels import band_cholesky, band_solve
from .channel import ChannelRealization
from .mapping import Constellation
from .transforms import GridTransform

# noise_vars stay finite and positive even on noiseless input
VAR_FLOOR = 1e-30
# |estimate| below this flags the cell as an erasure
FADE_FLOOR = 1e-12
# exact variances of a multi-delay estimate take one pass over the n-by-n
# identity, which holds a few complex n-by-n blocks of 16 n^2 bytes, 64 MB at
# n = 2048 and 268 MB at 4096; beyond, sign probes estimate them (a
# single-delay estimate needs O(n) at any size)
EXACT_VARIANCE_LIMIT = 2048
# a Cholesky pivot (squared diagonal) this far below the largest marks
# the system singular
SINGULAR_PIVOT_RATIO = 1e-12
# symbols per pass of compute_llrs: a 64-point distance table over this many
# symbols is 2 MB, which stays in cache where a whole frame's would not
LLR_CHUNK = 4096
# each thread's compute_llrs tables, kept between calls: a desk frame's
# fresh tables are large enough that glibc's malloc hands them back to the
# system when they are freed, so every frame page-faulted them in again
_llr_tables = threading.local()


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


def fold_order(n: int) -> np.ndarray:
    """The samples in fold order 0, n-1, 1, n-2, ...

    Neighbours on the cycle, ``u`` and ``u + d (mod n)``, end up at most
    ``2 |d|`` places apart, so a cyclic band of half-width L becomes a
    plain band of half-width 2L.
    """
    order = np.empty(n, dtype=np.int64)
    order[0::2] = np.arange((n + 1) // 2)
    order[1::2] = n - 1 - np.arange(n // 2)
    return order


def _lower_band(band: np.ndarray, place: np.ndarray) -> np.ndarray:
    """LAPACK lower band storage of the fold-ordered cyclic band.

    ``band`` is a cyclic band as :func:`otfsim.channel.gram_matrix`
    returns it, and ``place[u]`` is the position of sample ``u`` in fold
    order.  Each entry ``K[u, u + d]`` moves to ``place[u]`` and
    ``place[u + d]``; those in the lower triangle are stored, and rows
    whose offsets are congruent mod n add into one entry.
    """
    half = band.shape[0] // 2
    n = band.shape[1]
    ab = np.zeros((min(2 * half, n - 1) + 1, n), dtype=complex)
    for d in range(-half, half + 1):
        cols = np.roll(place, -d)
        lower = place >= cols
        ab[place[lower] - cols[lower], cols[lower]] += band[half + d, lower]
    return ab


@dataclass(frozen=True)
class BandFactor:
    """Banded Cholesky factor of H H^H + rho I, taken in fold order.

    ``lower`` is the factor in LAPACK's lower band storage, pivots real
    in row 0, as :func:`otfsim._kernels.band_cholesky` returns it; the C
    solve reads each row through ``order``.  ``place`` is the inverse
    permutation of ``order``.
    """

    order: np.ndarray
    place: np.ndarray
    lower: np.ndarray

    def solve(self, b: np.ndarray) -> np.ndarray:
        """(H H^H + rho I)^{-1} b for one vector or a ``(batch, n)`` array of rows."""
        return band_solve(self.lower, self.order, b)


def _factor(ch: ChannelRealization, rho: float) -> BandFactor:
    """Banded Cholesky factor of H H^H + rho I, ridged if it is singular.

    The factor stops only on a pivot that is not positive; one that is
    zero up to rounding is caught by its ratio to the largest.  Either
    way the ridge is added to the unfactored band, which the factor
    leaves as it is.
    """
    band = chan.gram_matrix(ch)
    band[band.shape[0] // 2] += rho
    order = fold_order(ch.block_len)
    place = np.empty_like(order)
    place[order] = np.arange(order.size)
    ab = _lower_band(band, place)
    try:
        lower = band_cholesky(ab)
        pivots = lower[0].real ** 2
        singular = pivots.min() < SINGULAR_PIVOT_RATIO * pivots.max()
    except np.linalg.LinAlgError:  # not positive definite
        singular = True
    if not singular:
        return BandFactor(order, place, lower)
    scale = max(float(np.abs(ab[0].real).max()), 1.0)
    ridge = 1e-12 * scale
    warnings.warn(
        f"equalizer system singular (condition above {scale / ridge:.2e});"
        f" retrying with ridge {ridge:.2e}",
        RuntimeWarning,
        stacklevel=3,
    )
    ab[0] += ridge
    return BandFactor(order, place, band_cholesky(ab))


def _diagonal_noise_vars(
    ch: ChannelRealization, transform: GridTransform, factor: BandFactor, noise_var: float
) -> np.ndarray:
    """Exact variances when H has one distinct delay, in O(n).

    Then H = diag(c) P^l and H H^H + rho I is diagonal, so
    (H H^H + rho I)^{-1} H has the entries d_u c_u in column u - l, with d
    the factored system's solve of the all-ones vector (ridge included),
    and its squared column norms after A are (|A|^2)^T q with
    q_(u - l) = |d_u c_u|^2.
    """
    (l,), (c,) = ch.folded_diagonals
    d_sq = np.abs(factor.solve(np.ones(ch.block_len, dtype=complex))) ** 2
    q = np.roll(np.abs(c) ** 2 * d_sq, -int(l))
    return np.maximum(noise_var * transform.adjoint_power(q), VAR_FLOOR)


def _sign_probes(n: int, probes: int, probe_seed: int) -> np.ndarray:
    """``probes`` rows of seeded random signs, drawn one after another."""
    rng = np.random.default_rng(probe_seed)
    return np.stack([rng.integers(0, 2, size=n) * 2.0 - 1.0 for _ in range(probes)])


def _probed_noise_vars(
    ch: ChannelRealization,
    transform: GridTransform,
    factor: BandFactor,
    noise_var: float,
    z: np.ndarray,
) -> np.ndarray:
    """sigma_n^2 times the diagonal of M^H M, estimated with probe rows z.

    M = (H H^H + rho I)^{-1} H A is the combining matrix's conjugate
    transpose.  The diagonal estimator of Bekas, Kokiopoulou and Saad
    (2007), sum_k conj(z_k) * (M^H M z_k) over sum_k |z_k|^2, is exact for
    z = I (squared column norms of M) and unbiased for random signs, with
    relative error shrinking like 1/sqrt(probes).  All probes are solved
    as one block.  The sums run probe by probe in order, which fixes how a
    sign draw rounds.
    """
    mz = factor.solve(chan.apply_channel_operator(ch, transform.apply(z)))
    mhmz = transform.adjoint(chan.apply_channel_operator_adjoint(ch, factor.solve(mz)))
    num = np.zeros(transform.size)
    den = np.zeros(transform.size)
    for zk, mhmzk in zip(z, mhmz):
        num += np.real(np.conj(zk) * mhmzk)
        den += np.abs(zk) ** 2
    return np.maximum(noise_var * (num / den), VAR_FLOOR)


def lmmse_equalize(
    r_body: np.ndarray,
    ch: ChannelRealization,
    transform: GridTransform,
    noise_var: float,
    variance_probes: int = 8,
    probe_seed: int = 0,
) -> EqualizedFrame:
    """Whole-frame linear MMSE equalization against a tap-set estimate.

    The data symbols are taken to have unit power.  Per-symbol variances
    are exact in closed form at any size when the estimate has one
    distinct delay.  With more delays they are exact up to
    ``EXACT_VARIANCE_LIMIT`` samples, from one solve against the
    identity, and beyond it the diagonal estimator probes with
    ``variance_probes`` (at least 1) random sign rows, drawn from
    ``probe_seed``.
    """
    r_body = np.asarray(r_body, dtype=complex).ravel()
    n = transform.size
    if r_body.size != n:
        raise ValueError(f"expected {n} samples, got {r_body.size}")
    if ch.block_len != n:
        raise ValueError("channel and transform describe different frame sizes")
    if noise_var < 0:
        raise ValueError("noise variance must be non-negative")
    if variance_probes < 1:
        raise ValueError("variance_probes must be at least 1")

    factor = _factor(ch, noise_var)
    if len(ch.folded_diagonals[0]) == 1:
        noise_vars = _diagonal_noise_vars(ch, transform, factor, noise_var)
    elif n <= EXACT_VARIANCE_LIMIT:
        # the rows of one solve against the identity are M's columns (see
        # _probed_noise_vars), and their squared norms are the diagonal
        columns = factor.solve(chan.apply_channel_operator(ch, transform.apply(np.eye(n))))
        noise_vars = np.maximum(noise_var * np.sum(np.abs(columns) ** 2, axis=-1), VAR_FLOOR)
    else:
        z = _sign_probes(n, variance_probes, probe_seed)
        noise_vars = _probed_noise_vars(ch, transform, factor, noise_var, z)
    symbols = transform.adjoint(
        chan.apply_channel_operator_adjoint(ch, factor.solve(r_body))
    )
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
    points = constellation.points[:, None]
    zero_sets = constellation.bits.T == 0
    n, size = eq.symbols.size, points.size * min(eq.symbols.size, LLR_CHUNK)
    llrs = np.empty((n, constellation.bits_per_symbol))
    tables = getattr(_llr_tables, "diffs_dists", None)
    if tables is None or tables[0].size < size:
        tables = _llr_tables.diffs_dists = (np.empty(size, dtype=complex), np.empty(size))
    for lo in range(0, n, LLR_CHUNK):
        chunk = slice(lo, lo + LLR_CHUNK)
        width = min(LLR_CHUNK, n - lo)
        # point-major: each point's distances to the chunk form one row
        diffs = tables[0][: points.size * width].reshape(points.size, width)
        dists = tables[1][: diffs.size].reshape(diffs.shape)
        np.subtract(eq.symbols[chunk], points, out=diffs)
        np.square(np.abs(diffs, out=dists), out=dists)
        for j, zero_set in enumerate(zero_sets):
            d0 = np.minimum.reduce(dists[zero_set])
            d1 = np.minimum.reduce(dists[~zero_set])
            llrs[chunk, j] = (d1 - d0) / eq.noise_vars[chunk]
    llrs[eq.erasures] = 0.0
    return llrs
