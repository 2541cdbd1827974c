"""Doubly dispersive multipath channel on the delay-Doppler grid.

A realization is a small set of taps ``(h_p, l_p, k_p)``: complex gain,
delay in samples and Doppler in cycles per frame.  Acting on one
cyclically extended frame body of ``M*N`` samples the channel is

    H = sum_p h_p * P**l_p * D**k_p,

where ``P`` is the cyclic delay (one-sample shift) matrix and ``D`` the
diagonal Doppler phase ramp ``diag(exp(j 2 pi u / (M N)))``.

Grouping the taps by delay gives one Doppler diagonal per distinct
delay ``l``,

    c_l(t) = sum over taps with delay l of h_p exp(j w_p (t - l)),

with ``w_p = 2 pi k_p / (M N)``, and ``H = sum_l diag(c_l) P**l``.
:meth:`ChannelRealization.diagonals` is the one place that evaluates
them.  It splits each tap's ramp in two levels: with ``t = a B + b``,
``a = t // B`` and ``B = RAMP_BLOCK``,

    exp(j w_p (t - l)) = exp(j w_p (a B - l)) * exp(j w_p b),

one exponential per tap and block plus one per tap and in-block offset,
then one product per sample.  The split is anchored on absolute time,
not on the first time asked for, so every sample's value depends on
``t`` alone: the stream view and the folded body get the same bits at
equal ``t``.

The body-length view folds the diagonals mod ``M*N`` once per
realization, one row per distinct delay
(:attr:`ChannelRealization.folded_diagonals`); the operator and its
adjoint are shifts and products of those rows, and so is the Gram
matrix ``H H^H``, a cyclic band that
:func:`gram_matrix` returns as its diagonals.  The stream view applies
them, evaluated once for a whole batch of streams, as a causal linear
time-varying convolution along each stream, prefix included.  After
stripping a long-enough cyclic prefix the two agree exactly, which the
tests verify.
"""

from __future__ import annotations

import json
import math
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property
from importlib import resources

import numpy as np

from .grid import FrameParams

BUNDLED_PROFILES = ("tdl_a",)
# samples per block of the two-level tap ramp: a full-scale stream of
# about 70,000 samples needs under 300 block phases a tap, and one block's
# offset phases stay in cache
RAMP_BLOCK = 256


@dataclass(frozen=True)
class TdlProfile:
    """Tapped-delay-line power-delay profile.

    ``normalized_delays`` are unitless (scaled by ``delay_spread_s`` to
    seconds); ``powers_db`` are per-tap mean powers whose linear values
    are normalized to sum to one.
    """

    name: str
    normalized_delays: np.ndarray
    powers_db: np.ndarray
    delay_spread_s: float

    def __post_init__(self):
        d = np.asarray(self.normalized_delays, dtype=float)
        p = np.asarray(self.powers_db, dtype=float)
        if d.shape != p.shape or d.ndim != 1 or d.size == 0:
            raise ValueError("delays and powers must be equal-length 1-D arrays")
        if (d < 0).any():
            raise ValueError("delays must be non-negative")
        if self.delay_spread_s < 0:
            raise ValueError("delay spread must be non-negative")
        object.__setattr__(self, "normalized_delays", d)
        object.__setattr__(self, "powers_db", p)

    @property
    def delays_s(self) -> np.ndarray:
        return self.normalized_delays * self.delay_spread_s

    @property
    def linear_powers(self) -> np.ndarray:
        """Per-tap mean powers, normalized to unit total."""
        p = 10.0 ** (self.powers_db / 10.0)
        return p / p.sum()


def load_profile(source: str, delay_spread_s: float) -> TdlProfile:
    """Load a profile by bundled name (e.g. ``"tdl_a"``) or JSON path.

    The file schema is ``{"name", "delays", "powers_db", "reference"}``
    with unitless delays; the delay spread is supplied by the caller.
    """
    if source in BUNDLED_PROFILES:
        text = (
            resources.files("otfsim.data").joinpath(f"{source}.json").read_text()
        )
    else:
        with open(source) as fh:
            text = fh.read()
    raw = json.loads(text)
    return TdlProfile(
        name=raw["name"],
        normalized_delays=np.asarray(raw["delays"], dtype=float),
        powers_db=np.asarray(raw["powers_db"], dtype=float),
        delay_spread_s=delay_spread_s,
    )


@dataclass(frozen=True)
class PathTap:
    """One quantized channel tap."""

    gain: complex
    delay_bin: int
    doppler_bin: int

    def __post_init__(self):
        if self.delay_bin < 0:
            raise ValueError("delay bin must be non-negative")


@dataclass(frozen=True)
class ChannelRealization:
    """A set of taps quantized to an M-by-N frame grid."""

    taps: tuple[PathTap, ...]
    num_delay_bins: int
    num_doppler_bins: int

    @property
    def block_len(self) -> int:
        return self.num_delay_bins * self.num_doppler_bins

    @property
    def gains(self) -> np.ndarray:
        return np.array([t.gain for t in self.taps], dtype=complex)

    @property
    def delay_bins(self) -> np.ndarray:
        return np.array([t.delay_bin for t in self.taps], dtype=np.int64)

    @property
    def doppler_bins(self) -> np.ndarray:
        return np.array([t.doppler_bin for t in self.taps], dtype=np.int64)

    @property
    def phase_rates(self) -> np.ndarray:
        """Per-tap Doppler phase increment per sample, 2 pi k_p / (M N)."""
        return 2.0 * np.pi * self.doppler_bins / self.block_len

    def diagonals(self, start: int, count: int) -> dict[int, np.ndarray]:
        """The Doppler diagonal of each distinct delay at times ``start .. start + count - 1``.

        ``c_l(t) = sum_p h_p exp(j w_p (t - l))`` over the taps with delay
        ``l``, accumulated tap by tap in tap order, each ramp the two-level
        product anchored on absolute time (see the module docstring).
        Keys are the delays in order of first appearance.
        """
        first = start // RAMP_BLOCK
        blocks = np.arange(first, (start + count - 1) // RAMP_BLOCK + 1) * RAMP_BLOCK
        offsets = np.arange(RAMP_BLOCK)
        skip = start - first * RAMP_BLOCK
        ramp = np.empty((blocks.size, RAMP_BLOCK), dtype=complex)
        acc: dict[int, np.ndarray] = {}
        for g, l, w in zip(self.gains, self.delay_bins, self.phase_rates):
            c = acc.setdefault(int(l), np.zeros(ramp.shape, dtype=complex))
            coarse = g * np.exp(1j * (w * (blocks - l)))
            np.multiply(coarse[:, None], np.exp(1j * (w * offsets)), out=ramp)
            c += ramp
        return {l: c.ravel()[skip : skip + count] for l, c in acc.items()}

    @cached_property
    def folded_diagonals(self) -> tuple[np.ndarray, np.ndarray]:
        """The body's diagonals folded mod ``M*N``, built on first use and kept.

        Returns the distinct delays mod ``M*N`` in ascending order and a
        read-only array with one row per delay: row ``i`` holds ``c_l[u]``
        for ``u = 0 .. M*N - 1``, so ``H[u, (u - l) mod M*N] = c_l[u]``.
        Delays equal mod ``M*N`` share a row, summed in order of first
        appearance.
        """
        n = self.block_len
        folded: dict[int, np.ndarray] = {}
        for l, c in self.diagonals(0, n).items():
            folded[l % n] = folded[l % n] + c if l % n in folded else c
        delays = np.array(sorted(folded), dtype=np.int64)
        rows = np.array([folded[l] for l in delays.tolist()], dtype=complex)
        delays.flags.writeable = False
        rows.flags.writeable = False
        return delays, rows


def doppler_bin_bound(nu_max_hz: float, params: FrameParams) -> int:
    """Upper bound on |doppler bin|: ceil(nu_max * N * T)."""
    return math.ceil(nu_max_hz * params.frame_duration_s - 1e-12)


def delay_bin_bound(profile: TdlProfile, params: FrameParams) -> int:
    """Upper bound on the delay bin: ceil(tau_max * B).

    Guard sizing uses this ceiling; actual taps quantize by rounding, so
    they always land at or below it.
    """
    return math.ceil(profile.delays_s.max() * params.bandwidth_hz - 1e-12)


def sample_channel(
    profile: TdlProfile,
    params: FrameParams,
    nu_max_hz: float,
    rng: np.random.Generator,
) -> ChannelRealization:
    """Draw one channel realization.

    Tap gains are independent complex Gaussians with the profile's
    powers (Rayleigh magnitudes).  Each tap gets one Doppler shift
    ``nu_max * cos(theta)`` with ``theta`` uniform on [0, 2 pi); delays
    and Dopplers are rounded to grid bins (ties to even) and taps that
    land on the same bin pair are merged by summing gains.
    """
    if nu_max_hz < 0:
        raise ValueError("maximum Doppler must be non-negative")
    n = params.num_doppler_bins
    if nu_max_hz * params.frame_duration_s >= n / 2:
        raise ValueError(
            f"nu_max {nu_max_hz} Hz exceeds the representable Doppler range"
            f" (< {0.5 * n / params.frame_duration_s} Hz)"
        )
    powers = profile.linear_powers
    n_taps = powers.size
    gauss = rng.standard_normal((n_taps, 2))
    gains = np.sqrt(powers / 2.0) * (gauss[:, 0] + 1j * gauss[:, 1])
    theta = rng.uniform(0.0, 2.0 * np.pi, size=n_taps)
    doppler_hz = nu_max_hz * np.cos(theta)

    delay_bins = np.rint(profile.delays_s * params.bandwidth_hz).astype(int)
    doppler_bins = np.rint(doppler_hz * params.frame_duration_s).astype(int)
    if delay_bins.max(initial=0) >= params.num_delay_bins:
        raise ValueError("profile delay spread exceeds the grid's delay span")

    merged: dict[tuple[int, int], complex] = {}
    for g, l, k in zip(gains, delay_bins, doppler_bins):
        key = (int(l), int(k))
        merged[key] = merged.get(key, 0.0 + 0.0j) + g
    taps = tuple(
        PathTap(merged[key], key[0], key[1]) for key in sorted(merged)
    )
    return ChannelRealization(taps, params.num_delay_bins, params.num_doppler_bins)


def build_channel_matrix(ch: ChannelRealization) -> np.ndarray:
    """Materialize H as a dense complex matrix, tap by tap (small grids only).

    The dense oracle that the tests hold the folded diagonals, the
    operators and the Gram band to.
    """
    n = ch.block_len
    h = np.zeros((n, n), dtype=complex)
    rows = np.arange(n)
    for tap in ch.taps:
        cols = (rows - tap.delay_bin) % n
        phases = np.exp(2j * np.pi * tap.doppler_bin * (rows - tap.delay_bin) / n)
        h[rows, cols] += tap.gain * phases
    return h


def _body_rows(ch: ChannelRealization, v: np.ndarray) -> np.ndarray:
    v = np.asarray(v, dtype=complex)
    if v.ndim not in (1, 2) or v.shape[-1] != ch.block_len:
        raise ValueError(f"expected {ch.block_len} samples per row, got shape {v.shape}")
    return v


def apply_channel_operator(ch: ChannelRealization, v: np.ndarray) -> np.ndarray:
    """H @ v on one frame body, for one vector or a ``(batch, M*N)`` array of rows."""
    v = _body_rows(ch, v)
    n = ch.block_len
    out = np.zeros(v.shape, dtype=complex)
    delays, rows = ch.folded_diagonals
    for l, c in zip(delays.tolist(), rows):
        out[..., l:] += c[l:] * v[..., : n - l]
        out[..., :l] += c[:l] * v[..., n - l :]
    return out


def apply_channel_operator_adjoint(ch: ChannelRealization, v: np.ndarray) -> np.ndarray:
    """H.conj().T @ v on one frame body, for one vector or a ``(batch, M*N)`` array of rows."""
    v = _body_rows(ch, v)
    n = ch.block_len
    out = np.zeros(v.shape, dtype=complex)
    delays, rows = ch.folded_diagonals
    for l, c in zip(delays.tolist(), rows.conj()):
        out[..., : n - l] += c[l:] * v[..., l:]
        out[..., n - l :] += c[:l] * v[..., :l]
    return out


def gram_matrix(ch: ChannelRealization) -> np.ndarray:
    """H @ H.conj().T as the diagonals of its cyclic band.

    ``K[u, (u + d) mod M*N]`` sums ``c_l[u] conj(c_l'[u + d])`` over the
    delay pairs with ``l' - l = d (mod M*N)``.  Each pair's offset is taken
    in ``[-M*N/2, M*N/2)``; with L the largest of them in magnitude, row
    ``L + d`` of the returned ``(2L + 1, M*N)`` array holds diagonal d at
    column u.  A band of width at least ``M*N`` has rows whose offsets
    are congruent mod ``M*N``: the entry is their sum (the pairs at offset
    ``M*N/2`` all land on row 0).
    """
    n = ch.block_len
    delays, rows = ch.folded_diagonals
    offsets = (delays[None, :] - delays[:, None] + n // 2) % n - n // 2
    half = int(np.abs(offsets).max())
    band = np.zeros((2 * half + 1, n), dtype=complex)
    conj_rows = rows.conj()
    for i, c in enumerate(rows):
        for j, d in enumerate(offsets[i].tolist()):
            band[half + d] += c * np.roll(conj_rows[j], -d)
    return band


def apply_channel(
    samples: np.ndarray,
    ch: ChannelRealization,
    rng: np.random.Generator | Sequence[np.random.Generator] | None = None,
    *,
    cp_samples: int = 0,
    noise_var: float = 0.0,
) -> np.ndarray:
    """Send a stream, or a ``(streams, samples)`` batch, through the channel and add noise.

    The multipath response is a causal linear time-varying convolution
    over each whole stream (prefix included): each delay ``l`` adds
    ``c_l(t) * samples[v - l]`` at sample ``v``, with samples before the
    stream start taken as zero, so a delay at or past the stream's end
    adds nothing.  The first sample sits at time ``t = -cp_samples`` on
    the channel's time axis, so the frame body starts at time zero,
    which makes the post-prefix-removal result equal ``H @ body``.  All
    rows ride the one realization, whose diagonals are evaluated once.

    Noise is circular complex Gaussian with per-sample variance
    ``noise_var``; zero means noiseless and draws nothing.  A 1-D stream
    draws it from the generator ``rng``; a batch takes a sequence of
    generators, one per row, so each row gets what the 1-D call on it
    with that row's generator would.
    """
    samples = np.asarray(samples, dtype=complex)
    n = samples.shape[-1]
    if cp_samples < 0 or cp_samples >= n:
        raise ValueError("prefix length outside the stream")
    out = np.zeros(samples.shape, dtype=complex)
    for l, c in ch.diagonals(-cp_samples, n).items():
        if l < n:
            out[..., l:] += c[l:] * samples[..., : n - l]
    if noise_var:
        if rng is None:
            raise ValueError("noise requested but no generator supplied")
        scale = math.sqrt(noise_var / 2.0)
        rngs = [rng] if samples.ndim == 1 else rng
        for row, g in zip(out.reshape(-1, n), rngs, strict=True):
            noise = g.standard_normal((n, 2))
            row += scale * (noise[:, 0] + 1j * noise[:, 1])
    return out
