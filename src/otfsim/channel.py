"""Doubly dispersive multipath channel on the delay-Doppler grid.

A realization is a small set of taps ``(h_p, l_p, k_p)``: complex gain,
delay in samples and Doppler in cycles per frame.  Acting on one
cyclically extended frame body of ``M*N`` samples the channel is

    H = sum_p h_p * P**l_p * D**k_p,

where ``P`` is the cyclic delay (one-sample shift) matrix and ``D`` the
diagonal Doppler phase ramp ``diag(exp(j 2 pi u / (M N)))``.  Physical
application to a transmitted stream uses the same taps as a causal
linear time-varying convolution; after stripping a long-enough cyclic
prefix the two agree exactly, which the tests verify.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from importlib import resources

import numpy as np

from . import _kernels
from .grid import FrameParams

BUNDLED_PROFILES = ("tdl_a",)


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

    @property
    def max_delay_bin(self) -> int:
        return int(self.delay_bins.max(initial=0))


def identity_channel(params: FrameParams) -> ChannelRealization:
    """Single unit tap at zero delay and Doppler."""
    return ChannelRealization(
        (PathTap(1.0 + 0.0j, 0, 0),),
        params.num_delay_bins,
        params.num_doppler_bins,
    )


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
    """Materialize H as a dense complex matrix (small grids only)."""
    n = ch.block_len
    h = np.zeros((n, n), dtype=complex)
    rows = np.arange(n)
    for tap in ch.taps:
        cols = (rows - tap.delay_bin) % n
        phases = np.exp(2j * np.pi * tap.doppler_bin * (rows - tap.delay_bin) / n)
        h[rows, cols] += tap.gain * phases
    return h


def apply_channel_operator(ch: ChannelRealization, v: np.ndarray) -> np.ndarray:
    """Matrix-free H @ v on one frame body."""
    v = np.asarray(v, dtype=complex).ravel()
    if v.size != ch.block_len:
        raise ValueError(f"expected {ch.block_len} samples, got {v.size}")
    return _kernels.tap_apply(v, ch.gains, ch.delay_bins, ch.phase_rates)


def apply_channel_operator_adjoint(ch: ChannelRealization, v: np.ndarray) -> np.ndarray:
    """Matrix-free H.conj().T @ v on one frame body."""
    v = np.asarray(v, dtype=complex).ravel()
    if v.size != ch.block_len:
        raise ValueError(f"expected {ch.block_len} samples, got {v.size}")
    return _kernels.tap_apply_adjoint(v, ch.gains, ch.delay_bins, ch.phase_rates)


def gram_matrix(ch: ChannelRealization) -> np.ndarray:
    """Dense H @ H.conj().T assembled from tap pairs in O(P^2 MN)."""
    n = ch.block_len
    k = np.zeros((n, n), dtype=complex)
    cols = np.arange(n)
    for p in ch.taps:
        for q in ch.taps:
            coeff = p.gain * np.conj(q.gain)
            dk = p.doppler_bin - q.doppler_bin
            rows = (cols + p.delay_bin - q.delay_bin) % n
            k[rows, cols] += coeff * np.exp(
                2j * np.pi * dk * (cols - q.delay_bin) / n
            )
    return k


def apply_channel(
    samples: np.ndarray,
    ch: ChannelRealization,
    rng: np.random.Generator | None = None,
    *,
    cp_samples: int = 0,
    noise_var: float = 0.0,
) -> np.ndarray:
    """Send a sample stream through the channel and add receiver noise.

    The multipath response is applied as a causal linear time-varying
    convolution over the whole stream (prefix included).  The first
    sample sits at time ``-cp_samples`` on the channel's time axis, so
    the frame body starts at time zero, which makes the
    post-prefix-removal result equal ``H @ body`` exactly.

    Noise is circular complex Gaussian with per-sample variance
    ``noise_var``; zero means noiseless.
    """
    samples = np.asarray(samples, dtype=complex).ravel()
    if cp_samples < 0 or cp_samples >= samples.size:
        raise ValueError("prefix length outside the stream")
    out = _kernels.ltv_stream(
        samples, ch.gains, ch.delay_bins, ch.phase_rates, -float(cp_samples)
    )
    if noise_var:
        if rng is None:
            raise ValueError("noise requested but no generator supplied")
        scale = math.sqrt(noise_var / 2.0)
        noise = rng.standard_normal((samples.size, 2))
        out = out + scale * (noise[:, 0] + 1j * noise[:, 1])
    return out


def tf_response(
    ch: ChannelRealization, params: FrameParams, mu: int = 0
) -> np.ndarray:
    """Time-frequency channel gains on the numerology-``mu`` OFDM grid.

    ``h[m, i] = sum_p h_p exp(j 2 pi (k_p i 2**-mu / N - m 2**mu l_p / M))``,
    the narrowband per-cell gain at subcarrier m and symbol i.  Exact for
    zero Doppler; with Doppler it ignores intra-symbol rotation and
    inter-carrier leakage, so it serves as an oracle only in the static
    case.
    """
    scale = 1 << mu
    if params.num_delay_bins % scale:
        raise ValueError(f"numerology {mu} does not divide the grid")
    n_sc = params.num_delay_bins // scale
    n_sym = params.num_doppler_bins * scale
    m_idx = np.arange(n_sc)[:, None]
    i_idx = np.arange(n_sym)[None, :]
    h = np.zeros((n_sc, n_sym), dtype=complex)
    for tap in ch.taps:
        doppler = tap.doppler_bin * i_idx / (scale * params.num_doppler_bins)
        delay = m_idx * scale * tap.delay_bin / params.num_delay_bins
        h += tap.gain * np.exp(2j * np.pi * (doppler - delay))
    return h
