"""Link-level sweep harness: configuration, per-trial chain, sweeps, output.

One trial draws a channel and a coded payload, sends one frame through
the fading realization, and counts codeword errors after estimation,
equalization and decoding.  Every waveform gets the same total transmit
energy per frame: the stream, prefixes included, is rescaled to one
power unit per body sample and the normalization is asserted per trial.
Against a flat noise floor of ``10**(-snr/10)`` per sample, prefix
overhead then costs each waveform its own fraction of a dB.  By default
(``adjust_cp_loss``) the known overhead ratio is taken back out of the
noise floor, so the reported SNR axis reads net of prefix cost and the
waveforms differ only through their structure; turn it off to expose
the raw overhead penalty.

Trials are reproducible in isolation: the seed of trial ``t`` of SNR
point ``i`` is a hash of ``(master_seed, waveform label, i, t)``, so
results do not depend on thread count or on which other points ran.
Early stopping only happens at chunk boundaries for the same reason.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import subprocess
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from importlib import metadata

import numpy as np

from . import fec
from .channel import (
    apply_channel,
    delay_bin_bound,
    doppler_bin_bound,
    load_profile,
    sample_channel,
)
from .equalization import compute_llrs, lmmse_equalize, single_tap_equalize
from .estimation import ofdm_estimate, otfs_estimate
from .grid import (
    PRB_RS_PATTERN,
    FrameParams,
    PilotConfig,
    data_cell_indices,
    derive_vsb_dims,
    full_scale_params,
    num_prb,
    ofdm_roles,
    otfs_roles,
    place_ofdm_frame,
    place_otfs_frame,
)
from .mapping import by_name, qpsk_symbols
from .metrics import BlerPoint, PaprAccumulator, cp_snr_loss_db, papr_db
from .ofdm import vsb_demodulate, vsb_modulate
from .transforms import GridTransform, add_cp, interleave, remove_cp

LIGHT_SPEED_M_S = 299792458.0

WAVEFORM_KINDS = ("otfs", "block_ofdm", "vsb_ofdm")


@dataclass(frozen=True)
class WaveformSpec:
    """One measured waveform; ``mu`` selects the OFDM numerology."""

    kind: str
    mu: int = 0

    def __post_init__(self):
        if self.kind not in WAVEFORM_KINDS:
            raise ValueError(f"unknown waveform kind {self.kind!r}")
        if self.mu < 0 or (self.kind != "vsb_ofdm" and self.mu != 0):
            raise ValueError(f"invalid numerology {self.mu} for {self.kind}")

    @property
    def label(self) -> str:
        return f"vsb_ofdm_mu{self.mu}" if self.kind == "vsb_ofdm" else self.kind


@dataclass(frozen=True)
class RunConfig:
    """Everything one sweep needs; round-trips through plain JSON."""

    num_delay_bins: int = 64
    num_doppler_bins: int = 16
    subcarrier_spacing_hz: float = 15e3
    cp_duration_s: float = 4.69e-6
    carrier_freq_hz: float = 6e9
    waveforms: tuple = (WaveformSpec("otfs"),)
    modulation: str = "16qam"
    snr_grid_db: tuple = (10.0,)
    profile: str = "tdl_a"
    delay_spread_s: float = 37e-9
    ue_speed_kmph: float = 500.0
    pilot_boost_db: float = 28.0
    pilot_doppler_bin: int | None = None
    pilot_delay_bin: int | None = None
    trials_per_point: int = 200
    target_block_errors: int = 100
    chunk_size: int = 32
    master_seed: int = 1
    adjust_cp_loss: bool = True
    fec_code: str = "ldpc_n1944_r23"
    min_sum_scale: float = 0.75
    ldpc_max_iters: int = 50
    equalizer_mode: str = "auto"
    cg_tol: float = 1e-8
    variance_probes: int = 8
    papr_frames: int = 200
    papr_thresholds_db: tuple = tuple(np.arange(3.0, 12.5, 0.5))
    papr_oversample: int = 1

    @property
    def frame(self) -> FrameParams:
        return FrameParams(
            self.num_delay_bins,
            self.num_doppler_bins,
            self.subcarrier_spacing_hz,
            self.cp_duration_s,
            self.carrier_freq_hz,
        )

    @property
    def nu_max_hz(self) -> float:
        return self.ue_speed_kmph / 3.6 * self.carrier_freq_hz / LIGHT_SPEED_M_S

    @classmethod
    def from_dict(cls, raw: dict) -> "RunConfig":
        known = set(cls.__dataclass_fields__)
        unknown = set(raw) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        kwargs = dict(raw)
        if "waveforms" in kwargs:
            kwargs["waveforms"] = tuple(
                WaveformSpec(w["kind"], w.get("mu", 0)) for w in kwargs["waveforms"]
            )
        for key in ("snr_grid_db", "papr_thresholds_db"):
            if key in kwargs:
                kwargs[key] = tuple(float(v) for v in kwargs[key])
        return cls(**kwargs)

    def to_dict(self) -> dict:
        out = {}
        for name in self.__dataclass_fields__:
            value = getattr(self, name)
            if name == "waveforms":
                value = [{"kind": w.kind, "mu": w.mu} for w in value]
            elif isinstance(value, tuple):
                value = list(value)
            out[name] = value
        return out

    def config_hash(self) -> str:
        canon = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode()).hexdigest()

    def with_full_scale_frame(self) -> "RunConfig":
        params = full_scale_params()
        return replace(
            self,
            num_delay_bins=params.num_delay_bins,
            num_doppler_bins=params.num_doppler_bins,
            subcarrier_spacing_hz=params.subcarrier_spacing_hz,
            cp_duration_s=params.cp_duration_s,
            carrier_freq_hz=params.carrier_freq_hz,
        )


def load_config(path: str) -> RunConfig:
    with open(path) as fh:
        return RunConfig.from_dict(json.load(fh))


def trial_seed(master_seed: int, label: str, snr_idx: int, trial_idx: int) -> int:
    """Position-addressed 128-bit seed, independent of execution order."""
    tag = f"{master_seed}|{label}|{snr_idx}|{trial_idx}".encode()
    return int.from_bytes(hashlib.sha256(tag).digest()[:16], "little")


@dataclass(frozen=True)
class TrialResult:
    block_errors: int
    blocks: int
    papr_db: float


@dataclass
class SweepResult:
    """One waveform's BLER points over the SNR grid, plus its PAPR tally."""

    spec: WaveformSpec
    points: list = field(default_factory=list)
    papr: PaprAccumulator | None = None


@dataclass(frozen=True)
class _VsbGeometry:
    n_subcarriers: int
    n_symbols: int
    cp_len: int
    roles: np.ndarray
    data_idx: np.ndarray
    n_rs: int


class LinkSimulator:
    """Holds the derived per-waveform state and runs trials and sweeps."""

    def __init__(self, cfg: RunConfig):
        self.cfg = cfg
        self.params = cfg.frame
        self.profile = load_profile(cfg.profile, cfg.delay_spread_s)
        self.const = by_name(cfg.modulation)
        self.code = fec.load_code(cfg.fec_code)
        self.k_nu = doppler_bin_bound(cfg.nu_max_hz, self.params)
        self.l_tau = delay_bin_bound(self.profile, self.params)
        self.transforms = {
            "otfs": GridTransform(
                self.params.num_delay_bins, self.params.num_doppler_bins, "otfs"
            ),
            "block_ofdm": GridTransform(
                self.params.num_delay_bins, self.params.num_doppler_bins, "block_ofdm"
            ),
        }
        self.pilot = None
        if any(w.kind in ("otfs", "block_ofdm") for w in cfg.waveforms):
            self.pilot = PilotConfig.centered(
                self.params,
                self.k_nu,
                self.l_tau,
                cfg.pilot_boost_db,
                cfg.pilot_doppler_bin,
                cfg.pilot_delay_bin,
            )
            roles = otfs_roles(self.params, self.pilot)
            self.dd_data_idx = data_cell_indices(roles)
        self.vsb: dict[int, _VsbGeometry] = {}
        for w in cfg.waveforms:
            if w.kind == "vsb_ofdm" and w.mu not in self.vsb:
                self.vsb[w.mu] = self._vsb_geometry(w.mu)

    def _vsb_geometry(self, mu: int) -> _VsbGeometry:
        n_sc, n_sym, cp_len = derive_vsb_dims(self.params, mu)
        n_blocks = num_prb(self.params, mu)
        if n_blocks == 0:
            raise ValueError(
                f"numerology {mu} leaves no whole resource block on a "
                f"{n_sc}x{n_sym} grid"
            )
        roles = ofdm_roles(self.params, mu)
        return _VsbGeometry(
            n_sc,
            n_sym,
            cp_len,
            roles,
            data_cell_indices(roles),
            len(PRB_RS_PATTERN) * n_blocks,
        )

    # ---------------------------------------------------------------- payload

    def _draw_payload(self, rng: np.random.Generator, n_cells: int):
        """Random message bits, encoded and mapped onto ``n_cells`` symbols.

        Whole codewords only; leftover cells carry random uncoded bits
        (a constant fill would turn whole OFDM symbols into time-domain
        impulses and corrupt the peak-power comparison) and are dropped
        again before decoding.
        """
        bps = self.const.bits_per_symbol
        n_cw = (n_cells * bps) // self.code.codeword_len
        if n_cw == 0:
            raise ValueError(f"{n_cells} cells cannot carry one codeword")
        msg = rng.integers(0, 2, size=n_cw * self.code.message_len, dtype=np.uint8)
        coded = self.code.encode(msg).ravel()
        filler = rng.integers(0, 2, size=n_cells * bps - coded.size, dtype=np.uint8)
        symbols = self.const.map_bits(np.concatenate([coded, filler]))
        return msg, symbols

    def _decode_payload(self, llrs: np.ndarray, msg: np.ndarray) -> tuple[int, int]:
        """Codeword-error count from per-symbol LLR rows."""
        n = self.code.codeword_len
        k = self.code.message_len
        n_cw = msg.size // k
        flat = llrs.ravel()[: n_cw * n]
        bits, ok = self.code.decode(
            fec.reshape_llrs(flat, n), self.cfg.min_sum_scale, self.cfg.ldpc_max_iters
        )
        errors = 0
        for w in range(n_cw):
            good = ok[w] and np.array_equal(bits[:k, w], msg[w * k : (w + 1) * k])
            errors += not good
        return errors, n_cw

    # ----------------------------------------------------------- frame build

    def build_stream(self, wf: WaveformSpec, payload_rng: np.random.Generator):
        """One unscaled transmit stream plus what the receiver will need.

        Returns ``(msg, stream, rs_symbols)``; the reference symbols are
        None for the delay-Doppler waveforms.
        """
        if wf.kind == "vsb_ofdm":
            geom = self.vsb[wf.mu]
            msg, data = self._draw_payload(payload_rng, geom.data_idx.size)
            rs = qpsk_symbols(geom.n_rs, payload_rng)
            grid = place_ofdm_frame(data, rs, self.params, wf.mu)
            return msg, vsb_modulate(grid.values, self.params, wf.mu), rs
        msg, data = self._draw_payload(payload_rng, self.dd_data_idx.size)
        grid = place_otfs_frame(data, self.pilot, self.params)
        body = self.transforms[wf.kind].apply(grid.values.ravel(order="F"))
        return msg, add_cp(body, self.params.cp_samples), None

    def _energy_scale(self, stream: np.ndarray) -> float:
        """Amplitude factor putting the whole-stream energy on the budget.

        The budget is one power unit per body sample, identical for all
        waveforms; the realized normalization is asserted because the
        fairness of every comparison rests on it.
        """
        budget = float(self.params.block_len)
        energy = float(np.vdot(stream, stream).real)
        scale = math.sqrt(budget / energy)
        if abs(energy * scale * scale / budget - 1.0) > 1e-9:
            raise AssertionError("energy normalization drifted off budget")
        return scale

    def _cp_overhead(self, wf: WaveformSpec) -> float:
        """Whole-stream over body energy ratio implied by the prefix."""
        if wf.kind == "vsb_ofdm":
            geom = self.vsb[wf.mu]
            loss_db = cp_snr_loss_db(geom.n_subcarriers, geom.cp_len)
        else:
            loss_db = cp_snr_loss_db(self.params.block_len, self.params.cp_samples)
        return 10.0 ** (loss_db / 10.0)

    # ----------------------------------------------------------------- trial

    def run_trial(
        self,
        wf: WaveformSpec,
        snr_db: float | None,
        seed: int,
        channel=None,
    ) -> TrialResult:
        """One frame through one channel draw; ``snr_db=None`` is noiseless.

        ``channel`` overrides the random draw with a fixed realization,
        for loopback and genie experiments.
        """
        cfg = self.cfg
        streams = np.random.SeedSequence(seed).spawn(4)
        ch_rng, payload_rng, noise_rng, probe_rng = map(np.random.default_rng, streams)
        ch = channel
        if ch is None:
            ch = sample_channel(self.profile, self.params, cfg.nu_max_hz, ch_rng)
        msg, stream, rs = self.build_stream(wf, payload_rng)
        scale = self._energy_scale(stream)
        tx = stream * scale
        papr = papr_db(tx, cfg.papr_oversample)
        noise_var = 0.0 if snr_db is None else 10.0 ** (-snr_db / 10.0)
        if cfg.adjust_cp_loss and noise_var:
            noise_var /= self._cp_overhead(wf)
        nv_eff = noise_var / (scale * scale)

        if wf.kind == "vsb_ofdm":
            geom = self.vsb[wf.mu]
            r = apply_channel(tx, ch, noise_rng, cp_samples=geom.cp_len, noise_var=noise_var)
            y = vsb_demodulate(r / scale, self.params, wf.mu)
            rs_grid = place_ofdm_frame(
                np.zeros(geom.data_idx.size), rs, self.params, wf.mu
            ).values
            h_est = ofdm_estimate(y, rs_grid, geom.roles, nv_eff, geom.cp_len)
            eq = single_tap_equalize(y, h_est, nv_eff).select(geom.data_idx)
        else:
            cp = self.params.cp_samples
            r = apply_channel(tx, ch, noise_rng, cp_samples=cp, noise_var=noise_var)
            r_body = remove_cp(r, cp) / scale
            transform = self.transforms[wf.kind]
            if wf.kind == "otfs":
                probe_body = r_body
            else:
                # The interleaved copy of the same body is the stream whose
                # demodulation exposes the pilot's delay-Doppler response;
                # it rides the same fading with its own noise draw.
                p_body = interleave(
                    remove_cp(tx, cp),
                    self.params.num_delay_bins,
                    self.params.num_doppler_bins,
                )
                p_rx = apply_channel(
                    add_cp(p_body, cp),
                    ch,
                    probe_rng,
                    cp_samples=cp,
                    noise_var=noise_var,
                )
                probe_body = remove_cp(p_rx, cp) / scale
            y_grid = self.transforms["otfs"].adjoint(probe_body).reshape(
                self.params.num_delay_bins, self.params.num_doppler_bins, order="F"
            )
            est = otfs_estimate(
                y_grid, self.pilot, self.pilot.amplitude_for_unit_data, math.sqrt(nv_eff)
            )
            if not est.taps:
                # nothing detected above threshold: the frame is lost
                blocks = msg.size // self.code.message_len
                return TrialResult(blocks, blocks, papr)
            eq = lmmse_equalize(
                r_body,
                est,
                transform,
                nv_eff,
                mode=cfg.equalizer_mode,
                cg_tol=cfg.cg_tol,
                variance_probes=cfg.variance_probes,
                probe_seed=seed & 0xFFFFFFFF,
            ).select(self.dd_data_idx)

        llrs = compute_llrs(eq, self.const)
        errors, blocks = self._decode_payload(llrs, msg)
        return TrialResult(errors, blocks, papr)

    # ----------------------------------------------------------------- sweep

    def run_point(
        self,
        wf: WaveformSpec,
        snr_idx: int,
        executor: ThreadPoolExecutor | None = None,
        papr_acc: PaprAccumulator | None = None,
    ) -> BlerPoint:
        cfg = self.cfg
        snr_db = cfg.snr_grid_db[snr_idx]
        point = BlerPoint(snr_db)

        def run_one(t: int) -> TrialResult:
            return self.run_trial(
                wf, snr_db, trial_seed(cfg.master_seed, wf.label, snr_idx, t)
            )

        for start in range(0, cfg.trials_per_point, cfg.chunk_size):
            idx = range(start, min(start + cfg.chunk_size, cfg.trials_per_point))
            results = list(executor.map(run_one, idx)) if executor else [
                run_one(t) for t in idx
            ]
            for res in results:
                point.add(res.block_errors, res.blocks)
                if papr_acc is not None:
                    papr_acc.add(res.papr_db)
            if point.block_errors >= cfg.target_block_errors:
                break
        return point


def run_sweep(cfg: RunConfig, threads: int = 1, log=None) -> dict[str, SweepResult]:
    """BLER over the SNR grid for every configured waveform."""
    sim = LinkSimulator(cfg)
    out: dict[str, SweepResult] = {}
    with ThreadPoolExecutor(max_workers=max(1, threads)) as ex:
        for wf in cfg.waveforms:
            acc = PaprAccumulator(np.asarray(cfg.papr_thresholds_db))
            result = SweepResult(wf, [], acc)
            for i in range(len(cfg.snr_grid_db)):
                point = sim.run_point(wf, i, ex, acc)
                result.points.append(point)
                if log:
                    log(
                        f"{wf.label} snr={point.snr_db:g} dB: "
                        f"{point.block_errors}/{point.blocks} errors "
                        f"(bler={point.bler:.3g})"
                    )
            out[wf.label] = result
    return out


def run_papr(cfg: RunConfig, log=None) -> dict[str, SweepResult]:
    """Transmit-only PAPR measurement over ``papr_frames`` frames."""
    sim = LinkSimulator(cfg)
    out: dict[str, SweepResult] = {}
    for wf in cfg.waveforms:
        acc = PaprAccumulator(np.asarray(cfg.papr_thresholds_db))
        for t in range(cfg.papr_frames):
            seed = trial_seed(cfg.master_seed, wf.label + "|papr", 0, t)
            payload_rng = np.random.default_rng(
                np.random.SeedSequence(seed).spawn(4)[1]
            )
            _, stream, _ = sim.build_stream(wf, payload_rng)
            acc.add(papr_db(stream, cfg.papr_oversample))
        out[wf.label] = SweepResult(wf, [], acc)
        if log:
            log(f"{wf.label}: {acc.frames} frames")
    return out


# -------------------------------------------------------------------- output


def write_bler_csv(path, results: dict[str, SweepResult]) -> None:
    import csv

    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(
            [
                "waveform", "mu", "snr_db", "trials", "blocks",
                "block_errors", "bler", "ci_lo", "ci_hi",
            ]
        )
        for result in results.values():
            for p in result.points:
                lo, hi = p.interval()
                w.writerow(
                    [
                        result.spec.kind,
                        result.spec.mu,
                        f"{p.snr_db:g}",
                        p.trials,
                        p.blocks,
                        p.block_errors,
                        f"{p.bler:.6g}",
                        f"{lo:.6g}",
                        f"{hi:.6g}",
                    ]
                )


def write_papr_csv(path, results: dict[str, SweepResult]) -> None:
    import csv

    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["waveform", "threshold_db", "ccdf"])
        for label, result in results.items():
            if result.papr is None or result.papr.frames == 0:
                continue
            curve = result.papr.curve()
            for thr, val in zip(curve.thresholds_db, curve.ccdf):
                w.writerow([label, f"{thr:g}", f"{val:.6g}"])


def _git_revision() -> str:
    here = os.path.dirname(os.path.abspath(__file__))
    try:
        out = subprocess.run(
            ["git", "-C", here, "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=5,
        )
        return out.stdout.strip() if out.returncode == 0 else "unknown"
    except OSError:
        return "unknown"


def write_meta(path, cfg: RunConfig) -> None:
    try:
        version = metadata.version("otfsim")
    except metadata.PackageNotFoundError:
        version = "unknown"
    meta = {
        "config_sha256": cfg.config_hash(),
        "master_seed": cfg.master_seed,
        "adjust_cp_loss": cfg.adjust_cp_loss,
        "version": version,
        "git_revision": _git_revision(),
    }
    with open(path, "w") as fh:
        json.dump(meta, fh, indent=2)
        fh.write("\n")
