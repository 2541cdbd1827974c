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

import dataclasses
import hashlib
import json
import math
import os
import subprocess
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field
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
    CELL_RS,
    FrameParams,
    PilotConfig,
    data_cell_indices,
    derive_vsb_dims,
    ofdm_roles,
    otfs_roles,
    place_ofdm_frame,
    place_otfs_frame,
)
from .mapping import by_name, qpsk_symbols
from .metrics import BlerPoint, PaprAccumulator, papr_db
from .ofdm import vsb_demodulate, vsb_modulate
from .transforms import GridTransform, add_cp, interleave, remove_cp

LIGHT_SPEED_M_S = 299792458.0

WAVEFORM_KINDS = ("otfs", "block_ofdm", "vsb_ofdm")

# Body samples per build_streams batch.  Batching saves per-call overhead
# on small frames, but a full-scale (512x128) frame is faster built
# alone, and batches that outgrow the cache slow down again: on a 2-vCPU
# Xeon, PAPR batches of 16 desk (64x16) frames ran 10,200 frames/s
# against 8,600 for 64.  So a desk batch holds 16 frames, a 256x16 batch
# 4, and a full-scale frame is a batch of its own.
BATCH_SAMPLES = 1 << 14


def _checked_keys(cls, raw: dict, what: str) -> dict:
    """``raw`` as keyword arguments of dataclass ``cls``, or ValueError."""
    fields = cls.__dataclass_fields__
    unknown = set(raw) - set(fields)
    missing = {k for k, f in fields.items() if f.default is dataclasses.MISSING} - set(raw)
    if unknown or missing:
        raise ValueError(f"{what} keys: unknown {sorted(unknown)}, missing {sorted(missing)}")
    return dict(raw)


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
    # nothing reads these two; they stay so existing configs keep their config_hash()
    equalizer_mode: str = "auto"
    cg_tol: float = 1e-8
    variance_probes: int = 8
    papr_frames: int = 200
    papr_thresholds_db: tuple = tuple(np.arange(3.0, 12.5, 0.5))
    papr_oversample: int = 1

    def __post_init__(self):
        for key in ("waveforms", "snr_grid_db", "papr_thresholds_db"):
            if len(getattr(self, key)) == 0:
                raise ValueError(f"{key} must not be empty")
        labels = [w.label for w in self.waveforms]
        if len(set(labels)) < len(labels):
            # results are keyed by label, so a repeated waveform would overwrite one
            raise ValueError(f"waveforms repeat a label: {labels}")
        if self.trials_per_point < 1 or self.chunk_size < 1:
            raise ValueError("trials_per_point and chunk_size must be at least 1")
        if self.variance_probes < 1:
            raise ValueError("variance_probes must be at least 1")
        if self.papr_frames < 1 or self.papr_oversample < 1:
            raise ValueError("papr_frames and papr_oversample must be at least 1")
        if self.ldpc_max_iters < 0:
            raise ValueError("ldpc_max_iters must be non-negative")
        if self.target_block_errors < 1:
            raise ValueError("target_block_errors must be at least 1")
        if self.min_sum_scale <= 0:
            raise ValueError("min_sum_scale must be positive")

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
        kwargs = _checked_keys(cls, raw, "config")
        if "waveforms" in kwargs:
            kwargs["waveforms"] = tuple(
                WaveformSpec(**_checked_keys(WaveformSpec, w, "waveform"))
                for w in kwargs["waveforms"]
            )
        for key in ("snr_grid_db", "papr_thresholds_db"):
            if key in kwargs:
                kwargs[key] = tuple(float(v) for v in kwargs[key])
        return cls(**kwargs)

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    def config_hash(self) -> str:
        canon = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode()).hexdigest()


def load_config(path: str) -> RunConfig:
    with open(path) as fh:
        return RunConfig.from_dict(json.load(fh))


def trial_seed(master_seed: int, label: str, snr_idx: int, trial_idx: int) -> int:
    """Position-addressed 128-bit seed, independent of execution order."""
    tag = f"{master_seed}|{label}|{snr_idx}|{trial_idx}".encode()
    return int.from_bytes(hashlib.sha256(tag).digest()[:16], "little")


# what each child of a trial seed's SeedSequence drives, in spawn order
TRIAL_STREAMS = ("channel", "payload", "noise", "probe")


def trial_generator(seed: int, stream: str) -> np.random.Generator:
    """The generator of one ``TRIAL_STREAMS`` entry of the trial seeded by ``seed``.

    It is seeded by that stream's child of ``SeedSequence(seed)``, the
    same child ``SeedSequence(seed).spawn(4)`` returns at its index, but
    built alone, so a caller that needs one stream pays for one.
    """
    child = np.random.SeedSequence(seed, spawn_key=(TRIAL_STREAMS.index(stream),))
    return np.random.default_rng(child)


@dataclass(frozen=True)
class TrialResult:
    block_errors: int
    blocks: int


@dataclass
class SweepResult:
    """One waveform's result: BLER points from ``run_sweep``, or the PAPR
    tally of ``run_papr``, the program's only PAPR measurement."""

    spec: WaveformSpec
    points: list = field(default_factory=list)
    papr: PaprAccumulator | None = None


@dataclass(frozen=True)
class _VsbGeometry:
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
        roles = ofdm_roles(self.params, mu)
        data_idx = data_cell_indices(roles)
        if data_idx.size == 0:
            raise ValueError(
                f"numerology {mu} leaves no whole resource block on a "
                f"{n_sc}x{n_sym} grid"
            )
        return _VsbGeometry(
            cp_len, roles, data_idx, int(np.count_nonzero(roles == CELL_RS))
        )

    # ---------------------------------------------------------------- payload

    @property
    def batch_frames(self) -> int:
        """Frames per ``build_streams`` batch under ``BATCH_SAMPLES``; at least 1."""
        return max(1, BATCH_SAMPLES // self.params.block_len)

    def _decode_payload(self, llrs: np.ndarray, msg: np.ndarray) -> tuple[int, int]:
        """Codeword-error count from per-symbol LLR rows."""
        n = self.code.codeword_len
        k = self.code.message_len
        n_cw = msg.size // k
        words = llrs.ravel()[: n_cw * n].reshape(n_cw, n)
        bits, ok = self.code.decode(words, self.cfg.min_sum_scale, self.cfg.ldpc_max_iters)
        good = ok & (bits[:, :k] == msg.reshape(n_cw, k)).all(axis=1)
        return int(n_cw - good.sum()), n_cw

    # ----------------------------------------------------------- frame build

    def build_streams(self, wf: WaveformSpec, payload_rngs):
        """Unscaled transmit streams, one per payload generator, built as a batch.

        Frame ``f`` draws from ``payload_rngs[f]`` alone, in a fixed order:
        message bits, then the random uncoded bits that fill the cells
        left over after whole codewords (a constant fill would turn whole
        OFDM symbols into time-domain impulses and corrupt the peak-power
        comparison), then VSB-OFDM reference symbols.  So a frame does not
        depend on the batch it is built in.  One encoder call, one mapper
        call, one placement and one modulator call then serve the batch.

        Returns ``(msgs, streams, grids)``: message bits ``(frames, bits)``,
        C-contiguous streams ``(frames, samples)``, and the placed
        VSB-OFDM grids ``(frames, subcarriers, symbols)``, whose reference
        cells the receiver's estimator reads, or None for the
        delay-Doppler waveforms.  Callers keep a batch under
        ``batch_frames``: batching does not pay at full scale.
        """
        geom = self.vsb[wf.mu] if wf.kind == "vsb_ofdm" else None
        n_cells = self.dd_data_idx.size if geom is None else geom.data_idx.size
        n_bits = n_cells * self.const.bits_per_symbol
        n, k = self.code.codeword_len, self.code.message_len
        n_coded = n_bits // n * n
        if n_coded == 0:
            raise ValueError(f"{n_cells} cells cannot carry one codeword")
        frames = len(payload_rngs)
        msgs = np.empty((frames, n_coded // n * k), dtype=np.uint8)
        bits = np.empty((frames, n_bits), dtype=np.uint8)
        rs = None if geom is None else np.empty((frames, geom.n_rs), dtype=complex)
        for f, rng in enumerate(payload_rngs):
            msgs[f] = rng.integers(0, 2, size=msgs.shape[1], dtype=np.uint8)
            bits[f, n_coded:] = rng.integers(0, 2, size=n_bits - n_coded, dtype=np.uint8)
            if rs is not None:
                rs[f] = qpsk_symbols(geom.n_rs, rng)
        bits[:, :n_coded] = self.code.encode(msgs).reshape(frames, n_coded)
        data = self.const.map_bits(bits.ravel()).reshape(frames, n_cells)
        # each stage frees its input, so at most two stages' buffers are live
        if geom is not None:
            grids = place_ofdm_frame(data, rs, self.params, wf.mu)
            del data
            return msgs, vsb_modulate(grids, self.params, wf.mu), grids
        grids = place_otfs_frame(data, self.pilot, self.params)
        del data
        # each frame is column-major in memory, so its grid vector is a view
        body = self.transforms[wf.kind].apply(grids.swapaxes(1, 2).reshape(frames, -1))
        del grids
        return msgs, add_cp(body, self.params.cp_samples), None

    def _energy_scale(self, stream: np.ndarray) -> float:
        """Amplitude factor putting the whole-stream energy on the budget.

        The budget is one power unit per body sample, identical for all
        waveforms; the realized normalization is asserted because the
        fairness of every comparison rests on it.
        """
        budget = float(self.params.block_len)
        # numpy's pairwise sum, in an order no thread count changes: BLAS's
        # zdotc splits a long stream over its threads and rounds with their count
        parts = np.ascontiguousarray(stream, dtype=complex).view(np.float64)
        energy = float(np.add.reduce(parts * parts))
        scale = math.sqrt(budget / energy)
        if abs(energy * scale * scale / budget - 1.0) > 1e-9:
            raise AssertionError("energy normalization drifted off budget")
        return scale

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
        # each stream is seeded on its own, so only those the trial reads are built
        ch = channel
        if ch is None:
            ch = sample_channel(
                self.profile, self.params, cfg.nu_max_hz, trial_generator(seed, "channel")
            )
        msgs, streams, tx_grids = self.build_streams(wf, [trial_generator(seed, "payload")])
        msg, stream = msgs[0], streams[0]
        scale = self._energy_scale(stream)
        tx = stream * scale
        noise_var = 0.0 if snr_db is None else 10.0 ** (-snr_db / 10.0)
        if cfg.adjust_cp_loss and noise_var:
            # whole-stream over body energy: the share the prefixes take
            noise_var /= stream.size / self.params.block_len
        nv_eff = noise_var / (scale * scale)

        m, n = self.params.num_delay_bins, self.params.num_doppler_bins
        cp = self.vsb[wf.mu].cp_len if wf.kind == "vsb_ofdm" else self.params.cp_samples
        rows, rngs = tx[None], [trial_generator(seed, "noise")]
        if wf.kind == "block_ofdm":
            # the interleaved copy of the body exposes the pilot's delay-Doppler
            # response; it rides the same fading as a second row, with its own noise
            rows = np.stack([tx, add_cp(interleave(remove_cp(tx, cp), m, n), cp)])
            rngs.append(trial_generator(seed, "probe"))
        r = apply_channel(rows, ch, rngs, cp_samples=cp, noise_var=noise_var) / scale

        if wf.kind == "vsb_ofdm":
            geom = self.vsb[wf.mu]
            y = vsb_demodulate(r[0], self.params, wf.mu)
            h_est = ofdm_estimate(y, tx_grids[0], geom.roles, nv_eff, geom.cp_len)
            eq = single_tap_equalize(y, h_est, nv_eff).select(geom.data_idx)
        else:
            r_body = remove_cp(r, cp)
            # the last row carries the pilot: OTFS's own frame, block OFDM's copy
            y_grid = self.transforms["otfs"].adjoint(r_body[-1]).reshape(m, n, order="F")
            est = otfs_estimate(
                y_grid, self.pilot, self.pilot.amplitude_for_unit_data, math.sqrt(nv_eff)
            )
            if not est.taps:
                # nothing detected above threshold: the frame is lost
                blocks = msg.size // self.code.message_len
                return TrialResult(blocks, blocks)
            eq = lmmse_equalize(
                r_body[0],
                est,
                self.transforms[wf.kind],
                nv_eff,
                variance_probes=cfg.variance_probes,
                probe_seed=seed & 0xFFFFFFFF,
            ).select(self.dd_data_idx)

        llrs = compute_llrs(eq, self.const)
        errors, blocks = self._decode_payload(llrs, msg)
        return TrialResult(errors, blocks)

    # ----------------------------------------------------------------- sweep

    def run_point(
        self,
        wf: WaveformSpec,
        snr_idx: int,
        executor: ThreadPoolExecutor | None = None,
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
            if point.block_errors >= cfg.target_block_errors:
                break
        return point


def run_sweep(cfg: RunConfig, threads: int = 1, log=None) -> dict[str, SweepResult]:
    """BLER over the SNR grid for every configured waveform."""
    if threads < 1:
        raise ValueError("threads must be at least 1")
    sim = LinkSimulator(cfg)
    out: dict[str, SweepResult] = {}
    # one thread runs the trials itself: a worker thread started per sweep
    # may get a malloc arena of its own, which raises peak memory in steps
    with ThreadPoolExecutor(max_workers=threads) if threads > 1 else nullcontext() as ex:
        for wf in cfg.waveforms:
            result = SweepResult(wf)
            for i in range(len(cfg.snr_grid_db)):
                point = sim.run_point(wf, i, ex)
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
    """Transmit-only PAPR measurement over ``papr_frames`` frames.

    The program's only PAPR measurement.  Frame ``t`` of a waveform is
    built from the payload generator of ``trial_seed(master_seed,
    label + "|papr", 0, t)``; frames are built and measured in batches
    of ``LinkSimulator.batch_frames``, which changes no value.
    """
    sim = LinkSimulator(cfg)
    out: dict[str, SweepResult] = {}
    for wf in cfg.waveforms:
        acc = PaprAccumulator(np.asarray(cfg.papr_thresholds_db))
        for start in range(0, cfg.papr_frames, sim.batch_frames):
            rngs = [
                trial_generator(trial_seed(cfg.master_seed, wf.label + "|papr", 0, t), "payload")
                for t in range(start, min(start + sim.batch_frames, cfg.papr_frames))
            ]
            acc.add(papr_db(sim.build_streams(wf, rngs)[1], cfg.papr_oversample))
        out[wf.label] = SweepResult(wf, papr=acc)
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
            acc = result.papr
            for thr, val in zip(acc.thresholds_db, acc.ccdf()):
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
        "config": cfg.to_dict(),
        "master_seed": cfg.master_seed,
        "adjust_cp_loss": cfg.adjust_cp_loss,
        "version": version,
        "git_revision": _git_revision(),
    }
    with open(path, "w") as fh:
        json.dump(meta, fh, indent=2)
        fh.write("\n")
