"""Benchmark workloads: seeded pools of closed-loop sweep rounds.

A round is one call of ``harness.run_sweep`` (or ``harness.run_papr``)
on a workload's ``RunConfig`` with ``trials_per_point == chunk_size`` and
an unreachable ``target_block_errors``, so it always runs the same fixed
list of trials with no early stop.  Each workload owns a pool of rounds
that differ only in ``master_seed``.  The block-error count of every
(waveform, SNR) point of every pool round, and the PAPR exceedance counts
of every PAPR round, are recorded in ``reference.json``.  A benchmark
seed picks the order in which the pool is visited, so every round that
runs can be checked against the reference whatever the seed.
"""

from __future__ import annotations

import json
import os
import random
import sys
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass, field, replace

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
if SRC not in sys.path:
    sys.path.insert(0, SRC)

import otfsim  # noqa: E402
from otfsim import harness  # noqa: E402

if os.path.dirname(os.path.dirname(os.path.abspath(otfsim.__file__))) != SRC:
    raise ImportError(f"otfsim was imported from {otfsim.__file__}, not from {SRC}")

REFERENCE_PATH = os.path.join(HERE, "reference.json")
# Pool round i runs with master_seed POOL_BASE_SEED + i; the warm-up
# seed lies outside every pool so warm-up never repeats a measured trial.
POOL_BASE_SEED = 1000
WARMUP_SEED = 1
UNREACHABLE_ERRORS = 10**9


@dataclass(frozen=True)
class Workload:
    name: str
    config_file: str
    labels: tuple | None  # waveform labels kept from the config; None keeps all
    snr_grid_db: tuple
    per_point: int  # trials per point per round; PAPR frames per waveform
    pool: int  # rounds with recorded outcomes
    plan: int  # pool rounds a seed draws for one pass
    grid: tuple | None = None  # (delay bins, Doppler bins) replacing the config's
    papr: bool = False

    def config(self, master_seed: int) -> harness.RunConfig:
        cfg = harness.load_config(os.path.join(ROOT, "configs", self.config_file))
        if self.grid is not None:
            cfg = replace(cfg, num_delay_bins=self.grid[0], num_doppler_bins=self.grid[1])
        waveforms = cfg.waveforms
        if self.labels is not None:
            waveforms = tuple(w for w in waveforms if w.label in self.labels)
        return replace(
            cfg,
            waveforms=waveforms,
            snr_grid_db=self.snr_grid_db,
            trials_per_point=self.per_point,
            chunk_size=self.per_point,
            target_block_errors=UNREACHABLE_ERRORS,
            papr_frames=self.per_point,
            master_seed=master_seed,
        )

    def point_keys(self, cfg: harness.RunConfig) -> list:
        """Point keys in the order the harness completes (and logs) them."""
        if self.papr:
            return [w.label for w in cfg.waveforms]
        return [f"{w.label}@{s:g}" for w in cfg.waveforms for s in cfg.snr_grid_db]

    def plan_seeds(self, seed: int) -> list:
        """Master seeds of the pool rounds one pass runs, in the seed's order."""
        seeds = [POOL_BASE_SEED + i for i in range(self.pool)]
        random.Random(seed).shuffle(seeds)
        return seeds[: self.plan]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "desk_sweep", "desk.json", labels=None, snr_grid_db=(12.0, 20.0),
            per_point=2, pool=16, plan=2,
        ),
        Workload(
            "mid_otfs", "full_scale.json", labels=("otfs", "block_ofdm"),
            snr_grid_db=(12.0,), per_point=1, pool=1, plan=1,
            grid=(256, 16),
        ),
        Workload(
            "full_vsb", "full_scale.json", labels=("vsb_ofdm_mu0", "vsb_ofdm_mu3"),
            snr_grid_db=(12.0,), per_point=1, pool=1, plan=1,
        ),
        Workload(
            "papr_tx", "desk.json", labels=None, snr_grid_db=(12.0,),
            per_point=40, pool=32, plan=2, papr=True,
        ),
    )
}


@dataclass
class RoundResult:
    """What one round did: trials completed, time per family, outcomes."""

    master_seed: int
    planned: int
    done: int = 0
    family_s: dict = field(default_factory=lambda: defaultdict(float))
    family_trials: dict = field(default_factory=lambda: defaultdict(int))
    outcome: dict = field(default_factory=dict)
    error: str | None = None


def run_round(wl: Workload, master_seed: int) -> RoundResult:
    """One closed-loop round through the public sweep entry points.

    The harness logs once per completed point, in plan order; the time
    between two log calls is charged to the waveform family of the
    point.  An exception ends the round; its unfinished trials count as
    not completed.
    """
    cfg = wl.config(master_seed)
    keys = wl.point_keys(cfg)
    per_wave = 1 if wl.papr else len(cfg.snr_grid_db)
    families = [w.kind for w in cfg.waveforms for _ in range(per_wave)]
    res = RoundResult(master_seed, len(keys) * wl.per_point)
    last = [time.perf_counter()]

    def log(_line: str) -> None:
        now = time.perf_counter()
        kind = families[res.done // wl.per_point]
        res.family_s[kind] += now - last[0]
        res.family_trials[kind] += wl.per_point
        res.done += wl.per_point
        last[0] = now

    try:
        if wl.papr:
            out = harness.run_papr(cfg, log=log)
            res.outcome = {
                label: [int(c) for c in r.papr.exceed] for label, r in out.items()
            }
        else:
            out = harness.run_sweep(cfg, log=log)
            res.outcome = {
                f"{label}@{p.snr_db:g}": int(p.block_errors)
                for label, r in out.items()
                for p in r.points
            }
    except Exception:  # a failed round is counted, reported, and the run goes on
        res.error = traceback.format_exc()
    return res


def warm_up(wl: Workload) -> None:
    """One untimed trial (or PAPR frame) per waveform kind, off the pools."""
    cfg = wl.config(WARMUP_SEED)
    first = {}
    for w in cfg.waveforms:
        first.setdefault(w.kind, w)
    cfg = replace(
        cfg,
        waveforms=tuple(first.values()),
        snr_grid_db=cfg.snr_grid_db[:1],
        trials_per_point=1,
        chunk_size=1,
        papr_frames=1,
    )
    if wl.papr:
        harness.run_papr(cfg)
    else:
        harness.run_sweep(cfg)


def load_reference() -> dict:
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)


def config_changed(wl: Workload, reference: dict) -> list:
    """A line if the workload's config is not the one the reference was recorded for."""
    want = reference[wl.name]["config_sha256"]
    got = wl.config(POOL_BASE_SEED).config_hash()
    return [] if got == want else [f"config_sha256 {got}, reference recorded for {want}"]


def changed_points(wl: Workload, res: RoundResult, reference: dict) -> list:
    """Points of one round whose outcome differs from the reference.

    A sweep point is one (waveform, SNR) block-error count; a PAPR point
    is one (waveform, threshold) exceedance count.  Points the round did
    not produce count as changed.
    """
    expected = reference[wl.name]["rounds"][str(res.master_seed)]
    thresholds = wl.config(res.master_seed).papr_thresholds_db
    diffs = []
    for key, want in expected.items():
        got = res.outcome.get(key)
        if not wl.papr:
            if got != want:
                diffs.append(f"{key}: {got} block errors, reference {want}")
            continue
        got = got if got is not None else [None] * len(want)
        for thr, g, w in zip(thresholds, got, want):
            if g != w:
                diffs.append(f"{key}>{thr:g}dB: {g} frames, reference {w}")
    return diffs


def record_reference(path: str = REFERENCE_PATH) -> None:
    """Run every pool round of every workload and store its outcomes."""
    out = {}
    for wl in WORKLOADS.values():
        rounds = {}
        for seed in range(POOL_BASE_SEED, POOL_BASE_SEED + wl.pool):
            res = run_round(wl, seed)
            if res.error:
                raise RuntimeError(f"{wl.name} round {seed} failed:\n{res.error}")
            rounds[str(seed)] = res.outcome
            print(f"{wl.name} {seed} {res.outcome}", flush=True)
        out[wl.name] = {
            "config_sha256": wl.config(POOL_BASE_SEED).config_hash(),
            "rounds": rounds,
        }
    with open(path, "w") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    record_reference()
