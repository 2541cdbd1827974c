import csv
import json
import os
import random
import subprocess
import sys
import threading
from dataclasses import replace

import numpy as np
import pytest
from helpers import identity_channel

from otfsim import harness
from otfsim.channel import ChannelRealization, apply_channel
from otfsim.harness import (
    TRIAL_STREAMS,
    LinkSimulator,
    RunConfig,
    WaveformSpec,
    load_config,
    run_papr,
    run_sweep,
    trial_generator,
    trial_seed,
    write_bler_csv,
    write_meta,
    write_papr_csv,
)
from otfsim.grid import CELL_RS, place_ofdm_frame, place_otfs_frame
from otfsim.mapping import qpsk_symbols
from otfsim.metrics import cp_snr_loss_db, papr_db
from otfsim.ofdm import vsb_demodulate, vsb_modulate
from otfsim.transforms import add_cp

ALL_WAVEFORMS = (
    WaveformSpec("otfs"),
    WaveformSpec("block_ofdm"),
    WaveformSpec("vsb_ofdm", 0),
)

DESK = RunConfig(waveforms=ALL_WAVEFORMS)

# cheap sweep settings: the narrowband waveform only, a few trials, and a
# walking-pace channel so the clean SNR point actually decodes
VSB_SWEEP = RunConfig(
    waveforms=(WaveformSpec("vsb_ofdm", 0),),
    snr_grid_db=(0.0, 30.0),
    ue_speed_kmph=5.0,
    trials_per_point=6,
    target_block_errors=100,
    chunk_size=3,
    master_seed=77,
    papr_frames=4,
)


def test_waveform_labels_and_validation():
    assert WaveformSpec("otfs").label == "otfs"
    assert WaveformSpec("vsb_ofdm", 2).label == "vsb_ofdm_mu2"
    with pytest.raises(ValueError):
        WaveformSpec("gfdm")
    with pytest.raises(ValueError):
        WaveformSpec("otfs", 1)
    with pytest.raises(ValueError):
        WaveformSpec("vsb_ofdm", -1)


def test_trial_seed_properties():
    a = trial_seed(1, "otfs", 0, 0)
    assert a == trial_seed(1, "otfs", 0, 0)
    others = {
        trial_seed(1, "otfs", 0, 1),
        trial_seed(1, "otfs", 1, 0),
        trial_seed(1, "block_ofdm", 0, 0),
        trial_seed(2, "otfs", 0, 0),
    }
    assert a not in others and len(others) == 4
    assert 0 <= a < 1 << 128


def test_trial_generators_follow_the_spawn_layout():
    # stream i draws from child i of the trial seed's SeedSequence
    seed = trial_seed(1, "otfs", 0, 0)
    children = np.random.SeedSequence(seed).spawn(len(TRIAL_STREAMS))
    for stream, child in zip(TRIAL_STREAMS, children):
        np.testing.assert_array_equal(
            trial_generator(seed, stream).random(8), np.random.default_rng(child).random(8)
        )


def test_config_round_trip_and_hash():
    d = DESK.to_dict()
    again = RunConfig.from_dict(d)
    assert again == DESK
    assert again.config_hash() == DESK.config_hash()
    # hashing is insensitive to dict ordering but sensitive to content
    assert RunConfig.from_dict(dict(reversed(d.items()))).config_hash() == DESK.config_hash()
    assert RunConfig(master_seed=2).config_hash() != RunConfig().config_hash()
    with pytest.raises(ValueError):
        RunConfig.from_dict({"snr_points": [1]})


def test_bundled_configs_load(tmp_path):
    cfg = load_config("configs/desk.json")
    assert cfg.num_delay_bins == 64 and cfg.num_doppler_bins == 16
    full = load_config("configs/full_scale.json")
    assert full.num_delay_bins == 512 and full.num_doppler_bins == 128


def test_nu_max_derivation():
    # 500 km/h at 6 GHz is roughly 2.78 kHz of Doppler
    assert DESK.nu_max_hz == pytest.approx(2779.7, abs=0.1)


def test_energy_normalization_across_waveforms():
    sim = LinkSimulator(DESK)
    budget = DESK.num_delay_bins * DESK.num_doppler_bins
    for wf in ALL_WAVEFORMS:
        rng = np.random.default_rng(3)
        _, streams, _ = sim.build_streams(wf, [rng])
        stream = streams[0]
        scale = sim._energy_scale(stream)
        energy = np.sum(np.abs(scale * stream) ** 2)
        assert energy == pytest.approx(budget, rel=1e-12), wf.label


def test_noiseless_identity_loopback():
    sim = LinkSimulator(DESK)
    ch = identity_channel(DESK.frame)
    # 985 payload cells carry two codewords; the OFDM grid's 800 carry one
    blocks_per_frame = {"otfs": 2, "block_ofdm": 2, "vsb_ofdm_mu0": 1}
    for wf in ALL_WAVEFORMS:
        for t in range(2):
            res = sim.run_trial(wf, None, trial_seed(5, wf.label, 0, t), channel=ch)
            assert res.block_errors == 0, wf.label
            assert res.blocks == blocks_per_frame[wf.label]


def test_run_point_stops_on_chunk_boundary():
    cfg = RunConfig(
        waveforms=(WaveformSpec("vsb_ofdm", 0),),
        snr_grid_db=(-10.0,),  # every block fails here
        trials_per_point=10,
        target_block_errors=2,
        chunk_size=4,
        master_seed=3,
    )
    sim = LinkSimulator(cfg)
    point = sim.run_point(WaveformSpec("vsb_ofdm", 0), 0)
    # the target is hit inside the first chunk, which still completes
    assert point.trials == 4
    assert point.block_errors == point.blocks == 4


def test_sweep_is_thread_count_invariant(tmp_path):
    files = []
    for threads in (1, 3):
        res = run_sweep(VSB_SWEEP, threads=threads)
        path = tmp_path / f"bler_{threads}.csv"
        write_bler_csv(path, res)
        files.append(path.read_bytes())
    assert files[0] == files[1]


def test_one_thread_sweeps_in_the_calling_thread(monkeypatch):
    # no worker thread, so no malloc arena of its own for each sweep
    seen = set()
    run_trial = LinkSimulator.run_trial

    def spy(self, *args, **kwargs):
        seen.add(threading.get_ident())
        return run_trial(self, *args, **kwargs)

    monkeypatch.setattr(LinkSimulator, "run_trial", spy)
    run_sweep(VSB_SWEEP, threads=1)
    assert seen == {threading.get_ident()}


@pytest.mark.parametrize("threads", [0, -3])
def test_run_sweep_rejects_threads_below_one(threads):
    with pytest.raises(ValueError, match="threads"):
        run_sweep(VSB_SWEEP, threads=threads)


def test_trials_are_independent_of_execution_order():
    # one simulator runs the same trials forward and shuffled: no state
    # (channel matrix, solver factor, generator) may leak between trials
    sim = LinkSimulator(DESK)
    jobs = [
        (wf, trial_seed(9, wf.label, 0, t)) for wf in ALL_WAVEFORMS for t in range(2)
    ]
    forward = {seed: sim.run_trial(wf, 16.0, seed) for wf, seed in jobs}
    shuffled = list(jobs)
    random.Random(4).shuffle(shuffled)
    assert shuffled != jobs
    again = {seed: sim.run_trial(wf, 16.0, seed) for wf, seed in shuffled}
    assert again == forward


def test_bler_csv_schema(tmp_path):
    # 64-QAM puts two codewords in each frame, so trials and blocks differ
    cfg = replace(VSB_SWEEP, modulation="64qam")
    res = run_sweep(cfg)
    path = tmp_path / "bler.csv"
    write_bler_csv(path, res)
    rows = list(csv.DictReader(open(path)))
    assert len(rows) == 2
    assert list(rows[0]) == [
        "waveform", "mu", "snr_db", "trials", "blocks",
        "block_errors", "bler", "ci_lo", "ci_hi",
    ]
    for row in rows:
        assert row["waveform"] == "vsb_ofdm" and row["mu"] == "0"
        # 12 errors at most never reach the early-stop target of 100
        assert int(row["trials"]) == cfg.trials_per_point
        # 800 data cells * 6 bits hold 2 whole 1944-bit codewords
        assert int(row["blocks"]) == 2 * cfg.trials_per_point
        assert 0.0 <= float(row["ci_lo"]) <= float(row["bler"]) <= float(row["ci_hi"]) <= 1.0
    # the harsh point fails everything, the clean point almost nothing
    assert float(rows[0]["bler"]) > float(rows[1]["bler"])


def test_papr_run_and_csv(tmp_path):
    res = run_papr(VSB_SWEEP)
    acc = res["vsb_ofdm_mu0"].papr
    assert acc.frames == VSB_SWEEP.papr_frames
    path = tmp_path / "papr.csv"
    write_papr_csv(path, res)
    rows = list(csv.DictReader(open(path)))
    assert len(rows) == len(VSB_SWEEP.papr_thresholds_db)
    ccdf = [float(r["ccdf"]) for r in rows]
    assert all(0.0 <= v <= 1.0 for v in ccdf)
    assert ccdf == sorted(ccdf, reverse=True)
    # rerunning with the same master seed reproduces the curve exactly
    again = run_papr(VSB_SWEEP)
    np.testing.assert_array_equal(acc.exceed, again["vsb_ofdm_mu0"].papr.exceed)


def test_meta_file_contents(tmp_path):
    path = tmp_path / "meta.json"
    write_meta(path, VSB_SWEEP)
    meta = json.load(open(path))
    assert meta["config_sha256"] == VSB_SWEEP.config_hash()
    assert meta["master_seed"] == 77
    assert meta["adjust_cp_loss"] is True
    assert len(meta["git_revision"]) in (7, 40) or meta["git_revision"] == "unknown"


def test_meta_holds_the_config_it_hashes(tmp_path):
    # meta.json alone is enough to rerun its sweep
    path = tmp_path / "meta.json"
    for cfg in (VSB_SWEEP, load_config("configs/desk.json")):
        write_meta(path, cfg)
        meta = json.load(open(path))
        again = RunConfig.from_dict(meta["config"])
        assert again.config_hash() == meta["config_sha256"]
        assert again == cfg


def test_bundled_config_hashes_are_pinned():
    # meta.json files and the benchmark's pool rounds key on these hashes
    assert load_config("configs/desk.json").config_hash() == (
        "ab2a3c829ba0b924b45d19da38727fd93492c481e3a7d7d38a0074c7a827dba5"
    )
    assert load_config("configs/full_scale.json").config_hash() == (
        "414fb5bf6628cc004d67d0d98146d58319d836611bd3518ef2257462eba55e6d"
    )


def test_vsb_mu3_rejected_at_desk_scale():
    cfg = RunConfig(waveforms=(WaveformSpec("vsb_ofdm", 3),))
    with pytest.raises(ValueError):
        LinkSimulator(cfg)


def test_adjust_cp_loss_shifts_noise_floor(monkeypatch):
    # the knob reaches the trial: same seed, and the noise the channel adds
    # is lower by exactly the whole-stream over body sample ratio
    seen = []

    def spy(tx, ch, rng, cp_samples, noise_var):
        seen.append(noise_var)
        return apply_channel(tx, ch, rng, cp_samples=cp_samples, noise_var=noise_var)

    monkeypatch.setattr(harness, "apply_channel", spy)
    for wf, overhead, loss_db in (
        (WaveformSpec("vsb_ofdm", 0), 69 / 64, cp_snr_loss_db(64, 5)),
        (WaveformSpec("otfs"), 1029 / 1024, cp_snr_loss_db(1024, 5)),
    ):
        seen.clear()
        for adjust in (False, True):
            sim = LinkSimulator(RunConfig(waveforms=(wf,), adjust_cp_loss=adjust))
            sim.run_trial(wf, 10.0, trial_seed(1, wf.label, 0, 0))
        off, on = seen
        assert off == 10.0 ** (-10.0 / 10.0)
        assert off / on == pytest.approx(overhead, rel=1e-12)
        # the divisor is the prefix loss the metric states, in dB
        assert 10 * np.log10(off / on) == pytest.approx(loss_db, rel=1e-12)


def test_one_channel_pass_per_trial(monkeypatch):
    # run_trial sends every stream of a trial through one apply_channel call,
    # so the tap ramps are evaluated once for the stream channel and once
    # for the estimate's fold (block OFDM's probe copy rides as a second row)
    ramps, passes = [], []
    diagonals = ChannelRealization.diagonals

    def counted(ch, start, count):
        ramps.append(count)
        return diagonals(ch, start, count)

    def spy(rows, ch, rngs, **kw):
        passes.append(np.shape(rows))
        return apply_channel(rows, ch, rngs, **kw)

    monkeypatch.setattr(ChannelRealization, "diagonals", counted)
    monkeypatch.setattr(harness, "apply_channel", spy)
    sim = LinkSimulator(DESK)
    want = {"otfs": (2, 1), "block_ofdm": (2, 2), "vsb_ofdm_mu0": (1, 1)}
    for wf in ALL_WAVEFORMS:
        ramps.clear()
        passes.clear()
        sim.run_trial(wf, 30.0, trial_seed(3, wf.label, 0, 0))
        evaluations, rows = want[wf.label]
        assert len(ramps) == evaluations, wf.label
        assert [shape[0] for shape in passes] == [rows], wf.label


@pytest.mark.parametrize(
    "key",
    ["trials_per_point", "chunk_size", "variance_probes", "papr_frames", "papr_oversample"],
)
@pytest.mark.parametrize("value", [0, -4])
def test_run_config_rejects_non_positive_trial_counts(key, value):
    with pytest.raises(ValueError):
        RunConfig(**{key: value})
    with pytest.raises(ValueError):
        RunConfig.from_dict({**VSB_SWEEP.to_dict(), key: value})
    assert replace(VSB_SWEEP, **{key: 1}).to_dict()[key] == 1


def test_run_config_rejects_negative_ldpc_max_iters():
    with pytest.raises(ValueError):
        RunConfig(ldpc_max_iters=-1)
    with pytest.raises(ValueError):
        RunConfig.from_dict({**VSB_SWEEP.to_dict(), "ldpc_max_iters": -1})
    assert replace(VSB_SWEEP, ldpc_max_iters=0).to_dict()["ldpc_max_iters"] == 0


@pytest.mark.parametrize(
    "key, bad, good",
    [
        ("target_block_errors", 0, 1),
        ("target_block_errors", -5, 1),
        ("min_sum_scale", 0.0, 1e-3),
        ("min_sum_scale", -0.75, 1e-3),
    ],
)
def test_run_config_rejects_bad_stop_target_and_min_sum_scale(key, bad, good):
    with pytest.raises(ValueError, match=key):
        RunConfig(**{key: bad})
    with pytest.raises(ValueError, match=key):
        RunConfig.from_dict({**VSB_SWEEP.to_dict(), key: bad})
    assert replace(VSB_SWEEP, **{key: good}).to_dict()[key] == good


def test_vsb_stream_returns_its_placed_grid():
    # the receiver estimates from this grid's reference cells
    sim = LinkSimulator(VSB_SWEEP)
    wf = WaveformSpec("vsb_ofdm", 0)
    _, streams, grids = sim.build_streams(wf, [np.random.default_rng(3)])
    stream, grid = streams[0], grids[0]
    np.testing.assert_allclose(vsb_demodulate(stream, sim.params, 0), grid, atol=1e-12)
    rs = grid[sim.vsb[0].roles == CELL_RS]
    assert rs.size == sim.vsb[0].n_rs
    np.testing.assert_allclose(np.abs(rs), 1.0, rtol=1e-12)


@pytest.mark.parametrize("key", ["waveforms", "snr_grid_db", "papr_thresholds_db"])
def test_run_config_rejects_empty_lists(key):
    # an empty list used to write a header-only CSV
    with pytest.raises(ValueError, match=key):
        RunConfig(**{key: ()})
    with pytest.raises(ValueError, match=key):
        RunConfig.from_dict({**VSB_SWEEP.to_dict(), key: []})


def test_run_config_rejects_repeated_waveform_labels():
    # results are keyed by label: the first waveform's trials would be lost
    with pytest.raises(ValueError, match="label"):
        RunConfig(waveforms=(WaveformSpec("otfs"), WaveformSpec("otfs")))
    raw = {**VSB_SWEEP.to_dict(), "waveforms": [{"kind": "vsb_ofdm", "mu": 1}] * 2}
    with pytest.raises(ValueError, match="label"):
        RunConfig.from_dict(raw)
    two = RunConfig(waveforms=(WaveformSpec("vsb_ofdm", 0), WaveformSpec("vsb_ofdm", 1)))
    assert len(two.waveforms) == 2


@pytest.mark.parametrize(
    "entry",
    [{"kind": "vsb_ofdm", "mu ": 3}, {"kind": "otfs", "numerology": 0}, {"mu": 1}],
    ids=["misspelt_mu", "unknown_key", "no_kind"],
)
def test_run_config_rejects_bad_waveform_entries(entry):
    # a misspelt key used to run mu 0 silently, and a missing kind raised KeyError
    with pytest.raises(ValueError, match="waveform"):
        RunConfig.from_dict({**VSB_SWEEP.to_dict(), "waveforms": [entry]})


def _one_frame_oracle(sim, wf, rng):
    """One frame built from the single-frame primitives, in the documented
    draw order: message bits, filler bits, then reference symbols."""
    geom = sim.vsb[wf.mu] if wf.kind == "vsb_ofdm" else None
    n_cells = sim.dd_data_idx.size if geom is None else geom.data_idx.size
    n_bits = n_cells * sim.const.bits_per_symbol
    n_cw = n_bits // sim.code.codeword_len
    msg = rng.integers(0, 2, size=n_cw * sim.code.message_len, dtype=np.uint8)
    coded = sim.code.encode(msg).ravel()
    filler = rng.integers(0, 2, size=n_bits - coded.size, dtype=np.uint8)
    data = sim.const.map_bits(np.concatenate([coded, filler]))
    if geom is not None:
        grid = place_ofdm_frame(data, qpsk_symbols(geom.n_rs, rng), sim.params, wf.mu)
        return msg, vsb_modulate(grid, sim.params, wf.mu), grid
    grid = place_otfs_frame(data, sim.pilot, sim.params)
    body = sim.transforms[wf.kind].apply(grid.ravel(order="F"))
    return msg, add_cp(body, sim.params.cp_samples), None


@pytest.mark.parametrize("grid", [(64, 16), (256, 16)], ids=["64x16", "256x16"])
@pytest.mark.parametrize("wf", ALL_WAVEFORMS, ids=lambda w: w.label)
def test_build_streams_rows_equal_single_frame_builds(wf, grid):
    sim = LinkSimulator(replace(DESK, num_delay_bins=grid[0], num_doppler_bins=grid[1]))
    seeds = [trial_seed(9, wf.label, 0, t) for t in range(5)]
    msgs, streams, grids = sim.build_streams(wf, [trial_generator(s, "payload") for s in seeds])
    assert streams.flags.c_contiguous and streams.shape[0] == len(seeds)
    assert (grids is None) == (wf.kind != "vsb_ofdm")
    for f, seed in enumerate(seeds):
        batch_of_one = sim.build_streams(wf, [trial_generator(seed, "payload")])
        single = tuple(None if x is None else x[0] for x in batch_of_one)
        oracle = _one_frame_oracle(sim, wf, trial_generator(seed, "payload"))
        for want in (single, oracle):
            np.testing.assert_array_equal(msgs[f], want[0])
            np.testing.assert_array_equal(streams[f], want[1])
            if grids is not None:
                np.testing.assert_array_equal(grids[f], want[2])


def test_run_papr_counts_equal_a_frame_by_frame_loop(monkeypatch):
    # batches of 3 frames, so 7 frames cross two batch boundaries
    monkeypatch.setattr(harness, "BATCH_SAMPLES", 3 * DESK.frame.block_len)
    cfg = replace(DESK, papr_frames=7, papr_oversample=2, master_seed=11)
    sim = LinkSimulator(cfg)
    assert sim.batch_frames == 3
    res = run_papr(cfg)
    for wf in cfg.waveforms:
        thresholds = np.asarray(cfg.papr_thresholds_db)
        exceed = np.zeros(thresholds.size, dtype=np.int64)
        for t in range(cfg.papr_frames):
            seed = trial_seed(cfg.master_seed, wf.label + "|papr", 0, t)
            _, stream, _ = _one_frame_oracle(sim, wf, trial_generator(seed, "payload"))
            exceed += papr_db(stream, cfg.papr_oversample) > thresholds
        acc = res[wf.label].papr
        assert acc.frames == cfg.papr_frames
        np.testing.assert_array_equal(acc.exceed, exceed)


def test_batch_frames_fit_desk_runs_and_leave_full_scale_alone():
    assert LinkSimulator(DESK).batch_frames == 16
    full = load_config("configs/full_scale.json")
    assert full.num_delay_bins * full.num_doppler_bins >= harness.BATCH_SAMPLES
    assert LinkSimulator(full).batch_frames == 1


ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# One full-scale VSB-OFDM mu0 trial: the hash of its energy scale and of the
# LLRs it decodes, its block errors, then the CPU time each thread of the
# process used over the next two trials, by native thread id.
FULL_VSB_TRIALS = f"""
import hashlib, json, os, threading, time
from dataclasses import replace
import numpy as np
from otfsim import harness

cfg = harness.load_config({os.path.join(ROOT, "configs", "full_scale.json")!r})
wf = next(w for w in cfg.waveforms if w.kind == "vsb_ofdm" and w.mu == 0)
sim = harness.LinkSimulator(replace(cfg, waveforms=(wf,)))
digest = hashlib.sha256()
energy_scale, decode = sim._energy_scale, sim.code.decode

def scaled(stream):
    out = energy_scale(stream)
    digest.update(out.hex().encode())
    return out

def decoded(llrs, *args):
    digest.update(np.ascontiguousarray(llrs).tobytes())
    return decode(llrs, *args)

sim._energy_scale, sim.code.decode = scaled, decoded
res = sim.run_trial(wf, 12.0, harness.trial_seed(cfg.master_seed, wf.label, 0, 0))
print(digest.hexdigest(), res.block_errors)

def cpu_s():
    out = {{}}
    for tid in os.listdir("/proc/self/task"):
        try:
            with open(f"/proc/self/task/{{tid}}/schedstat") as fh:
                out[int(tid)] = int(fh.read().split()[0]) * 1e-9
        except OSError:
            with open(f"/proc/self/task/{{tid}}/stat") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
            out[int(tid)] = (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")
    return out

if os.path.isdir("/proc/self/task"):
    # the first trial built the cached estimation operators, with BLAS
    # calls run once a process; let a worker they woke fall idle
    time.sleep(0.5)
    before = cpu_s()
    for t in (1, 2):
        sim.run_trial(wf, 12.0, harness.trial_seed(cfg.master_seed, wf.label, 0, t))
    after = cpu_s()
    names = {{t.native_id: t.name for t in threading.enumerate()}}
    print(json.dumps({{
        "caller": threading.get_native_id(),
        "threads": [[tid, names.get(tid, ""), s - before.get(tid, 0.0)] for tid, s in after.items()],
    }}))
"""


def full_vsb_trials(openblas_threads=None):
    env = {**os.environ, "PYTHONPATH": os.path.join(ROOT, "src")}
    env.pop("OPENBLAS_NUM_THREADS", None)
    if openblas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = str(openblas_threads)
    out = subprocess.run(
        [sys.executable, "-c", FULL_VSB_TRIALS],
        capture_output=True, text=True, check=True, env=env, timeout=600,
    )
    return out.stdout.strip().splitlines()


def test_full_scale_trials_do_not_depend_on_the_openblas_thread_count():
    # OpenBLAS splits a long zdotc over its threads, which changed the energy
    # of a full-scale stream, and so every sample after it, with their count
    one, two = (full_vsb_trials(n)[0] for n in (1, 2))
    assert one == two


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="no per-thread CPU times")
def test_no_blas_worker_spins_beside_the_decoder():
    # a threaded BLAS call leaves OpenBLAS's worker spinning on the core the
    # decode helpers need; it used as much CPU as the caller
    report = json.loads(full_vsb_trials()[1])
    used = {tid: s for tid, _, s in report["threads"]}
    caller = used[report["caller"]]
    others = {
        (tid, name): s
        for tid, name, s in report["threads"]
        if tid != report["caller"] and not name.startswith("otfsim-decode-")
    }
    assert caller > 0
    assert all(s <= 0.1 * caller for s in others.values()), (caller, others)
