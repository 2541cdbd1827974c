"""End-to-end acceptance checks, one printed verdict line per criterion.

Each test prints "[PASS]/[FAIL] criterion N: <measured detail>" before
asserting, so a full run documents every measured value whether or not
the bar is met.  The BLER and PAPR trend checks are Monte-Carlo heavy;
the whole module finishes in roughly a quarter hour on one core.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest
from helpers import guard_cell_count, identity_channel, max_delay_bin

from otfsim.channel import (
    ChannelRealization,
    PathTap,
    apply_channel,
    build_channel_matrix,
    load_profile,
    sample_channel,
)
from otfsim.equalization import lmmse_equalize
from otfsim.fec import default_code
from otfsim.grid import (
    PilotConfig,
    desk_scale_params,
    equal_total_pilot_power_boost_db,
    full_scale_params,
    place_otfs_frame,
)
from otfsim.harness import (
    LinkSimulator,
    WaveformSpec,
    load_config,
    run_sweep,
    trial_seed,
    write_bler_csv,
)
from otfsim.metrics import cp_snr_loss_db, papr_db
from otfsim.transforms import GridTransform, add_cp, interleave, remove_cp

DESK_CFG = load_config("configs/desk.json")


def report(num: int, ok: bool, detail: str) -> None:
    """Print the verdict line, then fail the test if the bar is not met."""
    print(f"\n[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}")
    assert ok, f"criterion {num} bar not met; details printed above"


def random_grid(rng, m, n):
    return (rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))) / np.sqrt(2)


def test_criterion_1_interleaving_identity():
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    worst = 0.0
    for m, n in ((8, 4), (64, 16), (512, 128)):
        otfs = GridTransform(m, n, "otfs")
        block = GridTransform(m, n, "block_ofdm")
        for _ in range(100):
            v = random_grid(rng, m, n).ravel(order="F")
            err = np.abs(otfs.apply(v) - interleave(block.apply(v), m, n)).max()
            worst = max(worst, err)
    elapsed = time.perf_counter() - start
    ok = worst < 1e-10 and elapsed < 10.0
    report(
        1, ok,
        f"time-interleaved identity on 300 frames, max error {worst:.2e} "
        f"(limit 1e-10), {elapsed:.1f}s (limit 10s)",
    )


def test_criterion_2_unitarity_and_loopback():
    start = time.perf_counter()
    frob = 0.0
    for kind in ("otfs", "block_ofdm"):
        a = GridTransform(64, 16, kind).dense()
        frob = max(frob, np.linalg.norm(a @ a.conj().T - np.eye(1024)))
    sim = LinkSimulator(DESK_CFG)
    ch = identity_channel(DESK_CFG.frame)
    failures = 0
    for wf in (WaveformSpec("otfs"), WaveformSpec("block_ofdm"), WaveformSpec("vsb_ofdm", 0)):
        for t in range(50):
            seed = trial_seed(2026, wf.label, 0, t)
            failures += sim.run_trial(wf, None, seed, channel=ch).block_errors
    elapsed = time.perf_counter() - start
    ok = frob < 1e-10 and failures == 0 and elapsed < 60.0
    report(
        2, ok,
        f"unitarity defect {frob:.2e} (limit 1e-10); noiseless loopback "
        f"{failures} failed blocks over 3 waveforms x 50 seeds; "
        f"{elapsed:.1f}s (limit 60s)",
    )


def test_criterion_3_channel_oracle_equivalence():
    rng = np.random.default_rng(103)
    worst = 0.0
    shapes = [(16, 16)] * 100 + [(8, 16)] * 50 + [(16, 4)] * 50
    for m, n in shapes:
        n_taps = int(rng.integers(1, 6))
        seen = set()
        taps = []
        while len(taps) < n_taps:
            l = int(rng.integers(0, m // 2))
            k = int(rng.integers(-(n // 2) + 1, n // 2))
            if (l, k) in seen:
                continue
            seen.add((l, k))
            g = (rng.standard_normal() + 1j * rng.standard_normal()) / np.sqrt(2)
            taps.append(PathTap(g, l, k))
        ch = ChannelRealization(tuple(taps), m, n)
        body = rng.standard_normal(m * n) + 1j * rng.standard_normal(m * n)
        cp = max_delay_bin(ch)
        r = apply_channel(add_cp(body, cp), ch, cp_samples=cp)
        err = np.abs(
            (remove_cp(r, cp) if cp else r) - build_channel_matrix(ch) @ body
        ).max()
        worst = max(worst, err)
    ok = worst < 1e-9
    report(
        3, ok,
        f"stream application vs dense cyclic matrix over 200 channels, "
        f"max error {worst:.2e} (limit 1e-9)",
    )


def test_criterion_4_genie_estimation_consistency():
    params = desk_scale_params()
    cfg = PilotConfig.centered(params, 3, 1, boost_db=28.0)
    t = GridTransform(64, 16, "otfs")
    rng = np.random.default_rng(104)
    n_data = 64 * 16 - guard_cell_count(cfg)
    from otfsim.estimation import otfs_estimate

    worst_gain = 0.0
    bin_mismatches = 0
    for _ in range(200):
        n_taps = int(rng.integers(1, 5))
        seen = set()
        taps = []
        while len(taps) < n_taps:
            l = int(rng.integers(0, 2))
            k = int(rng.integers(-3, 4))
            if (l, k) in seen:
                continue
            seen.add((l, k))
            g = rng.standard_normal() + 1j * rng.standard_normal()
            if abs(g) < 1e-3:
                continue
            taps.append(PathTap(g, l, k))
        ch = ChannelRealization(tuple(taps), 64, 16)
        data = random_grid(rng, n_data, 1).ravel()
        grid = place_otfs_frame(data, cfg, params)
        tx = add_cp(t.apply(grid.ravel(order="F")), params.cp_samples)
        r = apply_channel(tx, ch, cp_samples=params.cp_samples)
        y = t.adjoint(remove_cp(r, params.cp_samples)).reshape(64, 16, order="F")
        est = otfs_estimate(y, cfg, cfg.amplitude_for_unit_data, 0.0)
        got = {(p.delay_bin, p.doppler_bin): p.gain for p in est.taps}
        want = {(p.delay_bin, p.doppler_bin): p.gain for p in ch.taps}
        if set(got) != set(want):
            bin_mismatches += 1
            continue
        worst_gain = max(
            worst_gain, max(abs(got[b] - want[b]) for b in want)
        )
    ok = bin_mismatches == 0 and worst_gain < 1e-9
    report(
        4, ok,
        f"noiseless pilot readout over 200 in-window channels: "
        f"{bin_mismatches} bin-set mismatches, max gain error {worst_gain:.2e} "
        f"(limit 1e-9)",
    )


def test_criterion_5_cp_snr_loss_values():
    vsb = cp_snr_loss_db(512, 37)
    otfs = cp_snr_loss_db(65536, 37)
    ok = abs(vsb - 0.30) <= 0.01 and abs(otfs - 0.0023) <= 0.0005
    report(
        5, ok,
        f"per-symbol prefix loss {vsb:.4f} dB (target 0.30 +/- 0.01), "
        f"per-frame prefix loss {otfs:.5f} dB (target 0.0023 +/- 0.0005)",
    )


# Criterion 6 fails here: 42 x 9 = 378 whole resource blocks of 8
# references fit the 512x128 grid, so the equal-total-power boost is
# 10 log10(3024) = 34.81 dB, while the bar needs 2,239-2,818 references.
# The abstract does not say which reference structure the paper's 34 dB
# counts, so neither the bar nor the program is changed.
def test_criterion_6_pilot_power_accounting():
    boost = equal_total_pilot_power_boost_db(full_scale_params(), 0)
    ok = abs(boost - 34.0) <= 0.5
    report(
        6, ok,
        f"pilot boost concentrating all 3024 full-scale reference-cell "
        f"power units is {boost:.2f} dB, target 34 +/- 0.5 dB",
    )


# Criterion 7 describes the full-scale 512x128 frame.  Its 34 dB boost
# lies near the full-scale equal-total-power boost (34.81 dB, criterion
# 6); on the 64x16 desk grid that boost is 16.02 dB.  An impulse of power
# A^2 spreads over N time samples at A^2/N: at 28 dB that is 39.4
# data-power units a sample at N = 16 against 4.9 at N = 128, and the
# impulse holds about 39% of the desk frame's energy against about 1% at
# full scale.  The desk run measures a different regime, and no single
# desk boost reproduces both the peak and the energy share, so the boosts
# are not rescaled.  At full scale `build_streams` builds one frame a
# batch, since batching does not speed up full-scale frames, and a frame
# with its `papr_db` took 3.8-7.9 ms on a shared 2-vCPU Xeon, so the
# 80,000 frames take about 300-630 s against the 300 s limit.  On the
# desk grid the test took 9-10 s there.
# The criterion fails here until full-scale transmission gets cheaper.
def test_criterion_7_papr_trend():
    start = time.perf_counter()
    frames = 20_000
    quantiles = {}
    for boost in (34.0, 28.0):
        cfg = replace(
            DESK_CFG,
            pilot_boost_db=boost,
            waveforms=(WaveformSpec("otfs"), WaveformSpec("vsb_ofdm", 0)),
        )
        sim = LinkSimulator(cfg)
        for wf in cfg.waveforms:
            vals = np.empty(frames)
            for first in range(0, frames, sim.batch_frames):
                stop = min(first + sim.batch_frames, frames)
                rngs = [
                    np.random.default_rng(trial_seed(7, f"{wf.label}|papr{boost:g}", 0, t))
                    for t in range(first, stop)
                ]
                vals[first:stop] = papr_db(sim.build_streams(wf, rngs)[1], cfg.papr_oversample)
            quantiles[(boost, wf.label)] = float(np.quantile(vals, 1.0 - 1e-3))
    gap_34 = quantiles[(34.0, "otfs")] - quantiles[(34.0, "vsb_ofdm_mu0")]
    gap_28 = quantiles[(28.0, "otfs")] - quantiles[(28.0, "vsb_ofdm_mu0")]
    elapsed = time.perf_counter() - start
    ok = gap_34 >= 2.0 and gap_28 <= 0.5 and elapsed < 300.0
    report(
        7, ok,
        f"1e-3-probability PAPR gap over {frames} frames: "
        f"{gap_34:+.2f} dB at 34 dB boost (need >= +2), "
        f"{gap_28:+.2f} dB at 28 dB boost (need <= +0.5); "
        f"{elapsed:.0f}s (limit 300s)",
    )


# Criterion 8 describes the full-scale 512x128 frame.  Two of its AND-ed
# conjuncts cannot hold on the 64x16 desk grid for any program:
# - literal nu scaling needs nu_max = 22.2 kHz, but 16 Doppler bins
#   represent less than 7.5 kHz; the matching k_nu = 24 would need the
#   pilot at k_p in [49, -34], an empty range at N = 16;
# - the mu ladder needs mu = 3, and num_prb(desk, 3) == 0.
# Both hold trivially at full scale.  There one trial at 12 dB took
# 0.30-0.56 s for OTFS and 0.28-0.47 s for block OFDM (12 draws each of
# configs/full_scale.json, one thread of a 2-vCPU Xeon), so the 2,000
# OTFS and block-OFDM trials would take about 9-19 min against the
# 1800 s limit.  This test runs the desk grid, so the criterion fails
# here.
def test_criterion_8_bler_ordering():
    start = time.perf_counter()
    details = []
    params = DESK_CFG.frame
    full = full_scale_params()

    # stage 1: the stated Doppler scaling, nu_max * N * T preserved from
    # the full-scale 500 km/h case
    nu_product = DESK_CFG.nu_max_hz * full.frame_duration_s
    nu_scaled = nu_product / params.frame_duration_s
    literal_errors = []
    try:
        sample_channel(
            load_profile(DESK_CFG.profile, DESK_CFG.delay_spread_s),
            params, nu_scaled, np.random.default_rng(0),
        )
    except ValueError as exc:
        literal_errors.append(f"channel: {exc}")
    try:
        PilotConfig.centered(params, math.ceil(nu_product - 1e-12), 1)
    except ValueError as exc:
        literal_errors.append(f"pilot: {exc}")
    if literal_errors:
        details.append(
            f"scaled nu_max {nu_scaled:.0f} Hz (preserving nu*N*T="
            f"{nu_product:.1f}) is unrepresentable on a 16-bin Doppler "
            f"grid [{'; '.join(literal_errors)}]; falling back to the "
            f"same physical 500 km/h channel"
        )

    # stage 2: where does the mu=0 narrowband waveform cross BLER 1e-1
    vsb0 = WaveformSpec("vsb_ofdm", 0)
    sim_v = LinkSimulator(replace(DESK_CFG, waveforms=(vsb0,)))
    v_points = [
        sim_v.run_point(vsb0, i) for i in range(len(DESK_CFG.snr_grid_db))
    ]
    blers = [p.bler for p in v_points]
    crossing = next(
        (i for i, b in enumerate(blers) if b <= 0.1), None
    )
    details.append(
        "vsb mu0 bler over "
        f"{DESK_CFG.snr_grid_db[0]:g}..{DESK_CFG.snr_grid_db[-1]:g} dB: "
        + " ".join(f"{b:.2f}" for b in blers)
    )
    if crossing is None:
        best = min(range(len(blers)), key=lambda i: (blers[i], -i))
        details.append(
            f"no grid SNR reaches 1e-1 (floor {blers[best]:.2f}); "
            f"evaluating the ordering at {DESK_CFG.snr_grid_db[best]:g} dB"
        )
        eval_idx = best
    else:
        eval_idx = crossing
    eval_snr = DESK_CFG.snr_grid_db[eval_idx]

    # stage 3: certify the waveform ordering at the evaluation SNR
    cfg_dd = replace(
        DESK_CFG,
        waveforms=(WaveformSpec("otfs"), WaveformSpec("block_ofdm")),
        snr_grid_db=(eval_snr,),
        trials_per_point=1000,
        chunk_size=50,
    )
    sim_dd = LinkSimulator(cfg_dd)
    points = {
        wf.label: sim_dd.run_point(wf, 0) for wf in cfg_dd.waveforms
    }
    points["vsb_ofdm_mu0"] = v_points[eval_idx]
    for label, p in points.items():
        lo, hi = p.interval()
        details.append(
            f"{label} at {eval_snr:g} dB: {p.block_errors}/{p.blocks} "
            f"(bler {p.bler:.4f}, 95% CI [{lo:.4f}, {hi:.4f}])"
        )
    ord_1 = points["otfs"].interval()[1] < points["block_ofdm"].interval()[0]
    ord_2 = (
        points["block_ofdm"].interval()[1] < points["vsb_ofdm_mu0"].interval()[0]
    )

    # stage 4: numerology ladder at the evaluation SNR
    mu_blers = {0: points["vsb_ofdm_mu0"].bler}
    for mu in (1, 2, 3):
        wf = WaveformSpec("vsb_ofdm", mu)
        try:
            sim_mu = LinkSimulator(
                replace(DESK_CFG, waveforms=(wf,), snr_grid_db=(eval_snr,))
            )
        except ValueError as exc:
            details.append(f"mu={mu}: unmeasurable ({exc})")
            mu_blers[mu] = None
            continue
        p = sim_mu.run_point(wf, 0)
        mu_blers[mu] = p.bler
        details.append(
            f"mu={mu} at {eval_snr:g} dB: {p.block_errors}/{p.blocks} "
            f"(bler {p.bler:.4f})"
        )
    measured = [mu_blers[m] for m in range(4)]
    mono = all(v is not None for v in measured) and all(
        a >= b - 1e-12 for a, b in zip(measured, measured[1:])
    )

    elapsed = time.perf_counter() - start
    ok = (
        not literal_errors
        and crossing is not None
        and ord_1
        and ord_2
        and mono
        and elapsed < 1800.0
    )
    verdicts = (
        f"literal-nu-scaling {'ok' if not literal_errors else 'infeasible'}, "
        f"1e-1 crossing {'found' if crossing is not None else 'absent'}, "
        f"otfs<block {'certified' if ord_1 else 'not certified'}, "
        f"block<vsb {'certified' if ord_2 else 'not certified'}, "
        f"mu ladder {'non-increasing' if mono else 'not established'}; "
        f"{elapsed:.0f}s (limit 1800s)"
    )
    report(8, ok, verdicts + "".join("\n    " + d for d in details))


def test_criterion_9_lmmse_correctness():
    rng = np.random.default_rng(109)
    worst_small = 0.0
    multi_delay = 0
    for _ in range(20):
        m, n = 8, 8
        taps = tuple(
            PathTap(
                (rng.standard_normal() + 1j * rng.standard_normal()) / 2,
                int(rng.integers(0, 3)),
                int(rng.integers(-2, 3)),
            )
            for _ in range(3)
        )
        ch = ChannelRealization(taps, m, n)
        # two or more delays take the diagonal estimator with identity
        # probes, one delay the closed form; these draws cover both
        multi_delay += len(set(ch.delay_bins.tolist())) >= 2
        t = GridTransform(m, n, "otfs")
        r = rng.standard_normal(m * n) + 1j * rng.standard_normal(m * n)
        nv = 10 ** rng.uniform(-3, 0)
        out = lmmse_equalize(r, ch, t, nv)
        g = build_channel_matrix(ch) @ t.dense()
        w = g.conj().T @ np.linalg.inv(g @ g.conj().T + nv * np.eye(m * n))
        worst_small = max(worst_small, np.abs(out.symbols - w @ r).max())
        worst_small = max(
            worst_small,
            np.abs(out.noise_vars - nv * np.sum(np.abs(w) ** 2, axis=1)).max(),
        )

    params = desk_scale_params()
    profile = load_profile("tdl_a", 37e-9)
    ch = sample_channel(profile, params, 2779.7, np.random.default_rng(5))
    t = GridTransform(64, 16, "otfs")
    r = rng.standard_normal(1024) + 1j * rng.standard_normal(1024)
    out = lmmse_equalize(r, ch, t, 0.05)
    g = build_channel_matrix(ch) @ t.dense()
    w = g.conj().T @ np.linalg.inv(g @ g.conj().T + 0.05 * np.eye(1024))
    desk_err = np.abs(out.symbols - w @ r).max()
    assert 0 < multi_delay < 20, f"{multi_delay} of 20 draws have two or more delays"
    ok = worst_small < 1e-8 and desk_err < 1e-6
    report(
        9, ok,
        f"equalizer vs explicit formula (symbols and variances, "
        f"MN=64): max error {worst_small:.2e} (limit 1e-8); symbols vs "
        f"explicit formula at MN=1024: {desk_err:.2e} (limit 1e-6)",
    )


def test_criterion_10_ldpc_round_trip_and_waterfall():
    code = default_code()
    rng = np.random.default_rng(110)
    n_msgs = 1000
    msgs = rng.integers(0, 2, (n_msgs, code.message_len), dtype=np.uint8)
    cws = code.encode(msgs.ravel())
    llrs = 8.0 * (1.0 - 2.0 * cws.astype(float))
    bits, ok_flags = code.decode(llrs)
    exact = ok_flags.all() and np.array_equal(bits, cws)

    sigmas = (1.0, 0.85, 0.75, 0.7, 0.6)
    errors = []
    for sigma in sigmas:
        fails = 0
        for _ in range(30):
            cw = code.encode(rng.integers(0, 2, code.message_len))
            x = 1.0 - 2.0 * cw.astype(float)
            llr = 2.0 * (x + sigma * rng.standard_normal(cw.size)) / sigma**2
            hard, good = code.decode(llr)
            fails += not (good and np.array_equal(hard, cw))
        errors.append(fails)
    monotone = all(a >= b for a, b in zip(errors, errors[1:]))
    ok = exact and monotone
    report(
        10, ok,
        f"zero-noise round trip of {n_msgs} messages "
        f"{'bit-exact' if exact else 'FAILED'}; block errors per 30 words "
        f"across falling noise {errors} "
        f"({'monotone' if monotone else 'not monotone'})",
    )


def test_criterion_11_thread_count_determinism(tmp_path):
    cfg = replace(
        DESK_CFG,
        waveforms=(WaveformSpec("otfs"), WaveformSpec("vsb_ofdm", 0)),
        snr_grid_db=(18.0,),
        trials_per_point=8,
        chunk_size=4,
        papr_frames=8,
    )
    outputs = []
    for threads in (1, 4):
        res = run_sweep(cfg, threads=threads)
        bler = tmp_path / f"bler_{threads}.csv"
        write_bler_csv(bler, res)
        outputs.append(bler.read_bytes())
    ok = outputs[0] == outputs[1]
    report(
        11, ok,
        f"one sweep with 1 thread vs 4 threads: bler.csv "
        f"{'byte-identical' if ok else 'DIFFER'} "
        f"({len(outputs[0])} bytes compared)",
    )
