"""Seeded end-to-end benchmark of the otfsim link simulator.

    python3 perfbench/run.py --workload desk_sweep --seed 1 --seconds 25 --trace 0

Runs one workload (see ``workloads.py``) in this process through
``harness.run_sweep`` / ``harness.run_papr``.  Set-up is timed in fresh
child processes; one warm-up trial per waveform kind runs untimed; then
the seed's plan of pool rounds runs in whole passes for at most
``--seconds``, and ``trials_per_s`` is the median over passes.  Every
round's outcomes are checked against ``reference.json``.

With ``--trace 0`` the last stdout line carries the end-to-end metrics;
with ``--trace 1`` the plan runs once untraced and once traced, and the
last line carries the per-layer metrics.  The lines
before it report every figure by name, the points that changed, and the
environment.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_PROBES = 5


def run_seconds() -> float:
    """The run length every caller uses: ``run_seconds`` of BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return float(json.load(fh)["run_seconds"])


def setup_probe(name: str) -> None:
    """Child-process body: import, simulator construction, LDPC graph."""
    t0 = time.perf_counter()
    import workloads

    sim = workloads.harness.LinkSimulator(workloads.WORKLOADS[name].config(workloads.WARMUP_SEED))
    getattr(sim.code, "graph", None)
    print(repr(time.perf_counter() - t0))


def measure_setup(name: str) -> list:
    samples = []
    for _ in range(SETUP_PROBES):
        out = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--setup-probe", name],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        samples.append(float(out.stdout.split()[-1]))
    return samples


def blas_info() -> dict:
    import numpy as np

    info = {"threads_env": os.environ.get("OPENBLAS_NUM_THREADS")}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info.update(name=blas.get("name"), version=blas.get("version"))
    except (KeyError, TypeError):
        pass
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["threads"] = fn()
                return info
    return info


def source_revision() -> dict:
    """Git revision when run from a clone, and a hash of the package sources."""
    rev = "unknown"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        out = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30
        )
        rev = out.stdout.strip() or rev
    digest = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(ROOT, "src", "otfsim", "**", "*"), recursive=True)):
        if os.path.isfile(path) and "__pycache__" not in path:
            digest.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as fh:
                digest.update(fh.read())
    return {"git_revision": rev, "source_sha256": digest.hexdigest()}


def environment(workloads, wl) -> dict:
    import numpy
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_info(),
        "using_numba": bool(workloads.otfsim._kernels.USING_NUMBA),
        **source_revision(),
        "config_sha256": wl.config(workloads.POOL_BASE_SEED).config_hash(),
    }


def run_passes(workloads, wl, seeds, reference, seconds=None):
    """Whole passes over the plan, one without ``seconds``.

    With ``seconds``, another pass starts while the previous pass's
    duration still fits in the time left, so a run measures at most
    ``seconds`` unless its first pass alone takes longer.

    Returns (per-pass (trials done, wall seconds), round results, changed points).
    """
    passes, results, changed = [], [], []
    t0 = time.perf_counter()
    while True:
        start = time.perf_counter()
        rounds = [workloads.run_round(wl, s) for s in seeds]
        passes.append((sum(r.done for r in rounds), time.perf_counter() - start))
        results += rounds
        if seconds is None or time.perf_counter() - t0 + passes[-1][1] > seconds:
            break
    for res in results:
        changed += [f"round {res.master_seed} {d}" for d in workloads.changed_points(wl, res, reference)]
        if res.error:
            print(f"round {res.master_seed} failed:\n{res.error}", file=sys.stderr)
    return passes, results, changed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=run_seconds(),
                        help="defaults to run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", metavar="WORKLOAD", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe:
        setup_probe(args.setup_probe)
        return 0

    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {sorted(workloads.WORKLOADS)}")
    wl = workloads.WORKLOADS[args.workload]
    reference = workloads.load_reference()
    env = environment(workloads, wl)
    setup = measure_setup(wl.name)

    with tracing.WarningTally() as warned:
        workloads.warm_up(wl)
        seeds = wl.plan_seeds(args.seed)
        if args.trace:
            passes, timed, changed = run_passes(workloads, wl, seeds, reference)
            ridges_before = warned.counts["ridge"]
            with tracing.Tracer() as tracer:
                traced_passes, traced, traced_changed = run_passes(workloads, wl, seeds, reference)
            results = timed + traced
            changed += traced_changed
            ridges = warned.counts["ridge"] - ridges_before
        else:
            passes, timed, changed = run_passes(workloads, wl, seeds, reference, args.seconds)
            results = timed
    changed = workloads.config_changed(wl, reference) + changed

    attempted = sum(r.planned for r in results)
    done = sum(r.done for r in results)
    families = workloads.harness.WAVEFORM_KINDS
    family_s = {f: sum(r.family_s.get(f, 0.0) for r in timed) for f in families}
    family_n = {f: sum(r.family_trials.get(f, 0) for r in timed) for f in families}
    wall = sum(w for _, w in passes)
    report = {
        "trials_per_s": (statistics.median(n / w for n, w in passes), "1/s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    for f in families:
        if family_n[f]:
            report[f"{f}.trials_per_s"] = (family_n[f] / family_s[f], "1/s")
    report["failed_trials_ratio"] = ((attempted - done) / attempted, "ratio")
    report["bler_points_changed"] = (len(changed), "count")

    print(f"workload {wl.name} seed {args.seed} trace {args.trace} rounds {len(results)} "
          f"trials {done}/{attempted} wall_s {wall:.3f} passes_s "
          + " ".join(f"{w:.3f}" for _, w in passes))
    print("environment " + json.dumps(env, sort_keys=True))
    print("setup_samples_s " + " ".join(f"{s:.4f}" for s in setup))
    for line in changed:
        print("changed_point " + line)
    if warned.counts:
        print("warnings " + json.dumps(dict(warned.counts), sort_keys=True))
    for name, (value, unit) in report.items():
        print(f"metric {name} {value:.6g} {unit}")

    if args.trace:
        if tracer.missing:
            print("missing_targets " + " ".join(tracer.missing))
        traced_wall = traced_passes[0][1]
        values = tracing.layer_metrics(tracer, ridges, traced_wall, wall)
        for name, value in values.items():
            share = f" share {value / traced_wall:.3f}" if name.endswith(".s") else ""
            print(f"layer {name} {value:.6g} {tracing.LAYER_METRICS[name][0]}{share}")
        metrics = {n: {"value": v, "unit": tracing.LAYER_METRICS[n][0]} for n, v in values.items()}
    else:
        metrics = {
            n: {"value": report[n][0], "unit": report[n][1]}
            for n in ("trials_per_s", "setup_s", "peak_rss_mb")
        }
    print(json.dumps({
        "correct": not changed and done == attempted,
        "attempted": attempted,
        "failed": attempted - done,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
