"""Run the benchmark over several seeds and summarize each metric.

    python3 perfbench/repeat.py --workloads desk_sweep mid_otfs --seeds 1-10 --seconds 15
    python3 perfbench/repeat.py --seeds 1-10 --trajectory "baseline"

Each run is a fresh ``run.py`` process.  For every metric the summary
gives the median, the quartiles (``statistics.quantiles(n=4)``) and the
spread, the distance between the quartiles as a share of the median.
With ``--trajectory`` the summary, one traced run per workload and each
workload's environment are appended to ``trajectory.json`` as a new entry.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TRAJECTORY = os.path.join(HERE, "trajectory.json")
sys.path.insert(0, HERE)


def seed_range(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True,
    )
    lines = out.stdout.strip().splitlines()
    record = {"workload": workload, "seed": seed, "trace": trace, "result": json.loads(lines[-1])}
    record["report"] = {}
    for line in lines:
        kind, _, rest = line.partition(" ")
        if kind in ("metric", "layer"):
            name, value, unit = rest.split()[:3]
            record["report"][name] = {"value": float(value), "unit": unit}
        elif kind == "environment":
            record["environment"] = json.loads(rest)
        elif kind == "changed_point":
            record.setdefault("changed", []).append(rest)
    return record


def summarize(records: list) -> dict:
    values = {}
    for rec in records:
        for name, m in rec["report"].items():
            values.setdefault(name, ([], m["unit"]))[0].append(m["value"])
    out = {}
    for name, (vals, unit) in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
        out[name] = {
            "median": med, "q1": q1, "q3": q3, "unit": unit, "runs": len(vals),
            "spread": (q3 - q1) / med if med else None,
        }
    return out


def main(argv=None) -> int:
    import run
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", default=list(workloads.WORKLOADS))
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--seconds", type=float, default=run.run_seconds(),
                        help="defaults to run_seconds of BENCHMARK.json")
    parser.add_argument("--trajectory", metavar="LABEL")
    args = parser.parse_args(argv)

    entry = {"label": args.trajectory, "seeds": args.seeds, "seconds": args.seconds, "workloads": {}}
    for name in args.workloads:
        records = []
        for seed in args.seeds:
            rec = run_once(name, seed, args.seconds, 0)
            records.append(rec)
            res = rec["result"]
            print(f"{name} seed {seed} correct {res['correct']} failed {res['failed']}/"
                  f"{res['attempted']} " + " ".join(
                      f"{k}={v['value']:.4g}" for k, v in res["metrics"].items()), flush=True)
        summary = summarize(records)
        for metric, s in summary.items():
            spread = "n/a" if s["spread"] is None else f"{s['spread']:.4f}"
            print(f"  {name} {metric}: median {s['median']:.6g} q1 {s['q1']:.6g} "
                  f"q3 {s['q3']:.6g} spread {spread} {s['unit']}", flush=True)
        entry["workloads"][name] = {
            "end_to_end": summary,
            "all_correct": all(r["result"]["correct"] for r in records),
            "environment": records[-1]["environment"],
        }
        if args.trajectory:
            traced = run_once(name, args.seeds[0], args.seconds, 1)
            entry["workloads"][name]["traced_seed"] = args.seeds[0]
            entry["workloads"][name]["per_layer"] = traced["report"]

    if args.trajectory:
        entry["date"] = datetime.date.today().isoformat()
        history = []
        if os.path.exists(TRAJECTORY):
            with open(TRAJECTORY) as fh:
                history = json.load(fh)
        history.append(entry)
        with open(TRAJECTORY, "w") as fh:
            json.dump(history, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
