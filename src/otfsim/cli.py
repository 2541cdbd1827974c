"""Command-line entry points: BLER sweeps, PAPR measurement, profile listing."""

from __future__ import annotations

import argparse
import os
import sys

from . import channel, harness


def _add_config(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", required=True, help="JSON run configuration")
    parser.add_argument("--out", default="results", help="output directory")


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="otfsim",
        description="Link-level waveform comparison over doubly selective channels",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="BLER sweep over the configured SNR grid")
    _add_config(run)
    run.add_argument("--threads", type=_positive_int, default=1, help="worker threads")

    papr = sub.add_parser("papr", help="transmit-only PAPR CCDF measurement")
    _add_config(papr)

    profiles = sub.add_parser("profiles", help="power-delay profile utilities")
    profiles.add_subparsers(dest="action", required=True).add_parser(
        "list", help="list bundled profiles"
    )
    return parser


def _emit(line: str) -> None:
    print(line, flush=True)


def cmd_run(args) -> int:
    cfg = harness.load_config(args.config)
    os.makedirs(args.out, exist_ok=True)
    results = harness.run_sweep(cfg, threads=args.threads, log=_emit)
    harness.write_bler_csv(os.path.join(args.out, "bler.csv"), results)
    harness.write_meta(os.path.join(args.out, "meta.json"), cfg)
    _emit(f"wrote bler.csv, meta.json to {args.out}")
    return 0


def cmd_papr(args) -> int:
    cfg = harness.load_config(args.config)
    os.makedirs(args.out, exist_ok=True)
    results = harness.run_papr(cfg, log=_emit)
    harness.write_papr_csv(os.path.join(args.out, "papr.csv"), results)
    harness.write_meta(os.path.join(args.out, "meta.json"), cfg)
    _emit(f"wrote papr.csv, meta.json to {args.out}")
    return 0


def cmd_profiles(_args) -> int:
    for name in channel.BUNDLED_PROFILES:
        profile = channel.load_profile(name, 1.0)
        _emit(f"{name}: {profile.normalized_delays.size} taps")
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {"run": cmd_run, "papr": cmd_papr, "profiles": cmd_profiles}
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
