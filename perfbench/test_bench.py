"""Self-test of the benchmark itself.

    python3 -m pytest perfbench/test_bench.py

Tracing must not change what the simulator computes, its counts must
repeat exactly, and a span target that no longer exists must be
reported as missing rather than crash the traced run.
"""

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import tracing  # noqa: E402
import workloads  # noqa: E402
from otfsim import channel, harness  # noqa: E402


def test_traced_and_untraced_rounds_agree():
    wl = workloads.WORKLOADS["desk_sweep"]
    reference = workloads.load_reference()
    seed = workloads.POOL_BASE_SEED
    plain = workloads.run_round(wl, seed)
    with tracing.Tracer() as first:
        traced = workloads.run_round(wl, seed)
    with tracing.Tracer() as second:
        again = workloads.run_round(wl, seed)

    assert plain.error is None and traced.error is None
    assert plain.outcome == traced.outcome == again.outcome
    assert workloads.config_changed(wl, reference) == []
    assert workloads.changed_points(wl, plain, reference) == []
    assert workloads.changed_points(wl, traced, reference) == []
    assert first.missing == []
    assert first.spans == {t[0] for t in tracing.TARGETS}
    assert first.counts == second.counts
    assert first.calls == second.calls
    values = tracing.layer_metrics(first, 0, 1.0, 1.0)
    assert values["estimation.taps_true"] > 0
    assert values["fec.decode.codewords"] > 0


def test_missing_targets_are_reported_not_fatal():
    ghost_decoder = ("fec.decode", "otfsim._kernels", "deleted_decoder", None)
    ghost_module = ("grid.place", "otfsim.no_such_module", "place", None)
    targets = tuple(t for t in tracing.TARGETS if t[0] not in ("fec.decode", "grid.place"))
    targets += (ghost_decoder, ghost_module)
    wl = workloads.WORKLOADS["papr_tx"]
    original = channel.apply_channel

    with tracing.Tracer(targets) as tracer:
        assert harness.apply_channel is not original
        res = workloads.run_round(wl, workloads.POOL_BASE_SEED)

    assert res.error is None
    assert harness.apply_channel is original
    assert set(tracer.missing) == {"otfsim._kernels:deleted_decoder", "otfsim.no_such_module:place"}
    values = tracing.layer_metrics(tracer, 0, 1.0, 1.0)
    assert not any(name.startswith(("fec.decode", "grid.place")) for name in values)
    assert values["fec.encode.codewords"] > 0
