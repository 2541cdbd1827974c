"""Per-layer spans recorded from outside the program.

The tracer replaces layer functions by module attribute: the attribute
on its defining module or class, plus every ``otfsim`` module that bound
the same function object by name (``harness`` imports most of them with
``from .x import f``).  A target that no longer exists is reported as
missing and its metrics are left out; the rest of the trace still runs.

Each span accumulates calls, inclusive time and self time (inclusive
time minus the spans nested inside it on the same thread).  Spans in
worker threads keep their own per-thread stacks.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
import warnings
from collections import Counter, defaultdict


def _count_taps(field):
    def hook(tracer, out):
        tracer.trial()[field] = len(out.taps)

    return hook


def _end_trial(tracer, _out):
    trial = tracer.trial()
    # tap counts are compared only on trials whose pilot was read
    if "detected" in trial:
        tracer.count("estimation.taps_detected", trial["detected"])
        tracer.count("estimation.taps_true", trial.get("true", 0))
        tracer.count("estimation.frames_lost", trial["detected"] == 0)
    trial.clear()


def _decoded(tracer, out):
    _bits, ok, iterations = out
    tracer.count("fec.decode.iterations", int(iterations))
    tracer.count("fec.decode.converged", bool(ok))


def _encoded(tracer, out):
    tracer.count("fec.encode.codewords", 1 if out.ndim == 1 else out.shape[0])


# (span, module, attribute path, hook on the return value)
TARGETS = (
    ("harness.run_trial", "otfsim.harness", "LinkSimulator.run_trial", _end_trial),
    ("harness.run_trial", "otfsim.harness", "run_papr", None),
    ("harness.simulator_init", "otfsim.harness", "LinkSimulator.__init__", None),
    ("channel.sample_channel", "otfsim.channel", "sample_channel", _count_taps("true")),
    ("channel.apply_channel", "otfsim.channel", "apply_channel", None),
    ("channel.operator", "otfsim.channel", "apply_channel_operator", None),
    ("channel.operator", "otfsim.channel", "apply_channel_operator_adjoint", None),
    ("channel.dense", "otfsim.channel", "gram_matrix", None),
    ("channel.dense", "otfsim.channel", "build_channel_matrix", None),
    ("estimation.otfs_estimate", "otfsim.estimation", "otfs_estimate", _count_taps("detected")),
    ("estimation.ofdm_estimate", "otfsim.estimation", "ofdm_estimate", None),
    ("equalization.lmmse_equalize", "otfsim.equalization", "lmmse_equalize", None),
    ("equalization.single_tap_equalize", "otfsim.equalization", "single_tap_equalize", None),
    ("equalization.compute_llrs", "otfsim.equalization", "compute_llrs", None),
    ("fec.encode", "otfsim.fec", "LdpcCode.encode", _encoded),
    ("fec.decode", "otfsim._kernels", "min_sum_decode", _decoded),
    ("transforms.apply", "otfsim.transforms", "GridTransform.apply", None),
    ("transforms.adjoint", "otfsim.transforms", "GridTransform.adjoint", None),
    ("ofdm.vsb_modulate", "otfsim.ofdm", "vsb_modulate", None),
    ("ofdm.vsb_demodulate", "otfsim.ofdm", "vsb_demodulate", None),
    ("grid.place", "otfsim.grid", "place_otfs_frame", None),
    ("grid.place", "otfsim.grid", "place_ofdm_frame", None),
    ("metrics.papr_db", "otfsim.metrics", "papr_db", None),
)


class Tracer:
    """Installs spans on the layer functions and tallies them."""

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.calls = Counter()
        self.inclusive = defaultdict(float)
        self.self_s = defaultdict(float)
        self.counts = Counter()
        self.missing = []  # "module:attribute" of targets that do not exist
        self.spans = set()  # spans with at least one installed target
        self._lock = threading.Lock()
        self._local = threading.local()
        self._undo = []

    def trial(self) -> dict:
        """Per-thread scratch record of the trial in progress."""
        if not hasattr(self._local, "trial"):
            self._local.trial = {}
        return self._local.trial

    def count(self, name: str, amount=1) -> None:
        with self._lock:
            self.counts[name] += amount

    def _stack(self) -> list:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def _wrap(self, span: str, fn, hook):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            stack.append(0.0)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - t0
                nested = stack.pop()
                if stack:
                    stack[-1] += elapsed
                with tracer._lock:
                    tracer.calls[span] += 1
                    tracer.inclusive[span] += elapsed
                    tracer.self_s[span] += elapsed - nested
            if hook is not None:
                hook(tracer, out)
            return out

        return traced

    def _set(self, owner, name, value) -> None:
        self._undo.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def install(self) -> "Tracer":
        for span, module_name, path, hook in self.targets:
            try:
                owner = importlib.import_module(module_name)
                *parents, name = path.split(".")
                for part in parents:
                    owner = getattr(owner, part)
                original = getattr(owner, name)
            except (ImportError, AttributeError):
                self.missing.append(f"{module_name}:{path}")
                continue
            wrapped = self._wrap(span, original, hook)
            self._set(owner, name, wrapped)
            if not parents:
                for mod_name, mod in list(sys.modules.items()):
                    if mod is owner or not mod_name.startswith("otfsim"):
                        continue
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._set(mod, attr, wrapped)
            self.spans.add(span)
        return self

    def uninstall(self) -> None:
        while self._undo:
            owner, name, value = self._undo.pop()
            setattr(owner, name, value)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()


class WarningTally:
    """Counts warnings raised while active instead of printing them.

    The equalizer reports each ridge retry of a singular system as a
    ``RuntimeWarning``; those are tallied as ``ridge``.
    """

    def __init__(self):
        self.counts = Counter()
        self._lock = threading.Lock()
        self._guard = None

    def _record(self, message, category, *_args, **_kwargs):
        key = "ridge" if str(message).startswith("equalizer system singular") else category.__name__
        with self._lock:
            self.counts[key] += 1

    def __enter__(self):
        self._guard = warnings.catch_warnings()
        self._guard.__enter__()
        warnings.simplefilter("always")
        warnings.showwarning = self._record
        return self

    def __exit__(self, *exc):
        self._guard.__exit__(*exc)


# metric name -> (unit, better); the order is the order of the report
LAYER_METRICS = {
    "channel.operator.calls": ("count", "lower"),
    "channel.operator.s": ("s", "lower"),
    "equalization.lmmse_equalize.s": ("s", "lower"),
    "equalization.lmmse_equalize.calls": ("count", "lower"),
    "channel.dense.s": ("s", "lower"),
    "fec.decode.s": ("s", "lower"),
    "fec.decode.codewords": ("count", "higher"),
    "fec.decode.iterations": ("count", "lower"),
    "fec.decode.converged_ratio": ("ratio", "higher"),
    "fec.encode.s": ("s", "lower"),
    "fec.encode.codewords": ("count", "higher"),
    "estimation.ofdm_estimate.s": ("s", "lower"),
    "channel.apply_channel.s": ("s", "lower"),
    "estimation.otfs_estimate.s": ("s", "lower"),
    "estimation.taps_detected": ("count", "higher"),
    "estimation.taps_true": ("count", "higher"),
    "estimation.frames_lost": ("count", "lower"),
    "equalization.single_tap_equalize.s": ("s", "lower"),
    "equalization.compute_llrs.s": ("s", "lower"),
    "equalization.ridge_retries": ("count", "lower"),
    "transforms.apply.s": ("s", "lower"),
    "transforms.adjoint.s": ("s", "lower"),
    "ofdm.vsb_modulate.s": ("s", "lower"),
    "ofdm.vsb_demodulate.s": ("s", "lower"),
    "grid.place.s": ("s", "lower"),
    "metrics.papr_db.s": ("s", "lower"),
    "channel.sample_channel.s": ("s", "lower"),
    "harness.run_trial.s": ("s", "lower"),
    "harness.self.s": ("s", "lower"),
    "harness.simulator_init.s": ("s", "lower"),
    "harness.parallel_efficiency": ("ratio", "higher"),
    "trace.overhead_ratio": ("ratio", "lower"),
}


def layer_metrics(tracer: Tracer, ridges: int, traced_s: float, untraced_s: float) -> dict:
    """Per-layer values of one traced pass; spans that were missing are absent.

    ``.s`` is self time except ``harness.run_trial.s``, which is the
    inclusive trial time (a PAPR frame loop counts as trial time);
    ``harness.self.s`` is the part of it no layer span covers.
    """
    values = {span + ".s": tracer.self_s[span] for span in tracer.spans}
    spans = tracer.spans
    if "harness.run_trial" in spans:
        values["harness.run_trial.s"] = tracer.inclusive["harness.run_trial"]
        values["harness.self.s"] = tracer.self_s["harness.run_trial"]
        values["harness.parallel_efficiency"] = tracer.inclusive["harness.run_trial"] / traced_s
    if "channel.operator" in spans:
        values["channel.operator.calls"] = tracer.calls["channel.operator"]
    if "equalization.lmmse_equalize" in spans:
        values["equalization.lmmse_equalize.calls"] = tracer.calls["equalization.lmmse_equalize"]
        values["equalization.ridge_retries"] = ridges
    if "fec.decode" in spans:
        codewords = tracer.calls["fec.decode"]
        values["fec.decode.codewords"] = codewords
        values["fec.decode.iterations"] = tracer.counts["fec.decode.iterations"]
        converged = tracer.counts["fec.decode.converged"]
        values["fec.decode.converged_ratio"] = converged / codewords if codewords else 0.0
    if "fec.encode" in spans:
        values["fec.encode.codewords"] = tracer.counts["fec.encode.codewords"]
    if {"channel.sample_channel", "estimation.otfs_estimate"} <= spans:
        for name in ("taps_detected", "taps_true", "frames_lost"):
            values["estimation." + name] = tracer.counts["estimation." + name]
    values["trace.overhead_ratio"] = traced_s / untraced_s
    return {name: values[name] for name in LAYER_METRICS if name in values}
