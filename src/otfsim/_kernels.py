"""Hot numeric kernels: the causal stream channel and the min-sum decoder.

Each operation has one implementation.  The stream kernel is vectorized
numpy.  The min-sum decoder is plain C (``_minsum.c``), compiled with the
system's ``cc`` on the first decode into this package's ``__pycache__``
and called through ``ctypes``; there is no Python fallback.  The tests
check both kernels against scalar loops, and the decoder also against
the numpy flooding kernel it replaced, bit for bit.  The body-length
channel operator is the sparse matrix that
:class:`~otfsim.channel.ChannelRealization` builds.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import subprocess
import tempfile
import threading
from pathlib import Path

import numpy as np

# numba is not used; perfbench/run.py still reads and reports this flag.
USING_NUMBA = False

MINSUM_SOURCE = Path(__file__).with_name("_minsum.c")
# no -march=native, so every host runs the same arithmetic; no contraction
# of multiply-adds, so the C kernel rounds exactly as numpy does
MINSUM_CFLAGS = ("-O3", "-ffp-contract=off", "-fPIC", "-shared")

_build_lock = threading.Lock()
_decoder = None


def ltv_stream(samples, gains, delay_bins, phase_rates, t0):
    """Apply the time-varying multipath response along a sample stream.

    ``out[v] = sum_p gains[p] * exp(j*w_p*(v + t0 - l_p)) * samples[v - l_p]``
    with samples before the stream start treated as zero, so a tap
    delayed past the stream's end adds nothing.  ``t0`` places the
    stream on the channel's absolute time axis.
    """
    samples = np.ascontiguousarray(samples, dtype=np.complex128)
    out = np.zeros_like(samples)
    n = samples.size
    idx = np.arange(n)
    for g, l, w in zip(gains, delay_bins, phase_rates):
        if l >= n:
            continue
        delayed = np.zeros_like(samples)
        delayed[l:] = samples[: n - l] if l else samples
        out += g * np.exp(1j * w * (idx + t0 - l)) * delayed
    return out


def minsum_library() -> Path:
    """Path of the compiled decoder, built now unless a build exists.

    The file name carries a hash of the source and the flags, so an
    edited kernel gets a fresh build.  The compiler writes a temporary
    file that is renamed into place, so processes that build at once
    each leave a complete library.
    """
    tag = hashlib.sha256(MINSUM_SOURCE.read_bytes() + " ".join(MINSUM_CFLAGS).encode())
    path = MINSUM_SOURCE.parent / "__pycache__" / f"_minsum-{tag.hexdigest()[:16]}.so"
    if path.exists():
        return path
    path.parent.mkdir(exist_ok=True)
    fd, tmp = tempfile.mkstemp(prefix="_minsum-", suffix=".so.tmp", dir=path.parent)
    os.close(fd)
    try:
        try:
            build = subprocess.run(
                ["cc", *MINSUM_CFLAGS, "-o", tmp, str(MINSUM_SOURCE)],
                capture_output=True,
                text=True,
            )
        except FileNotFoundError as exc:
            raise RuntimeError("the min-sum decoder needs a C compiler on PATH as cc") from exc
        if build.returncode:
            raise RuntimeError(f"building {MINSUM_SOURCE.name} failed:\n{build.stderr}")
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    return path


def _load_decoder():
    """The decoder's C entry point, built and loaded on the first call."""
    global _decoder
    with _build_lock:
        if _decoder is None:
            fn = ctypes.CDLL(str(minsum_library())).otfsim_min_sum_decode
            index = np.ctypeslib.ndpointer(np.int64, ndim=1, flags="C_CONTIGUOUS")
            real = np.ctypeslib.ndpointer(np.float64, ndim=1, flags="C_CONTIGUOUS")
            fn.argtypes = [
                ctypes.c_int64,  # n_vars
                ctypes.c_int64,  # n_checks
                index,  # check_ptr
                index,  # edge_var
                real,  # llr
                ctypes.c_double,  # alpha
                ctypes.c_int64,  # max_iters
                np.ctypeslib.ndpointer(np.uint8, ndim=1, flags="C_CONTIGUOUS"),  # hard
                real,  # c2v scratch
                real,  # total scratch
                ctypes.POINTER(ctypes.c_int64),  # iterations
            ]
            fn.restype = ctypes.c_int
            _decoder = fn
    return _decoder


def min_sum_decode(llr, graph, alpha, max_iters):
    """Normalized min-sum decoding of one codeword, flooding schedule.

    ``graph`` carries the parity checks in CSR form (``check_ptr``,
    ``edge_var``), as the FEC module builds them.  Positive LLRs favour
    bit 0; ties count as bit 1 so an all-zero input cannot masquerade as
    a valid codeword.  Returns ``(hard_bits, ok, iterations)``.
    """
    decode = _load_decoder()
    llr = np.ascontiguousarray(llr, dtype=np.float64)
    check_ptr, edge_var = graph.check_ptr, graph.edge_var
    if llr.ndim != 1 or (edge_var.size and edge_var.max() >= llr.size):
        raise ValueError(f"LLRs shaped {llr.shape} do not cover the graph's variables")
    max_iters = int(max_iters)
    if max_iters < 0:
        raise ValueError("max_iters must be non-negative")
    hard = np.empty(llr.size, dtype=np.uint8)
    iterations = ctypes.c_int64()
    ok = decode(
        llr.size,
        check_ptr.size - 1,
        check_ptr,
        edge_var,
        llr,
        float(alpha),
        max_iters,
        hard,
        np.zeros(edge_var.size),
        np.empty(llr.size),
        ctypes.byref(iterations),
    )
    return hard, bool(ok), iterations.value
