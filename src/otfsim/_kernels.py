"""The min-sum LDPC decoder's glue: build, load and call the C kernel.

The decoder is plain C (``_minsum.c``), compiled with the system's
``cc`` on the first decode into this package's ``__pycache__`` and
called through ``ctypes``; there is no Python fallback.  It runs on the
code's quasi-cyclic block layout, and on x86-64 glibc the loader picks
its AVX2 clone when the CPU has AVX2.  The tests check it against a
scalar loop and against the numpy flooding kernel it replaced, bit for
bit, and the AVX2 clone against the baseline build.
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
# no -march=native, so every host runs the same arithmetic (the AVX2 clone
# is chosen at load, and rounds as the baseline does); no contraction of
# multiply-adds, so the C kernel rounds exactly as numpy does
MINSUM_CFLAGS = ("-O3", "-ffp-contract=off", "-fPIC", "-shared")

_build_lock = threading.Lock()
_decoder = None


def minsum_library() -> Path:
    """Path of the compiled decoder, built now unless a build exists.

    The file name carries a hash of the source and the flags, so an
    edited kernel gets a fresh build, and the builds of other versions
    are removed once it is in place.  The compiler writes a temporary
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
    for stale in path.parent.glob("_minsum-*.so"):
        if stale != path:
            stale.unlink(missing_ok=True)  # a concurrent build may remove it first
    return path


def _load_decoder():
    """The decoder's C entry point, built and loaded on the first call."""
    global _decoder
    with _build_lock:
        if _decoder is None:
            fn = ctypes.CDLL(str(minsum_library())).otfsim_min_sum_decode
            index = np.ctypeslib.ndpointer(np.int64, ndim=1, flags="C_CONTIGUOUS")
            real = np.ctypeslib.ndpointer(np.float64, ndim=1, flags="C_CONTIGUOUS")
            byte = np.ctypeslib.ndpointer(np.uint8, ndim=1, flags="C_CONTIGUOUS")
            fn.argtypes = [
                ctypes.c_int64,  # n_vars
                ctypes.c_int64,  # lifting
                ctypes.c_int64,  # base rows
                index,  # row_ptr
                index,  # block_col
                index,  # block_shift
                real,  # llr
                ctypes.c_double,  # alpha
                ctypes.c_int64,  # max_iters
                byte,  # hard
                real,  # c2v scratch
                real,  # totals scratch
                real,  # lane state scratch
                byte,  # parity scratch
                ctypes.POINTER(ctypes.c_int64),  # iterations
            ]
            fn.restype = ctypes.c_int
            _decoder = fn
    return _decoder


def min_sum_decode(llr, graph, alpha, max_iters):
    """Normalized min-sum decoding of one codeword, flooding schedule.

    ``graph`` carries the parity checks on their quasi-cyclic block
    layout (:class:`otfsim.fec.LdpcGraph`).  Positive LLRs favour bit 0;
    ties count as bit 1 so an all-zero input cannot masquerade as a valid
    codeword.  Returns ``(hard_bits, ok, iterations)``.
    """
    decode = _load_decoder()
    llr = np.ascontiguousarray(llr, dtype=np.float64)
    if llr.shape != (graph.n_vars,):
        raise ValueError(f"LLRs shaped {llr.shape} do not match the graph's {graph.n_vars} bits")
    max_iters = int(max_iters)
    if max_iters < 0:
        raise ValueError("max_iters must be non-negative")
    z = graph.lifting
    hard = np.empty(llr.size, dtype=np.uint8)
    iterations = ctypes.c_int64()
    ok = decode(
        llr.size,
        z,
        graph.row_ptr.size - 1,
        graph.row_ptr,
        graph.block_col,
        graph.block_shift,
        llr,
        float(alpha),
        max_iters,
        hard,
        np.zeros(graph.block_col.size * z),
        np.empty(2 * llr.size),
        np.empty(8 * z),
        np.empty(z, dtype=np.uint8),
        ctypes.byref(iterations),
    )
    return hard, bool(ok), iterations.value
