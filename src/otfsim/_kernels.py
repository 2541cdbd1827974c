"""The min-sum LDPC decoder's glue: build, load and call the C kernel.

The decoder is plain C (``_minsum.c``), compiled with the system's
``cc`` on the first decode into this package's ``__pycache__`` and
called through ``ctypes``; there is no Python fallback.  It runs on the
code's quasi-cyclic block layout, in one of two bodies that the loader
picks once, from the CPU: on x86-64 glibc with AVX-512F, the lane-major
body, which keeps each check's state in vector registers; everywhere
else the block-major body, whose AVX2 clone the dynamic loader picks
when the CPU has AVX2.  Each thread keeps one workspace, the scratch and
the C call's addresses for the graph it last decoded, so a call converts
and allocates next to nothing.  The tests check the decoder against a
scalar loop and against the numpy flooding kernel it replaced, bit for
bit, and every body the CPU runs against the baseline build.
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
# and the AVX-512 body are chosen at load, and round as the baseline does);
# no contraction of multiply-adds, so the C kernel rounds exactly as numpy does
MINSUM_CFLAGS = ("-O3", "-ffp-contract=off", "-fPIC", "-shared")

_build_lock = threading.Lock()
_decoder = None
_workspaces = threading.local()


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


def _declare(body):
    """A decoder body of the built library, with the arguments both take."""
    word, real, addr = ctypes.c_int64, ctypes.c_double, ctypes.c_void_p
    body.argtypes = [
        word,  # n_vars
        word,  # lifting
        word,  # base rows
        addr,  # row_ptr
        addr,  # block_col
        addr,  # block_shift
        addr,  # llr
        real,  # alpha
        word,  # max_iters
        addr,  # hard decisions
        addr,  # work scratch
        addr,  # parity scratch
        addr,  # iterations
    ]
    body.restype = ctypes.c_int
    return body


def _load_decoder():
    """The decoder body this CPU runs fastest, built and loaded on the first call.

    Where the library has the lane-major body (x86-64 glibc) and the CPU
    has AVX-512F, that body; otherwise the block-major one, whose AVX2
    clone the dynamic loader picks when the CPU has AVX2.
    """
    global _decoder
    with _build_lock:
        if _decoder is None:
            lib = ctypes.CDLL(str(minsum_library()))
            body = lib.otfsim_min_sum_decode
            if hasattr(lib, "otfsim_cpu_has_avx512f"):
                has_avx512f = lib.otfsim_cpu_has_avx512f
                has_avx512f.argtypes, has_avx512f.restype = [], ctypes.c_int
                if has_avx512f():
                    body = lib.otfsim_min_sum_decode_lanes
            _decoder = _declare(body)
    return _decoder


class _Workspace:
    """One thread's buffers for one graph, and the addresses the C call takes.

    It holds the graph and its index arrays, so the addresses stay valid
    and the buffers, sized for this graph, serve no other.
    """

    def __init__(self, graph):
        self.graph = graph
        z, n_vars = graph.lifting, graph.n_vars
        index = [
            np.ascontiguousarray(a, dtype=np.int64)
            for a in (graph.row_ptr, graph.block_col, graph.block_shift)
        ]
        self.llr = np.empty(n_vars)
        self.hard = np.empty(n_vars, dtype=np.uint8)
        # the bodies' shared scratch, as _minsum.c sizes it
        work = np.empty(2 * (z * (graph.block_col.size + 4) + n_vars + 4))
        parity = np.empty(z, dtype=np.uint8)
        self.iterations = ctypes.c_int64()
        self._buffers = (index, work, parity)
        # the arguments before and after alpha and max_iters
        self.head = (
            n_vars, z, graph.row_ptr.size - 1, *(a.ctypes.data for a in index),
            self.llr.ctypes.data,
        )
        self.tail = (
            self.hard.ctypes.data, work.ctypes.data, parity.ctypes.data,
            ctypes.byref(self.iterations),
        )


def _workspace(graph) -> _Workspace:
    """This thread's workspace for ``graph``; a new graph gets a new one."""
    ws = getattr(_workspaces, "current", None)
    if ws is None or ws.graph is not graph:
        ws = _workspaces.current = _Workspace(graph)
    return ws


def min_sum_decode(llr, graph, alpha, max_iters):
    """Normalized min-sum decoding of one codeword, flooding schedule.

    ``graph`` carries the parity checks on their quasi-cyclic block
    layout (:class:`otfsim.fec.LdpcGraph`).  Positive LLRs favour bit 0;
    ties count as bit 1 so an all-zero input cannot masquerade as a valid
    codeword.  Returns ``(hard_bits, ok, iterations)``.
    """
    decode = _decoder if _decoder is not None else _load_decoder()
    if np.shape(llr) != (graph.n_vars,):
        raise ValueError(
            f"LLRs shaped {np.shape(llr)} do not match the graph's {graph.n_vars} bits"
        )
    max_iters = int(max_iters)
    if max_iters < 0:
        raise ValueError("max_iters must be non-negative")
    ws = _workspace(graph)
    np.copyto(ws.llr, llr)
    ok = decode(*ws.head, float(alpha), max_iters, *ws.tail)
    return ws.hard.copy(), bool(ok), ws.iterations.value
