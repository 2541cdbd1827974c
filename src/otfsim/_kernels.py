"""Glue for the package's two C kernels: build, load and call them.

Both are plain C, compiled with the system's ``cc`` on first use into
this package's ``__pycache__`` by one builder, and called through
``ctypes``; there is no Python fallback, and importing the package
compiles and loads nothing.

- ``_minsum.c``, the min-sum LDPC decoder.  It runs on the code's
  quasi-cyclic block layout, in one of two bodies that the loader picks
  once, from the CPU: on x86-64 glibc with AVX-512F, the lane-major body,
  which keeps each check's state in vector registers; everywhere else
  the block-major body, whose AVX2 clone the dynamic loader picks when
  the CPU has AVX2.  Each thread keeps one workspace, the scratch and the
  C call's addresses for the graph it last decoded, so a call converts
  and allocates next to nothing.  The tests check the decoder against a
  scalar loop and against the numpy flooding kernel it replaced, bit for
  bit, and every body the CPU runs against the baseline build.
- ``_band.c``, the equalizer's banded Cholesky factor and block solve,
  in LAPACK's lower band storage.  The solve works in place in its
  output and keeps no state, so threads solve at once.  The tests check both against a dense
  oracle, and a band of half-width 0 bit for bit against LAPACK's
  rounding, ``b * (1/l) * (1/l)``.
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
BAND_SOURCE = Path(__file__).with_name("_band.c")
# no -march=native, so every host runs the same arithmetic (the AVX2 clone
# and the AVX-512 body are chosen at load, and round as the baseline does);
# no contraction of multiply-adds, so the C kernels round exactly as numpy
# and LAPACK do
CFLAGS = ("-O3", "-ffp-contract=off", "-fPIC", "-shared")
# after the source: the band factor's sqrt
LIBS = ("-lm",)

_build_lock = threading.Lock()
_decoder = None
_band = None
_workspaces = threading.local()


def _library(source: Path) -> Path:
    """Path of ``source`` compiled to a shared library, built now unless a build exists.

    The file name carries the source's stem and a hash of the source and
    the flags, so an edited kernel gets a fresh build, and the builds of
    other versions are removed once it is in place.  The compiler writes
    a temporary file that is renamed into place, so processes that build
    at once each leave a complete library.
    """
    tag = hashlib.sha256(source.read_bytes() + " ".join(CFLAGS + LIBS).encode())
    path = source.parent / "__pycache__" / f"{source.stem}-{tag.hexdigest()[:16]}.so"
    if path.exists():
        return path
    path.parent.mkdir(exist_ok=True)
    fd, tmp = tempfile.mkstemp(prefix=f"{source.stem}-", suffix=".so.tmp", dir=path.parent)
    os.close(fd)
    try:
        try:
            build = subprocess.run(
                ["cc", *CFLAGS, "-o", tmp, str(source), *LIBS], capture_output=True, text=True
            )
        except FileNotFoundError as exc:
            raise RuntimeError(f"building {source.name} needs a C compiler on PATH as cc") from exc
        if build.returncode:
            raise RuntimeError(f"building {source.name} failed:\n{build.stderr}")
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    for stale in path.parent.glob(f"{source.stem}-*.so"):
        if stale != path:
            stale.unlink(missing_ok=True)  # a concurrent build may remove it first
    return path


def minsum_library() -> Path:
    """Path of the compiled decoder, built now unless a build exists."""
    return _library(MINSUM_SOURCE)


def band_library() -> Path:
    """Path of the compiled band factor and solve, built now unless a build exists."""
    return _library(BAND_SOURCE)


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


def _load_band():
    """The band kernels, built and loaded on the first call."""
    global _band
    with _build_lock:
        if _band is None:
            lib = ctypes.CDLL(str(band_library()))
            word, addr = ctypes.c_int64, ctypes.c_void_p
            lib.otfsim_band_cholesky.argtypes = [word, word, addr]
            lib.otfsim_band_cholesky.restype = word
            lib.otfsim_band_solve.argtypes = [word, word, addr, addr, word, addr, addr]
            lib.otfsim_band_solve.restype = ctypes.c_int
            _band = lib
    return _band


def band_cholesky(ab: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor of a Hermitian band in LAPACK's lower band storage.

    Row ``r``, column ``j`` of ``ab`` holds ``K[j + r, j]``; the factor
    ``L`` (``K = L L^H``) comes back in the same storage, with its real
    pivots in row 0, and ``ab`` is left as it is.  Raises
    ``numpy.linalg.LinAlgError`` when ``K`` is not positive definite.
    """
    lib = _band if _band is not None else _load_band()
    lower = np.array(ab, dtype=complex, order="C")
    if lower.ndim != 2 or lower.shape[0] < 1:
        raise ValueError(f"expected band rows of samples, got shape {lower.shape}")
    column = lib.otfsim_band_cholesky(lower.shape[1], lower.shape[0] - 1, lower.ctypes.data)
    if column:
        raise np.linalg.LinAlgError(f"the band is not positive definite at column {column - 1}")
    return lower


def band_solve(lower: np.ndarray, order: np.ndarray, b: np.ndarray) -> np.ndarray:
    """K^{-1} b for one row or a ``(rows, n)`` batch, with K[order, order] = L L^H.

    ``lower`` is the factor :func:`band_cholesky` returns and ``order``
    the permutation that gives the band's samples in terms of ``b``'s.
    """
    lib = _band if _band is not None else _load_band()
    lower = np.ascontiguousarray(lower, dtype=complex)
    order = np.ascontiguousarray(order, dtype=np.int64)
    b = np.ascontiguousarray(b, dtype=complex)
    n = order.size
    if lower.ndim != 2 or lower.shape[0] < 1 or lower.shape[1] != n:
        raise ValueError(f"a band of shape {lower.shape} does not match {n} samples")
    if b.ndim not in (1, 2) or b.shape[-1] != n:
        raise ValueError(f"expected {n} samples per row, got shape {b.shape}")
    x = np.empty_like(b)
    rows = b.size // n if n else 0
    status = lib.otfsim_band_solve(
        n, lower.shape[0] - 1, lower.ctypes.data, order.ctypes.data, rows, b.ctypes.data,
        x.ctypes.data,
    )
    if status:
        raise ValueError("order must index the row's samples")
    return x
