"""Quasi-cyclic LDPC coding: lifting, systematic encoding, min-sum decoding.

The code is defined by a base matrix of circulant shifts (-1 marks an
all-zero block) lifted by Z.  The bundled definition is the published
IEEE 802.11n rate-2/3, n=1944, Z=81 matrix; its parity part is one
arbitrary-shift column followed by a zero-shift dual diagonal, which the
encoder exploits (Richardson & Urbanke, "Efficient encoding of LDPC
codes", IEEE Trans. IT 2001): the first parity block falls out of the XOR
of all block-row syndromes, the rest by forward substitution.  Each step
runs on every codeword of a call at once.

LLR convention throughout: positive favours bit 0.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass
from importlib import resources

import numpy as np

from . import _kernels


@dataclass(frozen=True)
class LdpcGraph:
    """The parity checks on their quasi-cyclic block layout.

    Every non-negative entry of the base matrix is one circulant block,
    listed row-major with columns ascending.  Lane ``i`` of block ``b`` in
    base row ``r`` joins check ``r * lifting + i`` to variable
    ``block_col[b] * lifting + (i + block_shift[b]) % lifting``.
    """

    lifting: int
    n_vars: int  # lifting times the base columns
    row_ptr: np.ndarray  # int64 (base rows + 1,): row r owns blocks ptr[r]..ptr[r+1]-1
    block_col: np.ndarray  # int64 (blocks,): the base column of each block
    block_shift: np.ndarray  # int64 (blocks,): the circulant shift of each block


class LdpcCode:
    """One lifted quasi-cyclic code with its decoding graph."""

    def __init__(self, base_matrix, lifting: int, name: str = "", reference: str = ""):
        hb = np.asarray(base_matrix, dtype=np.int64)
        if hb.ndim != 2 or hb.shape[0] >= hb.shape[1]:
            raise ValueError("base matrix must be a wide 2-D shift table")
        if lifting < 1 or hb.max() >= lifting:
            raise ValueError("shifts must lie below the lifting size")
        if hb.min() < -1:
            raise ValueError("shifts must be -1 (no block) or non-negative")
        self.base_matrix = hb
        self.lifting = int(lifting)
        self.name = name
        self.reference = reference
        self._graph: LdpcGraph | None = None
        self._encoder: tuple[np.ndarray, np.ndarray] | None = None
        self._check_encodable()

    @property
    def codeword_len(self) -> int:
        return self.base_matrix.shape[1] * self.lifting

    @property
    def message_len(self) -> int:
        return (self.base_matrix.shape[1] - self.base_matrix.shape[0]) * self.lifting

    @property
    def rate(self) -> float:
        return self.message_len / self.codeword_len

    def _check_encodable(self) -> None:
        """Verify the parity-part structure the fast encoder relies on."""
        hb = self.base_matrix
        rows = hb.shape[0]
        kb = hb.shape[1] - rows
        anchor = hb[:, kb]
        hit = np.flatnonzero(anchor >= 0)
        ok = (
            hit.size == 3
            and hit[0] == 0
            and hit[-1] == rows - 1
            and anchor[hit[1]] == 0
            and anchor[hit[0]] == anchor[hit[-1]]
        )
        for c in range(1, rows):
            col = hb[:, kb + c]
            on = np.flatnonzero(col >= 0)
            ok = ok and on.tolist() == [c - 1, c] and not col[on].any()
        if not ok:
            raise ValueError("parity part is not in anchored dual-diagonal form")

    @property
    def graph(self) -> LdpcGraph:
        if self._graph is None:
            self._graph = self._build_graph()
        return self._graph

    def _lift(self, hb: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Lifted adjacency of a block of base rows, padded per row.

        Entry ``[i, e, d]`` is the variable that lifted check ``i*z + e``
        reaches through the ``d``-th non-negative shift of base row ``i``
        (columns in ascending order): ``j*z + (e + shift) % z``.  The
        mask marks the real slots.
        """
        z = self.lifting
        degree = int((hb >= 0).sum(axis=1).max())
        cols = np.argsort(hb < 0, axis=1, kind="stable")[:, :degree]
        shifts = np.take_along_axis(hb, cols, axis=1)[:, None, :]
        idx = cols[:, None, :] * z + (np.arange(z)[None, :, None] + shifts) % z
        return idx, np.broadcast_to(shifts >= 0, idx.shape)

    def _build_graph(self) -> LdpcGraph:
        on = self.base_matrix >= 0
        rows, cols = np.nonzero(on)  # row-major, columns ascending
        return LdpcGraph(
            self.lifting,
            self.codeword_len,
            np.concatenate([[0], np.cumsum(on.sum(axis=1))]).astype(np.int64),
            cols.astype(np.int64),
            self.base_matrix[rows, cols].astype(np.int64),
        )

    def _encoder_tables(self) -> tuple[np.ndarray, np.ndarray]:
        """Encoder gather indices (cached), each padded with a zero bit.

        ``info`` (max info degree, rows, z) indexes the flat message with
        one zero bit appended, so padded slots XOR in nothing; the degree
        axis leads so the XOR over it runs on whole rows.  ``anchor``
        (rows - 1, z) indexes the first parity block with one zero bit
        appended, at ``z`` where the anchor column is empty.
        """
        if self._encoder is None:
            hb, z = self.base_matrix, self.lifting
            kb = hb.shape[1] - hb.shape[0]
            idx, mask = self._lift(hb[:, :kb])
            shift = hb[:-1, kb, None]
            self._encoder = (
                np.where(mask, idx, kb * z).transpose(2, 0, 1).copy(),
                np.where(shift >= 0, (np.arange(z) + shift) % z, z),
            )
        return self._encoder

    def encode(self, msg_bits: np.ndarray) -> np.ndarray:
        """Systematic codewords, one row per message_len chunk.

        A single-message input comes back as a flat codeword, matching
        :meth:`decode`'s single-codeword convention.
        """
        msg_bits = np.asarray(msg_bits, dtype=np.uint8).ravel()
        single = msg_bits.size == self.message_len
        if msg_bits.size == 0 or msg_bits.size % self.message_len:
            raise ValueError(
                f"message length {msg_bits.size} is not a multiple of {self.message_len}"
            )
        info, anchor = self._encoder_tables()
        msgs = msg_bits.reshape(-1, self.message_len)
        zero = np.zeros((msgs.shape[0], 1), dtype=np.uint8)
        # row syndromes of the message: t[w, i] = XOR_j roll(s[w, j], -hb[i, j])
        t = np.bitwise_xor.reduce(np.take(np.hstack([msgs, zero]), info, axis=1), axis=1)
        p0 = np.bitwise_xor.reduce(t, axis=1)
        # forward substitution down the dual diagonal: p[1] = t[0] ^ a[0] and
        # p[i + 1] = p[i] ^ t[i] ^ a[i], where a[i] = roll(p0, -hb[i, kb]) or 0
        a = np.take(np.hstack([p0, zero]), anchor, axis=1)
        rest = np.bitwise_xor.accumulate(t[:, :-1] ^ a, axis=1)
        out = np.hstack([msgs, p0, rest.reshape(msgs.shape[0], -1)])
        return out[0] if single else out

    def decode(
        self,
        llrs: np.ndarray,
        scale: float = 0.75,
        max_iters: int = 50,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Normalized min-sum decode of codeword-per-row LLRs.

        Returns ``(bits, ok)``: hard decisions shaped like the input and
        one all-checks-satisfied flag per codeword.  Decoding stops early
        once the checks pass; an input whose hard decisions already form
        a codeword comes back unchanged.  Only ``(n,)`` and ``(W, n)``
        inputs with ``n == codeword_len`` are accepted, as :meth:`encode`
        returns them.
        """
        llrs = np.asarray(llrs, dtype=float)
        if llrs.ndim not in (1, 2) or llrs.shape[-1] != self.codeword_len:
            raise ValueError(
                f"LLRs shaped {llrs.shape} are neither ({self.codeword_len},) "
                f"nor (W, {self.codeword_len})"
            )
        rows = llrs.reshape(-1, self.codeword_len)
        bits = np.empty(rows.shape, dtype=np.uint8)
        ok = np.empty(rows.shape[0], dtype=bool)
        for w, row in enumerate(rows):
            bits[w], ok[w], _ = _kernels.min_sum_decode(row, self.graph, scale, max_iters)
        return (bits[0], ok[0]) if llrs.ndim == 1 else (bits, ok)


def load_code(source: str = "ldpc_n1944_r23") -> LdpcCode:
    """Load a code definition by bundled name or JSON path.

    A bundled code is built once per process and shared, so its decoding
    graph and encoder tables are built once too; a path is read afresh.
    """
    if resources.files("otfsim.data").joinpath(f"{source}.json").is_file():
        return _bundled_code(source)
    with open(source) as fh:
        return _parse_code(fh.read())


@functools.lru_cache(maxsize=None)
def _bundled_code(name: str) -> LdpcCode:
    return _parse_code(resources.files("otfsim.data").joinpath(f"{name}.json").read_text())


def _parse_code(text: str) -> LdpcCode:
    raw = json.loads(text)
    return LdpcCode(
        raw["base_matrix"],
        raw["lifting"],
        name=raw.get("name", ""),
        reference=raw.get("reference", ""),
    )


def default_code() -> LdpcCode:
    """The bundled rate-2/3, n=1944 code, shared like every bundled code."""
    return load_code()
