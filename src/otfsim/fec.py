"""Quasi-cyclic LDPC coding: lifting, systematic encoding, min-sum decoding.

The code is defined by a base matrix of circulant shifts (-1 marks an
all-zero block) lifted by Z.  The bundled definition is the published
IEEE 802.11n rate-2/3, n=1944, Z=81 matrix; its parity part is one
arbitrary-shift column followed by a zero-shift dual diagonal, which the
encoder exploits: the first parity block falls out of the XOR of all
block-row syndromes, the rest by forward substitution.

LLR convention throughout: positive favours bit 0.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources

import numpy as np

from . import _kernels


@dataclass(frozen=True)
class LdpcGraph:
    """Parity-check adjacency, one padded row of variables per check."""

    chk_vars: np.ndarray  # (n_checks, max_degree) padded variable indices
    chk_mask: np.ndarray  # validity of each padded slot

    @property
    def n_checks(self) -> int:
        return self.chk_vars.shape[0]

    def syndrome_ok(self, bits: np.ndarray) -> bool:
        """True when every check XORs to zero over the given hard bits."""
        edge_bits = np.asarray(bits, dtype=np.uint8)[self.chk_vars]
        per_check = np.bitwise_xor.reduce(np.where(self.chk_mask, edge_bits, 0), axis=1)
        return not per_check.any()


class LdpcCode:
    """One lifted quasi-cyclic code with its decoding graph."""

    def __init__(self, base_matrix, lifting: int, name: str = "", reference: str = ""):
        hb = np.asarray(base_matrix, dtype=np.int64)
        if hb.ndim != 2 or hb.shape[0] >= hb.shape[1]:
            raise ValueError("base matrix must be a wide 2-D shift table")
        if lifting < 1 or hb.max() >= lifting:
            raise ValueError("shifts must lie below the lifting size")
        self.base_matrix = hb
        self.lifting = int(lifting)
        self.name = name
        self.reference = reference
        self._graph: LdpcGraph | None = None
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

    def _build_graph(self) -> LdpcGraph:
        hb, z = self.base_matrix, self.lifting
        rows = hb.shape[0]
        offsets = np.arange(z)
        max_deg = int((hb >= 0).sum(axis=1).max())
        chk_vars = np.zeros((rows * z, max_deg), dtype=np.int64)
        chk_mask = np.zeros((rows * z, max_deg), dtype=bool)
        for i in range(rows):
            cols = np.flatnonzero(hb[i] >= 0)
            shifts = hb[i, cols]
            # lifted check i*z + e touches variable j*z + (e + shift) % z
            block = slice(i * z, (i + 1) * z)
            chk_vars[block, : cols.size] = (
                cols[None, :] * z + (offsets[:, None] + shifts[None, :]) % z
            )
            chk_mask[block, : cols.size] = True
        return LdpcGraph(chk_vars, chk_mask)

    def encode(self, msg_bits: np.ndarray) -> np.ndarray:
        """Systematic codewords, one row per message_len chunk.

        A single-message input comes back as a flat codeword, matching
        :meth:`decode`'s single-column convention.
        """
        msg_bits = np.asarray(msg_bits, dtype=np.uint8).ravel()
        single = msg_bits.size == self.message_len
        if msg_bits.size == 0 or msg_bits.size % self.message_len:
            raise ValueError(
                f"message length {msg_bits.size} is not a multiple of {self.message_len}"
            )
        hb, z = self.base_matrix, self.lifting
        rows = hb.shape[0]
        kb = hb.shape[1] - rows
        msgs = msg_bits.reshape(-1, kb, z)
        out = np.empty((msgs.shape[0], self.codeword_len), dtype=np.uint8)
        for w, s in enumerate(msgs):
            t = np.zeros((rows, z), dtype=np.uint8)
            for i in range(rows):
                for j in np.flatnonzero(hb[i, :kb] >= 0):
                    t[i] ^= np.roll(s[j], -hb[i, j])
            p = np.zeros((rows, z), dtype=np.uint8)
            p[0] = np.bitwise_xor.reduce(t, axis=0)
            for i in range(rows - 1):
                p[i + 1] = t[i] ^ (p[i] if i else 0)
                if hb[i, kb] >= 0:
                    p[i + 1] ^= np.roll(p[0], -hb[i, kb])
            out[w] = np.concatenate([s.ravel(), p.ravel()])
        return out[0] if single else out

    def decode(
        self,
        llrs: np.ndarray,
        scale: float = 0.75,
        max_iters: int = 50,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Normalized min-sum decode of codeword-per-column LLRs.

        Returns ``(bits, ok)``: hard decisions shaped like the input and
        one all-checks-satisfied flag per codeword.  Decoding stops early
        once the checks pass; an input whose hard decisions already form
        a codeword comes back unchanged.
        """
        llrs = np.asarray(llrs, dtype=float)
        single = llrs.ndim == 1
        cols = llrs.reshape(self.codeword_len, -1)
        bits = np.empty_like(cols, dtype=np.uint8)
        ok = np.empty(cols.shape[1], dtype=bool)
        for w in range(cols.shape[1]):
            hard, good, _ = _kernels.min_sum_decode(cols[:, w], self.graph, scale, max_iters)
            bits[:, w] = hard
            ok[w] = good
        return (bits[:, 0], ok[0]) if single else (bits, ok)


def reshape_llrs(flat: np.ndarray, codeword_len: int) -> np.ndarray:
    """Column-major reshape of a flat LLR stream to codeword columns."""
    flat = np.asarray(flat, dtype=float).ravel()
    if flat.size == 0 or flat.size % codeword_len:
        raise ValueError(
            f"stream length {flat.size} is not a multiple of {codeword_len}"
        )
    return flat.reshape(codeword_len, -1, order="F")


def load_code(source: str = "ldpc_n1944_r23") -> LdpcCode:
    """Load a code definition by bundled name or JSON path."""
    try:
        text = resources.files("otfsim.data").joinpath(f"{source}.json").read_text()
    except FileNotFoundError:
        with open(source) as fh:
            text = fh.read()
    raw = json.loads(text)
    return LdpcCode(
        raw["base_matrix"],
        raw["lifting"],
        name=raw.get("name", ""),
        reference=raw.get("reference", ""),
    )


_DEFAULT: LdpcCode | None = None


def default_code() -> LdpcCode:
    """The bundled rate-2/3, n=1944 code (cached)."""
    global _DEFAULT
    if _DEFAULT is None:
        _DEFAULT = load_code()
    return _DEFAULT
