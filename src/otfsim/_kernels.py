"""Hot numeric kernels: the causal stream channel and the min-sum decoder.

Each operation has one vectorized numpy implementation.  The tests
check the stream kernel and the decoder against scalar loops.  The
body-length channel operator is the sparse matrix that
:class:`~otfsim.channel.ChannelRealization` builds.
"""

from __future__ import annotations

import numpy as np

# No compiled kernels; perfbench/run.py still reads and reports this flag.
USING_NUMBA = False


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


def min_sum_decode(llr, graph, alpha, max_iters):
    """Normalized min-sum decoding of one codeword, flooding schedule.

    ``graph`` is the padded parity-check adjacency prepared by the FEC
    module (``chk_vars``/``chk_mask``).  Positive LLRs favour bit 0;
    ties count as bit 1 so an all-zero input cannot masquerade as a
    valid codeword.  Returns ``(hard_bits, ok, iterations)``.
    """
    llr = np.ascontiguousarray(llr, dtype=np.float64)
    alpha = float(alpha)
    max_iters = int(max_iters)
    chk_vars, chk_mask = graph.chk_vars, graph.chk_mask
    n_vars = llr.size
    c2v = np.zeros(chk_vars.shape)
    total = llr.copy()

    def hard_and_ok(total):
        hard = (total <= 0.0).astype(np.uint8)
        return hard, graph.syndrome_ok(hard)

    hard, ok = hard_and_ok(total)
    if ok:
        return hard, True, 0

    for it in range(max_iters):
        v2c = total[chk_vars] - c2v
        signs = np.where(v2c < 0.0, -1.0, 1.0)
        mags = np.where(chk_mask, np.abs(v2c), np.inf)
        sign_prod = np.prod(np.where(chk_mask, signs, 1.0), axis=1)
        order = np.argmin(mags, axis=1)
        rows = np.arange(mags.shape[0])
        min1 = mags[rows, order]
        mags2 = mags.copy()
        mags2[rows, order] = np.inf
        min2 = np.min(mags2, axis=1)
        ext = np.where(
            np.arange(mags.shape[1])[None, :] == order[:, None],
            min2[:, None],
            min1[:, None],
        )
        new = alpha * sign_prod[:, None] * signs * ext
        new = np.where(chk_mask, new, 0.0)
        total = llr + np.zeros(n_vars)
        np.add.at(total, chk_vars[chk_mask], new[chk_mask])
        c2v = new
        hard, ok = hard_and_ok(total)
        if ok:
            return hard, True, it + 1
    return hard, False, max_iters
