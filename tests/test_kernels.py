import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from otfsim import _kernels as kernels
from otfsim.channel import ChannelRealization, PathTap, build_channel_matrix
from otfsim.fec import default_code

# the same draws on every run: a fixed seed and no replay of saved examples
PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)


def random_taps(rng, n_taps, n, max_delay=4):
    gains = (rng.standard_normal(n_taps) + 1j * rng.standard_normal(n_taps)) / 2
    delays = rng.integers(0, max_delay, n_taps)
    rates = 2 * np.pi * rng.integers(-3, 4, n_taps) / n
    return gains, delays, rates


@st.composite
def channels(draw):
    """Random tap sets whose delays may reach the last sample (and wrap)
    and whose Doppler bins may be negative."""
    m = draw(st.integers(1, 16))
    n = draw(st.integers(1, 8))
    size = m * n
    parts = st.floats(-2.0, 2.0, allow_nan=False, allow_infinity=False)
    taps = draw(
        st.lists(
            st.builds(
                PathTap,
                st.builds(complex, parts, parts),
                st.integers(0, size - 1),
                st.integers(-n, n),
            ),
            min_size=1,
            max_size=5,
        )
    )
    return ChannelRealization(tuple(taps), m, n)


def complex_vector(draw, size):
    parts = draw(
        st.lists(st.floats(-1.0, 1.0, allow_nan=False), min_size=2 * size, max_size=2 * size)
    )
    return np.array(parts[:size]) + 1j * np.array(parts[size:])


@PROPERTY
@given(channels(), st.data())
def test_tap_kernels_match_dense_matrix(ch, data):
    v = complex_vector(data.draw, ch.block_len)
    h = build_channel_matrix(ch)
    args = (ch.gains, ch.delay_bins, ch.phase_rates)
    np.testing.assert_allclose(kernels.tap_apply(v, *args), h @ v, atol=1e-11)
    np.testing.assert_allclose(
        kernels.tap_apply_adjoint(v, *args), h.conj().T @ v, atol=1e-11
    )


def ltv_stream_loop(samples, gains, delay_bins, phase_rates, t0):
    """Scalar oracle for :func:`otfsim._kernels.ltv_stream`."""
    out = np.zeros_like(samples)
    n = samples.size
    for p in range(gains.size):
        g = gains[p]
        l = delay_bins[p]
        w = phase_rates[p]
        for v in range(l, n):
            out[v] += g * np.exp(1j * w * (v + t0 - l)) * samples[v - l]
    return out


@PROPERTY
@given(channels(), st.data())
def test_ltv_stream_matches_scalar_loop(ch, data):
    # the stream is a prefix plus the body, placed at time -cp as the
    # channel does, so the prefix region and a non-zero t0 are covered
    cp = data.draw(st.integers(0, ch.block_len - 1))
    stream = complex_vector(data.draw, cp + ch.block_len)
    args = (ch.gains, ch.delay_bins, ch.phase_rates, -float(cp))
    np.testing.assert_allclose(
        kernels.ltv_stream(stream, *args), ltv_stream_loop(stream, *args), atol=1e-11
    )


# the case ids are the names the two cases were tracked under when the
# test was parametrised over the kernel path
@pytest.mark.parametrize(
    "seed, max_delay",
    [(1, 4), (2, 256)],
    ids=["False0", "False1"],
)
def test_tap_apply_adjoint_identity(seed, max_delay):
    # short delays, then delays up to the last sample so the taps wrap
    rng = np.random.default_rng(seed)
    n = 256
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    w_vec = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    g, l, w = random_taps(rng, 5, n, max_delay)
    hv = kernels.tap_apply(v, g, l, w)
    hw = kernels.tap_apply_adjoint(w_vec, g, l, w)
    assert np.vdot(w_vec, hv) == pytest.approx(np.vdot(hw, v), abs=1e-9)


def test_ltv_stream_zero_history():
    # samples before the stream start are zero, so a pure delay shifts
    # and zero-fills rather than wrapping
    s = np.arange(1.0, 9.0).astype(complex)
    out = kernels.ltv_stream(s, np.array([1.0 + 0j]), np.array([2]), np.array([0.0]), 0.0)
    np.testing.assert_array_equal(out[:2], 0.0)
    np.testing.assert_array_equal(out[2:], s[:-2])
    # tap_apply on the same input wraps cyclically instead
    wrapped = kernels.tap_apply(s, np.array([1.0 + 0j]), np.array([2]), np.array([0.0]))
    np.testing.assert_array_equal(wrapped, np.roll(s, 2))


def _min_sum_loop(llr, check_ptr, edge_var, alpha, max_iters):
    """Scalar oracle for :func:`otfsim._kernels.min_sum_decode`.

    The same flooding min-sum, one check and one edge at a time over the
    CSR form of the parity checks.
    """
    n_checks = check_ptr.size - 1
    n_vars = llr.size
    n_edges = edge_var.size
    c2v = np.zeros(n_edges)
    total = llr.copy()
    hard = np.empty(n_vars, dtype=np.uint8)
    for i in range(n_vars):
        hard[i] = 1 if total[i] <= 0.0 else 0

    ok = True
    for c in range(n_checks):
        parity = 0
        for e in range(check_ptr[c], check_ptr[c + 1]):
            parity ^= hard[edge_var[e]]
        if parity:
            ok = False
            break
    if ok:
        return hard, True, 0

    c2v_new = np.zeros(n_edges)
    iters_done = 0
    for it in range(max_iters):
        iters_done = it + 1
        # Flooding schedule: all messages read one snapshot of the totals.
        for c in range(n_checks):
            lo = check_ptr[c]
            hi = check_ptr[c + 1]
            sign_prod = 1.0
            min1 = np.inf
            min2 = np.inf
            min_e = lo
            for e in range(lo, hi):
                v = total[edge_var[e]] - c2v[e]
                s = -1.0 if v < 0.0 else 1.0
                sign_prod *= s
                a = abs(v)
                if a < min1:
                    min2 = min1
                    min1 = a
                    min_e = e
                elif a < min2:
                    min2 = a
            for e in range(lo, hi):
                v = total[edge_var[e]] - c2v[e]
                s = -1.0 if v < 0.0 else 1.0
                mag = min2 if e == min_e else min1
                c2v_new[e] = alpha * sign_prod * s * mag
        for e in range(n_edges):
            c2v[e] = c2v_new[e]
        for i in range(n_vars):
            total[i] = llr[i]
        for e in range(n_edges):
            total[edge_var[e]] += c2v[e]
        for i in range(n_vars):
            hard[i] = 1 if total[i] <= 0.0 else 0
        ok = True
        for c in range(n_checks):
            parity = 0
            for e in range(check_ptr[c], check_ptr[c + 1]):
                parity ^= hard[edge_var[e]]
            if parity:
                ok = False
                break
        if ok:
            return hard, True, iters_done
    return hard, False, iters_done


def test_min_sum_matches_scalar_loop():
    code = default_code()
    graph = code.graph
    check_ptr = np.concatenate([[0], np.cumsum(graph.chk_mask.sum(axis=1))])
    edge_var = graph.chk_vars[graph.chk_mask]
    rng = np.random.default_rng(2)
    for sigma in (0.5, 0.8, 1.1):
        cw = code.encode(rng.integers(0, 2, code.message_len))
        x = 1.0 - 2.0 * cw
        llr = 2.0 * (x + sigma * rng.standard_normal(cw.size)) / sigma**2
        fast = kernels.min_sum_decode(llr, graph, 0.75, 30)
        slow = _min_sum_loop(llr, check_ptr, edge_var, 0.75, 30)
        np.testing.assert_array_equal(fast[0], slow[0])
        assert fast[1:] == slow[1:]


def test_min_sum_ties_decide_bit_one():
    # all-zero input must not pass as the all-zeros codeword
    code = default_code()
    hard, ok, iters = kernels.min_sum_decode(
        np.zeros(code.codeword_len), code.graph, 0.75, 2
    )
    assert hard.min() == 1 and not ok


def test_min_sum_counts_iterations():
    code = default_code()
    rng = np.random.default_rng(3)
    cw = code.encode(rng.integers(0, 2, code.message_len))
    clean = 8.0 * (1.0 - 2.0 * cw)
    _, ok, iters = kernels.min_sum_decode(clean, code.graph, 0.75, 30)
    assert ok and iters == 0  # hard decisions already consistent
    noisy = clean.copy()
    noisy[100] *= -1
    _, ok, iters = kernels.min_sum_decode(noisy, code.graph, 0.75, 30)
    assert ok and 1 <= iters <= 5
