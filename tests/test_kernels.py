import ctypes
import shutil
import subprocess
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_fec import SMALL_CODE

from otfsim import _kernels as kernels
from otfsim.channel import (
    ChannelRealization,
    PathTap,
    apply_channel_operator,
    apply_channel_operator_adjoint,
    build_channel_matrix,
)
from otfsim.fec import default_code

# the same draws on every run: a fixed seed and no replay of saved examples
PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)


def random_channel(rng, n_taps, m, n, max_delay=4):
    gains = (rng.standard_normal(n_taps) + 1j * rng.standard_normal(n_taps)) / 2
    delays = rng.integers(0, max_delay, n_taps)
    dopplers = rng.integers(-3, 4, n_taps)
    taps = tuple(PathTap(g, int(l), int(k)) for g, l, k in zip(gains, delays, dopplers))
    return ChannelRealization(taps, m, n)


@st.composite
def channels(draw, delay_span=1):
    """Random tap sets whose delays may reach ``delay_span`` frame bodies
    (so they wrap) and whose Doppler bins may be negative."""
    m = draw(st.integers(1, 16))
    n = draw(st.integers(1, 8))
    size = m * n
    parts = st.floats(-2.0, 2.0, allow_nan=False, allow_infinity=False)
    taps = draw(
        st.lists(
            st.builds(
                PathTap,
                st.builds(complex, parts, parts),
                st.integers(0, delay_span * size - 1),
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
    np.testing.assert_allclose(apply_channel_operator(ch, v), h @ v, atol=1e-11)
    np.testing.assert_allclose(
        apply_channel_operator_adjoint(ch, v), h.conj().T @ v, atol=1e-11
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
@given(channels(delay_span=3), st.data())
def test_ltv_stream_matches_scalar_loop(ch, data):
    # the stream is a prefix plus the body, placed at time -cp as the
    # channel does, so the prefix region and a non-zero t0 are covered;
    # delays reach past the stream's end, where a tap adds nothing
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
    ch = random_channel(rng, 5, 16, 16, max_delay)
    hv = apply_channel_operator(ch, v)
    hw = apply_channel_operator_adjoint(ch, w_vec)
    assert np.vdot(w_vec, hv) == pytest.approx(np.vdot(hw, v), abs=1e-9)


def test_ltv_stream_zero_history():
    # samples before the stream start are zero, so a pure delay shifts
    # and zero-fills rather than wrapping
    s = np.arange(1.0, 9.0).astype(complex)
    out = kernels.ltv_stream(s, np.array([1.0 + 0j]), np.array([2]), np.array([0.0]), 0.0)
    np.testing.assert_array_equal(out[:2], 0.0)
    np.testing.assert_array_equal(out[2:], s[:-2])
    # the body-length operator on the same input wraps cyclically instead
    wrapped = apply_channel_operator(ChannelRealization((PathTap(1.0, 2, 0),), 8, 1), s)
    np.testing.assert_array_equal(wrapped, np.roll(s, 2))


def _min_sum_numpy(llr, graph, alpha, max_iters):
    """Numpy oracle for :func:`otfsim._kernels.min_sum_decode`.

    The flooding kernel the package ran before the C decoder, vectorized
    over the padded parity-check adjacency (``chk_vars``/``chk_mask``).
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


def test_graph_csr_lists_the_padded_edges():
    for code in (default_code(), SMALL_CODE):
        graph = code.graph
        assert graph.check_ptr.dtype == graph.edge_var.dtype == np.int64
        np.testing.assert_array_equal(
            graph.check_ptr, np.concatenate([[0], np.cumsum(graph.chk_mask.sum(axis=1))])
        )
        np.testing.assert_array_equal(graph.edge_var, graph.chk_vars[graph.chk_mask])


def noisy_llrs(code, sigma, seed, kind):
    """Channel LLRs of a random codeword, then reshaped to stress the
    decoder's arithmetic: exact ties, signed zeros, or huge magnitudes."""
    rng = np.random.default_rng(seed)
    cw = code.encode(rng.integers(0, 2, code.message_len))
    llr = 2.0 * (1.0 - 2.0 * cw + sigma * rng.standard_normal(cw.size)) / sigma**2
    if kind == "rounded":  # many equal magnitudes, +0.0 and -0.0
        return np.round(llr)
    if kind == "zeros":
        return np.zeros(cw.size)
    if kind == "signed_zeros":
        return np.where(rng.random(cw.size) < 0.3, -0.0, np.round(llr))
    if kind == "huge":
        return llr * (1e300 / np.abs(llr).max())
    if kind == "overflow":  # the totals overflow to inf, then messages turn NaN
        return llr * (1.7e308 / np.abs(llr).max())
    if kind == "mixed_huge":
        return np.where(rng.random(cw.size) < 0.1, np.copysign(1e300, llr), llr)
    return llr


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    st.sampled_from([default_code(), SMALL_CODE]),
    st.sampled_from([0.4, 0.7, 0.9, 1.2]),
    st.integers(0, 2**32 - 1),
    st.sampled_from(
        ["noisy", "rounded", "zeros", "signed_zeros", "huge", "mixed_huge", "overflow"]
    ),
    st.sampled_from([0, 1, 5, 50]),
)
def test_min_sum_matches_numpy_kernel(code, sigma, seed, kind, max_iters):
    llr = noisy_llrs(code, sigma, seed, kind)
    bits, ok, iters = kernels.min_sum_decode(llr, code.graph, 0.75, max_iters)
    with np.errstate(invalid="ignore", over="ignore"):
        want_bits, want_ok, want_iters = _min_sum_numpy(llr, code.graph, 0.75, max_iters)
    assert bits.dtype == np.uint8
    np.testing.assert_array_equal(bits, want_bits)
    assert (ok, iters) == (want_ok, want_iters)
    assert type(ok) is bool and type(iters) is int


def test_min_sum_rejects_bad_input():
    code = default_code()
    with pytest.raises(ValueError):
        kernels.min_sum_decode(np.zeros(code.codeword_len - 1), code.graph, 0.75, 5)
    with pytest.raises(ValueError):
        kernels.min_sum_decode(np.zeros((code.codeword_len, 2)), code.graph, 0.75, 5)
    with pytest.raises(ValueError):
        kernels.min_sum_decode(np.zeros(code.codeword_len), code.graph, 0.75, -1)


def noisy_batch(code, width, seed):
    # alternate a noise level the code corrects with one it cannot
    cols = [noisy_llrs(code, (0.6, 1.0)[w % 2], seed + w, "noisy") for w in range(width)]
    return np.stack(cols, axis=1)


def test_batch_decode_equals_single_columns():
    code = default_code()
    llrs = noisy_batch(code, 6, 40)
    bits, ok = code.decode(llrs)
    for w in range(llrs.shape[1]):
        one_bits, one_ok = code.decode(llrs[:, w])
        np.testing.assert_array_equal(bits[:, w], one_bits)
        assert ok[w] == one_ok
    assert ok.any() and not ok.all()  # both outcomes are compared


def test_concurrent_decodes_agree(monkeypatch):
    # the C call releases the interpreter lock, so threads decode at once
    # with their own scratch; with the decoder unloaded they also race to
    # load it
    code = default_code()
    llrs = noisy_batch(code, 8, 60)
    want = code.decode(llrs)
    monkeypatch.setattr(kernels, "_decoder", None)
    workers = 4  # more than the cores of a small host
    start = threading.Barrier(workers, timeout=60)
    results = [None] * workers

    def work(slot):
        start.wait()
        results[slot] = code.decode(llrs)

    threads = [threading.Thread(target=work, args=(i,)) for i in range(workers)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
            assert not t.is_alive()
    finally:
        sys.setswitchinterval(interval)
    for bits, ok in results:
        np.testing.assert_array_equal(bits, want[0])
        np.testing.assert_array_equal(ok, want[1])


def test_minsum_source_compiles_cleanly(tmp_path):
    out = subprocess.run(
        ["cc", "-std=c99", "-Wall", "-Wextra", "-Werror", *kernels.MINSUM_CFLAGS,
         "-o", str(tmp_path / "minsum.so"), str(kernels.MINSUM_SOURCE)],
        capture_output=True,
        text=True,
    )
    assert out.returncode == 0, out.stderr
    assert ctypes.CDLL(str(tmp_path / "minsum.so")).otfsim_min_sum_decode


def test_minsum_build_is_cached(tmp_path, monkeypatch):
    source = tmp_path / "_minsum.c"
    shutil.copy(kernels.MINSUM_SOURCE, source)
    monkeypatch.setattr(kernels, "MINSUM_SOURCE", source)
    lib = kernels.minsum_library()
    assert lib.parent == tmp_path / "__pycache__" and lib.is_file()
    built = lib.stat().st_mtime_ns
    assert kernels.minsum_library() == lib
    assert lib.stat().st_mtime_ns == built  # reused, not rebuilt
    # an edited source gets its own build next to the old one
    source.write_text(source.read_text() + "\n")
    edited = kernels.minsum_library()
    assert edited != lib and edited.is_file()
    assert sorted(p.name for p in lib.parent.iterdir()) == sorted([lib.name, edited.name])


def test_minsum_build_failure_is_reported(tmp_path, monkeypatch):
    source = tmp_path / "_minsum.c"
    source.write_text("this is not C\n")
    monkeypatch.setattr(kernels, "MINSUM_SOURCE", source)
    with pytest.raises(RuntimeError, match="_minsum.c failed"):
        kernels.minsum_library()
    monkeypatch.setenv("PATH", str(tmp_path))
    with pytest.raises(RuntimeError, match="C compiler"):
        kernels.minsum_library()
    assert list((tmp_path / "__pycache__").iterdir()) == []  # no partial library
