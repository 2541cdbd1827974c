import ctypes
import shutil
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_fec import SMALL_CODE

from otfsim import _kernels as kernels
from otfsim.channel import (
    ChannelRealization,
    PathTap,
    apply_channel,
    apply_channel_operator,
    apply_channel_operator_adjoint,
    build_channel_matrix,
)
from otfsim.fec import LdpcCode, default_code
from otfsim.transforms import add_cp, remove_cp

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
    """Scalar oracle for the stream channel of :func:`otfsim.channel.apply_channel`.

    Tap by tap and sample by sample; ``t0`` is the stream start's time.
    """
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
    want = ltv_stream_loop(stream, ch.gains, ch.delay_bins, ch.phase_rates, -float(cp))
    np.testing.assert_allclose(apply_channel(stream, ch, cp_samples=cp), want, atol=1e-11)


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
    ch = ChannelRealization((PathTap(1.0, 2, 0),), 8, 1)
    out = apply_channel(s, ch)
    np.testing.assert_array_equal(out[:2], 0.0)
    np.testing.assert_array_equal(out[2:], s[:-2])
    # the body-length operator on the same input wraps cyclically instead
    np.testing.assert_array_equal(apply_channel_operator(ch, s), np.roll(s, 2))
    # a delay at or past the stream's end adds nothing
    for delay in (8, 9, 20):
        late = ChannelRealization((PathTap(1.0, 1, 0), PathTap(1.0, delay, 0)), 8, 1)
        np.testing.assert_array_equal(apply_channel(s, late), np.concatenate([[0], s[:-1]]))


def test_stream_body_equals_matrix_for_one_shared_delay():
    # several Dopplers on one delay: after prefix removal the stream
    # channel multiplies each body sample by the same summed diagonal
    # entry that H holds, to the last bit
    rng = np.random.default_rng(7)
    m, n, cp = 16, 8, 5
    gains = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    ch = ChannelRealization(
        tuple(PathTap(g, 3, k) for g, k in zip(gains, (-3, -1, 2, 4))), m, n
    )
    body = rng.standard_normal(m * n) + 1j * rng.standard_normal(m * n)
    rx = remove_cp(apply_channel(add_cp(body, cp), ch, cp_samples=cp), cp)
    (delay,), (diagonal,) = ch.folded_diagonals  # one row: one entry a row of H
    assert delay == 3
    np.testing.assert_array_equal(rx, diagonal * np.roll(body, 3))
    np.testing.assert_array_equal(rx, apply_channel_operator(ch, body))
    np.testing.assert_allclose(rx, build_channel_matrix(ch) @ body, rtol=0, atol=1e-14)


# Z = 613: shifts 0 and Z - 1 among the blocks, so the decoder's rotated
# reads run both ways round, on far more lanes than the bundled code's 81
WRAP_CODE = LdpcCode(
    [
        [612, 5, -1, 7, 0, -1],
        [300, -1, 1, 0, 0, 0],
        [-1, 611, 50, 7, -1, 0],
    ],
    613,
)


def padded_checks(code):
    """The parity checks as padded per-check variable lists and slot mask,
    lifted from the base matrix apart from the graph's block layout."""
    idx, mask = code._lift(code.base_matrix)
    n_checks = idx.shape[0] * idx.shape[1]
    return np.where(mask, idx, 0).reshape(n_checks, -1), mask.reshape(n_checks, -1)


def _min_sum_numpy(llr, code, alpha, max_iters):
    """Numpy oracle for :func:`otfsim._kernels.min_sum_decode`.

    The flooding kernel the package ran before the C decoder, vectorized
    over the padded parity-check adjacency (:func:`padded_checks`).
    """
    llr = np.ascontiguousarray(llr, dtype=np.float64)
    alpha = float(alpha)
    max_iters = int(max_iters)
    chk_vars, chk_mask = padded_checks(code)
    n_vars = llr.size
    c2v = np.zeros(chk_vars.shape)
    total = llr.copy()

    def hard_and_ok(total):
        hard = (total <= 0.0).astype(np.uint8)
        syndrome = np.bitwise_xor.reduce(np.where(chk_mask, hard[chk_vars], 0), axis=1)
        return hard, not syndrome.any()

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
    chk_vars, chk_mask = padded_checks(code)
    check_ptr = np.concatenate([[0], np.cumsum(chk_mask.sum(axis=1))])
    edge_var = chk_vars[chk_mask]
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
    # the block layout: one block per non-negative base entry, row-major
    # with columns ascending, whose lanes reproduce the padded checks
    for code in (default_code(), SMALL_CODE, WRAP_CODE):
        graph, hb, z = code.graph, code.base_matrix, code.lifting
        assert (graph.lifting, graph.n_vars) == (z, code.codeword_len)
        for field in (graph.row_ptr, graph.block_col, graph.block_shift):
            assert field.dtype == np.int64 and field.flags.c_contiguous
        rows, cols = np.nonzero(hb >= 0)
        np.testing.assert_array_equal(np.diff(graph.row_ptr), (hb >= 0).sum(axis=1))
        assert graph.row_ptr[0] == 0
        np.testing.assert_array_equal(graph.block_col, cols)
        np.testing.assert_array_equal(graph.block_shift, hb[rows, cols])
        chk_vars, chk_mask = padded_checks(code)
        lanes = np.arange(z)
        for r in range(hb.shape[0]):
            blocks = range(graph.row_ptr[r], graph.row_ptr[r + 1])
            lane_vars = np.stack(
                [graph.block_col[b] * z + (lanes + graph.block_shift[b]) % z for b in blocks],
                axis=1,
            )
            checks = slice(r * z, (r + 1) * z)
            np.testing.assert_array_equal(lane_vars, chk_vars[checks, : len(blocks)])
            assert chk_mask[checks, : len(blocks)].all()
            assert not chk_mask[checks, len(blocks) :].any()


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


LLR_KINDS = ["noisy", "rounded", "zeros", "signed_zeros", "huge", "mixed_huge", "overflow"]


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    st.sampled_from([default_code(), SMALL_CODE, WRAP_CODE]),
    st.sampled_from([0.4, 0.7, 0.9, 1.2]),
    st.integers(0, 2**32 - 1),
    st.sampled_from(LLR_KINDS),
    st.sampled_from([0, 1, 5, 50]),
)
# words whose overflowing totals leave checks with exactly one NaN magnitude,
# where the NaN edge alone gets min2
@example(default_code(), 0.7, 0, "overflow", 50)
@example(WRAP_CODE, 0.7, 0, "overflow", 5)
def test_min_sum_matches_numpy_kernel(code, sigma, seed, kind, max_iters):
    llr = noisy_llrs(code, sigma, seed, kind)
    bits, ok, iters = kernels.min_sum_decode(llr, code.graph, 0.75, max_iters)
    with np.errstate(invalid="ignore", over="ignore"):
        want_bits, want_ok, want_iters = _min_sum_numpy(llr, code, 0.75, max_iters)
    assert bits.dtype == np.uint8
    np.testing.assert_array_equal(bits, want_bits)
    assert (ok, iters) == (want_ok, want_iters)
    assert type(ok) is bool and type(iters) is int


def test_avx2_clone_decodes_like_the_baseline(tmp_path, monkeypatch):
    # every body the CPU runs against the baseline build, bit for bit: the
    # lane-major AVX-512 body and the block-major AVX2 clone.  The shipped
    # build carries both wherever the source's guard holds; the
    # preprocessor says whether it holds for this compiler.
    shipped = kernels.minsum_library()
    source = kernels.MINSUM_SOURCE.read_text()
    clone = '__attribute__((target_clones("avx2", "default")))'
    assert source.count(clone) == 1
    expanded = subprocess.run(
        ["cc", "-E", str(kernels.MINSUM_SOURCE)], capture_output=True, text=True, check=True
    ).stdout
    guarded = "target_clones" in expanded
    lib = ctypes.CDLL(str(shipped))
    assert (b"otfsim_min_sum_decode.avx2" in shipped.read_bytes()) == guarded
    assert hasattr(lib, "otfsim_min_sum_decode_lanes") == guarded
    if not guarded:
        pytest.skip("the decoder has one body on this platform")
    flags = Path("/proc/cpuinfo").read_text().split()
    assert bool(lib.otfsim_cpu_has_avx512f()) == ("avx512f" in flags)
    # each body by its own symbol; through its ifunc, the shipped block-major
    # entry point resolves to the AVX2 clone on a CPU with AVX2
    bodies = {}
    if "avx512f" in flags:
        bodies["avx512 lanes"] = lib.otfsim_min_sum_decode_lanes
    if "avx2" in flags:
        bodies["avx2 clone"] = lib.otfsim_min_sum_decode
    if not bodies:
        pytest.skip("the CPU runs only the baseline body")
    baseline = tmp_path / "_minsum.c"
    baseline.write_text(source.replace(clone, ""))
    baseline_lib = tmp_path / "baseline.so"
    subprocess.run(
        ["cc", *kernels.CFLAGS, "-o", str(baseline_lib), str(baseline)], check=True
    )
    assert b"otfsim_min_sum_decode.avx2" not in baseline_lib.read_bytes()
    bodies["baseline"] = ctypes.CDLL(str(baseline_lib)).otfsim_min_sum_decode
    addresses = {ctypes.cast(fn, ctypes.c_void_p).value for fn in bodies.values()}
    assert len(addresses) == len(bodies)  # no body is compared with itself
    # the loader picks the fastest body the CPU runs
    fastest = next(iter(bodies.values()))
    loaded = ctypes.cast(kernels._load_decoder(), ctypes.c_void_p).value
    assert loaded == ctypes.cast(fastest, ctypes.c_void_p).value
    cases = [
        (code, noisy_llrs(code, sigma, seed, kind), max_iters)
        for code in (default_code(), SMALL_CODE, WRAP_CODE)
        for kind in LLR_KINDS
        for sigma, seed in ((0.7, 0), (0.7, 11), (1.2, 12))  # (0.7, 0): lone NaN edges
        for max_iters in (0, 1, 5, 50)
    ]
    decoded = {}
    for name, fn in bodies.items():
        monkeypatch.setattr(kernels, "_decoder", kernels._declare(fn))
        decoded[name] = [kernels.min_sum_decode(llr, c.graph, 0.75, it) for c, llr, it in cases]
    want = decoded.pop("baseline")
    for name, got in decoded.items():
        for (bits, ok, iters), (want_bits, want_ok, want_iters) in zip(got, want):
            np.testing.assert_array_equal(bits, want_bits, err_msg=name)
            assert (ok, iters) == (want_ok, want_iters), name
    assert any(iters == 50 for _, _, iters in want)  # some words run every iteration


def test_one_thread_switching_graphs_decodes_like_fresh_threads():
    # a thread's scratch is sized for one graph and must serve no other; the
    # liftings 81, 5 and 613 are no multiples of a vector's 8 lanes, so the
    # lane-major body runs a masked tail on each
    cases = [
        (code, noisy_llrs(code, sigma, seed, "noisy"))
        for sigma, seed in ((0.7, 31), (1.2, 32))
        for code in (default_code(), SMALL_CODE, WRAP_CODE)
    ]

    def fresh(code, llr):
        out = []
        worker = threading.Thread(
            target=lambda: out.append(kernels.min_sum_decode(llr, code.graph, 0.75, 50))
        )
        worker.start()
        worker.join(timeout=60)
        assert not worker.is_alive()
        return out[0]

    want = [fresh(code, llr) for code, llr in cases]
    for _ in range(2):
        for (code, llr), (want_bits, want_ok, want_iters) in zip(cases, want):
            bits, ok, iters = kernels.min_sum_decode(llr, code.graph, 0.75, 50)
            np.testing.assert_array_equal(bits, want_bits)
            assert (ok, iters) == (want_ok, want_iters)
    assert {ok for _, ok, _ in want} == {True, False}  # both outcomes are compared


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
    rows = [noisy_llrs(code, (0.6, 1.0)[w % 2], seed + w, "noisy") for w in range(width)]
    return np.stack(rows)


def test_batch_decode_equals_single_rows():
    code = default_code()
    llrs = noisy_batch(code, 6, 40)
    bits, ok = code.decode(llrs)
    for w in range(llrs.shape[0]):
        one_bits, one_ok = code.decode(llrs[w])
        np.testing.assert_array_equal(bits[w], one_bits)
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
        ["cc", "-std=c99", "-Wall", "-Wextra", "-Werror", *kernels.CFLAGS,
         "-o", str(tmp_path / "minsum.so"), str(kernels.MINSUM_SOURCE)],
        capture_output=True,
        text=True,
    )
    assert out.returncode == 0, out.stderr
    assert ctypes.CDLL(str(tmp_path / "minsum.so")).otfsim_min_sum_decode


def test_band_source_compiles_cleanly(tmp_path):
    out = subprocess.run(
        ["cc", "-std=c99", "-Wall", "-Wextra", "-Werror", *kernels.CFLAGS,
         "-o", str(tmp_path / "band.so"), str(kernels.BAND_SOURCE), *kernels.LIBS],
        capture_output=True,
        text=True,
    )
    assert out.returncode == 0, out.stderr
    lib = ctypes.CDLL(str(tmp_path / "band.so"))
    assert lib.otfsim_band_cholesky and lib.otfsim_band_solve


def test_minsum_build_is_cached(tmp_path, monkeypatch):
    source = tmp_path / "_minsum.c"
    shutil.copy(kernels.MINSUM_SOURCE, source)
    monkeypatch.setattr(kernels, "MINSUM_SOURCE", source)
    lib = kernels.minsum_library()
    assert lib.parent == tmp_path / "__pycache__" and lib.is_file()
    built = lib.stat().st_mtime_ns
    assert kernels.minsum_library() == lib
    assert lib.stat().st_mtime_ns == built  # reused, not rebuilt
    # an edited source gets its own build, which replaces the old one
    source.write_text(source.read_text() + "\n")
    edited = kernels.minsum_library()
    assert edited != lib and edited.is_file()
    assert [p.name for p in lib.parent.iterdir()] == [edited.name]


def test_minsum_build_removes_only_stale_libraries(tmp_path, monkeypatch):
    source = tmp_path / "_minsum.c"
    shutil.copy(kernels.MINSUM_SOURCE, source)
    monkeypatch.setattr(kernels, "MINSUM_SOURCE", source)
    cache = tmp_path / "__pycache__"
    cache.mkdir()
    stale = cache / "_minsum-0123456789abcdef.so"
    in_flight = cache / "_minsum-abc123.so.tmp"  # another process's build
    other = cache / "channel.cpython.pyc"
    for path in (stale, in_flight, other):
        path.write_bytes(b"")
    # a stale build that a concurrent process removes between the
    # listing and the unlink must not fail this build
    vanished = cache / "_minsum-fedcba9876543210.so"
    real_glob = type(cache).glob
    monkeypatch.setattr(
        type(cache), "glob", lambda self, pattern: [*real_glob(self, pattern), vanished]
    )
    lib = kernels.minsum_library()
    assert lib.is_file()
    assert sorted(p.name for p in cache.iterdir()) == sorted(
        [lib.name, in_flight.name, other.name]
    )


def test_kernel_builds_share_a_cache_and_keep_each_other(tmp_path, monkeypatch):
    # one builder serves both sources; removing one kernel's stale builds
    # leaves the other's library in place
    for name in ("MINSUM_SOURCE", "BAND_SOURCE"):
        source = tmp_path / getattr(kernels, name).name
        shutil.copy(getattr(kernels, name), source)
        monkeypatch.setattr(kernels, name, source)
    band, minsum = kernels.band_library(), kernels.minsum_library()
    assert band.parent == minsum.parent == tmp_path / "__pycache__"
    assert band.name.startswith("_band-") and minsum.name.startswith("_minsum-")
    assert sorted(p.name for p in band.parent.iterdir()) == sorted([band.name, minsum.name])


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
