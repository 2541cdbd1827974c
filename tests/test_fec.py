import json
from importlib import resources

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from otfsim.fec import LdpcCode, default_code, load_code, reshape_llrs

CODE = default_code()

# the same draws on every run: a fixed seed and no replay of saved examples
PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)

# Z = 5, info row degrees 2 or 3; the anchor column (3) hits rows 0, 2
# and 3, so row 1 has no anchor term
SMALL_CODE = LdpcCode(
    [
        [1, 0, -1, 2, 0, -1, -1],
        [3, -1, 4, -1, 0, 0, -1],
        [-1, 2, 0, 0, -1, 0, 0],
        [4, 1, 3, 2, -1, -1, 0],
    ],
    5,
)


def encode_oracle(code, msg_bits):
    """Block-by-block encoder: row syndromes from rolled message blocks,
    then forward substitution down the dual diagonal."""
    msg_bits = np.asarray(msg_bits, dtype=np.uint8).ravel()
    single = msg_bits.size == code.message_len
    hb, z = code.base_matrix, code.lifting
    rows = hb.shape[0]
    kb = hb.shape[1] - rows
    msgs = msg_bits.reshape(-1, kb, z)
    out = np.empty((msgs.shape[0], code.codeword_len), dtype=np.uint8)
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


def to_llrs(bits, good=8.0):
    """Noiseless channel LLRs: strongly positive for 0, negative for 1."""
    return good * (1.0 - 2.0 * np.asarray(bits, dtype=float))


def test_code_dimensions():
    assert CODE.codeword_len == 1944
    assert CODE.message_len == 1296
    assert CODE.rate == pytest.approx(2.0 / 3.0)
    assert CODE.lifting == 81


def test_encoded_words_satisfy_every_check():
    rng = np.random.default_rng(0)
    for _ in range(10):
        cw = CODE.encode(rng.integers(0, 2, CODE.message_len))
        assert CODE.graph.syndrome_ok(cw)
        # systematic: the message prefix is the message
    msg = rng.integers(0, 2, CODE.message_len)
    np.testing.assert_array_equal(CODE.encode(msg)[: CODE.message_len], msg)


@PROPERTY
@given(st.sampled_from([CODE, SMALL_CODE]), st.integers(1, 8), st.integers(0, 2**32 - 1))
def test_encode_matches_oracle(code, n_msgs, seed):
    msgs = np.random.default_rng(seed).integers(0, 2, n_msgs * code.message_len)
    fast = code.encode(msgs)
    np.testing.assert_array_equal(fast, encode_oracle(code, msgs))
    assert fast.dtype == np.uint8
    assert fast.shape == ((code.codeword_len,) if n_msgs == 1 else (n_msgs, code.codeword_len))
    for cw in np.atleast_2d(fast):
        assert code.graph.syndrome_ok(cw)


def test_single_bit_flip_breaks_and_decodes():
    rng = np.random.default_rng(1)
    msg = rng.integers(0, 2, CODE.message_len)
    cw = CODE.encode(msg)
    flipped = cw.copy()
    flipped[777] ^= 1
    assert not CODE.graph.syndrome_ok(flipped)
    bits, ok = CODE.decode(to_llrs(flipped))
    assert ok
    np.testing.assert_array_equal(bits, cw)


def test_noiseless_round_trip_batch():
    rng = np.random.default_rng(2)
    msgs = rng.integers(0, 2, 4 * CODE.message_len)
    cws = CODE.encode(msgs)
    llrs = to_llrs(cws.T.ravel(order="F")).reshape(CODE.codeword_len, 4, order="F")
    bits, ok = CODE.decode(llrs)
    assert ok.all()
    np.testing.assert_array_equal(bits.T.ravel(), cws.ravel())


def test_valid_codeword_returns_unchanged_with_weak_llrs():
    # a consistent word must come back as-is even at tiny magnitudes
    rng = np.random.default_rng(3)
    cw = CODE.encode(rng.integers(0, 2, CODE.message_len))
    bits, ok = CODE.decode(to_llrs(cw, good=0.01))
    assert ok
    np.testing.assert_array_equal(bits, cw)


def test_decode_corrects_moderate_noise():
    rng = np.random.default_rng(4)
    cw = CODE.encode(rng.integers(0, 2, CODE.message_len))
    x = 1.0 - 2.0 * cw.astype(float)
    sigma = 0.6  # comfortably inside the code's working region
    llrs = 2.0 * (x + sigma * rng.standard_normal(cw.size)) / sigma**2
    bits, ok = CODE.decode(llrs)
    assert ok
    np.testing.assert_array_equal(bits, cw)


def test_decode_rejects_unsupported_shapes():
    rng = np.random.default_rng(6)
    cws = CODE.encode(rng.integers(0, 2, 2 * CODE.message_len))
    with pytest.raises(ValueError):
        CODE.decode(to_llrs(cws.ravel()))  # two codewords run together
    with pytest.raises(ValueError):
        CODE.decode(to_llrs(cws))  # one row per codeword, as encode returns
    with pytest.raises(ValueError):
        CODE.decode(to_llrs(cws.T)[None])


def test_reshape_llrs():
    flat = np.arange(12.0)
    cols = reshape_llrs(flat, 4)
    assert cols.shape == (4, 3)
    np.testing.assert_array_equal(cols[:, 0], [0, 1, 2, 3])
    np.testing.assert_array_equal(cols.ravel(order="F"), flat)
    with pytest.raises(ValueError):
        reshape_llrs(np.arange(10.0), 4)
    with pytest.raises(ValueError):
        reshape_llrs(np.zeros(0), 4)


def test_pinned_padding_decodes_to_zero_bits():
    rng = np.random.default_rng(5)
    msg = rng.integers(0, 2, CODE.message_len)
    msg[-200:] = 0
    cw = CODE.encode(msg)
    llrs = to_llrs(cw)
    # huge but finite, as compute_llrs gives on noiseless frames
    llrs[CODE.message_len - 200 : CODE.message_len] = 1e12
    bits, ok = CODE.decode(llrs)
    assert ok
    np.testing.assert_array_equal(bits, cw)


def test_tampered_base_matrix_is_rejected():
    raw = json.loads(
        resources.files("otfsim.data").joinpath("ldpc_n1944_r23.json").read_text()
    )
    hb = np.array(raw["base_matrix"])
    rows, cols = hb.shape
    kb = cols - rows

    bad = hb.copy()
    bad[rows // 2, kb] = 5  # anchor column middle hit must be shift 0
    with pytest.raises(ValueError):
        LdpcCode(bad, raw["lifting"])

    bad = hb.copy()
    bad[2, kb + 2] = -1  # break a dual-diagonal pair
    with pytest.raises(ValueError):
        LdpcCode(bad, raw["lifting"])

    with pytest.raises(ValueError):
        LdpcCode(hb, 50)  # shifts exceed the lifting size
    with pytest.raises(ValueError):
        LdpcCode(hb.T, raw["lifting"])


def test_encode_input_validation():
    with pytest.raises(ValueError):
        CODE.encode(np.zeros(100, dtype=np.uint8))
    with pytest.raises(ValueError):
        CODE.encode(np.zeros(0, dtype=np.uint8))


def test_load_code_matches_default(tmp_path):
    # a bundled code is parsed once and shared; a path is read afresh
    assert load_code("ldpc_n1944_r23") is CODE
    path = tmp_path / "code.json"
    path.write_text(resources.files("otfsim.data").joinpath("ldpc_n1944_r23.json").read_text())
    code = load_code(str(path))
    assert code is not CODE and load_code(str(path)) is not code
    np.testing.assert_array_equal(code.base_matrix, CODE.base_matrix)
    assert code.lifting == CODE.lifting
    assert code.reference  # provenance string travels with the data file
    with pytest.raises((FileNotFoundError, OSError)):
        load_code("/nonexistent/code.json")
