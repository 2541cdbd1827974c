import numpy as np
import pytest

from otfsim.transforms import GridTransform, add_cp, deinterleave, interleave, remove_cp

M, N = 16, 8


def random_grid(rng, m=M, n=N):
    return rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))


def otfs_modulate(x):
    """An M-by-N grid to OTFS samples through :class:`GridTransform`."""
    m, n = x.shape
    return GridTransform(m, n, "otfs").apply(x.ravel(order="F"))


def block_ofdm_modulate(x):
    """An M-by-N grid to block-OFDM samples through :class:`GridTransform`."""
    m, n = x.shape
    return GridTransform(m, n, "block_ofdm").apply(x.ravel(order="F"))


# Textbook oracles for the transforms above.


def isfft(x):
    """Inverse symplectic finite Fourier transform of an M-by-N grid.

    ``Z[m, n] = (NM)**-0.5 sum_{k,l} x[l, k] exp(j2pi(nk/N - ml/M))``,
    i.e. a unitary DFT along delay and unitary IDFT along Doppler.
    """
    return np.fft.fft(np.fft.ifft(x, axis=1, norm="ortho"), axis=0, norm="ortho")


def sfft(z):
    """Symplectic finite Fourier transform, inverse of :func:`isfft`."""
    return np.fft.fft(np.fft.ifft(z, axis=0, norm="ortho"), axis=1, norm="ortho")


def heisenberg(tf_grid):
    """Per-symbol IDFT across the M subcarriers, symbols sent in turn."""
    return np.fft.ifft(tf_grid, axis=0, norm="ortho").ravel(order="F")


def test_sfft_inverts_isfft():
    rng = np.random.default_rng(0)
    x = random_grid(rng)
    np.testing.assert_allclose(sfft(isfft(x)), x, atol=1e-12)
    np.testing.assert_allclose(isfft(sfft(x)), x, atol=1e-12)
    # unitary: grid energy is preserved
    assert np.linalg.norm(isfft(x)) == pytest.approx(np.linalg.norm(x))


def test_modulators_invert():
    rng = np.random.default_rng(1)
    v = random_grid(rng).ravel(order="F")
    for kind in ("otfs", "block_ofdm"):
        t = GridTransform(M, N, kind)
        np.testing.assert_allclose(t.adjoint(t.apply(v)), v, atol=1e-12)


def test_otfs_factors_through_isfft():
    # grid -> ISFFT -> per-symbol IDFT across delay equals the direct map
    rng = np.random.default_rng(2)
    x = random_grid(rng)
    np.testing.assert_allclose(otfs_modulate(x), heisenberg(isfft(x)), atol=1e-12)


def test_interleaver_permutation_law():
    rng = np.random.default_rng(3)
    s_block = rng.standard_normal(M * N)
    s = interleave(s_block, M, N)
    for n in range(N):
        for m in range(M):
            assert s[n * M + m] == s_block[m * N + n]
    np.testing.assert_array_equal(deinterleave(s, M, N), s_block)


def test_streams_are_interleaves_of_each_other():
    rng = np.random.default_rng(4)
    x = random_grid(rng)
    np.testing.assert_allclose(
        otfs_modulate(x), interleave(block_ofdm_modulate(x), M, N), atol=1e-12
    )


def test_cyclic_prefix_round_trip():
    rng = np.random.default_rng(5)
    s = rng.standard_normal(32) + 1j * rng.standard_normal(32)
    tx = add_cp(s, 5)
    assert tx.size == 37
    np.testing.assert_array_equal(tx[:5], s[-5:])
    np.testing.assert_array_equal(remove_cp(tx, 5), s)
    np.testing.assert_array_equal(add_cp(s, 0), s)
    with pytest.raises(ValueError):
        add_cp(s, 33)
    with pytest.raises(ValueError):
        remove_cp(s, 32)


@pytest.mark.parametrize("kind", ["otfs", "block_ofdm"])
def test_grid_transform_is_unitary(kind):
    t = GridTransform(M, N, kind)
    a = t.dense()
    np.testing.assert_allclose(a @ a.conj().T, np.eye(M * N), atol=1e-12)


@pytest.mark.parametrize("kind", ["otfs", "block_ofdm"])
def test_grid_transform_matches_dense(kind):
    t = GridTransform(M, N, kind)
    a = t.dense()
    rng = np.random.default_rng(6)
    v = rng.standard_normal(M * N) + 1j * rng.standard_normal(M * N)
    np.testing.assert_allclose(t.apply(v), a @ v, atol=1e-12)
    np.testing.assert_allclose(t.adjoint(v), a.conj().T @ v, atol=1e-12)
    batch = rng.standard_normal((M * N, 3)) + 1j * rng.standard_normal((M * N, 3))
    np.testing.assert_allclose(t.apply(batch), a @ batch, atol=1e-12)
    np.testing.assert_allclose(t.adjoint(batch), a.conj().T @ batch, atol=1e-12)


def test_grid_transform_matches_modulators():
    rng = np.random.default_rng(7)
    x = random_grid(rng)
    v = x.ravel(order="F")
    # by definition, delay row m feeds an N-point IDFT whose sample n goes
    # out at n*M + m (OTFS, interleaved) or m*N + n (block OFDM, in turn)
    idft = np.exp(2j * np.pi * np.outer(np.arange(N), np.arange(N)) / N) / np.sqrt(N)
    s = x @ idft.T
    np.testing.assert_allclose(
        GridTransform(M, N, "otfs").apply(v), s.ravel(order="F"), atol=1e-12
    )
    np.testing.assert_allclose(
        GridTransform(M, N, "block_ofdm").apply(v), s.ravel(), atol=1e-12
    )


def test_grid_transform_rejects_unknown_kind():
    with pytest.raises(ValueError):
        GridTransform(M, N, "sc_fdma")


def test_shape_errors():
    with pytest.raises(ValueError):
        deinterleave(np.zeros(9), 2, 2)
    with pytest.raises(ValueError):
        interleave(np.zeros(7), M, N)


@pytest.mark.parametrize("modulate", [otfs_modulate, block_ofdm_modulate])
def test_modulation_preserves_energy(modulate):
    rng = np.random.default_rng(11)
    for m, n in ((8, 4), (64, 16), (128, 32)):
        grid = rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))
        body = modulate(grid)
        assert np.sum(np.abs(body) ** 2) == pytest.approx(
            np.sum(np.abs(grid) ** 2), rel=1e-10
        )
