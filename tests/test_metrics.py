import numpy as np
import pytest

from otfsim.metrics import (
    BlerPoint,
    PaprAccumulator,
    cp_snr_loss_db,
    papr_db,
    wilson_interval,
)


def test_constant_envelope_is_zero_db():
    rng = np.random.default_rng(0)
    phases = np.exp(2j * np.pi * rng.random(256))
    assert papr_db(phases) == pytest.approx(0.0, abs=1e-12)
    assert papr_db(3.7 * phases) == pytest.approx(0.0, abs=1e-12)


def test_single_spike_among_k_samples():
    k = 128
    s = np.zeros(k, dtype=complex)
    s[17] = 2.0 - 1.0j
    assert papr_db(s) == pytest.approx(10 * np.log10(k))


def test_papr_invariances():
    rng = np.random.default_rng(1)
    s = rng.standard_normal(512) + 1j * rng.standard_normal(512)
    base = papr_db(s)
    assert papr_db(0.01 * s) == pytest.approx(base)  # scale invariant
    perm = rng.permutation(512)
    assert papr_db(s[perm]) == pytest.approx(base)  # permutation invariant


def test_oversampling_preserves_mean_power_and_raises_peaks():
    rng = np.random.default_rng(2)
    # a pure tone off the FFT grid peaks between samples
    t = np.arange(64)
    s = np.exp(2j * np.pi * (10.5 / 64) * t)
    assert papr_db(s, oversample=4) >= papr_db(s) - 1e-12
    # random multicarrier frames: oversampling never lowers the measure
    for _ in range(10):
        x = rng.standard_normal(128) + 1j * rng.standard_normal(128)
        s = np.fft.ifft(x)
        assert papr_db(s, oversample=4) >= papr_db(s) - 1e-12
    with pytest.raises(ValueError):
        papr_db(np.zeros(0))
    for bad in (0, -2):
        with pytest.raises(ValueError):
            papr_db(s, oversample=bad)


def test_ccdf_from_known_values():
    acc = PaprAccumulator(np.array([4.0]))
    acc.add(3.0)
    acc.add(5.0)
    assert acc.frames == 2
    np.testing.assert_allclose(acc.ccdf(), [0.5])
    # threshold hits count only strict exceedance
    acc2 = PaprAccumulator(np.array([4.0]))
    acc2.add(4.0)
    np.testing.assert_allclose(acc2.ccdf(), [0.0])
    with pytest.raises(ValueError):
        PaprAccumulator(np.array([4.0])).ccdf()


@pytest.mark.parametrize("oversample", [1, 2])
@pytest.mark.parametrize("samples", [1029, 1104])
def test_papr_rows_equal_one_dimensional_calls(oversample, samples):
    rng = np.random.default_rng(samples)
    batch = rng.standard_normal((6, samples)) + 1j * rng.standard_normal((6, samples))
    batch[:, 7] *= 9.0  # a pilot-like peak in every frame
    want = [papr_db(row, oversample) for row in batch]
    assert all(type(v) is float for v in want)
    got = papr_db(batch, oversample)
    assert got.shape == (6,)
    np.testing.assert_array_equal(got, want)
    # a column-major batch is measured along its rows all the same
    np.testing.assert_array_equal(papr_db(np.asfortranarray(batch), oversample), want)
    np.testing.assert_array_equal(papr_db(batch[:1], oversample), want[:1])
    with pytest.raises(ValueError):
        papr_db(batch[None], oversample)
    with pytest.raises(ValueError):
        papr_db(np.zeros((2, 0)), oversample)


def test_ccdf_from_an_array_of_frames():
    one_by_one = PaprAccumulator(np.array([4.0, 5.0]))
    for v in (3.0, 5.0, 4.5, 4.0):
        one_by_one.add(v)
    batched = PaprAccumulator(np.array([4.0, 5.0]))
    batched.add(np.array([3.0, 5.0]))
    batched.add(np.array([4.5, 4.0]))
    assert batched.frames == one_by_one.frames == 4
    np.testing.assert_array_equal(batched.exceed, one_by_one.exceed)
    np.testing.assert_allclose(batched.ccdf(), [0.5, 0.0])


def test_ccdf_monotone_non_increasing():
    rng = np.random.default_rng(3)
    grid = np.linspace(0.0, 12.0, 25)
    acc = PaprAccumulator(grid)
    for _ in range(500):
        s = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        acc.add(papr_db(s))
    ccdf = acc.ccdf()
    assert np.all(np.diff(ccdf) <= 0)
    assert 0.0 <= ccdf[-1] <= ccdf[0] <= 1.0


def test_cp_loss_frozen_values():
    # one 37-sample prefix on a 512-sample symbol; one on a 65536 frame
    assert cp_snr_loss_db(512, 37) == pytest.approx(0.30302, abs=1e-5)
    assert cp_snr_loss_db(65536, 37) == pytest.approx(0.0024512, abs=1e-7)
    assert cp_snr_loss_db(100, 0) == 0.0


def test_cp_loss_monotonicity():
    assert cp_snr_loss_db(512, 40) > cp_snr_loss_db(512, 37)
    assert cp_snr_loss_db(1024, 37) < cp_snr_loss_db(512, 37)
    with pytest.raises(ValueError):
        cp_snr_loss_db(0, 37)
    with pytest.raises(ValueError):
        cp_snr_loss_db(512, -1)


def test_wilson_interval_behaviour():
    lo, hi = wilson_interval(0, 0)
    assert (lo, hi) == (0.0, 1.0)
    lo, hi = wilson_interval(0, 100)
    assert lo == 0.0 and 0.0 < hi < 0.05
    lo, hi = wilson_interval(100, 100)
    assert 0.95 < lo < 1.0 and hi > 0.999
    lo, hi = wilson_interval(50, 100)
    assert lo < 0.5 < hi
    assert hi - lo < 0.2
    # more trials shrink the interval around the same proportion
    lo2, hi2 = wilson_interval(500, 1000)
    assert hi2 - lo2 < hi - lo


def test_bler_point_add_and_merge():
    p = BlerPoint(10.0)
    assert np.isnan(p.bler)
    p.add(errors=2, blocks=8)
    p.add(errors=0, blocks=8)
    assert p.bler == pytest.approx(2 / 16)
    assert (p.block_errors, p.blocks, p.trials) == (2, 16, 2)
    lo, hi = p.interval()
    assert lo < 2 / 16 < hi


def test_prefix_loss_is_monotone():
    assert cp_snr_loss_db(512, 0) == 0.0
    losses = [cp_snr_loss_db(512, cp) for cp in (0, 1, 10, 37, 100)]
    assert all(a < b for a, b in zip(losses, losses[1:]))
    bodies = [cp_snr_loss_db(body, 37) for body in (64, 512, 4096, 65536)]
    assert all(a > b for a, b in zip(bodies, bodies[1:]))


def test_papr_invariant_under_sample_permutation():
    from otfsim.transforms import GridTransform

    rng = np.random.default_rng(5)
    x = rng.standard_normal((16, 8)) + 1j * rng.standard_normal((16, 8))
    x[3, 2] = 12.0  # an impulse dominates both frames identically
    v = x.ravel(order="F")
    a = papr_db(GridTransform(16, 8, "otfs").apply(v))
    b = papr_db(GridTransform(16, 8, "block_ofdm").apply(v))
    assert a == pytest.approx(b, abs=1e-12)
