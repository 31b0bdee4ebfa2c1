import numpy as np
import pytest
from scipy import ndimage

from helpers import traced_peak
from vsci.errors import ShapeMismatchError
from vsci.metrics import PSNR_BLOCK, PSNR_CAP_DB, psnr, ssim


def _oracle_ssim_frame(a, r):
    """SSIM by scipy's Gaussian filter: sigma 1.5, radius 5 (11 taps), then the
    5-pixel border, where the window would leave the frame, is cropped."""

    def blur(img):
        return ndimage.gaussian_filter(img, sigma=1.5, truncate=5 / 1.5)[5:-5, 5:-5]

    c1, c2 = 0.01**2, 0.03**2
    mu_a, mu_r = blur(a), blur(r)
    var_a = blur(a * a) - mu_a**2
    var_r = blur(r * r) - mu_r**2
    cov = blur(a * r) - mu_a * mu_r
    num = (2 * mu_a * mu_r + c1) * (2 * cov + c2)
    den = (mu_a**2 + mu_r**2 + c1) * (var_a + var_r + c2)
    return float(np.mean(num / den))


def _cube_pair(seed):
    rng = np.random.default_rng(seed)
    ref = ndimage.gaussian_filter(rng.random((32, 32, 3)), sigma=(2, 2, 0))
    est = np.clip(ref + 0.1 * rng.standard_normal(ref.shape), 0.0, 1.0)
    return est, ref


@pytest.mark.parametrize("seed", [0, 1])
def test_ssim_matches_scipy_gaussian_oracle(seed):
    est, ref = _cube_pair(seed)
    per_frame, mean = ssim(est, ref)
    expected = [_oracle_ssim_frame(est[:, :, k], ref[:, :, k]) for k in range(3)]
    np.testing.assert_allclose(per_frame, expected, rtol=0, atol=1e-10)
    assert abs(mean - np.mean(expected)) <= 1e-10
    assert max(expected) < 0.99  # the estimates are visibly off the reference


def test_identical_frames_score_one():
    _, ref = _cube_pair(2)
    frame = ref[:, :, :1]
    per_frame, mean = ssim(frame, frame.copy())
    assert abs(_oracle_ssim_frame(frame[:, :, 0], frame[:, :, 0]) - 1.0) <= 1e-10
    assert abs(per_frame[0] - 1.0) <= 1e-10 and abs(mean - 1.0) <= 1e-10


@pytest.mark.parametrize("shape", [(11, 11, 2), (11, 40, 3), (40, 12, 2)])
def test_ssim_matches_oracle_on_small_and_nonsquare_frames(shape):
    rng = np.random.default_rng(3)
    ref = rng.random(shape)
    est = np.clip(ref + 0.1 * rng.standard_normal(shape), 0.0, 1.0)
    per_frame, _ = ssim(est, ref)
    expected = [_oracle_ssim_frame(est[:, :, k], ref[:, :, k]) for k in range(shape[2])]
    np.testing.assert_allclose(per_frame, expected, rtol=0, atol=1e-10)


def test_ssim_peak_allocation_within_three_cubes():
    # the separable filter keeps a few frame-sized arrays alive; an 11x11
    # sliding-window product put the traced peak at 15x the cube
    rng = np.random.default_rng(4)
    ref = rng.random((64, 64, 8))
    est = rng.random((64, 64, 8))
    assert traced_peak(ssim, est, ref) <= 3 * est.nbytes


def _out_of_range_pair(seed):
    rng = np.random.default_rng(seed)
    ref = rng.random((16, 13, 3))
    return ref + 0.6 * rng.standard_normal(ref.shape), ref


def test_psnr_matches_plain_numpy_formula():
    x, ref = _out_of_range_pair(5)
    x = np.clip(x, 0.0, 1.0)
    per_frame, mean = psnr(x, ref)
    expected = [10 * np.log10(1.0 / np.mean((x[:, :, k] - ref[:, :, k]) ** 2)) for k in range(3)]
    np.testing.assert_allclose(per_frame, expected, rtol=1e-13)
    assert mean == pytest.approx(np.mean(expected), rel=1e-13)
    per_frame2, _ = psnr(2.0 * x, 2.0 * ref, peak=2.0)
    np.testing.assert_allclose(per_frame2, expected, rtol=1e-13)


def test_psnr_caps_zero_error_frames():
    x, ref = _out_of_range_pair(6)
    x = np.clip(x, 0.0, 1.0)
    x[:, :, 1] = ref[:, :, 1]
    per_frame, mean = psnr(x, ref)
    assert per_frame[1] == PSNR_CAP_DB
    assert per_frame[0] < 50 and per_frame[2] < 50
    assert mean == per_frame.mean()
    assert psnr(ref, ref) == (pytest.approx([PSNR_CAP_DB] * 3), PSNR_CAP_DB)


def test_psnr_of_a_nan_frame_is_nan_not_the_cap():
    # a NaN error is not zero error; the other frames score as before
    x, ref = _out_of_range_pair(7)
    finite, _ = psnr(x, ref)
    ref[2, 3, 1] = np.nan
    per_frame, mean = psnr(x, ref)
    assert np.isnan(per_frame[1]) and np.isnan(mean)
    assert per_frame[0] == finite[0] and per_frame[2] == finite[2]


@pytest.mark.parametrize("peak", [0.0, -1.0])
def test_psnr_rejects_nonpositive_peak(peak):
    x, ref = _out_of_range_pair(7)
    with pytest.raises(ValueError, match="peak"):
        psnr(x, ref, peak=peak)


@pytest.mark.parametrize("metric", [psnr, ssim])
def test_metrics_reject_shape_mismatch(metric):
    x, ref = _out_of_range_pair(8)
    with pytest.raises(ShapeMismatchError):
        metric(x[:, :, :2], ref)


@pytest.mark.parametrize("metric", [psnr, ssim])
def test_metrics_score_the_clamped_reconstruction(metric):
    x, ref = _out_of_range_pair(9)
    assert x.min() < 0 and x.max() > 1
    per_frame, mean = metric(x, ref)
    per_frame_c, mean_c = metric(np.clip(x, 0.0, 1.0), ref)
    assert np.array_equal(per_frame, per_frame_c) and mean == mean_c


def test_psnr_per_frame_matches_whole_cube_formula():
    # row blocks that divide H, that do not, and of one row each (a row and
    # its ones longer than PSNR_BLOCK); a strided view; a peak other than 1
    rng = np.random.default_rng(11)
    wide = PSNR_BLOCK // 3 + 1
    cases = [((256, 256, 8), 1.0), ((61, 37, 5), 1.0), ((5, wide, 2), 1.0),
             ((64, 64, 8), 2.5)]
    for shape, peak in cases:
        ref = peak * rng.random(shape)
        x = ref + 0.3 * peak * rng.standard_normal(shape)
        per_frame, mean = psnr(x, ref, peak=peak)
        mse = ((np.clip(x, 0.0, peak) - ref) ** 2).mean(axis=(0, 1))
        expected = 10.0 * np.log10(peak * peak / mse)
        np.testing.assert_allclose(per_frame, expected, rtol=1e-12, atol=0, err_msg=str(shape))
        assert mean == pytest.approx(expected.mean(), rel=1e-12)
    xt, reft = x.transpose(1, 0, 2), ref.transpose(1, 0, 2)
    assert not xt.flags.c_contiguous
    mse = ((np.clip(xt, 0.0, peak) - reft) ** 2).mean(axis=(0, 1))
    np.testing.assert_allclose(psnr(xt, reft, peak=peak)[0], 10.0 * np.log10(peak * peak / mse),
                               rtol=1e-12, atol=0)


def test_psnr_peak_allocation_within_one_row_block():
    # the clamp, the difference, its square and the ones vector that sums
    # it share one block of at most PSNR_BLOCK floats; forming the error in
    # one scratch cube put the traced peak at the cube (4 MiB here)
    rng = np.random.default_rng(10)
    ref = rng.random((256, 256, 8))
    x = rng.random((256, 256, 8))
    assert traced_peak(psnr, x, ref) <= 8 * PSNR_BLOCK + (4 << 10)
