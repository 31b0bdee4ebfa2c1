import numpy as np
import pytest

from helpers import dense_projector, random_mask
from vsci.analysis import estimate_map_lipschitz, projection_spectrum, report_kv
from vsci.denoisers import IdentityDenoiser, ScaleShiftDenoiser
from vsci.maps import DeGapMap
from vsci.sci import SensingMask, adjoint, forward, mask_generate


@pytest.mark.parametrize("h, w, b", [(3, 4, 2), (4, 4, 3), (2, 5, 1)])
def test_all_ones_mask_spectrum_is_closed_form(h, w, b):
    # Phi = [I ... I] (B blocks), so P = (1/B) * ones(B, B) (x) I_n: eigenvalue 1
    # once per pixel, 0 with multiplicity n (B - 1), and P^2 = P.
    n = h * w
    spectrum = projection_spectrum(mask_generate(0, h, w, b, kind="all_ones"))
    np.testing.assert_allclose(spectrum.eigenvalues, np.r_[np.ones(n), np.zeros(n * (b - 1))],
                               rtol=0, atol=1e-12)
    assert spectrum.idempotence_defect <= 1e-12

    report = report_kv(sigma_hat=0.5, spectrum=spectrum)
    assert report["n_unit_eigenvalues"] == n
    assert report["n_zero_eigenvalues"] == n * (b - 1)
    assert report["idempotence_defect"] == spectrum.idempotence_defect


def _fractional_floor_mask():
    # frames in [0, 1) give q below floor_tau = 0.7 on some pixels, so
    # q / q_eff < 1 there and P is not idempotent
    frames = np.random.default_rng(4).random((5, 4, 3))
    frames[1, 2, :] = 0.0
    return SensingMask(frames=frames, policy="floor", floor_tau=0.7)


@pytest.mark.parametrize("make_mask", [
    lambda: random_mask(2, 5, 4, 3),
    lambda: mask_generate(1, 5, 4, 3, p=0.3, policy="floor"),
    _fractional_floor_mask,
], ids=["bernoulli-reject", "bernoulli-floor", "fractional-floor"])
def test_spectrum_matches_dense_projector(make_mask):
    mask = make_mask()
    p = dense_projector(mask)
    spectrum = projection_spectrum(mask)
    np.testing.assert_allclose(spectrum.eigenvalues, np.linalg.eigvalsh(p)[::-1],
                               rtol=0, atol=1e-12)
    assert spectrum.idempotence_defect == pytest.approx(np.linalg.norm(p @ p - p),
                                                        rel=0, abs=1e-12)


def test_floor_masks_have_dead_pixels_and_eigenvalues_below_one():
    # guards that the floor cases above exercise lambda = 0 and 0 < lambda < 1
    dead = mask_generate(1, 5, 4, 3, p=0.3, policy="floor")
    assert np.count_nonzero(dead.q_diag > 0) < 20
    spectrum = projection_spectrum(_fractional_floor_mask())
    eigs = spectrum.eigenvalues
    assert ((eigs > 1e-8) & (eigs < 1 - 1e-8)).any()
    assert spectrum.idempotence_defect > 0.1


def _degap_map(denoiser, seed=3):
    # no dead pixels and B >= 2, so I - P has eigenvalue 1
    mask = random_mask(seed, 6, 5, 3)
    y = forward(mask, np.random.default_rng(seed).random((6, 5, 3)))
    return DeGapMap(denoiser=denoiser, mask=mask, y=y), adjoint(mask, y)


@pytest.mark.parametrize("a", [0.5, -1.5, 2.0])
def test_map_lipschitz_of_scale_shift_is_abs_a(a):
    # the map is x -> a * gap_project(x) + b, whose Jacobian is a (I - P)
    fmap, x0 = _degap_map(ScaleShiftDenoiser(a=a, b=0.1))
    assert estimate_map_lipschitz(fmap, x0, n_iters=10) == pytest.approx(abs(a), abs=1e-6)


def test_map_lipschitz_of_identity_is_one():
    fmap, x0 = _degap_map(IdentityDenoiser())
    assert estimate_map_lipschitz(fmap, x0) == pytest.approx(1.0, abs=1e-6)


def test_map_lipschitz_needs_five_iterations():
    fmap, x0 = _degap_map(IdentityDenoiser())
    with pytest.raises(ValueError):
        estimate_map_lipschitz(fmap, x0, n_iters=4)
