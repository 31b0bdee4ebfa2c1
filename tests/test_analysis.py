import numpy as np
import pytest

from vsci.analysis import build_report, gap_lipschitz_bound, projection_spectrum
from vsci.sci import mask_generate


@pytest.mark.parametrize("h, w, b", [(3, 4, 2), (4, 4, 3), (2, 5, 1)])
def test_all_ones_mask_spectrum_is_closed_form(h, w, b):
    # Phi = [I ... I] (B blocks), so P = (1/B) * ones(B, B) (x) I_n: eigenvalue 1
    # once per pixel, 0 with multiplicity n (B - 1), and P^2 = P.
    n = h * w
    spectrum = projection_spectrum(mask_generate(0, h, w, b, kind="all_ones"))
    np.testing.assert_allclose(spectrum.eigenvalues, np.r_[np.ones(n), np.zeros(n * (b - 1))],
                               rtol=0, atol=1e-12)
    assert spectrum.idempotence_defect <= 1e-12
    assert spectrum.n_live_pixels == n

    report = build_report(sigma_hat=0.5, epsilon_hat=0.1, spectrum=spectrum)
    assert report.n_unit_eigenvalues == n
    assert report.n_zero_eigenvalues == n * (b - 1)
    assert report.idempotence_defect == spectrum.idempotence_defect
    # max |1 - lambda| is 1 once a zero eigenvalue exists, so the bound is 1 + eps
    assert report.composite_bound == pytest.approx(1.1 if b > 1 else 0.0, abs=1e-12)
    assert report.bound_certifies_contraction == (b == 1)


def test_gap_lipschitz_bound_monotone_in_epsilon():
    eigs = [1.0, 0.75, 0.25, 0.0]
    bounds = [gap_lipschitz_bound(eps, eigs) for eps in (0.0, 1e-3, 0.1, 1.0, 10.0)]
    assert bounds[0] == 1.0
    assert all(lo < hi for lo, hi in zip(bounds, bounds[1:]))
