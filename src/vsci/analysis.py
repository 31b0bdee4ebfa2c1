"""Convergence diagnostics: the measurement projector's spectrum and a
sampled Jacobian norm of an iteration map.

The projector P = Phi^T (Phi Phi^T)^{-1} Phi is never formed. Phi Phi^T is
diagonal, so P splits into one rank-one B x B block per pixel, and its
spectrum and idempotence defect follow from the mask in O(HW).

sigma_hat, the power-iteration estimate of ||df/dx|| at one point, is a
sampled lower bound on the map's Lipschitz constant: sigma_hat < 1 does not
certify that the map is a contraction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensorio
from .sci import SensingMask


def estimate_map_lipschitz(map_obj, x_point: np.ndarray, n_iters: int = 20, seed: int = 0) -> float:
    """Power-iteration estimate of ||df/dx|| at x_point.

    Jv is formed by forward finite differences of map_obj.apply (relative
    step 1e-6); J^T v comes from one map_obj.linearize(x_point), so the
    map's forward at x_point runs once for all n_iters VJPs. Returns 0 for a
    locally constant map.
    """
    if n_iters < 5:
        raise ValueError("n_iters must be >= 5")
    f = map_obj.apply
    x = np.asarray(x_point, dtype=np.float64)
    lin = map_obj.linearize(x)
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(x.shape)
    v /= np.linalg.norm(v)
    fx = f(x)
    step = 1e-6 * max(float(np.linalg.norm(x)), 1.0)
    sigma = 0.0
    for _ in range(n_iters):
        jv = (f(x + step * v) - fx) / step
        sigma = float(np.linalg.norm(jv))
        if sigma < 1e-12:
            return 0.0
        w = lin.vjp_input(jv)
        nw = float(np.linalg.norm(w))
        if nw < 1e-300:
            return sigma
        v = w / nw
    return sigma


@dataclass
class SpectrumReport:
    eigenvalues: np.ndarray       # sorted descending
    idempotence_defect: float     # Frobenius norm of P^2 - P


def projection_spectrum(mask: SensingMask) -> SpectrumReport:
    """Eigenvalues and idempotence defect of P = Phi^T (Phi Phi^T)^{-1} Phi.

    Pixel i's block of P is m m^T / q_eff[i], with m its B mask values: one
    eigenvalue lambda_i = q[i] / q_eff[i] and B - 1 zeros. lambda_i is 1 on
    a live pixel, below 1 where the floor policy raises q to floor_tau, and
    0 on a dead pixel. Each block satisfies P_i^2 = lambda_i P_i and
    ||P_i||_F = lambda_i, so ||P^2 - P||_F = sqrt(sum (lambda_i^2 - lambda_i)^2).
    """
    lam = (mask.q_diag / mask.effective_q()).ravel()
    eigs = np.zeros(mask.frames.size)
    eigs[: lam.size] = np.sort(lam)[::-1]
    return SpectrumReport(
        eigenvalues=eigs,
        idempotence_defect=float(np.linalg.norm(lam * lam - lam)),
    )


@dataclass
class LipschitzReport:
    sigma_hat: float                 # sampled ||df/dx|| at a point
    idempotence_defect: float
    n_unit_eigenvalues: int
    n_zero_eigenvalues: int

    def to_kv(self) -> dict:
        return {
            "sigma_hat": repr(self.sigma_hat),
            "idempotence_defect": repr(self.idempotence_defect),
            "n_unit_eigenvalues": self.n_unit_eigenvalues,
            "n_zero_eigenvalues": self.n_zero_eigenvalues,
        }

    def write(self, path: str) -> None:
        tensorio.write_kv(path, self.to_kv())


# distance from 1 or 0 within which build_report counts an eigenvalue as one
EIG_TOL = 1e-8


def build_report(sigma_hat: float, spectrum: SpectrumReport) -> LipschitzReport:
    eigs = spectrum.eigenvalues
    return LipschitzReport(
        sigma_hat=sigma_hat,
        idempotence_defect=spectrum.idempotence_defect,
        n_unit_eigenvalues=int(np.sum(np.abs(eigs - 1.0) <= EIG_TOL)),
        n_zero_eigenvalues=int(np.sum(np.abs(eigs) <= EIG_TOL)),
    )
