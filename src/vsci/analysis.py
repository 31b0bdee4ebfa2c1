"""Convergence diagnostics: Jacobian norm estimates, projector spectrum, and
the composite Lipschitz bound (1 + eps) * max_i |1 - lambda_i|.

Sampled estimates (sigma_hat, eps_hat) are lower bounds of
the true quantities; certified upper bounds come from dense layer norms.
Both sides are reported so neither is overclaimed. Note the structural fact
surfaced by projector_spectrum: the measurement projector has eigenvalues
{0, 1}, so whenever any eigenvalue is 0 the composite bound is 1 + eps and
cannot certify contraction on its own; the report carries an explicit flag
instead of hiding it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensorio
from .sci import SensingMask, dense_sensing_matrix

MAX_DENSE_DIM = 4096


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
    n_live_pixels: int            # pixels with nonzero mask energy


def projection_spectrum(mask: SensingMask) -> SpectrumReport:
    """Densify P = Phi^T (Phi Phi^T)^{-1} Phi and return its eigenvalues.

    Only for instances with n*B <= 4096. Dead pixels (under the floor
    policy) contribute zero rows/columns, hence extra zero eigenvalues.
    """
    h, w, b = mask.frames.shape
    if h * w * b > MAX_DENSE_DIM:
        raise ValueError(f"instance too large to densify: n*B = {h * w * b}")
    phi = dense_sensing_matrix(mask)
    q = mask.effective_q().ravel()
    p = phi.T @ (phi / q[:, None])
    eigs = np.linalg.eigvalsh(p)[::-1]
    defect = float(np.linalg.norm(p @ p - p))
    return SpectrumReport(
        eigenvalues=eigs,
        idempotence_defect=defect,
        n_live_pixels=int(np.count_nonzero(mask.q_diag > 0)),
    )


def gap_lipschitz_bound(epsilon: float, eigenvalues) -> float:
    """Composite bound (1 + epsilon) * max_i |1 - lambda_i| on the map norm."""
    if epsilon < 0:
        raise ValueError("epsilon must be >= 0")
    eigenvalues = np.asarray(eigenvalues, dtype=np.float64)
    if eigenvalues.size == 0:
        raise ValueError("eigenvalue list is empty")
    return (1.0 + epsilon) * float(np.max(np.abs(1.0 - eigenvalues)))


@dataclass
class LipschitzReport:
    sigma_hat: float                 # sampled ||df/dx|| at a point
    epsilon_hat: float               # sampled Lipschitz of D - I
    composite_bound: float           # (1 + eps) * max|1 - lambda|
    contraction_flag: bool           # sigma_hat < 1
    bound_certifies_contraction: bool  # composite_bound < 1 (usually false)
    idempotence_defect: float = float("nan")
    n_unit_eigenvalues: int = 0
    n_zero_eigenvalues: int = 0

    def to_kv(self) -> dict:
        return {
            "sigma_hat": repr(self.sigma_hat),
            "epsilon_hat": repr(self.epsilon_hat),
            "composite_bound": repr(self.composite_bound),
            "contraction_flag": self.contraction_flag,
            "bound_certifies_contraction": self.bound_certifies_contraction,
            "idempotence_defect": repr(self.idempotence_defect),
            "n_unit_eigenvalues": self.n_unit_eigenvalues,
            "n_zero_eigenvalues": self.n_zero_eigenvalues,
        }

    def write(self, path: str) -> None:
        tensorio.write_kv(path, self.to_kv())


def build_report(
    sigma_hat: float,
    epsilon_hat: float,
    spectrum: SpectrumReport,
    eig_tol: float = 1e-8,
) -> LipschitzReport:
    bound = gap_lipschitz_bound(epsilon_hat, spectrum.eigenvalues)
    eigs = spectrum.eigenvalues
    return LipschitzReport(
        sigma_hat=sigma_hat,
        epsilon_hat=epsilon_hat,
        composite_bound=bound,
        contraction_flag=sigma_hat < 1.0,
        bound_certifies_contraction=bound < 1.0,
        idempotence_defect=spectrum.idempotence_defect,
        n_unit_eigenvalues=int(np.sum(np.abs(eigs - 1.0) <= eig_tol)),
        n_zero_eigenvalues=int(np.sum(np.abs(eigs) <= eig_tol)),
    )
