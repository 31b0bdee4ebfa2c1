"""Independent dense-matrix oracles and measurement helpers for the test suite.

The oracles build the sensing operator explicitly as an n x nB matrix of
concatenated diagonals, a conv layer as the dense matrix of its columns, and
the TV objective from plain differences, staying independent of the code
paths they check.
"""

import tracemalloc

import numpy as np


def traced_peak(fn, *args) -> int:
    """Peak bytes allocated, as traced by tracemalloc, while fn(*args) runs."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def dense_phi(mask) -> np.ndarray:
    """(n, n*B) matrix; column block k is diag(frame k, row-major flattened)."""
    h, w, b = mask.frames.shape
    n = h * w
    phi = np.zeros((n, n * b))
    for k in range(b):
        phi[:, k * n : (k + 1) * n] = np.diag(mask.frames[:, :, k].ravel())
    return phi


def vec(cube: np.ndarray) -> np.ndarray:
    """Frame-major vectorization matching dense_phi's column order."""
    h, w, b = cube.shape
    return np.concatenate([cube[:, :, k].ravel() for k in range(b)])


def unvec(v: np.ndarray, h: int, w: int, b: int) -> np.ndarray:
    return np.stack([v[k * h * w : (k + 1) * h * w].reshape(h, w) for k in range(b)], axis=2)


def dense_gap_project(mask, y_data: np.ndarray, v_cube: np.ndarray) -> np.ndarray:
    """v + Phi^T (Phi Phi^T)^{-1} (y - Phi v) with an explicit matrix inverse."""
    h, w, b = mask.frames.shape
    phi = dense_phi(mask)
    gram_inv = np.linalg.inv(phi @ phi.T)
    out = vec(v_cube) + phi.T @ (gram_inv @ (y_data.ravel() - phi @ vec(v_cube)))
    return unvec(out, h, w, b)


def dense_projector(mask) -> np.ndarray:
    """P = Phi^T (Phi Phi^T)^{-1} Phi; under the floor policy the Gram
    diagonal is first raised to at least floor_tau."""
    phi = dense_phi(mask)
    gram = phi @ phi.T
    if mask.policy == "floor":
        np.fill_diagonal(gram, np.maximum(np.diag(gram), mask.floor_tau))
    return phi.T @ np.linalg.inv(gram) @ phi


def dense_conv_matrix(kernel: np.ndarray, h: int, w: int) -> np.ndarray:
    """The zero-padded conv operator as a dense (h*w*C_out, h*w*C_in) matrix,
    one conv_forward per basis vector, for SVD checks on small shapes."""
    from vsci.conv import conv_forward

    c_in = kernel.shape[1]
    n_in = h * w * c_in
    cols = []
    for j in range(n_in):
        e = np.zeros(n_in)
        e[j] = 1.0
        cols.append(conv_forward(e.reshape(1, h, w, c_in), kernel).ravel())
    return np.stack(cols, axis=1)


def _tv_grad(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Forward differences per frame on an (H, W, B) stack; zero at the far edge."""
    gx = np.zeros_like(z)
    gy = np.zeros_like(z)
    gx[:, :-1] = z[:, 1:] - z[:, :-1]
    gy[:-1] = z[1:] - z[:-1]
    return gx, gy


def tv_energy(z: np.ndarray, x: np.ndarray, lam: float) -> float:
    """Objective 1/2||z-x||^2 + lam * TV_aniso(z) of the TV prox."""
    gx, gy = _tv_grad(np.asarray(z, dtype=np.float64))
    return 0.5 * float(np.sum((z - x) ** 2)) + lam * float(np.abs(gx).sum() + np.abs(gy).sum())


def sampled_residual_lipschitz(d, seed: int, n_pairs: int, shape: tuple) -> float:
    """Sampled lower bound on the Lipschitz constant of D - I: the largest
    ||(D-I)(x) - (D-I)(x')|| / ||x - x'|| over n_pairs pairs drawn uniformly
    from [0, 1]^shape."""
    rng = np.random.default_rng(seed)
    best = 0.0
    for _ in range(n_pairs):
        x = rng.random(shape)
        xp = rng.random(shape)
        rx = d.denoise(x) - x
        rxp = d.denoise(xp) - xp
        best = max(best, float(np.linalg.norm(rx - rxp) / np.linalg.norm(x - xp)))
    return best


def random_mask(seed, h, w, b, p=0.5):
    """Bernoulli mask with no dead pixels (resampled per pixel if needed)."""
    from vsci.sci import SensingMask

    rng = np.random.default_rng(seed)
    frames = (rng.random((h, w, b)) < p).astype(float)
    dead = frames.sum(axis=2) == 0
    while dead.any():
        frames[dead] = (rng.random((int(dead.sum()), b)) < p).astype(float)
        dead = frames.sum(axis=2) == 0
    return SensingMask(frames=frames)


def numeric_cell_count(n: int) -> np.ndarray:
    return np.arange(n, dtype=float)
