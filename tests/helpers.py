"""Independent dense-matrix oracles and measurement helpers for the test suite.

The oracles build the sensing operator explicitly as an n x nB matrix of
concatenated diagonals, a conv layer as the dense matrix of its columns, the
TV objective from plain differences, and the bouncing-dots scene one exp per
pixel, staying independent of the code paths they check.
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


class Float64Mask:
    """sci's operator formulas applied to `mask.frames.astype(np.float64)`:
    the oracle that a bool-held mask must match bitwise. q is the plain
    float64 einsum, and the dead-pixel policy is applied as the mask's
    docstring states it."""

    def __init__(self, mask):
        self.m = mask.frames.astype(np.float64)
        self.q = np.einsum("hwb,hwb->hw", self.m, self.m)
        self.q_eff = np.maximum(self.q, mask.floor_tau) if mask.policy == "floor" else self.q

    def forward(self, x):
        return np.einsum("hwb,hwb->hw", self.m, x)

    def adjoint(self, y):
        return self.m * y[:, :, None]

    def gap_project(self, y, v):
        return self.m * ((y - self.forward(v)) / self.q_eff)[:, :, None] + v

    def project_null(self, w):
        return w - self.m * (self.forward(w) / self.q_eff)[:, :, None]

    def spectrum(self):
        """(eigenvalues sorted descending, idempotence defect)."""
        lam = (self.q / self.q_eff).ravel()
        eigs = np.zeros(self.m.size)
        eigs[: lam.size] = np.sort(lam)[::-1]
        return eigs, float(np.linalg.norm(lam * lam - lam))


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


def direct_bouncing_dots(scene) -> np.ndarray:
    """The bouncing-dots cube summed one dot at a time, one exp per pixel,
    dot and frame, then clipped to [0, 1]: the per-pixel form of the
    separable scene that vsci.synth draws."""
    rng = np.random.default_rng(scene.seed)
    h, w, b = scene.h, scene.w, scene.b
    ndots = int(rng.integers(3, 6))
    pos = rng.random((ndots, 2)) * [h - 1, w - 1]
    ang = rng.random(ndots) * 2 * np.pi
    vel = np.stack([np.cos(ang), np.sin(ang)], axis=1)
    sig = max(1.0, h / 16.0)
    ii = np.arange(h)[:, None]
    jj = np.arange(w)[None, :]
    frames = []
    for _ in range(b):
        img = np.zeros((h, w))
        for d in range(ndots):
            img += np.exp(-((ii - pos[d, 0]) ** 2 + (jj - pos[d, 1]) ** 2) / (2 * sig * sig))
        frames.append(np.clip(img, 0.0, 1.0))
        pos = pos + vel
        for axis, limit in ((0, h - 1), (1, w - 1)):
            over = pos[:, axis] > limit
            pos[over, axis] = 2 * limit - pos[over, axis]
            vel[over, axis] *= -1
            under = pos[:, axis] < 0
            pos[under, axis] = -pos[under, axis]
            vel[under, axis] *= -1
    return np.clip(np.stack(frames, axis=2), 0.0, 1.0)


def gated_cell_oracle(kernels, biases, gamma, x, v):
    """The gated cell D(x) = x + gamma * sigmoid(z_g) * tanh(z_c) in its
    three-layer layout (input 1 -> C, gate C -> 1, candidate C -> 1), run on
    whole (B, H, W, C) arrays with one untiled conv per layer. Returns D(x),
    J^T v and the parameter VJP in the order input, gate, candidate (each
    kernel, then its bias)."""
    from vsci.conv import (conv_adjoint_input, conv_forward, conv_grad_bias,
                           conv_grad_kernel, sigmoid, softplus)

    (k_in, k_gate, k_cand), (b_in, b_gate, b_cand) = kernels, biases
    u = x.transpose(2, 0, 1)[..., None]
    z_h = conv_forward(u, k_in, b_in)
    h = softplus(z_h)
    g = sigmoid(conv_forward(h, k_gate, b_gate))
    c = np.tanh(conv_forward(h, k_cand, b_cand))
    out = x + gamma * (g * c)[..., 0].transpose(1, 2, 0)
    cot = v.transpose(2, 0, 1)[..., None]
    dz_g = cot * c * g * (1.0 - g)
    dz_c = cot * g * (1.0 - c * c)
    dz_h = (conv_adjoint_input(dz_g, k_gate) + conv_adjoint_input(dz_c, k_cand)) * sigmoid(z_h)
    vjp = v + gamma * conv_adjoint_input(dz_h, k_in)[..., 0].transpose(1, 2, 0)
    grads = []
    for a, d, k in zip((u, h, h), (dz_h, dz_g, dz_c), kernels):
        grads += [conv_grad_kernel(a, d, k.shape[2], k.shape[3]).ravel(), conv_grad_bias(d)]
    return out, vjp, gamma * np.concatenate(grads)


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
