"""Deterministic synthetic videos for desk-scale experiments; objects move 1 px per frame."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

SCENE_KINDS = ("moving_square", "bouncing_dots")


@dataclass
class SyntheticScene:
    kind: str
    seed: int
    h: int
    w: int
    b: int

    def __post_init__(self):
        if self.kind not in SCENE_KINDS:
            raise ValueError(f"unknown scene kind {self.kind!r}")
        if min(self.h, self.w, self.b) < 1:
            raise ValueError("scene dims must be >= 1")


def _moving_square(scene: SyntheticScene) -> np.ndarray:
    rng = np.random.default_rng(scene.seed)
    h, w, b = scene.h, scene.w, scene.b
    side = max(2, h // 3 + int(rng.integers(-h // 8 - 1, h // 8 + 1)))
    top = int(rng.integers(0, h))
    left = int(rng.integers(0, w))
    hi = 0.85 + 0.1 * rng.random()
    lo = 0.05 + 0.05 * rng.random()
    frame0 = np.full((h, w), lo)
    rows = (top + np.arange(side)) % h
    cols = (left + np.arange(side)) % w
    frame0[np.ix_(rows, cols)] = hi
    return np.stack([np.roll(frame0, (k, k), axis=(0, 1)) for k in range(b)], axis=2)


def _bouncing_dots(scene: SyntheticScene) -> np.ndarray:
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
    return np.stack(frames, axis=2)


def synth_video(scene: SyntheticScene) -> np.ndarray:
    """Deterministic (H, W, B) cube with values in [0, 1]."""
    gen = {
        "moving_square": _moving_square,
        "bouncing_dots": _bouncing_dots,
    }[scene.kind]
    cube = gen(scene)
    return np.clip(cube, 0.0, 1.0)
