"""Flat key=value run configuration shared by the CLI subcommands.

Files are tensorio.read_kv text: UTF-8, one `key = value` per line, '#'
starts a comment. Keys are namespaced (solver.*, train.*, bench.*). `vsci
reconstruct` reads solver.* (only solver.tol and solver.max_iter under
Picard or pnp-gap), `vsci train` solver.* and train.*, `vsci gradcheck`
solver.max_iter, solver.anderson_*, train.backward_mode,
train.neumann_order and train.backward_max_iter (its --solve-tol sets both
tolerances), and `vsci bench` bench.* (table: cli.RUN_READS). Unknown keys,
and keys the run does not read, are refused by name; CLI flags override
file values.
"""

from __future__ import annotations

from . import tensorio
from .errors import ConfigError, TensorFileError


# key -> (type, default, help)
KNOWN_KEYS = {
    "solver.tol": (float, 1e-6, "relative-residual stopping threshold"),
    "solver.max_iter": (int, 150, "iteration cap K"),
    "solver.anderson_memory": (int, 3, "history length s"),
    "solver.anderson_damping": (float, 1.0, "mixing damping delta in (0,1]"),
    "solver.anderson_reg": (float, 1e-8, "relative Tikhonov weight in the alpha solve"),
    "train.epochs": (int, 30, "training epochs"),
    "train.lr": (float, 1e-3, "learning rate"),
    "train.lr_decay": (float, 0.1, "fractional decay applied every lr_decay_every epochs"),
    "train.lr_decay_every": (int, 10, "epochs between decays"),
    "train.momentum": (float, 0.0, "SGD momentum"),
    "train.backward_mode": (str, "fixed_point", "fixed_point | neumann"),
    "train.neumann_order": (int, 8, "series order for neumann backward"),
    "train.backward_tol": (float, 1e-8, "adjoint solve tolerance"),
    "train.backward_max_iter": (int, 100, "adjoint solve iteration cap"),
    "train.seed": (int, 0, "shuffling / init seed"),
    "bench.mask_seed": (int, 0, "mask generator seed"),
    "bench.mask_kind": (str, "bernoulli", "bernoulli | all_ones"),
    "bench.mask_p": (float, 0.5, "bernoulli mask density"),
    "bench.mask_policy": (str, "floor", "dead-pixel policy: reject | floor"),
    "bench.noise_sigma": (float, 0.0, "measurement noise level"),
    "bench.noise_seed": (int, 1234, "measurement noise seed"),
    "bench.max_iter": (int, 100, "iterations per method"),
    "bench.tol": (float, 0.0, "early-stop tolerance (0 = run full budget)"),
    "bench.solver": (str, "anderson", "picard | anderson"),
    "bench.tv_iters": (int, 30, "inner TV iterations for the pnp_gap baseline"),
    "bench.timing": (str, "wall", "wall | none (none = bitwise-reproducible CSVs)"),
}


def defaults() -> dict:
    return {k: spec[1] for k, spec in KNOWN_KEYS.items()}


def parse_value(key: str, raw: str):
    if key not in KNOWN_KEYS:
        raise ConfigError(f"unknown config key: {key}")
    typ = KNOWN_KEYS[key][0]
    try:
        return typ(raw)
    except ValueError as exc:
        raise ConfigError(f"bad value for {key}: {raw!r} ({exc})") from exc


def read_config(path: str) -> dict:
    """The file's entries only, each parsed; an unknown key, a line without
    '=' and an unreadable file raise ConfigError."""
    try:
        entries = tensorio.read_kv(path)
    except (OSError, TensorFileError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return {key: parse_value(key, raw) for key, raw in entries.items()}


def help_text() -> str:
    rows = [f"  {k}  (default {spec[1]!r}): {spec[2]}" for k, spec in KNOWN_KEYS.items()]
    return "config keys (file via --config, overridable by flags):\n" + "\n".join(rows)
