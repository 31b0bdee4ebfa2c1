"""Flat key=value run configuration shared by the CLI subcommands.

Files are tensorio.read_kv text: UTF-8, one `key = value` per line, '#'
starts a comment. A key is `section.field`: solver.* sets a
fixed_point.FixedPointConfig field, train.* a training.TrainConfig field
and bench.* a bench.BenchSpec field, and that field's default gives the
key's type and default. Unknown keys are refused by name; cli.RUN_READS
says which keys each run reads, and CLI flags override file values.
"""

from __future__ import annotations

from dataclasses import fields

from . import tensorio
from .bench import BenchSpec
from .errors import ConfigError, TensorFileError
from .fixed_point import FixedPointConfig
from .training import TrainConfig

_SECTIONS = {"solver": FixedPointConfig, "train": TrainConfig, "bench": BenchSpec}

# key -> help
KNOWN_KEYS = {
    "solver.tol": "relative-residual stopping threshold",
    "solver.max_iter": "iteration cap K",
    "solver.anderson_memory": "history length s",
    "solver.anderson_damping": "mixing damping delta in (0,1]",
    "solver.anderson_reg": "relative Tikhonov weight in the alpha solve",
    "train.epochs": "training epochs",
    "train.lr": "learning rate",
    "train.lr_decay": "fractional decay applied every lr_decay_every epochs",
    "train.lr_decay_every": "epochs between decays",
    "train.momentum": "SGD momentum",
    "train.backward_mode": "fixed_point | neumann",
    "train.neumann_order": "series order for neumann backward",
    "train.backward_tol": "adjoint solve tolerance",
    "train.backward_max_iter": "adjoint solve iteration cap",
    "train.seed": "shuffling / init seed",
    "bench.mask_seed": "mask generator seed",
    "bench.mask_kind": "bernoulli | all_ones",
    "bench.mask_p": "bernoulli mask density",
    "bench.mask_policy": "dead-pixel policy: reject | floor",
    "bench.noise_sigma": "measurement noise level",
    "bench.noise_seed": "measurement noise seed",
    "bench.max_iter": "iterations per method",
    "bench.tol": "early-stop tolerance (0 = run full budget)",
    "bench.solver": "picard | anderson",
    "bench.tv_iters": "inner TV iterations for the pnp_gap baseline",
    "bench.timing": "wall | none (none = bitwise-reproducible CSVs)",
}


def defaults() -> dict:
    """Each key's default: that of the field the key names."""
    by_key = {f"{section}.{f.name}": f.default
              for section, cls in _SECTIONS.items() for f in fields(cls)}
    return {key: by_key[key] for key in KNOWN_KEYS}


def parse_value(key: str, raw: str):
    """raw as the type of the key's default."""
    if key not in KNOWN_KEYS:
        raise ConfigError(f"unknown config key: {key}")
    try:
        return type(defaults()[key])(raw)
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
    default = defaults()
    rows = [f"  {key}  (default {default[key]!r}): {text}" for key, text in KNOWN_KEYS.items()]
    return "config keys (file via --config, overridable by flags):\n" + "\n".join(rows)
