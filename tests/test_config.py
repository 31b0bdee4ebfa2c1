import dataclasses

import pytest

from vsci.bench import BenchSpec
from vsci.config import KNOWN_KEYS, read_config
from vsci.errors import ConfigError
from vsci.fixed_point import FixedPointConfig
from vsci.training import TrainConfig


@pytest.mark.parametrize("key", ["solver.record_trace", "solver.tolerance", "tol"])
def test_unknown_key_raises(tmp_path, key):
    path = tmp_path / "run.cfg"
    path.write_text(f"solver.tol = 1e-3\n{key} = 1\n", encoding="utf-8")
    with pytest.raises(ConfigError, match=key):
        read_config(str(path))


def test_every_default_is_the_default_of_the_field_it_sets():
    # each default is stated twice, in KNOWN_KEYS and on the dataclass field
    sections = {"solver": FixedPointConfig, "train": TrainConfig, "bench": BenchSpec}
    for key, (typ, default, _) in KNOWN_KEYS.items():
        section, name = key.split(".")
        field = {f.name: f for f in dataclasses.fields(sections[section])}[name]
        assert (type(default), default) == (typ, field.default), key
