import pytest

from vsci.config import KNOWN_KEYS, defaults, dump_config, load_config
from vsci.errors import ConfigError


def test_dump_load_round_trips(tmp_path):
    cfg = defaults()
    cfg.update({"solver.tol": 0.1 + 0.2, "solver.max_iter": 7, "train.lr": 1e-300,
                "bench.solver": "picard", "bench.timing": "none"})
    path = str(tmp_path / "run.cfg")
    dump_config(cfg, path)
    loaded = load_config(path)
    assert loaded == cfg
    assert all(type(loaded[k]) is KNOWN_KEYS[k][0] for k in KNOWN_KEYS)


@pytest.mark.parametrize("key", ["solver.record_trace", "solver.tolerance", "tol"])
def test_unknown_key_raises(tmp_path, key):
    path = tmp_path / "run.cfg"
    path.write_text(f"solver.tol = 1e-3\n{key} = 1\n", encoding="utf-8")
    with pytest.raises(ConfigError, match=key):
        load_config(str(path))
