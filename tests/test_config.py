import pytest

from vsci.config import read_config
from vsci.errors import ConfigError


@pytest.mark.parametrize("key", ["solver.record_trace", "solver.tolerance", "tol"])
def test_unknown_key_raises(tmp_path, key):
    path = tmp_path / "run.cfg"
    path.write_text(f"solver.tol = 1e-3\n{key} = 1\n", encoding="utf-8")
    with pytest.raises(ConfigError, match=key):
        read_config(str(path))
