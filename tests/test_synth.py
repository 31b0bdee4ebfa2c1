import numpy as np
import pytest

from vsci.synth import SCENE_KINDS, SyntheticScene, synth_video


@pytest.mark.parametrize("shape", [(12, 10, 4), (1, 1, 1), (5, 17, 2)])
@pytest.mark.parametrize("kind", SCENE_KINDS)
def test_shape_dtype_and_range(kind, shape):
    h, w, b = shape
    cube = synth_video(SyntheticScene(kind=kind, seed=3, h=h, w=w, b=b))
    assert cube.shape == shape
    assert cube.dtype == np.float64
    assert np.all((cube >= 0.0) & (cube <= 1.0))


@pytest.mark.parametrize("kind", SCENE_KINDS)
def test_seed_determines_the_scene(kind):
    def make(seed):
        return synth_video(SyntheticScene(kind=kind, seed=seed, h=16, w=16, b=3))

    assert np.array_equal(make(5), make(5))
    assert not np.array_equal(make(5), make(6))


def test_unknown_kind_rejected():
    with pytest.raises(ValueError, match="kind"):
        SyntheticScene(kind="no_such_scene", seed=0, h=4, w=4, b=2)


@pytest.mark.parametrize("shape", [(0, 4, 2), (4, 0, 2), (4, 4, 0), (-1, 4, 2)])
@pytest.mark.parametrize("kind", SCENE_KINDS)
def test_dims_below_one_rejected(kind, shape):
    h, w, b = shape
    with pytest.raises(ValueError, match="dims"):
        SyntheticScene(kind=kind, seed=0, h=h, w=w, b=b)
