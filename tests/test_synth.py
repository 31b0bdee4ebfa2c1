import numpy as np
import pytest

from helpers import direct_bouncing_dots, traced_peak
from vsci.synth import SCENE_KINDS, SyntheticScene, synth_video


@pytest.mark.parametrize("shape", [(12, 10, 4), (1, 1, 1), (5, 17, 2), (256, 256, 8), (40, 300, 3)])
@pytest.mark.parametrize("kind", SCENE_KINDS)
def test_shape_dtype_and_range(kind, shape):
    h, w, b = shape
    cube = synth_video(SyntheticScene(kind=kind, seed=3, h=h, w=w, b=b))
    assert cube.shape == shape
    assert cube.dtype == np.float64
    assert np.all((cube >= 0.0) & (cube <= 1.0))


@pytest.mark.parametrize("kind", SCENE_KINDS)
def test_seed_determines_the_scene(kind):
    for h, w, b in ((16, 16, 3), (256, 256, 8)):
        first, again, other = (synth_video(SyntheticScene(kind=kind, seed=s, h=h, w=w, b=b))
                               for s in (5, 5, 6))
        assert np.array_equal(first, again)
        assert not np.array_equal(first, other)


@pytest.mark.parametrize("shape", [(256, 256, 8), (64, 64, 8), (32, 32, 4), (5, 17, 2), (2, 300, 3), (1, 1, 1)])
def test_bouncing_dots_matches_the_per_pixel_sum(shape):
    """The separable factors reorder the rounding only: every value lies
    within 1e-15 of the one-exp-per-pixel oracle. The non-square shapes
    catch swapped row and column factors."""
    h, w, b = shape
    for seed in range(30):
        scene = SyntheticScene(kind="bouncing_dots", seed=seed, h=h, w=w, b=b)
        np.testing.assert_allclose(synth_video(scene), direct_bouncing_dots(scene), rtol=0, atol=1e-15)


def test_bouncing_dots_holds_no_extra_cube():
    """The frame list, its stack and the final clip make two cubes; the
    (ndots, H) and (ndots, W) factors add no third."""
    scene = SyntheticScene(kind="bouncing_dots", seed=0, h=256, w=256, b=8)
    synth_video(scene)
    assert traced_peak(synth_video, scene) <= 2.25 * 256 * 256 * 8 * 8


def test_unknown_kind_rejected():
    with pytest.raises(ValueError, match="kind"):
        SyntheticScene(kind="no_such_scene", seed=0, h=4, w=4, b=2)


@pytest.mark.parametrize("shape", [(0, 4, 2), (4, 0, 2), (4, 4, 0), (-1, 4, 2)])
@pytest.mark.parametrize("kind", SCENE_KINDS)
def test_dims_below_one_rejected(kind, shape):
    h, w, b = shape
    with pytest.raises(ValueError, match="dims"):
        SyntheticScene(kind=kind, seed=0, h=h, w=w, b=b)
