import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import signal, special

import vsci.conv
from helpers import dense_conv_matrix, traced_peak
from vsci.conv import (
    Grid,
    conv_adjoint_input,
    conv_forward,
    conv_grad_bias,
    conv_grad_kernel,
    conv_operator_sigma,
    sigmoid,
    softplus,
)


def _rand(shape, seed):
    return np.random.default_rng(seed).standard_normal(shape)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 1000))
def test_input_adjoint_identity(seed):
    x = _rand((2, 5, 6, 3), seed)
    k = _rand((4, 3, 3, 3), seed + 1)
    v = _rand((2, 5, 6, 4), seed + 2)
    lhs = float(np.sum(conv_forward(x, k) * v))
    rhs = float(np.sum(x * conv_adjoint_input(v, k)))
    assert abs(lhs - rhs) <= 1e-10 * (abs(lhs) + 1.0)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 1000))
def test_kernel_adjoint_identity(seed):
    x = _rand((1, 4, 4, 2), seed)
    k = _rand((3, 2, 3, 3), seed + 1)
    v = _rand((1, 4, 4, 3), seed + 2)
    lhs = float(np.sum(conv_forward(x, k) * v))
    rhs = float(np.sum(k * conv_grad_kernel(x, v, 3, 3)))
    assert abs(lhs - rhs) <= 1e-10 * (abs(lhs) + 1.0)


def test_bias_grad_is_sum():
    v = _rand((2, 3, 3, 4), 0)
    np.testing.assert_allclose(conv_grad_bias(v), v.sum(axis=(0, 1, 2)))


def test_dense_matrix_agrees_with_operator():
    k = _rand((2, 3, 3, 3), 7)
    mat = dense_conv_matrix(k, 5, 4)
    x = _rand((1, 5, 4, 3), 8)
    np.testing.assert_allclose(mat @ x.ravel(), conv_forward(x, k).ravel(), atol=1e-12)


def test_power_iteration_matches_svd():
    k = _rand((2, 2, 3, 3), 3)
    u0 = _rand((6, 6, 2), 4)
    sigma, _ = conv_operator_sigma(k, u0, 60)
    dense_sigma = np.linalg.svd(dense_conv_matrix(k, 6, 6), compute_uv=False)[0]
    assert abs(sigma - dense_sigma) <= 1e-3 * dense_sigma


def test_zero_operator_sigma_zero():
    k = np.zeros((1, 1, 3, 3))
    u0 = _rand((4, 4, 1), 0)
    sigma, u = conv_operator_sigma(k, u0, 5)
    assert sigma == 0.0
    np.testing.assert_array_equal(u, u0)


def test_softplus_sigmoid_consistent():
    z = np.linspace(-30, 30, 101)
    h = 1e-6
    numeric = (softplus(z + h) - softplus(z - h)) / (2 * h)
    np.testing.assert_allclose(sigmoid(z), numeric, atol=1e-6)
    assert sigmoid(np.array([800.0]))[0] == 1.0  # no overflow
    assert sigmoid(np.array([-800.0]))[0] == 0.0


# (C_out, C_in): every conv path
CHANNELS = [(1, 1), (8, 1), (1, 8), (8, 8), (4, 3), (2, 8), (8, 2)]
KERNELS = [(1, 1), (3, 3), (5, 5), (3, 5)]


def _check_against_scipy(shape, c_out, c_in, kh, kw):
    x = _rand(shape + (c_in,), 11)
    k = _rand((c_out, c_in, kh, kw), 12)
    b = _rand((c_out,), 13)
    v = _rand(shape + (c_out,), 14)
    xp = np.pad(x, ((0, 0), (kh // 2, kh // 2), (kw // 2, kw // 2), (0, 0)))
    fwd = np.zeros_like(v) + b
    adj = np.zeros_like(x)
    gk = np.zeros_like(k)
    # Per channel pair, zero-padded "same": forward is a correlation, its input
    # adjoint a convolution, and its kernel adjoint a "valid" correlation with v.
    for f in range(x.shape[0]):
        for o in range(c_out):
            for c in range(c_in):
                fwd[f, :, :, o] += signal.correlate(x[f, :, :, c], k[o, c], mode="same", method="direct")
                adj[f, :, :, c] += signal.convolve(v[f, :, :, o], k[o, c], mode="same", method="direct")
                gk[o, c] += signal.correlate(xp[f, :, :, c], v[f, :, :, o], mode="valid", method="direct")
    tol = dict(rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(conv_forward(x, k, b), fwd, **tol)
    np.testing.assert_allclose(conv_adjoint_input(v, k), adj, **tol)
    np.testing.assert_allclose(conv_grad_kernel(x, v, kh, kw), gk, **tol)


@pytest.mark.parametrize("kh, kw", KERNELS)
@pytest.mark.parametrize("c_out, c_in", CHANNELS)
def test_conv_matches_scipy_oracle(c_out, c_in, kh, kw):
    _check_against_scipy((2, 7, 6), c_out, c_in, kh, kw)


# Frames share the zero rows between them: three frames put one between two
# borders, and frames of 1 or 2 rows are shorter than a 5-tap kernel's reach.
# No frames at all give empty outputs and a zero kernel gradient.
@pytest.mark.parametrize("shape", [(3, 5, 4), (4, 1, 3), (3, 2, 1), (0, 5, 4)],
                         ids=["3x5x4", "4x1x3", "3x2x1", "0x5x4"])
@pytest.mark.parametrize("kh, kw", [(3, 3), (5, 5), (5, 3)])
@pytest.mark.parametrize("c_out, c_in", CHANNELS)
def test_conv_matches_scipy_oracle_on_many_frames(c_out, c_in, kh, kw, shape):
    _check_against_scipy(shape, c_out, c_in, kh, kw)


def test_grid_window_reads_its_neighbour_rows():
    # rows 2..4 of a grid, computed alone, equal those rows of the whole conv
    x, k = _rand((2, 7, 6, 3), 15), _rand((4, 3, 3, 5), 16)
    src, out = Grid.of(x, 2), Grid.zeros(2, 7, 6, 4, 2)
    window = conv_forward(src.rows(2, 5), k, np.ones(4), out=out)
    assert window.shape == (2, 3, 6, 4)
    np.testing.assert_array_equal(window.view(), conv_forward(x, k, np.ones(4))[:, 2:5])
    with pytest.raises(ValueError, match="border"):
        conv_forward(Grid.of(x, 1), k, out=out)


@pytest.mark.parametrize("kh, kw", [(2, 2), (3, 2), (2, 3), (4, 4)])
def test_even_kernel_rejected(kh, kw):
    x = _rand((1, 5, 5, 1), 0)
    with pytest.raises(ValueError, match="odd"):
        conv_forward(x, np.ones((1, 1, kh, kw)))
    with pytest.raises(ValueError, match="odd"):
        conv_grad_kernel(x, _rand((1, 5, 5, 1), 1), kh, kw)


def test_activations_at_extremes():
    z = np.array([800.0, -800.0, 1e300, -1e300, 0.0, 5e-324, -5e-324])
    with np.errstate(all="raise"):
        sp, sg = softplus(z), sigmoid(z)
    assert sp.dtype == np.float64 and sg.dtype == np.float64
    assert np.all((sg >= 0.0) & (sg <= 1.0))
    np.testing.assert_array_equal(sg[:4], [1.0, 0.0, 1.0, 0.0])
    ref = np.logaddexp(0.0, z)
    assert np.all(np.abs(sp - ref) <= 1e-15 * np.maximum(1.0, np.abs(z)))


def test_activations_match_references_on_dense_grid():
    z = np.concatenate([np.linspace(-800.0, 800.0, 160_001), np.linspace(-40.0, 40.0, 80_001)])
    with np.errstate(all="raise"):
        sp, sg = softplus(z), sigmoid(z)
    assert np.all(np.abs(sp - np.logaddexp(0.0, z)) <= 1e-15 * np.maximum(1.0, np.abs(z)))
    # expit and sigmoid may round differently in the subnormal range.
    np.testing.assert_allclose(sg, special.expit(z), rtol=1e-15, atol=np.finfo(np.float64).tiny)
    assert np.all((sg >= 0.0) & (sg <= 1.0))


# One case per conv path, forward and adjoint: im2col with a bias (C_in <= 2),
# narrowing into the output (C_out = 1) or into an accumulator (C_out = 2),
# and per tap (C_out >= C_in > 2).
@pytest.mark.parametrize("c_out, c_in, bias", [(8, 1, True), (1, 8, False), (2, 8, True),
                                               (4, 3, False)],
                         ids=["im2col", "narrow", "narrow-acc", "per-tap"])
def test_scratch_gives_the_bits_of_fresh_temporaries(monkeypatch, c_out, c_in, bias):
    x, k = _rand((2, 16, 16, c_in), 20), _rand((c_out, c_in, 3, 3), 21)
    b = _rand(c_out, 22) if bias else None
    v = _rand((2, 16, 16, c_out), 23)
    got = conv_forward(x, k, b), conv_adjoint_input(v, k), softplus(x)
    monkeypatch.setattr(vsci.conv, "SCRATCH_CAP", 0)
    want = conv_forward(x, k, b), conv_adjoint_input(v, k), softplus(x)
    for g, w in zip(got, want):
        assert np.array_equal(g, w)


def test_small_conv_and_softplus_allocate_no_temporary():
    # a 32x32x4 layer's im2col block (351 KB) and exp(-|z|) (281 KB) come
    # from the thread's scratch, which the first call sizes
    x, k, b = _rand((4, 32, 32, 1), 24), _rand((8, 1, 3, 3), 25), np.ones(8)
    src, out = Grid.of(x, 1), Grid.zeros(4, 32, 32, 8, 1)
    conv_forward(src, k, b, out=out)
    z = out.region()
    softplus(z, out=z)
    assert traced_peak(conv_forward, src, k, b, out) <= 4096
    assert traced_peak(softplus, z, z) <= 4096


def test_conv_above_the_scratch_cap_keeps_no_buffer():
    x, k = _rand((8, 64, 64, 1), 26), _rand((8, 1, 3, 3), 27)  # im2col: 10 x 35k floats
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        y = conv_forward(x, k)
        del y
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert kept <= 4096


def test_threads_keep_their_own_scratch():
    xs = [_rand((4, 32, 32, 1), 30 + i) for i in range(4)]
    k = _rand((8, 1, 3, 3), 40)
    want = [conv_forward(x, k) for x in xs]
    with ThreadPoolExecutor(4) as pool:
        for _ in range(5):
            got = list(pool.map(lambda x: conv_forward(x, k), xs))
            assert all(np.array_equal(g, w) for g, w in zip(got, want))
