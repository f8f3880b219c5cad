"""Unit tests for the low-level tensor ops (im2col conv, pooling)."""

import numpy as np
import pytest

from repro.nn import ops


def conv2d_reference(x, kernel, stride=1, padding="valid"):
    """Direct-loop convolution used as an oracle for the im2col path."""
    kh, kw, c_in, c_out = kernel.shape
    n, h, w, _ = x.shape
    if padding == "same":
        ph, pw = ops.same_padding(h, kh, stride), ops.same_padding(w, kw, stride)
        x = np.pad(x, ((0, 0), ph, pw, (0, 0)))
        h, w = x.shape[1], x.shape[2]
    oh = (h - kh) // stride + 1
    ow = (w - kw) // stride + 1
    out = np.zeros((n, oh, ow, c_out), dtype=np.float64)
    for b in range(n):
        for i in range(oh):
            for j in range(ow):
                patch = x[b, i * stride:i * stride + kh, j * stride:j * stride + kw, :]
                for f in range(c_out):
                    out[b, i, j, f] = (patch * kernel[:, :, :, f]).sum()
    return out


@pytest.mark.parametrize("stride", [1, 2])
@pytest.mark.parametrize("padding", ["valid", "same"])
@pytest.mark.parametrize("kernel_size", [1, 3, 5])
def test_conv2d_matches_reference(rng, stride, padding, kernel_size):
    x = rng.standard_normal((2, 9, 9, 3)).astype(np.float32)
    kernel = rng.standard_normal((kernel_size, kernel_size, 3, 4)).astype(np.float32)
    got = ops.conv2d(x, kernel, stride, padding)
    want = conv2d_reference(x, kernel, stride, padding)
    np.testing.assert_allclose(got, want, rtol=1e-4, atol=1e-4)


def test_conv_output_size():
    assert ops.conv_output_size(28, 5, 1, 0) == 24
    assert ops.conv_output_size(28, 5, 1, 4) == 28
    assert ops.conv_output_size(32, 3, 2, 2) == 16


def test_same_padding_keeps_size_stride1(rng):
    x = rng.standard_normal((1, 11, 7, 2)).astype(np.float32)
    kernel = rng.standard_normal((3, 3, 2, 5)).astype(np.float32)
    out = ops.conv2d(x, kernel, stride=1, padding="same")
    assert out.shape == (1, 11, 7, 5)


def test_same_padding_ceil_division(rng):
    x = rng.standard_normal((1, 11, 11, 1)).astype(np.float32)
    kernel = rng.standard_normal((3, 3, 1, 1)).astype(np.float32)
    out = ops.conv2d(x, kernel, stride=2, padding="same")
    assert out.shape == (1, 6, 6, 1)


def test_im2col_col2im_adjoint(rng):
    """<im2col(x), y> == <x, col2im(y)> — the pair must be exact adjoints
    for conv backward to be a true gradient."""
    x = rng.standard_normal((2, 6, 6, 3)).astype(np.float64)
    cols, (oh, ow) = ops.im2col(x, 3, 3, stride=1, padding="valid")
    y = rng.standard_normal(cols.shape)
    lhs = float((cols * y).sum())
    xback = ops.col2im(y, x.shape, 3, 3, stride=1, padding="valid")
    rhs = float((x * xback).sum())
    assert abs(lhs - rhs) < 1e-8


def test_conv2d_backward_numeric(rng):
    from gradcheck import numerical_gradient

    x = rng.standard_normal((2, 5, 5, 2)).astype(np.float64)
    kernel = rng.standard_normal((3, 3, 2, 3)).astype(np.float64)
    probe = rng.standard_normal((2, 3, 3, 3))

    def loss():
        return float((ops.conv2d(x, kernel) * probe).sum())

    dx, dk = ops.conv2d_backward(probe, x, kernel)
    np.testing.assert_allclose(dx, numerical_gradient(loss, x), rtol=1e-4, atol=1e-6)
    np.testing.assert_allclose(dk, numerical_gradient(loss, kernel), rtol=1e-4, atol=1e-6)


def test_maxpool_forward_and_mask(rng):
    x = np.array([[[[1.0], [2.0]], [[3.0], [4.0]]]])  # (1,2,2,1)
    out, mask = ops.maxpool2d(x, 2)
    assert out.shape == (1, 1, 1, 1)
    assert out[0, 0, 0, 0] == 4.0
    assert mask.sum() == 1
    assert mask[0, 1, 1, 0] == 1


def test_maxpool_tie_breaking_single_winner():
    x = np.ones((1, 4, 4, 2))
    out, mask = ops.maxpool2d(x, 2)
    assert out.shape == (1, 2, 2, 2)
    # exactly one winner per window per channel even with all-equal values
    assert mask.sum() == 2 * 2 * 2


def test_maxpool_backward_routes_gradient(rng):
    x = rng.standard_normal((2, 4, 4, 3))
    out, mask = ops.maxpool2d(x, 2)
    dout = np.ones_like(out)
    dx = ops.maxpool2d_backward(dout, mask, 2)
    assert dx.shape == x.shape
    assert dx.sum() == out.size  # each window routes exactly its gradient


def test_maxpool_rejects_nondivisible():
    with pytest.raises(ValueError):
        ops.maxpool2d(np.zeros((1, 5, 4, 1)), 2)
    with pytest.raises(ValueError):
        ops.maxpool2d(np.zeros((1, 4, 6, 1)), 4, with_mask=False)


def _assert_bit_identical(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(np.signbit(got), np.signbit(want))


@pytest.mark.parametrize("size", [1, 2, 3])
@pytest.mark.parametrize("values", ["random", "ties", "inf", "signed_zeros"])
def test_inference_maxpool_matches_mask_path(rng, size, values):
    """The mask-free inference path is bit-identical to the training path
    (which reduces over the 6-D window view), ±0.0 and ±inf included."""
    shape = (3, 4 * size, 2 * size, 5)
    if values == "random":
        x = rng.standard_normal(shape)
    elif values == "ties":
        x = rng.integers(-2, 3, size=shape).astype(np.float64)
    elif values == "inf":
        x = rng.choice([-np.inf, -1.0, 0.0, 1.0, np.inf], size=shape)
    else:
        x = rng.choice([-0.0, 0.0], size=shape)
    for dtype in (np.float32, np.float64):
        typed = x.astype(dtype)
        fast, mask = ops.maxpool2d(typed, size, with_mask=False)
        reference, _ = ops.maxpool2d(typed, size, with_mask=True)
        assert mask is None
        _assert_bit_identical(fast, reference)


def test_inference_maxpool_returns_a_new_array(rng):
    x = rng.standard_normal((2, 4, 4, 3)).astype(np.float32)
    x.flags.writeable = False
    out, _ = ops.maxpool2d(x, 1, with_mask=False)
    assert not np.shares_memory(out, x) and out.flags.writeable


def test_avgpool_roundtrip(rng):
    x = rng.standard_normal((2, 4, 4, 3))
    out = ops.avgpool2d(x, 2)
    np.testing.assert_allclose(out[0, 0, 0], x[0, :2, :2].mean(axis=(0, 1)))
    dx = ops.avgpool2d_backward(np.ones_like(out), 2)
    np.testing.assert_allclose(dx, np.full_like(x, 0.25))
