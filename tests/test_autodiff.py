import copy

import numpy as np
import pytest

from conftest import finite_difference_gradient, gradcheck
from replaycm import autodiff as ad
from replaycm.autodiff import BatchNorm2d, Tensor
from replaycm.errors import ContractError, ShapeError


def test_conv2d_hand_example():
    x = Tensor(np.ones((1, 1, 3, 3)))
    k = Tensor(np.ones((1, 1, 3, 3)))
    y = ad.conv2d(x, k, stride=1, pad=1).data[0, 0]
    expected = np.array([[4, 6, 4], [6, 9, 6], [4, 6, 4]], dtype=np.float32)
    assert np.array_equal(y, expected)


def test_relu_backward_signs():
    x = Tensor(np.array([-1.0, 1.0]), requires_grad=True)
    ad.backward(ad.tmean(ad.relu(x)))
    assert x.grad.tolist() == [0.0, 0.5]


def test_global_avg_pool_constant():
    c = 2.5
    x = Tensor(np.full((1, 1, 4, 6), c), requires_grad=True)
    y = ad.global_avg_pool(x)
    assert y.data[0, 0] == pytest.approx(c)
    ad.backward(ad.tmean(y))
    assert np.allclose(x.grad, 1.0 / 24.0)


def test_backward_mean_spreads_evenly(rng):
    x = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
    ad.backward(ad.tmean(x))
    assert np.array_equal(x.grad, np.full((3, 4), 1 / 12))


def test_backward_mean_of_squares(rng):
    x = Tensor(rng.standard_normal((5,)).astype(np.float32), requires_grad=True)
    ad.backward(ad.tmean(ad.mul(x, x)))
    assert np.allclose(x.grad, 2 * x.data / 5, rtol=1e-6)


def test_backward_rejects_non_scalar(rng):
    x = Tensor(rng.standard_normal((3,)), requires_grad=True)
    with pytest.raises(ContractError):
        ad.backward(ad.mul(x, x))


def test_shape_error_names_both_shapes():
    x = Tensor(np.zeros((2, 3)))
    w = Tensor(np.zeros((4, 5)))
    with pytest.raises(ShapeError, match=r"2, 3.*4, 5"):
        ad.linear(x, w, Tensor(np.zeros(4)))


def test_conv_shape_error():
    x = Tensor(np.zeros((1, 2, 4, 4)))
    k = Tensor(np.zeros((1, 3, 3, 3)))
    with pytest.raises(ShapeError):
        ad.conv2d(x, k)


@pytest.mark.parametrize("seed", range(20))
def test_primitive_gradients_finite_difference(seed):
    """Every primitive against central differences, randomized small shapes."""
    rng = np.random.default_rng(seed)
    n, c, h, w = 2, int(rng.integers(1, 4)), int(rng.integers(4, 7)), int(rng.integers(4, 7))
    x4 = rng.standard_normal((n, c, h, w))

    co = int(rng.integers(1, 5))
    kern = Tensor(rng.standard_normal((co, c, 3, 3)), dtype=np.float64)
    stride = int(rng.integers(1, 3))
    gradcheck(lambda t: ad.conv2d(t, kern, stride=stride, pad=1), x4, seed)

    # kernel gradient of conv2d
    xfix = Tensor(x4, dtype=np.float64)
    gradcheck(lambda t: ad.conv2d(xfix, t, stride=1, pad=1),
              rng.standard_normal((co, c, 3, 3)), seed)

    # the 1x1, stride-2, unpadded projection shortcut: input and kernel
    proj = Tensor(rng.standard_normal((co, c, 1, 1)), dtype=np.float64)
    gradcheck(lambda t: ad.conv2d(t, proj, stride=2, pad=0), x4, seed)
    gradcheck(lambda t: ad.conv2d(xfix, t, stride=2, pad=0),
              rng.standard_normal((co, c, 1, 1)), seed)

    # maxpool needs separated values so the argmax never flips under the step
    xm = rng.permutation(n * c * h * w).reshape(n, c, h, w) * 0.05
    gradcheck(lambda t: ad.maxpool2d(t, kernel=3, stride=1, pad=1), xm, seed)
    gradcheck(lambda t: ad.maxpool2d(t, kernel=2, stride=2, pad=0), xm, seed)

    gradcheck(lambda t: ad.global_avg_pool(t), x4, seed)

    d_in, d_out = int(rng.integers(2, 6)), int(rng.integers(2, 6))
    wl = Tensor(rng.standard_normal((d_out, d_in)), dtype=np.float64)
    bl = Tensor(rng.standard_normal(d_out), dtype=np.float64)
    gradcheck(lambda t: ad.linear(t, wl, bl), rng.standard_normal((3, d_in)), seed)

    gradcheck(lambda t: ad.log_softmax(t), rng.standard_normal((4, 3)), seed)

    other = Tensor(rng.standard_normal((3, 4)), dtype=np.float64)
    gradcheck(lambda t: ad.add(t, other), rng.standard_normal((3, 4)), seed)
    gradcheck(lambda t: ad.mul(t, other), rng.standard_normal((3, 4)), seed)
    gradcheck(lambda t: ad.neg(t), rng.standard_normal((3, 4)), seed)
    gradcheck(lambda t: ad.tmean(t), rng.standard_normal((3, 4)), seed)
    gradcheck(lambda t: ad.expm1(t), rng.standard_normal((3, 4)) * 0.5, seed)
    gradcheck(lambda t: ad.pow_scalar(t, 2.0), rng.uniform(0.1, 2.0, (3, 4)), seed)
    gradcheck(lambda t: ad.pow_scalar(t, 0.5), rng.uniform(0.2, 2.0, (3, 4)), seed)

    # relu away from the kink
    xr = rng.uniform(0.05, 1.0, (3, 4)) * rng.choice([-1.0, 1.0], (3, 4))
    gradcheck(lambda t: ad.relu(t), xr, seed)

    idx = rng.integers(0, 3, 4)
    gradcheck(lambda t: ad.gather_rows(t, idx), rng.standard_normal((4, 3)), seed)


def _maxpool_oracle(x, g, kernel, stride, pad):
    """Loop-by-loop max pooling: each window's value and gradient go to its
    first maximal tap in row-major order."""
    n, c, h, w = x.shape
    ho, wo = g.shape[2:]
    out = np.empty(g.shape)
    dx = np.zeros(x.shape)
    for b, ch, oi, oj in np.ndindex(n, c, ho, wo):
        best = None
        for i in range(kernel):
            for j in range(kernel):
                r, q = oi * stride + i - pad, oj * stride + j - pad
                if 0 <= r < h and 0 <= q < w and (best is None or x[b, ch, r, q] > x[b, ch][best]):
                    best = (r, q)
        out[b, ch, oi, oj] = x[b, ch][best]
        dx[b, ch][best] += g[b, ch, oi, oj]
    return out, dx


@pytest.mark.parametrize("kernel, stride, pad", [(3, 1, 1), (2, 2, 0), (3, 2, 1)])
def test_maxpool_ties_go_to_the_first_tap(kernel, stride, pad, rng):
    constant = np.full((2, 2, 5, 6), 0.75)
    post_relu = ad.relu(Tensor(-np.abs(rng.standard_normal((2, 2, 5, 6))), dtype=np.float64)).data
    for x0 in (constant, post_relu):
        x = Tensor(x0.copy(), requires_grad=True, dtype=np.float64)
        y = ad.maxpool2d(x, kernel=kernel, stride=stride, pad=pad)
        g = rng.integers(-8, 9, y.shape).astype(np.float64)
        ad.backward(ad.tmean(ad.mul(y, Tensor(g, dtype=np.float64))))
        out, dx = _maxpool_oracle(x0, g / g.size, kernel, stride, pad)
        assert np.array_equal(y.data, out)
        # a misrouted tap moves a whole multiple of 1 / g.size; the rest is rounding
        assert np.allclose(x.grad, dx, rtol=0, atol=1e-12)


@pytest.mark.parametrize("train", [True, False])
def test_batchnorm_gradients(train, rng):
    bn = BatchNorm2d(3)
    bn.gamma = Tensor(rng.standard_normal(3), requires_grad=True, dtype=np.float64)
    bn.beta = Tensor(rng.standard_normal(3), requires_grad=True, dtype=np.float64)
    bn.running_mean = rng.standard_normal(3)
    bn.running_var = np.abs(rng.standard_normal(3)) + 0.5
    x0 = rng.standard_normal((2, 3, 4, 5))
    wts = rng.standard_normal((2, 3, 4, 5))

    def loss_of(xv):
        b = copy.deepcopy(bn)
        out = b(Tensor(xv, dtype=np.float64), train)
        return float(ad.tmean(ad.mul(out, Tensor(wts, dtype=np.float64))).data)

    b = copy.deepcopy(bn)
    x = Tensor(x0, requires_grad=True, dtype=np.float64)
    ad.backward(ad.tmean(ad.mul(b(x, train), Tensor(wts, dtype=np.float64))))
    numeric = finite_difference_gradient(loss_of, x0)
    rel = np.max(np.abs(x.grad - numeric) / np.maximum(np.abs(numeric), 1e-6))
    assert rel < 1e-3
    # gamma / beta grads
    for pname in ("gamma", "beta"):
        def loss_p(v, pname=pname):
            bb = copy.deepcopy(bn)
            getattr(bb, pname).data = v
            out = bb(Tensor(x0, dtype=np.float64), train)
            return float(ad.tmean(ad.mul(out, Tensor(wts, dtype=np.float64))).data)

        numeric = finite_difference_gradient(loss_p, getattr(bn, pname).data.copy())
        analytic = getattr(b, pname).grad
        rel = np.max(np.abs(analytic - numeric) / np.maximum(np.abs(numeric), 1e-6))
        assert rel < 1e-3


def test_batchnorm_eval_is_affine(rng):
    bn = BatchNorm2d(3)
    bn.running_mean = rng.standard_normal(3)
    bn.running_var = np.abs(rng.standard_normal(3)) + 0.25
    a = rng.standard_normal((4, 3, 2, 2)).astype(np.float32)
    b = rng.standard_normal((5, 3, 2, 2)).astype(np.float32)
    out_alone = bn(Tensor(a), train=False).data
    out_mixed = bn(Tensor(np.concatenate([a, b])), train=False).data[:4]
    assert np.array_equal(out_alone, out_mixed)


def test_batchnorm_updates_running_stats(rng):
    bn = BatchNorm2d(2)
    x = Tensor(rng.standard_normal((8, 2, 3, 3)).astype(np.float32) * 2 + 1)
    bn(x, train=True)
    assert not np.allclose(bn.running_mean, 0.0)
    assert not np.allclose(bn.running_var, 1.0)


def test_forward_determinism(rng):
    x = rng.standard_normal((2, 2, 5, 5)).astype(np.float32)
    k = rng.standard_normal((3, 2, 3, 3)).astype(np.float32)
    runs = [ad.conv2d(Tensor(x.copy()), Tensor(k.copy()), 1, 1).data for _ in range(2)]
    assert np.array_equal(runs[0], runs[1])


def test_inference_records_no_tape(rng):
    x = Tensor(rng.standard_normal((2, 2)).astype(np.float32))
    y = ad.linear(x, Tensor(rng.standard_normal((2, 2)).astype(np.float32)),
                  Tensor(np.zeros(2, dtype=np.float32)))
    assert y._parents == () and y._backward is None and not y.requires_grad


def test_grad_accumulates_across_reuse(rng):
    x = Tensor(rng.standard_normal((3,)).astype(np.float32), requires_grad=True)
    y = ad.add(x, x)  # dy/dx = 2
    ad.backward(ad.tmean(y))
    assert np.allclose(x.grad, 2.0 / 3)


def test_input_gradient_identity_selector(rng):
    x = Tensor(rng.standard_normal((2, 3)).astype(np.float32), requires_grad=True)
    ad.backward(ad.tmean(x))
    assert np.array_equal(x.grad, np.full((2, 3), 1 / 6, dtype=np.float32))


def test_input_gradient_linear_model_is_weight_row(rng):
    w = Tensor(rng.standard_normal((2, 4)), dtype=np.float64)
    b = Tensor(np.zeros(2), dtype=np.float64)

    def selector(t):
        return ad.gather_rows(ad.linear(t, w, b), np.array([1]))

    for _ in range(3):
        x = Tensor(rng.standard_normal((1, 4)), requires_grad=True, dtype=np.float64)
        ad.backward(selector(x))
        assert np.allclose(np.abs(x.grad[0]), np.abs(w.data[1]))


def test_input_gradient_two_layer_net_finite_difference(rng):
    w1 = Tensor(rng.standard_normal((5, 4)), dtype=np.float64)
    b1 = Tensor(rng.standard_normal(5), dtype=np.float64)
    w2 = Tensor(rng.standard_normal((2, 5)), dtype=np.float64)
    b2 = Tensor(rng.standard_normal(2), dtype=np.float64)

    def net(t):
        return ad.log_softmax(ad.linear(ad.relu(ad.linear(t, w1, b1)), w2, b2))

    def selector(t):
        return ad.gather_rows(net(t), np.array([0]))

    x0 = rng.standard_normal((1, 4))
    x = Tensor(x0, requires_grad=True, dtype=np.float64)
    ad.backward(selector(x))
    analytic = x.grad

    def f(xv):
        return float(net(Tensor(xv, dtype=np.float64)).data[0, 0])

    numeric = finite_difference_gradient(f, x0)
    rel = np.max(np.abs(analytic - numeric) / np.maximum(np.abs(numeric), 1e-8))
    assert rel < 1e-2
