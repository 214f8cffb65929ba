import copy

import numpy as np
import pytest

from conftest import finite_difference_gradient, gradcheck, identity_kernel, leaf
from replaycm import autodiff as ad
from replaycm.autodiff import BatchNorm2d, Tensor
from replaycm.errors import ContractError, ShapeError
from test_network_reference import maxpool2d_reference
from test_tape_oracle import oracle_add, oracle_relu


def test_conv2d_hand_example():
    x = Tensor(np.ones((1, 1, 3, 3)))
    k = Tensor(np.ones((1, 1, 3, 3)))
    y = ad.conv2d(x, k, stride=1, pad=1).data[0, 0]
    expected = np.array([[4, 6, 4], [6, 9, 6], [4, 6, 4]], dtype=np.float32)
    assert np.array_equal(y, expected)


def test_relu_backward_signs():
    x = leaf(np.array([[-1.0, 1.0]]))
    identity = ad.linear(x, Tensor(np.eye(2)), Tensor(np.zeros(2)), relu=True)
    ad.backward(identity, np.ones((1, 2)))
    assert x.grad.tolist() == [[0.0, 1.0]]


def test_global_avg_pool_constant():
    c = 2.5
    x = leaf(np.full((1, 1, 4, 6), c))
    y = ad.global_avg_pool(x)
    assert y.data[0, 0] == pytest.approx(c)
    ad.backward(y, np.ones(y.shape))
    assert np.allclose(x.grad, 1.0 / 24.0)


def test_backward_mean_spreads_evenly(rng):
    x = leaf(rng.standard_normal((3, 4)))
    ad.backward(x, np.full((3, 4), 1 / 12))
    assert np.array_equal(x.grad, np.full((3, 4), 1 / 12))


def test_backward_mean_of_squares(rng):
    # x . x through linear with x as both input and weight, so both
    # branches of the backward land on the same tensor.
    x = leaf(rng.standard_normal((1, 5)).astype(np.float32))
    ad.backward(ad.linear(x, x, Tensor(np.zeros(1, dtype=np.float32)), relu=False),
                np.full((1, 1), 1 / 5))
    assert np.allclose(x.grad, 2 * x.data / 5, rtol=1e-6)


def test_backward_rejects_a_gradient_of_another_shape(rng):
    x = leaf(rng.standard_normal((3,)))
    for shape in [(), (1,), (3, 1), (4,)]:  # a scalar loss's seed among them
        with pytest.raises(ContractError, match=r"gradient of shape .* output of shape \(3,\)"):
            ad.backward(oracle_add(x, x), np.ones(shape))


@pytest.mark.parametrize("second", ["same output", "output sharing the graph"])
def test_a_freed_graph_refuses_a_second_backward(second, rng):
    w = leaf(rng.standard_normal((2, 3)))
    h = ad.linear(Tensor(rng.standard_normal((4, 3))), w, Tensor(np.zeros(2)), relu=False)
    first, other = oracle_relu(h), ad.log_softmax(h)
    ad.backward(first, np.ones(first.shape))
    out = first if second == "same output" else other
    with pytest.raises(ContractError, match="freed by an earlier backward"):
        ad.backward(out, np.ones(out.shape))


def test_shape_error_names_both_shapes():
    x = Tensor(np.zeros((2, 3)))
    w = Tensor(np.zeros((4, 5)))
    with pytest.raises(ShapeError, match=r"2, 3.*4, 5"):
        ad.linear(x, w, Tensor(np.zeros(4)), relu=False)


@pytest.mark.parametrize("op", [pytest.param(oracle_add, id="add")])
def test_elementwise_ops_need_equal_shapes(op):
    with pytest.raises(ShapeError, match=r"\(2, 3\) and \(3,\)"):
        op(Tensor(np.zeros((2, 3))), Tensor(np.zeros(3)))


def test_conv_shape_error():
    x = Tensor(np.zeros((1, 2, 4, 4)))
    k = Tensor(np.zeros((1, 3, 3, 3)))
    with pytest.raises(ShapeError):
        ad.conv2d(x, k, stride=1, pad=0)


@pytest.mark.parametrize("seed", range(20))
def test_primitive_gradients_finite_difference(seed):
    """Every primitive against central differences, randomized small shapes."""
    rng = np.random.default_rng(seed)
    n, c, h, w = 2, int(rng.integers(1, 4)), int(rng.integers(4, 7)), int(rng.integers(4, 7))
    x4 = rng.standard_normal((n, c, h, w))

    co = int(rng.integers(1, 5))
    kern = Tensor(rng.standard_normal((co, c, 3, 3)))
    stride = int(rng.integers(1, 3))
    gradcheck(lambda t: ad.conv2d(t, kern, stride=stride, pad=1), x4, seed)

    # kernel gradient of conv2d
    xfix = Tensor(x4)
    gradcheck(lambda t: ad.conv2d(xfix, t, stride=1, pad=1),
              rng.standard_normal((co, c, 3, 3)), seed)

    # the 1x1, stride-2, unpadded projection shortcut: input and kernel
    proj = Tensor(rng.standard_normal((co, c, 1, 1)))
    gradcheck(lambda t: ad.conv2d(t, proj, stride=2, pad=0), x4, seed)
    gradcheck(lambda t: ad.conv2d(xfix, t, stride=2, pad=0),
              rng.standard_normal((co, c, 1, 1)), seed)

    # maxpool needs separated values so the argmax never flips under the step
    xm = rng.permutation(n * c * h * w).reshape(n, c, h, w) * 0.05
    gradcheck(lambda t: ad.maxpool2d(t, kernel=3, stride=1, pad=1), xm, seed)
    gradcheck(lambda t: ad.maxpool2d(t, kernel=2, stride=2, pad=0), xm, seed)

    gradcheck(lambda t: ad.global_avg_pool(t), x4, seed)

    d_in, d_out = int(rng.integers(2, 6)), int(rng.integers(2, 6))
    wl = Tensor(rng.standard_normal((d_out, d_in)))
    bl = Tensor(rng.standard_normal(d_out))
    gradcheck(lambda t: ad.linear(t, wl, bl, relu=False), rng.standard_normal((3, d_in)), seed)

    gradcheck(lambda t: ad.log_softmax(t), rng.standard_normal((4, 3)), seed)

    other = Tensor(rng.standard_normal((3, 4)))
    gradcheck(lambda t: oracle_add(t, other), rng.standard_normal((3, 4)), seed)

    # the hidden layer's ReLU away from the kink, through an identity layer
    xr = rng.uniform(0.05, 1.0, (3, 4)) * rng.choice([-1.0, 1.0], (3, 4))
    eye, zero = Tensor(np.eye(4)), Tensor(np.zeros(4))
    gradcheck(lambda t: ad.linear(t, eye, zero, relu=True), xr, seed)


@pytest.mark.parametrize("kernel, stride, pad", [(3, 1, 1), (2, 2, 0), (3, 2, 1)])
def test_maxpool_ties_go_to_the_first_tap(kernel, stride, pad, rng):
    constant = np.full((2, 2, 5, 6), 0.75)
    post_relu = oracle_relu(Tensor(-np.abs(rng.standard_normal((2, 2, 5, 6))))).data
    for x0 in (constant, post_relu):
        x = leaf(x0.copy())
        y = ad.maxpool2d(x, kernel=kernel, stride=stride, pad=pad)
        g = rng.integers(-8, 9, y.shape).astype(np.float64)
        ad.backward(y, g)
        out, dx = maxpool2d_reference(x0, kernel, stride, pad, g)
        assert np.array_equal(y.data, out)
        # integer weights sum exactly, so a misrouted tap cannot hide in rounding
        assert np.array_equal(x.grad, dx)


@pytest.mark.parametrize("train", [True, False])
def test_batchnorm_gradients(train, rng):
    bn = BatchNorm2d(3)
    bn.gamma = leaf(rng.standard_normal(3))
    bn.beta = leaf(rng.standard_normal(3))
    bn.running_mean = rng.standard_normal(3)
    bn.running_var = np.abs(rng.standard_normal(3)) + 0.5
    x0 = rng.standard_normal((2, 3, 4, 5))
    wts = rng.standard_normal((2, 3, 4, 5))
    eye = identity_kernel(3)

    def loss_of(xv):
        b = copy.deepcopy(bn)
        out = b(Tensor(xv), eye, 1, 0, train)
        return float(np.sum(out.data * wts))

    b = copy.deepcopy(bn)
    x = leaf(x0)
    ad.backward(b(x, eye, 1, 0, train), wts)
    numeric = finite_difference_gradient(loss_of, x0)
    rel = np.max(np.abs(x.grad - numeric) / np.maximum(np.abs(numeric), 1e-6))
    assert rel < 1e-3
    # gamma / beta grads
    for pname in ("gamma", "beta"):
        def loss_p(v, pname=pname):
            bb = copy.deepcopy(bn)
            getattr(bb, pname).data = v
            out = bb(Tensor(x0), eye, 1, 0, train)
            return float(np.sum(out.data * wts))

        numeric = finite_difference_gradient(loss_p, getattr(bn, pname).data.copy())
        analytic = getattr(b, pname).grad
        rel = np.max(np.abs(analytic - numeric) / np.maximum(np.abs(numeric), 1e-6))
        assert rel < 1e-3


@pytest.mark.parametrize("train", [True, False])
def test_a_frozen_conv_leaves_gamma_its_gradient(train, rng):
    # with neither the conv's input nor its kernel taking a gradient, the conv
    # output is off the tape, and gamma's gradient reads it as it stood
    x0 = rng.standard_normal((2, 3, 4, 5)).astype(np.float32)
    g = rng.standard_normal(x0.shape).astype(np.float32)
    grads = []
    for x in (leaf(x0.copy()), Tensor(x0.copy())):
        bn = BatchNorm2d(3)
        bn.gamma.data = rng.uniform(0.5, 1.5, 3).astype(np.float32)
        bn.gamma.requires_grad = bn.beta.requires_grad = True
        ad.backward(bn(x, identity_kernel(3), 1, 0, train, relu=True), g.copy())
        grads.append((bn.gamma.grad, bn.beta.grad))
    for a, b in zip(*grads):
        assert a.tobytes() == b.tobytes()


def test_batchnorm_eval_is_affine(rng):
    bn = BatchNorm2d(3)
    bn.running_mean = rng.standard_normal(3)
    bn.running_var = np.abs(rng.standard_normal(3)) + 0.25
    a = rng.standard_normal((4, 3, 2, 2)).astype(np.float32)
    b = rng.standard_normal((5, 3, 2, 2)).astype(np.float32)
    eye = identity_kernel(3)
    out_alone = bn(Tensor(a), eye, 1, 0, train=False).data
    out_mixed = bn(Tensor(np.concatenate([a, b])), eye, 1, 0, train=False).data[:4]
    assert np.array_equal(out_alone, out_mixed)


def test_batchnorm_updates_running_stats(rng):
    bn = BatchNorm2d(2)
    x = Tensor(rng.standard_normal((8, 2, 3, 3)).astype(np.float32) * 2 + 1)
    bn(x, identity_kernel(2), 1, 0, train=True)
    assert not np.allclose(bn.running_mean, 0.0)
    assert not np.allclose(bn.running_var, 1.0)


@pytest.mark.parametrize("shape, dtype", [((2, 2, 3, 4), np.float32), ((2, 2, 3, 3), np.float64)])
def test_batchnorm_residual_needs_the_inputs_shape_and_dtype(shape, dtype):
    # an in-place add would broadcast one or round the other silently
    bn = BatchNorm2d(2)
    x = Tensor(np.zeros((2, 2, 3, 3), dtype=np.float32))
    with pytest.raises(ShapeError, match="residual"):
        bn(x, identity_kernel(2), 1, 0, train=False, residual=Tensor(np.zeros(shape, dtype=dtype)))


def test_forward_determinism(rng):
    x = rng.standard_normal((2, 2, 5, 5)).astype(np.float32)
    k = rng.standard_normal((3, 2, 3, 3)).astype(np.float32)
    runs = [ad.conv2d(Tensor(x.copy()), Tensor(k.copy()), 1, 1).data for _ in range(2)]
    assert np.array_equal(runs[0], runs[1])


def test_inference_records_no_tape(rng):
    x = Tensor(rng.standard_normal((2, 2)).astype(np.float32))
    y = ad.linear(x, Tensor(rng.standard_normal((2, 2)).astype(np.float32)),
                  Tensor(np.zeros(2, dtype=np.float32)), relu=True)
    assert y._parents == () and y._backward is None and not y.requires_grad


def test_grad_accumulates_across_reuse(rng):
    x = leaf(rng.standard_normal((3,)).astype(np.float32))
    y = oracle_add(x, x)  # dy/dx = 2
    ad.backward(y, np.ones(3))
    assert np.array_equal(x.grad, np.full(3, 2.0, dtype=np.float32))


def test_a_new_pass_replaces_a_leafs_gradient(rng):
    # the one reset of a gradient: the optimizer zeroes nothing between steps
    x = leaf(rng.standard_normal((3,)).astype(np.float32))
    x.grad = np.full(3, 7.0, dtype=np.float32)  # left by an earlier pass
    ad.backward(oracle_relu(x), np.ones(3))
    assert np.array_equal(x.grad, (x.data > 0).astype(np.float32))


def test_input_gradient_identity_selector(rng):
    x = leaf(rng.standard_normal((2, 3)).astype(np.float32))
    ad.backward(x, np.ones((2, 3)))
    assert np.array_equal(x.grad, np.ones((2, 3), dtype=np.float32))


def test_input_gradient_linear_model_is_weight_row(rng):
    w = Tensor(rng.standard_normal((2, 4)))
    b = Tensor(np.zeros(2))
    select_1 = np.array([[0.0, 1.0]])  # a one-hot gradient picks output 1

    for _ in range(3):
        x = leaf(rng.standard_normal((1, 4)))
        ad.backward(ad.linear(x, w, b, relu=False), select_1)
        assert np.allclose(np.abs(x.grad[0]), np.abs(w.data[1]))


def test_input_gradient_two_layer_net_finite_difference(rng):
    w1 = Tensor(rng.standard_normal((5, 4)))
    b1 = Tensor(rng.standard_normal(5))
    w2 = Tensor(rng.standard_normal((2, 5)))
    b2 = Tensor(rng.standard_normal(2))

    def net(t):
        return ad.log_softmax(ad.linear(ad.linear(t, w1, b1, relu=True), w2, b2, relu=False))

    x0 = rng.standard_normal((1, 4))
    x = leaf(x0)
    ad.backward(net(x), np.array([[1.0, 0.0]]))  # one-hot at output 0
    analytic = x.grad

    def f(xv):
        return float(net(Tensor(xv)).data[0, 0])

    numeric = finite_difference_gradient(f, x0)
    rel = np.max(np.abs(analytic - numeric) / np.maximum(np.abs(numeric), 1e-8))
    assert rel < 1e-2
