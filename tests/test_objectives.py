import numpy as np
import pytest

from conftest import finite_difference_gradient, leaf
from replaycm import autodiff as ad
from replaycm.autodiff import Tensor
from replaycm.errors import ContractError, ParameterError, ShapeError
from replaycm.objectives import auto_alpha, bfl
from replaycm.training import TrainConfig

# (spoof, bonafide) class weights
UNIT = (1.0, 1.0)


def bce(log_probs, targets, alpha):
    """Balanced cross-entropy: the focal loss at gamma = 0."""
    return bfl(log_probs, targets, alpha, 0.0)


def _lp(p_target: float, target: int = 1) -> np.ndarray:
    probs = np.array([[1.0 - p_target, p_target]]) if target == 1 else \
        np.array([[p_target, 1.0 - p_target]])
    with np.errstate(divide="ignore"):  # a p_target that rounds to 1 gives the other class log(0)
        return np.log(probs)


def loss_and_backward(logits: Tensor, targets, alpha: tuple, gamma: float) -> float:
    """The loss of log_softmax(logits), its gradient propagated into ``logits``."""
    lp = ad.log_softmax(logits)
    loss, grad = bfl(lp.data, targets, alpha, gamma)
    ad.backward(lp, grad)
    return loss


def per_sample(alpha: tuple, targets) -> np.ndarray:
    """Each sample's class weight: alpha[1] for bonafide (1), alpha[0] for spoof."""
    return np.where(np.asarray(targets) == 1, alpha[1], alpha[0])


def five_op_chain(lp: np.ndarray, targets: np.ndarray, alpha: tuple, gamma: float):
    """Loss and log_probs gradient of the tape that once built bfl from
    gather_rows, expm1, neg, pow_scalar, mul, mul, neg and tmean: every step
    as those ops computed it, forward and then backward in tape order."""
    dt = lp.dtype
    rows = np.arange(lp.shape[0])
    lp_t = lp[rows, targets]  # gather_rows
    alpha_t = per_sample(alpha, targets).astype(dt)
    expm1 = np.expm1(lp_t)
    one_minus_p = -expm1  # neg
    modulation = np.power(one_minus_p, gamma)  # pow_scalar
    product = modulation * lp_t  # mul
    weighted = product * alpha_t  # mul by the constant alpha tensor
    negated = -weighted  # neg
    loss = np.asarray(negated.mean(dtype=np.float64), dtype=dt)  # tmean

    g = np.ones_like(loss)
    g_negated = np.broadcast_to(g / negated.size, negated.shape).astype(dt)
    g_weighted = -g_negated
    g_product = (g_weighted * alpha_t).astype(dt)
    g_modulation = (g_product * lp_t).astype(dt)
    g_lp_t = (g_product * modulation).astype(dt)
    with np.errstate(divide="ignore", invalid="ignore"):
        deriv = gamma * np.power(one_minus_p, gamma - 1.0)
    deriv = np.where(np.isfinite(deriv), deriv, 0.0)
    g_one_minus_p = (g_modulation * deriv).astype(dt)
    g_expm1 = -g_one_minus_p
    g_lp_t = g_lp_t + (g_expm1 * np.exp(lp_t)).astype(dt)  # after the mul's share
    grad = np.zeros_like(lp)
    grad[rows, targets] = g_lp_t
    return loss, grad


class TestOneTapeNode:
    """``bfl``'s closed form against the tape of ops it replaced."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("gamma", [0.0, 0.5, 1.0, 1.7, 2.0, 3.0])
    def test_matches_the_five_op_chain_bit_for_bit(self, dtype, gamma, rng):
        for _ in range(50):
            logits = rng.standard_normal((8, 2)) * 3.0
            logits[6] = (-60.0, 0.0)  # target 1: log p_t rounds to 0
            logits[7] = (-25.0, 0.0)  # target 0: log p_t below -20
            targets = np.concatenate([rng.integers(0, 2, 6), [1, 0]])
            lp0 = ad.log_softmax(Tensor(logits.astype(dtype))).data
            assert lp0[6, 1] == 0.0 and lp0[7, 0] < -20.0
            w = (float(rng.uniform(0.5, 2.0)), float(rng.uniform(0.5, 2.0)))
            loss, grad = bfl(lp0, targets, w, gamma)
            ref_loss, ref_grad = five_op_chain(lp0, targets, w, gamma)
            assert ref_loss.dtype == grad.dtype == ref_grad.dtype == dtype
            assert loss == float(ref_loss)  # both exact, so equal to the bit
            assert np.array_equal(grad, ref_grad)

    def test_targets_must_match_the_rows(self):
        with pytest.raises(ShapeError):
            bfl(np.log(np.full((3, 2), 0.5)), [1], UNIT, 2.0)


class TestBce:
    def test_certain_prediction_zero_loss(self):
        assert bce(_lp(1.0 - 1e-300), [1], UNIT)[0] == pytest.approx(0.0, abs=1e-12)

    def test_half_probability(self):
        assert bce(_lp(0.5), [1], UNIT)[0] == pytest.approx(np.log(2), abs=1e-12)

    def test_alpha_scales_loss_and_gradient(self):
        logits = leaf(np.array([[0.3, -0.2]]))
        losses, grads = [], []
        for alpha in (1.0, 2.0):
            lt = leaf(logits.data.copy())
            losses.append(loss_and_backward(lt, [1], (1.0, alpha), 0.0))
            grads.append(lt.grad.copy())
        assert losses[1] == pytest.approx(2 * losses[0], rel=1e-12)
        assert np.allclose(grads[1], 2 * grads[0], rtol=1e-12)

    def test_rejects_unnormalized(self):
        bad = np.log(np.array([[0.5, 0.6]]))
        with pytest.raises(ContractError):
            bce(bad, [1], UNIT)


class TestBfl:
    def test_gamma_zero_equals_bce(self, rng):
        # balanced cross-entropy, the mean of -alpha_t * log p_t, computed directly
        for _ in range(20):
            lp = ad.log_softmax(Tensor(rng.standard_normal((6, 2)))).data
            targets = rng.integers(0, 2, 6)
            w = (0.7, 1.9)
            ref = -np.mean(per_sample(w, targets) * lp[np.arange(6), targets])
            assert abs(bfl(lp, targets, w, 0.0)[0] - ref) <= 1e-12

    def test_reference_value(self):
        assert bfl(_lp(0.5), [1], UNIT, 2.0)[0] == pytest.approx(
            0.25 * np.log(2), abs=1e-9
        )

    def test_confident_sample_has_zero_loss_and_gradient(self):
        logits = leaf(np.array([[-60.0, 60.0]]))
        loss = loss_and_backward(logits, [1], UNIT, 2.0)
        assert loss == pytest.approx(0.0, abs=1e-20)
        assert np.max(np.abs(logits.grad)) < 1e-12

    def test_monotone_decreasing_in_p(self):
        ps = np.linspace(0.01, 0.99, 50)
        vals = [bfl(_lp(p), [1], UNIT, 2.0)[0] for p in ps]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_bfl_below_bce(self):
        for p in np.linspace(0.01, 0.99, 25):
            for gamma in (0.5, 1.0, 2.0, 5.0):
                assert bfl(_lp(p), [1], UNIT, gamma)[0] <= bce(_lp(p), [1], UNIT)[0]

    def test_focusing_property(self):
        # hard (p=0.6) vs easy (p=0.99): BFL ratio tops the BCE ratio > 100x
        hard_bfl = bfl(_lp(0.6), [1], UNIT, 2.0)[0]
        easy_bfl = bfl(_lp(0.99), [1], UNIT, 2.0)[0]
        hard_bce = bce(_lp(0.6), [1], UNIT)[0]
        easy_bce = bce(_lp(0.99), [1], UNIT)[0]
        assert (hard_bfl / easy_bfl) / (hard_bce / easy_bce) > 100.0

    @pytest.mark.parametrize("gamma", [0.5, 1.0, 2.0, 5.0])
    def test_gradient_matches_finite_differences(self, gamma, rng):
        for trial in range(25):
            logits0 = rng.standard_normal((4, 2)) * 2.0
            targets = rng.integers(0, 2, 4)
            w = (float(rng.uniform(0.5, 2.0)), float(rng.uniform(0.5, 2.0)))

            def f(lv):
                return bfl(ad.log_softmax(Tensor(lv)).data, targets, w, gamma)[0]

            t = leaf(logits0.copy())
            loss_and_backward(t, targets, w, gamma)
            numeric = finite_difference_gradient(f, logits0, step=1e-5)
            # relative where the gradient is meaningful, absolute near zero
            denom = np.maximum(np.abs(numeric), 1e-6)
            assert np.max(np.abs(t.grad - numeric) / denom) < 1e-4


class TestLossRatio:
    """BFL / BCE (BFL at gamma = 0) for one sample with unit weights is
    (1 - p_t)**gamma."""

    @staticmethod
    def ratio(p_t: float, gamma: float) -> float:
        return bfl(_lp(p_t), [1], UNIT, gamma)[0] / bce(_lp(p_t), [1], UNIT)[0]

    def test_easy_sample_downweighted_100x(self):
        assert self.ratio(0.9, 2.0) == pytest.approx(0.01, abs=1e-12)

    def test_hard_limit_keeps_full_loss(self):
        assert self.ratio(1e-9, 2.0) == pytest.approx(1.0, rel=1e-6)

    def test_gamma_zero_is_one(self):
        for p in (0.01, 0.4, 0.99):
            assert self.ratio(p, 0.0) == 1.0


class TestClassWeights:
    def test_auto_inverse_frequency_normalized(self):
        alpha = auto_alpha(n_spoof=900, n_bonafide=100)
        assert alpha == (pytest.approx(1000 / 1800), pytest.approx(1000 / 200))
        targets = np.array([0] * 900 + [1] * 100)
        assert per_sample(alpha, targets).mean() == pytest.approx(1.0)

    def test_ratio_matches_inverse_frequency(self):
        alpha_spoof, alpha_bonafide = auto_alpha(n_spoof=90, n_bonafide=10)
        assert alpha_bonafide / alpha_spoof == pytest.approx(9.0)

    def test_validation(self):
        # TrainConfig is the one check of a given pair, of either class's weight
        for alpha in ("1,0", "1,-1", "1,inf", "0,0"):
            with pytest.raises(ParameterError, match="alpha"):
                TrainConfig(alpha=alpha)
