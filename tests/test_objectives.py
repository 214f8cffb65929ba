import numpy as np
import pytest

from conftest import finite_difference_gradient
from replaycm import autodiff as ad
from replaycm.autodiff import Tensor
from replaycm.errors import ContractError, ParameterError
from replaycm.objectives import ClassWeights, bce, bfl, loss_ratio

UNIT = ClassWeights(1.0, 1.0)


def _lp(p_target: float, target: int = 1) -> Tensor:
    probs = np.array([[1.0 - p_target, p_target]]) if target == 1 else \
        np.array([[p_target, 1.0 - p_target]])
    with np.errstate(divide="ignore"):  # a p_target that rounds to 1 gives the other class log(0)
        return Tensor(np.log(probs), dtype=np.float64)


class TestBce:
    def test_certain_prediction_zero_loss(self):
        assert bce(_lp(1.0 - 1e-300), [1], UNIT).item() == pytest.approx(0.0, abs=1e-12)

    def test_half_probability(self):
        assert bce(_lp(0.5), [1], UNIT).item() == pytest.approx(np.log(2), abs=1e-12)

    def test_alpha_scales_loss_and_gradient(self):
        logits = Tensor(np.array([[0.3, -0.2]]), requires_grad=True, dtype=np.float64)
        losses, grads = [], []
        for alpha in (1.0, 2.0):
            lt = Tensor(logits.data.copy(), requires_grad=True, dtype=np.float64)
            loss = bce(ad.log_softmax(lt), [1], ClassWeights(1.0, alpha))
            ad.backward(loss)
            losses.append(loss.item())
            grads.append(lt.grad.copy())
        assert losses[1] == pytest.approx(2 * losses[0], rel=1e-12)
        assert np.allclose(grads[1], 2 * grads[0], rtol=1e-12)

    def test_rejects_unnormalized(self):
        bad = Tensor(np.log(np.array([[0.5, 0.6]])), dtype=np.float64)
        with pytest.raises(ContractError):
            bce(bad, [1], UNIT)


class TestBfl:
    def test_gamma_zero_equals_bce(self, rng):
        for _ in range(20):
            logits = Tensor(rng.standard_normal((6, 2)), dtype=np.float64)
            targets = rng.integers(0, 2, 6)
            w = ClassWeights(0.7, 1.9)
            a = bfl(ad.log_softmax(logits), targets, w, 0.0).item()
            b = bce(ad.log_softmax(logits), targets, w).item()
            assert abs(a - b) <= 1e-12

    def test_reference_value(self):
        assert bfl(_lp(0.5), [1], UNIT, 2.0).item() == pytest.approx(
            0.25 * np.log(2), abs=1e-9
        )

    def test_confident_sample_has_zero_loss_and_gradient(self):
        logits = Tensor(np.array([[-60.0, 60.0]]), requires_grad=True, dtype=np.float64)
        loss = bfl(ad.log_softmax(logits), [1], UNIT, 2.0)
        ad.backward(loss)
        assert loss.item() == pytest.approx(0.0, abs=1e-20)
        assert np.max(np.abs(logits.grad)) < 1e-12

    def test_monotone_decreasing_in_p(self):
        ps = np.linspace(0.01, 0.99, 50)
        vals = [bfl(_lp(p), [1], UNIT, 2.0).item() for p in ps]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_bfl_below_bce(self):
        for p in np.linspace(0.01, 0.99, 25):
            for gamma in (0.5, 1.0, 2.0, 5.0):
                assert bfl(_lp(p), [1], UNIT, gamma).item() <= bce(_lp(p), [1], UNIT).item()

    def test_focusing_property(self):
        # hard (p=0.6) vs easy (p=0.99): BFL ratio tops the BCE ratio > 100x
        hard_bfl = bfl(_lp(0.6), [1], UNIT, 2.0).item()
        easy_bfl = bfl(_lp(0.99), [1], UNIT, 2.0).item()
        hard_bce = bce(_lp(0.6), [1], UNIT).item()
        easy_bce = bce(_lp(0.99), [1], UNIT).item()
        assert (hard_bfl / easy_bfl) / (hard_bce / easy_bce) > 100.0

    @pytest.mark.parametrize("gamma", [0.5, 1.0, 2.0, 5.0])
    def test_gradient_matches_finite_differences(self, gamma, rng):
        for trial in range(25):
            logits0 = rng.standard_normal((4, 2)) * 2.0
            targets = rng.integers(0, 2, 4)
            w = ClassWeights(float(rng.uniform(0.5, 2.0)), float(rng.uniform(0.5, 2.0)))

            def f(lv):
                return bfl(ad.log_softmax(Tensor(lv, dtype=np.float64)), targets, w, gamma).item()

            t = Tensor(logits0.copy(), requires_grad=True, dtype=np.float64)
            ad.backward(bfl(ad.log_softmax(t), targets, w, gamma))
            numeric = finite_difference_gradient(f, logits0, step=1e-5)
            # relative where the gradient is meaningful, absolute near zero
            denom = np.maximum(np.abs(numeric), 1e-6)
            assert np.max(np.abs(t.grad - numeric) / denom) < 1e-4

    def test_gamma_validation(self):
        with pytest.raises(ParameterError):
            bfl(_lp(0.5), [1], UNIT, -1.0)


class TestLossRatio:
    def test_easy_sample_downweighted_100x(self):
        assert loss_ratio(0.9, 2.0) == pytest.approx(0.01, abs=1e-12)

    def test_hard_limit_keeps_full_loss(self):
        assert loss_ratio(1e-9, 2.0) == pytest.approx(1.0, rel=1e-6)

    def test_gamma_zero_is_one(self):
        for p in (0.01, 0.4, 0.99):
            assert loss_ratio(p, 0.0) == 1.0

    def test_domain(self):
        with pytest.raises(ParameterError):
            loss_ratio(0.0, 2.0)
        with pytest.raises(ParameterError):
            loss_ratio(1.0, 2.0)


class TestClassWeights:
    def test_auto_inverse_frequency_normalized(self):
        w = ClassWeights.auto(n_spoof=900, n_bonafide=100)
        assert w.alpha_spoof == pytest.approx(1000 / 1800)
        assert w.alpha_bonafide == pytest.approx(1000 / 200)
        targets = np.array([0] * 900 + [1] * 100)
        assert w.per_sample(targets).mean() == pytest.approx(1.0)

    def test_ratio_matches_inverse_frequency(self):
        w = ClassWeights.auto(n_spoof=90, n_bonafide=10)
        assert w.alpha_bonafide / w.alpha_spoof == pytest.approx(9.0)

    def test_validation(self):
        with pytest.raises(ParameterError):
            ClassWeights(0.0, 1.0)
        with pytest.raises(ParameterError):
            ClassWeights.auto(0, 5)
