import numpy as np
import pytest

from replaycm import autodiff as ad
from replaycm.autodiff import Tensor
from replaycm.errors import ParameterError, ShapeError, TrainingError
from replaycm.model import (
    ResNetConfig,
    build_resnet,
    load_checkpoint,
    saliency_map,
    save_checkpoint,
    score_batch,
    score_utterance,
)
from replaycm.objectives import ClassWeights, bce
from replaycm.training import AdamW, PlateauScheduler

TOY = ResNetConfig(base_channels=16, scale=8, fc_width=8, input_bins=8, input_frames=10)


def zeroed_model(out_log_probs):
    """All-zero parameters except the output bias: the network then emits
    exactly the requested log-probabilities for any input."""
    model = build_resnet(TOY, seed=0)
    for p in model.parameters().values():
        p.data = np.zeros_like(p.data)
    model.out_b.data = np.array(out_log_probs, dtype=np.float32)
    return model


class TestArchitecture:
    def test_table_shapes_at_scale_1(self):
        model = build_resnet(ResNetConfig(), seed=0)
        assert model.stage_output_shapes() == [
            (16, 513, 500),
            (16, 513, 500),
            (32, 257, 250),
            (64, 129, 125),
            (128, 65, 63),
        ]

    def test_parameter_counts_match_published_table(self):
        model = build_resnet(ResNetConfig(), seed=0)
        assert model.stem_conv.data.size == 144
        assert model.fc_w.data.size + model.fc_b.data.size == 4128
        assert model.out_w.data.size + model.out_b.data.size == 66
        printed = (4600, 18400, 73700, 295000)
        for blocks, target in zip(model.stages, printed):
            for block in blocks[1:]:  # identity blocks carry the printed count
                assert abs(block.conv_param_count() - target) <= 100

    def test_analytic_shapes_match_actual_forward(self):
        cfg = ResNetConfig(base_channels=16, scale=4, input_bins=37, input_frames=50)
        model = build_resnet(cfg, seed=1)
        seen = []
        x = Tensor(np.zeros((1, 1, 37, 50), dtype=np.float32))
        h = ad.relu(model.stem_bn(ad.conv2d(x, model.stem_conv, 1, 1), False))
        h = ad.maxpool2d(h)
        seen.append(h.data.shape[1:])
        for blocks in model.stages:
            for block in blocks:
                h = block(h, False)
            seen.append(h.data.shape[1:])
        assert seen == model.stage_output_shapes()

    def test_zero_input_forward_is_normalized(self):
        model = build_resnet(TOY, seed=0)
        lp = model.forward(Tensor(np.zeros((2, 1, 8, 10), dtype=np.float32)), train=False)
        assert np.all(np.isfinite(lp.data))
        sums = np.exp(lp.data.astype(np.float64)).sum(axis=1)
        assert np.allclose(sums, 1.0, atol=1e-6)

    def test_scale_divides_channels(self):
        cfg = ResNetConfig(scale=4)
        assert cfg.stage_channels == (4, 8, 16, 32)
        with pytest.raises(ParameterError):
            ResNetConfig(scale=3)

    def test_input_shape_checked(self):
        model = build_resnet(TOY, seed=0)
        with pytest.raises(ShapeError):
            model.forward(Tensor(np.zeros((1, 1, 9, 10), dtype=np.float32)), train=False)


class TestScoring:
    def test_equal_probabilities_score_zero(self):
        model = zeroed_model([0.0, 0.0])
        assert score_utterance(model, np.ones((8, 10))) == 0.0

    def test_log_likelihood_ratio_value(self):
        model = zeroed_model(np.log([0.1, 0.9]))
        s = score_utterance(model, np.ones((8, 10)))
        assert s == pytest.approx(np.log(9.0), rel=1e-6)

    def test_antisymmetric_under_logit_swap(self):
        a = zeroed_model(np.log([0.2, 0.8]))
        b = zeroed_model(np.log([0.8, 0.2]))
        g = np.ones((8, 10))
        assert score_utterance(a, g) == pytest.approx(-score_utterance(b, g), rel=1e-6)

    def test_batch_matches_single(self, rng):
        model = build_resnet(TOY, seed=5)
        grams = rng.standard_normal((3, 8, 10)).astype(np.float32)
        batch = score_batch(model, grams)
        singles = [score_utterance(model, g) for g in grams]
        assert np.allclose(batch, singles, atol=1e-5)


class TestAdamW:
    def test_zero_gradient_zero_decay_is_identity(self):
        p = Tensor(np.array([3.0], dtype=np.float32), requires_grad=True)
        opt = AdamW({"p": p}, lr=0.1, weight_decay=0.0)
        p.grad = np.zeros(1, dtype=np.float32)
        opt.step()
        assert p.data.tolist() == [3.0]

    def test_single_step_hand_computation(self):
        p = Tensor(np.array([1.0], dtype=np.float32), requires_grad=True)
        opt = AdamW({"p": p}, lr=0.1, weight_decay=0.0)
        p.grad = np.array([1.0], dtype=np.float32)
        opt.step()
        # bias-corrected m_hat = v_hat = 1 on the first step
        assert p.data[0] == pytest.approx(1.0 - 0.1 / (1.0 + 1e-8), abs=1e-7)

    def test_decoupled_decay_only_step(self):
        p = Tensor(np.array([2.0], dtype=np.float32), requires_grad=True)
        opt = AdamW({"p": p}, lr=0.1, weight_decay=0.1)
        p.grad = np.zeros(1, dtype=np.float32)
        opt.step()
        assert p.data[0] == np.float32(2.0) * np.float32(1.0 - 0.01)

    def test_non_finite_gradient_names_parameter(self):
        p = Tensor(np.array([1.0], dtype=np.float32), requires_grad=True)
        opt = AdamW({"stem_conv": p}, lr=0.1)
        p.grad = np.array([np.nan], dtype=np.float32)
        with pytest.raises(TrainingError, match="stem_conv"):
            opt.step()

    @pytest.mark.parametrize("seed", range(20))
    def test_step_decreases_loss_on_frozen_batch(self, seed):
        rng = np.random.default_rng(seed)
        w = Tensor(rng.standard_normal((2, 6)).astype(np.float32), requires_grad=True)
        b = Tensor(np.zeros(2, dtype=np.float32), requires_grad=True)
        x = Tensor(rng.standard_normal((8, 6)).astype(np.float32))
        targets = rng.integers(0, 2, 8)
        weights = ClassWeights(1.0, 1.0)
        opt = AdamW({"w": w, "b": b}, lr=1e-4)

        def loss_value():
            return bce(ad.log_softmax(ad.linear(x, w, b)), targets, weights)

        before = loss_value()
        opt.zero_grad()
        ad.backward(before)
        opt.step()
        assert loss_value().item() < before.item()


class TestPlateauScheduler:
    def test_improving_metric_never_reduces(self):
        s = PlateauScheduler(1.0, patience=3, factor=0.1)
        for m in (5.0, 4.0, 3.0, 2.0, 1.0):
            assert s.report(m) == 1.0
        assert s.reductions == []

    def test_flat_metric_reduces_after_patience(self):
        s = PlateauScheduler(1.0, patience=3, factor=0.1)
        lrs = [s.report(1.0) for _ in range(4)]
        assert lrs == [1.0, 1.0, 1.0, pytest.approx(0.1)]
        assert len(s.reductions) == 1

    def test_two_plateaus_compose(self):
        s = PlateauScheduler(1.0, patience=3, factor=0.1)
        for _ in range(7):
            lr = s.report(1.0)
        assert lr == pytest.approx(0.01)
        assert len(s.reductions) == 2

    def test_counter_resets_on_improvement(self):
        s = PlateauScheduler(1.0, patience=3, factor=0.1)
        for m in (1.0, 1.0, 1.0, 0.5, 0.5, 0.5):
            s.report(m)
        assert s.reductions == []  # never three stale epochs in a row
        s.report(0.5)
        assert len(s.reductions) == 1


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path, rng):
        model = build_resnet(TOY, seed=9)
        # perturb running stats so buffers are non-trivial
        model.forward(Tensor(rng.standard_normal((4, 1, 8, 10)).astype(np.float32)), train=True)
        for p in model.parameters().values():
            p.data = p.data + rng.standard_normal(p.data.shape).astype(np.float32)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, model, extra={"note": "t"})
        loaded, extra = load_checkpoint(path)
        assert extra == {"note": "t"}
        for name, p in model.parameters().items():
            assert np.array_equal(loaded.parameters()[name].data, p.data)
        for name, b in model.buffers().items():
            assert np.array_equal(loaded.buffers()[name], b)

    def test_scores_reproduce_after_reload(self, tmp_path, rng):
        model = build_resnet(TOY, seed=2)
        model.forward(Tensor(rng.standard_normal((4, 1, 8, 10)).astype(np.float32)), train=True)
        grams = rng.standard_normal((5, 8, 10)).astype(np.float32)
        before = score_batch(model, grams)
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, model)
        loaded, _ = load_checkpoint(path)
        after = score_batch(loaded, grams)
        assert np.array_equal(before, after)


class TestSaliency:
    def test_same_shape_as_input(self, rng):
        model = build_resnet(TOY, seed=4)
        gram = rng.standard_normal((8, 10)).astype(np.float32)
        smap = saliency_map(model, gram)
        assert smap.shape == (8, 10)
        assert np.all(smap >= 0.0)
        assert np.any(smap > 0.0)


class TestGradientPolicy:
    """Only the optimizer turns gradients on for the model's parameters."""

    def test_eval_forward_records_no_tape(self, tmp_path, rng):
        model = build_resnet(TOY, seed=3)
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, model)
        x = Tensor(rng.standard_normal((2, 1, 8, 10)).astype(np.float32))
        for net in (model, load_checkpoint(path)[0]):
            lp = net.forward(x, train=False)
            assert lp._parents == () and lp._backward is None and not lp.requires_grad

    def test_optimizer_turns_gradients_on(self):
        params = build_resnet(TOY, seed=3).parameters()
        assert not any(p.requires_grad for p in params.values())
        AdamW(params, lr=1e-3)
        assert all(p.requires_grad for p in params.values())

    def test_saliency_computes_no_parameter_gradient(self, rng):
        model = build_resnet(TOY, seed=4)
        saliency_map(model, rng.standard_normal((8, 10)).astype(np.float32))
        assert all(p.grad is None for p in model.parameters().values())
