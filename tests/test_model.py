import hashlib
import json
import tracemalloc
import weakref

import numpy as np
import pytest

from conftest import leaf
from replaycm import autodiff as ad
from replaycm.autodiff import Tensor
from replaycm.errors import (ContractError, FormatError, ParameterError, ShapeError,
                             TrainingError)
from replaycm.model import (
    ResNet,
    ResNetConfig,
    load_checkpoint,
    SALIENCY_CLASS,
    saliency_map,
    save_checkpoint,
    score_batch,
)
from replaycm.objectives import bfl
from replaycm.training import AdamW

TOY = ResNetConfig(channels=2, fc_width=8, input_bins=8, input_frames=10)
# the header extra every checkpoint carries: the kind of gram it was trained on
KIND = {"kind": "STFT"}


def stage_output_shapes(cfg: ResNetConfig) -> list:
    """(channels, bins, frames) after the stem and after each stage: the stem
    conv and max pool keep the size, each stride-2 stage halves it, rounding up."""
    h, w = cfg.input_bins, cfg.input_frames
    shapes = [(cfg.stage_channels[0], h, w)]
    for stage_idx, out_ch in enumerate(cfg.stage_channels):
        if stage_idx > 0:
            h, w = (h - 1) // 2 + 1, (w - 1) // 2 + 1
        shapes.append((out_ch, h, w))
    return shapes


def conv_param_count(block) -> int:
    return sum(c.data.size for c in (block.conv1, block.conv2, block.proj) if c is not None)


def score_one(model, gram) -> float:
    return float(score_batch(model, np.asarray(gram)[None, :, :])[0])


def zeroed_model(out_log_probs):
    """All-zero parameters except the output bias: the network then emits
    exactly the requested log-probabilities for any input."""
    model = ResNet(TOY, seed=0)
    for p in model.parameters().values():
        p.data = np.zeros_like(p.data)
    model.out_b.data = np.array(out_log_probs, dtype=np.float32)
    return model


class TestArchitecture:
    def test_table_shapes_at_scale_1(self):
        assert stage_output_shapes(ResNetConfig(channels=16)) == [
            (16, 513, 500),
            (16, 513, 500),
            (32, 257, 250),
            (64, 129, 125),
            (128, 65, 63),
        ]

    def test_parameter_counts_match_published_table(self):
        model = ResNet(ResNetConfig(channels=16), seed=0)
        assert model.stem_conv.data.size == 144
        assert model.fc_w.data.size + model.fc_b.data.size == 4128
        assert model.out_w.data.size + model.out_b.data.size == 66
        printed = (4600, 18400, 73700, 295000)
        for blocks, target in zip(model.stages, printed):
            for block in blocks[1:]:  # identity blocks carry the printed count
                assert abs(conv_param_count(block) - target) <= 100

    def test_analytic_shapes_match_actual_forward(self):
        cfg = ResNetConfig(channels=4, input_bins=37, input_frames=50)
        model = ResNet(cfg, seed=1)
        seen = []
        x = Tensor(np.zeros((1, 1, 37, 50), dtype=np.float32))
        h = model.stem_bn(x, model.stem_conv, 1, 1, False, relu=True)
        h = ad.maxpool2d(h, kernel=3, stride=1, pad=1)
        seen.append(h.data.shape[1:])
        for blocks in model.stages:
            for block in blocks:
                h = block(h, False)
            seen.append(h.data.shape[1:])
        assert seen == stage_output_shapes(cfg)

    def test_zero_input_forward_is_normalized(self):
        model = ResNet(TOY, seed=0)
        lp = model.forward(Tensor(np.zeros((2, 1, 8, 10), dtype=np.float32)), train=False)
        assert np.all(np.isfinite(lp.data))
        sums = np.exp(lp.data.astype(np.float64)).sum(axis=1)
        assert np.allclose(sums, 1.0, atol=1e-6)

    def test_initial_state_is_pinned(self):
        # one He-normal draw per weight, in construction order: a seed's
        # initial weights, and so every model it trains, are these bytes
        h = hashlib.sha256()
        for name, array in sorted(ResNet(TOY, seed=0).state().items()):
            h.update(name.encode())
            h.update(array.tobytes())
        assert h.hexdigest() == "132e4c37594f0b86cda8f1117b43e562aaa610b60bfaa45dfd5d2c0a474aec09"

    def test_channels_is_stage_0_width(self):
        assert ResNetConfig().stage_channels == (4, 8, 16, 32)
        assert ResNetConfig(channels=3).stage_channels == (3, 6, 12, 24)
        with pytest.raises(ParameterError, match="channels"):
            ResNetConfig(channels=0)

    def test_input_shape_checked(self):
        model = ResNet(TOY, seed=0)
        with pytest.raises(ShapeError):
            model.forward(Tensor(np.zeros((1, 1, 9, 10), dtype=np.float32)), train=False)


class TestScoring:
    def test_equal_probabilities_score_zero(self):
        model = zeroed_model([0.0, 0.0])
        assert score_one(model, np.ones((8, 10))) == 0.0

    def test_log_likelihood_ratio_value(self):
        model = zeroed_model(np.log([0.1, 0.9]))
        s = score_one(model, np.ones((8, 10)))
        assert s == pytest.approx(np.log(9.0), rel=1e-6)

    def test_antisymmetric_under_logit_swap(self):
        a = zeroed_model(np.log([0.2, 0.8]))
        b = zeroed_model(np.log([0.8, 0.2]))
        g = np.ones((8, 10))
        assert score_one(a, g) == pytest.approx(-score_one(b, g), rel=1e-6)

    def test_batch_matches_single(self, rng):
        model = ResNet(TOY, seed=5)
        grams = rng.standard_normal((3, 8, 10)).astype(np.float32)
        batch = score_batch(model, grams)
        singles = [score_one(model, g) for g in grams]
        assert np.allclose(batch, singles, atol=1e-5)


class TestAdamW:
    def test_zero_gradient_zero_decay_is_identity(self):
        p = leaf(np.array([3.0], dtype=np.float32))
        opt = AdamW({"p": p}, lr=0.1, betas=(0.9, 0.999), weight_decay=0.0)
        p.grad = np.zeros(1, dtype=np.float32)
        opt.step()
        assert p.data.tolist() == [3.0]

    def test_single_step_hand_computation(self):
        p = leaf(np.array([1.0], dtype=np.float32))
        opt = AdamW({"p": p}, lr=0.1, betas=(0.9, 0.999), weight_decay=0.0)
        p.grad = np.array([1.0], dtype=np.float32)
        opt.step()
        # bias-corrected m_hat = v_hat = 1 on the first step
        assert p.data[0] == pytest.approx(1.0 - 0.1 / (1.0 + 1e-8), abs=1e-7)

    def test_decoupled_decay_only_step(self):
        p = leaf(np.array([2.0], dtype=np.float32))
        opt = AdamW({"p": p}, lr=0.1, betas=(0.9, 0.999), weight_decay=0.1)
        p.grad = np.zeros(1, dtype=np.float32)
        opt.step()
        assert p.data[0] == np.float32(2.0) * np.float32(1.0 - 0.01)

    def test_non_finite_gradient_names_parameter(self):
        p = leaf(np.array([1.0], dtype=np.float32))
        opt = AdamW({"stem_conv": p}, lr=0.1, betas=(0.9, 0.999), weight_decay=0.0)
        p.grad = np.array([np.nan], dtype=np.float32)
        with pytest.raises(TrainingError, match="stem_conv"):
            opt.step()

    @pytest.mark.parametrize("seed", range(20))
    def test_step_decreases_loss_on_frozen_batch(self, seed):
        rng = np.random.default_rng(seed)
        w = leaf(rng.standard_normal((2, 6)).astype(np.float32))
        b = leaf(np.zeros(2, dtype=np.float32))
        x = Tensor(rng.standard_normal((8, 6)).astype(np.float32))
        targets = rng.integers(0, 2, 8)
        alpha = (1.0, 1.0)
        opt = AdamW({"w": w, "b": b}, lr=1e-4, betas=(0.9, 0.999), weight_decay=0.0)

        def log_probs():
            return ad.log_softmax(ad.linear(x, w, b, relu=False))

        lp = log_probs()
        before, grad = bfl(lp.data, targets, alpha, 0.0)
        ad.backward(lp, grad)
        opt.step()
        assert bfl(log_probs().data, targets, alpha, 0.0)[0] < before


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path, rng):
        model = ResNet(TOY, seed=9)
        # perturb running stats so buffers are non-trivial
        model.forward(Tensor(rng.standard_normal((4, 1, 8, 10)).astype(np.float32)), train=True)
        for p in model.parameters().values():
            p.data = p.data + rng.standard_normal(p.data.shape).astype(np.float32)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, model, extra={**KIND, "note": "t"})
        loaded, extra = load_checkpoint(path)
        assert extra == {**KIND, "note": "t"}
        state, loaded_state = model.state(), loaded.state()
        assert state.keys() == loaded_state.keys()
        assert all(np.array_equal(loaded_state[name], a) for name, a in state.items())

    def test_arrays_follow_the_header_in_name_order_little_endian(self, tmp_path, rng):
        model = ResNet(TOY, seed=7)
        model.forward(Tensor(rng.standard_normal((4, 1, 8, 10)).astype(np.float32)), train=True)
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, model, extra=KIND)
        blob = path.read_bytes()
        header_len = int.from_bytes(blob[6:10], "little")
        assert blob[:6] == b"RCMC\x02\x00"
        assert json.loads(blob[10:10 + header_len]) == {
            "config": {"block_counts": [3, 4, 6, 3], "channels": 2, "fc_width": 8,
                       "input_bins": 8, "input_frames": 10},
            "extra": KIND}
        state = sorted(model.state().items())
        assert {a.dtype.str for n, a in state if n.startswith("param/")} == {"<f4"}
        assert {a.dtype.str for n, a in state if n.startswith("buffer/")} == {"<f8"}
        payload = b"".join(a.tobytes() for _, a in state)
        assert blob[10 + header_len:] == payload
        assert len(payload) == TOY.state_bytes

    @pytest.mark.parametrize("block_counts", [(1, 1, 1, 1), (3, 4, 6, 3), (2, 1, 3, 1)])
    # each width keyed by the base-channels/scale pair it was once given as,
    # so the test ids stay stable
    @pytest.mark.parametrize("channels", [2, 16, 4], ids=["16-8", "16-1", "12-3"])
    @pytest.mark.parametrize("fc_width", [1, 32])
    def test_state_bytes_are_the_models(self, block_counts, channels, fc_width):
        cfg = ResNetConfig(block_counts=block_counts, channels=channels,
                           fc_width=fc_width, input_bins=8, input_frames=10)
        assert cfg.state_bytes == sum(a.nbytes for a in ResNet(cfg, seed=0).state().values())

    def test_version_1_is_unsupported(self, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, ResNet(TOY, seed=1), extra=KIND)
        blob = path.read_bytes()
        path.write_bytes(blob[:4] + b"\x01\x00" + blob[6:])
        with pytest.raises(FormatError) as exc:
            load_checkpoint(path)
        assert str(exc.value) == f"{path}: unsupported checkpoint version 1"

    @pytest.mark.parametrize("extra", [{}, {"kind": "LFCC"}, {"kind": ["STFT"]}],
                             ids=["no-kind", "unknown-kind", "list-kind"])
    def test_a_header_without_a_known_kind_is_a_format_error(self, tmp_path, extra):
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, ResNet(TOY, seed=1), extra=extra)
        with pytest.raises(FormatError, match="malformed checkpoint header"):
            load_checkpoint(path)

    def test_state_copies_and_load_state_restores(self, rng):
        model = ResNet(TOY, seed=3)
        model.forward(Tensor(rng.standard_normal((4, 1, 8, 10)).astype(np.float32)), train=True)
        state = model.state()
        assert {n.split("/")[0] for n in state} == {"param", "buffer"}
        other = ResNet(TOY, seed=4)
        other.load_state(state)
        for arr in state.values():
            arr += 1.0  # the copies share no memory with either model
        before, restored = model.state(), other.state()
        assert before.keys() == restored.keys()
        for name, arr in before.items():
            assert restored[name].dtype == arr.dtype and np.array_equal(restored[name], arr)

    def test_scores_reproduce_after_reload(self, tmp_path, rng):
        model = ResNet(TOY, seed=2)
        model.forward(Tensor(rng.standard_normal((4, 1, 8, 10)).astype(np.float32)), train=True)
        grams = rng.standard_normal((5, 8, 10)).astype(np.float32)
        before = score_batch(model, grams)
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, model, extra=KIND)
        loaded, _ = load_checkpoint(path)
        after = score_batch(loaded, grams)
        assert np.array_equal(before, after)


    def test_a_write_that_fails_midway_keeps_the_previous_file(self, tmp_path, monkeypatch):
        class Unwritable(np.ndarray):
            def tobytes(self, order="C"):
                raise OSError("no space left on device")

        model = ResNet(TOY, seed=1)
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, model, extra={})
        before = path.read_bytes()
        state = model.state()
        # sorted last, so the header and every other array are written first
        state["param/zz"] = np.zeros(3, dtype=np.float32).view(Unwritable)
        monkeypatch.setattr(model, "state", lambda: state)
        with pytest.raises(OSError, match="no space"):
            save_checkpoint(path, model, extra={})
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["m.ckpt"]


class TestSaliency:
    def test_same_shape_as_input(self, rng):
        model = ResNet(TOY, seed=4)
        gram = rng.standard_normal((8, 10)).astype(np.float32)
        smap = saliency_map(model, gram)
        assert smap.shape == (8, 10)
        assert np.all(smap >= 0.0)
        assert np.any(smap > 0.0)


class TestGradientPolicy:
    """A train-mode forward turns the parameters' gradients on, an eval-mode
    forward turns them off."""

    def test_eval_forward_records_no_tape(self, tmp_path, rng):
        model = ResNet(TOY, seed=3)
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, model, extra=KIND)
        x = Tensor(rng.standard_normal((2, 1, 8, 10)).astype(np.float32))
        for net in (model, load_checkpoint(path)[0]):
            lp = net.forward(x, train=False)
            assert lp._parents == () and lp._backward is None and not lp.requires_grad

    def test_the_forward_mode_turns_gradients_on_and_off(self, rng):
        model = ResNet(TOY, seed=3)
        params = model.parameters()
        assert not any(p.requires_grad for p in params.values())
        x = Tensor(rng.standard_normal((2, 1, 8, 10)).astype(np.float32))
        for train in (True, False, True):
            lp = model.forward(x, train=train)
            assert all(p.requires_grad == train for p in params.values())
            assert lp.requires_grad == train

    def test_scoring_after_a_training_step_records_no_tape(self, rng):
        # AdamW once turned every parameter's gradient on for good, so train's
        # dev scoring recorded a tape nobody read: 151 MB at this shape, 22 MB without
        model = ResNet(ResNetConfig(input_bins=65, input_frames=50), seed=0)
        optimizer = AdamW(model.parameters(), lr=1e-3, betas=(0.9, 0.999), weight_decay=0.0)
        x = Tensor(rng.standard_normal((2, 1, 65, 50)).astype(np.float32))
        lp = model.forward(x, train=True)
        ad.backward(lp, np.full(lp.shape, 1 / 4))
        optimizer.step()
        del x, lp
        grams = rng.standard_normal((32, 65, 50)).astype(np.float32)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            score_batch(model, grams)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < 40e6

    def test_saliency_computes_no_parameter_gradient(self, rng):
        model = ResNet(TOY, seed=4)
        saliency_map(model, rng.standard_normal((8, 10)).astype(np.float32))
        assert all(p.grad is None for p in model.parameters().values())


def interior_tensors(out: Tensor) -> list:
    """Every tensor an op made on the graph behind ``out``, ``out`` included."""
    found, stack = {}, [out]
    while stack:
        t = stack.pop()
        if t._backward is not None and id(t) not in found:
            found[id(t)] = t
            stack.extend(t._parents)
    return list(found.values())


class TestTapeRelease:
    """``backward`` frees the graph behind it and keeps the leaves' gradients."""

    def test_backward_frees_every_interior_tensor(self, rng):
        model = ResNet(TOY, seed=5)
        params = model.parameters()
        AdamW(params, lr=1e-3, betas=(0.9, 0.999), weight_decay=0.0)
        lp = model.forward(Tensor(rng.standard_normal((4, 1, 8, 10)).astype(np.float32)),
                           train=True)
        logits = lp._parents[0]
        graph = [weakref.ref(t) for t in interior_tensors(lp) if t is not lp and t is not logits]
        assert len(graph) > 30  # 75: each batch norm's output and the conv output it normalizes
        ad.backward(lp, rng.standard_normal(lp.shape))
        assert logits.grad is None and logits._parents == ()
        assert all(ref() is None for ref in graph)  # while lp is still held
        ref = weakref.ref(logits)
        del logits
        assert ref() is None
        assert all(p.grad is not None and p.grad.shape == p.shape for p in params.values())

    def test_a_step_lowers_each_conv_three_times(self, rng, monkeypatch):
        # one chunk a lowering, so a conv's every lowering is one _windows call
        monkeypatch.setattr(ad, "COLS_BUDGET", 1 << 40)
        windows, lowerings, rebuilds = ad._windows, [], {}

        def counted_windows(*args):
            lowerings.append(args)
            return windows(*args)

        monkeypatch.setattr(ad, "_windows", counted_windows)
        model = ResNet(TOY, seed=8)
        convs = sum(p.data.ndim == 4 for p in model.parameters().values())
        lp = model.forward(Tensor(rng.standard_normal((4, 1, 8, 10)).astype(np.float32)),
                           train=True)
        assert len(lowerings) == convs
        graph = interior_tensors(lp)
        released = [t for t in graph if isinstance(t._data, ad._Shell)]
        # every conv output, the stem's batch norm output, each bn1's and each
        # projection's
        assert len(released) == convs + 1 + sum(TOY.block_counts) + 3
        projections = [t._parents[3] for t in graph
                       if len(t._parents) == 4 and isinstance(t._parents[3]._data, ad._Shell)]
        assert len(projections) == 3
        for t in released:
            assert len(t.shape) == 4 and t.dtype == np.float32

            def counted(t=t, rebuild=t._rebuild, kind=(t.shape, t.dtype)):
                rebuilds[id(t)] = rebuilds.get(id(t), 0) + 1
                data = rebuild()
                assert (data.shape, data.dtype) == kind
                return data

            t._rebuild = counted
        assert len(lowerings) == convs and not rebuilds  # shape and dtype rebuild nothing
        ad.backward(lp, rng.standard_normal(lp.shape))
        # forward, rebuild and weight gradient: a conv output is rebuilt at its
        # first read, by its batch norm's backward or by its batch norm output's
        # rebuild, and stays for that backward
        assert len(lowerings) == 3 * convs
        # each conv's, the stem's and each bn1's, once; a projection's values
        # are never read
        assert sorted(rebuilds.values()) == [1] * (len(released) - 3)
        assert not {id(t) for t in projections} & rebuilds.keys()

    def test_each_batch_norm_takes_its_released_conv_output(self, rng):
        model = ResNet(TOY, seed=9)
        params = model.parameters()
        weights = {id(p) for p in params.values() if p.data.ndim == 4}
        gammas = {id(p) for name, p in params.items() if name.endswith("_gamma")}
        lp = model.forward(Tensor(rng.standard_normal((4, 1, 8, 10)).astype(np.float32)),
                           train=True)
        norms = [t for t in interior_tensors(lp)
                 if len(t._parents) > 1 and id(t._parents[1]) in gammas]
        assert len(norms) == len(weights)
        for t in norms:
            conv = t._parents[0]  # the conv output this batch norm normalized
            assert type(conv._data) is ad._Shell
            assert (conv.shape, conv.dtype) == (t.shape, np.float32)
        assert {id(t._parents[0]._parents[1]) for t in norms} == weights

    def test_a_released_tensor_is_unreadable_once_its_graph_is_freed(self, rng):
        model = ResNet(TOY, seed=10)
        lp = model.forward(Tensor(rng.standard_normal((4, 1, 8, 10)).astype(np.float32)),
                           train=True)
        released = [t for t in interior_tensors(lp) if isinstance(t._data, ad._Shell)]
        ad.backward(lp, rng.standard_normal(lp.shape))
        # each projection's output, whose values the backward never reads,
        # and each conv output, released again by its batch norm's backward
        unread = [t for t in released if isinstance(t._data, ad._Shell)]
        assert unread
        for t in unread:
            with pytest.raises(ContractError, match="freed"):
                t.data

    def test_saliency_map_is_the_input_gradient(self, rng):
        model = ResNet(TOY, seed=6)
        for p in model.parameters().values():
            p.data = p.data.astype(np.float64)  # so that differences resolve the gradient
        gram = rng.standard_normal((8, 10)).astype(np.float32)
        smap = saliency_map(model, gram)
        h = 2.0**-10

        def log_p(g):
            x = Tensor(g.astype(np.float32)[None, None])
            return float(model.forward(x, train=False).data[0, SALIENCY_CLASS])

        for idx in zip(*np.unravel_index(np.argsort(smap, axis=None)[-5:], smap.shape)):
            up, down = gram.copy(), gram.copy()
            up[idx] += h
            down[idx] -= h
            assert abs(log_p(up) - log_p(down)) / (2 * h) == pytest.approx(smap[idx], rel=1e-2)

    def test_tape_bytes_at_the_detect_shape(self):
        # one training step at the shape of the benchmark's detect workload
        model = ResNet(ResNetConfig(input_bins=65, input_frames=50), seed=0)
        AdamW(model.parameters(), lr=1e-3, betas=(0.9, 0.999), weight_decay=0.0)
        x = Tensor(np.random.default_rng(0).standard_normal((16, 1, 65, 50)).astype(np.float32))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            lp = model.forward(x, train=True)
            after_forward = tracemalloc.get_traced_memory()[0] - base
            ad.backward(lp, np.full((16, 2), 1 / 32))
            after_backward = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        # with every interior gradient and each conv's cols kept, the graph
        # held 166 MB after the forward and 213 MB after the backward; with
        # the stem's, each bn1's and each projection's outputs kept, 14.7 MB
        # after the forward; it holds 7.2 MB now
        assert after_forward < 9e6
        assert after_backward < 5e6
