import numpy as np
import pytest

from replaycm.errors import DataError, FormatError, ParameterError, ParseError
from replaycm.features import FeatureGram, write_gram
from replaycm.model import ResNetConfig, build_resnet, load_checkpoint, save_checkpoint, score_batch
from replaycm.replay_sim import ManifestEntry
from replaycm.training import FeatureStore, TrainConfig, train, write_feature_manifest

TOY_CFG = ResNetConfig(base_channels=16, scale=8, fc_width=8, input_bins=8, input_frames=10)


def make_toy_features(root, rng, n_train=12, n_dev=8, separation=1.0):
    """Class-constant grams (+ small noise): linearly separable toy corpus."""
    mapping = {}
    train_entries, dev_entries = [], []
    for prefix, count, bucket in (("tr", n_train, train_entries), ("dv", n_dev, dev_entries)):
        for i in range(count):
            label = "bonafide" if i % 4 == 0 else "spoof"
            base = separation if label == "bonafide" else -separation
            gram = np.full((8, 10), base, dtype=np.float32)
            gram += rng.standard_normal((8, 10)).astype(np.float32) * 0.1
            utt_id = f"{prefix}{i:02d}"
            write_gram(FeatureGram("STFT", gram, utt_id), root / f"{utt_id}.fgram")
            mapping[utt_id] = f"{utt_id}.fgram"
            code = "-" if label == "bonafide" else "AA"
            bucket.append(ManifestEntry(utt_id, label, code, ""))
    write_feature_manifest(root, mapping)
    return train_entries, dev_entries


def test_separable_toy_reaches_zero_dev_eer(tmp_path, rng):
    train_entries, dev_entries = make_toy_features(tmp_path, rng)
    store = FeatureStore(tmp_path)
    model = build_resnet(TOY_CFG, seed=3)
    cfg = TrainConfig(lr=3e-3, batch_size=4, max_epochs=30, seed=3,
                      objective="bfl", gamma=2.0)
    result = train(model, train_entries, dev_entries, store, cfg)
    assert result.best_dev_eer == 0.0
    assert all(np.isfinite(h["train_loss"]) for h in result.history)


def test_training_is_deterministic(tmp_path, rng):
    train_entries, dev_entries = make_toy_features(tmp_path, rng)
    store = FeatureStore(tmp_path)
    cfg = TrainConfig(lr=1e-3, batch_size=4, max_epochs=3, seed=11, objective="bce")
    logs = []
    for _ in range(2):
        model = build_resnet(TOY_CFG, seed=11)
        log_path = tmp_path / f"run{len(logs)}.log"
        train(model, train_entries, dev_entries, store, cfg, log_path=log_path)
        logs.append(log_path.read_bytes())
    assert logs[0] == logs[1]


def test_log_line_format(tmp_path, rng):
    train_entries, dev_entries = make_toy_features(tmp_path, rng)
    store = FeatureStore(tmp_path)
    model = build_resnet(TOY_CFG, seed=0)
    cfg = TrainConfig(lr=1e-3, batch_size=4, max_epochs=2, seed=0, objective="bfl")
    log_path = tmp_path / "train.log"
    train(model, train_entries, dev_entries, store, cfg, log_path=log_path)
    lines = log_path.read_text().splitlines()
    assert len(lines) == 2
    for epoch, line in enumerate(lines, start=1):
        fields = line.split()
        assert len(fields) == 4
        assert int(fields[0]) == epoch
        float(fields[1]), float(fields[2]), float(fields[3])


def test_checkpoint_of_trained_model_reproduces_dev_scores(tmp_path, rng):
    train_entries, dev_entries = make_toy_features(tmp_path, rng)
    store = FeatureStore(tmp_path)
    model = build_resnet(TOY_CFG, seed=5)
    cfg = TrainConfig(lr=1e-3, batch_size=4, max_epochs=2, seed=5, objective="bfl")
    train(model, train_entries, dev_entries, store, cfg)
    grams = store.load_batch([e.utt_id for e in dev_entries])
    before = score_batch(model, grams)
    path = tmp_path / "ck.ckpt"
    save_checkpoint(path, model)
    loaded, _ = load_checkpoint(path)
    assert np.array_equal(score_batch(loaded, grams), before)


def test_missing_feature_file_names_utterance(tmp_path, rng):
    train_entries, dev_entries = make_toy_features(tmp_path, rng)
    store = FeatureStore(tmp_path)
    ghost = ManifestEntry("ghost99", "spoof", "AA", "")
    model = build_resnet(TOY_CFG, seed=0)
    cfg = TrainConfig(max_epochs=1, objective="bce")
    with pytest.raises(DataError, match="ghost99"):
        train(model, train_entries + [ghost], dev_entries, store, cfg)
    with pytest.raises(DataError, match="ghost99"):
        store.load("ghost99")


@pytest.mark.parametrize("content, error, where", [
    (b"u1 u1.fgram\nfoo\n", FormatError, ":2: expected"),
    (b"u1 u1.fgram\nu\xe92 u2.fgram\n", ParseError, ":2: non-ASCII byte 0xe9"),
], ids=["one-field-line", "non-ascii-byte"])
def test_manifest_readers_name_the_bad_line(tmp_path, content, error, where):
    (tmp_path / "features.manifest").write_bytes(content)
    for read in (FeatureStore, lambda d: write_feature_manifest(d, {"u3": "u3.fgram"})):
        with pytest.raises(error, match="features.manifest" + where):
            read(tmp_path)


def test_best_dev_checkpoint_retained(tmp_path, rng):
    # the returned model must correspond to the best epoch, not the last
    train_entries, dev_entries = make_toy_features(tmp_path, rng)
    store = FeatureStore(tmp_path)
    model = build_resnet(TOY_CFG, seed=7)
    cfg = TrainConfig(lr=3e-3, batch_size=4, max_epochs=10, seed=7, objective="bfl")
    result = train(model, train_entries, dev_entries, store, cfg)
    from replaycm.metrics import eer
    from replaycm.scoring import ScoreRecord

    grams = store.load_batch([e.utt_id for e in dev_entries])
    scores = score_batch(model, grams)
    records = [ScoreRecord(e.utt_id, float(s), e.label) for e, s in zip(dev_entries, scores)]
    assert eer(records)[0] == pytest.approx(result.best_dev_eer, abs=1e-12)


def test_train_config_validation():
    with pytest.raises(ParameterError):
        TrainConfig(lr=0.0)
    with pytest.raises(ParameterError):
        TrainConfig(objective="hinge")
    with pytest.raises(ParameterError):
        TrainConfig(plateau_factor=1.5)
    with pytest.raises(ParameterError):
        TrainConfig(gamma=-0.5)
