import numpy as np
import pytest

from replaycm import training
from replaycm.errors import DataError, FormatError, ParameterError, ParseError, ShapeError
from replaycm.features import FeatureGram, write_feature_manifest, write_gram
from replaycm.model import ResNet, ResNetConfig, load_checkpoint, save_checkpoint, score_batch
from replaycm.replay_sim import ManifestEntry
from replaycm.training import FeatureStore, TrainConfig, train

TOY_CFG = ResNetConfig(channels=2, fc_width=8, input_bins=8, input_frames=10)


def toy_store(root, *protocols) -> FeatureStore:
    """The feature store of ``root`` built for the utterances of ``protocols``."""
    return FeatureStore(root, [e.utt_id for entries in protocols for e in entries])


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
            bucket.append(ManifestEntry(utt_id, label, code))
    write_feature_manifest(root, mapping)
    return train_entries, dev_entries


def test_separable_toy_reaches_zero_dev_eer(tmp_path, rng):
    train_entries, dev_entries = make_toy_features(tmp_path, rng)
    store = toy_store(tmp_path, train_entries, dev_entries)
    model = ResNet(TOY_CFG, seed=3)
    cfg = TrainConfig(lr=3e-3, batch_size=4, max_epochs=30, seed=3, gamma=2.0)
    result = train(model, train_entries, dev_entries, store, cfg, tmp_path / "train.log")
    assert result.best_dev_eer == 0.0
    assert all(np.isfinite(h["train_loss"]) for h in result.history)


def test_training_is_deterministic(tmp_path, rng):
    train_entries, dev_entries = make_toy_features(tmp_path, rng)
    store = toy_store(tmp_path, train_entries, dev_entries)
    cfg = TrainConfig(lr=1e-3, batch_size=4, max_epochs=3, seed=11, gamma=0.0)
    logs = []
    for _ in range(2):
        model = ResNet(TOY_CFG, seed=11)
        log_path = tmp_path / f"run{len(logs)}.log"
        train(model, train_entries, dev_entries, store, cfg, log_path=log_path)
        logs.append(log_path.read_bytes())
    assert logs[0] == logs[1]


def test_log_line_format(tmp_path, rng):
    train_entries, dev_entries = make_toy_features(tmp_path, rng)
    store = toy_store(tmp_path, train_entries, dev_entries)
    model = ResNet(TOY_CFG, seed=0)
    cfg = TrainConfig(lr=1e-3, batch_size=4, max_epochs=2, seed=0)
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
    store = toy_store(tmp_path, train_entries, dev_entries)
    model = ResNet(TOY_CFG, seed=5)
    cfg = TrainConfig(lr=1e-3, batch_size=4, max_epochs=2, seed=5)
    train(model, train_entries, dev_entries, store, cfg, tmp_path / "train.log")
    grams = store.load_batch([e.utt_id for e in dev_entries])
    before = score_batch(model, grams)
    path = tmp_path / "ck.ckpt"
    save_checkpoint(path, model, extra={"kind": "STFT"})
    loaded, _ = load_checkpoint(path)
    assert np.array_equal(score_batch(loaded, grams), before)


def test_missing_feature_file_names_utterance(tmp_path, rng):
    train_entries, dev_entries = make_toy_features(tmp_path, rng)
    ghost = ManifestEntry("ghost99", "spoof", "AA")
    with pytest.raises(DataError, match="^no feature file for utterance 'ghost99'$"):
        toy_store(tmp_path, train_entries, [ghost], dev_entries)
    with pytest.raises(DataError, match="^no feature file for utterance 'ghost99'$"):
        toy_store(tmp_path, train_entries, dev_entries).load("ghost99")


def test_the_first_gram_fixes_kind_and_shape(tmp_path, rng):
    train_entries, dev_entries = make_toy_features(tmp_path, rng)
    write_gram(FeatureGram("MGD", np.zeros((8, 10), np.float32), "mgd"), tmp_path / "mgd.fgram")
    write_gram(FeatureGram("STFT", np.zeros((8, 9), np.float32), "short"),
               tmp_path / "short.fgram")
    write_feature_manifest(tmp_path, {"mgd": "mgd.fgram", "short": "short.fgram"})
    store = toy_store(tmp_path, dev_entries, train_entries)
    assert (store.first_id, store.kind, store.shape) == ("dv00", "STFT", (8, 10))
    with pytest.raises(DataError, match="^gram of 'mgd' is MGD, but gram of 'dv00' is STFT$"):
        store.load("mgd")
    with pytest.raises(ShapeError, match=r"^gram of 'short' is \(8, 9\), but gram of 'dv00' is"):
        store.load_batch(["tr00", "short"])
    assert (store.first_id, store.kind, store.shape) == ("dv00", "STFT", (8, 10))
    empty = toy_store(tmp_path)
    assert (empty.first_id, empty.kind, empty.shape) == (None, None, None)


@pytest.mark.parametrize("content, error, where", [
    (b"u1 u1.fgram\nfoo\n", FormatError, ":2: expected"),
    (b"u1 u1.fgram\nu\xe92 u2.fgram\n", ParseError, ":2: non-ASCII byte 0xe9"),
    (b"a x.fgram\n\na y.fgram\n", FormatError, ":3: duplicate utt_id 'a'"),
    (b"a x.fgram\nu ../outside.fgram\n", FormatError,
     r":2: file name '../outside.fgram' contains a path separator"),
    (b"u sub\\u.fgram\n", FormatError, r":1: file name 'sub\\\\u.fgram' contains a path separator"),
], ids=["one-field-line", "non-ascii-byte", "repeated-utt-id", "dot-dot", "backslash"])
def test_manifest_readers_name_the_bad_line(tmp_path, content, error, where):
    (tmp_path / "features.manifest").write_bytes(content)
    for read in (lambda d: FeatureStore(d, []),
                 lambda d: write_feature_manifest(d, {"u3": "u3.fgram"})):
        with pytest.raises(error, match="features.manifest" + where):
            read(tmp_path)


def test_best_dev_checkpoint_retained(tmp_path, rng):
    # the returned model must correspond to the best epoch, not the last
    train_entries, dev_entries = make_toy_features(tmp_path, rng)
    store = toy_store(tmp_path, train_entries, dev_entries)
    model = ResNet(TOY_CFG, seed=7)
    cfg = TrainConfig(lr=3e-3, batch_size=4, max_epochs=10, seed=7)
    result = train(model, train_entries, dev_entries, store, cfg, tmp_path / "train.log")
    from replaycm.metrics import eer, split_scores

    utt_ids = [e.utt_id for e in dev_entries]
    scores = dict(zip(utt_ids, score_batch(model, store.load_batch(utt_ids)).tolist()))
    dev_eer = eer(*split_scores(dev_entries, scores))
    assert dev_eer == pytest.approx(result.best_dev_eer, abs=1e-12)


def test_train_config_validation():
    with pytest.raises(ParameterError):
        TrainConfig(lr=0.0)
    with pytest.raises(ParameterError):
        TrainConfig(plateau_factor=1.5)
    with pytest.raises(ParameterError):
        TrainConfig(gamma=-0.5)


@pytest.mark.parametrize("label", ["spoof", "bonafide"])
@pytest.mark.parametrize("alpha", ["auto", "1,1"])
def test_training_on_one_class_is_a_data_error(tmp_path, rng, label, alpha):
    train_entries, dev_entries = make_toy_features(tmp_path, rng)
    one_class = [e for e in train_entries if e.label == label]
    counts = {"spoof": (0, len(one_class)), "bonafide": (len(one_class), 0)}[label]
    cfg = TrainConfig(max_epochs=1, alpha=alpha)
    with pytest.raises(DataError, match=r"both classes, got %d bonafide and %d spoof" % counts):
        train(ResNet(TOY_CFG, seed=0), one_class, dev_entries,
              toy_store(tmp_path, one_class, dev_entries), cfg, tmp_path / "train.log")


LR = 1e-3


@pytest.mark.parametrize("dev_eers, lrs, best_epoch", [
    ((0.5, 0.4, 0.3, 0.2, 0.1), [LR] * 5, 5),
    ((0.3,) * 5, [LR] * 4 + [LR * 0.1], 1),
    ((0.3,) * 8, [LR] * 4 + [LR * 0.1] * 3 + [LR * 0.1 * 0.1], 1),
    ((0.3, 0.3, 0.3, 0.2, 0.2, 0.2, 0.2, 0.2), [LR] * 7 + [LR * 0.1], 4),
], ids=["improving", "flat", "two-plateaus", "reset-on-improvement"])
def test_lr_is_cut_after_patience_epochs_without_a_better_dev_eer(tmp_path, rng, monkeypatch,
                                                                  dev_eers, lrs, best_epoch):
    # the lr column holds the lr each epoch trained at; patience 3, factor 0.1
    scripted = iter(dev_eers)
    monkeypatch.setattr(training, "eer", lambda bona, spoof: next(scripted))
    train_entries, dev_entries = make_toy_features(tmp_path, rng)
    cfg = TrainConfig(lr=LR, batch_size=4, max_epochs=len(dev_eers), plateau_patience=3,
                      plateau_factor=0.1)
    result = train(ResNet(TOY_CFG, seed=0), train_entries, dev_entries,
                   toy_store(tmp_path, train_entries, dev_entries), cfg, tmp_path / "train.log")
    assert [h["lr"] for h in result.history] == lrs
    assert [h["dev_eer"] for h in result.history] == list(dev_eers)
    assert (result.best_epoch, result.best_dev_eer) == (best_epoch, min(dev_eers))
