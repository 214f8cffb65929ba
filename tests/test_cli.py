import os
import shutil
import struct
import subprocess
import sys
import tempfile
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import ckpt_with_config
from replaycm import training
from replaycm.audio_io import read_wav
from replaycm.cli import main
from replaycm.features import read_gram
from replaycm.model import load_checkpoint, score_batch
from replaycm.replay_sim import read_protocol
from replaycm.scoring import read_score_file, write_score_file


def test_pipeline_emits_finite_metrics(pipeline, capsys):
    _, corpus, _, _, scores, _ = pipeline
    assert main(["evaluate", "--scores", str(scores),
                 "--protocol", str(corpus / "protocol_eval.txt")]) == 0
    line = capsys.readouterr().out.strip()
    assert line.startswith("eer=") and " min_tdcf=" in line
    eer_val = float(line.split()[0].split("=")[1])
    tdcf_val = float(line.split()[1].split("=")[1])
    assert np.isfinite(eer_val) and np.isfinite(tdcf_val)


def test_breakdown_table(pipeline, capsys):
    _, corpus, _, _, scores, _ = pipeline
    assert main(["breakdown", "--scores", str(scores),
                 "--protocol", str(corpus / "protocol_eval.txt")]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "attack_code\teer\tmin_tdcf\tn_spoof"
    assert len(lines) == 10  # nine attack codes
    codes = [ln.split("\t")[0] for ln in lines[1:]]
    assert codes == sorted(codes)


def test_mean_fuse_of_file_with_itself_reproduces_it(pipeline, tmp_path):
    _, _, _, _, scores, _ = pipeline
    out = tmp_path / "fused.txt"
    assert main(["fuse", "--method", "mean", "--scores", str(scores), str(scores),
                 "--out", str(out)]) == 0
    assert out.read_bytes() == scores.read_bytes()


def test_mean_fuse_of_extreme_scores(tmp_path):
    # 1e23 once ended in a decimal.InvalidOperation traceback; -1.7e308 twice
    # overflows the sum
    scores = tmp_path / "big.txt"
    scores.write_text("a 1e23\nb -1.7e308\nc 0.5\n")
    out = tmp_path / "fused.txt"
    assert main(["fuse", "--method", "mean", "--scores", str(scores), str(scores),
                 "--out", str(out)]) == 0
    assert read_score_file(out) == {"a": 1e23, "b": -1.7e308, "c": 0.5}


@pytest.mark.parametrize("flag", ["--dev-scores", "--dev-protocol"])
def test_mean_fusion_with_a_dev_flag_is_a_parameter_error(pipeline, tmp_path, capsys, flag):
    # the dev flags serve lr fusion only; mean fusion once ignored them
    _, _, _, _, scores, _ = pipeline
    out = tmp_path / "fused.txt"
    err = _error_line(main(["fuse", "--method", "mean", "--scores", str(scores), str(scores),
                            flag, str(tmp_path / "nonexistent"), "--out", str(out)]), capsys)
    assert err.startswith("error:parameter:") and flag in err, err
    assert not out.exists()


def test_lr_fusion_cli(pipeline, tmp_path):
    root, corpus, feats, ckpt, scores, cfg = pipeline
    dev_scores = tmp_path / "dev_scores.txt"
    assert main(["score", "--ckpt", str(ckpt), "--feature-dir", str(feats),
                 "--protocol", str(corpus / "protocol_dev.txt"),
                 "--out", str(dev_scores)]) == 0
    out = tmp_path / "lr_fused.txt"
    assert main(["fuse", "--method", "lr", "--scores", str(scores), str(scores),
                 "--dev-scores", str(dev_scores), str(dev_scores),
                 "--dev-protocol", str(corpus / "protocol_dev.txt"),
                 "--out", str(out)]) == 0
    fused = read_score_file(out)
    assert set(fused) == set(read_score_file(scores))


def _fuse(method, scores, out, dev_scores=None, dev_protocol=None) -> list:
    args = ["fuse", "--method", method, "--scores", *map(str, scores), "--out", str(out)]
    if dev_scores:
        args += ["--dev-scores", *map(str, dev_scores), "--dev-protocol", str(dev_protocol)]
    return args


def test_lr_fusion_on_a_one_class_dev_protocol_is_a_data_error(pipeline, tmp_path, capsys):
    # it once exited 0 and scored every eval utterance 19.202895
    _, _, _, _, scores, _ = pipeline
    dev_scores, dev_protocol = tmp_path / "dev.txt", tmp_path / "dev_protocol.txt"
    dev_scores.write_text("b0 0.5\nb1 1.5\nb2 -0.25\n")
    dev_protocol.write_text("b0 - bonafide\nb1 - bonafide\nb2 - bonafide\n")
    out = tmp_path / "fused.txt"
    code = main(_fuse("lr", [scores, scores], out, [dev_scores, dev_scores], dev_protocol))
    assert _error_line(code, capsys) == ("error:data: logistic fusion needs bonafide and spoof "
                                         "dev utterances, got 3 bonafide and 0 spoof")
    assert not out.exists()


def test_fusion_of_empty_score_files(tmp_path, capsys):
    # both methods once ended in a numpy traceback; mean fusion writes an
    # empty file, as score of an empty protocol does, and lr has no classes
    empty, protocol, out = tmp_path / "empty.txt", tmp_path / "protocol.txt", tmp_path / "f.txt"
    empty.write_text("")
    protocol.write_text("")
    assert main(_fuse("mean", [empty, empty], out)) == 0
    assert out.read_bytes() == b""
    assert capsys.readouterr().err == ""
    out.unlink()
    code = main(_fuse("lr", [empty, empty], out, [empty, empty], protocol))
    assert _error_line(code, capsys) == ("error:data: logistic fusion needs bonafide and spoof "
                                         "dev utterances, got 0 bonafide and 0 spoof")
    assert not out.exists()


def test_evaluate_hand_built_pair(tmp_path, capsys):
    protocol = tmp_path / "protocol.txt"
    protocol.write_text(
        "b1 - bonafide\nb2 - bonafide\ns1 AA spoof\ns2 AA spoof\n"
    )
    write_score_file({"b1": 0.9, "b2": 0.8, "s1": 0.85, "s2": 0.2},
                     tmp_path / "scores.txt")
    assert main(["evaluate", "--scores", str(tmp_path / "scores.txt"),
                 "--protocol", str(protocol)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("eer=0.250000 ")


@pytest.mark.parametrize("bona, spoof", [("1.7e308", ["1.6e308", "-1"]),
                                         ("10000000000000002.000000", ["10000000000000000.000000"])],
                         ids=["near-the-float-maximum", "one-ulp-apart"])
def test_evaluate_separates_scores_no_midpoint_can(tmp_path, capsys, bona, spoof):
    # a threshold halfway between two scores once overflowed (a RuntimeWarning
    # and eer=0.333333 min_tdcf=0.500000) or rounded onto the spoof's (0.5, 1)
    protocol = tmp_path / "protocol.txt"
    protocol.write_text("b - bonafide\n" + "".join(f"s{i} AA spoof\n" for i in range(len(spoof))))
    scores = tmp_path / "scores.txt"
    scores.write_text(f"b {bona}\n" + "".join(f"s{i} {s}\n" for i, s in enumerate(spoof)))
    assert main(["evaluate", "--scores", str(scores), "--protocol", str(protocol)]) == 0
    assert capsys.readouterr() == ("eer=0.000000 min_tdcf=0.000000\n", "")


def test_saliency_preserves_dims(pipeline, tmp_path):
    root, corpus, feats, ckpt, _, _ = pipeline
    utt = read_protocol(corpus / "protocol_eval.txt")[0].utt_id
    out = tmp_path / "sal.fgram"
    assert main(["saliency", "--ckpt", str(ckpt),
                 "--feature", str(feats / f"{utt}.fgram"), "--out", str(out)]) == 0
    gram = read_gram(feats / f"{utt}.fgram")
    sal = read_gram(out)
    assert sal.data.shape == gram.data.shape
    assert np.all(sal.data >= 0)


def test_score_rerun_is_byte_identical(pipeline, tmp_path):
    root, corpus, feats, ckpt, scores, _ = pipeline
    again = tmp_path / "again.txt"
    assert main(["score", "--ckpt", str(ckpt), "--feature-dir", str(feats),
                 "--protocol", str(corpus / "protocol_eval.txt"),
                 "--out", str(again)]) == 0
    assert again.read_bytes() == scores.read_bytes()


def test_extract_with_jobs_matches_serial(pipeline, tmp_path):
    _, corpus, feats, _, _, _ = pipeline
    out = tmp_path / "par"
    assert main(["extract", "--feature", "stft",
                 "--protocol", str(corpus / "protocol_dev.txt"),
                 "--wav-dir", str(corpus / "wav"), "--out", str(out),
                 "--bin-stride", "32", "--frame-stride", "25",
                 "--jobs", "3"]) == 0
    for e in read_protocol(corpus / "protocol_dev.txt"):
        a = read_gram(out / f"{e.utt_id}.fgram")
        b = read_gram(feats / f"{e.utt_id}.fgram")
        assert np.array_equal(a.data, b.data)


def test_error_exit_is_single_parseable_line(tmp_path, capsys):
    code = main(["evaluate", "--scores", str(tmp_path / "missing.txt"),
                 "--protocol", str(tmp_path / "missing2.txt")])
    assert code == 1
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1
    assert err.startswith("error:")


def test_simulate_collision_errors_cleanly(pipeline, capsys):
    _, corpus, _, _, _, _ = pipeline
    # three sources: two cannot fill the splits, a parameter error checked first
    code = main(["simulate", "--out", str(corpus), "--sources", "3",
                 "--utts", "1", "--seed", "0"])
    assert code == 1
    assert capsys.readouterr().err.startswith("error:io:")


def test_gd_and_mgd_extraction(pipeline, tmp_path):
    _, corpus, _, _, _, _ = pipeline
    for feature in ("gd", "mgd"):
        out = tmp_path / feature
        assert main(["extract", "--feature", feature,
                     "--protocol", str(corpus / "protocol_dev.txt"),
                     "--wav-dir", str(corpus / "wav"), "--out", str(out),
                     "--bin-stride", "32", "--frame-stride", "25"]) == 0
        utt = read_protocol(corpus / "protocol_dev.txt")[0].utt_id
        gram = read_gram(out / f"{utt}.fgram")
        assert gram.kind == ("GD" if feature == "gd" else "MGD")


def test_score_with_jobs_matches_serial(pipeline, tmp_path):
    _, corpus, feats, ckpt, scores, _ = pipeline
    par = tmp_path / "par.txt"
    assert main(["score", "--ckpt", str(ckpt), "--feature-dir", str(feats),
                 "--protocol", str(corpus / "protocol_eval.txt"),
                 "--out", str(par), "--jobs", "2"]) == 0
    assert par.read_bytes() == scores.read_bytes()


@pytest.mark.parametrize("jobs", ["2", "3"])
def test_score_jobs_runs_whole_batches_in_the_pool(pipeline, tmp_path, monkeypatch, jobs):
    # each pool job reads a batch's grams and runs its forward, not one gram
    # read; threads switch often, and 3 is more of them than CI has cores
    _, corpus, feats, ckpt, scores, _ = pipeline
    n_eval = len((corpus / "protocol_eval.txt").read_text().splitlines())
    monkeypatch.setattr(training, "SCORE_BATCH", 2)
    threads = []

    def recording_score_batch(model, grams):
        threads.append(threading.current_thread())
        return score_batch(model, grams)

    monkeypatch.setattr(training, "score_batch", recording_score_batch)
    par = tmp_path / "par.txt"
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        assert main(["score", "--ckpt", str(ckpt), "--feature-dir", str(feats),
                     "--protocol", str(corpus / "protocol_eval.txt"),
                     "--out", str(par), "--jobs", jobs]) == 0
    finally:
        sys.setswitchinterval(interval)
    assert len(threads) == -(-n_eval // 2) >= 3
    assert threading.main_thread() not in threads
    assert par.read_bytes() == scores.read_bytes()


def _train_args(pipeline, out, cfg, protocol_train=None, protocol_dev=None):
    _, corpus, feats, _, _, _ = pipeline
    return ["train", "--feature-dir", str(feats),
            "--protocol-train", str(protocol_train or corpus / "protocol_train.txt"),
            "--protocol-dev", str(protocol_dev or corpus / "protocol_dev.txt"),
            "--objective", "bfl", "--config", str(cfg), "--out", str(out)]


def test_single_alpha_is_a_parameter_error(pipeline, tmp_path, capsys):
    cfg = tmp_path / "alpha.cfg"
    cfg.write_text("[train]\nalpha = 0.5\nmax_epochs = 1\n")
    assert main(_train_args(pipeline, tmp_path / "m.ckpt", cfg)) == 1
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1
    assert err.startswith("error:parameter:") and "alpha" in err
    assert not (tmp_path / "m.ckpt").exists()


def test_single_class_training_protocol_is_a_data_error(pipeline, tmp_path, capsys):
    _, corpus, _, _, _, cfg = pipeline
    spoof = [e for e in read_protocol(corpus / "protocol_train.txt") if e.label == "spoof"]
    protocol = tmp_path / "spoof.txt"
    protocol.write_text("".join(f"{e.utt_id} {e.attack_code} {e.label}\n" for e in spoof))
    err = _error_line(main(_train_args(pipeline, tmp_path / "m.ckpt", cfg, protocol)), capsys)
    assert err.startswith("error:data:") and f"0 bonafide and {len(spoof)} spoof" in err, err
    assert not (tmp_path / "m.ckpt").exists()


@pytest.mark.parametrize("labels", [(), ("spoof",)], ids=["empty", "spoof-only"])
def test_dev_protocol_without_both_classes_is_a_data_error(pipeline, tmp_path, capsys, labels):
    # checked with the training set's classes, before an epoch is trained
    _, corpus, _, _, _, cfg = pipeline
    dev = [e for e in read_protocol(corpus / "protocol_dev.txt") if e.label in labels]
    assert len(dev) > 0 or not labels
    protocol = tmp_path / "dev.txt"
    protocol.write_text("".join(f"{e.utt_id} {e.attack_code} {e.label}\n" for e in dev))
    out = tmp_path / "m.ckpt"
    err = _error_line(main(_train_args(pipeline, out, cfg, protocol_dev=protocol)), capsys)
    assert err == ("error:data: the dev protocol needs both classes, "
                   f"got 0 bonafide and {len(dev)} spoof utterances"), err
    assert not out.exists() and not (tmp_path / "m.ckpt.log").exists()


@pytest.mark.parametrize("gamma", ["inf", "nan", "1e308"])
def test_gamma_the_loss_cannot_use_is_a_parameter_error(pipeline, tmp_path, capsys, gamma):
    # inf once trained a zero-gradient model, nan ended as a training error,
    # and 1e308 overflowed the float32 loss with RuntimeWarnings
    _, _, _, _, _, cfg = pipeline
    err = _error_line(main(_train_args(pipeline, tmp_path / "m.ckpt", cfg) + ["--gamma", gamma]),
                      capsys)
    assert err.startswith("error:parameter: gamma must be"), err
    assert not (tmp_path / "m.ckpt").exists()


@pytest.mark.parametrize("objective", ["bce", "bfl"])
def test_config_gamma_is_an_unknown_key(pipeline, tmp_path, capsys, objective):
    cfg = tmp_path / "gamma.cfg"
    cfg.write_text("[train]\ngamma = 3\nmax_epochs = 1\n")
    args = _train_args(pipeline, tmp_path / "m.ckpt", cfg)
    args[args.index("--objective") + 1] = objective
    err = _error_line(main(args), capsys)
    assert err.startswith("error:parameter:") and "'gamma'" in err, err
    assert not (tmp_path / "m.ckpt").exists()


def test_empty_training_protocol_is_a_data_error(pipeline, tmp_path, capsys):
    _, _, _, _, _, cfg = pipeline
    empty = tmp_path / "empty.txt"
    empty.write_text("")
    assert main(_train_args(pipeline, tmp_path / "m.ckpt", cfg, empty)) == 1
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1
    assert err.startswith("error:data:")


@pytest.mark.parametrize("values", [
    "lr = 1e300\nmax_epochs = 1\n",
    "weight_decay = 1e30\nmax_epochs = 2\n",
    "lr = 1e10\nmax_epochs = 3\n",
    "alpha = 1e38, 1e38\n",
], ids=["lr-1e300", "weight_decay-1e30", "lr-1e10", "alpha-1e38"])
def test_a_diverging_train_is_one_training_line(pipeline, tmp_path, capsys, values):
    # numpy's overflow warnings on the way stay off stderr, and non-finite dev
    # scores are a training error, not a metric one
    cfg = tmp_path / "diverge.cfg"
    cfg.write_text("[train]\n" + values)
    out = tmp_path / "m.ckpt"
    err = _error_line(main(_train_args(pipeline, out, cfg)), capsys)
    assert err.startswith("error:training: "), err
    assert not out.exists() and not Path(str(out) + ".log").exists()


def test_truncated_or_garbage_checkpoint_is_a_format_error(pipeline, tmp_path, capsys):
    _, corpus, feats, ckpt, _, _ = pipeline
    blob = ckpt.read_bytes()
    header_end = 10 + int.from_bytes(blob[6:10], "little")
    bad = tmp_path / "bad.ckpt"
    cases = [blob[:n] for n in (0, 3, 7, 9, 10, 40, header_end - 1, header_end + 5,
                                len(blob) - 1)]
    cases.append(blob[:10] + b"\xff" * (header_end - 10) + blob[header_end:])
    cases.append(blob[:10] + b"[]".ljust(header_end - 10) + blob[header_end:])
    cases.append(blob[:10] + b'{"arrays": []}'.ljust(header_end - 10) + blob[header_end:])
    for case in cases:
        bad.write_bytes(case)
        code = main(["score", "--ckpt", str(bad), "--feature-dir", str(feats),
                     "--protocol", str(corpus / "protocol_eval.txt"),
                     "--out", str(tmp_path / "s.txt")])
        err = capsys.readouterr().err.strip()
        assert code == 1
        assert len(err.splitlines()) == 1
        assert err.startswith("error:format:"), err


@pytest.fixture
def mixed_shape_feats(pipeline, tmp_path):
    """A copy of the pipeline's feature dir in which the second utterance of
    the train and eval protocols is re-extracted at another bin stride."""
    _, corpus, feats, _, _, _ = pipeline
    mixed = tmp_path / "mixed"
    shutil.copytree(feats, mixed)
    odd = [read_protocol(corpus / f"protocol_{split}.txt")[1] for split in ("train", "eval")]
    protocol = tmp_path / "odd.txt"
    protocol.write_text("".join(f"{e.utt_id} {e.attack_code} {e.label}\n" for e in odd))
    assert main(["extract", "--feature", "stft", "--protocol", str(protocol),
                 "--wav-dir", str(corpus / "wav"), "--out", str(mixed),
                 "--bin-stride", "16", "--frame-stride", "25"]) == 0
    return mixed, [e.utt_id for e in odd]


def _error_line(code, capsys) -> str:
    """The one stderr line of a command that failed with exit code 1."""
    err = capsys.readouterr().err.strip()
    assert code == 1
    assert len(err.splitlines()) == 1, err
    return err


def _assert_shape_error(code, capsys, odd_ids):
    err = _error_line(code, capsys)
    assert err.startswith("error:shape:"), err
    assert any(u in err for u in odd_ids), err


def test_train_on_mixed_gram_shapes_is_a_shape_error(pipeline, mixed_shape_feats, tmp_path, capsys):
    cfg = pipeline[5]
    mixed, odd_ids = mixed_shape_feats
    capsys.readouterr()
    args = _train_args(pipeline, tmp_path / "m.ckpt", cfg)
    args[args.index("--feature-dir") + 1] = str(mixed)
    _assert_shape_error(main(args), capsys, odd_ids)


def test_score_jobs_on_mixed_gram_shapes_is_a_shape_error(pipeline, mixed_shape_feats, tmp_path,
                                                          capsys):
    _, corpus, _, ckpt, _, _ = pipeline
    mixed, odd_ids = mixed_shape_feats
    capsys.readouterr()
    code = main(["score", "--ckpt", str(ckpt), "--feature-dir", str(mixed),
                 "--protocol", str(corpus / "protocol_eval.txt"),
                 "--out", str(tmp_path / "s.txt"), "--jobs", "2"])
    _assert_shape_error(code, capsys, odd_ids)


@pytest.fixture
def mixed_kind_feats(pipeline, tmp_path):
    """A feature dir holding STFT grams of the train protocol and MGD grams,
    of the same shape, of the dev protocol."""
    _, corpus, _, _, _, _ = pipeline
    mixed = tmp_path / "mixed"
    for feature, split in (("stft", "train"), ("mgd", "dev")):
        assert main(["extract", "--feature", feature,
                     "--protocol", str(corpus / f"protocol_{split}.txt"),
                     "--wav-dir", str(corpus / "wav"), "--out", str(mixed),
                     "--bin-stride", "32", "--frame-stride", "25"]) == 0
    return mixed


def _assert_kind_error(code, capsys, first_id, other_id):
    err = _error_line(code, capsys)
    assert err == (f"error:data: gram of {other_id!r} is MGD, "
                   f"but gram of {first_id!r} is STFT"), err


def test_train_on_mixed_gram_kinds_is_a_data_error(pipeline, mixed_kind_feats, tmp_path, capsys):
    # STFT train grams once trained a model whose epoch was picked on MGD dev grams
    corpus, cfg = pipeline[1], pipeline[5]
    capsys.readouterr()
    out = tmp_path / "m.ckpt"
    args = _train_args(pipeline, out, cfg)
    args[args.index("--feature-dir") + 1] = str(mixed_kind_feats)
    _assert_kind_error(main(args), capsys, read_protocol(corpus / "protocol_train.txt")[0].utt_id,
                       read_protocol(corpus / "protocol_dev.txt")[0].utt_id)
    assert not out.exists() and not (tmp_path / "m.ckpt.log").exists()


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_score_on_mixed_gram_kinds_is_a_data_error(pipeline, mixed_kind_feats, tmp_path, capsys,
                                                   jobs):
    _, corpus, _, ckpt, _, _ = pipeline
    protocol = tmp_path / "both.txt"
    protocol.write_text((corpus / "protocol_train.txt").read_text()
                        + (corpus / "protocol_dev.txt").read_text())
    capsys.readouterr()
    out = tmp_path / "s.txt"
    code = main(["score", "--ckpt", str(ckpt), "--feature-dir", str(mixed_kind_feats),
                 "--protocol", str(protocol), "--out", str(out), "--jobs", jobs])
    _assert_kind_error(code, capsys, read_protocol(corpus / "protocol_train.txt")[0].utt_id,
                       read_protocol(corpus / "protocol_dev.txt")[0].utt_id)
    assert not out.exists()


@pytest.mark.parametrize("key, value", [("hop", 0), ("hop", -128), ("n_octaves", 0),
                                        ("bins_per_octave", 0)])
def test_cqt_value_below_one_is_a_parameter_error(pipeline, tmp_path, capsys, key, value):
    _, corpus, _, _, _, _ = pipeline
    cfg = tmp_path / "cqt.cfg"
    cfg.write_text(f"[cqt]\n{key} = {value}\n")
    code = main(["extract", "--feature", "cqt", "--config", str(cfg),
                 "--protocol", str(corpus / "protocol_dev.txt"),
                 "--wav-dir", str(corpus / "wav"), "--out", str(tmp_path / "cqt")])
    err = capsys.readouterr().err.strip()
    assert code == 1
    assert len(err.splitlines()) == 1
    assert err.startswith("error:parameter:") and key in err, err


@pytest.mark.parametrize("text", ["lr = 1e-3\n", "[train]\nlr = 1e-3\nlr = 2e-3\n"],
                         ids=["no-section-header", "duplicate-option"])
def test_config_the_parser_rejects_is_a_parameter_error(tmp_path, capsys, text):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(text)
    code = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "corpus"),
                 "--sources", "2", "--utts", "1"])
    err = _error_line(code, capsys)
    assert err.startswith("error:parameter:") and str(cfg) in err, err
    assert not (tmp_path / "corpus").exists()


def _one_utterance(corpus, tmp_path):
    entry = read_protocol(corpus / "protocol_dev.txt")[0]
    protocol = tmp_path / "one.txt"
    protocol.write_text(f"{entry.utt_id} {entry.attack_code} {entry.label}\n")
    return entry.utt_id, protocol


@pytest.mark.parametrize("utt_id", ["../../escaped", "sub/x", "..\\escaped"],
                         ids=["dot-dot", "subdirectory", "backslash"])
def test_an_utt_id_with_a_path_separator_is_a_parse_error(pipeline, tmp_path, capsys, utt_id):
    # extract builds file names from the utt_id: ../../escaped once read
    # <wav-dir>/../../escaped.wav, wrote <out>/../../escaped.fgram and exited 0
    _, corpus, _, _, _, _ = pipeline
    wav = next((corpus / "wav").glob("*.wav")).read_bytes()
    wav_dir, out = tmp_path / "a" / "b" / "wav", tmp_path / "a" / "b" / "out"
    (wav_dir / "sub").mkdir(parents=True)
    for name in ("../../escaped", "sub/x", "..\\escaped"):  # each one a WAV to read
        (wav_dir / f"{name}.wav").write_bytes(wav)
    before = sorted(tmp_path.rglob("*"))
    protocol = tmp_path / "protocol.txt"
    protocol.write_text(f"{utt_id} - bonafide\n")
    code = main(["extract", "--feature", "stft", "--protocol", str(protocol),
                 "--wav-dir", str(wav_dir), "--out", str(out)])
    assert _error_line(code, capsys) == (f"error:parse: {protocol}:1: utt_id {utt_id!r} "
                                         f"contains a path separator")
    assert sorted(tmp_path.rglob("*")) == sorted([*before, protocol])


def test_extract_of_a_truncated_wav_is_a_format_error(pipeline, tmp_path, capsys):
    _, corpus, _, _, _, _ = pipeline
    utt_id, protocol = _one_utterance(corpus, tmp_path)
    wav_dir = tmp_path / "wav"
    wav_dir.mkdir()
    wav = wav_dir / f"{utt_id}.wav"
    wav.write_bytes((corpus / "wav" / f"{utt_id}.wav").read_bytes()[:20])
    code = main(["extract", "--feature", "stft", "--protocol", str(protocol),
                 "--wav-dir", str(wav_dir), "--out", str(tmp_path / "feats")])
    err = _error_line(code, capsys)
    assert err.startswith("error:format:") and str(wav) in err, err


def test_extract_into_a_malformed_manifest_is_a_format_error(pipeline, tmp_path, capsys):
    _, corpus, _, _, _, _ = pipeline
    _, protocol = _one_utterance(corpus, tmp_path)
    out = tmp_path / "feats"
    out.mkdir()
    (out / "features.manifest").write_text("foo\n")
    code = main(["extract", "--feature", "stft", "--protocol", str(protocol),
                 "--wav-dir", str(corpus / "wav"), "--out", str(out)])
    err = _error_line(code, capsys)
    assert err.startswith("error:format:") and "features.manifest:1:" in err, err


def test_score_of_a_manifest_naming_a_file_outside_is_a_format_error(pipeline, tmp_path,
                                                                      capsys):
    # the gram sits where "../<utt>.fgram" leads, so only the manifest check stops score
    _, corpus, feats, ckpt, _, _ = pipeline
    utt_id, protocol = _one_utterance(corpus, tmp_path)
    shutil.copy(feats / f"{utt_id}.fgram", tmp_path / f"{utt_id}.fgram")
    escape = tmp_path / "escape"
    escape.mkdir()
    (escape / "features.manifest").write_text(f"{utt_id} ../{utt_id}.fgram\n")
    out = tmp_path / "s.txt"
    code = main(["score", "--ckpt", str(ckpt), "--feature-dir", str(escape),
                 "--protocol", str(protocol), "--out", str(out)])
    err = _error_line(code, capsys)
    assert err == (f"error:format: {escape / 'features.manifest'}:1: file name "
                   f"'../{utt_id}.fgram' contains a path separator"), err
    assert not out.exists()


@pytest.mark.parametrize("bad", ["scores", "protocol"])
def test_evaluate_non_ascii_file_is_a_parse_error(tmp_path, capsys, bad):
    files = {"scores": tmp_path / "scores.txt", "protocol": tmp_path / "protocol.txt"}
    files["scores"].write_text("b1 0.9\ns1 0.1\n")
    files["protocol"].write_text("b1 - bonafide\ns1 AA spoof\n")
    files[bad].write_bytes(files[bad].read_bytes().replace(b"s1", b"s\xe91"))
    code = main(["evaluate", "--scores", str(files["scores"]),
                 "--protocol", str(files["protocol"])])
    err = _error_line(code, capsys)
    assert err.startswith(f"error:parse: {files[bad]}:2:"), err


@pytest.mark.parametrize("kind, dims", [("gram", [2**32 - 1, 2**32 - 1]), ("gram", [2**20, 2**12]),
                                        ("ckpt", 912), ("ckpt", 61_800)],
                         ids=["gram-overflow", "gram-16GiB", "ckpt-16GiB", "ckpt-72TiB"])
def test_size_a_header_claims_beyond_the_file_is_a_format_error(pipeline, tmp_path, capsys,
                                                                  kind, dims):
    # a checkpoint's model, built before any size check, once ended in a
    # MemoryError traceback
    _, corpus, feats, ckpt, _, _ = pipeline
    utt_id, _ = _one_utterance(corpus, tmp_path)
    gram = feats / f"{utt_id}.fgram"
    bad = tmp_path / f"bad.{kind}"
    if kind == "gram":
        blob = gram.read_bytes()  # n_bins and n_frames are the u32s at bytes 7-14
        bad.write_bytes(blob[:7] + struct.pack("<II", *dims) + blob[15:])
        args = ["--ckpt", str(ckpt), "--feature", str(bad)]
    else:  # the width of a model of 16 GiB or 72 TiB
        bad.write_bytes(ckpt_with_config(ckpt.read_bytes(), channels=dims))
        args = ["--ckpt", str(bad), "--feature", str(gram)]
    err = _error_line(main(["saliency", *args, "--out", str(tmp_path / "s.fgram")]), capsys)
    assert err.startswith(f"error:format: {bad}:"), err


def _checkpoint_command(command, ckpt, pipeline, tmp_path) -> list:
    """``score`` or ``saliency`` of one dev utterance under ``ckpt``."""
    _, corpus, feats, _, _, _ = pipeline
    utt_id, protocol = _one_utterance(corpus, tmp_path)
    if command == "score":
        return ["score", "--ckpt", str(ckpt), "--feature-dir", str(feats),
                "--protocol", str(protocol), "--out", str(tmp_path / "s.txt")]
    return ["saliency", "--ckpt", str(ckpt), "--feature", str(feats / f"{utt_id}.fgram"),
            "--out", str(tmp_path / "s.fgram")]


def _ckpt_with_classes(ckpt, n_classes: int) -> bytes:
    """The checkpoint at ``ckpt`` with ``n_classes`` in its header's model
    config, and its output layer cut or repeated to that many rows, so that
    the file is one a model of that many classes would write."""
    state = load_checkpoint(ckpt)[0].state()
    for name in ("param/out_w", "param/out_b"):
        state[name] = np.resize(state[name], (n_classes, *state[name].shape[1:]))
    payload = b"".join(array.tobytes() for _, array in sorted(state.items()))
    return ckpt_with_config(ckpt.read_bytes(), payload, n_classes=n_classes)


_NO_N_CLASSES = ("malformed checkpoint header: TypeError(\"ResNetConfig.__init__() got an "
                 "unexpected keyword argument 'n_classes'\")")


@pytest.mark.parametrize("config, problem", [
    ({"n_classes": 1}, _NO_N_CLASSES),
    ({"n_classes": 3}, _NO_N_CLASSES),
    ({"channels": 2.0}, "channels must be a positive int, got 2.0"),
    ({"block_counts": [3.5, 4, 6, 3]},
     "block_counts must be four positive ints, got [3.5, 4, 6, 3]"),
], ids=["one-class", "three-class", "float-width", "float-block-count"])
@pytest.mark.parametrize("command", ["score", "saliency"])
def test_model_config_the_cli_cannot_score_is_a_format_error(pipeline, tmp_path, capsys,
                                                              command, config, problem):
    # one class once ended in an IndexError traceback and three were scored as
    # two; a config the model rejected was a parameter error naming no file,
    # a float width a TypeError traceback, and 3.5 blocks were read as 3.
    # The output layer is N_CLASSES wide, so a header that names a width is malformed
    bad = tmp_path / "bad.ckpt"
    if "n_classes" in config:
        bad.write_bytes(_ckpt_with_classes(pipeline[3], config["n_classes"]))
    else:
        bad.write_bytes(ckpt_with_config(pipeline[3].read_bytes(), **config))
    err = _error_line(main(_checkpoint_command(command, bad, pipeline, tmp_path)), capsys)
    assert err == f"error:format: {bad}: {problem}", err


@pytest.mark.parametrize("key", ["base_channels", "scale"])
def test_the_old_width_keys_are_unknown_config_keys(pipeline, tmp_path, capsys, key):
    # stage 0's width is [model] channels: a base_channels = 16 that once
    # meant a quarter of 16 must not train a model four times as wide
    cfg = tmp_path / "old.cfg"
    cfg.write_text(f"[model]\n{key} = 16\n")
    code = main(_train_args(pipeline, tmp_path / "m.ckpt", cfg))
    assert _error_line(code, capsys) == f"error:parameter: unknown config key '{key}' in [model]"
    assert not (tmp_path / "m.ckpt").exists()


@pytest.mark.parametrize("old", [{"channels": None, "base_channels": 16, "scale": 8},
                                 {"base_channels": 2}, {"scale": 1}],
                         ids=["old-header", "base_channels", "scale"])
def test_a_header_with_the_old_width_keys_is_a_format_error(pipeline, tmp_path, capsys, old):
    # "old-header" is the config a checkpoint of the base_channels/scale
    # format carries for this model; the other two add one key to it
    bad = tmp_path / "old.ckpt"
    bad.write_bytes(ckpt_with_config(pipeline[3].read_bytes(), **old))
    err = _error_line(main(_checkpoint_command("score", bad, pipeline, tmp_path)), capsys)
    key = "base_channels" if "base_channels" in old else "scale"
    assert err == (f"error:format: {bad}: malformed checkpoint header: TypeError(\"ResNetConfig."
                   f"__init__() got an unexpected keyword argument '{key}'\")"), err


@pytest.mark.parametrize("command, jobs", [("score", "1"), ("score", "2"), ("saliency", None)],
                         ids=["score-1", "score-2", "saliency"])
def test_gram_of_another_kind_than_the_checkpoint_is_a_data_error(pipeline, mixed_kind_feats,
                                                                  tmp_path, capsys, command, jobs):
    # an STFT checkpoint once scored MGD grams of the same shape, and mapped them
    _, corpus, _, ckpt, _, _ = pipeline
    utt_id = read_protocol(corpus / "protocol_dev.txt")[0].utt_id
    gram = mixed_kind_feats / f"{utt_id}.fgram"
    out = tmp_path / "out"
    if command == "score":
        args = ["score", "--ckpt", str(ckpt), "--feature-dir", str(mixed_kind_feats),
                "--protocol", str(corpus / "protocol_dev.txt"), "--out", str(out), "--jobs", jobs]
    else:
        args = ["saliency", "--ckpt", str(ckpt), "--feature", str(gram), "--out", str(out)]
    capsys.readouterr()
    err = _error_line(main(args), capsys)
    assert err == (f"error:data: checkpoint {ckpt} was trained on STFT grams, "
                   f"but gram {gram} is MGD")
    assert not out.exists()


@pytest.mark.parametrize("score", ["inf", "nan", "1e400"])
@pytest.mark.parametrize("command", ["fuse", "evaluate"])
def test_non_finite_score_is_a_parse_error(tmp_path, capsys, command, score):
    scores = tmp_path / "scores.txt"
    scores.write_text(f"s1 0.1\nb1 {score}\n")
    protocol = tmp_path / "protocol.txt"
    protocol.write_text("b1 - bonafide\ns1 AA spoof\n")
    fused = tmp_path / "fused.txt"
    args = {"fuse": ["fuse", "--method", "mean", "--scores", str(scores), str(scores),
                     "--out", str(fused)],
            "evaluate": ["evaluate", "--scores", str(scores), "--protocol", str(protocol)]}
    err = _error_line(main(args[command]), capsys)
    assert err.startswith(f"error:parse: {scores}:2:"), err
    assert not fused.exists()


def test_bce_with_a_non_zero_gamma_is_a_parameter_error(pipeline, tmp_path, capsys):
    _, _, _, _, _, cfg = pipeline
    args = _train_args(pipeline, tmp_path / "m.ckpt", cfg)
    args[args.index("--objective") + 1] = "bce"
    err = _error_line(main(args + ["--gamma", "2"]), capsys)
    assert err.startswith("error:parameter:") and "gamma" in err, err
    assert not (tmp_path / "m.ckpt").exists()


def test_bce_is_bfl_at_gamma_zero(pipeline, tmp_path):
    _, _, _, _, _, cfg = pipeline
    runs = {}
    for objective, extra in (("bce", []), ("bfl", ["--gamma", "0"])):
        out = tmp_path / f"{objective}.ckpt"
        args = _train_args(pipeline, out, cfg)
        args[args.index("--objective") + 1] = objective
        assert main(args + extra) == 0
        model, meta = load_checkpoint(out)
        runs[objective] = (model.state(), meta, (tmp_path / f"{objective}.ckpt.log").read_bytes())
    (bce_arrays, bce_meta, bce_log), (bfl_arrays, bfl_meta, bfl_log) = runs["bce"], runs["bfl"]
    assert bce_arrays.keys() == bfl_arrays.keys()
    assert all(np.array_equal(bce_arrays[n], bfl_arrays[n]) for n in bce_arrays)
    assert bce_log == bfl_log
    assert (bce_meta["objective"], bfl_meta["objective"]) == ("bce", "bfl")
    assert bce_meta["best_dev_eer"] == bfl_meta["best_dev_eer"]


@pytest.fixture(scope="module")
def corpus_8k(tmp_path_factory):
    """A three-source corpus simulated at 8 kHz, and the config that says so."""
    root = tmp_path_factory.mktemp("corpus8k")
    cfg = root / "8k.cfg"
    cfg.write_text("[audio]\nsample_rate = 8000\n")
    assert main(["simulate", "--out", str(root / "corpus"), "--sources", "3", "--utts", "1",
                 "--seed", "2", "--config", str(cfg)]) == 0
    return root / "corpus", cfg


@pytest.mark.parametrize("feature", ["stft", "gd", "mgd"])
def test_frames_follow_the_wav_sample_rate(corpus_8k, tmp_path, feature):
    corpus, cfg = corpus_8k
    grams = {}
    for name, extra in (("with", ["--config", str(cfg)]), ("without", [])):
        out = tmp_path / name
        assert main(["extract", "--feature", feature,
                     "--protocol", str(corpus / "protocol_dev.txt"),
                     "--wav-dir", str(corpus / "wav"), "--out", str(out), *extra]) == 0
        grams[name] = {p.name: p.read_bytes() for p in out.glob("*.fgram")}
    assert len(grams["with"]) == 10
    assert grams["with"] == grams["without"]


def test_non_finite_checkpoint_array_is_a_format_error(pipeline, tmp_path, capsys):
    _, corpus, feats, ckpt, _, _ = pipeline
    bad = tmp_path / "nan.ckpt"
    # the arrays are in name order, so the last bytes are param/stem_conv's float32s
    bad.write_bytes(ckpt.read_bytes()[:-4] + struct.pack("<f", float("nan")))
    out = tmp_path / "s.txt"
    err = _error_line(main(["score", "--ckpt", str(bad), "--feature-dir", str(feats),
                            "--protocol", str(corpus / "protocol_eval.txt"),
                            "--out", str(out)]), capsys)
    assert err.startswith(f"error:format: {bad}:") and "param/stem_conv" in err, err
    assert not out.exists()


def test_repeated_protocol_utt_id_is_a_parse_error(tmp_path, capsys):
    protocol = tmp_path / "protocol.txt"
    protocol.write_text("b1 - bonafide\ns1 AA spoof\ns2 AA spoof\ns1 AA spoof\n")
    write_score_file({"b1": 0.9, "s1": 0.1, "s2": 0.95}, tmp_path / "scores.txt")
    err = _error_line(main(["evaluate", "--scores", str(tmp_path / "scores.txt"),
                            "--protocol", str(protocol)]), capsys)
    assert err.startswith(f"error:parse: {protocol}:4:") and "s1" in err, err


def test_non_finite_gram_cell_is_a_format_error(pipeline, tmp_path, capsys):
    _, corpus, feats, ckpt, _, _ = pipeline
    utt_id, _ = _one_utterance(corpus, tmp_path)
    bad = tmp_path / "nan.fgram"
    bad.write_bytes((feats / f"{utt_id}.fgram").read_bytes()[:-4] + struct.pack("<f", float("nan")))
    err = _error_line(main(["saliency", "--ckpt", str(ckpt), "--feature", str(bad),
                            "--out", str(tmp_path / "s.fgram")]), capsys)
    assert err.startswith(f"error:format: {bad}:"), err


def test_wav_chunk_size_past_its_chunk_is_a_format_error(pipeline, tmp_path, capsys):
    _, corpus, _, _, _, _ = pipeline
    utt_id, protocol = _one_utterance(corpus, tmp_path)
    wav_dir = tmp_path / "wav"
    wav_dir.mkdir()
    wav = wav_dir / f"{utt_id}.wav"
    blob = (corpus / "wav" / f"{utt_id}.wav").read_bytes()
    wav.write_bytes(blob[:16] + struct.pack("<I", 195) + blob[20:])  # the fmt chunk's size
    code = main(["extract", "--feature", "stft", "--protocol", str(protocol),
                 "--wav-dir", str(wav_dir), "--out", str(tmp_path / "feats")])
    err = _error_line(code, capsys)
    assert err.startswith("error:format:") and str(wav) in err, err


@pytest.mark.parametrize("command, text", [
    ("evaluate", "[tdcf]\npi_tar = nan\n"),
    ("evaluate", "[tdcf]\nc_fa_cm = inf\n"),
    ("evaluate", "[tdcf]\nc_fa_cm = 1e400\n"),
    ("extract", "[stft]\nframe_ms = nan\n"),
    ("simulate", "[DEFAULT]\nsample_rate = 8000\n"),
    ("simulate", "[audio]\nsample_rate = -5\n"),
    ("train", "[train]\nbeta1 = 1\n"),
    ("train", "[train]\nbeta2 = -0.1\n"),
    ("train", "[train]\nplateau_patience = 0\n"),
    ("train", "[train]\nweight_decay = -5\n"),
    ("train", "[train]\nseed = -1\n"),
], ids=["nan", "inf", "1e400", "nan-frame", "default-section", "negative-rate", "beta1-one",
        "negative-beta2", "zero-patience", "negative-weight-decay", "negative-seed"])
def test_config_value_that_cannot_work_is_a_parameter_error(pipeline, tmp_path, capsys,
                                                            command, text):
    _, corpus, feats, _, scores, _ = pipeline
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(text)
    out = tmp_path / "out"
    args = {
        "evaluate": ["evaluate", "--scores", str(scores),
                     "--protocol", str(corpus / "protocol_eval.txt"), "--tdcf-config", str(cfg)],
        "extract": ["extract", "--feature", "stft", "--protocol", str(corpus / "protocol_dev.txt"),
                    "--wav-dir", str(corpus / "wav"), "--out", str(out), "--config", str(cfg)],
        "simulate": ["simulate", "--out", str(out), "--sources", "3", "--utts", "1",
                     "--config", str(cfg)],
        "train": ["train", "--feature-dir", str(feats),
                  "--protocol-train", str(corpus / "protocol_train.txt"),
                  "--protocol-dev", str(corpus / "protocol_dev.txt"), "--objective", "bfl",
                  "--config", str(cfg), "--out", str(out / "model.ckpt")],
    }
    err = _error_line(main(args[command]), capsys)
    assert err.startswith("error:parameter:"), err
    assert not any(p.is_file() for p in out.rglob("*"))


def test_a_section_the_command_does_not_read_is_still_checked(pipeline, tmp_path, capsys):
    # extract reads no [train] and evaluate no [model] values, and each file
    # is checked as a whole when it loads
    _, corpus, _, _, scores, _ = pipeline
    cfg = tmp_path / "train.cfg"
    cfg.write_text("[train]\nlr = abc\n")
    code = main(["extract", "--feature", "stft", "--protocol", str(corpus / "protocol_dev.txt"),
                 "--wav-dir", str(corpus / "wav"), "--out", str(tmp_path / "out"),
                 "--config", str(cfg)])
    assert _error_line(code, capsys) == "error:parameter: bad value for train.lr: 'abc'"
    cfg = tmp_path / "model.cfg"
    cfg.write_text("[model]\nnope = 1\n")
    code = main(["evaluate", "--scores", str(scores),
                 "--protocol", str(corpus / "protocol_eval.txt"), "--tdcf-config", str(cfg)])
    assert _error_line(code, capsys) == "error:parameter: unknown config key 'nope' in [model]"


def test_a_lifter_as_long_as_the_spectrum_is_a_parameter_error(pipeline, tmp_path, capsys):
    # 513 coefficients of a 513-bin spectrum once turned MGD's smoothing off
    _, corpus, _, _, _, _ = pipeline
    _, protocol = _one_utterance(corpus, tmp_path)
    cfg = tmp_path / "lifter.cfg"
    cfg.write_text("[mgd]\nlifter_len = 513\n")
    code = main(["extract", "--feature", "mgd", "--protocol", str(protocol),
                 "--wav-dir", str(corpus / "wav"), "--out", str(tmp_path / "mgd"),
                 "--config", str(cfg)])
    err = _error_line(code, capsys)
    assert err.startswith("error:parameter: ") and \
        err.endswith("mgd lifter_len must be below the 513 bins of n_fft 1024, got 513"), err


@pytest.mark.parametrize("seed", range(4))
def test_simulate_below_the_harmonic_floor_is_a_parameter_error(tmp_path, capsys, seed):
    # at 1000 Hz the harmonic-count draw once ended in a numpy ValueError
    cfg = tmp_path / "low.cfg"
    cfg.write_text("[audio]\nsample_rate = 1000\n")
    out = tmp_path / "corpus"
    err = _error_line(main(["simulate", "--out", str(out), "--sources", "8", "--utts", "1",
                            "--seed", str(seed), "--config", str(cfg)]), capsys)
    assert err.startswith("error:parameter:") and "1000 Hz" in err and "1780 Hz" in err, err
    assert not any(p.is_file() for p in out.rglob("*"))


def test_negative_simulate_seed_is_a_parameter_error(tmp_path, capsys):
    # numpy's generator once rejected it with a ValueError traceback
    out = tmp_path / "corpus"
    err = _error_line(main(["simulate", "--out", str(out), "--sources", "3", "--utts", "1",
                            "--seed", "-1"]), capsys)
    assert err.startswith("error:parameter:") and "seed" in err, err
    assert not out.exists()


def test_simulate_with_too_few_sources_for_the_splits_leaves_no_directory(tmp_path, capsys):
    # the source count is checked before any directory is made
    out = tmp_path / "corpus"
    err = _error_line(main(["simulate", "--out", str(out), "--sources", "2", "--utts", "1"]),
                      capsys)
    assert err.startswith("error:parameter:") and "eval would get 0" in err, err
    assert not out.exists()


def test_simulate_runs_at_the_harmonic_floor(tmp_path):
    cfg = tmp_path / "floor.cfg"
    cfg.write_text("[audio]\nsample_rate = 1780\n")
    out = tmp_path / "corpus"
    assert main(["simulate", "--out", str(out), "--sources", "8", "--utts", "1",
                 "--seed", "0", "--config", str(cfg)]) == 0
    wavs = sorted((out / "wav").glob("*.wav"))
    assert len(wavs) == 80
    assert read_wav(wavs[0]).sample_rate == 1780


@pytest.mark.parametrize("rate, category", [(0, "format"), (50, "parameter")])
def test_wav_rate_that_cannot_be_framed_names_the_wav(pipeline, tmp_path, capsys, rate, category):
    # at 50 Hz the default 10 ms hop rounds to 0 samples
    _, corpus, _, _, _, _ = pipeline
    utt_id, protocol = _one_utterance(corpus, tmp_path)
    wav_dir = tmp_path / "wav"
    wav_dir.mkdir()
    wav = wav_dir / f"{utt_id}.wav"
    blob = (corpus / "wav" / f"{utt_id}.wav").read_bytes()
    wav.write_bytes(blob[:24] + struct.pack("<I", rate) + blob[28:])  # the fmt chunk's rate
    code = main(["extract", "--feature", "stft", "--protocol", str(protocol),
                 "--wav-dir", str(wav_dir), "--out", str(tmp_path / "feats")])
    err = _error_line(code, capsys)
    assert err.startswith(f"error:{category}: {wav}"), err


@pytest.mark.parametrize("jobs", ["0", "-3"])
@pytest.mark.parametrize("command", ["extract", "score"])
def test_jobs_below_one_is_a_parameter_error(pipeline, tmp_path, capsys, command, jobs):
    _, corpus, feats, ckpt, _, _ = pipeline
    out = tmp_path / "out"
    args = {"extract": ["extract", "--feature", "stft", "--protocol",
                        str(corpus / "protocol_dev.txt"), "--wav-dir", str(corpus / "wav")],
            "score": ["score", "--ckpt", str(ckpt), "--feature-dir", str(feats),
                      "--protocol", str(corpus / "protocol_eval.txt")]}
    err = _error_line(main(args[command] + ["--out", str(out), "--jobs", jobs]), capsys)
    assert err == f"error:parameter: --jobs must be >= 1, got {jobs}", err
    assert not out.is_file() and not any(out.glob("*.fgram"))


def test_extract_cqt_with_jobs_builds_one_kernel(pipeline, tmp_path, monkeypatch):
    from replaycm import features

    _, corpus, _, _, _, _ = pipeline
    protocol = tmp_path / "three.txt"
    lines = (corpus / "protocol_dev.txt").read_text().splitlines()[:3]
    protocol.write_text("\n".join(lines) + "\n")
    builds = []

    class CountedKernel(features.CqtKernel):
        def __init__(self, *args):
            builds.append(args)
            super().__init__(*args)

    monkeypatch.setattr(features, "CqtKernel", CountedKernel)
    monkeypatch.setattr(features, "_KERNEL_CACHE", {})
    out = tmp_path / "cqt"
    assert main(["extract", "--feature", "cqt", "--protocol", str(protocol),
                 "--wav-dir", str(corpus / "wav"), "--out", str(out), "--jobs", "2"]) == 0
    assert len(list(out.glob("*.fgram"))) == 3
    assert builds == [(16000, 9, 96, 128)]


def _fusion_inputs(tmp_path, dev_scores):
    """Two systems' dev score files from ``dev_scores`` (utt -> pair), a
    protocol labelling d00, d03, ... bonafide, and two eval score files."""
    from replaycm.scoring import write_score_file

    utts = sorted(dev_scores)
    protocol = tmp_path / "dev_protocol.txt"
    protocol.write_text("".join(f"{u} - bonafide\n" if i % 3 == 0 else f"{u} AB spoof\n"
                                for i, u in enumerate(utts)))
    args = ["fuse", "--method", "lr", "--out", str(tmp_path / "fused.txt"),
            "--dev-protocol", str(protocol), "--scores"]
    dev_args = ["--dev-scores"]
    for k in range(2):
        # as text: the score-file writer's six fixed decimals cannot hold 1e300
        (tmp_path / f"dev{k}.txt").write_text("".join(f"{u} {dev_scores[u][k]!r}\n"
                                                      for u in utts))
        write_score_file({f"e{i}": 0.25 * (i - 2) * (k + 1) - 0.1 * k for i in range(5)},
                         tmp_path / f"eval{k}.txt")
        args.append(str(tmp_path / f"eval{k}.txt"))
        dev_args.append(str(tmp_path / f"dev{k}.txt"))
    return args + dev_args


def test_lr_fusion_bytes_are_fixed(tmp_path):
    dev = {f"d{i:02d}": tuple((1.5 - k if i % 3 == 0 else -0.5) + 0.37 * ((i * (k + 3)) % 7 - 3)
                              for k in range(2)) for i in range(12)}
    assert main(_fusion_inputs(tmp_path, dev)) == 0
    assert (tmp_path / "fused.txt").read_text() == (
        "e0 -19.261242\ne1 -7.873588\ne2 3.514067\ne3 14.901721\ne4 26.289375\n")


def test_lr_fusion_of_extreme_scores_is_one_numeric_error(tmp_path, capsys):
    import warnings

    dev = {f"d{i:02d}": (1e300 * (-1) ** i, -1e300 * (-1) ** (i // 2)) for i in range(6)}
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy RuntimeWarning would escape main
        code = main(_fusion_inputs(tmp_path, dev))
    err = _error_line(code, capsys)
    assert err.startswith("error:numeric: logistic fusion gradient norm is"), err
    assert not (tmp_path / "fused.txt").exists()


def test_strides_are_checked_before_any_wav_is_read(tmp_path, capsys):
    protocol = tmp_path / "protocol.txt"
    protocol.write_text("u0 - bonafide\n")
    code = main(["extract", "--feature", "stft", "--protocol", str(protocol),
                 "--wav-dir", str(tmp_path / "no_wavs"), "--out", str(tmp_path / "out"),
                 "--frame-stride", "0"])
    assert _error_line(code, capsys) == "error:parameter: strides must be >= 1"
    assert not (tmp_path / "out").exists()


def test_cqt_hop_longer_than_the_utterance_is_a_parameter_error(pipeline, tmp_path, capsys):
    _, corpus, _, _, _, _ = pipeline
    cfg = tmp_path / "hop.cfg"
    cfg.write_text("[cqt]\nhop = 100000000\n")
    code = main(["extract", "--feature", "cqt", "--protocol", str(corpus / "protocol_dev.txt"),
                 "--wav-dir", str(corpus / "wav"), "--out", str(tmp_path / "cqt"),
                 "--config", str(cfg)])
    err = _error_line(code, capsys)
    assert err.startswith("error:parameter: ") and "too short for one 100000000-sample cqt hop" \
        in err, err


@pytest.mark.parametrize("n_octaves, bins", [(200, 12 * 200), (1023, 1023)])
def test_cqt_octaves_whose_windows_outgrow_an_int_extract_cleanly(pipeline, tmp_path, capsys, n_octaves,
                                                          bins):
    # at 200 octaves the lowest windows, ~1e64 samples long, were cast to int
    # before the clip: numpy warned "invalid value encountered in cast"
    _, corpus, _, _, _, _ = pipeline
    utt_id, protocol = _one_utterance(corpus, tmp_path)
    cfg = tmp_path / "octaves.cfg"
    cfg.write_text(f"[cqt]\nn_octaves = {n_octaves}\nbins_per_octave = {bins // n_octaves}\n")
    out = tmp_path / "cqt"
    assert main(["extract", "--feature", "cqt", "--protocol", str(protocol),
                 "--wav-dir", str(corpus / "wav"), "--out", str(out), "--config", str(cfg),
                 "--bin-stride", "8", "--frame-stride", "10"]) == 0
    assert capsys.readouterr().err == ""
    assert read_gram(out / f"{utt_id}.fgram").data.shape == (-(-bins // 8), 50)


def test_cqt_octaves_past_the_float_range_are_a_parameter_error(pipeline, tmp_path, capsys):
    # 2.0**1100 once ended in an OverflowError traceback
    _, corpus, _, _, _, _ = pipeline
    _, protocol = _one_utterance(corpus, tmp_path)
    cfg = tmp_path / "octaves.cfg"
    cfg.write_text("[cqt]\nn_octaves = 1100\n")
    code = main(["extract", "--feature", "cqt", "--protocol", str(protocol),
                 "--wav-dir", str(corpus / "wav"), "--out", str(tmp_path / "cqt"),
                 "--config", str(cfg)])
    err = _error_line(code, capsys)
    assert err.startswith("error:parameter: ") and \
        err.endswith("cqt n_octaves must be at most 1023, got 1100"), err


def test_stride_keys_are_not_cqt_config_keys(pipeline, tmp_path, capsys):
    _, corpus, _, _, _, _ = pipeline
    for key in ("bin_stride", "frame_stride"):
        cfg = tmp_path / f"{key}.cfg"
        cfg.write_text(f"[cqt]\n{key} = 2\n")
        code = main(["extract", "--feature", "cqt", "--protocol", str(corpus / "protocol_dev.txt"),
                     "--wav-dir", str(corpus / "wav"), "--out", str(tmp_path / "cqt"),
                     "--config", str(cfg)])
        assert _error_line(code, capsys) == f"error:parameter: unknown config key '{key}' in [cqt]"


# 1 GiB of address space: the interpreter, numpy and the toy corpus fit, and
# no host's memory decides the outcome
ADDRESS_SPACE_LIMIT = 1 << 30


def _cli_in_a_child(args, address_space=ADDRESS_SPACE_LIMIT) -> subprocess.CompletedProcess:
    """``replaycm args`` in a child process with one BLAS thread, under an
    address-space limit."""
    resource = pytest.importorskip("resource")
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1")

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (address_space, address_space))

    return subprocess.run([sys.executable, "-m", "replaycm.cli", *args], env=env,
                          preexec_fn=limit, capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("command, config, what", [
    ("extract-stft", "[stft]\nn_fft = 100000000000\n", "71.3 TiB"),
    ("extract-mgd", "[stft]\nn_fft = 100000000000\n", "143. TiB"),
    ("extract-cqt", "[cqt]\nbins_per_octave = 100000000\n", "6.71 GiB"),
    ("train", "[model]\nchannels = 1048576\n", "TiB"),
    ("train", "[model]\nfc_width = 100000000000\n", "TiB"),
], ids=["n_fft-stft", "n_fft-mgd", "bins_per_octave", "channels", "fc_width"])
def test_out_of_memory_is_one_resource_line(pipeline, tmp_path, command, config, what):
    _, corpus, feats, _, _, _ = pipeline
    cfg = tmp_path / "big.cfg"
    cfg.write_text(config)
    out = tmp_path / "out"
    if command == "train":
        args = _train_args(pipeline, out, cfg)
    else:
        args = ["extract", "--feature", command.split("-")[1],
                "--protocol", str(corpus / "protocol_dev.txt"), "--wav-dir", str(corpus / "wav"),
                "--out", str(out), "--config", str(cfg)]
    run = _cli_in_a_child(args)
    assert run.returncode == 1 and run.stdout == "", (run.returncode, run.stdout, run.stderr)
    assert len(run.stderr.splitlines()) == 1, run.stderr
    verb = args[0]
    builds = "feature grams" if verb == "extract" else "a model"
    assert run.stderr.startswith(f"error:resource: {verb} ran out of memory building {builds}: "
                                 f"Unable to allocate "), run.stderr
    assert what in run.stderr
    if verb == "extract":  # made before the first WAV is read, and left empty
        assert list(out.iterdir()) == []
    else:
        assert not out.exists() and not Path(str(out) + ".log").exists()


@pytest.mark.parametrize("command, config, what", [
    ("mgd", f"[stft]\nn_fft = {2**62}\n", "array is too big"),
    ("stft", f"[stft]\nn_fft = {10**20}\n", "Maximum allowed dimension exceeded"),
    ("cqt", f"[cqt]\nbins_per_octave = {2**62}\n", "Maximum allowed size exceeded"),
], ids=["array-bytes", "dimension", "size"])
def test_a_size_past_any_array_is_one_resource_line(pipeline, tmp_path, capsys, command, config,
                                                    what):
    # numpy raises ValueError, not MemoryError, for these sizes, and each
    # once ended in a traceback; none allocates, so they run in-process
    _, corpus, _, _, _, _ = pipeline
    _, protocol = _one_utterance(corpus, tmp_path)
    cfg = tmp_path / "big.cfg"
    cfg.write_text(config)
    code = main(["extract", "--feature", command, "--protocol", str(protocol),
                 "--wav-dir", str(corpus / "wav"), "--out", str(tmp_path / "out"),
                 "--config", str(cfg)])
    err = _error_line(code, capsys)
    assert err.startswith(f"error:resource: extract ran out of memory building feature grams: "
                          f"{what}"), err


def test_any_other_value_error_is_not_a_resource_line(monkeypatch):
    def broken(args):
        raise ValueError("a fault in the program")

    monkeypatch.setattr("replaycm.cli.cmd_evaluate", broken)
    with pytest.raises(ValueError, match="a fault in the program"):
        main(["evaluate", "--scores", "s.txt", "--protocol", "p.txt"])


# sizes past any address space, some past any 64-bit integer
ABSURD_INT = st.integers(10**10, 10**400).map(str)
ABSURD_FLOAT = st.floats(1e10, 1e300).map(repr)
BAD_NUMBER = st.sampled_from(["0", "-1", "nan", "inf", "1e400", "x", ""])


def _values(valid, absurd=ABSURD_INT, invalid=BAD_NUMBER):
    return st.one_of(st.sampled_from(valid), invalid, absurd)


# small valid values, invalid ones and absurd sizes of every [stft], [mgd] and
# [cqt] key; no valid size that runs slowly, such as a one-sample hop
FRONT_END_VALUES = {
    "stft": {"frame_ms": _values(["20", "25", "32"], ABSURD_FLOAT),
             "hop_ms": _values(["5", "10", "16"], ABSURD_FLOAT),
             "window": st.sampled_from(["hamming", "hann", "rect", "boxcar", "rectangular", ""]),
             "n_fft": _values(["512", "1024", "2048"], invalid=st.sampled_from(["0", "-1", "1.5"]))},
    "mgd": {"rho": _values(["0.2", "1", "1e-300"], ABSURD_FLOAT),
            "lambda": _values(["0.7", "1", "1e-300"], ABSURD_FLOAT),
            "lifter_len": _values(["1", "30", "600"])},
    "cqt": {"hop": _values(["64", "128", "160"]),
            "n_octaves": _values(["1", "9", "12"]),
            "bins_per_octave": _values(["12", "96"])},
}
# the sections each front-end reads
READS = {"stft": ["stft"], "gd": ["stft"], "mgd": ["stft", "mgd"], "cqt": ["cqt"]}


@st.composite
def front_end_config(draw) -> tuple:
    """A feature kind, and a config setting one or two keys that it reads."""
    kind = draw(st.sampled_from(sorted(READS)))
    keys = st.sampled_from([(section, key) for section in READS[kind]
                            for key in FRONT_END_VALUES[section]])
    lines = {}
    for section, key in draw(st.lists(keys, min_size=1, max_size=2, unique=True)):
        lines.setdefault(section, []).append(f"{key} = {draw(FRONT_END_VALUES[section][key])}\n")
    return kind, "".join(f"[{section}]\n" + "".join(keyed) for section, keyed in lines.items())


@pytest.fixture(scope="module")
def one_utterance(pipeline, tmp_path_factory):
    _, corpus, _, _, _, _ = pipeline
    return (corpus,) + _one_utterance(corpus, tmp_path_factory.mktemp("one"))


# ~0.25 s a child process: 40 examples add ~10 s
@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(front_end_config())
def test_every_front_end_config_extracts_or_ends_in_one_error_line(one_utterance, drawn):
    corpus, utt_id, protocol = one_utterance
    kind, text = drawn
    with tempfile.TemporaryDirectory() as tmp:
        cfg, out = Path(tmp) / "front_end.cfg", Path(tmp) / "out"
        cfg.write_text(text)
        run = _cli_in_a_child(["extract", "--feature", kind, "--protocol", str(protocol),
                               "--wav-dir", str(corpus / "wav"), "--out", str(out),
                               "--config", str(cfg)], address_space=2 * ADDRESS_SPACE_LIMIT)
        if run.returncode == 0:
            assert run.stderr == ""
            assert read_gram(out / f"{utt_id}.fgram").kind == kind.upper()
        else:
            assert run.returncode == 1, run.stderr
            assert len(run.stderr.splitlines()) == 1 and run.stderr.startswith("error:"), \
                run.stderr


# small valid values, invalid ones and absurd sizes of every [model] and
# [train] key; no valid value that runs slowly, such as a huge max_epochs or
# block count (block_counts = 3,4,6,10000000000 takes 8-14 s to run out of a
# 2 GiB address space)
TRAIN_VALUES = {
    "model": {"block_counts": st.sampled_from(["1,1,1,1", "3,4,6,3", "2,1,1,2", "0,1,1,1",
                                               "1,1,1", "1.5,1,1,1", "x", ""]),
              "channels": _values(["1", "2", "4"]),
              "fc_width": _values(["1", "8", "32"])},
    "train": {"lr": _values(["1e-3", "3e-4", "1"], ABSURD_FLOAT),
              "beta1": _values(["0", "0.5", "0.9"], ABSURD_FLOAT),
              "beta2": _values(["0", "0.5", "0.999"], ABSURD_FLOAT),
              "weight_decay": _values(["0", "5e-5", "0.1"], ABSURD_FLOAT),
              "plateau_patience": _values(["1", "3"]),
              "plateau_factor": _values(["0.1", "0.5"], ABSURD_FLOAT),
              "batch_size": _values(["1", "6", "16"]),
              "max_epochs": st.sampled_from(["1", "2", "0", "-1", "1.5", "x", ""]),
              "seed": _values(["0", "1", "7"]),
              "alpha": st.sampled_from(["auto", "0.5,1.5", "1, 1", "0.5", "0,1", "nan,1", "x",
                                        "1e38, 1e38", "1e300,1e300"])},
}
# the toy model for one epoch, unless a drawn value says otherwise
TRAIN_BASE = {"model": {"channels": "2", "fc_width": "8"},
              "train": {"batch_size": "6", "max_epochs": "1"}}


@st.composite
def train_config(draw) -> str:
    """A config of the toy model setting one or two [model] or [train] keys."""
    keys = st.sampled_from([(section, key) for section in TRAIN_VALUES
                            for key in TRAIN_VALUES[section]])
    sections = {section: dict(values) for section, values in TRAIN_BASE.items()}
    for section, key in draw(st.lists(keys, min_size=1, max_size=2, unique=True)):
        sections[section][key] = draw(TRAIN_VALUES[section][key])
    return "".join(f"[{section}]\n" + "".join(f"{key} = {value}\n" for key, value in keyed.items())
                   for section, keyed in sections.items())


# up to ~0.6 s a child process: 16 examples add ~5 s
@settings(max_examples=16, deadline=None, derandomize=True, database=None)
@given(train_config())
def test_every_model_and_train_config_trains_or_ends_in_one_error_line(pipeline, text):
    with tempfile.TemporaryDirectory() as tmp:
        cfg, out = Path(tmp) / "train.cfg", Path(tmp) / "m.ckpt"
        cfg.write_text(text)
        run = _cli_in_a_child(_train_args(pipeline, out, cfg),
                              address_space=2 * ADDRESS_SPACE_LIMIT)
        if run.returncode == 0:
            assert run.stderr == ""
            assert out.exists() and Path(str(out) + ".log").exists()
        else:
            assert run.returncode == 1, run.stderr
            assert len(run.stderr.splitlines()) == 1 and run.stderr.startswith("error:"), \
                run.stderr
            assert not out.exists() and not Path(str(out) + ".log").exists()
