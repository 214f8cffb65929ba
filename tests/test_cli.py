import shutil

import numpy as np
import pytest

from replaycm.cli import main
from replaycm.features import read_gram
from replaycm.scoring import read_score_file, write_score_file


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """Tiny end-to-end corpus -> features -> model -> scores, reused by the
    CLI tests below."""
    root = tmp_path_factory.mktemp("pipeline")
    corpus = root / "corpus"
    feats = root / "feats"
    ckpt = root / "model.ckpt"
    scores = root / "eval_scores.txt"

    cfg = root / "toy.cfg"
    cfg.write_text(
        "[train]\nlr = 2e-3\nbatch_size = 6\nmax_epochs = 2\nseed = 1\n"
        "[model]\nscale = 8\nfc_width = 8\n"
    )
    assert main(["simulate", "--out", str(corpus), "--sources", "4",
                 "--utts", "2", "--seed", "5"]) == 0
    for split in ("train", "dev", "eval"):
        assert main(["extract", "--feature", "stft",
                     "--protocol", str(corpus / f"protocol_{split}.txt"),
                     "--wav-dir", str(corpus / "wav"), "--out", str(feats),
                     "--bin-stride", "32", "--frame-stride", "25"]) == 0
    assert main(["train", "--feature-dir", str(feats),
                 "--protocol-train", str(corpus / "protocol_train.txt"),
                 "--protocol-dev", str(corpus / "protocol_dev.txt"),
                 "--objective", "bfl", "--gamma", "2",
                 "--config", str(cfg), "--out", str(ckpt)]) == 0
    assert main(["score", "--ckpt", str(ckpt), "--feature-dir", str(feats),
                 "--protocol", str(corpus / "protocol_eval.txt"),
                 "--out", str(scores)]) == 0
    return root, corpus, feats, ckpt, scores, cfg


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


def test_saliency_preserves_dims(pipeline, tmp_path):
    root, corpus, feats, ckpt, _, _ = pipeline
    from replaycm.replay_sim import read_protocol

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
    from replaycm.replay_sim import read_protocol

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
    code = main(["simulate", "--out", str(corpus), "--sources", "2",
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
                     "--bin-stride", "32", "--frame-stride", "25",
                     "--rho", "0.2", "--lambda", "0.7"]) == 0
        from replaycm.replay_sim import read_protocol

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


def _train_args(pipeline, out, cfg, protocol_train=None):
    _, corpus, feats, _, _, _ = pipeline
    return ["train", "--feature-dir", str(feats),
            "--protocol-train", str(protocol_train or corpus / "protocol_train.txt"),
            "--protocol-dev", str(corpus / "protocol_dev.txt"),
            "--objective", "bfl", "--config", str(cfg), "--out", str(out)]


def test_single_alpha_is_a_parameter_error(pipeline, tmp_path, capsys):
    cfg = tmp_path / "alpha.cfg"
    cfg.write_text("[train]\nalpha = 0.5\nmax_epochs = 1\n")
    assert main(_train_args(pipeline, tmp_path / "m.ckpt", cfg)) == 1
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1
    assert err.startswith("error:parameter:") and "alpha" in err
    assert not (tmp_path / "m.ckpt").exists()


def test_empty_training_protocol_is_a_data_error(pipeline, tmp_path, capsys):
    _, _, _, _, _, cfg = pipeline
    empty = tmp_path / "empty.txt"
    empty.write_text("")
    assert main(_train_args(pipeline, tmp_path / "m.ckpt", cfg, empty)) == 1
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1
    assert err.startswith("error:data:")


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
    from replaycm.replay_sim import read_protocol

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
    from replaycm.replay_sim import read_protocol

    entry = read_protocol(corpus / "protocol_dev.txt")[0]
    protocol = tmp_path / "one.txt"
    protocol.write_text(f"{entry.utt_id} {entry.attack_code} {entry.label}\n")
    return entry.utt_id, protocol


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
