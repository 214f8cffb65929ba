"""Each command imports only the scipy it runs: none for most commands,
``scipy.fft`` for MGD's cepstral smoothing, ``scipy.sparse`` for the CQT
kernel.  Every command runs in a fresh interpreter, since the test process
has loaded scipy already."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(
    p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)}

# runs the CLI on its arguments (none: the import alone), then prints the
# names of the scipy modules loaded as its last line
CLI = ("import sys\n"
       "from replaycm.cli import main\n"
       "code = main(sys.argv[1:]) if sys.argv[1:] else 0\n")
LOADED = ("print(' '.join(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
          "sys.exit(code)\n")


def _scipy_loaded(prelude: str, *argv) -> set:
    proc = subprocess.run([sys.executable, "-c", prelude + LOADED, *map(str, argv)],
                          env=ENV, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.splitlines()[-1].split())


def _subpackages(modules: set) -> set:
    return {m.split(".")[1] for m in modules if "." in m}


def _argv(command, pipeline, tmp_path) -> list:
    _, corpus, feats, ckpt, scores, cfg = pipeline
    protocol = {split: corpus / f"protocol_{split}.txt" for split in ("train", "dev", "eval")}
    first_eval = protocol["eval"].read_text().split()[0]
    extract = ["extract", "--protocol", protocol["dev"], "--wav-dir", corpus / "wav",
               "--out", tmp_path / "feats", "--bin-stride", "32", "--frame-stride", "25",
               "--feature"]
    return {
        "import": [],
        "simulate": ["simulate", "--out", tmp_path / "corpus", "--sources", "3", "--utts", "1"],
        "extract-stft": [*extract, "stft"],
        "extract-gd": [*extract, "gd"],
        "train": ["train", "--feature-dir", feats, "--protocol-train", protocol["train"],
                  "--protocol-dev", protocol["dev"], "--objective", "bfl", "--config", cfg,
                  "--out", tmp_path / "model.ckpt"],
        "score": ["score", "--ckpt", ckpt, "--feature-dir", feats, "--protocol", protocol["eval"],
                  "--out", tmp_path / "scores.txt"],
        "fuse": ["fuse", "--method", "mean", "--scores", scores, scores,
                 "--out", tmp_path / "fused.txt"],
        "evaluate": ["evaluate", "--scores", scores, "--protocol", protocol["eval"]],
        "breakdown": ["breakdown", "--scores", scores, "--protocol", protocol["eval"]],
        "saliency": ["saliency", "--ckpt", ckpt, "--feature", feats / f"{first_eval}.fgram",
                     "--out", tmp_path / "saliency.fgram"],
    }[command]


@pytest.mark.parametrize("command", ["import", "simulate", "extract-stft", "extract-gd", "train",
                                     "score", "fuse", "evaluate", "breakdown", "saliency"])
def test_command_loads_no_scipy(pipeline, tmp_path, command):
    assert _scipy_loaded(CLI, *_argv(command, pipeline, tmp_path)) == set()


def test_extract_mgd_loads_scipy_fft_alone_and_jobs_match_serial(pipeline, tmp_path):
    # with --jobs 2 the first scipy.fft import happens in the pool's threads
    _, corpus, _, _, _, _ = pipeline
    alone = _subpackages(_scipy_loaded("import sys, scipy.fft\ncode = 0\n"))
    outs = {}
    for jobs in (1, 2):
        outs[jobs] = tmp_path / f"jobs{jobs}"
        loaded = _scipy_loaded(CLI, "extract", "--feature", "mgd",
                               "--protocol", corpus / "protocol_dev.txt",
                               "--wav-dir", corpus / "wav", "--out", outs[jobs],
                               "--bin-stride", "32", "--frame-stride", "25", "--jobs", jobs)
        assert "fft" in alone and _subpackages(loaded) == alone
    names = sorted(p.name for p in outs[1].iterdir())
    assert names == sorted(p.name for p in outs[2].iterdir()) and len(names) > 1
    for name in names:
        assert (outs[1] / name).read_bytes() == (outs[2] / name).read_bytes(), name


def test_extract_cqt_loads_scipy_sparse_alone(pipeline, tmp_path):
    _, corpus, _, _, _, _ = pipeline
    protocol = tmp_path / "one.txt"  # one utterance: the kernel build is the slow part
    protocol.write_text((corpus / "protocol_dev.txt").read_text().splitlines()[0] + "\n")
    alone = _subpackages(_scipy_loaded("import sys, scipy.sparse\ncode = 0\n"))
    loaded = _scipy_loaded(CLI, "extract", "--feature", "cqt", "--protocol", protocol,
                           "--wav-dir", corpus / "wav", "--out", tmp_path / "feats")
    assert "sparse" in alone and _subpackages(loaded) == alone
