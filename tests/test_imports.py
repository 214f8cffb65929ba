"""No command imports scipy: the package needs numpy alone, and scipy
serves only the tests' oracles.  Nor does a command load a ``numpy.ma``
module that ``import numpy`` alone does not (none in numpy 2, where
``np.unique`` imports it on its first call; all of them in numpy 1.24, whose
``import numpy`` loads it).  And a command loads only the replaycm modules it
runs: no network to extract a gram, no front-end to evaluate scores.  Every
command runs in a fresh interpreter, since the test process has loaded scipy
already.  And no replaycm module imports another's private name."""

import ast
import functools
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(
    p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)}

# runs the CLI on its arguments (none: the import alone), then prints the
# names of the scipy, numpy.ma and replaycm modules loaded as its last line
CLI = ("import sys\n"
       "from replaycm.cli import main\n"
       "code = main(sys.argv[1:]) if sys.argv[1:] else 0\n")
NUMPY = "import sys, numpy\ncode = 0\n"
LOADED = ("print(' '.join(m for m in sys.modules\n"
          "               if m.split('.')[0] in ('scipy', 'replaycm')\n"
          "               or m.split('.')[:2] == ['numpy', 'ma']))\n"
          "sys.exit(code)\n")


def _loaded(program, *argv) -> set:
    proc = subprocess.run([sys.executable, "-c", program + LOADED, *map(str, argv)],
                          env=ENV, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.splitlines()[-1].split())


@functools.cache
def _numpy_alone() -> frozenset:
    return frozenset(_loaded(NUMPY))


def _scipy_loaded(*argv) -> set:
    """The scipy modules, and the numpy.ma modules beyond numpy's own, that
    the command ``argv`` loads."""
    return {m for m in _loaded(CLI, *argv) if m.split(".")[0] != "replaycm"} - _numpy_alone()


def _replaycm_loaded(*argv) -> set:
    """The replaycm modules, by their names in the package, that the command
    ``argv`` loads."""
    return {m.split(".")[1] for m in _loaded(CLI, *argv) if m.startswith("replaycm.")}


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
    assert _scipy_loaded(*_argv(command, pipeline, tmp_path)) == set()


@pytest.mark.parametrize("feature", ["mgd", "cqt"])
def test_extract_loads_no_scipy_and_jobs_match_serial(pipeline, tmp_path, feature):
    # with --jobs 2 the pool's threads share the DCT basis or the CQT kernel
    _, corpus, _, _, _, _ = pipeline
    protocol = tmp_path / "three.txt"
    protocol.write_text("".join((corpus / "protocol_dev.txt").read_text().splitlines(True)[:3]))
    outs = {}
    for jobs in (1, 2):
        outs[jobs] = tmp_path / f"jobs{jobs}"
        assert _scipy_loaded("extract", "--feature", feature, "--protocol", protocol,
                             "--wav-dir", corpus / "wav", "--out", outs[jobs],
                             "--jobs", jobs) == set()
    names = sorted(p.name for p in outs[1].iterdir())
    assert names == sorted(p.name for p in outs[2].iterdir())
    assert sum(name.endswith(".fgram") for name in names) == 3
    for name in names:
        assert (outs[1] / name).read_bytes() == (outs[2] / name).read_bytes(), name


# the network, its engine and training serve train, score and saliency alone
NETWORK = {"model", "autodiff", "training", "objectives"}
# the modules each command must not load
NOT_RUN = {
    "import": NETWORK | {"features", "metrics", "scoring"},
    "simulate": NETWORK | {"features", "metrics", "scoring"},
    "extract-stft": NETWORK | {"metrics", "scoring"},
    "extract-gd": NETWORK | {"metrics", "scoring"},
    "fuse": NETWORK | {"features"},
    "evaluate": NETWORK | {"features"},
    "breakdown": NETWORK | {"features"},
    "train": {"scoring"},
    "saliency": {"training", "objectives", "metrics", "scoring", "replay_sim"},
}


@pytest.mark.parametrize("command", list(NOT_RUN))
def test_command_loads_only_the_modules_it_runs(pipeline, tmp_path, command):
    assert _replaycm_loaded(*_argv(command, pipeline, tmp_path)) & NOT_RUN[command] == set()


def _draws(program, *argv) -> bool:
    """Whether ``program`` run on ``argv`` loads ``numpy.random``."""
    proc = subprocess.run([sys.executable, "-c", program + "print('numpy.random' in sys.modules)\n"
                           "sys.exit(code)\n", *map(str, argv)],
                          env=ENV, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1] == "True"


@pytest.mark.parametrize("command", ["score", "saliency"])
def test_a_loaded_checkpoint_draws_no_weights(pipeline, tmp_path, command):
    # its weights come from the file: building the model with drawn weights
    # loaded numpy.random, which numpy 2's import leaves out (~24 ms, 6 MB)
    assert _draws(CLI, *_argv(command, pipeline, tmp_path)) == _draws(NUMPY)


def test_training_names_the_feature_store_of_features():
    # perfbench's tracer times the store through training.FeatureStore
    from replaycm import features, training

    assert training.FeatureStore is features.FeatureStore


def test_no_module_imports_a_private_name_of_another():
    private = [f"{path.name}: {ast.unparse(node)}"
               for path in sorted((SRC / "replaycm").glob("*.py"))
               for node in ast.walk(ast.parse(path.read_text(), str(path)))
               if isinstance(node, ast.ImportFrom) and node.level
               and any(alias.name.startswith("_") for alias in node.names)]
    assert private == []
