"""The benchmark's tracer (perfbench/tracer.py) still hooks the package.

The tracer wraps functions and methods by name from outside the package, so
a rename there silently drops spans from the per-layer metrics.  These tests
run it as the benchmark does, one subprocess per command, and read its spans.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def traced(spans_path, *args) -> list:
    """Spans of one CLI command run under the tracer, as
    (id, name, start, end, parent id, thread, info) lists."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(ROOT / "perfbench" / "tracer.py"),
                           str(spans_path), *args],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr  # install found every hook it patches
    return json.loads(spans_path.read_text())["spans"]


@pytest.fixture(scope="module")
def spans(pipeline, tmp_path_factory):
    _, corpus, feats, _, _, cfg = pipeline
    out = tmp_path_factory.mktemp("traced")
    train = traced(out / "train.json", "train", "--feature-dir", str(feats),
                   "--protocol-train", str(corpus / "protocol_train.txt"),
                   "--protocol-dev", str(corpus / "protocol_dev.txt"), "--objective", "bfl",
                   "--config", str(cfg), "--out", str(out / "m.ckpt"))
    score = traced(out / "score.json", "score", "--ckpt", str(out / "m.ckpt"),
                   "--feature-dir", str(feats), "--protocol", str(corpus / "protocol_eval.txt"),
                   "--out", str(out / "scores.txt"), "--jobs", "2")

    def extract(kind, *jobs):
        return traced(out / f"{kind}.json", "extract", "--feature", kind,
                      "--protocol", str(corpus / "protocol_dev.txt"), "--wav-dir",
                      str(corpus / "wav"), "--out", str(out / kind), *jobs)

    return {"train": train, "score": score,
            "extract-mgd": extract("mgd", "--jobs", "2"), "extract-cqt": extract("cqt")}


@pytest.mark.parametrize("command, name", [
    ("train", "training.adamw_step"),
    ("train", "training.load_batch"),
    ("train", "model.forward"),
    ("train", "autodiff.conv2d_bwd"),
    ("train", "objectives.bfl"),
    ("score", "training._score_entries"),
])
def test_hooked_span_is_recorded(spans, command, name):
    assert name in {s[1] for s in spans[command]}


@pytest.mark.parametrize("command, name", [
    pytest.param("train", "training.load", id="train"),
    pytest.param("score", "training.load", id="score"),
    pytest.param("score", "model.score_batch", id="score-model.score_batch"),
    pytest.param("extract-mgd", "features.mgd_gram", id="extract-mgd"),
    pytest.param("extract-cqt", "features.cqt_gram", id="extract-cqt"),
])
def test_every_gram_load_has_a_parent(spans, command, name):
    # score --jobs 2 reads grams and runs forwards in pool threads, a batch a
    # job, and extract --jobs 2 computes grams there; their spans must still
    # nest under the span that submitted them.  extract reaches its gram
    # function through features.frontend, which must look it up after the
    # tracer has wrapped it
    ids = {s[0] for s in spans[command]}
    found = [s for s in spans[command] if s[1] == name]
    assert found
    assert all(s[4] in ids for s in found)
