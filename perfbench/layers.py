"""Per-layer metrics from the spans that ``tracer.py`` writes.

Each traced command gives one spans file.  Per-call medians (``_ms``) and
per-process counts use every traced command of the run, set-up included;
totals (``_s``, ``_mb``, ``_gflop``) and self times use the timed commands
only, so the self times add up to the traced wall time.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict

LAYERS = ("cli", "config", "replay_sim", "audio_io", "features", "autodiff",
          "model", "objectives", "training", "scoring", "metrics")
VERBS = ("simulate", "extract", "train", "score", "fuse", "evaluate", "breakdown", "saliency")
STAGES = ("0", "1", "2", "3")
MB = 1e6

# name -> (unit, better); the order is the report order
METRICS = {"cli.startup_ms": ("ms", "lower")}
METRICS.update({f"cli.{v}_s": ("s", "lower") for v in VERBS})
METRICS.update({
    "replay_sim.degrade_ms": ("ms", "lower"),
    "replay_sim.degrade_calls": ("count", "lower"),
    "audio_io.synth_tone_complex_ms": ("ms", "lower"),
    "audio_io.write_wav_ms": ("ms", "lower"),
    "audio_io.read_wav_ms": ("ms", "lower"),
    "features.stft_gram_ms": ("ms", "lower"),
    "features.gd_gram_ms": ("ms", "lower"),
    "features.mgd_gram_ms": ("ms", "lower"),
    "features.cqt_gram_ms": ("ms", "lower"),
    "features.cqt_kernel_builds": ("count", "lower"),
    "features.cqt_kernel_useful_ratio": ("ratio", "higher"),
    "features.cqt_kernel_build_ms": ("ms", "lower"),
    "features.write_gram_ms": ("ms", "lower"),
    "features.write_gram_mb": ("MB", "lower"),
    "features.read_gram_ms": ("ms", "lower"),
    "features.read_gram_mb": ("MB", "lower"),
    "autodiff.conv2d_fwd_ms": ("ms", "lower"),
    "autodiff.conv2d_bwd_ms": ("ms", "lower"),
    "autodiff.conv2d_gflop": ("GFLOP", "lower"),
    "autodiff.conv2d_cols_mb": ("MB", "lower"),
    "autodiff.maxpool2d_fwd_ms": ("ms", "lower"),
    "autodiff.maxpool2d_bwd_ms": ("ms", "lower"),
    "autodiff.batchnorm2d_fwd_ms": ("ms", "lower"),
    "autodiff.batchnorm2d_bwd_ms": ("ms", "lower"),
    "autodiff.backward_ms": ("ms", "lower"),
    "model.stem_fwd_ms": ("ms", "lower"),
})
METRICS.update({f"model.stage{i}_{d}_ms": ("ms", "lower") for i in STAGES for d in ("fwd", "bwd")})
METRICS.update({
    "model.forward_train_ms": ("ms", "lower"),
    "model.forward_eval_ms": ("ms", "lower"),
    "model.score_batch_ms_per_utt": ("ms", "lower"),
    "model.saliency_map_ms": ("ms", "lower"),
    "model.save_checkpoint_ms": ("ms", "lower"),
    "model.load_checkpoint_ms": ("ms", "lower"),
    "objectives.loss_ms": ("ms", "lower"),
    "training.load_batch_ms": ("ms", "lower"),
    "training.adamw_step_ms": ("ms", "lower"),
    "training.dev_scoring_s": ("s", "lower"),
    "scoring.lr_fuse_train_ms": ("ms", "lower"),
    "scoring.read_score_file_ms": ("ms", "lower"),
    "scoring.write_score_file_ms": ("ms", "lower"),
    "metrics.eer_ms": ("ms", "lower"),
    "metrics.min_tdcf_norm_ms": ("ms", "lower"),
    "metrics.breakdown_ms": ("ms", "lower"),
    "metrics.eval_eer": ("ratio", "lower"),
    "metrics.eval_min_tdcf": ("ratio", "lower"),
})
METRICS.update({f"{layer}.self_s": ("s", "lower") for layer in LAYERS})
METRICS.update({"tracing.wall_s": ("s", "lower"), "tracing.overhead_s": ("s", "lower")})

# span name -> metric name, for plain medians of span durations
SPAN_MEDIANS = {
    "replay_sim.degrade": "replay_sim.degrade_ms",
    "audio_io.synth_tone_complex": "audio_io.synth_tone_complex_ms",
    "audio_io.write_wav": "audio_io.write_wav_ms",
    "audio_io.read_wav": "audio_io.read_wav_ms",
    "features.stft_gram": "features.stft_gram_ms",
    "features.gd_gram": "features.gd_gram_ms",
    "features.mgd_gram": "features.mgd_gram_ms",
    "features.cqt_gram": "features.cqt_gram_ms",
    "features.cqt_kernel_build": "features.cqt_kernel_build_ms",
    "features.write_gram": "features.write_gram_ms",
    "features.read_gram": "features.read_gram_ms",
    "autodiff.conv2d": "autodiff.conv2d_fwd_ms",
    "autodiff.conv2d_bwd": "autodiff.conv2d_bwd_ms",
    "autodiff.maxpool2d": "autodiff.maxpool2d_fwd_ms",
    "autodiff.maxpool2d_bwd": "autodiff.maxpool2d_bwd_ms",
    "autodiff.batchnorm2d": "autodiff.batchnorm2d_fwd_ms",
    "autodiff.batchnorm2d_bwd": "autodiff.batchnorm2d_bwd_ms",
    "autodiff.backward": "autodiff.backward_ms",
    "model.saliency_map": "model.saliency_map_ms",
    "model.save_checkpoint": "model.save_checkpoint_ms",
    "model.load_checkpoint": "model.load_checkpoint_ms",
    "training.adamw_step": "training.adamw_step_ms",
    "scoring.lr_fuse_train": "scoring.lr_fuse_train_ms",
    "scoring.read_score_file": "scoring.read_score_file_ms",
    "scoring.write_score_file": "scoring.write_score_file_ms",
    "metrics.eer": "metrics.eer_ms",
    "metrics.min_tdcf_norm": "metrics.min_tdcf_norm_ms",
    "metrics.breakdown": "metrics.breakdown_ms",
}


class Span:
    __slots__ = ("sid", "name", "t0", "t1", "parent", "thread", "info")

    def __init__(self, sid, name, t0, t1, parent, thread, info):
        self.sid, self.name, self.t0, self.t1 = sid, name, t0, t1
        self.parent, self.thread, self.info = parent, thread, info or {}

    @property
    def dur(self) -> float:
        return self.t1 - self.t0


def load_spans(path) -> list:
    with open(path, encoding="ascii") as fh:
        return [Span(*s) for s in json.load(fh)["spans"]]


def self_times(spans, p0: float, p1: float) -> dict:
    """Seconds of the process interval [p0, p1] held by each layer.

    Each instant goes to the innermost open spans (those with no open
    child), split evenly when worker threads overlap; a span waiting on its
    worker threads is not innermost.  Instants outside every span (interpreter
    start-up, imports, exit) go to ``cli``.  The values sum to p1 - p0.
    """
    parent = {s.sid: s.parent for s in spans}
    layer = {s.sid: s.name.split(".", 1)[0] for s in spans}
    events = sorted([(s.t0, 1, s.sid) for s in spans] + [(s.t1, 0, s.sid) for s in spans])
    open_children = defaultdict(int)
    is_open = set()
    leaves = set()
    out = dict.fromkeys(LAYERS, 0.0)
    t = p0
    for te, starts, sid in events:
        dt = te - t
        if dt > 0:
            if leaves:
                for leaf in leaves:
                    out[layer[leaf]] += dt / len(leaves)
            else:
                out["cli"] += dt
            t = te
        p = parent[sid]
        if starts:
            is_open.add(sid)
            leaves.add(sid)
            if p in is_open:
                open_children[p] += 1
                leaves.discard(p)
        else:
            is_open.discard(sid)
            leaves.discard(sid)
            if p in is_open:
                open_children[p] -= 1
                if open_children[p] == 0:
                    leaves.add(p)
    out["cli"] += max(p1 - t, 0.0)
    return out


def _median_ms(values) -> float:
    return statistics.median(values) * 1e3 if values else 0.0


def per_layer(commands, startup_ms: float, traced_wall: float, untraced_wall: float,
              eval_result) -> dict:
    """All METRICS for one traced run.

    ``commands`` are the traced harness records (``verb``, ``phase``, ``t0``,
    ``t1``, ``spans``); the walls are the summed command walls of the traced
    and the untraced timed pass; ``eval_result`` is the (eer, min_tdcf) pair the
    workload's final ``evaluate`` printed, or None.
    """
    m = dict.fromkeys(METRICS, 0.0)
    m["cli.startup_ms"] = startup_ms
    by_name = defaultdict(list)
    cmd_walls = defaultdict(list)
    selfs = dict.fromkeys(LAYERS, 0.0)
    degrade_calls, kernel_builds = [], []
    forward_stem, forward_stage, backward_stage = [], defaultdict(list), defaultdict(list)
    cols_per_forward = []
    totals = defaultdict(float)

    for cmd in commands:
        spans = load_spans(cmd.spans)
        timed = cmd.phase == "timed"
        cmd_walls[cmd.verb].append(cmd.t1 - cmd.t0)
        for s in spans:
            by_name[s.name].append(s)
        if cmd.verb == "simulate":
            degrade_calls.append(sum(s.name == "replay_sim.degrade" for s in spans))
        if cmd.verb == "extract" and any(s.name == "features.cqt_gram" for s in spans):
            kernel_builds.append(sum(s.name == "features.cqt_kernel_build" for s in spans))
        children = defaultdict(list)
        for s in spans:
            children[s.parent].append(s)
        for s in spans:
            if s.name == "model.forward":
                kids = children[s.sid]
                forward_stem.append(sum(k.dur for k in kids if k.info.get("stage") == "stem"))
                for i in STAGES:
                    forward_stage[i].append(sum(k.dur for k in kids if k.info.get("stage") == i))
                cols_per_forward.append(_conv_cols(s.sid, children))
            elif s.name == "autodiff.backward":
                kids = children[s.sid]
                for i in STAGES:
                    backward_stage[i].append(sum(k.dur for k in kids if k.info.get("stage") == i))
        if timed:
            for layer, v in self_times(spans, cmd.t0, cmd.t1).items():
                selfs[layer] += v
            for s in spans:
                if s.name == "features.write_gram":
                    totals["write_mb"] += s.info.get("bytes", 0) / MB
                elif s.name == "features.read_gram":
                    totals["read_mb"] += s.info.get("bytes", 0) / MB
                elif s.name == "autodiff.conv2d":
                    totals["gflop"] += s.info.get("flops", 0) / 1e9
                elif s.name == "training._score_entries":
                    totals["dev_scoring_s"] += s.dur

    for verb in VERBS:
        if cmd_walls[verb]:
            m[f"cli.{verb}_s"] = statistics.median(cmd_walls[verb])
    for span, metric in SPAN_MEDIANS.items():
        m[metric] = _median_ms([s.dur for s in by_name[span]])
    if degrade_calls:
        m["replay_sim.degrade_calls"] = statistics.median(degrade_calls)
    if kernel_builds:
        builds = statistics.median(kernel_builds)
        m["features.cqt_kernel_builds"] = builds
        m["features.cqt_kernel_useful_ratio"] = 1.0 / builds if builds else 0.0
    m["features.write_gram_mb"] = totals["write_mb"]
    m["features.read_gram_mb"] = totals["read_mb"]
    m["autodiff.conv2d_gflop"] = totals["gflop"]
    if cols_per_forward:
        m["autodiff.conv2d_cols_mb"] = statistics.median(cols_per_forward) / MB
    if forward_stem:
        m["model.stem_fwd_ms"] = _median_ms(forward_stem)
    for i in STAGES:
        if forward_stage[i]:
            m[f"model.stage{i}_fwd_ms"] = _median_ms(forward_stage[i])
        if backward_stage[i]:
            m[f"model.stage{i}_bwd_ms"] = _median_ms(backward_stage[i])
    fwd = by_name["model.forward"]
    m["model.forward_train_ms"] = _median_ms([s.dur for s in fwd if s.info.get("train")])
    m["model.forward_eval_ms"] = _median_ms([s.dur for s in fwd if not s.info.get("train")])
    m["model.score_batch_ms_per_utt"] = _median_ms(
        [s.dur / s.info["n"] for s in by_name["model.score_batch"] if s.info.get("n")])
    m["objectives.loss_ms"] = _median_ms(
        [s.dur for s in by_name["objectives.bfl"] + by_name["objectives.bce"]])
    train_ids = {s.sid for s in by_name["training.train"]}
    m["training.load_batch_ms"] = _median_ms(
        [s.dur for s in by_name["training.load_batch"] if s.parent in train_ids])
    m["training.dev_scoring_s"] = totals["dev_scoring_s"]
    if eval_result is not None:
        m["metrics.eval_eer"], m["metrics.eval_min_tdcf"] = eval_result
    for layer in LAYERS:
        m[f"{layer}.self_s"] = selfs[layer]
    m["tracing.wall_s"] = traced_wall
    m["tracing.overhead_s"] = traced_wall - untraced_wall
    return m


def _conv_cols(root, children) -> float:
    """Bytes of im2col buffers built by the convolutions under one forward."""
    total, todo = 0, [root]
    while todo:
        for k in children[todo.pop()]:
            total += k.info.get("cols_bytes", 0)
            todo.append(k.sid)
    return total
