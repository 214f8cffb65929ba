"""Batch command-line front-end for the replay-countermeasure pipeline."""

from __future__ import annotations

import argparse
import sys
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from pathlib import Path

from .config import load_config
from .errors import DataError, ParameterError, ReplayCmError

# Each command imports the modules it runs, so that none loads the network
# and its autodiff engine, say, to extract a gram.


@contextmanager
def _job_map(jobs: int):
    """The builtin ``map``, or with jobs > 1 the ``map`` of a pool of that
    many threads; the one home of ``--jobs``, which must be at least 1."""
    if jobs < 1:
        raise ParameterError(f"--jobs must be >= 1, got {jobs}")
    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            yield pool.map
    else:
        yield map


def cmd_simulate(args) -> int:
    from .replay_sim import generate_corpus

    generate_corpus(
        args.out,
        n_sources=args.sources,
        utt_per_source=args.utts,
        seed=args.seed,
        sample_rate=load_config(args.config)["audio"]["sample_rate"],
    )
    print(f"corpus written to {args.out}")
    return 0


def _extract_one(entry, wav_dir: Path, out_dir: Path, frontend) -> tuple:
    from .audio_io import read_wav
    from .features import write_gram

    path = wav_dir / f"{entry.utt_id}.wav"
    w = read_wav(path)
    try:
        gram = frontend(w)
    except ParameterError as exc:  # frames and kernels follow the WAV's rate
        raise ParameterError(f"{path} at {w.sample_rate} Hz: {exc}") from exc
    filename = f"{entry.utt_id}.fgram"
    write_gram(gram, out_dir / filename)
    return entry.utt_id, filename


def cmd_extract(args) -> int:
    from . import features as feat
    from .replay_sim import read_protocol

    frontend = feat.frontend(args.feature, load_config(args.config),
                             args.bin_stride, args.frame_stride)
    entries = read_protocol(args.protocol)
    wav_dir = Path(args.wav_dir)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    def work(entry):
        return _extract_one(entry, wav_dir, out_dir, frontend)

    with _job_map(args.jobs) as map_fn:
        results = list(map_fn(work, entries))
    feat.write_feature_manifest(out_dir, dict(results))
    print(f"extracted {len(results)} {args.feature} grams to {out_dir}")
    return 0


def cmd_train(args) -> int:
    from .features import FeatureStore
    from .model import ResNet, ResNetConfig, save_checkpoint
    from .replay_sim import read_protocol
    from .training import TrainConfig, train

    gamma = TrainConfig.gamma if args.gamma is None else args.gamma
    if args.objective == "bce":
        # balanced cross-entropy is the focal loss at gamma = 0
        if args.gamma:
            raise ParameterError(f"--objective bce is gamma = 0, got --gamma {gamma:g}")
        gamma = 0.0
    cfg = load_config(args.config)
    entries_train = read_protocol(args.protocol_train)
    if not entries_train:
        raise DataError(f"training protocol {args.protocol_train} lists no utterances")
    entries_dev = read_protocol(args.protocol_dev)
    store = FeatureStore(args.feature_dir, [e.utt_id for e in entries_train + entries_dev])
    bins, frames = store.shape
    model_cfg = ResNetConfig(**cfg["model"], input_bins=bins, input_frames=frames)
    tcfg = TrainConfig(**cfg["train"], gamma=gamma)
    model = ResNet(model_cfg, seed=tcfg.seed)
    result = train(model, entries_train, entries_dev, store, tcfg,
                   log_path=str(args.out) + ".log")
    save_checkpoint(args.out, model, extra={"kind": store.kind, "objective": args.objective,
                                            "best_dev_eer": result.best_dev_eer,
                                            "best_epoch": result.best_epoch})
    print(f"best dev EER {result.best_dev_eer:.6f} at epoch {result.best_epoch}; "
          f"checkpoint {args.out}")
    return 0


def _check_kind(ckpt, extra: dict, gram_path, kind: str) -> None:
    if kind != extra["kind"]:
        raise DataError(f"checkpoint {ckpt} was trained on {extra['kind']} grams, "
                        f"but gram {gram_path} is {kind}")


def cmd_score(args) -> int:
    from . import features, training
    from .model import load_checkpoint
    from .replay_sim import read_protocol
    from .scoring import write_score_file

    model, extra = load_checkpoint(args.ckpt)
    with _job_map(args.jobs) as map_fn:
        entries = read_protocol(args.protocol)
        store = features.FeatureStore(args.feature_dir, [e.utt_id for e in entries])
        if entries:
            _check_kind(args.ckpt, extra, store.paths[store.first_id], store.kind)
        scores = training._score_entries(model, entries, store, map_fn=map_fn)
    write_score_file(scores, args.out)
    print(f"scored {len(scores)} utterances to {args.out}")
    return 0


def cmd_fuse(args) -> int:
    from . import scoring
    from .replay_sim import read_protocol

    if args.method == "mean" and (args.dev_scores is not None or args.dev_protocol is not None):
        raise ParameterError("--dev-scores and --dev-protocol serve --method lr only")
    score_sets = [scoring.read_score_file(p) for p in args.scores]
    if args.method == "mean":
        fused = scoring.mean_fuse(score_sets)
    else:
        if not args.dev_scores or not args.dev_protocol:
            raise ParameterError("lr fusion requires --dev-scores and --dev-protocol")
        if len(args.dev_scores) != len(args.scores):
            raise ParameterError(
                f"got {len(args.scores)} eval but {len(args.dev_scores)} dev score files"
            )
        dev_sets = [scoring.read_score_file(p) for p in args.dev_scores]
        labels = {e.utt_id: e.label for e in read_protocol(args.dev_protocol)}
        model = scoring.lr_fuse_train(dev_sets, labels)
        fused = model.fuse(score_sets)
    scoring.write_score_file(fused, args.out)
    print(f"fused {len(args.scores)} systems ({args.method}) to {args.out}")
    return 0


def _labeled_records(score_path, protocol_path):
    from .replay_sim import read_protocol
    from .scoring import read_score_file

    scores = read_score_file(score_path)
    entries = read_protocol(protocol_path)
    missing = [e.utt_id for e in entries if e.utt_id not in scores]
    if missing:
        raise DataError(f"scores missing for {len(missing)} utterance(s): {missing[:5]}")
    return entries, scores


def _tdcf_params(config_path):
    from .metrics import TdcfParams

    return TdcfParams(**load_config(config_path)["tdcf"])


def cmd_evaluate(args) -> int:
    from . import metrics

    bona, spoof = metrics.split_scores(*_labeled_records(args.scores, args.protocol))
    eer_val = metrics.eer(bona, spoof)
    tdcf_val = metrics.min_tdcf_norm(bona, spoof, _tdcf_params(args.tdcf_config))
    print(f"eer={eer_val:.6f} min_tdcf={tdcf_val:.6f}")
    return 0


def cmd_breakdown(args) -> int:
    from . import metrics

    rows = metrics.breakdown(*_labeled_records(args.scores, args.protocol),
                             _tdcf_params(args.tdcf_config))
    sys.stdout.write(metrics.format_breakdown(rows))
    return 0


def cmd_saliency(args) -> int:
    from .features import FeatureGram, read_gram, write_gram
    from .model import load_checkpoint, saliency_map

    model, extra = load_checkpoint(args.ckpt)
    gram = read_gram(args.feature)
    _check_kind(args.ckpt, extra, args.feature, gram.kind)
    smap = saliency_map(model, gram.data)
    write_gram(FeatureGram(gram.kind, smap, gram.utt_id), args.out)
    print(f"saliency matrix {smap.shape[0]}x{smap.shape[1]} written to {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="replaycm",
        description="Replay-attack countermeasure pipeline: simulate, extract, "
        "train, score, fuse, evaluate.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate a synthetic replay corpus")
    p.add_argument("--out", required=True)
    p.add_argument("--sources", type=int, required=True)
    p.add_argument("--utts", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--config", default=None)
    p.set_defaults(func=cmd_simulate, builds="the corpus")

    p = sub.add_parser("extract", help="extract feature grams for a protocol")
    p.add_argument("--feature", required=True, choices=("stft", "gd", "mgd", "cqt"))
    p.add_argument("--protocol", required=True)
    p.add_argument("--wav-dir", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--config", default=None)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--bin-stride", type=int, default=1)
    p.add_argument("--frame-stride", type=int, default=1)
    p.set_defaults(func=cmd_extract, builds="feature grams")

    p = sub.add_parser("train", help="train a countermeasure model")
    p.add_argument("--feature-dir", required=True)
    p.add_argument("--protocol-train", required=True)
    p.add_argument("--protocol-dev", required=True)
    p.add_argument("--objective", required=True, choices=("bce", "bfl"),
                   help="bce is bfl at gamma = 0")
    p.add_argument("--gamma", type=float, default=None,
                   help="focal exponent (default: TrainConfig.gamma)")
    p.add_argument("--config", default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train, builds="a model")

    p = sub.add_parser("score", help="score a protocol with a checkpoint")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--feature-dir", required=True)
    p.add_argument("--protocol", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(func=cmd_score, builds="scores")

    p = sub.add_parser("fuse", help="fuse score files (mean or logistic regression)")
    p.add_argument("--method", required=True, choices=("mean", "lr"))
    p.add_argument("--scores", nargs="+", required=True)
    p.add_argument("--dev-scores", nargs="+", default=None)
    p.add_argument("--dev-protocol", default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_fuse, builds="fused scores")

    p = sub.add_parser("evaluate", help="EER and min t-DCF for a score file")
    p.add_argument("--scores", required=True)
    p.add_argument("--protocol", required=True)
    p.add_argument("--tdcf-config", default=None)
    p.set_defaults(func=cmd_evaluate, builds="metrics")

    p = sub.add_parser("breakdown", help="per-attack-code metric table")
    p.add_argument("--scores", required=True)
    p.add_argument("--protocol", required=True)
    p.add_argument("--tdcf-config", default=None)
    p.set_defaults(func=cmd_breakdown, builds="metrics")

    p = sub.add_parser("saliency", help="|input gradient| for one feature gram")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--feature", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_saliency, builds="a saliency map")

    return parser


# how numpy words a size past any address space, for which it raises
# ValueError, not MemoryError
NUMPY_TOO_BIG = ("array is too big", "Maximum allowed size exceeded",
                 "Maximum allowed dimension exceeded")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReplayCmError as exc:
        print(f"error:{exc.category}: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error:io: {exc}", file=sys.stderr)
        return 1
    except (MemoryError, ValueError) as exc:  # a size that a config or an input can claim
        if isinstance(exc, ValueError) and not str(exc).startswith(NUMPY_TOO_BIG):
            raise
        print(f"error:resource: {args.command} ran out of memory building {args.builds}: "
              f"{' '.join(str(exc).split()) or 'no detail'}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
