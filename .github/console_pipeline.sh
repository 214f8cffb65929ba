#!/usr/bin/env bash
# The console script end to end on a toy corpus, written under the current
# directory: every front-end at full resolution and at strides 8/10 (a strided
# gram is the full one subsampled), training with the focal loss twice (byte
# for byte the same), twice more at the paper's width of 16 channels (byte
# for byte the same), and with BCE (each seeds the backward pass with the loss's
# gradient), scoring at one job and at two (byte for byte the same), a saliency
# map drawn twice from the BCE model and twice from the wide one (a one-hot
# seed; byte for byte the same), mean fusion,
# evaluation and the per-attack breakdown, the evaluation of scores near the
# float maximum, mean fusion of empty score files, then inputs that must each
# end in one error:<category>: line with exit code 1: lr fusion on one-class
# dev data, a window of another name, an MGD lifter as long as the spectrum, a
# feature directory of mixed kinds, a manifest naming a file outside its
# directory, a feature directory that lacks a protocol's utterances or its
# manifest, a learning rate that makes training diverge, a model past memory,
# train and score into a missing directory, and an allocation past the address
# space among them.
#
#   bash .github/console_pipeline.sh    # with replaycm on PATH
set -euo pipefail

replaycm simulate --out toy --sources 3 --utts 1
# in pool threads: the MGD lifter's DCT basis, and the multi-rate CQT with its
# locked kernel cache, are first built there
for kind in stft gd mgd cqt; do
  replaycm extract --feature $kind --protocol toy/protocol_dev.txt --wav-dir toy/wav \
    --out toy/$kind-full --jobs 2
  replaycm extract --feature $kind --protocol toy/protocol_dev.txt --wav-dir toy/wav \
    --out toy/$kind-8x10 --bin-stride 8 --frame-stride 10
done
# extract computes only the cells a strided gram keeps: they are the full
# gram's every 8th bin of every 10th frame, bytes and all
python3 - <<'EOF_PY'
import sys
from pathlib import Path

import numpy as np


def cells(path):
    blob = path.read_bytes()  # magic, version, kind, then bins and frames at bytes 7-14
    bins, frames = (int.from_bytes(blob[i:i + 4], "little") for i in (7, 11))
    return np.frombuffer(blob, "<f4", offset=15).reshape(bins, frames)


for kind in ("stft", "gd", "mgd", "cqt"):
    fulls = sorted(Path(f"toy/{kind}-full").glob("*.fgram"))
    for full in fulls:
        if cells(Path(f"toy/{kind}-8x10") / full.name).tobytes() != \
                cells(full)[::8, ::10].tobytes():
            sys.exit(f"{kind} {full.name}: the strided gram is not the full one subsampled")
    print(f"{kind}: {len(fulls)} strided grams are the full ones subsampled")
EOF_PY
for split in train dev eval; do
  replaycm extract --feature stft --protocol toy/protocol_$split.txt --wav-dir toy/wav \
    --out toy/stft --bin-stride 8 --frame-stride 10
done
printf '[train]\nmax_epochs = 1\nbatch_size = 5\n' > toy/one_epoch.cfg
replaycm train --feature-dir toy/stft --protocol-train toy/protocol_train.txt \
  --protocol-dev toy/protocol_dev.txt --objective bfl --config toy/one_epoch.cfg \
  --out toy/model.ckpt
# a fixed seed trains the same model, byte for byte
replaycm train --feature-dir toy/stft --protocol-train toy/protocol_train.txt \
  --protocol-dev toy/protocol_dev.txt --objective bfl --config toy/one_epoch.cfg \
  --out toy/model_again.ckpt
cmp toy/model.ckpt toy/model_again.ckpt
cmp toy/model.ckpt.log toy/model_again.ckpt.log
# at the paper's width, 16 to 128 channels, the released block outputs are
# rebuilt in the backward the same way twice
printf '[model]\nchannels = 16\n[train]\nmax_epochs = 1\nbatch_size = 5\n' > toy/wide.cfg
for out in wide wide_again; do
  replaycm train --feature-dir toy/stft --protocol-train toy/protocol_train.txt \
    --protocol-dev toy/protocol_dev.txt --objective bfl --config toy/wide.cfg \
    --out toy/$out.ckpt
done
cmp toy/wide.ckpt toy/wide_again.ckpt
cmp toy/wide.ckpt.log toy/wide_again.ckpt.log
replaycm train --feature-dir toy/stft --protocol-train toy/protocol_train.txt \
  --protocol-dev toy/protocol_dev.txt --objective bce --config toy/one_epoch.cfg \
  --out toy/bce.ckpt
replaycm score --ckpt toy/model.ckpt --feature-dir toy/stft \
  --protocol toy/protocol_eval.txt --out toy/eval_scores.txt
# pool threads run whole batches, forward included, and give the serial bytes
replaycm score --ckpt toy/model.ckpt --feature-dir toy/stft \
  --protocol toy/protocol_eval.txt --out toy/eval_scores_jobs2.txt --jobs 2
cmp toy/eval_scores.txt toy/eval_scores_jobs2.txt
replaycm evaluate --scores toy/eval_scores.txt --protocol toy/protocol_eval.txt
replaycm breakdown --scores toy/eval_scores.txt --protocol toy/protocol_eval.txt
utt=$(head -n 1 toy/protocol_eval.txt | cut -d ' ' -f 1)
replaycm saliency --ckpt toy/bce.ckpt --feature "toy/stft/$utt.fgram" --out toy/saliency.fgram
# the eval-mode backward through the fused batch-norm epilogues is deterministic
replaycm saliency --ckpt toy/bce.ckpt --feature "toy/stft/$utt.fgram" --out toy/saliency_again.fgram
cmp toy/saliency.fgram toy/saliency_again.fgram
# at widths 16 to 128, the eval-mode backward rebuilds the released conv
# outputs the same way twice
for out in wide_saliency wide_saliency_again; do
  replaycm saliency --ckpt toy/wide.ckpt --feature "toy/stft/$utt.fgram" --out toy/$out.fgram
done
cmp toy/wide_saliency.fgram toy/wide_saliency_again.fgram
replaycm fuse --method mean --scores toy/eval_scores.txt toy/eval_scores.txt \
  --out toy/fused.txt
replaycm evaluate --scores toy/fused.txt --protocol toy/protocol_eval.txt
# scores near 1.8e308 separate perfectly: no threshold arithmetic may overflow
printf 'b - bonafide\ns0 AA spoof\ns1 AA spoof\n' > toy/extreme_protocol.txt
printf 'b 1.7e308\ns0 1.6e308\ns1 -1\n' > toy/extreme_scores.txt
replaycm evaluate --scores toy/extreme_scores.txt --protocol toy/extreme_protocol.txt \
  > toy/stdout.txt 2> toy/stderr.txt
if [ "$(cat toy/stdout.txt)" != "eer=0.000000 min_tdcf=0.000000" ] || [ -s toy/stderr.txt ]; then
  echo "evaluate of scores near 1.8e308: expected eer=0.000000 min_tdcf=0.000000 and" \
    "an empty stderr, got:" >&2
  cat toy/stdout.txt toy/stderr.txt >&2
  exit 1
fi

# expect_error CATEGORY COMMAND...: the line names no temporary .tmp file
expect_error() {
  local category=$1 code=0
  shift
  "$@" 2> toy/stderr.txt || code=$?
  if [ "$code" -ne 1 ] || [ "$(wc -l < toy/stderr.txt)" -ne 1 ] \
      || ! grep -q "^error:$category: " toy/stderr.txt || grep -q '\.tmp' toy/stderr.txt; then
    echo "expected exit 1 and one error:$category: line, no .tmp in it (got exit $code)" \
      "from: $*" >&2
    cat toy/stderr.txt >&2
    exit 1
  fi
}
# the dev flags serve lr fusion only
expect_error parameter replaycm fuse --method mean \
  --scores toy/eval_scores.txt toy/eval_scores.txt --dev-scores toy/eval_scores.txt \
  --out toy/rejected.txt
# lr fusion fits on dev utterances of both classes: three bonafide lines are rejected
printf 'b0 - bonafide\nb1 - bonafide\nb2 - bonafide\n' > toy/bonafide_protocol.txt
printf 'b0 0.5\nb1 1.5\nb2 -0.25\n' > toy/bonafide_scores.txt
expect_error data replaycm fuse --method lr --scores toy/eval_scores.txt toy/eval_scores.txt \
  --dev-scores toy/bonafide_scores.txt toy/bonafide_scores.txt \
  --dev-protocol toy/bonafide_protocol.txt --out toy/rejected.txt
# mean fusion of empty score files writes an empty file, as score of an empty protocol does
: > toy/empty_scores.txt
replaycm fuse --method mean --scores toy/empty_scores.txt toy/empty_scores.txt \
  --out toy/empty_fused.txt
if [ ! -e toy/empty_fused.txt ] || [ -s toy/empty_fused.txt ]; then
  echo "mean fusion of empty score files did not write an empty file" >&2
  exit 1
fi
expect_error parameter replaycm simulate --out toy/rejected --sources 3 --utts 1 --seed -1
# [stft] window is hamming, hann or rect
printf '[stft]\nwindow = boxcar\n' > toy/boxcar.cfg
expect_error parameter replaycm extract --feature stft --protocol toy/protocol_dev.txt \
  --wav-dir toy/wav --out toy/rejected --config toy/boxcar.cfg
# an MGD lifter as long as the 513-bin spectrum would smooth nothing
printf '[mgd]\nlifter_len = 513\n' > toy/lifter.cfg
expect_error parameter replaycm extract --feature mgd --protocol toy/protocol_dev.txt \
  --wav-dir toy/wav --out toy/rejected --config toy/lifter.cfg
# the dev protocol's two classes are checked before the first epoch
: > toy/empty_protocol.txt
expect_error data replaycm train --feature-dir toy/stft --protocol-train toy/protocol_train.txt \
  --protocol-dev toy/empty_protocol.txt --objective bfl --config toy/one_epoch.cfg \
  --out toy/rejected.ckpt
# a feature directory holds one kind: STFT train grams with MGD dev grams
# of the same shape stop before the first epoch
replaycm extract --feature stft --protocol toy/protocol_train.txt --wav-dir toy/wav \
  --out toy/mixed --bin-stride 8 --frame-stride 10
replaycm extract --feature mgd --protocol toy/protocol_dev.txt --wav-dir toy/wav \
  --out toy/mixed --bin-stride 8 --frame-stride 10
expect_error data replaycm train --feature-dir toy/mixed --protocol-train toy/protocol_train.txt \
  --protocol-dev toy/protocol_dev.txt --objective bfl --config toy/one_epoch.cfg \
  --out toy/rejected.ckpt
# a model that diverges ends the run in one line, with no numpy warning before it
printf '[train]\nlr = 1e300\nmax_epochs = 1\n' > toy/diverge.cfg
expect_error training replaycm train --feature-dir toy/stft --protocol-train toy/protocol_train.txt \
  --protocol-dev toy/protocol_dev.txt --objective bfl --config toy/diverge.cfg \
  --out toy/rejected.ckpt
if [ -e toy/rejected.ckpt ] || [ -e toy/rejected.ckpt.log ]; then
  echo "a rejected train left toy/rejected.ckpt or its .log behind" >&2
  exit 1
fi
# ten billion blocks: the model's arrays are claimed at once, before any block is built
printf '[model]\nblock_counts = 3,4,6,10000000000\n' > toy/blocks.cfg
expect_error resource replaycm train --feature-dir toy/stft --protocol-train toy/protocol_train.txt \
  --protocol-dev toy/protocol_dev.txt --objective bfl --config toy/blocks.cfg \
  --out toy/rejected.ckpt
if [ -e toy/rejected.ckpt ] || [ -e toy/rejected.ckpt.log ]; then
  echo "a train past memory left toy/rejected.ckpt or its .log behind" >&2
  exit 1
fi
# an output in a missing directory is an io error naming that output; train
# finds it before the first epoch
expect_error io replaycm train --feature-dir toy/stft --protocol-train toy/protocol_train.txt \
  --protocol-dev toy/protocol_dev.txt --objective bfl --config toy/one_epoch.cfg \
  --out toy/nodir/rejected.ckpt
grep -q "No such file or directory: 'toy/nodir/rejected.ckpt'$" toy/stderr.txt
expect_error io replaycm score --ckpt toy/model.ckpt --feature-dir toy/stft \
  --protocol toy/protocol_eval.txt --out toy/nodir/rejected.txt
grep -q "No such file or directory: 'toy/nodir/rejected.txt'$" toy/stderr.txt
# a checkpoint records the kind it was trained on: the STFT model neither
# scores nor maps the MGD dev grams of the same shape
expect_error data replaycm score --ckpt toy/model.ckpt --feature-dir toy/mixed \
  --protocol toy/protocol_dev.txt --out toy/rejected.txt
# the store fixes the kind when it opens, before any pool thread reads it
expect_error data replaycm score --ckpt toy/model.ckpt --feature-dir toy/mixed \
  --protocol toy/protocol_dev.txt --out toy/rejected.txt --jobs 2
dev_utt=$(head -n 1 toy/protocol_dev.txt | cut -d ' ' -f 1)
expect_error data replaycm saliency --ckpt toy/model.ckpt --feature "toy/mixed/$dev_utt.fgram" \
  --out toy/rejected.fgram
# a manifest names files in its own directory: "../<utt>.fgram" is rejected
# even where that gram exists
mkdir -p toy/escape
cp "toy/stft/$dev_utt.fgram" "toy/$dev_utt.fgram"
printf '%s ../%s.fgram\n' "$dev_utt" "$dev_utt" > toy/escape/features.manifest
head -n 1 toy/protocol_dev.txt > toy/one_dev.txt
expect_error format replaycm score --ckpt toy/model.ckpt --feature-dir toy/escape \
  --protocol toy/one_dev.txt --out toy/rejected.txt
# a feature directory must list every utterance of the protocol, and hold a manifest
expect_error data replaycm score --ckpt toy/model.ckpt --feature-dir toy/stft-full \
  --protocol toy/protocol_eval.txt --out toy/rejected.txt
grep -q "no feature file for utterance '" toy/stderr.txt
expect_error data replaycm score --ckpt toy/model.ckpt --feature-dir toy/wav \
  --protocol toy/protocol_eval.txt --out toy/rejected.txt
grep -q "feature manifest toy/wav/features.manifest not found" toy/stderr.txt
# a 71 TiB STFT buffer under a 2 GB address space: one error:resource: line
printf '[stft]\nn_fft = 100000000000\n' > toy/huge_fft.cfg
(
  ulimit -v 2000000
  expect_error resource replaycm extract --feature stft --protocol toy/protocol_dev.txt \
    --wav-dir toy/wav --out toy/huge --config toy/huge_fft.cfg
)
echo "console pipeline passed"
