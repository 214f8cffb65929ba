"""Replay-attack countermeasure toolkit.

Synthetic replay corpus simulation, STFT/MGD/CQT feature grams, a ResNet
classifier trained with balanced cross-entropy or balanced focal loss on a
built-in autodiff engine, score fusion, and EER / min t-DCF evaluation.
"""

from .audio_io import Waveform, read_wav, synth_tone_complex, write_wav
from .autodiff import Tensor, backward
from .features import (
    FeatureGram,
    FrameSpec,
    MgdParams,
    cepstral_smooth,
    cqt_gram,
    gd_gram,
    mgd_gram,
    read_gram,
    shape_fixed,
    stft,
    stft_gram,
    write_gram,
)
from .metrics import TdcfParams, breakdown, eer, min_tdcf_norm
from .model import (
    ResNet,
    ResNetConfig,
    build_resnet,
    load_checkpoint,
    saliency_map,
    save_checkpoint,
    score_utterance,
)
from .objectives import ClassWeights, bce, bfl, loss_ratio
from .replay_sim import AttackSpec, degrade, generate_corpus, read_protocol, write_protocol
from .scoring import (
    FusionModel,
    ScoreRecord,
    lr_fuse_train,
    mean_fuse,
    read_score_file,
    write_score_file,
)
from .training import AdamW, FeatureStore, PlateauScheduler, TrainConfig, train

__version__ = "0.1.0"
