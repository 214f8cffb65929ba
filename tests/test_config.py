import pytest

from replaycm.config import DEFAULTS, load_config
from replaycm.errors import ParameterError
from replaycm.features import FrameSpec, MgdParams
from replaycm.metrics import TdcfParams
from replaycm.model import ResNetConfig
from replaycm.training import TrainConfig


def _write(tmp_path, text):
    path = tmp_path / "x.cfg"
    path.write_text(text)
    return path


@pytest.mark.parametrize("text", [
    "[replay_distance_a]\ngain = 0.01\n",
    "[replay_quality_c]\nnoise_rms = 0.5\n",
    "[shaping]\nn_frames = 100\n",
    "[stft]\nlog_eps = 5\n",
    "[audio]\nsynth_peak = 0.5\n",
    "[audio]\nsynth_min_snr_db = 10\n",
])
def test_rejects_values_nothing_reads(tmp_path, text):
    with pytest.raises(ParameterError, match="unknown config"):
        load_config(_write(tmp_path, text))


def test_defaults_come_from_the_owning_dataclasses():
    train, model, mgd = TrainConfig(), ResNetConfig(), MgdParams()
    assert DEFAULTS["train"]["lr"] == train.lr
    assert (DEFAULTS["train"]["beta1"], DEFAULTS["train"]["beta2"]) == (train.beta1, train.beta2)
    assert TrainConfig(**DEFAULTS["train"]) == train  # the section is the dataclass, gamma aside
    assert "objective" not in DEFAULTS["train"] and "gamma" not in DEFAULTS["train"]
    assert DEFAULTS["model"]["block_counts"] == "3,4,6,3"
    assert DEFAULTS["model"]["fc_width"] == model.fc_width
    assert DEFAULTS["model"]["channels"] == model.channels
    assert DEFAULTS["mgd"] == {"rho": mgd.rho, "lambda": mgd.lam, "lifter_len": mgd.lifter_len}
    assert TdcfParams(**DEFAULTS["tdcf"]) == TdcfParams()
    # 25 ms frames every 10 ms, at the default 16 kHz
    assert (FrameSpec.from_ms(DEFAULTS["audio"]["sample_rate"], **DEFAULTS["stft"])
            == FrameSpec(400, 160, "hamming", 1024))


def test_override_is_coerced_to_the_default_type(tmp_path):
    cfg = load_config(_write(tmp_path, "[train]\nbatch_size = 4\nlr = 1e-2\n[stft]\nwindow = hann\n"))
    assert cfg["train"]["batch_size"] == 4 and cfg["train"]["lr"] == 0.01
    assert cfg["stft"]["window"] == "hann"
    assert load_config(None)["train"]["batch_size"] == DEFAULTS["train"]["batch_size"]


def test_bad_number_is_a_parameter_error(tmp_path):
    with pytest.raises(ParameterError, match="train.seed"):
        load_config(_write(tmp_path, "[train]\nseed = three\n"))


@pytest.mark.parametrize("alpha", ["0.5", "1,2,3", "0,1", "-1,1", "a,b", "nan,1", ""])
def test_train_alpha_needs_two_positive_numbers(alpha):
    with pytest.raises(ParameterError, match="alpha"):
        TrainConfig(alpha=alpha)


def test_train_alpha_pair_is_parsed():
    assert TrainConfig(alpha="0.25, 0.75").alpha == (0.25, 0.75)
    assert TrainConfig().alpha == "auto"


@pytest.mark.parametrize("counts", ["3,4,6", "3,4,x,3", "3,4,0,3"])
def test_block_counts_need_four_positive_ints(counts):
    with pytest.raises(ParameterError, match="block_counts"):
        ResNetConfig(block_counts=counts)
