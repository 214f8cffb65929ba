"""Replay-attack countermeasure toolkit.

Synthetic replay corpus simulation, STFT/MGD/CQT feature grams, a ResNet
classifier trained with balanced cross-entropy or balanced focal loss on a
built-in autodiff engine, score fusion, and EER / min t-DCF evaluation.
"""

__version__ = "0.1.0"
