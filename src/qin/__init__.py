"""Quadratic interest network: CTR prediction with sparse target attention
and quadratic feature-interaction layers, trained by hand-derived backprop."""

__version__ = "0.1.0"

from .config import GenConfig, HyperParams, TrainConfig
from .embedding import Batch, EmbeddingStore, Sample
from .params import ModelParams, init_params, load_checkpoint, save_checkpoint

__all__ = [
    "Batch", "EmbeddingStore", "GenConfig", "HyperParams",
    "ModelParams", "Sample", "TrainConfig", "init_params", "load_checkpoint",
    "save_checkpoint", "__version__",
]
