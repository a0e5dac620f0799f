"""Two-mode transformer inference: full-parameter prefill paired with a
width-pruned, cache-compatible decoder, plus the pruner, trainer, and
performance model around it."""

__version__ = "0.1.0"

from .model import DESK_CONFIG, KVCache, ModelConfig, Weights, cache_shape, init_model
from .engine import GenParams, baseline_generate, generate, overfill_generate
from .pruner import PruneConfig, compute_pruned_dims, slice_model

__all__ = [
    "DESK_CONFIG", "KVCache", "ModelConfig", "Weights", "cache_shape",
    "init_model", "GenParams", "baseline_generate", "generate", "overfill_generate",
    "PruneConfig", "compute_pruned_dims", "slice_model", "__version__",
]
