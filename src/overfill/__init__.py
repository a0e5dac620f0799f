"""Two-mode transformer inference: full-parameter prefill paired with a
width-pruned, cache-compatible decoder, plus the pruner, trainer, and
performance model around it.

Kernel parallelism is capped via OVERFILL_THREADS (default 1): one fixed
thread count gives bit-identical reruns. The cap is applied here, before any
submodule loads numpy, and only to BLAS variables that are not already set.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ.setdefault(_var, os.environ.get("OVERFILL_THREADS", "1"))

__version__ = "0.1.0"

from .model import DESK_CONFIG, KVCache, ModelConfig, Weights, cache_shape, init_model
from .engine import GenParams, baseline_generate, generate, overfill_generate
from .pruner import PruneConfig, compute_pruned_dims, slice_model

__all__ = [
    "DESK_CONFIG", "KVCache", "ModelConfig", "Weights", "cache_shape",
    "init_model", "GenParams", "baseline_generate", "generate", "overfill_generate",
    "PruneConfig", "compute_pruned_dims", "slice_model", "__version__",
]
