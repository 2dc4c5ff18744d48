"""Quadratic interest network: CTR prediction with sparse target attention
and quadratic feature-interaction layers, trained by hand-derived backprop."""

__version__ = "0.1.0"

import ctypes

from .config import GenConfig, HyperParams, TrainConfig
from .embedding import Batch, EmbeddingStore, Sample
from .params import ModelParams, init_params, load_checkpoint, save_checkpoint

__all__ = [
    "Batch", "EmbeddingStore", "GenConfig", "HyperParams",
    "ModelParams", "Sample", "TrainConfig", "init_params", "load_checkpoint",
    "save_checkpoint", "__version__",
]

# The thresholds pinned, 16 MiB for mmap and 32 MiB for trim, are about
# what glibc itself set after freeing the generator's old (n_users,
# n_items) logit table, a 16 MB block. A wide training step (1 024 rows,
# QNN 128 wide, depth 4, m 4) took 0-5 minor faults against 2 900-3 500
# unpinned; it needed a trim threshold of 14 MiB or more on one CPU (3 173
# a step at 12) and an mmap threshold of 2 MiB or more. The smaller pairs
# 8/16, 4/16 and 2/16 MiB passed too, but raised desk_train's median peak
# RSS to 68.9-69.2 MiB against 67.6, and 4/16 ragged_score's to 65.9
# against 64.9 (qinbench, 7 seeds at --seconds 4, 2-core AVX-512 Xeon VM).
def _pin_malloc_thresholds() -> None:
    """Fix glibc's mmap and trim thresholds for the life of the process.

    glibc maps every block of 128 KiB or more on its own and unmaps it on
    free, and hands the heap top back past 128 KiB free. It raises both
    thresholds only after the process frees a large mapped block, so
    otherwise a step's batch-sized arrays are fresh pages, faulted in one
    by one, at every step. Pinned, they are reused from the heap whatever
    the process ran before. Without mallopt (not glibc) this does nothing.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt(-1, 32 << 20)   # M_TRIM_THRESHOLD
    mallopt(-3, 16 << 20)   # M_MMAP_THRESHOLD


_pin_malloc_thresholds()
