"""Memory a training step can rely on, whatever the process ran before.

glibc raises its mmap and trim thresholds only after a process frees a
large mapped block, so unless the package pins them, a process that never
made such a block (one that trains or scores on files it did not
generate) maps and faults in a wide batch's arrays afresh at every step.
"""

import ctypes
import os
import pathlib
import subprocess
import sys

import pytest

import qin


def has_mallopt() -> bool:
    try:
        return hasattr(ctypes.CDLL(None), "mallopt")
    except (OSError, TypeError):
        return False


# A wide step in a fresh process that imports qin and never generates:
# 1 024 rows, d_t 64 (a QNN 128 wide), depth 4, m 4, QNN dropout 0.1, in
# the training dtype. Prints the minor faults of 10 steps after 3 warm-up
# steps.
WIDE_STEPS = """
import resource
import numpy as np
from qin import model
from qin.config import HyperParams, TrainConfig
from qin.dataio import Split, build_batch
from qin.embedding import EmbeddingStore
from qin.linalg import TRAIN_FLOAT, make_rng
from qin.params import ModelParams, init_params
from qin.train import AdamState, adam_step

n, vocab, d_frozen = 1024, 1000, 6
hp = HyperParams(d_t=64, seq_len=4, depth=4, m=4, dropout_p=0.1, vocab=vocab,
                 d_frozen=d_frozen)
rng = make_rng(0)
store = EmbeddingStore(rng.standard_normal((vocab, d_frozen)).astype(TRAIN_FLOAT))
split = Split.from_lengths(targets=rng.integers(0, vocab, n), labels=np.arange(n) % 2,
                           lengths=np.full(n, 4), ids=rng.integers(0, vocab, 4 * n))
batch = build_batch(split, hp.seq_len)
init = init_params(hp, rng)
params = ModelParams(init.shapes, init.flat.astype(TRAIN_FLOAT))
state, cfg = AdamState.for_params(params), TrainConfig()


def step():
    masks = model.draw_dropout_masks(hp, n, rng)
    _, grads = model.loss_and_grads(params, hp, store, batch, masks)
    adam_step(params, grads, state, cfg)


for _ in range(3):
    step()
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(10):
    step()
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(not has_mallopt(), reason="no glibc mallopt")
def test_wide_training_steps_take_no_page_faults():
    # Unpinned, each step took 2 860-3 481 minor faults (about 12 MiB of
    # fresh pages); pinned, 0-5.
    src = str(pathlib.Path(qin.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    run = subprocess.run([sys.executable, "-c", WIDE_STEPS], env=env, capture_output=True,
                         text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    assert int(run.stdout) <= 10 * 64
