"""Whole-model forward/backward: embeddings -> pooling -> interaction -> head.

The embedding module turns the batch into item rows and takes their
gradients back; the model hands it the batch, and attention the rows,
so no id or store column is handled here. The pooling is the attention
block for every attn_kind, the "w/o ASTA" mean pooling included
(attn_kind mean). The model draws nothing: the caller passes each
step's QNN keep-masks, drawn by draw_dropout_masks. Training
(loss_and_grads) and scoring (predict_logits) run the one forward pass,
model_forward; scoring passes no masks. A wide QNN's layers
may run on two row halves at once, on the calling thread and the one
second thread of the process. The split rule in qnn.py alone decides
when, so nothing here knows of threads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .asta import AttentionConfig, asta_backward, asta_forward
from .config import HyperParams
from .embedding import Batch, EmbeddingStore, embedding_grad_accumulate, lookup_items
from .metrics import bce_backward, bce_logit_loss, head_forward
from .params import ModelParams, zero_gradients
from .qnn import QnnConfig, assemble_x1, mlp_backward, mlp_forward, qnn_backward, qnn_forward


def attention_config(hp: HyperParams) -> AttentionConfig:
    return AttentionConfig(kind=hp.attn_kind, d_t=hp.d_t)


def qnn_config(hp: HyperParams) -> QnnConfig:
    return QnnConfig(depth=hp.depth, m=hp.m, dim=hp.qnn_dim, dropout_p=hp.dropout_p)


@dataclass
class ModelTrace:
    batch: Batch
    pool_trace: object
    inter_trace: object
    x_last: np.ndarray
    logits: np.ndarray


def draw_dropout_masks(hp: HyperParams, n: int, rng: np.random.Generator) -> list | None:
    """Per-step bool keep-masks, one per QNN layer in layer order, or None
    when the step has no QNN dropout.

    A float times a bool is the float times exactly 1.0 or 0.0, so the
    masks scale as {0, 1} floats would, at a byte per entry.
    """
    if hp.interaction == "qnn" and hp.dropout_p > 0:
        return [rng.random((n, hp.qnn_dim)) >= hp.dropout_p for _ in range(hp.depth)]
    return None


def model_forward(params: ModelParams, hp: HyperParams, store: EmbeddingStore,
                  batch: Batch, masks: list | None = None) -> ModelTrace:
    """The forward pass under the keep-masks of draw_dropout_masks; None means no dropout."""
    x_t, x_b = lookup_items(store, params.id_embedding, batch)
    o, pool_trace = asta_forward(params.w_q, params.w_k, params.w_v,
                                 attention_config(hp), x_t, x_b, batch.mask)
    x1 = assemble_x1(x_t, o, hp.qnn_dim)
    if hp.interaction == "qnn":
        x_last, inter_trace = qnn_forward(params.qnn_w, params.prelu, x1, qnn_config(hp),
                                          masks)
    else:
        x_last, inter_trace = mlp_forward(params.mlp_w, params.mlp_b, x1)

    logits = head_forward(params.head_w, params.head_b, x_last)
    return ModelTrace(batch=batch, pool_trace=pool_trace, inter_trace=inter_trace,
                      x_last=x_last, logits=logits)


def model_backward(params: ModelParams, hp: HyperParams, trace: ModelTrace,
                   d_logits: np.ndarray) -> ModelParams:
    """Gradients of every parameter."""
    grads = zero_gradients(params)

    grads.head_w += trace.x_last.T @ d_logits
    grads.head_b += np.sum(d_logits)
    d_x_last = np.multiply.outer(d_logits, params.head_w)

    if hp.interaction == "qnn":
        d_ws, d_slopes, d_x1 = qnn_backward(params.qnn_w, params.prelu, qnn_config(hp),
                                            trace.inter_trace, d_x_last)
        for l in range(hp.depth):
            grads.qnn_w[l] += d_ws[l]
        grads.prelu += d_slopes
    else:
        d_ws, d_bs, d_x1 = mlp_backward(params.mlp_w, params.mlp_b,
                                        trace.inter_trace, d_x_last)
        for l in range(len(params.mlp_w)):
            grads.mlp_w[l] += d_ws[l]
            grads.mlp_b[l] += d_bs[l]

    d_o = d_x1[:, hp.d_t:]

    d_w_q, d_w_k, d_w_v, d_x_t_pool, d_x_b = asta_backward(
        params.w_q, params.w_k, params.w_v, attention_config(hp), trace.pool_trace, d_o)
    if d_w_q is not None:   # attn_kind mean has no w_q or w_k
        grads.w_q += d_w_q
        grads.w_k += d_w_k
    grads.w_v += d_w_v
    d_x_t = d_x1[:, :hp.d_t] + d_x_t_pool

    embedding_grad_accumulate(grads, trace.batch, d_x_t, d_x_b)
    return grads


def loss_and_grads(params: ModelParams, hp: HyperParams, store: EmbeddingStore,
                   batch: Batch, masks: list | None = None):
    """One batch: (mean BCE loss of the logits, full gradients), under the
    keep-masks of model_forward.

    Everything but the loss, which metrics.bce_logit_loss reports in
    float64, computes in the dtype of the parameters and the store.

    Each QNN layer runs its one body over row blocks: where qnn's split
    rule splits it, over two row halves at once, forward and backward;
    otherwise over one block of all rows. Both give the same bits.
    Everything else runs whole in the calling thread.
    """
    trace = model_forward(params, hp, store, batch, masks)
    loss = bce_logit_loss(trace.logits, batch.labels)
    d_logits = bce_backward(trace.logits, batch.labels)
    grads = model_backward(params, hp, trace, d_logits)
    return loss, grads


def predict_logits(params: ModelParams, hp: HyperParams, store: EmbeddingStore,
                   batches) -> np.ndarray:
    """model_forward's logits of every batch, dropout disabled, order preserved.

    Each QNN layer runs on one row block or two halves as in
    loss_and_grads, so the logits equal the one-thread pass to the bit,
    and an error in the second thread's half reaches the caller with its
    own type. No probability is formed here. The logits take the dtype of
    the parameters and the store.
    """
    outs = [model_forward(params, hp, store, b).logits for b in batches]
    return np.concatenate(outs) if outs else np.zeros(0, dtype=params.flat.dtype)
