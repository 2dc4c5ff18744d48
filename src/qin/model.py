"""Whole-model forward/backward: embeddings -> pooling -> interaction -> head."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .asta import (AttentionConfig, asta_backward, asta_forward,
                   mean_pool_backward, mean_pool_forward)
from .config import HyperParams
from .embedding import Batch, EmbeddingStore, embedding_grad_accumulate, item_table, lookup_target
from .linalg import FLOAT
from .metrics import bce_backward, bce_loss, head_forward
from .params import ModelParams, zero_gradients
from .qnn import QnnConfig, assemble_x1, mlp_backward, mlp_forward, qnn_backward, qnn_forward


def attention_config(hp: HyperParams) -> AttentionConfig:
    return AttentionConfig(kind=hp.attn_kind, d_t=hp.d_t, seq_len=hp.seq_len,
                           dropout_p=hp.attn_dropout_p)


def qnn_config(hp: HyperParams) -> QnnConfig:
    return QnnConfig(depth=hp.depth, m=hp.m, dim=hp.qnn_dim, dropout_p=hp.dropout_p,
                     residual=hp.qnn_residual, mid_act=hp.qnn_mid_act, act=hp.qnn_act)


@dataclass
class ModelTrace:
    batch: Batch
    x_t: np.ndarray
    pool_trace: object
    inter_trace: object
    x_last: np.ndarray
    probs: np.ndarray


def draw_dropout_masks(hp: HyperParams, n: int, rng: np.random.Generator):
    """Per-step keep masks, in a fixed draw order: attention first, then layers."""
    attn_mask = None
    if hp.attn_dropout and hp.attn_dropout_p > 0:
        attn_mask = (rng.random((n, hp.seq_len)) >= hp.attn_dropout_p).astype(FLOAT)
    qnn_masks = None
    if hp.interaction == "qnn" and hp.dropout_p > 0:
        qnn_masks = [(rng.random((n, hp.qnn_dim)) >= hp.dropout_p).astype(FLOAT)
                     for _ in range(hp.depth)]
    return attn_mask, qnn_masks


def model_forward(params: ModelParams, hp: HyperParams, store: EmbeddingStore,
                  batch: Batch, training: bool = False,
                  dropout_rng: np.random.Generator | None = None) -> ModelTrace:
    attn_mask, qnn_masks = (None, None)
    if training and dropout_rng is not None:
        attn_mask, qnn_masks = draw_dropout_masks(hp, batch.size, dropout_rng)

    table = item_table(store, params.id_embedding, batch.seq_ids)
    x_t = lookup_target(store, params.id_embedding, batch.target_ids)

    if hp.pooling == "asta":
        o, pool_trace = asta_forward(params.w_q, params.w_k, params.w_v,
                                     attention_config(hp), x_t, table, batch.mask,
                                     drop_mask=attn_mask, ids=batch.seq_ids)
    else:
        o, pool_trace = mean_pool_forward(params.w_v, x_t, table, batch.mask,
                                          ids=batch.seq_ids)

    x1 = assemble_x1(x_t, o, hp.qnn_dim)
    if hp.interaction == "qnn":
        x_last, inter_trace = qnn_forward(params.qnn_w, params.prelu, x1,
                                          qnn_config(hp), qnn_masks)
    else:
        x_last, inter_trace = mlp_forward(params.mlp_w, params.mlp_b, x1)

    _, probs = head_forward(params.head_w, params.head_b, x_last)
    return ModelTrace(batch=batch, x_t=x_t, pool_trace=pool_trace, inter_trace=inter_trace,
                      x_last=x_last, probs=probs)


def model_backward(params: ModelParams, hp: HyperParams, trace: ModelTrace,
                   d_logits: np.ndarray) -> ModelParams:
    grads = zero_gradients(params)

    grads.head_w += trace.x_last.T @ d_logits
    grads.head_b += np.sum(d_logits)
    d_x_last = np.multiply.outer(d_logits, params.head_w)

    if hp.interaction == "qnn":
        d_ws, d_slopes, d_x1 = qnn_backward(params.qnn_w, params.prelu,
                                            qnn_config(hp), trace.inter_trace, d_x_last)
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

    if hp.pooling == "asta":
        d_w_q, d_w_k, d_w_v, d_x_t_pool, d_table = asta_backward(
            params.w_q, params.w_k, params.w_v, attention_config(hp),
            trace.pool_trace, d_o, frozen=hp.d_frozen)
        grads.w_q += d_w_q
        grads.w_k += d_w_k
        grads.w_v += d_w_v
    else:
        d_w_v, d_x_t_pool, d_table = mean_pool_backward(
            params.w_v, trace.pool_trace, d_o, frozen=hp.d_frozen)
        grads.w_v += d_w_v
    d_x_t = d_x1[:, :hp.d_t] + d_x_t_pool

    embedding_grad_accumulate(grads, hp.d_frozen, trace.batch.target_ids, d_x_t, d_table)
    return grads


def loss_and_grads(params: ModelParams, hp: HyperParams, store: EmbeddingStore,
                   batch: Batch, training: bool = True,
                   dropout_rng: np.random.Generator | None = None):
    """One batch: mean BCE loss, full gradients, and the predicted probabilities."""
    trace = model_forward(params, hp, store, batch, training, dropout_rng)
    loss = bce_loss(trace.probs, batch.labels)
    d_logits = bce_backward(trace.probs, batch.labels)
    grads = model_backward(params, hp, trace, d_logits)
    return loss, grads, trace.probs


def predict_probs(params: ModelParams, hp: HyperParams, store: EmbeddingStore,
                  batches) -> np.ndarray:
    """Deterministic full-pass probabilities, dropout disabled, order preserved."""
    outs = [model_forward(params, hp, store, b, training=False).probs for b in batches]
    return np.concatenate(outs) if outs else np.zeros(0, dtype=FLOAT)
