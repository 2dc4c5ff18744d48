"""model_backward against the two-scatter form it replaced, bit for bit.

The reference pools the behaviour-row gradient over every column of the
item vector, then scatters the target rows and the per-item rows through
one segment sum whose ids are the targets followed by every vocab row.
The model sums only the trainable columns and adds the per-item rows to
the target sum. Both must give the same bits for every gradient class.
"""

import numpy as np
import pytest

from qin.asta import asta_backward, asta_forward, mean_pool_backward, mean_pool_forward
from qin.config import HyperParams
from qin.dataio import build_batch
from qin.embedding import EmbeddingStore, Sample
from qin.linalg import make_rng, segment_sum, spawn_rng
from qin.metrics import bce_backward, bce_loss
from qin.model import (attention_config, loss_and_grads, model_forward, qnn_config)
from qin.params import init_params, named_arrays, zero_gradients
from qin.qnn import qnn_backward

KINDS = ("relu", "softmax", "relu2", "silu")
D_T = 8


def two_scatter_model_backward(params, hp, trace, d_logits):
    """The earlier model_backward (QNN interaction), with its id-table scatter inlined."""
    grads = zero_gradients(params)
    grads.head_w += trace.x_last.T @ d_logits
    grads.head_b += np.sum(d_logits)
    d_x_last = np.multiply.outer(d_logits, params.head_w)
    d_ws, d_slopes, d_x1 = qnn_backward(params.qnn_w, params.prelu,
                                        qnn_config(hp), trace.inter_trace, d_x_last)
    for l in range(hp.depth):
        grads.qnn_w[l] += d_ws[l]
    grads.prelu += d_slopes

    d_x_t = d_x1[:, :hp.d_t].copy()
    d_o = d_x1[:, hp.d_t:]
    if hp.pooling == "asta":
        d_w_q, d_w_k, d_w_v, d_x_t_pool, d_table = asta_backward(
            params.w_q, params.w_k, params.w_v, attention_config(hp),
            trace.pool_trace, d_o)
        grads.w_q += d_w_q
        grads.w_k += d_w_k
        grads.w_v += d_w_v
    else:
        d_w_v, d_x_t_pool, d_table = mean_pool_backward(params.w_v, trace.pool_trace, d_o)
        grads.w_v += d_w_v
    d_x_t += d_x_t_pool

    # The second scatter: targets, then every vocab row under the identity index.
    items = np.arange(d_table.shape[0])
    ids = np.concatenate([trace.batch.target_ids, items])
    rows = np.concatenate([d_x_t[:, hp.d_frozen:], d_table[:, hp.d_frozen:]])
    grads.id_embedding += segment_sum(ids, grads.id_embedding.shape[0], (rows, None))
    return grads


def instance(pooling, kind, attn_dropout, d_frozen):
    hp = HyperParams(d_t=D_T, seq_len=6, vocab=9, d_frozen=d_frozen, pooling=pooling,
                     attn_kind=kind, attn_dropout=attn_dropout, attn_dropout_p=0.3)
    rng = make_rng(43)
    params = init_params(hp, rng)
    params.id_embedding = rng.standard_normal(params.id_embedding.shape) * 0.5
    store = EmbeddingStore(rng.standard_normal((hp.vocab, hp.d_frozen)))
    # Target ids repeat across samples and appear in histories; histories
    # repeat ids, are padded, and one is empty and one full.
    samples = [Sample(target_id=2, seq_ids=[4, 4, 1], label=1),
               Sample(target_id=4, seq_ids=[], label=0),
               Sample(target_id=2, seq_ids=[2, 7, 4, 4, 7, 1], label=0),
               Sample(target_id=2, seq_ids=[1], label=1),
               Sample(target_id=0, seq_ids=[8, 8, 3, 0], label=1)]
    return hp, params, store, build_batch(samples, hp.seq_len)


CASES = ([("asta", kind, drop) for kind in KINDS for drop in (False, True)]
         + [("mean", "relu", False)])


@pytest.mark.parametrize("d_frozen", [0, 1, D_T - 1])
@pytest.mark.parametrize("pooling,kind,attn_dropout", CASES)
def test_loss_and_grads_match_two_scatter_reference(pooling, kind, attn_dropout, d_frozen):
    hp, params, store, batch = instance(pooling, kind, attn_dropout, d_frozen)
    loss, grads, probs = loss_and_grads(params, hp, store, batch, training=True,
                                        dropout_rng=spawn_rng(5, 2, 0))
    trace = model_forward(params, hp, store, batch, training=True,
                          dropout_rng=spawn_rng(5, 2, 0))
    ref = two_scatter_model_backward(params, hp, trace,
                                     bce_backward(trace.probs, batch.labels))

    assert loss == bce_loss(trace.probs, batch.labels)
    assert probs.tobytes() == trace.probs.tobytes()
    ref_named = named_arrays(ref)
    for name, got in named_arrays(grads).items():
        assert got.tobytes() == ref_named[name].tobytes(), name
    assert np.count_nonzero(grads.id_embedding) > 0


@pytest.mark.parametrize("frozen", [0, 1, D_T - 1])
@pytest.mark.parametrize("with_ids", [False, True])
@pytest.mark.parametrize("kind", KINDS + ("mean",))
def test_pooling_backward_frozen_columns_are_a_slice(kind, with_ids, frozen):
    hp, params, _, batch = instance("asta", "relu", True, 2)
    rng = make_rng(44)
    table = rng.standard_normal((hp.vocab, D_T))
    x_t = rng.standard_normal((batch.size, D_T))
    d_o = rng.standard_normal((batch.size, D_T))
    x_b, ids = (table, batch.seq_ids) if with_ids else (table[batch.seq_ids], None)
    if kind == "mean":
        _, trace = mean_pool_forward(params.w_v, x_t, x_b, batch.mask, ids=ids)
        full = mean_pool_backward(params.w_v, trace, d_o)
        part = mean_pool_backward(params.w_v, trace, d_o, frozen=frozen)
    else:
        cfg = attention_config(HyperParams(d_t=D_T, seq_len=6, vocab=9, attn_kind=kind,
                                           attn_dropout_p=0.3))
        drop = (rng.random(batch.mask.shape) >= 0.3).astype(float)
        w = (params.w_q, params.w_k, params.w_v)
        _, trace = asta_forward(*w, cfg, x_t, x_b, batch.mask, drop_mask=drop, ids=ids)
        full = asta_backward(*w, cfg, trace, d_o)
        part = asta_backward(*w, cfg, trace, d_o, frozen=frozen)
    for got, ref in zip(part[:-1], full[:-1]):
        assert got.tobytes() == ref.tobytes()
    assert part[-1].shape == full[-1].shape[:-1] + (D_T - frozen,)
    assert part[-1].tobytes() == np.ascontiguousarray(full[-1][..., frozen:]).tobytes()
