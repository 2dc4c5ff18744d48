"""model_backward against the two-scatter form it replaced, bit for bit.

The reference sums the behaviour-row gradient per item over every column
of the item vector, then scatters the target rows and the per-item rows
through one segment sum whose ids are the targets followed by every vocab
row. The model sums only the trainable columns and adds the per-item rows
to the target sum. Both must give the same bits for every gradient class.
"""

import numpy as np
import pytest

from conftest import attention_case_id, id_table_grad, slot_rows, split_of
from qin.asta import asta_backward, asta_forward
from qin.config import ATTN_KINDS, HyperParams
from qin.dataio import build_batch
from qin.embedding import EmbeddingStore, Sample
from qin.linalg import make_rng, segment_sum, spawn_rng
from qin.metrics import bce_backward, bce_logit_loss
from qin.model import (attention_config, draw_dropout_masks, loss_and_grads, model_forward,
                       qnn_config)
from qin.params import init_params, zero_gradients
from qin.qnn import qnn_backward, qnn_layer_backward, qnn_layer_forward

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
    d_w_q, d_w_k, d_w_v, d_x_t_pool, d_x_b = asta_backward(
        params.w_q, params.w_k, params.w_v, attention_config(hp),
        trace.pool_trace, d_o)
    if d_w_q is not None:   # attn_kind mean has no w_q or w_k
        grads.w_q += d_w_q
        grads.w_k += d_w_k
    grads.w_v += d_w_v
    d_x_t += d_x_t_pool

    # The first scatter, per item over every column; the second: targets,
    # then every vocab row under the identity index.
    d_table = segment_sum(trace.batch.seq_ids, hp.vocab, *d_x_b)
    items = np.arange(d_table.shape[0])
    ids = np.concatenate([trace.batch.target_ids, items])
    rows = np.concatenate([d_x_t[:, hp.d_frozen:], d_table[:, hp.d_frozen:]])
    grads.id_embedding += segment_sum(ids, grads.id_embedding.shape[0], (rows, None))
    return grads


def instance(kind, attn_dropout, d_frozen):
    hp = HyperParams(d_t=D_T, seq_len=6, vocab=9, d_frozen=d_frozen,
                     attn_kind=kind, attn_dropout_p=0.3 if attn_dropout else 0.0)
    rng = make_rng(43)
    params = init_params(hp, rng)
    params.id_embedding = rng.standard_normal(params.id_embedding.shape) * 0.5
    store = EmbeddingStore(rng.standard_normal((hp.vocab, hp.d_frozen)))
    # Target ids repeat across samples and appear in histories; histories
    # repeat ids, are padded, and one is empty and one full.
    split = split_of([Sample(target_id=2, seq_ids=[4, 4, 1], label=1),
                      Sample(target_id=4, seq_ids=[], label=0),
                      Sample(target_id=2, seq_ids=[2, 7, 4, 4, 7, 1], label=0),
                      Sample(target_id=2, seq_ids=[1], label=1),
                      Sample(target_id=0, seq_ids=[8, 8, 3, 0], label=1)])
    return hp, params, store, build_batch(split, hp.seq_len)


def step_masks(hp, batch):
    """The keep-masks train would draw for step 0 of a seed-5 run."""
    return draw_dropout_masks(hp, batch.size, spawn_rng(5, 2, 0))


def bits(arrays):
    """Each array's bytes; None, the gradient of a tensor the layout lacks, stays None."""
    return [None if a is None else a.tobytes() for a in arrays]


CASES = [(kind, drop) for kind in ATTN_KINDS for drop in (False, True)]


@pytest.mark.parametrize("d_frozen", [0, 1, D_T - 1])
@pytest.mark.parametrize("kind,attn_dropout", CASES,
                         ids=[attention_case_id(*case) for case in CASES])
def test_loss_and_grads_match_two_scatter_reference(kind, attn_dropout, d_frozen):
    hp, params, store, batch = instance(kind, attn_dropout, d_frozen)
    masks = step_masks(hp, batch)
    loss, grads = loss_and_grads(params, hp, store, batch, masks)
    trace = model_forward(params, hp, store, batch, masks)
    ref = two_scatter_model_backward(params, hp, trace,
                                     bce_backward(trace.logits, batch.labels))

    assert loss == bce_logit_loss(trace.logits, batch.labels)
    for name, got in grads.views.items():
        assert got.tobytes() == ref.views[name].tobytes(), name
    assert np.count_nonzero(grads.id_embedding) > 0


@pytest.mark.parametrize("frozen", [0, 1, D_T - 1])
@pytest.mark.parametrize("with_ids", [False, True])
@pytest.mark.parametrize("kind", ATTN_KINDS)
def test_pooling_backward_frozen_columns_are_a_slice(kind, with_ids, frozen):
    # The embedding scatter drops the store columns from the rows of the
    # factored slot gradient. That is the slice of the per-slot gradient,
    # and, once summed per item with the targets (with_ids), the slice of
    # the full-width id-table gradient.
    hp, params, _, batch = instance("relu", True, 2)
    rng = make_rng(44)
    table = rng.standard_normal((hp.vocab, D_T))
    x_t = rng.standard_normal((batch.size, D_T))
    d_o = rng.standard_normal((batch.size, D_T))
    d_x_t = rng.standard_normal((batch.size, D_T))
    cfg = attention_config(HyperParams(d_t=D_T, seq_len=6, vocab=9, attn_kind=kind,
                                       attn_dropout_p=0.3))
    drop = (rng.random(batch.mask.shape) >= 0.3).astype(float)
    w = (params.w_q, params.w_k, params.w_v)
    _, trace = asta_forward(*w, cfg, x_t, table[batch.seq_ids], batch.mask, drop_mask=drop)
    d_x_b = asta_backward(*w, cfg, trace, d_o)[-1]
    if with_ids:
        full, part = (id_table_grad(hp.vocab, width, batch.seq_ids, d_x_b, batch.target_ids, d_x_t)
                      for width in (D_T, D_T - frozen))
    else:
        full = slot_rows(d_x_b)
        part = slot_rows([(rows[:, frozen:], weights) for rows, weights in d_x_b])
    assert part.shape == full.shape[:-1] + (D_T - frozen,)
    assert part.tobytes() == np.ascontiguousarray(full[..., frozen:]).tobytes()


def test_attention_dropout_reaches_mean_pooling():
    hp, params, store, batch = instance("mean", True, 2)
    masks = step_masks(hp, batch)
    trace = model_forward(params, hp, store, batch, masks)
    keep, _ = masks
    assert not keep[batch.mask > 0].all()   # some live slot is dropped
    mask = trace.pool_trace.mask   # the float32 batch mask, widened to the rows' float64
    assert mask.dtype == np.float64 and np.array_equal(mask, batch.mask)
    share = mask * (1.0 / np.maximum(mask.sum(axis=1), 1.0))[:, None]
    expected = share * keep / (1.0 - hp.attn_dropout_p)
    assert trace.pool_trace.weights.tobytes() == expected.tobytes()


def as_floats(masks):
    attn_mask, qnn_masks = masks
    return attn_mask.astype(float), [m.astype(float) for m in qnn_masks]


@pytest.mark.parametrize("kind", ATTN_KINDS)
def test_bool_keep_masks_match_float_masks_bit_for_bit(kind):
    # A float times a bool is the float times exactly 0.0 or 1.0.
    hp, params, store, batch = instance(kind, True, 2)
    masks = step_masks(hp, batch)
    assert masks[0].dtype == bool and all(m.dtype == bool for m in masks[1])
    floats = as_floats(masks)
    rng = make_rng(45)

    x_b = rng.standard_normal((hp.vocab, D_T))[batch.seq_ids]
    x_t = rng.standard_normal((batch.size, D_T))
    d_o = rng.standard_normal((batch.size, D_T))
    w = (params.w_q, params.w_k, params.w_v)
    results = []
    for drop in (masks[0], floats[0]):
        o, trace = asta_forward(*w, attention_config(hp), x_t, x_b, batch.mask,
                                drop_mask=drop)
        *grads, d_x_b = asta_backward(*w, attention_config(hp), trace, d_o)
        results.append(bits((o, *grads, *(a for pair in d_x_b for a in pair))))
    assert results[0] == results[1]

    x = rng.standard_normal((batch.size, hp.qnn_dim))
    d_out = rng.standard_normal((batch.size, hp.qnn_dim))
    cfg = qnn_config(hp)
    results = []
    for drop in (masks[1][0], floats[1][0]):
        out, trace = qnn_layer_forward(params.qnn_w[0], 0.25, x, cfg, drop)
        d_w, d_slope, d_x = qnn_layer_backward(params.qnn_w[0], 0.25, cfg, trace, d_out)
        results.append((out.tobytes(), d_w.tobytes(), d_slope, d_x.tobytes()))
    assert results[0] == results[1]

    # The whole training step, with the masks passed as {0, 1} floats instead.
    loss, grads = loss_and_grads(params, hp, store, batch, masks)
    f_loss, f_grads = loss_and_grads(params, hp, store, batch, floats)
    logits = model_forward(params, hp, store, batch, masks).logits
    assert loss == f_loss
    assert logits.tobytes() == model_forward(params, hp, store, batch, floats).logits.tobytes()
    assert grads.flat.tobytes() == f_grads.flat.tobytes()
