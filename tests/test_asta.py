import numpy as np
import pytest

from conftest import attention_case_id, id_table_grad, slot_rows, split_of
from qin.asta import AttentionConfig, asta_backward, asta_forward, attention_weights
from qin.config import ATTN_KINDS
from qin.errors import ConfigError, ShapeError
from qin.linalg import make_rng, segment_sum


def cfg_for(d_a, d_b, kind="relu"):
    return AttentionConfig(kind=kind, d_a=d_a, d_t=d_a, d_b=d_b)


def test_hand_case_relu():
    # d = 1: K rows [1, -1], V rows [3, -3], x_t = 2.
    # Scores 2 and -2, relu keeps [2, 0], output 2*3 + residual 2 = 8.
    cfg = cfg_for(1, 1)
    w_q = np.eye(1)
    w_k = np.array([[1.0]])
    w_v = np.array([[3.0]])
    x_t = np.array([2.0])
    x_b = np.array([[1.0], [-1.0]])
    o, trace = asta_forward(w_q, w_k, w_v, cfg, x_t, x_b, np.ones(2))
    assert np.array_equal(trace.x_b @ w_k.T, np.array([[[1.0], [-1.0]]]))
    assert np.array_equal(trace.x_b @ w_v.T, np.array([[[3.0], [-3.0]]]))
    assert np.array_equal(trace.scores, np.array([[2.0, -2.0]]))
    assert np.array_equal(trace.weights, np.array([[2.0, 0.0]]))
    assert np.array_equal(o, np.array([8.0]))


def test_all_negative_scores_return_exact_residual():
    cfg = cfg_for(3, 3)
    rng = make_rng(0)
    w_q = np.eye(3)
    w_k = np.eye(3)
    w_v = rng.standard_normal((3, 3))
    x_t = np.array([1.0, 0.5, 0.25])
    x_b = -np.abs(rng.standard_normal((4, 3))) * 10  # scores strictly negative
    o, trace = asta_forward(w_q, w_k, w_v, cfg, x_t, x_b, np.ones(4))
    assert np.all(trace.scores < 0)
    assert np.array_equal(trace.weights, np.zeros((1, 4)))
    assert np.array_equal(o, x_t)


def test_softmax_uniform_on_equal_scores():
    scores = np.full((1, 5), 1.7)
    mask = np.array([[1.0, 1.0, 1.0, 0.0, 0.0]])
    w = attention_weights(scores, mask, "softmax")
    assert np.allclose(w[0, :3], 1.0 / 3.0)
    assert np.array_equal(w[0, 3:], np.zeros(2))


def test_softmax_normalization_tolerance():
    rng = make_rng(8)
    scores = rng.standard_normal((64, 16)) * 3
    mask = (rng.random((64, 16)) < 0.7).astype(float)
    mask[:, 0] = 1.0
    w = attention_weights(scores, mask, "softmax")
    assert np.all(np.abs(w.sum(axis=1) - 1.0) < 1e-9)
    assert np.array_equal(w[mask == 0], np.zeros(int((mask == 0).sum())))


def test_relu_weights_nonnegative():
    rng = make_rng(9)
    scores = rng.standard_normal((32, 8))
    w = attention_weights(scores, np.ones((32, 8)), "relu")
    assert np.all(w >= 0)


def test_unknown_weight_kind_is_a_config_error():
    with pytest.raises(ConfigError, match="unknown attention kind 'gelu'"):
        attention_weights(np.zeros((2, 3)), np.ones((2, 3)), "gelu")
    # silu, a pointwise kind that no ablation ran, is retired.
    with pytest.raises(ConfigError, match="unknown attention kind 'silu'"):
        attention_weights(np.zeros((2, 3)), np.ones((2, 3)), "silu")
    with pytest.raises(ConfigError, match="attention kind must be one of"):
        AttentionConfig(kind="silu", d_t=4)


@pytest.mark.parametrize("kind", ATTN_KINDS)
def test_empty_history_returns_target(kind):
    cfg = cfg_for(3, 3, kind=kind)
    rng = make_rng(1)
    w_q, w_k, w_v = (rng.standard_normal((3, 3)) for _ in range(3))
    x_t = rng.standard_normal(3)
    x_b = rng.standard_normal((4, 3))
    o, _ = asta_forward(w_q, w_k, w_v, cfg, x_t, x_b, np.zeros(4))
    assert np.array_equal(o, x_t)


@pytest.mark.parametrize("kind", ATTN_KINDS)
def test_masked_positions_cannot_influence_output(kind):
    cfg = cfg_for(4, 4, kind=kind)
    rng = make_rng(2)
    w_q, w_k, w_v = (rng.standard_normal((4, 4)) for _ in range(3))
    x_t = rng.standard_normal(4)
    x_b = rng.standard_normal((6, 4))
    mask = np.array([1.0, 1.0, 0.0, 1.0, 0.0, 0.0])
    o1, _ = asta_forward(w_q, w_k, w_v, cfg, x_t, x_b, mask)
    x_b2 = x_b.copy()
    x_b2[mask == 0] = rng.standard_normal((3, 4)) * 100
    o2, _ = asta_forward(w_q, w_k, w_v, cfg, x_t, x_b2, mask)
    assert np.array_equal(o1, o2)


def test_permutation_invariance_exact_on_integers():
    cfg = cfg_for(2, 2)
    w = np.eye(2)
    x_t = np.array([1.0, 2.0])
    x_b = np.array([[3.0, 1.0], [-2.0, 1.0], [0.0, 5.0], [1.0, 1.0]])
    perm = [2, 0, 3, 1]
    o1, _ = asta_forward(w, w, w, cfg, x_t, x_b, np.ones(4))
    o2, _ = asta_forward(w, w, w, cfg, x_t, x_b[perm], np.ones(4))
    assert np.array_equal(o1, o2)


@pytest.mark.parametrize("kind", ATTN_KINDS)
def test_permutation_invariance_float(kind):
    cfg = cfg_for(4, 4, kind=kind)
    rng = make_rng(3)
    w_q, w_k, w_v = (rng.standard_normal((4, 4)) for _ in range(3))
    x_t = rng.standard_normal(4)
    x_b = rng.standard_normal((5, 4))
    perm = make_rng(4).permutation(5)
    o1, _ = asta_forward(w_q, w_k, w_v, cfg, x_t, x_b, np.ones(5))
    o2, _ = asta_forward(w_q, w_k, w_v, cfg, x_t, x_b[perm], np.ones(5))
    assert np.max(np.abs(o1 - o2)) < 1e-12


def test_relu_sparsity_fraction():
    # i.i.d. standard-normal Q and K give sign-symmetric scores, so about
    # half the weights are exactly zero.
    rng = make_rng(7)
    d_a, s, trials = 16, 64, 1000
    zeros = 0
    for _ in range(trials):
        q = rng.standard_normal((1, d_a))
        k = rng.standard_normal((1, s, d_a))
        scores = np.einsum("na,nsa->ns", q, k) / np.sqrt(d_a)
        w = attention_weights(scores, np.ones((1, s)), "relu")
        zeros += int((w == 0).sum())
    frac = zeros / (trials * s)
    assert 0.2 <= frac <= 0.8


def test_backward_zero_upstream():
    cfg = cfg_for(3, 3)
    rng = make_rng(5)
    w_q, w_k, w_v = (rng.standard_normal((3, 3)) for _ in range(3))
    _, trace = asta_forward(w_q, w_k, w_v, cfg, rng.standard_normal(3),
                            rng.standard_normal((4, 3)), np.ones(4))
    *outs, d_x_b = asta_backward(w_q, w_k, w_v, cfg, trace, np.zeros(3))
    for g in (*outs, slot_rows(d_x_b)):
        assert np.array_equal(g, np.zeros_like(g))


def test_backward_residual_only_when_weights_dead():
    cfg = cfg_for(2, 2)
    w = np.eye(2)
    x_t = np.array([1.0, 1.0])
    x_b = -np.abs(make_rng(6).standard_normal((3, 2))) - 1.0
    up = np.array([0.3, -0.7])
    _, trace = asta_forward(w, w, w, cfg, x_t, x_b, np.ones(3))
    assert np.array_equal(trace.weights, np.zeros((1, 3)))
    d_w_q, d_w_k, d_w_v, d_x_t, d_x_b = asta_backward(w, w, w, cfg, trace, up)
    assert np.array_equal(d_w_v, np.zeros((2, 2)))
    assert np.array_equal(d_x_t, up)


def finite_diff_attention(kind, seed):
    """Max relative FD error across every parameter and input of a random instance."""
    d, s = 2, 3
    cfg = cfg_for(d, d, kind=kind)
    rng = make_rng(seed)
    w_q, w_k, w_v = (rng.standard_normal((d, d)) for _ in range(3))
    x_t = rng.standard_normal(d)
    x_b = rng.standard_normal((s, d))
    mask = np.array([1.0, 1.0, 0.0])
    r = rng.standard_normal(d)  # random linear functional makes the loss scalar

    def loss(wq, wk, wv, xt, xb):
        o, _ = asta_forward(wq, wk, wv, cfg, xt, xb, mask)
        return float(r @ o)

    _, trace = asta_forward(w_q, w_k, w_v, cfg, x_t, x_b, mask)
    *grads, d_x_b = asta_backward(w_q, w_k, w_v, cfg, trace, r)
    grads.append(slot_rows(d_x_b))
    params = [w_q, w_k, w_v, x_t, x_b]
    worst = 0.0
    h = 1e-6
    for p_idx, (param, grad) in enumerate(zip(params, grads)):
        if grad is None:   # kind mean has no w_q or w_k, and no gradient for them
            assert kind == "mean" and p_idx < 2
            continue
        flat = param.ravel()
        for i in range(flat.size):
            args = [w_q.copy(), w_k.copy(), w_v.copy(), x_t.copy(), x_b.copy()]
            args[p_idx].ravel()[i] = flat[i] + h
            f_plus = loss(*args)
            args[p_idx].ravel()[i] = flat[i] - h
            f_minus = loss(*args)
            numeric = (f_plus - f_minus) / (2 * h)
            a = grad.ravel()[i]
            scale = max(abs(a), abs(numeric), 1e-6)
            worst = max(worst, abs(a - numeric) / scale)
    return worst


@pytest.mark.parametrize("kind", ATTN_KINDS)
def test_backward_matches_finite_differences(kind):
    for seed in range(5):
        assert finite_diff_attention(kind, 20 + seed) < 1e-4


def mean_cfg(d):
    return AttentionConfig(kind="mean", d_t=d)


def test_mean_pool_single_row():
    rng = make_rng(10)
    w_q, w_k, w_v = (rng.standard_normal((3, 3)) for _ in range(3))
    x_t = rng.standard_normal(3)
    row = rng.standard_normal(3)
    x_b = np.stack([row, np.zeros(3)])
    o, trace = asta_forward(w_q, w_k, w_v, mean_cfg(3), x_t, x_b, np.array([1.0, 0.0]))
    assert np.allclose(o, w_v @ row + x_t)
    assert trace.q is None and trace.qk is None and trace.scores is None
    assert np.array_equal(trace.weights, np.array([[1.0, 0.0]]))


def test_mean_pool_idempotent_on_duplicates():
    rng = make_rng(11)
    w_q, w_k, w_v = (rng.standard_normal((3, 3)) for _ in range(3))
    x_t = rng.standard_normal(3)
    row = rng.standard_normal(3)
    one, _ = asta_forward(w_q, w_k, w_v, mean_cfg(3), x_t, row[None, :], np.ones(1))
    two, _ = asta_forward(w_q, w_k, w_v, mean_cfg(3), x_t, np.stack([row, row]), np.ones(2))
    assert np.allclose(one, two)


def test_mean_pool_empty_history():
    rng = make_rng(12)
    w_q, w_k, w_v = (rng.standard_normal((3, 3)) for _ in range(3))
    x_t = rng.standard_normal(3)
    o, trace = asta_forward(w_q, w_k, w_v, mean_cfg(3), x_t, rng.standard_normal((2, 3)),
                            np.zeros(2))
    assert np.array_equal(o, x_t)
    assert np.array_equal(trace.weights, np.zeros((1, 2)))


def test_mean_pool_backward_finite_differences():
    rng = make_rng(13)
    d, s = 3, 4
    cfg = mean_cfg(d)
    w_q, w_k, w_v = (rng.standard_normal((d, d)) for _ in range(3))
    x_t = rng.standard_normal(d)
    x_b = rng.standard_normal((s, d))
    mask = np.array([1.0, 1.0, 1.0, 0.0])
    r = rng.standard_normal(d)
    _, trace = asta_forward(w_q, w_k, w_v, cfg, x_t, x_b, mask)
    d_w_q, d_w_k, d_w_v, d_x_t, d_x_b = asta_backward(w_q, w_k, w_v, cfg, trace, r)
    assert d_w_q is None and d_w_k is None
    h = 1e-6
    for param, grad in ((w_v, d_w_v), (x_t, d_x_t), (x_b, slot_rows(d_x_b))):
        flat = param.ravel()
        for i in range(flat.size):
            old = flat[i]
            flat[i] = old + h
            f_plus = float(r @ asta_forward(w_q, w_k, w_v, cfg, x_t, x_b, mask)[0])
            flat[i] = old - h
            f_minus = float(r @ asta_forward(w_q, w_k, w_v, cfg, x_t, x_b, mask)[0])
            flat[i] = old
            numeric = (f_plus - f_minus) / (2 * h)
            assert abs(grad.ravel()[i] - numeric) < 1e-6


def reference_mean_pool_forward(w_v, x_t, x_b, mask):
    """The separate mean-pooling forward that kind mean replaced, kept as its oracle."""
    single = x_t.ndim == 1
    if single:
        x_t, x_b, mask = x_t[None], x_b[None], mask[None]
    counts = mask.sum(axis=1)
    inv_len = np.where(counts > 0, 1.0 / np.where(counts > 0, counts, 1.0), 0.0)
    share = mask * inv_len[:, None]
    mean = (share[:, None, :] @ x_b)[:, 0, :]
    o = mean @ w_v.T + x_t
    return (o[0] if single else o), (share, mean)


def reference_mean_pool_backward(w_v, trace, d_o, ids=None, vocab=0, frozen=0):
    """(d_w_v, d_x_t, d_x_b) of reference_mean_pool_forward, d_x_b over
    columns frozen: only: per slot, or with ids summed per table row."""
    share, mean = trace
    single = d_o.ndim == 1
    if single:
        d_o = d_o[None]
    d_x_t = d_o.copy()
    d_w_v = d_o.T @ mean
    d_mean = d_o @ w_v
    if ids is None:
        d_x_b = share[:, :, None] * d_mean[:, None, frozen:]
        d_x_b = d_x_b[0] if single else d_x_b
    else:
        d_x_b = segment_sum(ids.reshape(share.shape), vocab, (d_mean[:, frozen:], share))
    return d_w_v, (d_x_t[0] if single else d_x_t), d_x_b


@pytest.mark.parametrize("frozen", [0, 1, 5])
@pytest.mark.parametrize("single", [False, True])
@pytest.mark.parametrize("with_ids", [False, True])
def test_mean_kind_matches_mean_pool_bit_for_bit(with_ids, single, frozen):
    # with_ids compares the slot gradient once the embedding scatter has
    # summed it per table row, over the id columns of a frozen-wide store.
    d, s, vocab = 6, 5, 9
    cfg = mean_cfg(d)
    rng = make_rng(62)
    w_q, w_k, w_v = (rng.standard_normal((d, d)) for _ in range(3))
    table = rng.standard_normal((vocab, d))
    # Repeated ids, a padded history, an all-masked row and a full one.
    ids = np.array([[3, 3, 1, 0, 0], [0, 0, 0, 0, 0], [2, 5, 3, 3, 5], [6, 8, 7, 0, 0]])
    mask = np.array([[1, 1, 1, 0, 0], [0, 0, 0, 0, 0], [1, 1, 1, 1, 1], [1, 1, 1, 0, 0]],
                    dtype=float)
    x_t = rng.standard_normal((len(ids), d))
    d_o = rng.standard_normal((len(ids), d))
    if single:
        ids, mask, x_t, d_o = ids[2], mask[2], x_t[2], d_o[2]
    x_b = table[ids]

    o_ref, trace_ref = reference_mean_pool_forward(w_v, x_t, x_b, mask)
    o, trace = asta_forward(w_q, w_k, w_v, cfg, x_t, x_b, mask)
    assert o.tobytes() == o_ref.tobytes()
    d_w_q, d_w_k, *got, d_x_b = asta_backward(w_q, w_k, w_v, cfg, trace, d_o)
    if with_ids:
        batched = [(rows.reshape(-1, d), w.reshape(-1, s)) for rows, w in d_x_b]
        got.append(id_table_grad(vocab, d - frozen, ids.reshape(-1, s), batched))
        ref = reference_mean_pool_backward(w_v, trace_ref, d_o, ids, vocab, frozen)
    else:
        got.append(slot_rows(d_x_b)[..., frozen:])
        ref = reference_mean_pool_backward(w_v, trace_ref, d_o, frozen=frozen)
    assert d_w_q is None and d_w_k is None
    for g, r in zip(got, ref):
        assert g.shape == r.shape and g.tobytes() == r.tobytes()


def test_shape_errors():
    cfg = cfg_for(3, 3)
    w = np.eye(3)
    with pytest.raises(ShapeError):
        asta_forward(w, w, w, cfg, np.zeros(2), np.zeros((4, 3)), np.ones(4))
    with pytest.raises(ShapeError):
        asta_forward(np.eye(2), w, w, cfg, np.zeros(3), np.zeros((4, 3)), np.ones(4))


def per_slot_reference(params, hp, store, batch, masks):
    """Loss and attention/embedding gradients from per-slot behavior rows.

    Gathers one row per sequence slot with lookup_sequence, pools them,
    and scatters the slot gradients into the id table with np.add.at.
    """
    from conftest import lookup_sequence
    from qin.metrics import bce_backward, bce_logit_loss, head_forward
    from qin.model import attention_config, qnn_config
    from qin.qnn import assemble_x1, qnn_backward, qnn_forward

    x_t = np.concatenate([store.data[batch.target_ids],
                          params.id_embedding[batch.target_ids]], axis=1)
    x_b = lookup_sequence(store, params.id_embedding, batch.seq_ids, batch.mask)
    cfg = attention_config(hp)
    o, pool = asta_forward(params.w_q, params.w_k, params.w_v, cfg, x_t, x_b, batch.mask)
    x_last, inter = qnn_forward(params.qnn_w, params.prelu, assemble_x1(x_t, o, hp.qnn_dim),
                                qnn_config(hp), masks)
    logits = head_forward(params.head_w, params.head_b, x_last)
    d_x_last = np.multiply.outer(bce_backward(logits, batch.labels), params.head_w)
    _, _, d_x1 = qnn_backward(params.qnn_w, params.prelu, qnn_config(hp), inter, d_x_last)
    grads = {}
    grads["w_q"], grads["w_k"], grads["w_v"], d_x_t, d_x_b = asta_backward(
        params.w_q, params.w_k, params.w_v, cfg, pool, d_x1[:, hp.d_t:])
    d_x_t = d_x_t + d_x1[:, :hp.d_t]
    d_x_b = slot_rows(d_x_b)
    d_id = np.zeros_like(params.id_embedding)
    np.add.at(d_id, batch.target_ids, d_x_t[:, hp.d_frozen:])
    live = batch.mask > 0
    np.add.at(d_id, batch.seq_ids[live], d_x_b[live][:, hp.d_frozen:])
    grads["id_embedding"] = d_id
    return bce_logit_loss(logits, batch.labels), logits, grads


PER_SLOT_CASES = [(kind, drop) for kind in ATTN_KINDS for drop in (False, True)]


@pytest.mark.parametrize("kind,dropout", PER_SLOT_CASES,
                         ids=[attention_case_id(*case) for case in PER_SLOT_CASES])
def test_per_item_path_matches_per_slot_reference(kind, dropout):
    from qin.config import HyperParams
    from qin.dataio import build_batch
    from qin.embedding import EmbeddingStore, Sample
    from qin.linalg import spawn_rng
    from qin.model import draw_dropout_masks, loss_and_grads, model_forward
    from qin.params import init_params

    hp = HyperParams(d_t=8, d_b=8, d_a=8, seq_len=6, vocab=9, d_frozen=3,
                     attn_kind=kind, dropout_p=0.3 if dropout else 0.0)
    rng = make_rng(41)
    params = init_params(hp, rng)
    params.id_embedding = rng.standard_normal(params.id_embedding.shape) * 0.5
    store = EmbeddingStore(rng.standard_normal((hp.vocab, hp.d_frozen)))
    # Ids repeat within a history, across histories and between target and
    # history; histories are padded, one is empty and one is full.
    split = split_of([Sample(target_id=2, seq_ids=[4, 4, 1], label=1),
                      Sample(target_id=4, seq_ids=[], label=0),
                      Sample(target_id=2, seq_ids=[2, 7, 4, 4, 7, 1], label=0),
                      Sample(target_id=8, seq_ids=[1], label=1),
                      Sample(target_id=0, seq_ids=[8, 8, 3, 0], label=1)])
    batch = build_batch(split, hp.seq_len)

    masks = draw_dropout_masks(hp, batch.size, spawn_rng(5, 2, 0))
    assert (masks is None) != dropout
    loss, grads = loss_and_grads(params, hp, store, batch, masks)
    logits = model_forward(params, hp, store, batch, masks).logits
    ref_loss, ref_logits, ref_grads = per_slot_reference(params, hp, store, batch, masks)

    def close(a, b):
        return np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(b))

    assert abs(loss - ref_loss) <= 1e-12 * abs(ref_loss)
    assert close(logits, ref_logits)
    named = grads.views
    for name, ref in ref_grads.items():
        if kind == "mean" and name in ("w_q", "w_k"):   # fixed weights: no w_q or w_k
            assert name not in named and ref is None, name
            continue
        assert np.max(np.abs(ref)) > 0, name
        assert close(named[name], ref), name


def direct_attention(w_q, w_k, w_v, cfg, x_t, x_b, mask, d_o):
    """Output and gradients of batched attention from explicit per-slot
    keys and values, every contraction an einsum; d_x_b is per slot.
    Shares no code with asta_forward/asta_backward."""
    q = x_t @ w_q.T
    k = x_b @ w_k.T
    v = x_b @ w_v.T
    scores = np.einsum("na,nsa->ns", q, k) * cfg.scale
    if cfg.kind == "softmax":
        ex = np.where(mask > 0, np.exp(scores - scores.max(axis=1, keepdims=True)), 0.0)
        denom = ex.sum(axis=1, keepdims=True)
        p = np.where(denom > 0, ex / np.where(denom > 0, denom, 1.0), 0.0)
    elif cfg.kind == "mean":
        counts = mask.sum(axis=1, keepdims=True)
        p, dp = np.where(counts > 0, mask / np.maximum(counts, 1.0), 0.0), 0.0 * mask
    else:
        p, dp = np.maximum(scores, 0.0) * mask, (scores > 0) * mask
    o = np.einsum("ns,nsa->na", p, v) + x_t

    d_w = np.einsum("nsa,na->ns", v, d_o)
    if cfg.kind == "softmax":
        d_scores = p * (d_w - np.einsum("ns,ns->n", d_w, p)[:, None])
    else:
        d_scores = d_w * dp
    d_scores = d_scores * cfg.scale
    d_q = np.einsum("ns,nsa->na", d_scores, k)
    d_k = np.einsum("ns,na->nsa", d_scores, q)
    d_v = np.einsum("ns,na->nsa", p, d_o)
    d_w_q = np.einsum("na,nt->at", d_q, x_t)
    d_w_k = np.einsum("nsa,nsb->ab", d_k, x_b)
    d_w_v = np.einsum("nsa,nsb->ab", d_v, x_b)
    d_x_t = d_o + d_q @ w_q
    d_x_b = np.einsum("nsa,ab->nsb", d_k, w_k) + np.einsum("nsa,ab->nsb", d_v, w_v)
    return o, (d_w_q, d_w_k, d_w_v, d_x_t, d_x_b)


@pytest.mark.parametrize("zero_target", [False, True])
@pytest.mark.parametrize("kind", ATTN_KINDS)
def test_attention_matches_direct_key_value_algebra(kind, zero_target):
    d_a, d_b, s, vocab = 4, 4, 5, 7
    cfg = cfg_for(d_a, d_b, kind=kind)
    rng = make_rng(61)
    w_q = rng.standard_normal((d_a, d_a))
    w_k, w_v = rng.standard_normal((d_a, d_b)), rng.standard_normal((d_a, d_b))
    table = rng.standard_normal((vocab, d_b))
    # Repeated ids within and across histories, an empty history and a
    # full one; padded slots point at row 0 as the model's batches do.
    ids = np.array([[3, 3, 1, 0, 0], [0, 0, 0, 0, 0], [2, 5, 3, 3, 5], [6, 1, 0, 0, 0]])
    mask = np.array([[1, 1, 1, 0, 0], [0, 0, 0, 0, 0], [1, 1, 1, 1, 1], [1, 1, 0, 0, 0]],
                    dtype=float)
    n = len(ids)
    x_t = rng.standard_normal((n, d_a))
    if zero_target:   # every slot of the full history scores exactly 0, ReLU's kink
        x_t[2] = 0.0
    d_o = rng.standard_normal((n, d_a))
    x_b = table[ids]

    o_ref, (d_w_q, d_w_k, d_w_v, d_x_t, d_x_b) = direct_attention(
        w_q, w_k, w_v, cfg, x_t, x_b, mask, d_o)
    d_table = np.zeros_like(table)
    np.add.at(d_table, ids, d_x_b)

    def close(a, b):
        assert a.shape == b.shape
        assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(b))

    def check(x_t_in, ids_in, mask_in, d_o_in, row, ref_x_b, ref_table):
        o, trace = asta_forward(w_q, w_k, w_v, cfg, x_t_in, table[ids_in], mask_in)
        close(o, o_ref[row])
        *got, d_slots = asta_backward(w_q, w_k, w_v, cfg, trace, d_o_in)
        if zero_target and kind == "relu":   # no score gradient passes at the kink
            at_kink = 0 if x_t_in.ndim == 1 else 2
            assert not trace.scores.reshape(-1, s)[at_kink].any()
            assert not d_slots[0][1].reshape(-1, s)[at_kink].any()
        refs = [d_w_q, d_w_k, d_w_v, d_x_t[row], ref_x_b, ref_table]
        # The slot gradient per slot, and summed into the table by the
        # embedding scatter (as a batch of one for the single sample).
        batched = [(rows.reshape(-1, d_a), w.reshape(-1, s)) for rows, w in d_slots]
        got += [slot_rows(d_slots), id_table_grad(vocab, d_b, ids_in.reshape(-1, s), batched)]
        if kind == "mean":   # no w_q or w_k, and no gradient for them
            assert got[:2] == [None, None]
            got, refs = got[2:], refs[2:]
        for g, ref in zip(got, refs):
            close(g, ref)

    check(x_t, ids, mask, d_o, slice(None), d_x_b, d_table)
    # The single-sample form, on the full history.
    o_ref, (d_w_q, d_w_k, d_w_v, d_x_t, d_x_b) = direct_attention(
        w_q, w_k, w_v, cfg, x_t[2:3], x_b[2:3], mask[2:3], d_o[2:3])
    d_table = np.zeros_like(table)
    np.add.at(d_table, ids[2], d_x_b[0])
    check(x_t[2], ids[2], mask[2], d_o[2], 0, d_x_b[0], d_table)
