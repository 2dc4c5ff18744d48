import numpy as np
import pytest

from conftest import lookup_sequence, slot_rows
from qin.asta import AttentionConfig, asta_backward, asta_forward
from qin.config import ATTN_KINDS, HyperParams
from qin.embedding import (Batch, EmbeddingStore, embedding_grad_accumulate, load_embeddings,
                           lookup_items, save_embeddings)
from qin.errors import (BadMagicError, ConfigError, DataError, QinError, ShapeError,
                        TruncatedFileError)
from qin.linalg import make_rng, segment_sum
from qin.params import ModelParams, init_params, zero_gradients


def make_store(count=10, dim=4, seed=0):
    data = make_rng(seed).standard_normal((count, dim)).astype(np.float32).astype(np.float64)
    return EmbeddingStore(data=data)


def test_embedding_file_roundtrip_bit_exact(tmp_path):
    store = make_store()
    path = tmp_path / "emb.qemb"
    save_embeddings(store.data, str(path))
    loaded = load_embeddings(str(path))
    assert np.array_equal(loaded.data, store.data)


def test_embedding_file_bad_magic(tmp_path):
    path = tmp_path / "bad.qemb"
    path.write_bytes(b"NOTEMB1" + b"\x00" * 16)
    with pytest.raises(BadMagicError):
        load_embeddings(str(path))


def test_embedding_file_truncated(tmp_path):
    store = make_store()
    path = tmp_path / "emb.qemb"
    save_embeddings(store.data, str(path))
    data = path.read_bytes()
    cut = tmp_path / "cut.qemb"
    cut.write_bytes(data[:-8])
    with pytest.raises(TruncatedFileError):
        load_embeddings(str(cut))


def small_embedding_file(tmp_path):
    """A 5 x 3 QINEMB1 file: 7 magic, 8 header and 60 payload bytes."""
    path = tmp_path / "small.qemb"
    save_embeddings(make_store(count=5, dim=3).data, str(path))
    return path.read_bytes()


def test_embedding_surplus_bytes_rejected(tmp_path):
    data = small_embedding_file(tmp_path)
    path = tmp_path / "long.qemb"
    for extra in (1, 4, 40):
        path.write_bytes(data + b"\x00" * extra)
        with pytest.raises(DataError, match=f"{extra} surplus bytes"):
            load_embeddings(str(path))


def test_embedding_huge_declared_count_is_truncation(tmp_path):
    data = small_embedding_file(tmp_path)
    path = tmp_path / "huge.qemb"
    path.write_bytes(data[:7] + (2**32 - 1).to_bytes(4, "little") + data[11:])
    with pytest.raises(TruncatedFileError, match="needs"):
        load_embeddings(str(path))


# float32 bit patterns: quiet NaN, signalling NaN (its widening cast sets
# the invalid flag), +inf, -inf.
@pytest.mark.parametrize("bits", [0x7FC00000, 0x7F800001, 0x7F800000, 0xFF800000])
def test_embedding_non_finite_payload_rejected(tmp_path, bits):
    data = bytearray(small_embedding_file(tmp_path))
    at = 7 + 8 + 4 * 7   # the payload's eighth value
    data[at:at + 4] = bits.to_bytes(4, "little")
    path = tmp_path / "nonfinite.qemb"
    path.write_bytes(bytes(data))
    with pytest.raises(DataError, match="non-finite"):
        load_embeddings(str(path))


def test_every_bit_flip_loads_or_raises_qin_error(tmp_path):
    # Tier-1 turns warnings into errors, so a flip that reaches a raw numpy
    # warning or exception fails here.
    data = small_embedding_file(tmp_path)
    path = tmp_path / "flipped.qemb"
    for byte in range(len(data)):
        for bit in range(8):
            flipped = bytearray(data)
            flipped[byte] ^= 1 << bit
            path.write_bytes(bytes(flipped))
            try:
                store = load_embeddings(str(path))
            except QinError:
                continue
            assert store.data.shape == (5, 3)
            assert np.all(np.isfinite(store.data))


def test_every_truncation_raises_qin_error(tmp_path):
    data = small_embedding_file(tmp_path)
    path = tmp_path / "cut.qemb"
    for n in range(len(data)):
        path.write_bytes(data[:n])
        with pytest.raises(QinError):
            load_embeddings(str(path))


def id_batch(target_ids, seq_ids):
    """A Batch of these ids, every slot live; lookup_items reads only the ids."""
    target_ids, seq_ids = np.asarray(target_ids), np.asarray(seq_ids)
    return Batch(target_ids=target_ids, seq_ids=seq_ids,
                 mask=np.ones(seq_ids.shape, dtype=np.float32),
                 labels=np.zeros(target_ids.shape, dtype=np.float32))


def test_lookup_target_concat_layout():
    store = make_store()
    table = make_rng(1).standard_normal((10, 3))
    x_t, x_b = lookup_items(store, table, id_batch([2, 5], [[5, 2, 2], [0, 9, 5]]))
    assert x_t.shape == (2, 7) and x_b.shape == (2, 3, 7)
    assert np.array_equal(x_t[0, :4], store.data[2])
    assert np.array_equal(x_t[0, 4:], table[2])
    for r, j, item in ((0, 0, 5), (0, 2, 2), (1, 0, 0), (1, 1, 9)):
        assert np.array_equal(x_b[r, j], np.concatenate([store.data[item], table[item]]))
    # A target and a history slot of the same item get the same bits.
    assert x_b[1, 2].tobytes() == x_t[1].tobytes()


def test_lookup_zero_rows_give_zero_vector():
    store = EmbeddingStore(data=np.zeros((4, 3)))
    table = np.zeros((4, 2))
    x_t, x_b = lookup_items(store, table, id_batch([1], [[3, 0]]))
    assert np.array_equal(x_t, np.zeros((1, 5)))
    assert np.array_equal(x_b, np.zeros((1, 2, 5)))


def test_lookup_purity():
    store = make_store()
    table = make_rng(2).standard_normal((10, 3))
    before = (store.data.copy(), table.copy())
    a = lookup_items(store, table, id_batch([7], [[7, 1]]))
    b = lookup_items(store, table, id_batch([7], [[7, 1]]))
    assert all(np.array_equal(x, y) for x, y in zip(a, b))
    assert np.array_equal(store.data, before[0]) and np.array_equal(table, before[1])


def test_lookup_out_of_range():
    store = make_store(count=5)
    table = np.zeros((5, 2))
    with pytest.raises(DataError, match="out of range"):
        lookup_items(store, table, id_batch([5], [[0]]))
    with pytest.raises(DataError, match="out of range"):
        lookup_sequence(store, table, np.array([[99]]), np.ones((1, 1)))


@pytest.mark.parametrize("bad", [5, -1])
def test_lookup_items_out_of_range(bad):
    from qin.model import loss_and_grads

    hp = HyperParams(d_t=6, d_b=6, d_a=6, seq_len=2, vocab=5, d_frozen=4)
    store = make_store(count=5)
    params = init_params(hp, make_rng(0))
    for target_ids, seq_ids, what in (([bad], [[0, 1]], "target"),
                                      ([1], [[0, bad]], "sequence")):
        batch = id_batch(target_ids, seq_ids)
        with pytest.raises(DataError, match=f"{what} id {bad} out of range"):
            lookup_items(store, params.id_embedding, batch)
        with pytest.raises(DataError, match=f"{what} id {bad} out of range"):
            loss_and_grads(params, hp, store, batch)


def test_lookup_store_and_id_table_rows_must_match():
    store = make_store(count=5)
    for rows in (4, 6):
        with pytest.raises(ShapeError, match=f"5 items, id table {rows}"):
            lookup_items(store, np.zeros((rows, 2)), id_batch([0], [[1]]))


def test_store_dim_config_error():
    # d_t smaller than the frozen dim leaves no room for the id table.
    with pytest.raises(ConfigError):
        HyperParams(d_t=4, d_b=4, d_a=4, vocab=10, d_frozen=4)


def test_sequence_padding_zeroed():
    store = make_store()
    table = make_rng(3).standard_normal((10, 3))
    seq_ids = np.array([[1, 2, 0, 0]])
    mask = np.array([[1.0, 1.0, 0.0, 0.0]])
    x_b = lookup_sequence(store, table, seq_ids, mask)
    assert np.array_equal(x_b[0, 2], np.zeros(7))
    assert np.array_equal(x_b[0, 3], np.zeros(7))
    assert np.array_equal(x_b[0, 0, :4], store.data[1])


def test_sequence_empty_history():
    store = make_store()
    table = np.zeros((10, 3))
    x_b = lookup_sequence(store, table, np.zeros((1, 4), dtype=np.int64), np.zeros((1, 4)))
    assert np.array_equal(x_b, np.zeros((1, 4, 7)))


def test_sequence_positionwise_permutation():
    store = make_store()
    table = make_rng(4).standard_normal((10, 3))
    mask = np.ones((1, 3))
    a = lookup_sequence(store, table, np.array([[1, 2, 3]]), mask)
    b = lookup_sequence(store, table, np.array([[2, 1, 3]]), mask)
    assert np.array_equal(a[0, 0], b[0, 1])
    assert np.array_equal(a[0, 1], b[0, 0])
    assert np.array_equal(a[0, 2], b[0, 2])


def grads_for(vocab=10, d_id=3):
    hp = HyperParams(d_t=6, d_b=6, d_a=6, seq_len=4, vocab=vocab, d_frozen=6 - d_id)
    return zero_gradients(init_params(hp, make_rng(0)))


def test_scatter_add_zero_upstream_noop():
    grads = grads_for()
    before = grads.id_embedding.copy()
    embedding_grad_accumulate(grads, id_batch([1], [[2, 3]]), np.zeros((1, 6)),
                              [(np.zeros((1, 6)), np.ones((1, 2)))])
    assert np.array_equal(grads.id_embedding, before)


def test_scatter_add_repeated_id_sums():
    grads = grads_for()
    d_x_t = np.stack([np.arange(6.0), np.arange(6.0) * 10])
    # Item 4 again fills three history slots: weights 1, 2 and 0 of a 50 row.
    d_x_b = [(np.full((2, 6), 50.0), np.array([[1.0, 0.0], [2.0, 0.0]]))]
    embedding_grad_accumulate(grads, id_batch([4, 4], [[4, 0], [4, 4]]), d_x_t, d_x_b)
    # id part is the last 3 coordinates of each target row, plus the slot rows
    assert np.array_equal(grads.id_embedding[4], np.array([3.0, 4.0, 5.0]) * 11 + 150.0)
    assert np.count_nonzero(np.delete(grads.id_embedding, 4, axis=0)) == 0


def test_scatter_add_drops_frozen_part():
    grads = grads_for()
    d_x_t = np.ones((1, 6))
    d_x_b = [(np.array([[9.0, 9.0, 9.0, 1.0, 2.0, 3.0]]), np.ones((1, 1)))]
    embedding_grad_accumulate(grads, id_batch([2], [[5]]), d_x_t, d_x_b)
    assert np.array_equal(grads.id_embedding[2], np.ones(3))
    assert np.array_equal(grads.id_embedding[5], np.array([1.0, 2.0, 3.0]))
    # no slot for the frozen store exists at all in a gradient
    assert not hasattr(grads, "store")


def test_scatter_add_ignores_padded_positions():
    # Padded slots name items 5 and 6 or item 0: either way they add exactly
    # zero, so the id-table gradient is the same bits and items 5 and 6,
    # named by padding only, get +0.0.
    rng = make_rng(9)
    store = EmbeddingStore(rng.standard_normal((10, 3)))
    id_table, d_o = rng.standard_normal((10, 3)), rng.standard_normal((1, 6))
    w = [np.eye(6), np.eye(6), rng.standard_normal((6, 6))]
    mask = np.array([[1.0, 1.0, 0.0, 0.0]])
    for kind in ATTN_KINDS:
        got = []
        cfg = AttentionConfig(kind=kind, d_t=6)
        for seq_ids in ([[3, 1, 5, 6]], [[3, 1, 0, 0]]):
            grads = grads_for()
            batch = id_batch([2], seq_ids)
            _, x_b = lookup_items(store, id_table, batch)
            x_t = x_b[:, 0] + x_b[:, 1]   # both live slots score above zero
            _, trace = asta_forward(*w, cfg, x_t, x_b, mask)
            d_x_t, d_x_b = asta_backward(*w, cfg, trace, d_o)[3:]
            embedding_grad_accumulate(grads, batch, d_x_t, d_x_b)
            assert np.count_nonzero(grads.id_embedding[[1, 2, 3]], axis=1).all(), kind
            got.append(grads.id_embedding.tobytes())
        assert got[0] == got[1], kind
        assert np.frombuffer(got[0])[15:21].tobytes() == np.zeros(6).tobytes(), kind


@pytest.mark.parametrize("kind", ATTN_KINDS)
def test_scatter_matches_add_at_over_expanded_slot_rows(kind):
    # Oracle: np.add.at of the target rows, then of every slot's written-out
    # row, over the id columns. Ids repeat within and across histories and
    # between targets and histories; one history is all masked.
    rng = make_rng(10)
    d, d_id, vocab = 6, 4, 7
    store = EmbeddingStore(rng.standard_normal((vocab, d - d_id)))
    id_table = rng.standard_normal((vocab, d_id))
    w = [rng.standard_normal((d, d)) for _ in range(3)]
    batch = id_batch([2, 3, 2, 5], [[3, 3, 1, 0], [0, 0, 0, 0], [2, 5, 3, 3], [6, 1, 6, 0]])
    batch.mask = np.array([[1, 1, 1, 0], [0, 0, 0, 0], [1, 1, 1, 1], [1, 1, 1, 0]],
                          dtype=np.float32)
    cfg = AttentionConfig(kind=kind, d_t=d, dropout_p=0.25)
    drop = rng.random(batch.mask.shape) >= cfg.dropout_p
    x_t, x_b = lookup_items(store, id_table, batch)
    _, trace = asta_forward(*w, cfg, x_t, x_b, batch.mask, drop_mask=drop)
    d_x_t, d_x_b = asta_backward(*w, cfg, trace, rng.standard_normal((4, d)))[3:]
    grads = grads_for(vocab, d_id)
    embedding_grad_accumulate(grads, batch, d_x_t, d_x_b)

    expected = np.zeros((vocab, d_id))
    np.add.at(expected, batch.target_ids, d_x_t[:, -d_id:])
    np.add.at(expected, batch.seq_ids, slot_rows(d_x_b)[..., -d_id:])
    assert np.count_nonzero(slot_rows(d_x_b)[batch.mask > 0]) > 0
    assert np.max(np.abs(grads.id_embedding - expected)) <= 1e-12 * np.max(np.abs(expected))


def dense_scatter(vocab, d_id, batch, d_x_t, d_x_b):
    """Reference: the id-table gradient from one two-term segment sum over every slot."""
    frozen = d_x_t.shape[1] - d_id
    out = np.zeros((vocab, d_id), dtype=d_x_t.dtype)
    out += (segment_sum(batch.target_ids, vocab, (d_x_t[:, frozen:], None))
            + segment_sum(batch.seq_ids, vocab, *((rows[:, frozen:], w) for rows, w in d_x_b)))
    return out


def ragged_case(kind, dtype=np.float64, dropout_p=0.0, lengths=(3, 0, 8, 1, 5, 6), seed=11):
    """An attention backward on a ragged batch whose ids repeat within and across rows.

    The default lengths leave 23 of the 48 slots unmasked, under the gate for every kind.
    """
    rng = make_rng(seed)
    d, d_id, vocab, s = 6, 4, 7, 8
    store = EmbeddingStore(rng.standard_normal((vocab, d - d_id)).astype(dtype))
    id_table = rng.standard_normal((vocab, d_id)).astype(dtype)
    w = [rng.standard_normal((d, d)).astype(dtype) for _ in range(3)]
    mask = (np.arange(s) < np.asarray(lengths)[:, None]).astype(np.float32)
    seq_ids = rng.integers(0, vocab, mask.shape) * (mask > 0)
    batch = Batch(target_ids=rng.integers(0, vocab, len(lengths)), seq_ids=seq_ids, mask=mask,
                  labels=np.zeros(len(lengths), dtype=np.float32))
    cfg = AttentionConfig(kind=kind, d_t=d, dropout_p=dropout_p)
    drop = rng.random(mask.shape) >= dropout_p if dropout_p else None
    x_t, x_b = lookup_items(store, id_table, batch)
    _, trace = asta_forward(*w, cfg, x_t, x_b, batch.mask, drop_mask=drop)
    d_o = rng.standard_normal((len(lengths), d)).astype(dtype)
    d_x_t, d_x_b = asta_backward(*w, cfg, trace, d_o)[3:]
    return vocab, d_id, batch, d_x_t, d_x_b


def spy_slot_ids(monkeypatch) -> list:
    """The ids each slot segment sum of embedding_grad_accumulate receives."""
    seen = []

    def spy(ids, count, *terms):
        if terms[0][1] is not None:   # the targets' one term has no weights
            seen.append(ids.copy())
        return segment_sum(ids, count, *terms)
    monkeypatch.setattr("qin.embedding.segment_sum", spy)
    return seen


def scatter(vocab, d_id, batch, d_x_t, d_x_b):
    grads = ModelParams({"id_embedding": (vocab, d_id)}, np.zeros(vocab * d_id, d_x_t.dtype))
    embedding_grad_accumulate(grads, batch, d_x_t, d_x_b)
    return grads.id_embedding


@pytest.mark.parametrize("dropout_p", [0.0, 0.25], ids=["no-dropout", "dropout"])
@pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["float32", "float64"])
@pytest.mark.parametrize("kind", ATTN_KINDS)
def test_scatter_equals_dense_two_term_reference_bit_for_bit(kind, dtype, dropout_p, monkeypatch):
    case = ragged_case(kind, dtype, dropout_p)
    seen = spy_slot_ids(monkeypatch)
    got = scatter(*case)
    assert got.dtype == dtype
    assert got.tobytes() == dense_scatter(*case).tobytes()
    assert np.count_nonzero(got) > 0
    assert [ids.ndim for ids in seen] == [1]   # the live entries only


@pytest.mark.parametrize("kind", ATTN_KINDS)
def test_scatter_of_an_all_padded_batch_keeps_only_the_target_sums(kind, monkeypatch):
    vocab, d_id, batch, d_x_t, d_x_b = ragged_case(kind, np.float32, lengths=(0, 0, 0))
    seen = spy_slot_ids(monkeypatch)
    got = scatter(vocab, d_id, batch, d_x_t, d_x_b)
    targets = segment_sum(batch.target_ids, vocab, (d_x_t[:, -d_id:], None))
    assert got.tobytes() == targets.tobytes() == dense_scatter(vocab, d_id, batch, d_x_t,
                                                               d_x_b).tobytes()
    assert [ids.size for ids in seen] == [0]


@pytest.mark.parametrize("kind", ["softmax", "mean"])
def test_scatter_of_an_all_live_batch_takes_the_dense_sum(kind, monkeypatch):
    case = ragged_case(kind, np.float32, lengths=(8,) * 6)
    assert all(np.all(w != 0) for _, w in case[4])
    seen = spy_slot_ids(monkeypatch)
    assert scatter(*case).tobytes() == dense_scatter(*case).tobytes()
    assert [ids.shape for ids in seen] == [case[2].seq_ids.shape]


@pytest.mark.parametrize("extra, compact", [(0, True), (1, False)], ids=["half", "half+1"])
def test_scatter_gate_sums_live_entries_at_exactly_half(extra, compact, monkeypatch):
    # Rows of 8 slots with 4 live each are exactly half live; one more live
    # entry tips the batch over the gate to the dense sum.
    rng = make_rng(12)
    vocab, d_id, n, s = 7, 4, 6, 8
    batch = id_batch(rng.integers(0, vocab, n), rng.integers(0, vocab, (n, s)))
    live = np.zeros((n, s), dtype=bool)
    live[:, ::2] = True
    live[0, 1] = bool(extra)
    d_x_t = rng.standard_normal((n, 6))
    some = live & (rng.random((n, s)) < 0.5)   # the first term is zero on some live entries
    d_x_b = [(rng.standard_normal((n, 6)), rng.standard_normal((n, s)) * some),
             (rng.standard_normal((n, 6)), rng.standard_normal((n, s)) * live)]
    seen = spy_slot_ids(monkeypatch)
    assert scatter(vocab, d_id, batch, d_x_t, d_x_b).tobytes() == dense_scatter(
        vocab, d_id, batch, d_x_t, d_x_b).tobytes()
    if compact:
        assert [ids.tolist() for ids in seen] == [batch.seq_ids[live].tolist()]
    else:
        assert [ids.shape for ids in seen] == [(n, s)]


def test_relu_slot_sum_receives_only_the_live_entries(monkeypatch):
    # ReLU attention leaves its scored-below-zero slots and the padding with
    # weight zero in both terms; only the other entries reach the slot sum.
    vocab, d_id, batch, d_x_t, d_x_b = ragged_case("relu", np.float32)
    live = np.logical_or(d_x_b[0][1] != 0, d_x_b[1][1] != 0)
    assert 0 < np.count_nonzero(live) < np.count_nonzero(batch.mask)
    seen = spy_slot_ids(monkeypatch)
    scatter(vocab, d_id, batch, d_x_t, d_x_b)
    assert [ids.tolist() for ids in seen] == [batch.seq_ids[live].tolist()]
