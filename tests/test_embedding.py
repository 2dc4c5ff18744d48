import numpy as np
import pytest

from conftest import lookup_sequence
from qin.asta import AttentionConfig, asta_backward, asta_forward
from qin.config import HyperParams
from qin.embedding import (EmbeddingStore, embedding_grad_accumulate, item_table,
                           load_embeddings, lookup_target, save_embeddings)
from qin.errors import BadMagicError, ConfigError, DataError, QinError, TruncatedFileError
from qin.linalg import make_rng
from qin.params import init_params, zero_gradients


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


def test_lookup_target_concat_layout():
    store = make_store()
    table = make_rng(1).standard_normal((10, 3))
    x_t = lookup_target(store, table, np.array([2, 5]))
    assert x_t.shape == (2, 7)
    assert np.array_equal(x_t[0, :4], store.data[2])
    assert np.array_equal(x_t[0, 4:], table[2])


def test_lookup_zero_rows_give_zero_vector():
    store = EmbeddingStore(data=np.zeros((4, 3)))
    table = np.zeros((4, 2))
    x_t = lookup_target(store, table, np.array([1]))
    assert np.array_equal(x_t, np.zeros((1, 5)))


def test_lookup_purity():
    store = make_store()
    table = make_rng(2).standard_normal((10, 3))
    a = lookup_target(store, table, np.array([7]))
    b = lookup_target(store, table, np.array([7]))
    assert np.array_equal(a, b)


def test_lookup_out_of_range():
    store = make_store(count=5)
    table = np.zeros((5, 2))
    with pytest.raises(DataError, match="out of range"):
        lookup_target(store, table, np.array([5]))
    with pytest.raises(DataError, match="out of range"):
        lookup_sequence(store, table, np.array([[99]]), np.ones((1, 1)))


@pytest.mark.parametrize("bad", [5, -1])
def test_item_table_out_of_range(bad):
    from qin.embedding import Batch
    from qin.model import loss_and_grads

    hp = HyperParams(d_t=6, d_b=6, d_a=6, seq_len=2, vocab=5, d_frozen=4)
    store = make_store(count=5)
    params = init_params(hp, make_rng(0))
    with pytest.raises(DataError, match="out of range"):
        item_table(store, params.id_embedding, np.array([[0, bad]]))
    batch = Batch(target_ids=np.array([1]), seq_ids=np.array([[0, bad]]),
                  mask=np.ones((1, 2)), labels=np.ones(1))
    with pytest.raises(DataError, match="out of range"):
        loss_and_grads(params, hp, store, batch)


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
    hp = HyperParams(d_t=6, d_b=6, d_a=6, seq_len=4, vocab=vocab, d_frozen=3)
    return zero_gradients(init_params(hp, make_rng(0)))


def test_scatter_add_zero_upstream_noop():
    grads = grads_for()
    before = grads.id_embedding.copy()
    embedding_grad_accumulate(grads, 3, np.array([1]), np.zeros((1, 6)), np.zeros((10, 3)))
    assert np.array_equal(grads.id_embedding, before)


def test_scatter_add_repeated_id_sums():
    grads = grads_for()
    d_x_t = np.stack([np.arange(6.0), np.arange(6.0) * 10])
    d_items = np.zeros((10, 3))
    d_items[4] = 100.0
    embedding_grad_accumulate(grads, 3, np.array([4, 4]), d_x_t, d_items)
    # id part is the last 3 coordinates of each target row, plus the item row
    assert np.array_equal(grads.id_embedding[4], np.array([3.0, 4.0, 5.0]) * 11 + 100.0)
    assert np.count_nonzero(np.delete(grads.id_embedding, 4, axis=0)) == 0


def test_scatter_add_drops_frozen_part():
    grads = grads_for()
    d_x_t = np.ones((1, 6))
    embedding_grad_accumulate(grads, 3, np.array([2]), d_x_t, np.zeros((10, 3)))
    assert np.array_equal(grads.id_embedding[2], np.ones(3))
    # no slot for the frozen store exists at all in a gradient
    assert not hasattr(grads, "store")


def test_scatter_add_ignores_padded_positions():
    # Padded slots name items 5 and 6 or item 0: either way they add exactly
    # zero, so the id-table gradient is the same bits and items 5 and 6,
    # named by padding only, get +0.0.
    rng = make_rng(9)
    table, d_o = rng.standard_normal((10, 6)), rng.standard_normal((1, 6))
    w = [np.eye(6), np.eye(6), rng.standard_normal((6, 6))]
    x_t = table[[3]] + table[[1]]   # both live slots score above zero
    mask = np.array([[1.0, 1.0, 0.0, 0.0]])
    for kind in ("relu", "softmax", "mean"):
        got = []
        cfg = AttentionConfig(kind=kind, d_t=6)
        for seq_ids in (np.array([[3, 1, 5, 6]]), np.array([[3, 1, 0, 0]])):
            grads = grads_for()
            _, trace = asta_forward(*w, cfg, x_t, table, mask, ids=seq_ids)
            d_x_t, d_items = asta_backward(*w, cfg, trace, d_o, frozen=3)[3:]
            embedding_grad_accumulate(grads, 3, np.array([2]), d_x_t, d_items)
            assert np.count_nonzero(grads.id_embedding[[1, 2, 3]], axis=1).all(), kind
            got.append(grads.id_embedding.tobytes())
        assert got[0] == got[1], kind
        assert np.frombuffer(got[0])[15:21].tobytes() == np.zeros(6).tobytes(), kind
