import math

import numpy as np
import pytest

from qin.config import HyperParams
from qin.errors import (BadMagicError, CheckpointError, ConfigError, ShapeError,
                        ShapeTableError, TruncatedFileError)
from qin.linalg import make_rng
from qin.params import (ModelParams, copy_params, expected_shapes, init_params,
                        load_checkpoint, params_equal, save_checkpoint,
                        zero_gradients)


def small_hp(**kw):
    base = dict(d_t=8, d_b=8, d_a=8, seq_len=4, depth=2, m=2, vocab=12, d_frozen=4)
    base.update(kw)
    return HyperParams(**base)


def test_init_determinism():
    hp = small_hp()
    a = init_params(hp, make_rng(5))
    b = init_params(hp, make_rng(5))
    assert params_equal(a, b)


def test_attention_dim_invariant_rejected():
    with pytest.raises(ConfigError):
        HyperParams(d_t=8, d_b=8, d_a=4, vocab=10, d_frozen=4)


def test_fan_in_scaling():
    # std for fan_in=100 should be (1/100)^0.5 = 0.1
    draws = make_rng(3).normal(0.0, (1.0 / 100) ** 0.5, 10_000)
    assert abs(draws.std() - 0.1) / 0.1 < 0.15


def test_init_values_follow_scheme():
    hp = small_hp()
    p = init_params(hp, make_rng(9))
    assert abs(p.id_embedding.std() - 0.01) / 0.01 < 0.2
    assert abs(p.w_q.std() - (1 / 8) ** 0.5) / (1 / 8) ** 0.5 < 0.3
    assert np.array_equal(p.prelu, np.full(2, 0.25))
    assert float(p.head_b) == 0.0


def test_param_grad_bijection():
    for hp in (small_hp(), small_hp(interaction="mlp", mlp_dims=(6, 5))):
        p = init_params(hp, make_rng(1))
        g = zero_gradients(p)
        named_p, named_g = p.views, g.views
        assert named_p.keys() == named_g.keys()
        for key in named_p:
            assert named_p[key].shape == named_g[key].shape


def test_expected_shapes_match_init():
    for hp in (small_hp(), small_hp(interaction="mlp", mlp_dims=(6, 5))):
        p = init_params(hp, make_rng(2))
        assert {k: v.shape for k, v in p.views.items()} == expected_shapes(hp)


def test_qnn_init_stores_the_sum_of_m_head_draws():
    # The same draws, from the same stream position, as m stacked heads:
    # every later tensor draws the same values too.
    hp = small_hp(m=3)
    p = init_params(hp, make_rng(7))
    rng = make_rng(7)
    for name, shape in expected_shapes(hp).items():
        if name in ("prelu", "head_b"):
            continue
        std = 0.01 if name == "id_embedding" else (1.0 / shape[-1]) ** 0.5
        if name.startswith("qnn_w_"):
            heads = rng.normal(0.0, std, hp.m * math.prod(shape)).reshape(hp.m, *shape)
            assert shape == (hp.qnn_dim, hp.qnn_dim)
            assert np.array_equal(p.views[name], heads.sum(axis=0)), name
        else:
            assert np.array_equal(p.views[name].ravel(),
                                  rng.normal(0.0, std, math.prod(shape))), name


def test_checkpoint_roundtrip_bit_exact(tmp_path):
    for seed in range(10):
        hp = small_hp() if seed % 2 == 0 else small_hp(interaction="mlp", mlp_dims=(6, 5))
        p = init_params(hp, make_rng(seed))
        path = tmp_path / f"ckpt_{seed}.bin"
        save_checkpoint(p, str(path))
        loaded = load_checkpoint(str(path), hp)
        assert params_equal(p, loaded)


def test_stacked_checkpoint_is_a_shape_mismatch(tmp_path, capsys):
    """(m, D, D) qnn_w entries fail against the config like any other shape."""
    from conftest import stacked_params
    from qin.cli import main

    hp = small_hp(m=3)
    stacked = stacked_params(init_params(hp, make_rng(11)), hp, seed=12)
    path = tmp_path / "stacked.ckpt"
    save_checkpoint(stacked, str(path))
    with pytest.raises(ShapeTableError, match="qnn_w_0"):
        load_checkpoint(str(path), hp)
    # Without a config the file's own table is the layout, heads and all.
    assert params_equal(load_checkpoint(str(path)), stacked)
    assert main(["inspect", str(path)]) == 0
    assert "name=qnn_w_0 shape=(3,16,16) values=768 " in capsys.readouterr().out


def test_entry_order_is_part_of_the_layout(tmp_path):
    # The layers are listed in file order, so a file holding qnn_w_1 before
    # qnn_w_0 would hand each layer the other's matrix.
    hp = small_hp()
    p = init_params(hp, make_rng(14))
    names = list(p.shapes)
    i, j = names.index("qnn_w_0"), names.index("qnn_w_1")
    names[i], names[j] = names[j], names[i]
    swapped = ModelParams({name: p.shapes[name] for name in names})
    for name, view in swapped.views.items():
        view[...] = p.views[name]
    path = tmp_path / "swapped.ckpt"
    save_checkpoint(swapped, str(path))
    with pytest.raises(ShapeTableError, match="order"):
        load_checkpoint(str(path), hp)
    assert params_equal(load_checkpoint(str(path)), swapped)
    # Same entries and the same buffer, in another order: not equal.
    assert not params_equal(ModelParams(swapped.shapes, p.flat.copy()), p)


def test_checkpoint_bad_magic(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(b"XXXXXXXX" + b"\x00" * 32)
    with pytest.raises(BadMagicError):
        load_checkpoint(str(path))


def test_checkpoint_depth_mismatch(tmp_path):
    deep = small_hp(depth=4)
    p = init_params(deep, make_rng(0))
    path = tmp_path / "deep.ckpt"
    save_checkpoint(p, str(path))
    with pytest.raises(ShapeTableError, match="qnn_w"):
        load_checkpoint(str(path), small_hp(depth=2))


def test_checkpoint_truncated(tmp_path):
    p = init_params(small_hp(), make_rng(0))
    path = tmp_path / "full.ckpt"
    save_checkpoint(p, str(path))
    data = path.read_bytes()
    cut = tmp_path / "cut.ckpt"
    cut.write_bytes(data[: len(data) - 16])
    with pytest.raises(TruncatedFileError):
        load_checkpoint(str(cut))


def test_checkpoint_loads_without_hp(tmp_path):
    p = init_params(small_hp(), make_rng(4))
    path = tmp_path / "free.ckpt"
    save_checkpoint(p, str(path))
    loaded = load_checkpoint(str(path))
    assert params_equal(p, loaded)


def test_named_views_share_the_flat_buffer():
    for hp in (small_hp(), small_hp(interaction="mlp", mlp_dims=(6, 5))):
        p = init_params(hp, make_rng(6))
        named = p.views
        assert list(named) == list(expected_shapes(hp))
        assert p.flat.size == sum(a.size for a in named.values())
        for name, arr in named.items():
            assert np.shares_memory(arr, p.flat), name
            arr += 1.0
        assert np.array_equal(np.concatenate([a.ravel() for a in named.values()]), p.flat)
        for listed in (p.qnn_w, p.mlp_w, p.mlp_b):
            assert all(np.shares_memory(w, p.flat) for w in listed)
        c = copy_params(p)
        assert params_equal(c, p) and not np.shares_memory(c.flat, p.flat)
        c.flat += 1.0
        assert not params_equal(c, p)
        g = zero_gradients(p)
        assert g.shapes == p.shapes and not np.any(g.flat)


def test_assigning_by_name_writes_into_the_buffer():
    hp = small_hp()
    p = init_params(hp, make_rng(8))
    flat = p.flat
    table = make_rng(9).standard_normal(p.id_embedding.shape)
    p.id_embedding = table
    p.head_b = 2.5
    assert p.flat is flat
    assert np.array_equal(flat[:table.size], table.ravel())
    assert flat[-1] == 2.5 and float(p.head_b) == 2.5
    with pytest.raises(ShapeError):
        p.w_q = np.zeros((hp.d_t, hp.d_t + 1))
    mlp = init_params(small_hp(interaction="mlp", mlp_dims=(6,)), make_rng(8))
    assert mlp.prelu is None
    with pytest.raises(ShapeError):
        mlp.prelu = np.zeros(2)


def tiny_checkpoint(tmp_path):
    hp = HyperParams(d_t=4, seq_len=2, depth=1, m=1, vocab=3, d_frozen=2)
    p = init_params(hp, make_rng(10))
    path = tmp_path / "tiny.ckpt"
    save_checkpoint(p, str(path))
    n_header = path.stat().st_size - 8 * p.flat.size
    return hp, path.read_bytes(), n_header


def loads_or_raises_checkpoint_error(path, hp):
    try:
        load_checkpoint(str(path), hp)
    except CheckpointError:
        pass


def test_every_header_bit_flip_loads_or_raises_checkpoint_error(tmp_path):
    hp, data, n_header = tiny_checkpoint(tmp_path)
    path = tmp_path / "flipped.ckpt"
    for byte in range(n_header):
        for bit in range(8):
            flipped = bytearray(data)
            flipped[byte] ^= 1 << bit
            path.write_bytes(bytes(flipped))
            for with_hp in (hp, None):
                loads_or_raises_checkpoint_error(path, with_hp)


def test_every_truncation_raises_checkpoint_error(tmp_path):
    hp, data, _ = tiny_checkpoint(tmp_path)
    path = tmp_path / "cut.ckpt"
    for n in range(len(data)):
        path.write_bytes(data[:n])
        for with_hp in (hp, None):
            with pytest.raises(CheckpointError):
                load_checkpoint(str(path), with_hp)


@pytest.mark.parametrize("extra", [1, 8, 40])
def test_surplus_bytes_raise_checkpoint_error(tmp_path, extra):
    hp, data, _ = tiny_checkpoint(tmp_path)
    path = tmp_path / "long.ckpt"
    path.write_bytes(data + b"\x00" * extra)
    for with_hp in (hp, None):
        with pytest.raises(CheckpointError, match=f"{extra} surplus bytes"):
            load_checkpoint(str(path), with_hp)


def test_malformed_names_raise_shape_table_error(tmp_path):
    hp, data, _ = tiny_checkpoint(tmp_path)
    # The first entry, "id_embedding", starts after the magic, the entry
    # count and its u16 name length.
    at = 8 + 4 + 2
    path = tmp_path / "bad_name.ckpt"
    path.write_bytes(data[:at] + b"\xff" + data[at + 1:])
    with pytest.raises(ShapeTableError, match="utf-8"):
        load_checkpoint(str(path))
    # Renaming w_k to w_q repeats a name.
    at = data.index(b"w_k")
    path.write_bytes(data[:at] + b"w_q" + data[at + 3:])
    with pytest.raises(ShapeTableError, match="twice"):
        load_checkpoint(str(path))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_entry_raises_against_a_config(tmp_path, bad):
    hp = small_hp()
    params = init_params(hp, make_rng(11))
    params.views["qnn_w_1"][2, 3] = bad
    path = tmp_path / "bad.ckpt"
    save_checkpoint(params, str(path))
    with pytest.raises(CheckpointError, match="entry 'qnn_w_1' holds a non-finite value"):
        load_checkpoint(str(path), hp)
    # Without a config the file loads as stored, so the entry can be inspected.
    assert load_checkpoint(str(path)).flat.tobytes() == params.flat.tobytes()

    # The first bad entry in layout order is the one named.
    params.head_w[0] = bad
    params.w_k[1, 1] = bad
    save_checkpoint(params, str(path))
    with pytest.raises(CheckpointError, match="entry 'w_k'"):
        load_checkpoint(str(path), hp)
