import filecmp
import shutil
import threading

import numpy as np
import pytest

from qin import qnn
from qin.cli import main
from qin.config import HyperParams
from qin.params import (ModelParams, expected_shapes, init_params, load_checkpoint,
                        params_equal, save_checkpoint)
from qin.linalg import make_rng

TINY_GEN = ["--n-samples", "400", "--n-items", "60", "--n-users", "30",
            "--emb-dim", "4", "--max-seq-len", "6", "--min-seq-len", "6",
            "--d-t", "8"]
TINY_MODEL = ["--d-t", "8", "--max-seq-len", "6", "--batch-size", "64"]


@pytest.fixture(scope="module")
def tiny_data(tmp_path_factory):
    out = tmp_path_factory.mktemp("tiny")
    assert main(["gen-data", "--out", str(out), *TINY_GEN]) == 0
    return out


def test_gen_data_deterministic(tmp_path, capsys):
    a = tmp_path / "a"
    b = tmp_path / "b"
    assert main(["gen-data", "--out", str(a), *TINY_GEN]) == 0
    manifest_a = capsys.readouterr().out.strip()
    assert main(["gen-data", "--out", str(b), *TINY_GEN]) == 0
    manifest_b = capsys.readouterr().out.strip()
    assert manifest_a == manifest_b
    for name in ("embeddings.qemb", "train.jsonl", "valid.jsonl", "truth.txt"):
        assert filecmp.cmp(a / name, b / name, shallow=False)
    # stdout manifest matches the one in the file
    first_line = (a / "train.jsonl").read_text().splitlines()[0]
    assert first_line == f"# {manifest_a}"


def test_gen_data_missing_out_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["gen-data"])
    assert exc.value.code == 2


def test_unknown_config_key_exit_2(tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("not_a_key=1\n")
    assert main(["gen-data", "--out", str(tmp_path / "o"), "--config", str(cfg)]) == 2


def test_bad_config_value_exit_2(tmp_path):
    assert main(["gen-data", "--out", str(tmp_path / "o"), "--lr", "banana"]) == 2


# A config whose affinities have no variance (one item, or one sample) is
# found before anything is written: a config error, and no output directory.
@pytest.mark.parametrize("flags", [["--n-items", "1", "--max-seq-len", "1"],
                                   ["--n-samples", "1"]], ids=["one_item", "one_sample"])
def test_gen_data_degenerate_config_exit_2_writes_nothing(flags, tmp_path, capsys):
    assert main(["gen-data", "--out", str(tmp_path / "out"), *flags]) == 2
    assert capsys.readouterr().err.startswith("config error: degenerate generator config")
    assert not (tmp_path / "out").exists()


def test_config_precedence_matrix(tmp_path, capsys):
    from qin.config import read_config_file, resolve_config

    # defaults < preset < file < flags, probed through batch_size
    assert resolve_config(None, None, None)["batch_size"] == 256
    assert resolve_config("paper", None, None)["batch_size"] == 8192
    cfg_file = tmp_path / "f.cfg"
    cfg_file.write_text("batch_size=128\n")
    file_vals = read_config_file(str(cfg_file))
    assert resolve_config("paper", file_vals, None)["batch_size"] == 128
    assert resolve_config("paper", file_vals, {"batch_size": 64})["batch_size"] == 64


def test_paper_preset_pins():
    from qin.config import resolve_config
    cfg = resolve_config("paper", None, None)
    assert cfg["lr"] == 2e-3
    assert cfg["emb_weight_decay"] == 2e-4
    assert cfg["batch_size"] == 8192
    assert cfg["d_t"] == 128
    assert cfg["qnn_depth"] == cfg["qnn_m"] == 4
    assert cfg["dropout_p"] == 0.1
    assert cfg["mlp_dims"] == [1024, 512, 256]


def test_cli_precedence_file_then_flag(tiny_data, tmp_path, capsys):
    cfg = tmp_path / "epochs.cfg"
    cfg.write_text("epochs=2\n")
    out = tmp_path / "r1"
    assert main(["train", "--data", str(tiny_data), "--out", str(out),
                 *TINY_MODEL, "--config", str(cfg)]) == 0
    capsys.readouterr()
    assert len((out / "history.log").read_text().strip().splitlines()) == 2
    out2 = tmp_path / "r2"
    assert main(["train", "--data", str(tiny_data), "--out", str(out2),
                 *TINY_MODEL, "--config", str(cfg), "--epochs", "1"]) == 0
    capsys.readouterr()
    assert len((out2 / "history.log").read_text().strip().splitlines()) == 1


def test_train_epochs_zero_checkpoint_equals_init(tiny_data, tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["train", "--data", str(tiny_data), "--out", str(out),
                 *TINY_MODEL, "--epochs", "0", "--seed", "3"]) == 0
    hp = HyperParams(d_t=8, d_b=8, d_a=8, seq_len=6, vocab=60, d_frozen=4)
    loaded = load_checkpoint(str(out / "best.ckpt"), hp)
    expected = init_params(hp, make_rng(3))
    assert params_equal(loaded, expected)
    assert (out / "history.log").read_text() == ""


def test_train_then_eval_pipeline(tiny_data, tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["train", "--data", str(tiny_data), "--out", str(out),
                 *TINY_MODEL, "--epochs", "2"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 3  # two epochs + summary
    assert lines[0].startswith("epoch=0 loss=")
    assert lines[-1].startswith("best_epoch=")
    history = (out / "history.log").read_text().strip().splitlines()
    assert history == lines[:-1]

    assert main(["eval", "--data", str(tiny_data), "--ckpt", str(out / "best.ckpt"),
                 *TINY_MODEL]) == 0
    eval_line = capsys.readouterr().out.strip()
    assert eval_line.startswith("auc=") and " logloss=" in eval_line


@pytest.fixture(scope="module")
def oracle_data(tmp_path_factory):
    """600 validation rows, one eval batch: past the two-thread split's row gate."""
    out = tmp_path_factory.mktemp("oracle")
    assert main(["gen-data", "--out", str(out), *TINY_GEN, "--n-samples", "3000",
                 "--min-seq-len", "1"]) == 0
    return out


@pytest.mark.parametrize("model", [[], ["--d-t", "64", "--qnn-depth", "4", "--qnn-m", "4"]],
                         ids=["defaults", "wide-split"])
def test_eval_of_best_ckpt_prints_the_best_history_line(oracle_data, tmp_path, capsys,
                                                         monkeypatch, model):
    # best.ckpt holds the best epoch's float32 values, and eval scores them
    # in float32 in the batches that epoch's validation used, so it prints
    # that epoch's metrics to the bit. With two usable CPUs the wide run's
    # QNN layers split over two threads, in training and in eval.
    monkeypatch.setattr(qnn, "usable_cpus", lambda: 2)
    threads = []
    real = qnn._forward_rows

    def forward_rows(*args, **kwargs):
        threads.append(threading.current_thread().name)
        return real(*args, **kwargs)

    monkeypatch.setattr(qnn, "_forward_rows", forward_rows)
    out = tmp_path / "run"
    assert main(["train", "--data", str(oracle_data), "--out", str(out), "--epochs", "3",
                 *model]) == 0
    best = int(capsys.readouterr().out.split("best_epoch=")[1].split()[0])
    entry = dict(field.split("=") for field in
                 (out / "history.log").read_text().splitlines()[best].split())
    threads.clear()
    assert main(["eval", "--data", str(oracle_data), "--ckpt", str(out / "best.ckpt"),
                 *model]) == 0
    assert capsys.readouterr().out == f"auc={entry['val_auc']} logloss={entry['val_logloss']}\n"
    assert any(name != threading.current_thread().name for name in threads) == bool(model)


def test_eval_zero_head_gives_tie_auc(tiny_data, tmp_path, capsys):
    hp = HyperParams(d_t=8, d_b=8, d_a=8, seq_len=6, vocab=60, d_frozen=4)
    params = init_params(hp, make_rng(0))
    params.head_w[:] = 0.0
    params.head_b[...] = 0.0
    ckpt = tmp_path / "zero.ckpt"
    save_checkpoint(params, str(ckpt))
    assert main(["eval", "--data", str(tiny_data), "--ckpt", str(ckpt), *TINY_MODEL]) == 0
    out = capsys.readouterr().out
    assert "auc=0.5 " in out


def test_eval_missing_data_exit_3(tmp_path, capsys):
    assert main(["eval", "--data", str(tmp_path / "absent"), "--ckpt",
                 str(tmp_path / "x.ckpt"), *TINY_MODEL]) == 3


@pytest.mark.parametrize("bad_line", [
    b'{"target": 1, "seq": [0], "label": 1}\xff',
    b'{"target": 1, "seq": [0], "label": true}',
    b"[" * 100_000,
])
def test_train_malformed_dataset_exit_3(tiny_data, tmp_path, capsys, bad_line):
    data = tmp_path / "data"
    shutil.copytree(tiny_data, data)
    train_file = data / "train.jsonl"
    train_file.write_bytes(train_file.read_bytes() + bad_line + b"\n")
    lineno = len(train_file.read_bytes().splitlines())
    assert main(["train", "--data", str(data), "--out", str(tmp_path / "run"),
                 *TINY_MODEL]) == 3
    assert f"train.jsonl:{lineno}:" in capsys.readouterr().err


def test_eval_checkpoint_shape_mismatch_exit_3(tiny_data, tmp_path):
    hp_other = HyperParams(d_t=8, d_b=8, d_a=8, seq_len=6, depth=4, vocab=60, d_frozen=4)
    params = init_params(hp_other, make_rng(1))
    ckpt = tmp_path / "deep.ckpt"
    save_checkpoint(params, str(ckpt))
    assert main(["eval", "--data", str(tiny_data), "--ckpt", str(ckpt), *TINY_MODEL]) == 3


def test_eval_mean_checkpoint_needs_attn_kind_mean(tiny_data, tmp_path, capsys):
    # The mean layout has no w_q or w_k, so another kind cannot load it.
    hp = HyperParams(d_t=8, seq_len=6, vocab=60, d_frozen=4, attn_kind="mean")
    ckpt = tmp_path / "mean.ckpt"
    save_checkpoint(init_params(hp, make_rng(1)), str(ckpt))
    args = ["eval", "--data", str(tiny_data), "--ckpt", str(ckpt), *TINY_MODEL]
    assert main(args) == 3
    assert "'w_q': (None, (8, 8))" in capsys.readouterr().err
    assert main([*args, "--attn-kind", "mean"]) == 0


def test_eval_checkpoint_without_prelu_exit_3(tiny_data, tmp_path, capsys):
    # A QNN checkpoint with no slope entry, as the retired plain-ReLU
    # activation wrote it, does not match the one QNN layout.
    hp = HyperParams(d_t=8, seq_len=6, vocab=60, d_frozen=4)
    shapes = expected_shapes(hp)
    del shapes["prelu"]
    ckpt = tmp_path / "no_prelu.ckpt"
    save_checkpoint(ModelParams(shapes), str(ckpt))
    assert main(["eval", "--data", str(tiny_data), "--ckpt", str(ckpt), *TINY_MODEL]) == 3
    captured = capsys.readouterr()
    assert "'prelu'" in captured.err and captured.out == ""


def test_eval_checkpoint_corrupted_name_exit_3(tiny_data, tmp_path):
    hp = HyperParams(d_t=8, seq_len=6, vocab=60, d_frozen=4)
    ckpt = tmp_path / "bad_name.ckpt"
    save_checkpoint(init_params(hp, make_rng(2)), str(ckpt))
    data = ckpt.read_bytes()
    at = data.index(b"w_q")
    ckpt.write_bytes(data[:at] + b"\xff" + data[at + 1:])
    assert main(["eval", "--data", str(tiny_data), "--ckpt", str(ckpt), *TINY_MODEL]) == 3


def test_eval_checkpoint_surplus_bytes_exit_3(tiny_data, tmp_path, capsys):
    hp = HyperParams(d_t=8, seq_len=6, vocab=60, d_frozen=4)
    ckpt = tmp_path / "long.ckpt"
    save_checkpoint(init_params(hp, make_rng(2)), str(ckpt))
    ckpt.write_bytes(ckpt.read_bytes() + b"\x00" * 40)
    assert main(["eval", "--data", str(tiny_data), "--ckpt", str(ckpt), *TINY_MODEL]) == 3
    assert "40 surplus bytes" in capsys.readouterr().err


def test_eval_non_finite_checkpoint_exit_3_and_inspect_shows_it(tiny_data, tmp_path, capsys):
    hp = HyperParams(d_t=8, seq_len=6, vocab=60, d_frozen=4)
    params = init_params(hp, make_rng(2))
    params.head_w[3] = np.nan
    ckpt = tmp_path / "nan.ckpt"
    save_checkpoint(params, str(ckpt))
    assert main(["eval", "--data", str(tiny_data), "--ckpt", str(ckpt), *TINY_MODEL]) == 3
    captured = capsys.readouterr()
    assert captured.err.startswith("io error:") and "'head_w'" in captured.err
    assert captured.out == ""
    assert main(["inspect", str(ckpt)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [l for l in lines if l.endswith("l2=nan")] == \
        ["name=head_w shape=(16) values=16 l2=nan",
         f"total entries={len(params.views)} values={params.flat.size} l2=nan"]


def test_eval_single_class_exit_4(tiny_data, tmp_path, capsys):
    # rewrite the valid split with one class only
    single = tmp_path / "single"
    single.mkdir()
    (single / "embeddings.qemb").write_bytes((tiny_data / "embeddings.qemb").read_bytes())
    (single / "train.jsonl").write_text((tiny_data / "train.jsonl").read_text())
    lines = [l for l in (tiny_data / "valid.jsonl").read_text().splitlines()
             if '"label":1' in l.replace(" ", "")]
    (single / "valid.jsonl").write_text("\n".join(lines) + "\n")
    out = tmp_path / "run"
    assert main(["train", "--data", str(tiny_data), "--out", str(out),
                 *TINY_MODEL, "--epochs", "1"]) == 0
    assert main(["eval", "--data", str(single), "--ckpt", str(out / "best.ckpt"),
                 *TINY_MODEL]) == 4


def test_inspect_prints_one_line_per_entry_and_a_total(tmp_path, capsys):
    hp = HyperParams(d_t=8, seq_len=4, depth=2, m=3, vocab=10, d_frozen=4)
    params = init_params(hp, make_rng(3))
    path = tmp_path / "m.ckpt"
    save_checkpoint(params, str(path))
    assert main(["inspect", str(path)]) == 0
    *entries, total = capsys.readouterr().out.strip().splitlines()
    rows = [dict(tok.split("=", 1) for tok in line.split()) for line in entries]
    assert [row["name"] for row in rows] == list(params.shapes)
    for row in rows:
        view = params.views[row["name"]]
        assert row["shape"] == "(" + ",".join(map(str, view.shape)) + ")"
        assert int(row["values"]) == view.size
        assert float(row["l2"]) == np.linalg.norm(view.ravel())
    assert rows[4]["name"] == "qnn_w_0" and rows[4]["shape"] == "(16,16)"
    assert rows[-1]["name"] == "head_b" and rows[-1]["shape"] == "()"
    word, *fields = total.split()
    fields = dict(tok.split("=", 1) for tok in fields)
    assert word == "total" and int(fields["entries"]) == len(rows)
    assert int(fields["values"]) == params.flat.size == sum(int(r["values"]) for r in rows)
    assert float(fields["l2"]) == np.linalg.norm(params.flat)


@pytest.mark.parametrize("content", [None, b"NOTACKPT", b"QINCKPT1\x01"])
def test_inspect_bad_file_exit_3(tmp_path, capsys, content):
    path = tmp_path / "bad.ckpt"
    if content is not None:
        path.write_bytes(content)
    assert main(["inspect", str(path)]) == 3
    captured = capsys.readouterr()
    assert captured.err.startswith("io error:") and captured.out == ""


def test_gradcheck_cli_pass_and_sabotage(capsys):
    assert main(["gradcheck", "--seeds", "1"]) == 0
    out = capsys.readouterr().out
    assert "status=ok" in out and "status=FAIL" not in out
    assert main(["gradcheck", "--seeds", "1", "--sabotage", "head"]) == 1
    out = capsys.readouterr().out
    assert "class=head" in out and "status=FAIL" in out


@pytest.mark.parametrize("interaction", ["qnn", "mlp"])
def test_gradcheck_cli_mean_pooling(interaction, capsys):
    flags = ["--seeds", "1", "--attn-kind", "mean", "--interaction", interaction]
    assert main(["gradcheck", *flags]) == 0
    out = capsys.readouterr().out
    assert "class=w_v" in out and "status=FAIL" not in out
    assert "class=w_q" not in out and "class=w_k" not in out
    assert main(["gradcheck", *flags, "--sabotage", "w_v"]) == 1
    out = capsys.readouterr().out
    assert [l.split()[0] for l in out.splitlines() if "status=FAIL" in l] == ["class=w_v"]


def test_gradcheck_multi_seed_reports_worst(capsys):
    assert main(["gradcheck", "--seeds", "2"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    names = [l.split()[0] for l in out]
    assert len(names) == len(set(names))  # one worst-line per class


@pytest.mark.parametrize("flags", [
    ["--seeds", "0"], ["--seeds", "-2"],
    ["--step", "0"], ["--step=-1e-5"], ["--step", "nan"], ["--step", "inf"],
    ["--tol", "0"], ["--tol", "nan"], ["--tol", "inf"],
    ["--sabotage", "nosuch"],
    ["--interaction", "mlp", "--sabotage", "qnn_w_0"],   # a class of the QNN model only
    ["--sabotage", "mlp"],
])
def test_gradcheck_bad_flag_exit_2(flags, capsys):
    assert main(["gradcheck", "--seeds", "1", *flags]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("config error:") and captured.out == ""


def test_gradcheck_reads_the_dropout_keys_and_fixes_the_dims(monkeypatch, capsys):
    import qin.cli
    from qin.gradcheck import GradReport

    seen = []

    def fake(seed, hp, **kwargs):
        seen.append(hp)
        return [GradReport("head", 1e-9, 0, 3, 0, 0, 1e-5, seed)]

    monkeypatch.setattr(qin.cli, "run_model_gradcheck", fake)
    assert main(["gradcheck", "--seeds", "1"]) == 0
    assert main(["gradcheck", "--seeds", "1", "--dropout-p", "0.5",
                 "--d-t", "64", "--max-seq-len", "32"]) == 0
    assert seen[0].dropout_p == 0.1   # the trained default
    assert seen[1].dropout_p == 0.5
    assert (seen[1].d_t, seen[1].seq_len) == (seen[0].d_t, seen[0].seq_len) == (16, 8)
    capsys.readouterr()
    with pytest.raises(SystemExit):
        main(["gradcheck", "--help"])
    help_text = " ".join(capsys.readouterr().out.split())
    assert "seed, attn_kind, interaction, dropout_p;" in help_text


def test_gradcheck_class_that_checked_nothing_fails(monkeypatch, capsys):
    import qin.cli
    from qin.gradcheck import GradReport

    def fake(seed, **kwargs):
        # seed 0 certifies w_q, seed 1 certifies nothing (all kink-skipped)
        return [GradReport("w_q", 1e-9, 0, 4 - 4 * (seed % 2), 4 * (seed % 2), 0, 1e-5, seed),
                GradReport("head", 1e-9, 0, 3, 0, 0, 1e-5, seed)]

    monkeypatch.setattr(qin.cli, "run_model_gradcheck", fake)
    assert main(["gradcheck", "--seeds", "1", "--seed", "0"]) == 0
    assert main(["gradcheck", "--seeds", "2", "--seed", "0"]) == 1
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[-2].startswith("class=head") and lines[-2].endswith("status=ok")
    assert lines[-1].startswith("class=w_q") and " coords=0 " in lines[-1]
    assert lines[-1].endswith("seed=1 status=FAIL")


def test_ablate_zero_seeds_exit_2(tiny_data, capsys):
    assert main(["ablate", "--data", str(tiny_data), *TINY_MODEL, "--seeds", "0"]) == 2
    assert capsys.readouterr().err.startswith("config error:")


def test_ablate_smoke_deterministic(tiny_data, capsys):
    args = ["ablate", "--data", str(tiny_data), *TINY_MODEL,
            "--epochs", "1", "--seeds", "1"]
    assert main(args) == 0
    table_a = capsys.readouterr().out
    assert main(args) == 0
    table_b = capsys.readouterr().out
    assert table_a == table_b
    lines = table_a.strip().splitlines()
    assert lines[0] == "| variant | val_auc |"
    assert len(lines) == 6  # header, rule, four variants
    for row in lines[2:]:
        value = float(row.split("|")[2])
        assert np.isfinite(value)
    names = [row.split("|")[1].strip() for row in lines[2:]]
    assert names == ["qin_full", "qin_wo_qnn_mlp", "qin_wo_asta_mean", "asta_softmax"]


@pytest.mark.parametrize("key, value", [("attn_kind", "mean"), ("interaction", "mlp")])
def test_ablate_refuses_a_key_the_grid_sets(tiny_data, capsys, key, value):
    # Every variant starts from the resolved config, so a set grid key would
    # train each row under it and label it with the variant's name.
    args = ["ablate", "--data", str(tiny_data), *TINY_MODEL, "--epochs", "1",
            f"--{key.replace('_', '-')}", value]
    assert main(args) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("config error:") and key in captured.err
    assert captured.out == ""
