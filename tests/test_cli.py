"""End-to-end command checks through main(): every command exercised against
temporary directories, with determinism and chance-level sanity checks."""

import csv
import json

import numpy as np
import pytest

from d2moe.cli import main
from d2moe.graph import load_graph_dir
from d2moe.moe_core import ModelConfig, init_params, load_checkpoint, save_checkpoint

SBM_SMALL = "120,4,8,0.15,0.01,3.0"      # homophilous, learnable quickly
SBM_BALANCED = "500,4,8,0.05,0.05,0.0"   # no structure or signal: chance level


def _train(tmp_path, name, *extra):
    out = tmp_path / name
    rc = main(["train", "--sbm", SBM_SMALL, "--seed", "7", "--epochs", "3",
               "--hidden", "16", "--experts", "3", "--out-dir", str(out), *extra])
    assert rc == 0
    return out


# ---- gen -----------------------------------------------------------------


def test_gen_writes_loadable_graph(tmp_path, capsys):
    out = tmp_path / "g"
    rc = main(["gen", "--sbm", "60,3,4,0.2,0.05,2.0", "--seed", "1",
               "--out-dir", str(out)])
    assert rc == 0
    assert "edge homophily" in capsys.readouterr().out
    g = load_graph_dir(out)
    assert g.n == 60
    assert g.n_classes == 3
    assert g.train_mask.sum() > 0 and g.test_mask.sum() > 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "gen"
    assert manifest["inputs"]["hash"].startswith("sha256:")


def test_gen_is_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert main(["gen", "--sbm", "60,3,4,0.2,0.05,2.0", "--seed", "1",
                     "--out-dir", str(out)]) == 0
    for name in ("edges.tsv", "features.csv", "labels.txt", "masks.txt"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_gen_rejects_malformed_spec(tmp_path, capsys):
    rc = main(["gen", "--sbm", "60,3,4", "--out-dir", str(tmp_path / "g")])
    assert rc == 1
    assert "error" in capsys.readouterr().err


# ---- train ---------------------------------------------------------------


def test_train_writes_artifacts(tmp_path, capsys):
    out = _train(tmp_path, "run")
    assert (out / "checkpoint.bin").exists()
    assert (out / "metrics.jsonl").exists()
    assert "best epoch" in capsys.readouterr().out
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "train"
    assert manifest["seed"] == 7
    assert manifest["config"]["model"]["hidden"] == 16
    assert manifest["config"]["variant"] == "full"
    assert manifest["inputs"]["hash"].startswith("sha256:")
    params = load_checkpoint(out / "checkpoint.bin")
    assert params.config.experts == 3
    lines = (out / "metrics.jsonl").read_text().splitlines()
    assert len(lines) == 3
    assert json.loads(lines[0])["epoch"] == 0


def test_train_same_seed_byte_identical_metrics(tmp_path):
    a = _train(tmp_path, "a")
    b = _train(tmp_path, "b")
    assert (a / "metrics.jsonl").read_bytes() == (b / "metrics.jsonl").read_bytes()
    assert (a / "checkpoint.bin").read_bytes() == (b / "checkpoint.bin").read_bytes()


def test_train_from_graph_dir(tmp_path):
    gdir = tmp_path / "g"
    assert main(["gen", "--sbm", SBM_SMALL, "--seed", "2", "--out-dir", str(gdir)]) == 0
    out = tmp_path / "run"
    rc = main(["train", "--graph-dir", str(gdir), "--seed", "0", "--epochs", "2",
               "--hidden", "16", "--out-dir", str(out)])
    assert rc == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["inputs"]["graph_dir"] == str(gdir)


def test_train_config_file_and_flag_precedence(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"epochs": 2, "hidden": 8, "experts": 2}))
    out1 = tmp_path / "filecfg"
    rc = main(["train", "--sbm", SBM_SMALL, "--seed", "0", "--config", str(cfg_path),
               "--out-dir", str(out1)])
    assert rc == 0
    assert len((out1 / "metrics.jsonl").read_text().splitlines()) == 2
    assert load_checkpoint(out1 / "checkpoint.bin").config.hidden == 8

    out2 = tmp_path / "flagwins"
    rc = main(["train", "--sbm", SBM_SMALL, "--seed", "0", "--config", str(cfg_path),
               "--epochs", "3", "--out-dir", str(out2)])
    assert rc == 0
    assert len((out2 / "metrics.jsonl").read_text().splitlines()) == 3


def test_train_rejects_unknown_config_key(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"epochz": 2}))
    rc = main(["train", "--sbm", SBM_SMALL, "--config", str(cfg_path),
               "--out-dir", str(tmp_path / "o")])
    assert rc == 1
    assert "epochz" in capsys.readouterr().err


def test_train_requires_data_source(tmp_path, capsys):
    rc = main(["train", "--out-dir", str(tmp_path / "o"), "--epochs", "1"])
    assert rc == 1
    assert "--graph-dir or --sbm" in capsys.readouterr().err


@pytest.mark.parametrize("flag,value,word", [
    ("--hidden", "0", "hidden"),
    ("--gamma", "nan", "gamma"),
    ("--lr", "-1", "learning rate"),
])
def test_train_rejects_bad_input_with_one_line_error(tmp_path, capsys, flag, value, word):
    rc = main(["train", "--sbm", SBM_SMALL, "--epochs", "1", flag, value,
               "--out-dir", str(tmp_path / "o")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and word in err
    assert len(err.strip().splitlines()) == 1


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_train_divergence_exits_nonzero(tmp_path, capsys):
    rc = main(["train", "--sbm", SBM_SMALL, "--seed", "0", "--epochs", "5",
               "--lr", "1e40", "--dropout", "0.0", "--out-dir", str(tmp_path / "o")])
    assert rc == 1
    assert "diverged" in capsys.readouterr().err


def test_train_variant_flag(tmp_path):
    out = tmp_path / "topk"
    rc = main(["train", "--sbm", SBM_SMALL, "--seed", "0", "--epochs", "2",
               "--variant", "static_topk", "--k", "1", "--out-dir", str(out)])
    assert rc == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["variant"] == "static_topk(1)"
    first = json.loads((out / "metrics.jsonl").read_text().splitlines()[0])
    assert first["mean_active_experts"] == 1.0


# ---- eval ----------------------------------------------------------------


def test_eval_prints_accuracy_and_writes_nodes(tmp_path, capsys):
    run = _train(tmp_path, "run")
    out = tmp_path / "ev"
    rc = main(["eval", "--checkpoint", str(run / "checkpoint.bin"),
               "--sbm", SBM_SMALL, "--seed", "7", "--out-dir", str(out)])
    assert rc == 0
    text = capsys.readouterr().out
    assert "acc_train" in text and "acc_test" in text
    with open(out / "nodes.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 120
    for key in ("node", "entropy", "threshold", "mean_active", "predicted", "label"):
        assert key in rows[0]
    ent = float(rows[0]["entropy"])
    assert 0.0 <= ent <= 1.0
    assert 0.0 < float(rows[0]["threshold"]) < 1.0 + 1e-12
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "eval"
    assert manifest["inputs"]["checkpoint_hash"].startswith("sha256:")
    assert manifest["config"]["model"]["experts"] == 3


def test_eval_untrained_checkpoint_is_chance_level(tmp_path, capsys):
    cfg = ModelConfig(in_dim=8, hidden=16, classes=4, experts=3, layers=2)
    params = init_params(cfg, np.random.default_rng(0))
    ckpt = tmp_path / "fresh.bin"
    save_checkpoint(params, ckpt)
    rc = main(["eval", "--checkpoint", str(ckpt), "--sbm", SBM_BALANCED,
               "--seed", "3", "--out-dir", str(tmp_path / "ev")])
    assert rc == 0
    for line in capsys.readouterr().out.splitlines():
        if line.startswith("acc_test"):
            acc = float(line.split()[1])
            assert abs(acc - 0.25) <= 0.1
            break
    else:
        pytest.fail("no acc_test line printed")


def test_eval_rejects_dimension_mismatch(tmp_path, capsys):
    cfg = ModelConfig(in_dim=5, hidden=8, classes=4, experts=2, layers=2)
    ckpt = tmp_path / "bad.bin"
    save_checkpoint(init_params(cfg, np.random.default_rng(0)), ckpt)
    rc = main(["eval", "--checkpoint", str(ckpt), "--sbm", SBM_SMALL,
               "--out-dir", str(tmp_path / "ev")])
    assert rc == 1
    assert "checkpoint expects" in capsys.readouterr().err


# ---- stratify ------------------------------------------------------------


def test_stratify_writes_decile_table(tmp_path):
    run = _train(tmp_path, "run")
    proxy = tmp_path / "proxy"
    rc = main(["train", "--sbm", SBM_SMALL, "--seed", "7", "--epochs", "3",
               "--hidden", "16", "--experts", "1", "--out-dir", str(proxy)])
    assert rc == 0
    out = tmp_path / "strat"
    rc = main(["stratify", "--checkpoint", str(run / "checkpoint.bin"),
               "--proxy-checkpoint", str(proxy / "checkpoint.bin"),
               "--sbm", SBM_SMALL, "--seed", "7", "--out-dir", str(out)])
    assert rc == 0
    with open(out / "deciles.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 10
    assert sum(int(r["count"]) for r in rows) == 24  # test split of 120 nodes
    assert "active_l0" in rows[0] and "active_l1" in rows[0]
    for r in rows:
        assert 0.0 <= float(r["accuracy"]) <= 1.0


# ---- ablate --------------------------------------------------------------


def test_ablate_writes_table(tmp_path, capsys):
    out = tmp_path / "abl"
    rc = main(["ablate", "--sbm", SBM_SMALL, "--seed", "7", "--epochs", "2",
               "--hidden", "16", "--experts", "3",
               "--variant", "full", "--variant", "static_topk", "--k", "1",
               "--seeds", "0,1", "--out-dir", str(out)])
    assert rc == 0
    text = capsys.readouterr().out
    assert "full:" in text and "static_topk(1):" in text
    with open(out / "ablation.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["variant"] for r in rows] == ["full", "static_topk(1)"]
    for r in rows:
        per_seed = [float(r["seed0"]), float(r["seed1"])]
        assert float(r["mean"]) == pytest.approx(np.mean(per_seed))


# ---- theory --------------------------------------------------------------


def test_theory_slope_column(tmp_path, capsys):
    out = tmp_path / "th"
    rc = main(["theory", "--mu", "1", "--phi", "1", "--out-dir", str(out)])
    assert rc == 0
    assert "fitted slope" in capsys.readouterr().out
    with open(out / "scaling.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 24
    slopes = {float(r["fitted_slope"]) for r in rows}
    assert len(slopes) == 1
    assert abs(slopes.pop() - 0.5) <= 0.02
    ks = [float(r["k_bruteforce"]) for r in rows]
    assert ks == sorted(ks)
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "theory"
    assert manifest["seed"] is None


def test_theory_multiple_exponent_blocks(tmp_path):
    out = tmp_path / "th"
    rc = main(["theory", "--mu", "1,2", "--phi", "2", "--u-points", "12",
               "--out-dir", str(out)])
    assert rc == 0
    with open(out / "scaling.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 24
    by_mu = {float(r["mu"]) for r in rows}
    assert by_mu == {1.0, 2.0}
    for r in rows:
        expected = 1.0 / (float(r["mu"]) + float(r["phi"]))
        assert abs(float(r["fitted_slope"]) - expected) <= 0.02


# ---- env plumbing --------------------------------------------------------


def test_log_level_env_var_accepted(tmp_path, monkeypatch):
    monkeypatch.setenv("D2MOE_LOG", "DEBUG")
    rc = main(["gen", "--sbm", "40,2,4,0.2,0.05,2.0", "--out-dir",
               str(tmp_path / "g")])
    assert rc == 0
    monkeypatch.setenv("D2MOE_LOG", "not-a-level")
    rc = main(["gen", "--sbm", "40,2,4,0.2,0.05,2.0", "--out-dir",
               str(tmp_path / "g2")])
    assert rc == 0
