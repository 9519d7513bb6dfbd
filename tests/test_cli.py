"""End-to-end command checks through main(): every command exercised against
temporary directories, with determinism and chance-level sanity checks."""

import csv
import dataclasses
import json
import os
import struct
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from d2moe import cli
from d2moe.cli import main
from d2moe.graph import load_graph_dir
from d2moe.moe_core import ModelConfig, init_params, load_checkpoint, save_checkpoint
from d2moe.training import VARIANT_NAMES, TrainConfig

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


def test_gen_rejects_nan_split_fraction(tmp_path, capsys):
    rc = main(["gen", "--sbm", "50,2,4,0.1,0.1,1", "--split", "nan,0.5,0.2",
               "--out-dir", str(tmp_path / "g")])
    assert rc == 1
    assert capsys.readouterr().err.splitlines() == [
        "error: need three nonnegative fractions, got (nan, 0.5, 0.2)"]


def test_out_of_memory_is_one_line_error(tmp_path, capsys, monkeypatch):
    def oversize(spec):
        raise MemoryError()

    monkeypatch.setattr(cli, "generate_sbm", oversize)
    rc = main(["gen", "--sbm", "200000,4,8,0.0001,0.0001,1", "--out-dir", str(tmp_path / "g")])
    assert rc == 1
    assert capsys.readouterr().err.splitlines() == ["error: out of memory"]


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


def test_train_bytes_do_not_depend_on_blas_threads(tmp_path):
    """The same train run writes the same checkpoint and metrics under one
    and under two OpenBLAS threads, on expert products large enough to be
    split across threads. Only these two thread counts are tested."""
    src = str(Path(cli.__file__).resolve().parents[1])
    outs = [tmp_path / f"threads{n}" for n in (1, 2)]
    for n, out in zip((1, 2), outs):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": str(n),
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        subprocess.run([sys.executable, "-m", "d2moe.cli", "train",
                        "--sbm", "1500,4,64,0.01,0.03,1.25", "--hidden", "128",
                        "--experts", "8", "--epochs", "4", "--seed", "3", "--out-dir", str(out)],
                       env=env, capture_output=True, check=True)
    for name in ("checkpoint.bin", "metrics.jsonl"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name


def test_train_from_graph_dir(tmp_path):
    gdir = tmp_path / "g"
    assert main(["gen", "--sbm", SBM_SMALL, "--seed", "2", "--out-dir", str(gdir)]) == 0
    out = tmp_path / "run"
    rc = main(["train", "--graph-dir", str(gdir), "--seed", "0", "--epochs", "2",
               "--hidden", "16", "--out-dir", str(out)])
    assert rc == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["inputs"]["graph_dir"] == str(gdir)


@pytest.mark.parametrize("flag,value", [("--sbm", SBM_SMALL), ("--split", "0.5,0.25,0.25")])
def test_graph_dir_rejects_sbm_flags_with_one_line_error(tmp_path, capsys, flag, value):
    gdir = tmp_path / "g"
    assert main(["gen", "--sbm", SBM_SMALL, "--seed", "2", "--out-dir", str(gdir)]) == 0
    capsys.readouterr()
    rc = main(["train", "--graph-dir", str(gdir), flag, value, "--epochs", "1",
               "--out-dir", str(tmp_path / "run")])
    assert rc == 1
    assert capsys.readouterr().err.splitlines() == [
        f"error: {flag} cannot be combined with --graph-dir"]
    assert not (tmp_path / "run").exists()


def test_train_rejects_bad_graph_file_with_one_line_error(tmp_path, capsys):
    gdir = tmp_path / "g"
    assert main(["gen", "--sbm", SBM_SMALL, "--seed", "2", "--out-dir", str(gdir)]) == 0
    labels = gdir / "labels.txt"
    labels.write_text("99999999999999999999\n" + labels.read_text().split("\n", 1)[1])
    capsys.readouterr()
    rc = main(["train", "--graph-dir", str(gdir), "--epochs", "1",
               "--out-dir", str(tmp_path / "run")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.splitlines() == [f"error: {labels}:1: non-integer label '99999999999999999999'"]


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


@pytest.mark.parametrize("key,value,want", [
    ("strict_proxy", "false", "true or false"),
    ("batch_norm", "no", "true or false"),
    ("epochs", 2.5, "an integer"),
    ("epochs", True, "an integer"),
    ("lr", "0.1", "a number"),
    ("backbone", "gat", "one of gcn, sage"),
    ("seed", 1.7, "an integer"),
])
def test_config_value_of_wrong_type_is_one_line_error(tmp_path, capsys, key, value, want):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({key: value}))
    rc = main(["train", "--sbm", SBM_SMALL, "--config", str(cfg_path),
               "--out-dir", str(tmp_path / "o")])
    assert rc == 1
    assert capsys.readouterr().err.splitlines() == [
        f"error: {cfg_path}: {key} must be {want}, got {json.dumps(value)}"]


def test_config_integer_loads_as_float(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"lr": 1, "epochs": 1}))
    out = tmp_path / "o"
    assert main(["train", "--sbm", SBM_SMALL, "--config", str(cfg_path),
                 "--out-dir", str(out)]) == 0
    lr = json.loads((out / "manifest.json").read_text())["config"]["train"]["lr"]
    assert lr == 1.0 and isinstance(lr, float)


def test_settings_table_matches_config_fields():
    exposed = {cls: set(keys.values()) for cls, keys in cli.SETTINGS.items()}
    for cls, keys in cli.SETTINGS.items():
        fields = {f.name: f for f in dataclasses.fields(cls)}
        for key, name in keys.items():
            assert name in fields, (key, name)
            default = fields[name].default
            if key in cli.SIZE_DEFAULTS:
                assert default is dataclasses.MISSING, key
            else:
                assert cli.CONFIG_KEYS[key][1] == default, key
    unexposed = {f.name for cls in (ModelConfig, TrainConfig) for f in dataclasses.fields(cls)
                 if f.name not in exposed[cls]}
    assert unexposed == {"in_dim", "classes", "seed"}
    assert set(cli.SIZE_DEFAULTS) == {"hidden", "experts", "layers"}
    assert cli.CONFIG_KEYS["seed"] == (int, TrainConfig().seed)


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
    ("--weight-decay", "-1", "weight_decay"),
    ("--lambda-re", "nan", "lambda_re"),
    ("--seed", "-1", "seed must be >= 0, got -1"),
])
def test_train_rejects_bad_input_with_one_line_error(tmp_path, capsys, flag, value, word):
    rc = main(["train", "--sbm", SBM_SMALL, "--epochs", "1", flag, value,
               "--out-dir", str(tmp_path / "o")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and word in err
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("argv", [
    ["gen", "--sbm", SBM_SMALL, "--seed", "-1"],
    ["ablate", "--sbm", SBM_SMALL, "--epochs", "1", "--seeds", "0", "--seed", "-1"],
    ["train", "--sbm", SBM_SMALL, "--epochs", "1", "--config", "{cfg}"],
], ids=["gen", "ablate", "config"])
def test_negative_seed_is_named_at_the_boundary(tmp_path, capsys, argv):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"seed": -1}))
    argv = [a.format(cfg=cfg_path) for a in argv] + ["--out-dir", str(tmp_path / "o")]
    assert main(argv) == 1
    assert capsys.readouterr().err.splitlines() == ["error: seed must be >= 0, got -1"]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_train_divergence_exits_nonzero(tmp_path, capsys):
    rc = main(["train", "--sbm", SBM_SMALL, "--seed", "0", "--epochs", "5",
               "--lr", "1e40", "--dropout", "0.0", "--out-dir", str(tmp_path / "o")])
    assert rc == 1
    assert "diverged" in capsys.readouterr().err


@pytest.mark.parametrize("args,message", [
    (["--k", "2"], "--k applies only to --variant static_topk"),
    (["--variant", "static_topk", "--k", "1", "--p", "0.5"],
     "--p applies only to --variant fixed_topp"),
    (["--variant", "full", "--variant", "random_topp"],
     "train takes one --variant; ablate compares several"),
])
def test_train_rejects_unused_variant_flags(tmp_path, capsys, args, message):
    rc = main(["train", "--sbm", SBM_SMALL, "--epochs", "1", *args,
               "--out-dir", str(tmp_path / "o")])
    assert rc == 1
    assert capsys.readouterr().err.splitlines() == [f"error: {message}"]


def test_variant_help_lists_every_variant(capsys):
    with pytest.raises(SystemExit):
        main(["ablate", "--help"])
    help_text = " ".join(capsys.readouterr().out.split())
    assert ", ".join(VARIANT_NAMES) in help_text


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


def test_eval_and_stratify_take_seed_from_config(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"seed": 3, "epochs": 3, "hidden": 16}))
    runs = {}
    for experts in ("3", "1"):
        runs[experts] = tmp_path / f"k{experts}"
        assert main(["train", "--sbm", SBM_SMALL, "--config", str(cfg_path),
                     "--experts", experts, "--out-dir", str(runs[experts])]) == 0
    for how in (["--config", str(cfg_path)], ["--seed", "3"]):
        out = tmp_path / how[0].lstrip("-")
        for command, extra in (("eval", []), ("stratify", [
                "--proxy-checkpoint", str(runs["1"] / "checkpoint.bin")])):
            assert main([command, "--checkpoint", str(runs["3"] / "checkpoint.bin"), *extra,
                         "--sbm", SBM_SMALL, *how, "--out-dir", str(out / command)]) == 0
            assert json.loads((out / command / "manifest.json").read_text())["seed"] == 3
    for table in ("eval/nodes.csv", "stratify/deciles.csv"):
        assert (tmp_path / "config" / table).read_bytes() == \
            (tmp_path / "seed" / table).read_bytes()


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
    assert "model expects" in capsys.readouterr().err


def test_eval_rejects_non_finite_checkpoint(tmp_path, capsys):
    cfg = ModelConfig(in_dim=8, hidden=16, classes=4, experts=3, layers=2)
    ckpt = tmp_path / "nan.bin"
    save_checkpoint(init_params(cfg, np.random.default_rng(0)), ckpt)
    raw = ckpt.read_bytes()
    ckpt.write_bytes(raw[:-4] + struct.pack("<f", float("nan")))  # last float of head.b
    rc = main(["eval", "--checkpoint", str(ckpt), "--sbm", SBM_SMALL,
               "--out-dir", str(tmp_path / "ev")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "head.b" in err
    assert len(err.strip().splitlines()) == 1


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


@pytest.mark.parametrize("flag,value,message", [
    ("--jobs", "0", "--jobs must be at least 1, got 0"),
    ("--jobs", "-2", "--jobs must be at least 1, got -2"),
    ("--seeds", "1,1", "--seeds repeats a seed: '1,1'"),
    ("--seeds", ",", "--seeds needs comma-separated non-negative integers, got ','"),
    ("--seeds", "0,-1", "--seeds needs comma-separated non-negative integers"),
])
def test_ablate_rejects_bad_jobs_and_seeds_with_one_line_error(tmp_path, capsys, flag,
                                                              value, message):
    out = tmp_path / "abl"
    rc = main(["ablate", "--sbm", SBM_SMALL, "--epochs", "1", flag, value,
               "--out-dir", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message}")
    assert len(err.strip().splitlines()) == 1
    assert not out.exists()


def test_ablate_rejects_zero_k_before_building_the_graph(tmp_path, capsys, monkeypatch):
    def unreachable(*args, **kwargs):
        raise AssertionError("reached past the variant check")

    monkeypatch.setattr(cli, "_obtain_graph", unreachable)
    monkeypatch.setattr(cli, "run_ablation", unreachable)
    out = tmp_path / "abl"
    rc = main(["ablate", "--sbm", SBM_SMALL, "--variant", "static_topk", "--k", "0",
               "--epochs", "1", "--seeds", "0", "--out-dir", str(out)])
    assert rc == 1
    assert capsys.readouterr().err.splitlines() == ["error: k must be >= 1, got 0"]
    assert not out.exists()


def test_ablate_rejects_k_above_experts_before_any_fit(tmp_path, capsys, monkeypatch):
    def unreachable(*args, **kwargs):
        raise AssertionError("reached past the variant check")

    monkeypatch.setattr(cli, "_obtain_graph", unreachable)
    monkeypatch.setattr(cli, "run_ablation", unreachable)
    out = tmp_path / "abl"
    rc = main(["ablate", "--sbm", SBM_SMALL, "--variant", "full", "--variant", "static_topk",
               "--k", "9", "--epochs", "1", "--seeds", "0", "--out-dir", str(out)])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.err.splitlines() == ["error: k must be in [1, 4], got 9"]
    assert "full:" not in captured.out
    assert not out.exists()


def test_train_checks_k_against_configured_experts(tmp_path, capsys, monkeypatch):
    """The expert count a config file sets bounds --k as the flag would."""
    monkeypatch.setattr(cli, "_obtain_graph", lambda *a: pytest.fail("built the graph"))
    config = tmp_path / "cfg.json"
    config.write_text('{"experts": 2}')
    rc = main(["train", "--sbm", SBM_SMALL, "--config", str(config),
               "--variant", "static_topk", "--k", "3", "--out-dir", str(tmp_path / "t")])
    assert rc == 1
    assert capsys.readouterr().err.splitlines() == ["error: k must be in [1, 2], got 3"]


def test_train_divergence_in_the_update_is_one_line_and_no_warning(tmp_path, capsys):
    """A step size that takes the float32 store past its range is reported by
    ``adamw_step`` before the store is written: no overflow warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rc = main(["train", "--sbm", "10,2,2,0.1,0.1,1", "--lr", "1e300",
                   "--out-dir", str(tmp_path / "t")])
    assert rc == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("error: training diverged at epoch 0: adamw_step: ")


def test_ablate_rejects_empty_test_split(tmp_path, capsys):
    out = tmp_path / "abl"
    rc = main(["ablate", "--sbm", "100,3,5,0.05,0.02,1", "--split", "0.5,0.5,0",
               "--epochs", "2", "--seeds", "0,1", "--out-dir", str(out)])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.err == "error: run_ablation: graph has no test nodes to score\n"
    assert captured.out == ""
    assert not out.exists()


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


@pytest.mark.parametrize("flag,value,word", [
    ("--mu", "nan", "mu"), ("--beta", "nan", "beta"), ("--alpha", "inf", "alpha"),
    ("--phi", "inf", "phi"), ("--noise", "inf", "eps"), ("--noise", "nan", "eps"),
    ("--k-max", "nan", "k_max"), ("--u-min", "0", "--u-min"), ("--u-max", "inf", "--u-max"),
])
def test_theory_rejects_non_finite_with_one_line_error(tmp_path, capsys, flag, value, word):
    rc = main(["theory", flag, value, "--u-points", "12", "--out-dir", str(tmp_path / "th")])
    assert rc == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and word in err[0]
    assert not (tmp_path / "th" / "scaling.csv").exists()


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
