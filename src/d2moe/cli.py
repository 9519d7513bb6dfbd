"""Command-line surface: data generation, training, evaluation, entropy
stratification, ablation sweeps, and the scaling-law table.

Every command is deterministic given its seed and inputs. The master seed
feeds independent streams for initialization, dropout, and data, so changing
one concern never perturbs the others; every command writes a manifest with
a content hash of its inputs so the run can be replayed.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import json
import logging
import os
import sys
import typing
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import run_ablation, stratify_by_entropy
from .graph import (
    EDGES_FILE,
    FEATURES_FILE,
    LABELS_FILE,
    MASKS_FILE,
    Graph,
    SbmSpec,
    edge_homophily,
    generate_sbm,
    load_graph_dir,
    split_nodes,
    write_graph,
)
from .moe_core import (
    BACKBONES,
    EXPERT_LAYOUTS,
    ModelConfig,
    evaluate,
    load_checkpoint,
    predictive_entropy,
    save_checkpoint,
)
from .theory import ScalingParams, ScalingRow, scaling_rows
from .training import (
    VARIANT_NAMES,
    TrainConfig,
    TrainingDivergence,
    fit,
    make_variant,
    seed_streams,
    variant_label,
    write_metrics,
)

# The one definition of the model and training settings the CLI exposes: per
# config class, flag / config-file key -> field. Type and default are read off
# the field; the three sizes have no library default, so the CLI gives one.
SETTINGS = {
    ModelConfig: {"hidden": "hidden", "experts": "experts", "layers": "layers",
                  "dropout": "dropout", "gamma": "gamma", "batch_norm": "use_batch_norm",
                  "expert_layout": "expert_layout", "backbone": "backbone"},
    TrainConfig: {"epochs": "max_epochs", "patience": "patience", "lr": "lr",
                  "weight_decay": "weight_decay", "lambda_re": "lambda_re",
                  "lambda_lb": "lambda_lb", "strict_proxy": "strict_proxy"},
}
SIZE_DEFAULTS = {"hidden": 64, "experts": 4, "layers": 2}
CHOICES = {"expert_layout": EXPERT_LAYOUTS, "backbone": BACKBONES}
DEFAULT_SPLIT = (0.48, 0.32, 0.2)
GRAPH_FILES = (EDGES_FILE, FEATURES_FILE, LABELS_FILE, MASKS_FILE)


def _config_keys() -> dict[str, tuple[type, object]]:
    """Config-file key -> (type, default): every table key, plus ``seed``,
    which every command with ``--config`` reads."""
    out = {}
    for cls, keys in (*SETTINGS.items(), (TrainConfig, {"seed": "seed"})):
        hints = typing.get_type_hints(cls)
        defaults = {f.name: f.default for f in dataclasses.fields(cls)}
        out.update((key, (hints[name], SIZE_DEFAULTS.get(key, defaults[name])))
                   for key, name in keys.items())
    return out


CONFIG_KEYS = _config_keys()


# ---- configuration resolution --------------------------------------------


def _checked(path: str, key: str, value):
    """A config-file value of the JSON type its field has; ints count as floats."""
    typ = CONFIG_KEYS[key][0]
    if typ is bool:
        ok, want = isinstance(value, bool), "true or false"
    elif typ is int:
        ok, want = isinstance(value, int) and not isinstance(value, bool), "an integer"
    elif typ is float:
        ok, want = isinstance(value, (int, float)) and not isinstance(value, bool), "a number"
        value = float(value) if ok else value
    else:
        ok, want = value in CHOICES[key], "one of " + ", ".join(CHOICES[key])
    if not ok:
        raise ValueError(f"{path}: {key} must be {want}, got {json.dumps(value)}")
    return value


def _resolve(ns: argparse.Namespace) -> dict:
    """Every config-file key, flag > config file > default. A command without
    a key's flag still takes it from the file, so one file serves them all."""
    path, file_cfg = getattr(ns, "config", None), {}
    if path is not None:
        with open(path, "r", encoding="utf-8") as fh:
            file_cfg = json.load(fh)
        if not isinstance(file_cfg, dict):
            raise ValueError(f"{path}: config must be a JSON object")
        unknown = sorted(set(file_cfg) - set(CONFIG_KEYS))
        if unknown:
            raise ValueError(f"{path}: unknown config keys {unknown}")
        file_cfg = {k: _checked(path, k, v) for k, v in file_cfg.items()}
    out = {}
    for key, (_, default) in CONFIG_KEYS.items():
        flag = getattr(ns, key, None)
        out[key] = flag if flag is not None else file_cfg.get(key, default)
    if out["seed"] < 0:
        raise ValueError(f"seed must be >= 0, got {out['seed']}")
    return out


# ---- data plumbing -------------------------------------------------------


def _sbm_graph(sbm: str, split_text: str | None, seed: int):
    """The ``--sbm`` graph, its split fractions and its input hash. Sampling
    and split seeds come from the master seed's data stream
    (``seed_streams``), clear of the init, dropout and routing streams."""
    parts = sbm.split(",")
    if len(parts) != 6:
        raise ValueError(f"--sbm needs 'n,C,d,p_in,p_out,s', got {sbm!r}")
    n, classes, dim = (int(p) for p in parts[:3])
    p_in, p_out, signal = (float(p) for p in parts[3:])
    split = tuple(float(p) for p in split_text.split(",")) if split_text else DEFAULT_SPLIT
    if len(split) != 3:
        raise ValueError(f"--split needs three comma-separated fractions, got {split_text!r}")
    sbm_ss, split_ss = seed_streams(seed)[2].spawn(2)
    spec = SbmSpec(n=n, classes=classes, dim=dim, p_in=p_in, p_out=p_out,
                   signal=signal, seed=int(sbm_ss.generate_state(1)[0]))
    g = split_nodes(generate_sbm(spec), split, seed=int(split_ss.generate_state(1)[0]))
    return g, split, _sha256(f"{sbm}|{split}|{seed}".encode())


def _obtain_graph(ns: argparse.Namespace, seed: int) -> tuple[Graph, dict]:
    """Returns the graph and a description of its origin for the manifest."""
    if ns.graph_dir:
        for flag in ("sbm", "split"):
            if getattr(ns, flag) is not None:
                raise ValueError(f"--{flag} cannot be combined with --graph-dir")
        g = load_graph_dir(ns.graph_dir)
        files = [Path(ns.graph_dir) / name for name in GRAPH_FILES]
        return g, {"graph_dir": ns.graph_dir,
                   "hash": _sha256(*(b for p in files for b in
                                     (p.name.encode(), p.read_bytes() if p.exists() else b"")))}
    if ns.sbm:
        g, _, digest = _sbm_graph(ns.sbm, ns.split, seed)
        return g, {"sbm": ns.sbm, "hash": digest}
    raise ValueError("provide --graph-dir or --sbm")


def _sha256(*chunks: bytes) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk)
    return "sha256:" + h.hexdigest()


def _scoring_setup(ns: argparse.Namespace, *keys: str):
    """Seed, graph and manifest inputs of eval/stratify, then the checkpoint
    named by each of ``keys`` (``checkpoint``, ``proxy_checkpoint``); each
    checkpoint's path and hash join the inputs."""
    paths = [getattr(ns, key) for key in keys]
    checkpoints = [load_checkpoint(path) for path in paths]
    seed = _resolve(ns)["seed"]
    g, inputs = _obtain_graph(ns, seed)
    for key, path in zip(keys, paths):
        inputs.update({key: str(path), f"{key}_hash": _sha256(Path(path).read_bytes())})
    return seed, g, inputs, *checkpoints


def _write_table(ns: argparse.Namespace, name: str, header: list[str], rows,
                 command: str, seed: int | None, config: dict, inputs: dict) -> None:
    """Write ``<name>.csv`` (floats as their shortest repr) to the output
    directory, then the manifest that lists it."""
    out = _out_dir(ns)
    path = out / f"{name}.csv"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    _write_manifest(out, command, seed, config, inputs, {name: path})
    print(f"wrote {path}")


def _write_manifest(out_dir: Path, command: str, seed: int | None, config: dict,
                    inputs: dict, outputs: dict) -> None:
    manifest = {
        "command": command,
        "seed": seed,
        "config": config,
        "inputs": inputs,
        "outputs": {k: str(v) for k, v in outputs.items()},
        "created_utc": datetime.now(timezone.utc).isoformat(),
        "version": __version__,
    }
    with open(out_dir / "manifest.json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2)
        fh.write("\n")


def _out_dir(ns: argparse.Namespace) -> Path:
    out = Path(ns.out_dir or ".")
    out.mkdir(parents=True, exist_ok=True)
    return out


# ---- subcommands ---------------------------------------------------------


def cmd_gen(ns: argparse.Namespace) -> int:
    seed = _resolve(ns)["seed"]
    g, split, digest = _sbm_graph(ns.sbm, ns.split, seed)
    out = _out_dir(ns)
    write_graph(g, out)
    _write_manifest(out, "gen", seed, {"sbm": ns.sbm, "split": list(split)}, {"hash": digest},
                    {name: out / name for name in GRAPH_FILES})
    print(f"wrote {g.n} nodes, {g.raw_edges.shape[0]} edges to {out}")
    print(f"edge homophily {edge_homophily(g):.4f}")
    return 0


def _variants(ns: argparse.Namespace) -> list:
    names = ns.variant or ["full"]
    for flag, value, name in (("--k", ns.k, "static_topk"), ("--p", ns.p, "fixed_topp")):
        if value is not None and name not in names:
            raise ValueError(f"{flag} applies only to --variant {name}")
    return [make_variant(name, k=ns.k, p=ns.p) for name in names]


def _train_setup(ns: argparse.Namespace):
    """The table's settings by config part for the manifest, then the graph,
    its manifest inputs and both configs of train/ablate."""
    resolved = _resolve(ns)
    g, inputs = _obtain_graph(ns, resolved["seed"])
    fields = {cls: {name: resolved[key] for key, name in keys.items()}
              for cls, keys in SETTINGS.items()}
    mcfg = ModelConfig(in_dim=g.dim, classes=g.n_classes, **fields[ModelConfig])
    tcfg = TrainConfig(seed=resolved["seed"], **fields[TrainConfig])
    record = {part: {key: resolved[key] for key in SETTINGS[cls]}
              for part, cls in (("model", ModelConfig), ("train", TrainConfig))}
    return record, g, inputs, mcfg, tcfg


def cmd_train(ns: argparse.Namespace) -> int:
    if ns.variant and len(ns.variant) > 1:
        raise ValueError("train takes one --variant; ablate compares several")
    (variant,) = _variants(ns)
    record, g, inputs, mcfg, tcfg = _train_setup(ns)

    state = fit(g, mcfg, tcfg, variant=variant)

    out = _out_dir(ns)
    ckpt_path = out / "checkpoint.bin"
    metrics_path = out / "metrics.jsonl"
    save_checkpoint(state.params, ckpt_path)
    write_metrics(state.history, metrics_path)
    _write_manifest(out, "train", tcfg.seed,
                    {**record, "variant": variant_label(variant)},
                    inputs, {"checkpoint": ckpt_path, "metrics": metrics_path})
    best = state.history[state.best_epoch]
    print(f"best epoch {state.best_epoch}: val {best.acc_val:.4f} "
          f"test {best.acc_test:.4f} ({len(state.history)} epochs run)")
    print(f"wrote {ckpt_path} and {metrics_path}")
    return 0


def cmd_eval(ns: argparse.Namespace) -> int:
    seed, g, inputs, params = _scoring_setup(ns, "checkpoint")
    report = evaluate(params, g)
    for split in ("train", "val", "test"):
        print(f"acc_{split} {getattr(report, f'acc_{split}'):.4f}")

    _write_table(ns, "nodes",
                 ["node", "entropy", "threshold", "mean_active", "predicted", "label"],
                 zip(range(g.n), report.entropy.tolist(), report.thresholds.tolist(),
                     report.trace.active_counts().mean(axis=0).tolist(),
                     report.predictions.tolist(), g.labels.tolist()),
                 "eval", seed, {"model": dataclasses.asdict(params.config)}, inputs)
    return 0


def cmd_stratify(ns: argparse.Namespace) -> int:
    seed, g, inputs, params, proxy = _scoring_setup(ns, "checkpoint", "proxy_checkpoint")
    report = evaluate(params, g)
    proxy_entropy = predictive_entropy(evaluate(proxy, g, budget=np.ones(g.n)).probs)
    deciles = stratify_by_entropy(proxy_entropy, g.test_mask, report.predictions,
                                  g.labels, report.trace)

    n_layers = len(deciles[0].mean_active_per_layer)
    _write_table(ns, "deciles", ["bucket", "entropy_lo", "entropy_hi", "count", "accuracy"]
                 + [f"active_l{i}" for i in range(n_layers)],
                 ([i, b.entropy_lo, b.entropy_hi, b.count, b.accuracy, *b.mean_active_per_layer]
                  for i, b in enumerate(deciles)),
                 "stratify", seed, {"model": dataclasses.asdict(params.config),
                                    "proxy": dataclasses.asdict(proxy.config)}, inputs)
    return 0


def _ablation_seeds(text: str) -> list[int]:
    """``--seeds`` as distinct non-negative integers, in the given order."""
    parts = [s.strip() for s in text.split(",")]
    if not all(s.isdecimal() for s in parts):
        raise ValueError(f"--seeds needs comma-separated non-negative integers, got {text!r}")
    seeds = [int(s) for s in parts]
    if len(set(seeds)) != len(seeds):
        raise ValueError(f"--seeds repeats a seed: {text!r}")
    return seeds


def cmd_ablate(ns: argparse.Namespace) -> int:
    seeds = _ablation_seeds(ns.seeds)
    if ns.jobs < 1:
        raise ValueError(f"--jobs must be at least 1, got {ns.jobs}")
    variants = _variants(ns)
    record, g, inputs, mcfg, tcfg = _train_setup(ns)

    rows = []
    for variant in variants:
        res = run_ablation(g, mcfg, tcfg, variant, seeds, jobs=ns.jobs)
        rows.append([res.variant, res.mean, res.std, *res.per_seed])
        print(f"{res.variant}: {res.mean:.4f} +/- {res.std:.4f}")
    _write_table(ns, "ablation", ["variant", "mean", "std"] + [f"seed{s}" for s in seeds], rows,
                 "ablate", tcfg.seed, {**record, "variants": [variant_label(v) for v in variants],
                                       "seeds": seeds, "jobs": ns.jobs}, inputs)
    return 0


def cmd_theory(ns: argparse.Namespace) -> int:
    mus = [float(x) for x in ns.mu.split(",")]
    phis = [float(x) for x in ns.phi.split(",")]
    if not 0.0 < ns.u_min < ns.u_max <= 1.0:  # NaN fails too
        raise ValueError(f"--u-min and --u-max need 0 < u_min < u_max <= 1, "
                         f"got --u-min {ns.u_min} --u-max {ns.u_max}")
    u_grid = np.geomspace(ns.u_min, ns.u_max, ns.u_points)
    rows = []
    for mu in mus:
        for phi in phis:
            sp = ScalingParams(beta=ns.beta, mu=mu, alpha=ns.alpha, phi=phi,
                               rho=ns.rho, eps=ns.noise)
            block = scaling_rows(sp, u_grid, k_max=ns.k_max)
            rows += [dataclasses.astuple(row) for row in block]
            print(f"mu={mu:g} phi={phi:g}: fitted slope {block[0].fitted_slope:.4f}")
    flags = {k: v for k, v in vars(ns).items() if k not in ("command", "out_dir", "func")}
    _write_table(ns, "scaling", [f.name for f in dataclasses.fields(ScalingRow)], rows,
                 "theory", None, {**flags, "mu": mus, "phi": phis}, {})
    return 0


# ---- parser --------------------------------------------------------------


def _add_run_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--graph-dir", help="directory with edges.tsv/features.csv/labels.txt")
    p.add_argument("--sbm", help="inline block model: 'n,C,d,p_in,p_out,s'")
    p.add_argument("--split", help="train,val,test fractions for --sbm (default 0.48,0.32,0.2)")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--config", help="JSON config file; flags override its values")
    p.add_argument("--out-dir", default=None)


def _add_setting_flags(p: argparse.ArgumentParser) -> None:
    """One flag per table key, typed like its field, plus the variant flags."""
    for keys in SETTINGS.values():
        for key in keys:
            typ = CONFIG_KEYS[key][0]
            kw = {"action": "store_true"} if typ is bool else {"type": typ,
                                                                "choices": CHOICES.get(key)}
            p.add_argument("--" + key.replace("_", "-"), default=None, **kw,
                           help="recompute the budget entropies with updated parameters"
                                if key == "strict_proxy" else None)
    p.add_argument("--variant", action="append",
                   help=", ".join(VARIANT_NAMES) + " (ablate: repeatable)")
    p.add_argument("--k", type=int, default=None, help="expert count for static_topk")
    p.add_argument("--p", type=float, default=None, help="threshold for fixed_topp")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="d2moe",
        description="Difficulty-aware mixture-of-experts for graph node classification")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="sample a block-model graph to disk")
    p.add_argument("--sbm", required=True, help="'n,C,d,p_in,p_out,s'")
    p.add_argument("--split", help="train,val,test fractions (default 0.48,0.32,0.2)")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out-dir", default=None)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("train", help="train a model and write checkpoint + metrics")
    _add_run_flags(p)
    _add_setting_flags(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="score a checkpoint with adaptive budgets")
    p.add_argument("--checkpoint", required=True)
    _add_run_flags(p)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("stratify", help="entropy-decile report against a proxy")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--proxy-checkpoint", required=True)
    _add_run_flags(p)
    p.set_defaults(func=cmd_stratify)

    p = sub.add_parser("ablate", help="multi-seed accuracy table across variants")
    _add_run_flags(p)
    _add_setting_flags(p)
    p.add_argument("--seeds", default="0,1,2,3,4", help="comma-separated training seeds")
    p.add_argument("--jobs", type=int, default=1, help="parallel workers across seeds")
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("theory", help="scaling-law table for the error model")
    p.add_argument("--beta", type=float, default=0.01)
    p.add_argument("--mu", default="1", help="comma-separated exponents")
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--phi", default="1", help="comma-separated exponents")
    p.add_argument("--rho", type=float, default=0.0)
    p.add_argument("--noise", type=float, default=0.0, help="additive error floor")
    p.add_argument("--u-min", type=float, default=0.05)
    p.add_argument("--u-max", type=float, default=1.0)
    p.add_argument("--u-points", type=int, default=24)
    p.add_argument("--k-max", type=float, default=16.0)
    p.add_argument("--out-dir", default=None)
    p.set_defaults(func=cmd_theory)

    return parser


def main(argv=None) -> int:
    logging.basicConfig(
        level=getattr(logging, os.environ.get("D2MOE_LOG", "WARNING").upper(),
                      logging.WARNING),
        format="%(levelname)s %(name)s: %(message)s")
    ns = build_parser().parse_args(argv)
    try:
        return ns.func(ns)
    except TrainingDivergence as err:
        print(f"error: training diverged at {err}", file=sys.stderr)
        return 1
    except MemoryError as err:
        print(f"error: out of memory{f': {err}' if str(err) else ''}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
