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
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import (
    run_ablation,
    stratify_by_entropy,
    variant_label,
)
from .graph import (
    EDGES_FILE,
    FEATURES_FILE,
    LABELS_FILE,
    MASKS_FILE,
    Graph,
    GraphFormatError,
    SbmSpec,
    edge_homophily,
    generate_sbm,
    load_graph_dir,
    split_nodes,
    write_graph,
)
from .moe_core import (
    CheckpointError,
    ModelConfig,
    evaluate,
    load_checkpoint,
    save_checkpoint,
)
from .theory import ScalingParams, scaling_rows
from .training import (
    TrainConfig,
    TrainingDivergence,
    fit,
    make_variant,
    write_metrics,
)

log = logging.getLogger(__name__)

MODEL_DEFAULTS = {
    "hidden": 64, "experts": 4, "layers": 2, "dropout": 0.5, "gamma": 5.0,
    "batch_norm": False, "expert_layout": "all_1hop", "backbone": "gcn",
}
TRAIN_DEFAULTS = {
    "epochs": 500, "patience": 100, "lr": 0.01, "weight_decay": 5e-4,
    "lambda_re": 1e-4, "lambda_lb": 1e-3, "strict_proxy": False,
}
DEFAULT_SEED = 0
DEFAULT_SPLIT = (0.48, 0.32, 0.2)


# ---- configuration resolution --------------------------------------------


def _load_config_file(path: str | None) -> dict:
    if path is None:
        return {}
    with open(path, "r", encoding="utf-8") as fh:
        cfg = json.load(fh)
    if not isinstance(cfg, dict):
        raise ValueError(f"{path}: config must be a JSON object")
    known = set(MODEL_DEFAULTS) | set(TRAIN_DEFAULTS) | {"seed"}
    unknown = set(cfg) - known
    if unknown:
        raise ValueError(f"{path}: unknown config keys {sorted(unknown)}")
    return cfg


def _resolve(ns: argparse.Namespace, file_cfg: dict, defaults: dict) -> dict:
    """Flag > config file > built-in default, per key."""
    out = {}
    for key, default in defaults.items():
        flag = getattr(ns, key, None)
        out[key] = flag if flag is not None else file_cfg.get(key, default)
    return out


def _resolve_seed(ns: argparse.Namespace, file_cfg: dict) -> int:
    seed = getattr(ns, "seed", None)
    if seed is None:
        seed = file_cfg.get("seed", DEFAULT_SEED)
    return int(seed)


def _model_config(g: Graph, resolved: dict) -> ModelConfig:
    return ModelConfig(in_dim=g.dim, hidden=resolved["hidden"], classes=g.n_classes,
                       experts=resolved["experts"], layers=resolved["layers"],
                       dropout=resolved["dropout"], gamma=resolved["gamma"],
                       use_batch_norm=bool(resolved["batch_norm"]),
                       expert_layout=resolved["expert_layout"],
                       backbone=resolved["backbone"])


def _train_config(resolved: dict, seed: int) -> TrainConfig:
    return TrainConfig(max_epochs=resolved["epochs"], patience=resolved["patience"],
                       lr=resolved["lr"], weight_decay=resolved["weight_decay"],
                       lambda_re=resolved["lambda_re"], lambda_lb=resolved["lambda_lb"],
                       strict_proxy=bool(resolved["strict_proxy"]), seed=seed)


# ---- data plumbing -------------------------------------------------------


def _parse_sbm(text: str, seed: int) -> SbmSpec:
    parts = text.split(",")
    if len(parts) != 6:
        raise ValueError(f"--sbm needs 'n,C,d,p_in,p_out,s', got {text!r}")
    n, classes, dim = (int(p) for p in parts[:3])
    p_in, p_out, signal = (float(p) for p in parts[3:])
    return SbmSpec(n=n, classes=classes, dim=dim, p_in=p_in, p_out=p_out,
                   signal=signal, seed=seed)


def _data_seeds(master: int) -> tuple[int, int]:
    """Graph-sampling and split seeds, both derived from the master seed's
    data stream so they stay clear of the init and dropout streams."""
    data_ss = np.random.SeedSequence(master).spawn(4)[2]
    sbm_ss, split_ss = data_ss.spawn(2)
    return int(sbm_ss.generate_state(1)[0]), int(split_ss.generate_state(1)[0])


def _parse_split(text: str) -> tuple[float, float, float]:
    parts = tuple(float(p) for p in text.split(","))
    if len(parts) != 3:
        raise ValueError(f"--split needs three comma-separated fractions, got {text!r}")
    return parts


def _obtain_graph(ns: argparse.Namespace, seed: int) -> tuple[Graph, dict]:
    """Returns the graph and a description of its origin for the manifest."""
    if getattr(ns, "graph_dir", None):
        g = load_graph_dir(ns.graph_dir)
        return g, {"graph_dir": ns.graph_dir, "hash": _hash_graph_dir(ns.graph_dir)}
    if getattr(ns, "sbm", None):
        sbm_seed, split_seed = _data_seeds(seed)
        spec = _parse_sbm(ns.sbm, sbm_seed)
        split = _parse_split(ns.split) if getattr(ns, "split", None) else DEFAULT_SPLIT
        g = split_nodes(generate_sbm(spec), split, seed=split_seed)
        return g, {"sbm": ns.sbm, "hash": _hash_text(f"{ns.sbm}|{split}|{seed}")}
    raise ValueError("provide --graph-dir or --sbm")


def _hash_text(text: str) -> str:
    return "sha256:" + hashlib.sha256(text.encode("utf-8")).hexdigest()


def _hash_graph_dir(graph_dir: str) -> str:
    h = hashlib.sha256()
    for name in (EDGES_FILE, FEATURES_FILE, LABELS_FILE, MASKS_FILE):
        path = Path(graph_dir) / name
        h.update(name.encode())
        if path.exists():
            h.update(path.read_bytes())
    return "sha256:" + h.hexdigest()


def _hash_file(path) -> str:
    return "sha256:" + hashlib.sha256(Path(path).read_bytes()).hexdigest()


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
    out = Path(getattr(ns, "out_dir", None) or ".")
    out.mkdir(parents=True, exist_ok=True)
    return out


# ---- subcommands ---------------------------------------------------------


def cmd_gen(ns: argparse.Namespace) -> int:
    seed = ns.seed if ns.seed is not None else DEFAULT_SEED
    sbm_seed, split_seed = _data_seeds(seed)
    spec = _parse_sbm(ns.sbm, sbm_seed)
    split = _parse_split(ns.split) if ns.split else DEFAULT_SPLIT
    g = split_nodes(generate_sbm(spec), split, seed=split_seed)
    out = _out_dir(ns)
    write_graph(g, out)
    _write_manifest(out, "gen", seed, {"sbm": ns.sbm, "split": list(split)},
                    {"hash": _hash_text(f"{ns.sbm}|{split}|{seed}")},
                    {name: out / name for name in
                     (EDGES_FILE, FEATURES_FILE, LABELS_FILE, MASKS_FILE)})
    print(f"wrote {g.n} nodes, {g.raw_edges.shape[0]} edges to {out}")
    print(f"edge homophily {edge_homophily(g):.4f}")
    return 0


def _variant_from(ns: argparse.Namespace, name: str):
    return make_variant(name, k=getattr(ns, "k", None), p=getattr(ns, "p", None))


def cmd_train(ns: argparse.Namespace) -> int:
    file_cfg = _load_config_file(ns.config)
    seed = _resolve_seed(ns, file_cfg)
    g, inputs = _obtain_graph(ns, seed)
    model_kw = _resolve(ns, file_cfg, MODEL_DEFAULTS)
    train_kw = _resolve(ns, file_cfg, TRAIN_DEFAULTS)
    mcfg = _model_config(g, model_kw)
    tcfg = _train_config(train_kw, seed)
    variant = _variant_from(ns, ns.variant or "full")

    state = fit(g, mcfg, tcfg, variant=variant)

    out = _out_dir(ns)
    ckpt_path = out / "checkpoint.bin"
    metrics_path = out / "metrics.jsonl"
    save_checkpoint(state.params, ckpt_path)
    write_metrics(state.history, metrics_path)
    _write_manifest(out, "train", seed,
                    {"model": model_kw, "train": train_kw,
                     "variant": variant_label(variant)},
                    inputs, {"checkpoint": ckpt_path, "metrics": metrics_path})
    best = state.history[state.best_epoch]
    print(f"best epoch {state.best_epoch}: val {best.acc_val:.4f} "
          f"test {best.acc_test:.4f} ({len(state.history)} epochs run)")
    print(f"wrote {ckpt_path} and {metrics_path}")
    return 0


def cmd_eval(ns: argparse.Namespace) -> int:
    params = load_checkpoint(ns.checkpoint)
    seed = ns.seed if ns.seed is not None else DEFAULT_SEED
    g, inputs = _obtain_graph(ns, seed)
    inputs["checkpoint"] = str(ns.checkpoint)
    inputs["checkpoint_hash"] = _hash_file(ns.checkpoint)
    cfg = params.config
    if cfg.in_dim != g.dim or cfg.classes != g.n_classes:
        raise ValueError(
            f"checkpoint expects {cfg.in_dim}-dim features over {cfg.classes} "
            f"classes; graph has {g.dim} and {g.n_classes}")

    report = evaluate(params, g)
    for split in ("train", "val", "test"):
        print(f"acc_{split} {getattr(report, f'acc_{split}'):.4f}")

    out = _out_dir(ns)
    nodes_path = out / "nodes.csv"
    mean_active = report.trace.active_counts().mean(axis=0)
    with open(nodes_path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["node", "entropy", "threshold", "mean_active",
                         "predicted", "label"])
        for v in range(g.n):
            writer.writerow([v, repr(float(report.entropy[v])),
                             repr(float(report.thresholds[v])),
                             repr(float(mean_active[v])),
                             int(report.predictions[v]), int(g.labels[v])])
    _write_manifest(out, "eval", seed, {"model": dataclasses.asdict(cfg)},
                    inputs, {"nodes": nodes_path})
    print(f"wrote {nodes_path}")
    return 0


def cmd_stratify(ns: argparse.Namespace) -> int:
    params = load_checkpoint(ns.checkpoint)
    proxy = load_checkpoint(ns.proxy_checkpoint)
    seed = ns.seed if ns.seed is not None else DEFAULT_SEED
    g, inputs = _obtain_graph(ns, seed)
    inputs["checkpoint"] = str(ns.checkpoint)
    inputs["checkpoint_hash"] = _hash_file(ns.checkpoint)
    inputs["proxy_checkpoint"] = str(ns.proxy_checkpoint)
    inputs["proxy_checkpoint_hash"] = _hash_file(ns.proxy_checkpoint)
    report = evaluate(params, g)
    proxy_probs = evaluate(proxy, g, budget=np.ones(g.n)).probs
    deciles = stratify_by_entropy(proxy_probs, g.test_mask, report.predictions,
                                  g.labels, report.trace)

    out = _out_dir(ns)
    path = out / "deciles.csv"
    n_layers = len(deciles.buckets[0].mean_active_per_layer)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["bucket", "entropy_lo", "entropy_hi", "count", "accuracy"]
                        + [f"active_l{i}" for i in range(n_layers)])
        for i, b in enumerate(deciles.buckets):
            writer.writerow([i, repr(b.entropy_lo), repr(b.entropy_hi), b.count,
                             repr(b.accuracy)] + [repr(a) for a in b.mean_active_per_layer])
    _write_manifest(out, "stratify", seed,
                    {"model": dataclasses.asdict(params.config),
                     "proxy": dataclasses.asdict(proxy.config)},
                    inputs, {"deciles": path})
    print(f"wrote {path}")
    return 0


def cmd_ablate(ns: argparse.Namespace) -> int:
    file_cfg = _load_config_file(ns.config)
    seed = _resolve_seed(ns, file_cfg)
    g, inputs = _obtain_graph(ns, seed)
    model_kw = _resolve(ns, file_cfg, MODEL_DEFAULTS)
    train_kw = _resolve(ns, file_cfg, TRAIN_DEFAULTS)
    mcfg = _model_config(g, model_kw)
    tcfg = _train_config(train_kw, seed)
    seeds = [int(s) for s in ns.seeds.split(",")]
    names = ns.variant or ["full"]
    variants = [_variant_from(ns, name) for name in names]

    out = _out_dir(ns)
    path = out / "ablation.csv"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["variant", "mean", "std"] + [f"seed{s}" for s in seeds])
        for variant in variants:
            res = run_ablation(g, mcfg, tcfg, variant, seeds, jobs=ns.jobs)
            writer.writerow([res.variant, repr(res.mean), repr(res.std)]
                            + [repr(a) for a in res.per_seed])
            print(f"{res.variant}: {res.mean:.4f} +/- {res.std:.4f}")
    _write_manifest(out, "ablate", seed,
                    {"model": model_kw, "train": train_kw,
                     "variants": [variant_label(v) for v in variants],
                     "seeds": seeds, "jobs": ns.jobs},
                    inputs, {"ablation": path})
    print(f"wrote {path}")
    return 0


def cmd_theory(ns: argparse.Namespace) -> int:
    mus = [float(x) for x in ns.mu.split(",")]
    phis = [float(x) for x in ns.phi.split(",")]
    u_grid = np.geomspace(ns.u_min, ns.u_max, ns.u_points)
    out = _out_dir(ns)
    path = out / "scaling.csv"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["mu", "phi", "rho", "u", "k_bruteforce",
                         "k_closed_form", "fitted_slope"])
        for mu in mus:
            for phi in phis:
                sp = ScalingParams(beta=ns.beta, mu=mu, alpha=ns.alpha, phi=phi,
                                   rho=ns.rho, eps=ns.noise)
                rows = scaling_rows(sp, u_grid, k_max=ns.k_max)
                for row in rows:
                    writer.writerow([repr(row.mu), repr(row.phi), repr(row.rho),
                                     repr(row.u), repr(row.k_bruteforce),
                                     repr(row.k_closed_form), repr(row.fitted_slope)])
                print(f"mu={mu:g} phi={phi:g}: fitted slope {rows[0].fitted_slope:.4f}")
    _write_manifest(out, "theory", None,
                    {"beta": ns.beta, "mu": mus, "alpha": ns.alpha, "phi": phis,
                     "rho": ns.rho, "noise": ns.noise, "u_min": ns.u_min,
                     "u_max": ns.u_max, "u_points": ns.u_points,
                     "k_max": ns.k_max},
                    {}, {"scaling": path})
    print(f"wrote {path}")
    return 0


# ---- parser --------------------------------------------------------------


def _add_data_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--graph-dir", help="directory with edges.tsv/features.csv/labels.txt")
    p.add_argument("--sbm", help="inline block model: 'n,C,d,p_in,p_out,s'")
    p.add_argument("--split", help="train,val,test fractions for --sbm (default 0.48,0.32,0.2)")


def _add_common_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--config", help="JSON config file; flags override its values")
    p.add_argument("--out-dir", default=None)


def _add_model_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--hidden", type=int, default=None)
    p.add_argument("--experts", type=int, default=None, metavar="K")
    p.add_argument("--layers", type=int, default=None, metavar="L")
    p.add_argument("--gamma", type=float, default=None)
    p.add_argument("--dropout", type=float, default=None)
    p.add_argument("--expert-layout", choices=["all_1hop", "half_half"], default=None)
    p.add_argument("--backbone", choices=["gcn", "sage"], default=None)
    p.add_argument("--batch-norm", action="store_true", default=None)


def _add_train_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--patience", type=int, default=None)
    p.add_argument("--lr", type=float, default=None)
    p.add_argument("--weight-decay", type=float, default=None)
    p.add_argument("--lambda-re", type=float, default=None)
    p.add_argument("--lambda-lb", type=float, default=None)
    p.add_argument("--strict-proxy", action="store_true", default=None,
                   help="recompute the budget entropies with updated parameters")


def _add_variant_flags(p: argparse.ArgumentParser, repeatable: bool) -> None:
    if repeatable:
        p.add_argument("--variant", action="append",
                       help="repeatable: full, static_topk, fixed_topp, "
                            "random_topp, no_re, no_lb")
    else:
        p.add_argument("--variant", default=None,
                       help="full, static_topk, fixed_topp, random_topp, no_re, no_lb")
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
    _add_data_flags(p)
    _add_common_flags(p)
    _add_model_flags(p)
    _add_train_flags(p)
    _add_variant_flags(p, repeatable=False)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="score a checkpoint with adaptive budgets")
    p.add_argument("--checkpoint", required=True)
    _add_data_flags(p)
    _add_common_flags(p)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("stratify", help="entropy-decile report against a proxy")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--proxy-checkpoint", required=True)
    _add_data_flags(p)
    _add_common_flags(p)
    p.set_defaults(func=cmd_stratify)

    p = sub.add_parser("ablate", help="multi-seed accuracy table across variants")
    _add_data_flags(p)
    _add_common_flags(p)
    _add_model_flags(p)
    _add_train_flags(p)
    _add_variant_flags(p, repeatable=True)
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
    except (GraphFormatError, CheckpointError, ValueError,
            OSError, json.JSONDecodeError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
