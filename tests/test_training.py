"""Objective values against hand-computed cases, optimizer against a scalar
replica, and the training loop's budget bootstrap checked causally."""

import dataclasses
import itertools
import json
import os
import platform
import subprocess
import sys
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from d2moe import training
from d2moe.graph import SbmSpec, generate_sbm, split_nodes
from d2moe.moe_core import (
    ForwardResult,
    LayerTrace,
    ModelConfig,
    ModelParams,
    RoutingTrace,
    _param_layout,
    evaluate,
    forward,
    init_params,
    map_budget,
    predictive_entropy,
)
from d2moe.numerics import Const, Tape
from d2moe.training import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    GRAD_CLIP,
    AdamState,
    EpochReport,
    FixedTopP,
    Full,
    RandomTopP,
    TopK,
    TrainConfig,
    TrainingDivergence,
    _train_step,
    adamw_step,
    clip_global_norm,
    fit,
    losses_on_tape,
    make_variant,
    write_metrics,
)


def _layer(pi, selected):
    pi = np.asarray(pi, dtype=np.float64)
    return LayerTrace(pi=pi, selected=np.asarray(selected, dtype=bool))


def _losses(layers, probs=None, labels=None, train_mask=None):
    """``losses_on_tape`` over hand-built router rows put on a tape as leaves.
    Without ``probs`` every node predicts uniformly over two classes."""
    n = layers[0].pi.shape[0]
    probs = np.full((n, 2), 0.5) if probs is None else probs
    labels = np.zeros(n, int) if labels is None else labels
    train_mask = np.ones(n, bool) if train_mask is None else train_mask
    tape = Tape()
    fw = ForwardResult(probs=tape.leaf(probs), layer_pis=[tape.leaf(lt.pi) for lt in layers],
                       trace=RoutingTrace(layers), tape=tape, leaf_vars={})
    g = SimpleNamespace(labels=labels, mask_idx=lambda split: np.flatnonzero(train_mask))
    return losses_on_tape(fw, g, lam1=1.0, lam2=1.0)


def routing_entropy_loss(*layers):
    return _losses(list(layers))[2]


def load_balance_loss(*layers):
    return _losses(list(layers))[3]


def _sbm_graph(n=200, classes=4, dim=8, p_in=0.15, p_out=0.01, signal=3.0, seed=3):
    g = generate_sbm(SbmSpec(n=n, classes=classes, dim=dim, p_in=p_in,
                             p_out=p_out, signal=signal, seed=seed))
    return split_nodes(g, (0.48, 0.32, 0.2), seed=seed + 1)


# ---- loss values ---------------------------------------------------------


def test_routing_entropy_one_hot_is_zero():
    pi = np.eye(4)[np.array([0, 1, 2, 3, 0, 2])]
    assert routing_entropy_loss(_layer(pi, np.ones_like(pi, dtype=bool))) == 0.0


def test_routing_entropy_uniform_is_log_k():
    k = 5
    pi = np.full((7, k), 1.0 / k)
    val = routing_entropy_loss(_layer(pi, np.ones_like(pi, dtype=bool)))
    assert val == pytest.approx(np.log(k), rel=1e-12)


def test_routing_entropy_half_half_is_log_2():
    pi = np.array([[0.5, 0.5, 0.0, 0.0]] * 3)
    val = routing_entropy_loss(_layer(pi, pi > 0))
    assert val == pytest.approx(np.log(2.0), rel=1e-12)


def test_routing_entropy_averages_over_layers():
    k = 4
    uniform = _layer(np.full((6, k), 0.25), np.ones((6, k), bool))
    onehot = _layer(np.eye(k)[np.zeros(6, int)], np.ones((6, k), bool))
    assert routing_entropy_loss(uniform, onehot) == pytest.approx(np.log(k) / 2.0, rel=1e-12)


def test_load_balance_balanced_top1_is_one():
    # 8 nodes, 4 experts, each expert picked by exactly 2 nodes with a
    # one-hot router row: f_i = Q_i = 1/4, so K * sum f_i Q_i = 1.
    assign = np.array([0, 1, 2, 3, 0, 1, 2, 3])
    pi = np.eye(4)[assign]
    assert load_balance_loss(_layer(pi, pi > 0)) == pytest.approx(1.0, abs=1e-15)


def test_load_balance_collapse_is_k():
    pi = np.eye(4)[np.zeros(8, int)]
    assert load_balance_loss(_layer(pi, pi > 0)) == pytest.approx(4.0, abs=1e-15)


def test_load_balance_uniform_all_selected_is_k():
    # Everything selected (f_i = 1) with uniform rows (Q_i = 1/K): K * K/K = K.
    pi = np.full((6, 4), 0.25)
    assert load_balance_loss(_layer(pi, np.ones((6, 4), bool))) == pytest.approx(4.0)


def test_load_balance_sums_over_layers():
    pi = np.eye(2)[np.array([0, 1, 0, 1])]
    assert load_balance_loss(*[_layer(pi, pi > 0)] * 3) == pytest.approx(3.0, abs=1e-14)


def test_load_balance_enumeration_minimum_at_balance():
    """Over all 2^8 hard top-1 assignments of 8 nodes to 2 experts (router
    rows one-hot and matching), the loss is minimized exactly by the balanced
    assignments, where it equals 1."""
    def hard(assign):
        pi = np.eye(2)[list(assign)]
        return load_balance_loss(_layer(pi, pi > 0))

    best = min(hard(a) for a in itertools.product([0, 1], repeat=8))
    balanced = hard([0, 1] * 4)
    assert best == pytest.approx(1.0, abs=1e-15)
    assert balanced == best
    assert hard([0] * 6 + [1] * 2) > balanced


def test_task_loss_hand_case():
    probs = np.array([[0.5, 0.5], [0.25, 0.75], [0.9, 0.1]])
    labels = np.array([0, 1, 1])
    mask = np.array([True, True, False])
    expected = -(np.log(0.5) + np.log(0.75)) / 2.0
    uniform = _layer(np.full((3, 2), 0.5), np.ones((3, 2), bool))
    assert _losses([uniform], probs, labels, mask)[1] == pytest.approx(expected, rel=1e-14)


def test_task_loss_empty_mask_rejected():
    uniform = _layer(np.full((2, 2), 0.5), np.ones((2, 2), bool))
    with pytest.raises(ValueError):
        _losses([uniform], np.ones((2, 2)) / 2, np.zeros(2, int), np.zeros(2, bool))


# ---- losses on tape vs plain values --------------------------------------


def _tiny_forward(seed=0, layers=2, **cfg_kw):
    g = _sbm_graph(n=40, classes=2, dim=4, p_in=0.3, p_out=0.05, signal=2.0, seed=seed)
    cfg = ModelConfig(in_dim=4, hidden=8, classes=2, experts=3, layers=layers,
                      dropout=0.0, **cfg_kw)
    params = init_params(cfg, np.random.default_rng(seed + 10))
    fw = forward(params, g, np.full(g.n, 0.7), mode="train")
    return g, params, fw


def test_tape_losses_match_plain_values():
    """The tape objective against plain numpy: mean true-class NLL over the
    training nodes, router entropy averaged over nodes and layers, and per
    layer K * sum_i f_i * Q_i summed over layers."""
    g, _, fw = _tiny_forward()
    lam1, lam2 = 0.01, 0.1
    total_var, task_loss, entropy_loss, balance_loss = losses_on_tape(fw, g, lam1=lam1,
                                                                      lam2=lam2)
    idx = g.mask_idx("train")
    task = -np.log(fw.probs.value[idx, g.labels[idx]]).mean()
    pis = [lt.pi for lt in fw.trace.layers]
    entropy = -sum((p * np.log(p)).sum() for p in pis) / (g.n * len(pis))
    balance = sum(p.shape[1] * (lt.selected.mean(axis=0) * p.mean(axis=0)).sum()
                  for p, lt in zip(pis, fw.trace.layers))
    assert task_loss == pytest.approx(task, rel=1e-12)
    assert entropy_loss == pytest.approx(entropy, rel=1e-12)
    assert balance_loss == pytest.approx(balance, rel=1e-12)
    assert total_var.item() == pytest.approx(
        task_loss + lam1 * entropy_loss + lam2 * balance_loss, rel=1e-14)


@pytest.mark.parametrize("layers", [1, 2, 3], ids=lambda l: f"L={l}")
def test_objective_records_two_steps(layers):
    """The objective is masked_nll, then routing_penalty, at any depth."""
    g, _, fw = _tiny_forward(layers=layers)
    before = len(fw.tape._steps)
    losses_on_tape(fw, g, lam1=0.01, lam2=0.1)
    assert len(fw.tape._steps) - before == 2


def test_zero_lambda_gradients_match_task_only():
    """With both weights at zero the regularizer branches contribute exact
    zeros, so parameter gradients equal a pure task backward bitwise."""
    g, params, fw = _tiny_forward(seed=4)
    total_var = losses_on_tape(fw, g, lam1=0.0, lam2=0.0)[0]
    task_var = fw.tape.masked_nll(fw.probs, g.labels, g.mask_idx("train"))
    fw.tape.backward(total_var)
    with_reg = {n: fw.leaf_vars[n].grad.copy() for n in params.tensors}
    fw.tape.backward(task_var)
    for name in params.tensors:
        assert np.array_equal(with_reg[name], fw.leaf_vars[name].grad), name


def test_balance_gradient_flows_only_through_mean_probability():
    """d L_LB / d pi must be the constant field K * f / N: shifting every
    selection frequency by the same amount changes the loss value but not
    any parameter gradient, because the rows of pi each sum to one."""
    _, params, fw = _tiny_forward(seed=2)

    def lb_grads(shift):
        freqs = [lt.selected.mean(axis=0) + shift for lt in fw.trace.layers]
        lb = fw.tape.routing_penalty(Const(np.zeros((1, 1))), fw.layer_pis, freqs,
                                     0.0, 1.0)[0]
        fw.tape.backward(lb)
        return lb.item(), {name: fw.leaf_vars[name].grad.copy() for name in params.tensors}

    val0, g0 = lb_grads(0.0)
    val1, g1 = lb_grads(0.25)
    assert val1 != pytest.approx(val0)  # the value does move
    for name in g0:
        assert np.allclose(g0[name], g1[name], atol=1e-10), name


def test_balance_gradient_wrt_pi_is_k_f_over_n():
    rng = np.random.default_rng(0)
    raw = rng.random((6, 3))
    tape = Tape()
    pi = tape.leaf(raw / raw.sum(axis=1, keepdims=True))
    f = np.array([0.5, 0.25, 0.25])
    lb = tape.routing_penalty(Const(np.zeros((1, 1))), [pi], [f], 0.0, 1.0)[0]
    tape.backward(lb)
    # The router distribution is a leaf here, so its gradient is kept: it is
    # K*f/N for every row.
    expected = 3 * f / 6
    assert np.allclose(pi.grad, np.tile(expected, (6, 1)), atol=1e-15)


# ---- optimizer -----------------------------------------------------------


def test_decay_rule_names():
    """The layout's decay flags, over every layout, backbone, norm, K and L,
    agree with a rule written from the names alone, and a name keeps one
    flag in every configuration that has it."""
    flags = {}
    for layout, backbone, norm, k, l in itertools.product(
            ("all_1hop", "half_half"), ("gcn", "sage"), (False, True), (1, 3, 4), (1, 2)):
        for name, _, _, decays in _param_layout(_model_cfg(
                expert_layout=layout, backbone=backbone, use_batch_norm=norm,
                experts=k, layers=l)):
            assert flags.setdefault(name, decays) == decays, name
    assert flags["embed.w"]
    assert flags["head.w"]
    assert flags["layer0.expert2.wa"]  # half_half with K=3
    assert flags["layer1.expert3.wb"]
    assert flags["layer0.expert2.w_self"]
    assert flags["layer0.expert2.w_nbr"]
    assert not flags["embed.b"]
    assert not flags["head.b"]
    assert not flags["layer0.expert0.b"]
    assert not flags["layer0.router.w1"]
    assert not flags["layer0.router.w2"]
    assert not flags["layer0.norm.gamma"]
    assert not flags["layer0.norm.running_mean"]

    def old_rule(name):  # the rule before the layout declared decay
        if ".router." in name or ".norm." in name:
            return False
        return name.rsplit(".", 1)[-1] in ("w", "wa", "wb", "w_self", "w_nbr")

    assert {"layer1.expert3.wb", "layer0.expert0.w_nbr", "layer1.norm.beta"} <= flags.keys()
    assert [name for name in sorted(flags) if flags[name] != old_rule(name)] == []


def _one_wide_params(seed=0, **kw):
    """Width-1 embedding, one expert and one layer: 33 values (37 with batch
    norm), every decay class among them."""
    cfg = ModelConfig(in_dim=1, hidden=1, classes=2, experts=1, layers=1, dropout=0.0, **kw)
    return init_params(cfg, np.random.default_rng(seed))


def test_adamw_zero_gradient_only_decays_weights():
    p = _one_wide_params()
    p.tensors["embed.w"][...] = 2.0
    p.tensors["embed.b"][...] = 3.0
    before = p.copy()
    adamw_step(p, np.zeros(p.flat.size), AdamState(p.flat.size),
               TrainConfig(lr=0.1, weight_decay=0.5))
    assert p.tensors["embed.w"][0, 0] == pytest.approx(2.0 * (1 - 0.1 * 0.5), rel=1e-6)
    assert p.tensors["embed.b"][0, 0] == 3.0
    for name, arr in p.tensors.items():
        if name.endswith(".w"):
            np.testing.assert_allclose(arr, before.tensors[name] * (1 - 0.1 * 0.5), rtol=1e-6)
        else:
            assert arr.tobytes() == before.tensors[name].tobytes(), name


def test_adamw_descends_quadratic():
    p = _one_wide_params()
    p.flat[:] = 10.0
    cfg = TrainConfig(lr=0.2, weight_decay=0.0)
    state = AdamState(p.flat.size)
    for _ in range(300):
        adamw_step(p, 2.0 * (p.flat.astype(np.float64) - 3.0), state, cfg)
    np.testing.assert_allclose(p.flat, 3.0, atol=1e-3)


@pytest.mark.parametrize("block", [None, 5], ids=["one-slice", "8-slices"])
def test_adamw_matches_scalar_replica(monkeypatch, block):
    """Ten steps against an independent scalar AdamW with the same float32
    parameter storage and float64 moments, element by element; with slices
    of 5 the 37 values span 8 slices, the last one partial."""
    if block is not None:
        monkeypatch.setattr("d2moe.training.ADAM_BLOCK", block)
    cfg = TrainConfig(lr=0.05, weight_decay=0.3)
    b1, b2, eps = ADAM_BETA1, ADAM_BETA2, ADAM_EPS
    p = _one_wide_params(use_batch_norm=True)
    state = AdamState(p.flat.size)

    decayed = [name.endswith(".w") for name, arr in p.tensors.items() for _ in range(arr.size)]
    assert any(decayed) and not all(decayed)
    ref = [np.float32(x) for x in p.flat]
    m = [0.0] * len(ref)
    v = [0.0] * len(ref)
    rng = np.random.default_rng(11)
    for t in range(1, 11):
        grad = rng.standard_normal(p.flat.size)
        adamw_step(p, grad, state, cfg)
        for i, g in enumerate(grad.tolist()):
            m[i] = b1 * m[i] + (1 - b1) * g
            v[i] = b2 * v[i] + (1 - b2) * g * g
            mhat = m[i] / (1 - b1 ** t)
            vhat = v[i] / (1 - b2 ** t)
            x = float(ref[i])
            if decayed[i]:
                x *= 1 - cfg.lr * cfg.weight_decay
            x -= cfg.lr * mhat / (np.sqrt(vhat) + eps)
            ref[i] = np.float32(x)
    for i, x in enumerate(ref):
        assert abs(float(p.flat[i]) - float(x)) < 1e-10, i


def test_adamw_zero_gradient_keeps_running_stats_bit_exact():
    """The running statistics take a zero gradient and no decay: their Adam
    update is 0 and their factor 1.0, so each keeps every bit while the
    values beside them move."""
    p = _one_wide_params(use_batch_norm=True)
    stats = [name for name in p.tensors if ".running_" in name]
    for name in stats:
        p.tensors[name][...] = np.float32(5.0) / 3
    before = p.copy()
    state, cfg = AdamState(p.flat.size), TrainConfig(lr=0.1, weight_decay=0.5)
    rng = np.random.default_rng(3)
    for _ in range(3):
        grad = ModelParams(p.config, rng.standard_normal(p.flat.size))
        for name in stats:
            grad.tensors[name][...] = 0.0
        adamw_step(p, grad.flat, state, cfg)
    for name in stats:
        assert p.tensors[name].tobytes() == before.tensors[name].tobytes(), name
    assert p.tensors["head.w"].tobytes() != before.tensors["head.w"].tobytes()


def test_clip_global_norm_scales_jointly():
    grad = np.array([30.0, 40.0])
    pre = clip_global_norm(grad)
    assert pre == pytest.approx(50.0)
    assert np.sqrt((grad ** 2).sum()) == pytest.approx(GRAD_CLIP, rel=1e-12)
    assert grad[0] == pytest.approx(3.0)


def test_clip_global_norm_below_threshold_untouched():
    grad = np.array([0.3, 0.4])
    pre = clip_global_norm(grad)
    assert pre == pytest.approx(0.5)
    assert np.array_equal(grad, np.array([0.3, 0.4]))


# ---- variants and config -------------------------------------------------


def test_make_variant_mapping():
    assert make_variant("full") == Full()
    assert make_variant("static_topk", k=3) == TopK(3)
    assert make_variant("fixed_topp", p=0.5) == FixedTopP(0.5)
    assert make_variant("random_topp") == RandomTopP()


def test_make_variant_errors():
    for name in ("nope", "no_re", "no_lb"):
        with pytest.raises(ValueError, match=f"unknown variant '{name}'"):
            make_variant(name)
    with pytest.raises(ValueError):
        make_variant("static_topk")
    with pytest.raises(ValueError):
        make_variant("fixed_topp")
    with pytest.raises(ValueError):
        FixedTopP(0.0)
    with pytest.raises(ValueError):
        FixedTopP(1.5)
    with pytest.raises(ValueError, match="k must be >= 1, got 0"):
        TopK(0)


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(max_epochs=0)
    with pytest.raises(ValueError):
        TrainConfig(patience=0)
    with pytest.raises(ValueError):
        TrainConfig(lambda_re=-1e-6)
    with pytest.raises(ValueError, match=r"seed must be >= 0, got -1"):
        TrainConfig(seed=-1)
    for lr in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="learning rate"):
            TrainConfig(lr=lr)
    nan, inf = float("nan"), float("inf")
    bad = {"weight_decay": (-1.0, nan, inf),
           "lambda_re": (inf, nan), "lambda_lb": (nan, inf, -1.0)}
    for name, values in bad.items():
        for value in values:
            with pytest.raises(ValueError, match=name):
                TrainConfig(**{name: value})
    TrainConfig(weight_decay=0.0, lambda_re=0.0, lambda_lb=0.0)


def test_model_config_validation():
    base = dict(in_dim=4, hidden=8, classes=2, experts=2, layers=1)
    with pytest.raises(ValueError, match="hidden"):
        ModelConfig(**{**base, "hidden": 0})
    for gamma in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ValueError, match="gamma"):
            ModelConfig(**{**base, "gamma": gamma})
    ModelConfig(**{**base, "hidden": 1, "gamma": 0.0})


# ---- fit -----------------------------------------------------------------


def _model_cfg(**kw):
    base = dict(in_dim=8, hidden=16, classes=4, experts=3, layers=2, dropout=0.5)
    base.update(kw)
    return ModelConfig(**base)


@pytest.mark.parametrize("field, value", [("classes", 3), ("classes", 6), ("in_dim", 5)])
def test_fit_rejects_model_off_its_graph(field, value):
    """A model with too few or too many classes, or the wrong feature width,
    for its 4-class, 8-dim graph is refused in one line before training."""
    with pytest.raises(ValueError, match=r"^model expects .* graph has 8 and 4$"):
        fit(_sbm_graph(), _model_cfg(**{field: value}), TrainConfig(max_epochs=1))


def test_fit_single_epoch_cold_start():
    g = _sbm_graph()
    state = fit(g, _model_cfg(), TrainConfig(max_epochs=1, seed=0))
    assert len(state.history) == 1
    rep = state.history[0]
    assert rep.epoch == 0
    assert rep.mean_active_experts == 3.0           # everything active at epoch 0
    assert rep.per_expert_load == [1.0] * 6          # 2 layers x 3 experts
    assert state.best_epoch == 0
    assert not state.stopped_early


def test_fit_static_topk_has_no_cold_start():
    g = _sbm_graph()
    state = fit(g, _model_cfg(), TrainConfig(max_epochs=2, seed=0), variant=TopK(1))
    for rep in state.history:
        assert rep.mean_active_experts == 1.0


def test_fit_topk_variant_is_the_budget_at_every_epoch():
    g = _sbm_graph()
    variant = TopK(2)
    seen = {}

    def hook(epoch, budget, prev_entropy, report, params):
        seen[epoch] = (budget, report.mean_active_experts)

    fit(g, _model_cfg(), TrainConfig(max_epochs=3, seed=0), variant=variant, epoch_hook=hook)
    assert sorted(seen) == [0, 1, 2]
    for budget, active in seen.values():
        assert budget is variant and active == 2.0


def test_fit_deterministic_across_runs():
    g = _sbm_graph()
    cfg = TrainConfig(max_epochs=3, seed=5)
    a = fit(g, _model_cfg(), cfg)
    b = fit(g, _model_cfg(), cfg)
    assert [r.to_json() for r in a.history] == [r.to_json() for r in b.history]
    for (name, ta), (_, tb) in zip(a.final_params.tensors.items(),
                                   b.final_params.tensors.items()):
        assert np.array_equal(ta, tb), name


def test_fit_seed_changes_trajectory():
    g = _sbm_graph()
    a = fit(g, _model_cfg(), TrainConfig(max_epochs=2, seed=0))
    b = fit(g, _model_cfg(), TrainConfig(max_epochs=2, seed=1))
    assert a.history[0].loss_total != b.history[0].loss_total


def test_fit_learns_homophilous_graph():
    g = _sbm_graph()
    state = fit(g, _model_cfg(), TrainConfig(max_epochs=120, patience=120, seed=0))
    best = max(r.acc_test for r in state.history)
    assert best >= 0.9
    assert state.best_val_acc >= 0.9


def test_fit_loss_decreases_early():
    g = _sbm_graph()
    state = fit(g, _model_cfg(dropout=0.0), TrainConfig(max_epochs=20, seed=1))
    first = np.mean([r.loss_task for r in state.history[:5]])
    last = np.mean([r.loss_task for r in state.history[-5:]])
    assert last < first


def test_fit_budget_bootstrap_causality():
    """Epoch 0 budgets are all ones; the epoch-t budget is the sigmoid map of
    the entropies from epoch t-1's training-mode predictions. Replicates the
    loop's stream handling outside fit and checks the first handoff bitwise."""
    g = _sbm_graph()
    mcfg = _model_cfg()
    tcfg = TrainConfig(max_epochs=2, seed=9)

    seq = np.random.SeedSequence(tcfg.seed)
    init_ss, dropout_ss, _, _ = seq.spawn(4)
    params = init_params(mcfg, np.random.default_rng(init_ss))
    fw = forward(params, g, np.ones(g.n), mode="train",
                 rng=np.random.default_rng(dropout_ss))
    expected_entropy = predictive_entropy(fw.probs.value)

    seen = {}

    def hook(epoch, budget, prev_entropy, report, params):
        seen[epoch] = (np.asarray(budget, dtype=np.float64).copy(),
                       None if prev_entropy is None else prev_entropy.copy())

    fit(g, mcfg, tcfg, epoch_hook=hook)
    budget0, prev0 = seen[0]
    assert prev0 is None
    assert np.array_equal(budget0, np.ones(g.n))
    budget1, prev1 = seen[1]
    assert np.array_equal(prev1, expected_entropy)
    assert np.array_equal(budget1, map_budget(expected_entropy, mcfg.gamma))


def test_fit_strict_proxy_uses_post_update_eval_entropy():
    g = _sbm_graph()
    mcfg = _model_cfg()
    one = fit(g, mcfg, TrainConfig(max_epochs=1, seed=9, strict_proxy=True))
    ev = forward(one.final_params, g, np.ones(g.n), mode="eval")
    expected = predictive_entropy(ev.probs.value)

    seen = {}

    def hook(epoch, budget, prev_entropy, report, params):
        seen[epoch] = None if prev_entropy is None else prev_entropy.copy()

    fit(g, mcfg, TrainConfig(max_epochs=2, seed=9, strict_proxy=True), epoch_hook=hook)
    assert np.array_equal(seen[1], expected)


def test_fit_strict_proxy_runs_one_eval_forward_per_epoch(monkeypatch):
    """Counted under both names: ``fit`` trains through ``training.forward``
    and scores through ``evaluate``, which calls ``moe_core.forward``."""
    import d2moe.moe_core as moe_core
    import d2moe.training as training

    modes = []
    real_forward = moe_core.forward

    def counting_forward(*args, **kwargs):
        modes.append(kwargs.get("mode", "train"))
        return real_forward(*args, **kwargs)

    monkeypatch.setattr(training, "forward", counting_forward)
    monkeypatch.setattr(moe_core, "forward", counting_forward)
    fit(_sbm_graph(), _model_cfg(), TrainConfig(max_epochs=1, seed=9, strict_proxy=True))
    assert modes == ["train", "eval"]


@pytest.mark.parametrize("strict", [False, True])
def test_fit_computes_one_entropy_per_epoch(monkeypatch, strict):
    """The proxy entropy is computed once per epoch, by ``fit`` itself: of
    the train-mode probabilities by default, of the scoring pass's under
    strict_proxy; ``evaluate`` under an explicit budget computes none."""
    import d2moe.moe_core as moe_core
    import d2moe.training as training

    sources = []

    def counting(where):
        def entropy(probs):
            sources.append(where)
            return predictive_entropy(probs)
        return entropy

    monkeypatch.setattr(training, "predictive_entropy", counting("train"))
    monkeypatch.setattr(moe_core, "predictive_entropy", counting("eval"))
    g = _sbm_graph()
    scored_entropy, seen = [], []

    def hook(budget, prev_entropy, params, **_):
        # the scoring pass is deterministic, so rerunning it gives fit's probs
        scored_entropy.append(predictive_entropy(evaluate(params, g, budget).probs))
        seen.append(prev_entropy)

    fit(g, _model_cfg(), TrainConfig(max_epochs=3, seed=9, strict_proxy=strict),
        epoch_hook=hook)
    assert sources == ["train"] * 3
    assert seen[0] is None
    if strict:
        for want, got in zip(scored_entropy, seen[1:]):
            np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("backbone", ["gcn", "sage"])
@pytest.mark.parametrize("layout", ["all_1hop", "half_half"])
@pytest.mark.parametrize("batch_norm", [False, True])
def test_lazy_backward_matches_zero_filled_replay(monkeypatch, backbone, layout, batch_norm):
    """Lazily allocated gradients, released at every non-leaf, against the
    zero-fill-then-replay-every-step reference: parameter gradients
    bit-identical, every leaf gradient equal in value (only the sign of an
    exact zero may differ), and no non-leaf left holding a gradient. The
    reference zero-fills each step's gradient slot through its output Var,
    which this test holds for the purpose."""
    g = _sbm_graph(n=60, classes=3, dim=5, p_in=0.2, p_out=0.05, signal=2.0, seed=1)
    cfg = ModelConfig(in_dim=5, hidden=8, classes=3, experts=4, layers=2, dropout=0.3,
                      use_batch_norm=batch_norm, expert_layout=layout, backbone=backbone)
    params = init_params(cfg, np.random.default_rng(0))
    outputs, record = [], Tape._record

    def holding(tape, out, back):
        outputs.append(out)
        record(tape, out, back)

    monkeypatch.setattr(Tape, "_record", holding)
    fw = forward(params, g, np.full(g.n, 0.7), mode="train", rng=np.random.default_rng(1))
    total = losses_on_tape(fw, g, lam1=1e-3, lam2=1e-2)[0]
    tape = fw.tape
    assert [v._slot for v in outputs] == [slot for slot, _ in tape._steps]
    tape.backward(total)
    assert all(produced.grad is None for produced in outputs)
    lazy = [v.grad.copy() for v in tape._leaves]

    for v in [*tape._leaves, *outputs]:
        v.grad = np.zeros(v.value.shape)
    total.grad = np.ones_like(total.value)
    for slot, back in reversed(tape._steps):
        back(slot.grad)

    for before, v in zip(lazy, tape._leaves):
        np.testing.assert_array_equal(before, v.grad)
    for name, leaf in fw.leaf_vars.items():
        assert lazy[tape._leaves.index(leaf)].tobytes() == leaf.grad.tobytes(), name


def _traced_peak(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


_FAULTS_PER_EPOCH = """
import resource
import numpy as np
from d2moe.graph import build_graph, split_nodes
from d2moe.moe_core import ModelConfig
from d2moe.training import TrainConfig, fit

rng = np.random.default_rng(0)
n, dim, classes = 2000, 16, 4
labels = rng.integers(0, classes, size=n)
g = split_nodes(build_graph(rng.integers(0, n, size=(4 * n, 2)),
                            rng.standard_normal((n, dim)) + labels[:, None], labels,
                            n_classes=classes), (0.5, 0.25, 0.25), seed=0)
readings = []
fit(g, ModelConfig(in_dim=dim, hidden=128, classes=classes, experts=8, layers=2),
    TrainConfig(max_epochs=10, seed=0),
    epoch_hook=lambda **_: readings.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt))
print(*np.diff(readings))
"""


@pytest.mark.skipif(platform.system() != "Linux" or platform.libc_ver()[0] != "glibc",
                    reason="glibc's allocator thresholds are what this guards")
def test_steady_state_epochs_take_no_page_faults():
    """In a fresh process, epochs after the cold start reuse the heap: the
    cold-start epoch frees the all-selected stacked expert buffer, which
    lifts glibc's dynamic mmap and trim thresholds above a layer's arrays.
    Mixing expert by expert, with no such buffer, read a median of 8,272
    minor faults per epoch here. The graph comes from a sparse edge list,
    not ``generate_sbm``, whose dense n×n draw would lift the thresholds
    itself."""
    src = str(Path(training.__file__).resolve().parents[1])
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", _FAULTS_PER_EPOCH], capture_output=True,
                          text=True, env=env, timeout=300)
    assert done.returncode == 0, done.stderr
    faults = [int(word) for word in done.stdout.split()]
    assert len(faults) == 9
    steady = faults[2:]  # epochs 3-9
    assert np.median(steady) < 500, faults


def test_fit_holds_one_tape_at_a_time():
    """``fit`` frees each epoch's training tape before its eval forward and
    before the next epoch's forward, so three epochs peak near one train
    forward plus backward (with two tapes alive the ratio is about 1.6)."""
    g = _sbm_graph(n=300)
    mcfg = _model_cfg(hidden=32, experts=4)

    def one_step():
        params = init_params(mcfg, np.random.default_rng(0))
        fw = forward(params, g, np.ones(g.n), mode="train", rng=np.random.default_rng(1))
        fw.tape.backward(losses_on_tape(fw, g, lam1=1e-4, lam2=1e-3)[0])

    step_peak = _traced_peak(one_step)
    fit_peak = _traced_peak(lambda: fit(g, mcfg, TrainConfig(max_epochs=3, patience=3)))
    assert fit_peak < 1.3 * step_peak, fit_peak / step_peak


def test_model_records_every_tape_op(monkeypatch):
    """Every public Tape op is recorded by some forward plus objective, so the
    tape carries no op the model never uses."""
    ops = [name for name, fn in vars(Tape).items()
           if callable(fn) and not name.startswith("_") and name not in ("leaf", "backward")]
    called = set()

    def recording(name, fn):
        def wrapper(*args, **kwargs):
            called.add(name)
            return fn(*args, **kwargs)
        return wrapper

    for name in ops:
        monkeypatch.setattr(Tape, name, recording(name, getattr(Tape, name)))
    g = _sbm_graph(n=40, classes=3, dim=5, p_in=0.2, p_out=0.05, signal=2.0, seed=1)
    for backbone, layout in itertools.product(("gcn", "sage"), ("all_1hop", "half_half")):
        cfg = ModelConfig(in_dim=5, hidden=8, classes=3, experts=3, layers=2, dropout=0.3,
                          use_batch_norm=True, expert_layout=layout, backbone=backbone)
        params = init_params(cfg, np.random.default_rng(0))
        for mode in ("train", "eval"):
            fw = forward(params, g, np.full(g.n, 0.7), mode=mode,
                         rng=np.random.default_rng(1))
            losses_on_tape(fw, g, lam1=1e-3, lam2=1e-2)
    assert sorted(set(ops) - called) == []


def test_fit_fixed_topp_constant_after_cold_start():
    g = _sbm_graph()
    seen = {}

    def hook(epoch, budget, **kw):
        seen[epoch] = np.asarray(budget, dtype=np.float64).copy()

    fit(g, _model_cfg(), TrainConfig(max_epochs=3, seed=0),
        variant=FixedTopP(0.6), epoch_hook=hook)
    assert np.array_equal(seen[0], np.ones(g.n))
    assert np.array_equal(seen[1], np.full(g.n, 0.6))
    assert np.array_equal(seen[2], np.full(g.n, 0.6))


def test_fit_random_topp_permutes_thresholds():
    g = _sbm_graph()
    mcfg = _model_cfg()
    budgets_random, budgets_full = {}, {}

    def grab(store):
        def hook(epoch, budget, **kw):
            store[epoch] = np.asarray(budget, dtype=np.float64).copy()
        return hook

    fit(g, mcfg, TrainConfig(max_epochs=2, seed=4), variant=RandomTopP(),
        epoch_hook=grab(budgets_random))
    fit(g, mcfg, TrainConfig(max_epochs=2, seed=4), variant=Full(),
        epoch_hook=grab(budgets_full))
    # Same multiset of thresholds at the first post-cold-start epoch (the two
    # runs share every stream, so epoch 0 is identical), different order.
    assert np.array_equal(np.sort(budgets_random[1]), np.sort(budgets_full[1]))
    assert not np.array_equal(budgets_random[1], budgets_full[1])


def test_fit_full_budget_paths_agree_bitwise():
    """FixedTopP(1.0) and TopK(K) must follow the same trajectory: both
    select all experts with identical renormalization and identical stream
    consumption."""
    g = _sbm_graph(n=80, seed=6)
    mcfg = _model_cfg(experts=3)
    tcfg = TrainConfig(max_epochs=4, seed=2)
    base = fit(g, mcfg, tcfg, variant=FixedTopP(1.0)).final_params.tensors
    other = fit(g, mcfg, tcfg, variant=TopK(3)).final_params.tensors
    for name, arr in other.items():
        assert np.array_equal(base[name], arr), name


@pytest.mark.parametrize("zeroed,kept", [("re", "lb"), ("lb", "re")])
def test_fit_zero_penalty_weight_drops_its_term(zeroed, kept):
    """A zero weight adds exactly nothing (ent * 0.0 is 0.0), so every
    epoch's objective is the task loss plus the other weighted term, bit for
    bit."""
    g = _sbm_graph(n=80, seed=6)
    tcfg = TrainConfig(max_epochs=3, seed=1, **{f"lambda_{zeroed}": 0.0, f"lambda_{kept}": 1e-2})
    history = fit(g, _model_cfg(), tcfg).history
    assert len(history) == 3
    for r in history:
        assert getattr(r, f"loss_{zeroed}") > 0.0
        assert r.loss_total == r.loss_task + getattr(r, f"loss_{kept}") * 1e-2


def test_fit_early_stopping_restores_best_epoch_params():
    g = _sbm_graph(n=120, classes=4, p_in=0.04, p_out=0.04, signal=0.4, seed=12)
    snapshots = {}

    def hook(epoch, params, **kw):
        snapshots[epoch] = {n: a.copy() for n, a in params.tensors.items()}

    state = fit(g, _model_cfg(), TrainConfig(max_epochs=60, patience=5, seed=0),
                epoch_hook=hook)
    assert state.best_val_acc == pytest.approx(max(r.acc_val for r in state.history))
    assert state.history[state.best_epoch].acc_val == state.best_val_acc
    best = snapshots[state.best_epoch]
    for name, arr in state.params.tensors.items():
        assert np.array_equal(arr, best[name]), name
    if state.stopped_early:
        assert len(state.history) == state.best_epoch + 1 + 5


def test_fit_stop_on_last_epoch_counts_as_early():
    """Patience running out on the final epoch is an early stop, though the
    history is as long as ``max_epochs``: at this step size the float32
    parameters do not move, so validation accuracy never improves."""
    state = fit(_sbm_graph(), _model_cfg(),
                TrainConfig(max_epochs=2, patience=1, lr=1e-12, seed=0),
                variant=TopK(3))
    assert state.history[0].acc_val == state.history[1].acc_val
    assert state.stopped_early
    assert len(state.history) == 2
    assert state.best_epoch == 0


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_fit_divergence_raises():
    """The first step's update overflows float32, so ``adamw_step`` raises
    before it writes the store, with no overflow warning on the way."""
    g = _sbm_graph(n=60, seed=7)
    with pytest.raises(TrainingDivergence) as err:
        fit(g, _model_cfg(dropout=0.0), TrainConfig(max_epochs=10, seed=0, lr=1e40))
    assert err.value.epoch == 0
    assert str(err.value).startswith("epoch 0: adamw_step: update leaves the store's "
                                     "finite range in elements [0, ")


@pytest.mark.parametrize("grad_value, lr", [(1.0, 1e300), (np.nan, 0.1)],
                         ids=["overflow", "nan-gradient"])
def test_adamw_step_keeps_the_store_finite(monkeypatch, grad_value, lr):
    """An update past float32's range, or a NaN one, raises naming
    ``adamw_step`` and the slice it hit; slices before it are written and
    the failing slice and those after it keep their bytes."""
    monkeypatch.setattr("d2moe.training.ADAM_BLOCK", 8)
    p = _one_wide_params()
    grad = np.zeros(p.flat.size)
    grad[10] = grad_value
    before = p.flat.copy()
    with pytest.raises(ValueError, match=r"^adamw_step: update leaves the store's finite "
                                         r"range in elements \[8, 16\)$"):
        adamw_step(p, grad, AdamState(p.flat.size), TrainConfig(lr=lr, weight_decay=0.0))
    assert np.isfinite(p.flat).all()
    assert p.flat[8:].tobytes() == before[8:].tobytes()


def test_non_finite_gradient_raises_before_parameters_move(monkeypatch):
    """An inf in one leaf gradient is neither clipped into NaN nor applied:
    the step raises naming that tensor, with every parameter unchanged."""
    g = _sbm_graph(n=60, seed=7)
    params = init_params(_model_cfg(dropout=0.0), np.random.default_rng(0))
    poisoned = list(params.tensors).index("layer0.router.w1")
    backward = Tape.backward

    def backward_with_inf(tape, out):
        grad = backward(tape, out)
        tape._leaves[poisoned].grad[0, 0] = np.inf
        return grad

    monkeypatch.setattr(Tape, "backward", backward_with_inf)
    before = params.copy()
    with pytest.raises(TrainingDivergence,
                       match=r"^epoch 3: gradient norm inf; non-finite gradients: "
                             r"layer0\.router\.w1$"):
        _train_step(params, g, np.ones(g.n), np.random.default_rng(1),
                    AdamState(params.flat.size), TrainConfig(), epoch=3)
    assert params.flat.tobytes() == before.flat.tobytes()


def test_nan_reaching_train_forward_raises_divergence():
    """A NaN planted in a router weight after the first update reaches the
    next epoch's train forward, whose first mixture step raises: a
    divergence at that epoch, not a bare ValueError."""
    def poison(epoch, params, **_):
        if epoch == 0:
            params.tensors["layer0.router.w2"][0, 0] = np.nan

    g = _sbm_graph(n=60, seed=7)
    with pytest.raises(TrainingDivergence) as err:
        fit(g, _model_cfg(dropout=0.0), TrainConfig(max_epochs=3, seed=0), epoch_hook=poison)
    assert err.value.epoch == 1
    assert str(err.value).startswith("epoch 1: mix_experts: selected mass is zero, "
                                     "negative or NaN in 60 rows")


def _failing_on_call(fn, call):
    """``fn``, except that its ``call``-th call (from 0) raises ValueError."""
    calls = itertools.count()

    def wrapper(*args, **kwargs):
        if next(calls) == call:
            raise ValueError("planted failure")
        return fn(*args, **kwargs)

    return wrapper


@pytest.mark.parametrize("name, epoch", [("evaluate", 0), ("predictive_entropy", 2)],
                         ids=["scoring-pass", "entropy"])
def test_value_error_after_first_update_raises_divergence(monkeypatch, name, epoch):
    """A ValueError from the scoring pass or the entropy pass comes after the
    epoch's update, so it is a divergence at that epoch, epoch 0 included."""
    monkeypatch.setattr(training, name, _failing_on_call(getattr(training, name), epoch))
    g = _sbm_graph(n=60, seed=7)
    with pytest.raises(TrainingDivergence) as err:
        fit(g, _model_cfg(dropout=0.0), TrainConfig(max_epochs=4, seed=0))
    assert err.value.epoch == epoch
    assert str(err.value) == f"epoch {epoch}: planted failure"


def test_batch_norm_train_step_keeps_running_stats_as_written(monkeypatch):
    """After each epoch's AdamW step the running statistics hold exactly the
    bytes the train-mode ``Tape.batchnorm`` wrote into the store."""
    layers = 2
    written = []
    batchnorm = Tape.batchnorm

    def recorded(tape, x, gamma, beta, running_mean, running_var):
        out = batchnorm(tape, x, gamma, beta, running_mean, running_var)
        if tape.recording:
            written.append(running_mean.tobytes() + running_var.tobytes())
        return out

    def check(epoch, params, **_):
        for l in range(layers):
            stats = (params.tensors[f"layer{l}.norm.running_mean"].tobytes()
                     + params.tensors[f"layer{l}.norm.running_var"].tobytes())
            assert stats == written[epoch * layers + l], (epoch, l)

    monkeypatch.setattr(Tape, "batchnorm", recorded)
    fit(_sbm_graph(n=60, seed=7), _model_cfg(use_batch_norm=True, layers=layers),
        TrainConfig(max_epochs=4, seed=2), epoch_hook=check)
    assert len(written) == 4 * layers


def test_fit_rejects_bad_inputs():
    g = _sbm_graph(n=60, seed=7)
    with pytest.raises(ValueError):
        fit(g, _model_cfg(), TrainConfig(max_epochs=1), variant=TopK(9))
    empty_train = dataclasses.replace(g, train_mask=np.zeros(g.n, dtype=bool))
    with pytest.raises(ValueError):
        fit(empty_train, _model_cfg(), TrainConfig(max_epochs=1))


# ---- metrics serialization -----------------------------------------------


def test_epoch_report_json_key_order():
    rep = EpochReport(epoch=0, loss_task=1.0, loss_re=0.5, loss_lb=1.0,
                      loss_total=1.1, acc_train=0.5, acc_val=0.5, acc_test=0.5,
                      mean_active_experts=2.0, per_expert_load=[0.5, 0.5])
    keys = list(json.loads(rep.to_json()).keys())
    assert keys == ["epoch", "loss_task", "loss_re", "loss_lb", "loss_total",
                    "acc_train", "acc_val", "acc_test", "mean_active_experts",
                    "per_expert_load"]


def test_write_metrics_round_trips(tmp_path):
    g = _sbm_graph(n=60, seed=7)
    state = fit(g, _model_cfg(), TrainConfig(max_epochs=3, seed=0))
    path = tmp_path / "metrics.jsonl"
    write_metrics(state.history, path)
    lines = path.read_text().splitlines()
    assert len(lines) == 3
    for line, rep in zip(lines, state.history):
        assert line == rep.to_json()
        parsed = json.loads(line)
        assert parsed["epoch"] == rep.epoch
        assert parsed["per_expert_load"] == rep.per_expert_load


def _reject_constant(token):
    raise ValueError(f"bare {token} token in metrics")


def test_write_metrics_empty_split_is_null_never_nan(tmp_path):
    g = dataclasses.replace(_sbm_graph(n=60, seed=7), test_mask=np.zeros(60, dtype=bool))
    path = tmp_path / "metrics.jsonl"
    write_metrics(fit(g, _model_cfg(), TrainConfig(max_epochs=2, seed=0)).history, path)
    rows = [json.loads(line, parse_constant=_reject_constant)
            for line in path.read_text().splitlines()]
    assert len(rows) == 2
    assert all(row["acc_test"] is None and 0.0 <= row["acc_val"] <= 1.0 for row in rows)


def test_epoch_report_json_rejects_other_non_finite_values():
    rep = EpochReport(epoch=0, loss_task=1.0, loss_re=0.5, loss_lb=1.0,
                      loss_total=1.1, acc_train=0.5, acc_val=0.5, acc_test=0.5,
                      mean_active_experts=float("nan"), per_expert_load=[0.5, 0.5])
    with pytest.raises(ValueError):
        rep.to_json()
    with pytest.raises(ValueError):
        dataclasses.replace(rep, mean_active_experts=2.0, loss_re=float("inf")).to_json()


def test_write_metrics_byte_identical_across_runs(tmp_path):
    g = _sbm_graph(n=60, seed=7)
    pa, pb = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    write_metrics(fit(g, _model_cfg(), TrainConfig(max_epochs=3, seed=2)).history, pa)
    write_metrics(fit(g, _model_cfg(), TrainConfig(max_epochs=3, seed=2)).history, pb)
    assert pa.read_bytes() == pb.read_bytes()
