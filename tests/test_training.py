"""Objective values against hand-computed cases, optimizer against a scalar
replica, and the training loop's budget bootstrap checked causally."""

import itertools
import json

import numpy as np
import pytest

from d2moe.graph import SbmSpec, generate_sbm, split_nodes
from d2moe.moe_core import (
    LayerTrace,
    ModelConfig,
    RoutingTrace,
    TopK,
    forward,
    init_params,
    map_budget,
    predictive_entropy,
)
from d2moe.numerics import Tape
from d2moe.training import (
    AdamState,
    EpochReport,
    FixedTopP,
    Full,
    NoLoadBalance,
    NoRoutingEntropy,
    RandomTopP,
    StaticTopK,
    TrainConfig,
    TrainingDivergence,
    adamw_step,
    clip_global_norm,
    decays,
    fit,
    load_balance_loss,
    losses_on_tape,
    make_variant,
    routing_entropy_loss,
    task_loss,
    total_loss,
    write_metrics,
)


def _trace(pi, selected):
    pi = np.asarray(pi, dtype=np.float64)
    selected = np.asarray(selected, dtype=bool)
    renorm = np.where(selected, pi, 0.0)
    renorm = renorm / renorm.sum(axis=1, keepdims=True)
    return RoutingTrace([LayerTrace(pi=pi, selected=selected, renorm=renorm)])


def _sbm_graph(n=200, classes=4, dim=8, p_in=0.15, p_out=0.01, signal=3.0, seed=3):
    g = generate_sbm(SbmSpec(n=n, classes=classes, dim=dim, p_in=p_in,
                             p_out=p_out, signal=signal, seed=seed))
    return split_nodes(g, (0.48, 0.32, 0.2), seed=seed + 1)


# ---- loss values ---------------------------------------------------------


def test_routing_entropy_one_hot_is_zero():
    pi = np.eye(4)[np.array([0, 1, 2, 3, 0, 2])]
    assert routing_entropy_loss(_trace(pi, np.ones_like(pi, dtype=bool))) == 0.0


def test_routing_entropy_uniform_is_log_k():
    k = 5
    pi = np.full((7, k), 1.0 / k)
    val = routing_entropy_loss(_trace(pi, np.ones_like(pi, dtype=bool)))
    assert val == pytest.approx(np.log(k), rel=1e-12)


def test_routing_entropy_half_half_is_log_2():
    pi = np.array([[0.5, 0.5, 0.0, 0.0]] * 3)
    val = routing_entropy_loss(_trace(pi, pi > 0))
    assert val == pytest.approx(np.log(2.0), rel=1e-12)


def test_routing_entropy_averages_over_layers():
    k = 4
    uniform = _trace(np.full((6, k), 0.25), np.ones((6, k), bool)).layers[0]
    onehot = _trace(np.eye(k)[np.zeros(6, int)], np.ones((6, k), bool)).layers[0]
    both = RoutingTrace([uniform, onehot])
    assert routing_entropy_loss(both) == pytest.approx(np.log(k) / 2.0, rel=1e-12)


def test_load_balance_balanced_top1_is_one():
    # 8 nodes, 4 experts, each expert picked by exactly 2 nodes with a
    # one-hot router row: f_i = Q_i = 1/4, so K * sum f_i Q_i = 1.
    assign = np.array([0, 1, 2, 3, 0, 1, 2, 3])
    pi = np.eye(4)[assign]
    assert load_balance_loss(_trace(pi, pi > 0)) == pytest.approx(1.0, abs=1e-15)


def test_load_balance_collapse_is_k():
    pi = np.eye(4)[np.zeros(8, int)]
    assert load_balance_loss(_trace(pi, pi > 0)) == pytest.approx(4.0, abs=1e-15)


def test_load_balance_uniform_all_selected_is_k():
    # Everything selected (f_i = 1) with uniform rows (Q_i = 1/K): K * K/K = K.
    pi = np.full((6, 4), 0.25)
    assert load_balance_loss(_trace(pi, np.ones((6, 4), bool))) == pytest.approx(4.0)


def test_load_balance_sums_over_layers():
    pi = np.eye(2)[np.array([0, 1, 0, 1])]
    t = RoutingTrace([_trace(pi, pi > 0).layers[0]] * 3)
    assert load_balance_loss(t) == pytest.approx(3.0, abs=1e-14)


def test_load_balance_enumeration_minimum_at_balance():
    """Over all 2^8 hard top-1 assignments of 8 nodes to 2 experts (router
    rows one-hot and matching), the loss is minimized exactly by the balanced
    assignments, where it equals 1."""
    best = min(
        load_balance_loss(_trace(np.eye(2)[list(a)], np.eye(2)[list(a)] > 0))
        for a in itertools.product([0, 1], repeat=8)
    )
    balanced = load_balance_loss(_trace(np.eye(2)[[0, 1] * 4], np.eye(2)[[0, 1] * 4] > 0))
    assert best == pytest.approx(1.0, abs=1e-15)
    assert balanced == best
    unbalanced = load_balance_loss(_trace(np.eye(2)[[0] * 6 + [1] * 2],
                                          np.eye(2)[[0] * 6 + [1] * 2] > 0))
    assert unbalanced > balanced


def test_task_loss_hand_case():
    probs = np.array([[0.5, 0.5], [0.25, 0.75], [0.9, 0.1]])
    labels = np.array([0, 1, 1])
    mask = np.array([True, True, False])
    expected = -(np.log(0.5) + np.log(0.75)) / 2.0
    assert task_loss(probs, labels, mask) == pytest.approx(expected, rel=1e-14)


def test_task_loss_empty_mask_rejected():
    with pytest.raises(ValueError):
        task_loss(np.ones((2, 2)) / 2, np.zeros(2, int), np.zeros(2, bool))


def test_total_loss_combination():
    b = total_loss(task=1.3, routing_entropy=2.0, load_balance=2.0,
                   lam1=1e-4, lam2=0.1)
    assert b.total == pytest.approx(1.3 + 2e-4 + 0.2, rel=1e-14)
    assert b.task == 1.3 and b.lam1 == 1e-4 and b.lam2 == 0.1


# ---- losses on tape vs plain values --------------------------------------


def _tiny_forward(seed=0, **cfg_kw):
    g = _sbm_graph(n=40, classes=2, dim=4, p_in=0.3, p_out=0.05, signal=2.0, seed=seed)
    cfg = ModelConfig(in_dim=4, hidden=8, classes=2, experts=3, layers=2,
                      dropout=0.0, **cfg_kw)
    params = init_params(cfg, np.random.default_rng(seed + 10))
    fw = forward(params, g, np.full(g.n, 0.7), mode="train")
    return g, params, fw


def test_tape_losses_match_plain_values():
    g, _, fw = _tiny_forward()
    breakdown, total_var, task_var = losses_on_tape(fw, g, lam1=0.01, lam2=0.1)
    assert breakdown.task == pytest.approx(
        task_loss(fw.probs.value, g.labels, g.train_mask), rel=1e-12)
    assert breakdown.routing_entropy == pytest.approx(
        routing_entropy_loss(fw.trace), rel=1e-12)
    assert breakdown.load_balance == pytest.approx(
        load_balance_loss(fw.trace), rel=1e-12)
    assert breakdown.total == pytest.approx(total_var.item(), rel=1e-12)
    assert task_var.item() == pytest.approx(breakdown.task, rel=1e-12)


def test_zero_lambda_gradients_match_task_only():
    """With both weights at zero the regularizer branches contribute exact
    zeros, so parameter gradients equal a pure task backward bitwise."""
    g, params, fw = _tiny_forward(seed=4)
    _, total_var, task_var = losses_on_tape(fw, g, lam1=0.0, lam2=0.0)
    fw.tape.backward(total_var)
    with_reg = {n: fw.leaf_vars[n].grad.copy() for n, _ in params.named_tensors()}
    fw.tape.backward(task_var)
    for name, _ in params.named_tensors():
        assert np.array_equal(with_reg[name], fw.leaf_vars[name].grad), name


def test_balance_gradient_flows_only_through_mean_probability():
    """d L_LB / d pi must be the constant field K * f / N: shifting every
    selection frequency by the same amount changes the loss value but not
    any parameter gradient, because the rows of pi each sum to one."""
    g, params, fw = _tiny_forward(seed=2)
    n = g.n

    def lb_grads(shift):
        tape = fw.tape
        lb = None
        for pi, lt in zip(fw.layer_pis, fw.trace.layers):
            freq = lt.selected.mean(axis=0) + shift
            term = tape.scale(tape.weighted_colsum(pi, freq), pi.shape[1] / n)
            lb = term if lb is None else tape.add(lb, term)
        tape.backward(lb)
        return lb.item(), {n_: fw.leaf_vars[n_].grad.copy()
                           for n_, _ in params.named_tensors()}

    val0, g0 = lb_grads(0.0)
    val1, g1 = lb_grads(0.25)
    assert val1 != pytest.approx(val0)  # the value does move
    for name in g0:
        assert np.allclose(g0[name], g1[name], atol=1e-10), name


def test_balance_gradient_wrt_pi_is_k_f_over_n():
    rng = np.random.default_rng(0)
    raw = rng.random((6, 3))
    tape = Tape()
    m = tape.leaf(raw)
    pi = tape.softmax_rows(m)
    f = np.array([0.5, 0.25, 0.25])
    lb = tape.scale(tape.weighted_colsum(pi, f), 3 / 6)
    tape.backward(lb)
    # Pull the gradient at the softmax output: it is K*f/N for every row.
    expected = 3 * f / 6
    assert np.allclose(pi.grad, np.tile(expected, (6, 1)), atol=1e-15)


# ---- optimizer -----------------------------------------------------------


def test_decay_rule_names():
    assert decays("embed.w")
    assert decays("head.w")
    assert decays("layer0.expert1.wa")
    assert decays("layer1.expert0.wb")
    assert decays("layer0.expert2.w_self")
    assert decays("layer0.expert2.w_nbr")
    assert not decays("embed.b")
    assert not decays("head.b")
    assert not decays("layer0.expert0.b")
    assert not decays("layer0.router.w1")
    assert not decays("layer0.router.w2")
    assert not decays("layer0.norm.gamma")
    assert not decays("layer0.norm.running_mean")


class _FlatParams:
    """Minimal named-tensor container for optimizer tests."""

    def __init__(self, tensors):
        self.tensors = {k: np.asarray(v, dtype=np.float32) for k, v in tensors.items()}

    def named_tensors(self):
        yield from self.tensors.items()


def test_adamw_zero_gradient_only_decays_weights():
    p = _FlatParams({"embed.w": [[2.0]], "embed.b": [[3.0]]})
    cfg = TrainConfig(lr=0.1, weight_decay=0.5)
    grads = {k: np.zeros((1, 1)) for k in p.tensors}
    adamw_step(p, grads, AdamState(), cfg)
    assert p.tensors["embed.w"][0, 0] == pytest.approx(2.0 * (1 - 0.1 * 0.5), rel=1e-6)
    assert p.tensors["embed.b"][0, 0] == 3.0


def test_adamw_descends_quadratic():
    p = _FlatParams({"head.w": [[10.0]]})
    cfg = TrainConfig(lr=0.2, weight_decay=0.0)
    state = AdamState()
    for _ in range(300):
        w = float(p.tensors["head.w"][0, 0])
        adamw_step(p, {"head.w": np.array([[2.0 * (w - 3.0)]])}, state, cfg)
    assert p.tensors["head.w"][0, 0] == pytest.approx(3.0, abs=1e-3)


def test_adamw_matches_scalar_replica():
    """Ten steps against an independent scalar AdamW with the same float32
    parameter storage and float64 moments."""
    cfg = TrainConfig(lr=0.05, weight_decay=0.3, beta1=0.9, beta2=0.999, eps=1e-8)
    p = _FlatParams({"embed.w": [[1.5]], "embed.b": [[-0.5]]})
    state = AdamState()

    ref = {"embed.w": np.float32(1.5), "embed.b": np.float32(-0.5)}
    m = {k: 0.0 for k in ref}
    v = {k: 0.0 for k in ref}
    rng = np.random.default_rng(11)
    for t in range(1, 11):
        grads = {k: np.array([[rng.standard_normal()]]) for k in ref}
        adamw_step(p, grads, state, cfg)
        for k in ref:
            g = float(grads[k][0, 0])
            m[k] = cfg.beta1 * m[k] + (1 - cfg.beta1) * g
            v[k] = cfg.beta2 * v[k] + (1 - cfg.beta2) * g * g
            mhat = m[k] / (1 - cfg.beta1 ** t)
            vhat = v[k] / (1 - cfg.beta2 ** t)
            x = float(ref[k])
            if k == "embed.w":
                x *= 1 - cfg.lr * cfg.weight_decay
            x -= cfg.lr * mhat / (np.sqrt(vhat) + cfg.eps)
            ref[k] = np.float32(x)
    for k in ref:
        assert abs(float(p.tensors[k][0, 0]) - float(ref[k])) < 1e-10, k


def test_adamw_skips_tensors_without_gradients():
    p = _FlatParams({"layer0.norm.running_mean": [[5.0]], "head.w": [[1.0]]})
    adamw_step(p, {"head.w": np.array([[1.0]])}, AdamState(), TrainConfig(lr=0.1))
    assert p.tensors["layer0.norm.running_mean"][0, 0] == 5.0
    assert p.tensors["head.w"][0, 0] != 1.0


def test_clip_global_norm_scales_jointly():
    grads = {"a": np.array([[3.0]]), "b": np.array([[4.0]])}
    pre = clip_global_norm(grads, 1.0)
    assert pre == pytest.approx(5.0)
    total = np.sqrt(sum(float((g ** 2).sum()) for g in grads.values()))
    assert total == pytest.approx(1.0, rel=1e-12)
    assert grads["a"][0, 0] == pytest.approx(0.6)


def test_clip_global_norm_below_threshold_untouched():
    grads = {"a": np.array([[0.3, 0.4]])}
    pre = clip_global_norm(grads, 5.0)
    assert pre == pytest.approx(0.5)
    assert np.array_equal(grads["a"], np.array([[0.3, 0.4]]))


# ---- variants and config -------------------------------------------------


def test_make_variant_mapping():
    assert make_variant("full") == Full()
    assert make_variant("static_topk", k=3) == StaticTopK(3)
    assert make_variant("fixed_topp", p=0.5) == FixedTopP(0.5)
    assert make_variant("random_topp") == RandomTopP()
    assert make_variant("no_re") == NoRoutingEntropy()
    assert make_variant("no_lb") == NoLoadBalance()


def test_make_variant_errors():
    with pytest.raises(ValueError):
        make_variant("nope")
    with pytest.raises(ValueError):
        make_variant("static_topk")
    with pytest.raises(ValueError):
        make_variant("fixed_topp")
    with pytest.raises(ValueError):
        FixedTopP(0.0)
    with pytest.raises(ValueError):
        FixedTopP(1.5)


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(max_epochs=0)
    with pytest.raises(ValueError):
        TrainConfig(patience=0)
    with pytest.raises(ValueError):
        TrainConfig(lambda_re=-1e-6)
    for lr in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="learning rate"):
            TrainConfig(lr=lr)


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
    state = fit(g, _model_cfg(), TrainConfig(max_epochs=2, seed=0), variant=StaticTopK(1))
    for rep in state.history:
        assert rep.mean_active_experts == 1.0


def test_fit_deterministic_across_runs():
    g = _sbm_graph()
    cfg = TrainConfig(max_epochs=3, seed=5)
    a = fit(g, _model_cfg(), cfg)
    b = fit(g, _model_cfg(), cfg)
    assert [r.to_json() for r in a.history] == [r.to_json() for r in b.history]
    for (name, ta), (_, tb) in zip(a.final_params.named_tensors(),
                                   b.final_params.named_tensors()):
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
    assert np.array_equal(budget1, map_budget(expected_entropy, mcfg.gamma, epoch=1))


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
    import d2moe.training as training

    modes = []
    real_forward = training.forward

    def counting_forward(*args, **kwargs):
        modes.append(kwargs.get("mode", "train"))
        return real_forward(*args, **kwargs)

    monkeypatch.setattr(training, "forward", counting_forward)
    fit(_sbm_graph(), _model_cfg(), TrainConfig(max_epochs=1, seed=9, strict_proxy=True))
    assert modes == ["train", "eval"]


@pytest.mark.parametrize("backbone", ["gcn", "sage"])
@pytest.mark.parametrize("layout", ["all_1hop", "half_half"])
@pytest.mark.parametrize("batch_norm", [False, True])
def test_lazy_backward_matches_zero_filled_replay(backbone, layout, batch_norm):
    """Lazily allocated gradients against the zero-fill-then-replay-every-step
    reference: leaf gradients bit-identical, every other gradient equal in
    value (only the sign of an exact zero may differ)."""
    g = _sbm_graph(n=60, classes=3, dim=5, p_in=0.2, p_out=0.05, signal=2.0, seed=1)
    cfg = ModelConfig(in_dim=5, hidden=8, classes=3, experts=4, layers=2, dropout=0.3,
                      use_batch_norm=batch_norm, expert_layout=layout, backbone=backbone)
    params = init_params(cfg, np.random.default_rng(0))
    fw = forward(params, g, np.full(g.n, 0.7), mode="train", rng=np.random.default_rng(1))
    _, total, _ = losses_on_tape(fw, g, lam1=1e-3, lam2=1e-2)
    tape = fw.tape
    tape.backward(total)
    lazy = [v.grad.copy() for v in tape._vars]

    for v in tape._vars:
        v.grad = np.zeros_like(v.value)
    total.grad = np.ones_like(total.value)
    for _, back in reversed(tape._steps):
        back()

    for before, v in zip(lazy, tape._vars):
        np.testing.assert_array_equal(before, v.grad)
    for name, leaf in fw.leaf_vars.items():
        assert lazy[tape._vars.index(leaf)].tobytes() == leaf.grad.tobytes(), name


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


def test_fit_threshold_override_applies_every_epoch():
    g = _sbm_graph()
    override = np.full(g.n, 1.0)
    seen = {}

    def hook(epoch, budget, **kw):
        seen[epoch] = np.asarray(budget, dtype=np.float64).copy()

    state = fit(g, _model_cfg(), TrainConfig(max_epochs=2, seed=0),
                threshold_override=override, epoch_hook=hook)
    assert len(seen) == 2
    assert all(np.array_equal(b, override) for b in seen.values())
    assert all(r.mean_active_experts == 3.0 for r in state.history)


def test_fit_full_budget_paths_agree_bitwise():
    """FixedTopP(1.0), StaticTopK(K), and an all-ones override must follow the
    same trajectory: every path selects all experts with identical
    renormalization and identical stream consumption."""
    g = _sbm_graph(n=80, seed=6)
    mcfg = _model_cfg(experts=3)
    tcfg = TrainConfig(max_epochs=4, seed=2)
    runs = [
        fit(g, mcfg, tcfg, variant=FixedTopP(1.0)),
        fit(g, mcfg, tcfg, variant=StaticTopK(3)),
        fit(g, mcfg, tcfg, threshold_override=np.ones(g.n)),
    ]
    base = dict(runs[0].final_params.named_tensors())
    for other in runs[1:]:
        for name, arr in other.final_params.named_tensors():
            assert np.array_equal(base[name], arr), name


def test_fit_no_re_matches_lambda_zero():
    g = _sbm_graph(n=80, seed=6)
    mcfg = _model_cfg()
    a = fit(g, mcfg, TrainConfig(max_epochs=2, seed=1), variant=NoRoutingEntropy())
    b = fit(g, mcfg, TrainConfig(max_epochs=2, seed=1, lambda_re=0.0))
    assert [r.to_json() for r in a.history] == [r.to_json() for r in b.history]


def test_fit_no_lb_matches_lambda_zero():
    g = _sbm_graph(n=80, seed=6)
    mcfg = _model_cfg()
    a = fit(g, mcfg, TrainConfig(max_epochs=2, seed=1), variant=NoLoadBalance())
    b = fit(g, mcfg, TrainConfig(max_epochs=2, seed=1, lambda_lb=0.0))
    assert [r.to_json() for r in a.history] == [r.to_json() for r in b.history]


def test_fit_early_stopping_restores_best_epoch_params():
    g = _sbm_graph(n=120, classes=4, p_in=0.04, p_out=0.04, signal=0.4, seed=12)
    snapshots = {}

    def hook(epoch, params, **kw):
        snapshots[epoch] = {n: a.copy() for n, a in params.named_tensors()}

    state = fit(g, _model_cfg(), TrainConfig(max_epochs=60, patience=5, seed=0),
                epoch_hook=hook)
    assert state.best_val_acc == pytest.approx(max(r.acc_val for r in state.history))
    assert state.history[state.best_epoch].acc_val == state.best_val_acc
    best = snapshots[state.best_epoch]
    for name, arr in state.params.named_tensors():
        assert np.array_equal(arr, best[name]), name
    if state.stopped_early:
        assert len(state.history) == state.best_epoch + 1 + 5


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_fit_divergence_raises():
    g = _sbm_graph(n=60, seed=7)
    with pytest.raises(TrainingDivergence) as err:
        fit(g, _model_cfg(dropout=0.0), TrainConfig(max_epochs=10, seed=0, lr=1e40))
    assert err.value.epoch >= 1


def test_fit_rejects_bad_inputs():
    g = _sbm_graph(n=60, seed=7)
    with pytest.raises(ValueError):
        fit(g, _model_cfg(), TrainConfig(max_epochs=1), variant=StaticTopK(9))
    with pytest.raises(ValueError):
        fit(g, _model_cfg(), TrainConfig(max_epochs=1),
            threshold_override=np.ones(3))
    import dataclasses
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


def test_write_metrics_byte_identical_across_runs(tmp_path):
    g = _sbm_graph(n=60, seed=7)
    pa, pb = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    write_metrics(fit(g, _model_cfg(), TrainConfig(max_epochs=3, seed=2)).history, pa)
    write_metrics(fit(g, _model_cfg(), TrainConfig(max_epochs=3, seed=2)).history, pb)
    assert pa.read_bytes() == pb.read_bytes()
