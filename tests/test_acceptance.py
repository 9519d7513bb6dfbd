"""End-to-end acceptance suite.

Eleven checks covering gradient fidelity, the exactness of the difficulty
proxy, routing minimality, the cold start, balance-loss calibration, the
scaling law, directional behavior on a heterophilous fixture, budget-rule
equivalences, determinism, and the suite's own time budget. Each test prints
one PASS/FAIL line; the conftest replays them after the run.

The shared fixture is a 1000-node heterophilous block model (edge homophily
0.1) whose feature signal is tuned so the single-expert proxy reaches roughly
0.6 test accuracy.
"""

import dataclasses
import itertools
import time

import numpy as np
import pytest

from d2moe.analysis import (
    decile_activation_spearman,
    run_ablation,
    stratify_by_entropy,
    train_proxy,
)
from d2moe.graph import SbmSpec, generate_sbm, split_nodes
from d2moe.moe_core import (
    TOP_P_SLACK,
    ModelConfig,
    ModelParams,
    evaluate,
    forward,
    init_params,
    load_checkpoint,
    predictive_entropy,
    save_checkpoint,
    select_top_p_batch,
)
from d2moe.numerics import grad_check
from d2moe.theory import ScalingParams, fit_scaling_exponent, optimal_k_bruteforce, \
    optimal_k_closed_form
from d2moe.training import (
    FixedTopP,
    TopK,
    TrainConfig,
    fit,
    losses_on_tape,
    write_metrics,
)

# Frozen fixture: heterophilous block model with proxy accuracy ~0.62.
FIXTURE_SBM = SbmSpec(n=1000, classes=4, dim=16, p_in=0.01, p_out=0.03,
                      signal=1.25, seed=101)
FIXTURE_SPLIT_SEED = 202
FIXTURE_MODEL = dict(in_dim=16, hidden=32, classes=4, experts=4, layers=2, dropout=0.5)
FIXTURE_TRAIN = TrainConfig(max_epochs=200, patience=50)
FIXTURE_SEEDS = (0, 1, 2, 3, 4)
PROXY_SEED = 999


@pytest.fixture(scope="session")
def hetero_graph():
    g = generate_sbm(FIXTURE_SBM)
    return split_nodes(g, (0.48, 0.32, 0.2), seed=FIXTURE_SPLIT_SEED)


@pytest.fixture(scope="session")
def proxy_entropy(hetero_graph):
    """Difficulty scores from the fixed single-expert teacher."""
    state, probs = train_proxy(
        hetero_graph, dataclasses.replace(FIXTURE_TRAIN, seed=PROXY_SEED), hidden=32)
    acc = state.history[state.best_epoch].acc_test
    return predictive_entropy(probs), acc


@pytest.fixture(scope="session")
def full_states(hetero_graph):
    """The five seeded runs of the complete method."""
    return [fit(hetero_graph, ModelConfig(**FIXTURE_MODEL),
                dataclasses.replace(FIXTURE_TRAIN, seed=s))
            for s in FIXTURE_SEEDS]


def _small_split_graph(n=30, dim=8, classes=4, seed=31):
    g = generate_sbm(SbmSpec(n=n, classes=classes, dim=dim, p_in=0.3, p_out=0.1,
                             signal=2.0, seed=seed))
    return split_nodes(g, (0.5, 0.25, 0.25), seed=seed + 1)


def test_gradient_fidelity(verdict):
    """Analytic gradients of the full regularized objective against central
    finite differences, every parameter tensor, all expert kinds."""
    t0 = time.perf_counter()
    g = _small_split_graph(n=30, dim=8)
    cfg = ModelConfig(in_dim=8, hidden=16, classes=4, experts=4, layers=2,
                      dropout=0.0, use_batch_norm=False,
                      expert_layout="half_half", backbone="gcn")
    params = init_params(cfg, np.random.default_rng(8))
    params64 = {name: arr.astype(np.float64) for name, arr in params.tensors.items()}
    thresholds = np.full(g.n, 0.8)

    def build():
        fw = forward(ModelParams(cfg, params64), g, thresholds, mode="train")
        _, total, _ = losses_on_tape(fw, g, lam1=1e-4, lam2=1e-3)
        return fw.tape, total, fw.leaf_vars

    report = grad_check(build, params64)
    elapsed = time.perf_counter() - t0
    ok = report.max_rel_err < 1e-4 and elapsed < 60.0
    verdict(f"[ 1/11] gradient fidelity: {'PASS' if ok else 'FAIL'} "
            f"(max rel err {report.max_rel_err:.2e}, {elapsed:.1f}s)")
    assert report.max_rel_err < 1e-4, report.per_leaf
    assert elapsed < 60.0


def test_entropy_exactness(verdict):
    uniform_ok = all(
        abs(float(predictive_entropy(np.full((1, c), 1.0 / c))[0]) - 1.0) <= 1e-12
        for c in range(2, 9))
    onehot_ok = all(
        float(predictive_entropy(np.eye(c)[[0]].astype(np.float64))[0]) == 0.0
        for c in range(2, 9))
    half = float(predictive_entropy(np.array([[0.5, 0.5, 0.0, 0.0]]))[0])
    ok = uniform_ok and onehot_ok and half == 0.5
    verdict(f"[ 2/11] difficulty-proxy exactness: {'PASS' if ok else 'FAIL'} "
            f"(uniform {uniform_ok}, one-hot {onehot_ok}, half-split {half!r})")
    assert ok


def _minimal_subset_size(pi: np.ndarray, p: float) -> int:
    for m in range(1, pi.size + 1):
        for combo in itertools.combinations(range(pi.size), m):
            if pi[list(combo)].sum() >= p - TOP_P_SLACK:
                return m
    return pi.size


def select_top_p(pi: np.ndarray, p: float) -> np.ndarray:
    """The model's selector on one score row: the selected indices in
    descending-score order (stable ties)."""
    mask = select_top_p_batch(pi[None, :], np.array([p]))[0]
    order = np.argsort(-pi, kind="stable")
    return order[mask[order]]


def test_top_p_minimality_and_nesting(verdict):
    """1000 random (pi, p) draws with K <= 6: exhaustive subset enumeration
    certifies minimal cardinality; a second threshold certifies nesting."""
    rng = np.random.default_rng(42)
    minimal = nested = 0
    draws = 1000
    for _ in range(draws):
        k = int(rng.integers(1, 7))
        pi = rng.dirichlet(np.full(k, 0.7))
        p_lo, p_hi = sorted(rng.uniform(0.0, 1.0, 2))
        sel_hi = select_top_p(pi, p_hi)
        if (sel_hi.size == _minimal_subset_size(pi, p_hi)
                and pi[sel_hi].sum() >= p_hi - TOP_P_SLACK):
            minimal += 1
        if set(select_top_p(pi, p_lo)) <= set(sel_hi):
            nested += 1
    ok = minimal == draws and nested == draws
    verdict(f"[ 3/11] top-p minimality and nesting: {'PASS' if ok else 'FAIL'} "
            f"(minimal {minimal}/{draws}, nested {nested}/{draws})")
    assert ok


def test_cold_start_full_activation(verdict, hetero_graph):
    state = fit(hetero_graph, ModelConfig(**FIXTURE_MODEL),
                dataclasses.replace(FIXTURE_TRAIN, max_epochs=1, seed=0))
    rep = state.history[0]
    ok = rep.mean_active_experts == 4.0 and rep.per_expert_load == [1.0] * 8
    verdict(f"[ 4/11] epoch-0 cold start: {'PASS' if ok else 'FAIL'} "
            f"(mean active {rep.mean_active_experts}, "
            f"all loads one: {rep.per_expert_load == [1.0] * 8})")
    assert ok


def load_balance_loss(pi: np.ndarray, selected: np.ndarray) -> float:
    """Reference balance term of one layer: K * sum_i f_i * Q_i, with f_i the
    fraction of nodes selecting expert i and Q_i its mean routing probability."""
    return float(pi.shape[1] * (selected.mean(axis=0) * pi.mean(axis=0)).sum())


def test_load_balance_calibration(verdict):
    """Exact values on hand-built routings, and gradient flow only through
    the mean routing probability."""
    assign = np.eye(4)[np.array([0, 1, 2, 3] * 2)]
    balanced = load_balance_loss(assign, assign > 0)
    collapse_pi = np.eye(4)[np.zeros(8, int)]
    collapsed = load_balance_loss(collapse_pi, collapse_pi > 0)

    g = _small_split_graph(n=24, dim=6, seed=5)
    cfg = ModelConfig(in_dim=6, hidden=8, classes=4, experts=3, layers=2, dropout=0.0)
    params = init_params(cfg, np.random.default_rng(2))
    fw = forward(params, g, np.full(g.n, 0.7), mode="train")

    def balance_grads(shift):
        freqs = [lt.selected.mean(axis=0) + shift for lt in fw.trace.layers]
        total = fw.tape.routing_penalty(fw.layer_pis, freqs, 0.0, 1.0)[0]
        fw.tape.backward(total)
        return total.item(), {n: fw.leaf_vars[n].grad.copy() for n in params.tensors}

    val0, g0 = balance_grads(0.0)
    val1, g1 = balance_grads(0.3)
    grad_delta = max(np.abs(g0[n] - g1[n]).max() for n in g0)
    ok = (balanced == 1.0 and collapsed == 4.0
          and val1 != val0 and grad_delta < 1e-10)
    verdict(f"[ 5/11] balance-loss calibration: {'PASS' if ok else 'FAIL'} "
            f"(balanced {balanced}, collapsed {collapsed}, "
            f"frozen-frequency grad delta {grad_delta:.1e})")
    assert ok


def test_scaling_law(verdict):
    t0 = time.perf_counter()
    u_grid = np.geomspace(0.05, 1.0, 24)
    slope_errs = {}
    for mu in (1.0, 2.0):
        for phi in (1.0, 2.0):
            sp = ScalingParams(beta=0.01, mu=mu, alpha=1.0, phi=phi, rho=0.0)
            slope = fit_scaling_exponent(sp, u_grid, k_max=16.0)
            slope_errs[(mu, phi)] = abs(slope - 1.0 / (mu + phi))
    slopes_ok = all(err <= 0.02 for err in slope_errs.values())

    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(100):
        sp = ScalingParams(beta=float(rng.uniform(0.01, 1.0)),
                           mu=float(rng.uniform(0.5, 3.0)),
                           alpha=float(rng.uniform(0.1, 5.0)),
                           phi=float(rng.uniform(0.5, 3.0)),
                           rho=float(rng.uniform(0.0, 0.9)),
                           eps=float(rng.uniform(0.0, 0.5)))
        u = float(rng.uniform(0.01, 1.0))
        worst = max(worst, abs(optimal_k_bruteforce(sp, u, 32.0)
                               - optimal_k_closed_form(sp, u, 32.0)))
    elapsed = time.perf_counter() - t0
    ok = slopes_ok and worst <= 1e-2 and elapsed < 10.0
    verdict(f"[ 6/11] uncertainty scaling law: {'PASS' if ok else 'FAIL'} "
            f"(max slope err {max(slope_errs.values()):.4f}, "
            f"closed-vs-grid {worst:.2e}, {elapsed:.1f}s)")
    assert ok


def test_difficulty_activation_alignment(verdict, hetero_graph, proxy_entropy,
                                         full_states):
    """Harder nodes (by the fixed proxy) should use more experts after
    training: positive rank correlation in at least 4 of 5 seeds."""
    entropy, proxy_acc = proxy_entropy
    rhos = []
    for state in full_states:
        report = evaluate(state.params, hetero_graph)
        buckets = stratify_by_entropy(entropy, hetero_graph.test_mask, report.predictions,
                                      hetero_graph.labels, report.trace)
        rhos.append(decile_activation_spearman(buckets))
    positive = sum(r > 0 for r in rhos)
    ok = positive >= 4
    verdict(f"[ 7/11] difficulty-activation alignment: {'PASS' if ok else 'FAIL'} "
            f"({positive}/5 seeds positive, rhos "
            f"{[round(r, 3) for r in rhos]}, proxy acc {proxy_acc:.3f})")
    assert ok


def test_ablation_direction(verdict, hetero_graph, full_states):
    full_accs = [s.history[s.best_epoch].acc_test for s in full_states]
    full_mean = float(np.mean(full_accs))
    mcfg = ModelConfig(**FIXTURE_MODEL)
    topk = run_ablation(hetero_graph, mcfg, FIXTURE_TRAIN, TopK(1),
                        seeds=FIXTURE_SEEDS)
    topp = run_ablation(hetero_graph, mcfg, FIXTURE_TRAIN, FixedTopP(0.5),
                        seeds=FIXTURE_SEEDS)
    ok = full_mean >= topk.mean and full_mean >= topp.mean
    verdict(f"[ 8/11] ablation direction: {'PASS' if ok else 'FAIL'} "
            f"(full {full_mean:.4f} vs static_topk(1) {topk.mean:.4f} "
            f"vs fixed_topp(0.5) {topp.mean:.4f})")
    assert ok


def test_full_budget_equivalence(verdict, hetero_graph):
    """Three spellings of 'use every expert' must coincide."""
    mcfg = ModelConfig(**FIXTURE_MODEL)
    tcfg = dataclasses.replace(FIXTURE_TRAIN, max_epochs=10, seed=1)
    a = fit(hetero_graph, mcfg, tcfg, variant=FixedTopP(1.0))
    b = fit(hetero_graph, mcfg, tcfg, variant=TopK(4))
    c = fit(hetero_graph, mcfg, tcfg, threshold_override=np.ones(hetero_graph.n))
    ones = np.ones(hetero_graph.n)
    preds = [evaluate(s.final_params, hetero_graph, budget=ones).predictions
             for s in (a, b, c)]
    params_equal = all(
        np.array_equal(a.final_params.tensors[name], arr)
        for other in (b, c) for name, arr in other.final_params.tensors.items())
    preds_equal = (np.array_equal(preds[0], preds[1])
                   and np.array_equal(preds[0], preds[2]))
    ok = preds_equal and params_equal
    verdict(f"[ 9/11] full-budget equivalence: {'PASS' if ok else 'FAIL'} "
            f"(predictions identical {preds_equal}, parameters identical "
            f"{params_equal})")
    assert ok


def test_determinism_and_persistence(verdict, hetero_graph, tmp_path):
    mcfg = ModelConfig(**FIXTURE_MODEL)
    tcfg = dataclasses.replace(FIXTURE_TRAIN, max_epochs=30, seed=3)
    s1 = fit(hetero_graph, mcfg, tcfg)
    s2 = fit(hetero_graph, mcfg, tcfg)
    p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    write_metrics(s1.history, p1)
    write_metrics(s2.history, p2)
    metrics_ok = p1.read_bytes() == p2.read_bytes()

    ckpt = tmp_path / "model.bin"
    save_checkpoint(s1.params, ckpt)
    loaded = load_checkpoint(ckpt)
    before = evaluate(s1.params, hetero_graph).probs
    after = evaluate(loaded, hetero_graph).probs
    roundtrip_ok = np.array_equal(before, after)
    ok = metrics_ok and roundtrip_ok
    verdict(f"[10/11] determinism and persistence: {'PASS' if ok else 'FAIL'} "
            f"(metrics byte-identical {metrics_ok}, "
            f"checkpoint probs bit-exact {roundtrip_ok})")
    assert ok


def test_suite_time_budget(verdict, suite_start):
    elapsed = time.time() - suite_start
    ok = elapsed < 700.0
    verdict(f"[11/11] time budget: {'PASS' if ok else 'FAIL'} "
            f"({elapsed:.1f}s elapsed of 700s allowance; "
            f"full-suite wall time printed at session end)")
    assert ok
