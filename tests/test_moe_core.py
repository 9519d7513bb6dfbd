"""Routing ops against enumeration oracles; the forward pass against a dense
numpy reimplementation; checkpoint round trips."""

import itertools
import math
import struct
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from d2moe.graph import SbmSpec, build_graph, generate_sbm, split_nodes
from d2moe.moe_core import (
    CheckpointError,
    ExpertKind,
    ModelConfig,
    ModelParams,
    TopK,
    accuracy,
    evaluate,
    forward,
    init_params,
    load_checkpoint,
    map_budget,
    predict,
    predictive_entropy,
    save_checkpoint,
    select_top_p_batch,
    top_k_mask,
)
from d2moe.numerics import Const, Tape, grad_check
from d2moe.training import losses_on_tape

RNG = np.random.default_rng
V1_CHECKPOINT = Path(__file__).parent / "data" / "v1_sage_half_half_bn.bin"


def small_graph(n=20, seed=0, classes=3):
    g = generate_sbm(SbmSpec(n=n, classes=classes, dim=4, p_in=0.3, p_out=0.1,
                             signal=1.5, seed=seed))
    return split_nodes(g, (0.5, 0.25, 0.25), seed=seed)


def small_params(g, experts=3, layers=2, hidden=8, seed=1, **kw):
    cfg = ModelConfig(in_dim=g.dim, hidden=hidden, classes=g.n_classes,
                      experts=experts, layers=layers, dropout=kw.pop("dropout", 0.0), **kw)
    return init_params(cfg, RNG(seed))


# ---- predictive entropy --------------------------------------------------


def test_entropy_uniform_exact_one():
    u = predictive_entropy(np.full((1, 4), 0.25))
    assert u[0] == 1.0


def test_entropy_one_hot_exact_zero():
    u = predictive_entropy(np.array([[0.0, 1.0, 0.0]]))
    assert u[0] == 0.0


def test_entropy_half_half_exact():
    u = predictive_entropy(np.array([[0.5, 0.5, 0.0, 0.0]]))
    assert u[0] == 0.5


def test_entropy_requires_two_classes():
    with pytest.raises(ValueError):
        predictive_entropy(np.ones((3, 1)))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 7), st.integers(1, 5))
def test_entropy_bounded(seed, c, n):
    raw = RNG(seed).random((n, c)) + 1e-6
    probs = raw / raw.sum(axis=1, keepdims=True)
    u = predictive_entropy(probs)
    assert np.all(u >= 0.0) and np.all(u <= 1.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_entropy_rejects_non_finite_probabilities(bad):
    probs = np.array([[0.5, 0.5], [bad, 0.5], [0.25, 0.75]])
    with pytest.raises(ValueError, match=r"1 row\(s\) with non-finite probabilities, first row 1$"):
        predictive_entropy(probs)


# ---- budget mapping ------------------------------------------------------


def test_budget_midpoint():
    u = np.array([0.3, 0.3, 0.3])
    np.testing.assert_allclose(map_budget(u, gamma=5.0), 0.5)


def test_budget_gamma_scale():
    # one node half an entropy unit above the mean of {0.25, 0.75}: centered +0.25
    u = np.array([0.25, 0.75])
    p = map_budget(u, gamma=10.0)
    assert p[1] == pytest.approx(1.0 / (1.0 + np.exp(-2.5)), abs=1e-12)


def test_budget_strictly_increasing_in_entropy():
    u = np.linspace(0.0, 1.0, 50)
    p = map_budget(u, gamma=5.0)
    assert np.all(np.diff(p) > 0)


def test_budget_empty_vector():
    with pytest.raises(ValueError):
        map_budget(np.array([]), gamma=5.0)


# ---- top-p selection -----------------------------------------------------


def brute_force_min_cardinality(pi, p):
    """Smallest subset size (any composition) whose mass reaches p."""
    k = len(pi)
    for size in range(1, k + 1):
        for combo in itertools.combinations(range(k), size):
            if sum(pi[i] for i in combo) >= p - 1e-9:
                return size
    return k


def select_top_p(pi, p):
    """The model's selector on one score row: the selected indices in
    descending-score order (stable ties)."""
    mask = select_top_p_batch(pi[None, :], np.array([p]))[0]
    order = np.argsort(-pi, kind="stable")
    return order[mask[order]]


def test_select_examples():
    assert set(select_top_p(np.array([0.6, 0.3, 0.1]), 0.5)) == {0}
    assert set(select_top_p(np.array([0.2, 0.5, 0.3]), 1.0)) == {0, 1, 2}
    assert set(select_top_p(np.array([0.25, 0.25, 0.25, 0.25]), 0.6)) == {0, 1, 2}


def test_select_tie_prefers_lower_index():
    sel = select_top_p(np.array([0.4, 0.4, 0.2]), 0.3)
    np.testing.assert_array_equal(sel, [0])


def test_select_at_least_one():
    assert len(select_top_p(np.array([0.5, 0.5]), 1e-12)) == 1


def test_select_minimality_random_draws():
    rng = RNG(99)
    for _ in range(300):
        k = int(rng.integers(1, 7))
        pi = rng.dirichlet(np.ones(k))
        p = float(rng.uniform(0.0, 1.0))
        sel = select_top_p(pi, p)
        # a prefix of the descending sort...
        order = np.argsort(-pi, kind="stable")
        np.testing.assert_array_equal(sel, order[: len(sel)])
        # ...whose cardinality is the global minimum over all subsets
        assert len(sel) == brute_force_min_cardinality(pi, p)
        # and it reaches the threshold while the shorter prefix does not
        assert pi[sel].sum() >= p - 1e-9
        if len(sel) > 1:
            assert pi[sel[:-1]].sum() < p - 1e-9


def test_select_monotone_nesting():
    rng = RNG(7)
    for _ in range(200):
        pi = rng.dirichlet(np.ones(int(rng.integers(1, 7))))
        p1, p2 = sorted(rng.uniform(0, 1, size=2))
        assert set(select_top_p(pi, p1)) <= set(select_top_p(pi, p2))


def test_select_batch_matches_scalar():
    """Each row of a batch is selected as if alone, with its own threshold."""
    rng = RNG(11)
    pi = rng.dirichlet(np.ones(5), size=40)
    thr = rng.uniform(0, 1, size=40)
    mask = select_top_p_batch(pi, thr)
    for v in range(40):
        np.testing.assert_array_equal(np.flatnonzero(mask[v]),
                                      np.sort(select_top_p(pi[v], thr[v])))
        assert mask[v].sum() == brute_force_min_cardinality(pi[v], thr[v])


def test_top_k_mask_stable_ties():
    mask = top_k_mask(np.array([[0.25, 0.25, 0.25, 0.25]]), k=2)
    np.testing.assert_array_equal(mask, [[True, True, False, False]])
    with pytest.raises(ValueError):
        top_k_mask(np.ones((1, 3)), k=4)


# ---- router --------------------------------------------------------------


def route_scores(h, t, l):
    """Dense reference router of layer ``l`` over the float32 tensors ``t``."""
    f64 = lambda name: t[f"layer{l}.router.{name}"].astype(np.float64)
    hidden = np.maximum(h @ f64("w1") + f64("b1"), 0.0)
    logits = hidden @ f64("w2") + f64("b2")
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def test_route_scores_zero_weights_uniform():
    g = small_graph()
    params = small_params(g, experts=4)
    params.tensors["layer0.router.w1"][...] = 0
    params.tensors["layer0.router.w2"][...] = 0
    fw = forward(params, g, np.ones(g.n), mode="eval")
    np.testing.assert_allclose(fw.trace.layers[0].pi, 0.25, atol=1e-12)


def test_route_scores_rows_sum_to_one():
    g = small_graph()
    params = small_params(g, experts=5)
    fw = forward(params, g, np.full(g.n, 0.5), mode="eval")
    for lt in fw.trace.layers:
        np.testing.assert_allclose(lt.pi.sum(axis=1), 1.0, atol=1e-12)


# ---- experts vs dense oracles -------------------------------------------


def _expert_via_tape(kind, tensors, h, g):
    """One expert's output: a one-expert, all-selected mixture, whose weight
    is exactly 1."""
    from d2moe.moe_core import _expert_terms, _layer_aggregates

    tape = Tape()
    lv = {f"e.{k}": tape.leaf(v.astype(np.float64)) for k, v in tensors.items()}
    hv = tape.leaf(h)
    agg = _layer_aggregates(tape, hv, g, [kind])
    expert = _expert_terms(tape, kind, lv, "e", hv, agg, g)
    return tape.mix_experts([expert], tape.leaf(np.ones((g.n, 1))),
                            np.ones((g.n, 1), dtype=bool),
                            Const(np.zeros((g.n, tensors["b"].shape[1])))).value


def test_gcn_one_hop_identity_graph():
    g = build_graph([], np.zeros((5, 3)), np.zeros(5, dtype=np.int64), n_classes=2)
    h = RNG(2).normal(size=(5, 4))
    out = _expert_via_tape(ExpertKind.GCN_ONE_HOP,
                           {"w": np.eye(4, dtype=np.float32),
                            "b": np.zeros((1, 4), dtype=np.float32)}, h, g)
    np.testing.assert_allclose(out, h, atol=1e-12)


def test_gcn_one_hop_regular_graph_preserves_constants():
    # 6-cycle: 2-regular, so normalization is uniform and constants persist
    edges = [(i, (i + 1) % 6) for i in range(6)]
    g = build_graph(edges, np.zeros((6, 2)), np.zeros(6, dtype=np.int64), n_classes=2)
    h = np.tile([1.5, -2.0, 0.5], (6, 1))
    w = RNG(3).normal(size=(3, 3)).astype(np.float32)
    out = _expert_via_tape(ExpertKind.GCN_ONE_HOP,
                           {"w": w, "b": np.zeros((1, 3), np.float32)}, h, g)
    spread = out.max(axis=0) - out.min(axis=0)
    np.testing.assert_allclose(spread, 0.0, atol=1e-6)


def test_experts_match_dense_oracles():
    g = small_graph(n=12, seed=4)
    h = RNG(5).normal(size=(12, 6))
    adj = g.adj.toarray()
    mean = g.mean_adj.toarray()
    w = {k: RNG(10 + i).normal(size=(6, 6)).astype(np.float32) for i, k in
         enumerate(["w", "wa", "wb", "w_self", "w_nbr"])}
    b = RNG(20).normal(size=(1, 6)).astype(np.float32)

    out = _expert_via_tape(ExpertKind.GCN_ONE_HOP, {"w": w["w"], "b": b}, h, g)
    np.testing.assert_allclose(out, adj @ (h @ w["w"].astype(np.float64)) + b, atol=1e-9)

    out = _expert_via_tape(ExpertKind.GCN_TWO_HOP,
                           {"wa": w["wa"], "wb": w["wb"], "b": b}, h, g)
    inner = np.maximum(adj @ (h @ w["wa"].astype(np.float64)), 0.0)
    np.testing.assert_allclose(out, (adj @ inner) @ w["wb"].astype(np.float64) + b, atol=1e-9)

    out = _expert_via_tape(ExpertKind.SAGE_MEAN_ONE_HOP,
                           {"w_self": w["w_self"], "w_nbr": w["w_nbr"], "b": b}, h, g)
    expect = h @ w["w_self"].astype(np.float64) + (mean @ h) @ w["w_nbr"].astype(np.float64) + b
    np.testing.assert_allclose(out, expect, atol=1e-9)


@pytest.mark.parametrize("backbone,layout,experts,per_layer", [
    ("gcn", "all_1hop", 4, 1),
    ("sage", "all_1hop", 4, 1),
    ("gcn", "half_half", 4, 1 + 4 // 2),
    ("gcn", "half_half", 5, 1 + 5 // 2),
])
def test_forward_aggregates_once_per_layer(monkeypatch, backbone, layout, experts, per_layer):
    """Experts share their layer's aggregation: one sparse product per layer,
    plus one per two-hop expert for its second hop."""
    calls = []
    real_spmm = Tape.spmm

    def counting_spmm(self, adj, adj_t, x):
        calls.append(adj.shape)
        return real_spmm(self, adj, adj_t, x)

    monkeypatch.setattr(Tape, "spmm", counting_spmm)
    g = small_graph()
    params = small_params(g, experts=experts, layers=3, backbone=backbone,
                          expert_layout=layout)
    forward(params, g, np.ones(g.n), mode="eval")
    assert len(calls) == 3 * per_layer


@pytest.mark.parametrize("backbone,layout", [("gcn", "all_1hop"), ("sage", "all_1hop"),
                                             ("gcn", "half_half")])
def test_forward_records_one_mixture_step_per_layer(monkeypatch, backbone, layout):
    """Expert transforms, renormalization and mixing are one tape step per
    layer; with one-hop experts the tape's length does not depend on K."""
    calls = []
    real = Tape.mix_experts

    def counting(self, experts, pi, mask, residual):
        calls.append(len(experts))
        return real(self, experts, pi, mask, residual)

    monkeypatch.setattr(Tape, "mix_experts", counting)
    g = small_graph()
    steps = {}
    for k in (1, 2, 8):
        calls.clear()
        params = small_params(g, experts=k, layers=3, backbone=backbone, expert_layout=layout)
        steps[k] = len(forward(params, g, np.full(g.n, 0.7), mode="train").tape._steps)
        assert calls == [k] * 3
    assert min(steps.values()) > 0
    if layout == "all_1hop":
        assert steps[1] == steps[2] == steps[8]


@pytest.mark.parametrize("layers", [1, 2, 3])
def test_forward_records_one_step_per_dense_layer(layers):
    """Embedding, router layers and head are one matmul step each, bias
    included, and the residual add is part of the mixture step: without
    dropout or batch norm a train forward records 4 + 7L steps (embedding 2,
    each layer spmm + router 4 + mix + relu, head 2)."""
    g = small_graph()
    params = small_params(g, experts=3, layers=layers)
    fw = forward(params, g, np.full(g.n, 0.7), mode="train")
    assert len(fw.tape._steps) == 4 + 7 * layers


@pytest.mark.parametrize("layers", [1, 2])
def test_forward_dropout_and_norm_steps_by_mode(layers):
    """Dropout adds 1 + L steps and batch norm L to a train forward; the same
    path on an eval tape records none and draws nothing from the stream."""
    g = small_graph()
    params = small_params(g, layers=layers, dropout=0.5, use_batch_norm=True)
    fw = forward(params, g, np.full(g.n, 0.7), mode="train", rng=RNG(5))
    assert len(fw.tape._steps) == 4 + 7 * layers + (1 + layers) + layers
    rng = RNG(5)
    state = rng.bit_generator.state
    fw = forward(params, g, np.full(g.n, 0.7), mode="eval", rng=rng)
    assert fw.tape._steps == []
    assert rng.bit_generator.state == state


def test_eval_forward_records_nothing():
    """An eval tape keeps no steps and no leaves, so each intermediate is
    freed once the forward stops reading it, and backward on it raises."""
    g = small_graph()
    params = small_params(g, use_batch_norm=True)
    fw = forward(params, g, np.full(g.n, 0.7), mode="eval")
    assert not fw.tape.recording
    assert fw.tape._steps == [] and fw.tape._leaves == []
    loss = fw.tape.masked_nll(fw.probs, g.labels, g.mask_idx("train"))
    assert fw.tape._steps == []
    with pytest.raises(ValueError, match="recorded no steps"):
        fw.tape.backward(loss)


def _forward_backward_peak(experts, n, hidden, layers):
    g = small_graph(n=n, seed=21)
    params = small_params(g, experts=experts, layers=layers, hidden=hidden, seed=2)
    tracemalloc.start()
    try:
        fw = forward(params, g, np.ones(g.n), mode="train")
        fw.tape.backward(fw.tape.masked_nll(fw.probs, g.labels, g.mask_idx("train")))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak


def test_extra_expert_memory_under_two_activations():
    """Forward plus backward keeps under two n×hidden float64 arrays per
    extra expert per layer: its rows of the stacked buffer the forward mixes
    (freed once mixed) or its backward transients, plus slack."""
    n, hidden, layers = 500, 32, 2
    peak = {k: _forward_backward_peak(k, n, hidden, layers) for k in (2, 6)}
    growth = peak[6] - peak[2]
    per_expert = growth / ((6 - 2) * layers * n * hidden * 8)
    assert per_expert < 2.0, per_expert


def test_tape_keeps_no_expert_output():
    """An extra expert adds under one n×hidden float64 array per layer to the
    forward-plus-backward peak: the mixture step's backward recovers g·z_i
    from its own products, so no expert output stays on the tape (keeping
    each one read 1.34 here)."""
    n, hidden, layers = 500, 32, 2
    peak = {k: _forward_backward_peak(k, n, hidden, layers) for k in (2, 6)}
    per_expert = (peak[6] - peak[2]) / ((6 - 2) * layers * n * hidden * 8)
    assert per_expert < 1.0, per_expert


@pytest.mark.parametrize("backbone", ["gcn", "sage"])
@pytest.mark.parametrize("batch_norm", [False, True])
def test_forward_frees_values_no_backward_reads(monkeypatch, backbone, batch_norm):
    """While a train forward's tape is alive, before backward, every relu
    input is already freed: relu keeps only its mask, and no other backward
    reads the embedding's pre-activation, a router's hidden pre-activation,
    a two-hop expert's inner product or a mixture (or batch-norm) output.
    The gradients are those of the same forward with every relu input held."""
    g = small_graph(n=30)
    params = small_params(g, experts=4, layers=2, dropout=0.5, backbone=backbone,
                          expert_layout="half_half", use_batch_norm=batch_norm)
    relu = Tape.relu

    def run(hold):
        seen = []

        def spy(tape, a):
            seen.append(a.value if hold else weakref.ref(a.value))
            return relu(tape, a)

        monkeypatch.setattr(Tape, "relu", spy)
        fw = forward(params, g, np.full(g.n, 0.5), mode="train", rng=RNG(3))
        monkeypatch.setattr(Tape, "relu", relu)
        return fw, seen

    fw, refs = run(hold=False)
    assert len(refs) >= 1 + 2 * 2
    assert all(ref() is None for ref in refs)
    fw.tape.backward(losses_on_tape(fw, g, 1e-4, 1e-3)[0])
    held, _ = run(hold=True)
    held.tape.backward(losses_on_tape(held, g, 1e-4, 1e-3)[0])
    for name, leaf in held.leaf_vars.items():
        assert leaf.grad.tobytes() == fw.leaf_vars[name].grad.tobytes(), name


def _objective_backward_peak(layers, n=500, hidden=32):
    g = small_graph(n=n, seed=21)
    params = small_params(g, experts=4, layers=layers, hidden=hidden, seed=2, dropout=0.5)
    tracemalloc.start()
    try:
        fw = forward(params, g, np.full(g.n, 0.5), mode="train", rng=RNG(3))
        fw.tape.backward(losses_on_tape(fw, g, 1e-4, 1e-3)[0])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak


def test_extra_layer_peak_under_six_and_a_half_activations():
    """An extra mixture layer adds under 6.5 n×hidden float64 arrays to the
    peak of a train forward, its objective and backward: a step output no
    backward reads is freed during the forward and the residual add is part
    of the mixture step (keeping every output until the tape is freed read
    7.78 here)."""
    n, hidden = 500, 32
    growth = _objective_backward_peak(3, n, hidden) - _objective_backward_peak(1, n, hidden)
    per_layer = growth / (2 * n * hidden * 8)
    assert per_layer < 6.5, per_layer


def test_sage_isolated_node_is_self_plus_own_mean():
    g = build_graph([(0, 1)], np.zeros((3, 2)), np.zeros(3, dtype=np.int64), n_classes=2)
    h = RNG(6).normal(size=(3, 4))
    ws = RNG(7).normal(size=(4, 4)).astype(np.float32)
    wn = RNG(8).normal(size=(4, 4)).astype(np.float32)
    out = _expert_via_tape(ExpertKind.SAGE_MEAN_ONE_HOP,
                           {"w_self": ws, "w_nbr": wn, "b": np.zeros((1, 4), np.float32)},
                           h, g)
    # node 2 is isolated: neighborhood mean is itself
    expect = h[2] @ ws.astype(np.float64) + h[2] @ wn.astype(np.float64)
    np.testing.assert_allclose(out[2], expect, atol=1e-9)


# ---- forward pass --------------------------------------------------------


def test_forward_cold_start_selects_everything():
    g = small_graph()
    params = small_params(g, experts=4, layers=2)
    fw = forward(params, g, np.ones(g.n), mode="eval")
    counts = fw.trace.active_counts()
    assert counts.shape == (2, g.n)
    assert np.all(counts == 4)


def test_forward_probability_rows():
    g = small_graph()
    params = small_params(g, experts=3, layers=2)
    fw = forward(params, g, np.full(g.n, 0.5), mode="eval")
    np.testing.assert_allclose(fw.probs.value.sum(axis=1), 1.0, atol=1e-6)
    assert np.all(fw.probs.value > 0)


def test_forward_eval_bit_deterministic():
    g = small_graph()
    params = small_params(g, experts=3, layers=2, dropout=0.5, use_batch_norm=True)
    a = forward(params, g, np.full(g.n, 0.7), mode="eval")
    b = forward(params, g, np.full(g.n, 0.7), mode="eval")
    np.testing.assert_array_equal(a.probs.value, b.probs.value)


def test_forward_renorm_rows_sum_one_outside_zero():
    g = small_graph()
    params = small_params(g, experts=4, layers=1)
    fw = forward(params, g, np.full(g.n, 0.6), mode="eval")
    lt = fw.trace.layers[0]
    renorm = np.where(lt.selected, lt.pi, 0.0)
    renorm /= renorm.sum(axis=1, keepdims=True)
    np.testing.assert_allclose(renorm.sum(axis=1), 1.0, atol=1e-6)
    assert np.all(renorm[~lt.selected] == 0.0)
    assert np.all(lt.selected.sum(axis=1) >= 1)


def test_forward_full_activation_matches_dense_mixture_oracle():
    """With every budget at 1, the model must equal an independently coded
    dense forward where experts are weighted by the raw router scores."""
    g = small_graph(n=15, seed=9)
    params = small_params(g, experts=3, layers=2, hidden=8, seed=3)
    fw = forward(params, g, np.ones(g.n), mode="eval")

    adj = g.adj.toarray()
    t = params.tensors
    f64 = lambda name: t[name].astype(np.float64)
    h = np.maximum(g.features @ f64("embed.w") + f64("embed.b"), 0.0)
    for l in range(2):
        zs = [adj @ (h @ f64(f"layer{l}.expert{i}.w")) + f64(f"layer{l}.expert{i}.b")
              for i in range(3)]
        pi = route_scores(h, t, l)
        pi = pi / pi.sum(axis=1, keepdims=True)  # renormalization over the full set
        h = h + sum(pi[:, i : i + 1] * zs[i] for i in range(3))
        h = np.maximum(h, 0.0)
    logits = h @ f64("head.w") + f64("head.b")
    z = logits - logits.max(axis=1, keepdims=True)
    probs = np.exp(z) / np.exp(z).sum(axis=1, keepdims=True)

    np.testing.assert_allclose(fw.probs.value, probs, atol=1e-9)


def test_forward_topk_budget():
    g = small_graph()
    params = small_params(g, experts=4, layers=2)
    fw = forward(params, g, TopK(2), mode="eval")
    assert np.all(fw.trace.active_counts() == 2)
    with pytest.raises(ValueError):
        forward(params, g, TopK(9), mode="eval")


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_forward_and_evaluate_reject_non_finite_thresholds(bad):
    g = small_graph()
    params = small_params(g, experts=4, layers=1)
    thresholds = np.full(g.n, 0.7)
    thresholds[5] = bad
    for mode in ("train", "eval"):
        with pytest.raises(ValueError, match="1 non-finite values .first at node 5"):
            forward(params, g, thresholds, mode=mode)
    with pytest.raises(ValueError, match="non-finite values"):
        evaluate(params, g, np.full(g.n, bad))


def test_forward_and_evaluate_reject_wrong_shape_thresholds():
    g = small_graph()
    params = small_params(g, experts=4, layers=1)
    for mode in ("train", "eval"):
        with pytest.raises(ValueError, match=rf"^threshold vector must have shape \({g.n},\), "
                                             r"got \(3,\)$"):
            forward(params, g, np.ones(3), mode=mode)
    with pytest.raises(ValueError, match="threshold vector must have shape"):
        evaluate(params, g, np.ones((g.n, 1)))


def test_forward_train_needs_rng_with_dropout():
    g = small_graph()
    params = small_params(g, dropout=0.5)
    with pytest.raises(ValueError):
        forward(params, g, np.ones(g.n), mode="train")


def test_forward_train_updates_running_stats_eval_does_not():
    g = small_graph()
    params = small_params(g, use_batch_norm=True, dropout=0.0)
    running_mean = params.tensors["layer0.norm.running_mean"]
    before = running_mean.copy()
    forward(params, g, np.ones(g.n), mode="eval")
    np.testing.assert_array_equal(running_mean, before)
    forward(params, g, np.ones(g.n), mode="train")
    assert not np.array_equal(running_mean, before)


def test_predict_tie_rules():
    np.testing.assert_array_equal(predict(np.array([[0.1, 0.7, 0.2]])), [1])
    np.testing.assert_array_equal(predict(np.array([[0.5, 0.5]])), [0])
    np.testing.assert_array_equal(predict(np.full((1, 3), 1 / 3)), [0])


def test_accuracy_empty_mask_is_nan():
    assert np.isnan(accuracy(np.array([0]), np.array([0]), np.array([False])))


# ---- model-level gradient check -----------------------------------------


def test_full_model_grad_check_all_expert_kinds_norm_dropout():
    """Finite differences through a half_half sage model with batch norm and a
    fixed-mask dropout: every parameter kind gets a nonzero, checked grad."""
    g = small_graph(n=12, seed=13)
    cfg = ModelConfig(in_dim=g.dim, hidden=8, classes=g.n_classes, experts=3,
                      layers=1, dropout=0.3, use_batch_norm=True,
                      expert_layout="half_half", backbone="sage")
    p64 = ModelParams(cfg, init_params(cfg, RNG(5)).flat.astype(np.float64))
    thresholds = np.full(g.n, 0.8)
    train_idx = g.mask_idx("train")

    def build():
        fw = forward(p64, g, thresholds, mode="train", rng=RNG(77))
        loss = fw.tape.masked_nll(fw.probs, g.labels, train_idx)
        return fw.tape, loss, fw.leaf_vars

    report = grad_check(build, p64.tensors)
    assert report.max_rel_err < 1e-4, report.per_leaf


@pytest.mark.parametrize("layout", ["all_1hop", "half_half"])
def test_full_model_grad_check_gcn_partial_masks(layout):
    """Finite differences through a two-layer GCN model at thresholds 0.6,
    where some nodes select fewer than K experts, so each expert's gradient
    flows through its selected rows only."""
    g = small_graph(n=12, seed=13)
    cfg = ModelConfig(in_dim=g.dim, hidden=8, classes=g.n_classes, experts=4,
                      layers=2, dropout=0.0, expert_layout=layout, backbone="gcn")
    p64 = ModelParams(cfg, init_params(cfg, RNG(6)).flat.astype(np.float64))
    thresholds = np.full(g.n, 0.6)
    train_idx = g.mask_idx("train")

    def build():
        fw = forward(p64, g, thresholds, mode="train")
        loss = fw.tape.masked_nll(fw.probs, g.labels, train_idx)
        return fw.tape, loss, fw.leaf_vars

    active = forward(p64, g, thresholds, mode="train").trace.active_counts()
    assert (active < cfg.experts).any() and (active > 1).any()
    report = grad_check(build, p64.tensors)
    assert report.max_rel_err < 1e-4, report.per_leaf


# ---- evaluation ----------------------------------------------------------


def test_evaluate_two_pass_adaptive():
    g = small_graph(n=30, seed=14)
    params = small_params(g, experts=4, layers=2, seed=6)
    rep = evaluate(params, g)
    assert rep.thresholds is not None
    np.testing.assert_allclose(
        rep.thresholds,
        1.0 / (1.0 + np.exp(-params.config.gamma * (rep.entropy - rep.entropy.mean()))),
        atol=1e-12)
    assert rep.probs.shape == (30, 3)
    rep2 = evaluate(params, g)
    np.testing.assert_array_equal(rep.probs, rep2.probs)


def test_evaluate_explicit_budgets():
    g = small_graph(n=25, seed=15)
    params = small_params(g, experts=4, layers=1, seed=7)
    rep_k = evaluate(params, g, TopK(4))
    assert rep_k.thresholds is None
    assert np.all(rep_k.trace.active_counts() == 4)
    rep_p = evaluate(params, g, np.ones(g.n))
    np.testing.assert_array_equal(rep_k.predictions, rep_p.predictions)


@pytest.mark.parametrize("budget", [None, "ones", TopK(2)])
def test_evaluate_rejects_non_finite_probabilities(budget):
    g = small_graph(n=25, seed=15)
    params = small_params(g, experts=4, layers=1, seed=7)
    params.tensors["head.b"][0, 0] = np.nan
    with pytest.raises(ValueError, match="non-finite class probabilities"):
        evaluate(params, g, np.ones(g.n) if budget == "ones" else budget)


def test_evaluate_rejects_nan_hidden_activation():
    """A NaN in ``embed.b`` is not zeroed by relu: it makes every router
    score row NaN, so the mixture step raises, naming row 0, before any
    class probability is scored."""
    g = small_graph(n=25, seed=15)
    params = small_params(g, experts=4, layers=1, seed=7)
    params.tensors["embed.b"][0, 0] = np.nan
    with pytest.raises(ValueError, match=r"^mix_experts: selected mass is zero, negative "
                                         r"or NaN in 25 rows \(first row 0: nan\)$"):
        evaluate(params, g)


@pytest.mark.parametrize("field, value", [("classes", 2), ("classes", 5), ("in_dim", 3)])
@pytest.mark.parametrize("budget", [None, TopK(1)])
def test_evaluate_rejects_model_off_its_graph(field, value, budget):
    """A model with too few or too many classes, or the wrong feature width,
    for its 3-class, 4-dim graph is refused in one line, not scored."""
    g = small_graph(n=25, seed=15)
    cfg = ModelConfig(**{**dict(in_dim=g.dim, hidden=8, classes=g.n_classes, experts=2,
                                layers=1), field: value})
    with pytest.raises(ValueError, match=r"^model expects .* graph has 4 and 3$"):
        evaluate(init_params(cfg, RNG(7)), g, budget)


def test_evaluate_explicit_budget_has_no_entropy():
    """Only the adaptive rule runs a full-activation pass, so only it reports
    an entropy."""
    g = small_graph(n=25, seed=15)
    params = small_params(g, experts=4, layers=1, seed=7)
    for budget in (np.full(g.n, 0.6), TopK(2)):
        assert evaluate(params, g, budget).entropy is None


def test_train_forward_leaves_are_every_tensor():
    """Every store tensor is a tape leaf, in layout order; the features are a
    constant. No op reads the batch-norm running statistics' leaves (batch
    norm reads and writes the store), so backward gives them exact zeros."""
    g = small_graph()
    params = small_params(g, experts=3, layers=2, use_batch_norm=True)
    fw = forward(params, g, np.full(g.n, 0.7), mode="train")
    assert list(fw.leaf_vars) == list(params.tensors)
    assert fw.tape._leaves == list(fw.leaf_vars.values())
    fw.tape.backward(fw.tape.masked_nll(fw.probs, g.labels, g.mask_idx("train")))
    stats = [name for name in params.tensors if ".running_" in name]
    assert len(stats) == 4
    for name, leaf in fw.leaf_vars.items():
        assert leaf.grad.shape == params.tensors[name].shape
        assert (name in stats) == (not leaf.grad.any()), name


# ---- checkpoints ---------------------------------------------------------


def test_checkpoint_round_trip_bit_exact(tmp_path):
    g = small_graph()
    params = small_params(g, experts=3, layers=2, use_batch_norm=True,
                          expert_layout="half_half", dropout=0.25)
    # make running stats nontrivial before saving
    forward(params, g, np.ones(g.n), mode="train", rng=RNG(0))
    path = tmp_path / "model.bin"
    save_checkpoint(params, path)
    loaded = load_checkpoint(path)
    assert loaded.config == params.config
    for (na, a), (nb, b) in zip(params.tensors.items(), loaded.tensors.items()):
        assert na == nb
        np.testing.assert_array_equal(a, b)
    # and the loaded model scores identically, down to the bit
    ra = evaluate(params, g, np.ones(g.n))
    rb = evaluate(loaded, g, np.ones(g.n))
    np.testing.assert_array_equal(ra.probs, rb.probs)


def test_checkpoint_bad_magic(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"NOPE" + b"\x00" * 64)
    with pytest.raises(CheckpointError, match="magic"):
        load_checkpoint(path)


def test_checkpoint_bad_version(tmp_path):
    g = small_graph()
    params = small_params(g)
    path = tmp_path / "model.bin"
    save_checkpoint(params, path)
    raw = bytearray(path.read_bytes())
    raw[4] = 99
    path.write_bytes(bytes(raw))
    with pytest.raises(CheckpointError, match="version"):
        load_checkpoint(path)


def test_checkpoint_truncated(tmp_path):
    g = small_graph()
    params = small_params(g)
    path = tmp_path / "model.bin"
    save_checkpoint(params, path)
    raw = path.read_bytes()
    path.write_bytes(raw[: len(raw) - 10])
    with pytest.raises(CheckpointError, match="truncated"):
        load_checkpoint(path)


def test_checkpoint_trailing_bytes(tmp_path):
    g = small_graph()
    params = small_params(g)
    path = tmp_path / "model.bin"
    save_checkpoint(params, path)
    path.write_bytes(path.read_bytes() + b"x")
    with pytest.raises(CheckpointError, match="trailing"):
        load_checkpoint(path)


def _saved(tmp_path, **kw):
    path = tmp_path / "model.bin"
    save_checkpoint(small_params(small_graph(), **kw), path)
    return path


def test_checkpoint_rejects_non_finite_tensor(tmp_path):
    path = _saved(tmp_path)
    raw = path.read_bytes()
    for bad in (math.nan, math.inf):
        # the last four bytes are the final float of head.b
        path.write_bytes(raw[:-4] + struct.pack("<f", bad))
        with pytest.raises(CheckpointError, match="head.b"):
            load_checkpoint(path)


def test_checkpoint_unknown_name_and_bad_shape(tmp_path):
    path = _saved(tmp_path)
    raw = path.read_bytes()
    at = raw.index(b"head.b") + len(b"head.b")
    rows, cols = struct.unpack("<2I", raw[at:at + 8])
    path.write_bytes(raw.replace(b"head.b", b"head.c"))
    with pytest.raises(CheckpointError, match=rf"expected head\.b \({rows}, {cols}\), "
                                              rf"found head\.c \({rows}, {cols}\)$"):
        load_checkpoint(path)
    # a swapped shape, and one whose data would not fit in memory
    for shape in ((cols, rows), (2**31, 2**31)):
        path.write_bytes(raw[:at] + struct.pack("<2I", *shape) + raw[at + 8:])
        with pytest.raises(CheckpointError, match=rf"expected head\.b \({rows}, {cols}\), "
                                                  rf"found head\.b \({shape[0]}, {shape[1]}\)$"):
            load_checkpoint(path)


def test_checkpoint_out_of_layout_order_rejected(tmp_path):
    """Two same-shaped tensors with their names swapped: the reader follows
    the layout, so the first one out of place is named, expected and found."""
    path = _saved(tmp_path)
    raw = path.read_bytes()
    first, second = (raw.index(struct.pack("<H", 16) + name) + 2
                     for name in (b"layer0.expert0.w", b"layer0.expert1.w"))
    swapped = bytearray(raw)
    swapped[first:first + 16] = b"layer0.expert1.w"
    swapped[second:second + 16] = b"layer0.expert0.w"
    path.write_bytes(bytes(swapped))
    with pytest.raises(CheckpointError, match=r"tensor 2: expected layer0\.expert0\.w \(8, 8\), "
                                              r"found layer0\.expert1\.w \(8, 8\)$"):
        load_checkpoint(path)


@pytest.mark.parametrize("edit, error, match", [
    (lambda f: f[:-1], ValueError,
     r"^parameter buffer has shape \(696,\); the config's layout needs \(697,\)$"),
    (lambda f: np.append(f, f[-1]), ValueError,
     r"^parameter buffer has shape \(698,\); the config's layout needs \(697,\)$"),
    (lambda f: f.astype(np.float64), CheckpointError,
     r"^store: expected float32 values, found float64$"),
    (lambda f: f.reshape(1, -1), ValueError,
     r"^parameter buffer has shape \(1, 697\); the config's layout needs \(697,\)$"),
], ids=["missing", "extra", "float64", "wrong-shape"])
def test_save_refuses_store_off_its_layout(tmp_path, edit, error, match):
    """No store off its config's layout reaches a file: a buffer of the wrong
    size or shape is refused when the store is built, a float64 store when it
    is saved, before the file is opened."""
    params = small_params(small_graph())
    path = tmp_path / "model.bin"
    with pytest.raises(error, match=match):
        save_checkpoint(ModelParams(params.config, edit(params.flat)), path)
    assert not path.exists()


def test_store_views_and_decay_mask_are_read_only():
    """A rebound name would leave ``forward`` and the checkpoint writer
    reading an array that AdamW, which moves ``flat``, never touches; so
    ``tensors`` takes no new entry and the decay mask no write, while a write
    through a view still lands in ``flat``."""
    params = small_params(small_graph())
    head = params.tensors["head.w"]
    with pytest.raises(TypeError):
        params.tensors["head.w"] = np.zeros_like(head)
    with pytest.raises(TypeError):
        del params.tensors["head.w"]
    assert params.decayed.shape == params.flat.shape
    with pytest.raises(ValueError, match="read-only"):
        params.decayed[0] = False
    head[0, 0] = 7.0
    at = params.flat.size - params.tensors["head.b"].size - head.size
    assert params.flat[at] == 7.0
    assert params.tensors["head.w"] is head


def test_decay_mask_shared_by_every_store_of_a_config(tmp_path):
    """The decay mask depends on the config alone: stores of one config (two
    draws, a copy, a checkpoint read) hold one read-only array."""
    g = small_graph()
    first, second = small_params(g, seed=1), small_params(g, seed=2)
    assert first.config is not second.config
    assert second.decayed is first.decayed
    assert first.copy().decayed is first.decayed
    save_checkpoint(first, tmp_path / "model.bin")
    assert load_checkpoint(tmp_path / "model.bin").decayed is first.decayed
    with pytest.raises(ValueError, match="read-only"):
        second.decayed[0] = False
    other = small_params(g, experts=4)
    assert other.decayed is not first.decayed
    assert other.decayed.size == other.flat.size


@pytest.mark.parametrize("backbone", ["gcn", "sage"])
@pytest.mark.parametrize("layout", ["all_1hop", "half_half"])
@pytest.mark.parametrize("batch_norm", [False, True])
def test_leaves_alias_the_float32_store(backbone, layout, batch_norm):
    """Every leaf's value is a view of ``params.flat``, so no forward holds a
    float64 copy of the parameters; the ops promote the float32 values
    exactly, so eval probabilities, train probabilities and the gradient
    vector have the bytes of the same store widened to float64."""
    g = small_graph(n=40, seed=3)
    params = small_params(g, experts=4, layers=2, dropout=0.5, backbone=backbone,
                          expert_layout=layout, use_batch_norm=batch_norm)
    wide = ModelParams(params.config, params.flat.astype(np.float64))
    runs = []
    for store in (params, wide):
        scored = forward(store, g, np.full(g.n, 0.6), mode="eval")
        fw = forward(store, g, np.full(g.n, 0.6), mode="train", rng=RNG(5))
        for name, leaf in fw.leaf_vars.items():
            assert leaf.value.dtype == store.flat.dtype, name
            assert np.shares_memory(leaf.value, store.flat), name
        grad = fw.tape.backward(losses_on_tape(fw, g, 1e-4, 1e-3)[0])
        assert grad.dtype == np.float64
        runs.append([scored.probs.value.tobytes(), fw.probs.value.tobytes(), grad.tobytes()])
    assert runs[0] == runs[1]


def test_checkpoint_sizes_checked_before_allocation(tmp_path):
    """A header claiming a large model is rejected by the file size alone,
    before any tensor is allocated."""
    path = tmp_path / "bomb.bin"
    path.write_bytes(b"D2MO" + struct.pack("<I5I", 1, 8, 2, 2048, 64, 4)
                     + struct.pack("<H", 8) + b"all_1hop" + struct.pack("<H", 3) + b"gcn"
                     + struct.pack("<B2dI", 0, 5.0, 0.5, 44))
    tracemalloc.start()
    try:
        with pytest.raises(CheckpointError, match="truncated"):
            load_checkpoint(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@pytest.mark.parametrize("layout, match", [(b"all_3hop", "expert_layout"),
                                           (b"all\xff1hop", "UTF-8")])
def test_checkpoint_bad_header_string(tmp_path, layout, match):
    path = _saved(tmp_path)
    path.write_bytes(path.read_bytes().replace(b"all_1hop", layout))
    with pytest.raises(CheckpointError, match=match):
        load_checkpoint(path)


def _flip(raw: bytes, flips) -> bytes:
    out = bytearray(raw)
    for at, mask in flips:
        out[at % len(out)] ^= mask
    return bytes(out)


_V1_BYTES = V1_CHECKPOINT.read_bytes()
_CHECKPOINT_BYTES = st.one_of(
    st.binary(max_size=100),
    st.binary(max_size=100).map(lambda tail: _V1_BYTES[:8] + tail),  # past magic and version
    st.integers(0, len(_V1_BYTES)).map(lambda k: _V1_BYTES[:k]),
    st.lists(st.tuples(st.integers(0, len(_V1_BYTES)), st.integers(1, 255)),
             min_size=1, max_size=4).map(lambda flips: _flip(_V1_BYTES, flips)))


@settings(max_examples=150, deadline=None)
@given(_CHECKPOINT_BYTES)
def test_any_checkpoint_bytes_load_or_raise_checkpoint_error(tmp_path_factory, raw):
    path = tmp_path_factory.mktemp("fuzz") / "model.bin"
    path.write_bytes(raw)
    try:
        params = load_checkpoint(path)
    except CheckpointError:
        return
    assert all(np.isfinite(arr).all() for arr in params.tensors.values())


def test_v1_checkpoint_loads_and_round_trips(tmp_path):
    """A v1 file (sage, half_half, batch norm, running stats moved by a
    training forward) loads, keeps its tensor order and re-saves to the same
    bytes."""
    params = load_checkpoint(V1_CHECKPOINT)
    cfg = params.config
    assert (cfg.backbone, cfg.expert_layout, cfg.use_batch_norm) == ("sage", "half_half", True)
    assert list(params.tensors) == list(init_params(cfg, RNG(0)).tensors)
    for l in range(cfg.layers):
        assert np.all(params.tensors[f"layer{l}.norm.running_mean"] != 0.0)
        assert np.all(params.tensors[f"layer{l}.norm.running_var"] != 1.0)
    path = tmp_path / "again.bin"
    save_checkpoint(params, path)
    assert path.read_bytes() == V1_CHECKPOINT.read_bytes()
