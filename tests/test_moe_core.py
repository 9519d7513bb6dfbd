"""Routing ops against enumeration oracles; the forward pass against a dense
numpy reimplementation; checkpoint round trips."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from d2moe.graph import SbmSpec, build_graph, generate_sbm, split_nodes
from d2moe.moe_core import (
    CheckpointError,
    ExpertKind,
    ExpertParams,
    ModelConfig,
    TopK,
    accuracy,
    evaluate,
    forward,
    init_params,
    load_checkpoint,
    map_budget,
    predict,
    predictive_entropy,
    renormalize,
    route_scores,
    save_checkpoint,
    select_top_p,
    select_top_p_batch,
    top_k_mask,
)
from d2moe.numerics import Tape, grad_check

RNG = np.random.default_rng


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


# ---- budget mapping ------------------------------------------------------


def test_budget_cold_start():
    u = RNG(0).random(10)
    np.testing.assert_array_equal(map_budget(u, gamma=5.0, epoch=0), np.ones(10))


def test_budget_midpoint():
    u = np.array([0.3, 0.3, 0.3])
    np.testing.assert_allclose(map_budget(u, gamma=5.0, epoch=3), 0.5)


def test_budget_gamma_scale():
    # one node half an entropy unit above the mean of {0.25, 0.75}: centered +0.25
    u = np.array([0.25, 0.75])
    p = map_budget(u, gamma=10.0, epoch=1)
    assert p[1] == pytest.approx(1.0 / (1.0 + np.exp(-2.5)), abs=1e-12)


def test_budget_strictly_increasing_in_entropy():
    u = np.linspace(0.0, 1.0, 50)
    p = map_budget(u, gamma=5.0, epoch=2)
    assert np.all(np.diff(p) > 0)


def test_budget_empty_vector():
    with pytest.raises(ValueError):
        map_budget(np.array([]), gamma=5.0, epoch=1)


# ---- top-p selection -----------------------------------------------------


def brute_force_min_cardinality(pi, p):
    """Smallest subset size (any composition) whose mass reaches p."""
    k = len(pi)
    for size in range(1, k + 1):
        for combo in itertools.combinations(range(k), size):
            if sum(pi[i] for i in combo) >= p - 1e-9:
                return size
    return k


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
    rng = RNG(11)
    pi = rng.dirichlet(np.ones(5), size=40)
    thr = rng.uniform(0, 1, size=40)
    mask = select_top_p_batch(pi, thr)
    for v in range(40):
        np.testing.assert_array_equal(np.flatnonzero(mask[v]),
                                      np.sort(select_top_p(pi[v], thr[v])))


def test_top_k_mask_stable_ties():
    mask = top_k_mask(np.array([[0.25, 0.25, 0.25, 0.25]]), k=2)
    np.testing.assert_array_equal(mask, [[True, True, False, False]])
    with pytest.raises(ValueError):
        top_k_mask(np.ones((1, 3)), k=4)


# ---- renormalize ---------------------------------------------------------


def test_renormalize_examples():
    np.testing.assert_allclose(
        renormalize(np.array([0.6, 0.3, 0.1]), np.array([True, False, False])),
        [1.0, 0.0, 0.0])
    pi = np.array([0.5, 0.3, 0.2])
    np.testing.assert_allclose(
        renormalize(pi, np.array([True, True, False])), [0.625, 0.375, 0.0])
    np.testing.assert_allclose(renormalize(pi, np.ones(3, dtype=bool)), pi)


def test_renormalize_zero_mass_guard():
    with pytest.raises(ValueError):
        renormalize(np.array([0.0, 1.0]), np.array([True, False]))


# ---- router --------------------------------------------------------------


def test_route_scores_zero_weights_uniform():
    g = small_graph()
    params = small_params(g, experts=4)
    r = params.layers[0].router
    r.w1[...] = 0
    r.w2[...] = 0
    pi = route_scores(RNG(0).normal(size=(6, 8)), r)
    np.testing.assert_allclose(pi, 0.25, atol=1e-12)


def test_route_scores_rows_sum_to_one():
    g = small_graph()
    params = small_params(g, experts=5)
    pi = route_scores(RNG(1).normal(size=(10, 8)), params.layers[0].router)
    np.testing.assert_allclose(pi.sum(axis=1), 1.0, atol=1e-6)


# ---- experts vs dense oracles -------------------------------------------


def _expert_via_tape(kind, tensors, h, g):
    from d2moe.moe_core import _expert_output, _layer_aggregates

    tape = Tape()
    expert = ExpertParams(kind, tensors)
    lv = {f"e.{k}": tape.leaf(v.astype(np.float64)) for k, v in tensors.items()}
    hv = tape.leaf(h)
    agg = _layer_aggregates(tape, hv, g, [kind])
    return _expert_output(tape, expert, lv, "e", hv, agg, g).value


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
    np.testing.assert_allclose(lt.renorm.sum(axis=1), 1.0, atol=1e-6)
    assert np.all(lt.renorm[~lt.selected] == 0.0)
    assert np.all(lt.selected.sum(axis=1) >= 1)


def test_forward_full_activation_matches_dense_mixture_oracle():
    """With every budget at 1, the model must equal an independently coded
    dense forward where experts are weighted by the raw router scores."""
    g = small_graph(n=15, seed=9)
    params = small_params(g, experts=3, layers=2, hidden=8, seed=3)
    fw = forward(params, g, np.ones(g.n), mode="eval")

    adj = g.adj.toarray()
    f64 = lambda a: a.astype(np.float64)
    h = np.maximum(g.features @ f64(params.embed_w) + f64(params.embed_b), 0.0)
    for layer in params.layers:
        zs = [adj @ (h @ f64(e.tensors["w"])) + f64(e.tensors["b"]) for e in layer.experts]
        pi = route_scores(h, layer.router)
        pi = pi / pi.sum(axis=1, keepdims=True)  # renormalization over the full set
        h = h + sum(pi[:, i : i + 1] * zs[i] for i in range(3))
        h = np.maximum(h, 0.0)
    logits = h @ f64(params.head_w) + f64(params.head_b)
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


def test_forward_train_needs_rng_with_dropout():
    g = small_graph()
    params = small_params(g, dropout=0.5)
    with pytest.raises(ValueError):
        forward(params, g, np.ones(g.n), mode="train")


def test_forward_train_updates_running_stats_eval_does_not():
    g = small_graph()
    params = small_params(g, use_batch_norm=True, dropout=0.0)
    norm = params.layers[0].norm
    before = norm.running_mean.copy()
    forward(params, g, np.ones(g.n), mode="eval")
    np.testing.assert_array_equal(norm.running_mean, before)
    forward(params, g, np.ones(g.n), mode="train")
    assert not np.array_equal(norm.running_mean, before)


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
    params = init_params(cfg, RNG(5))
    params64 = {name: arr.astype(np.float64) for name, arr in params.named_tensors()}

    class P:
        config = cfg
        layers = params.layers

        @staticmethod
        def named_tensors():
            return iter(params64.items())

    thresholds = np.full(g.n, 0.8)
    train_idx = g.mask_idx("train")

    def build():
        fw = forward(P, g, thresholds, mode="train", rng=RNG(77),
                     update_norm_stats=False)
        loss = fw.tape.masked_nll(fw.probs, g.labels, train_idx)
        return fw.tape, loss, fw.leaf_vars

    report = grad_check(build, params64)
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
    for (na, a), (nb, b) in zip(params.named_tensors(), loaded.named_tensors()):
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
