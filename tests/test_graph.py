"""Block-model generation, normalization, splits, homophily, and file IO."""

import dataclasses
import pickle
import warnings

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from d2moe.graph import (
    Graph,
    GraphFormatError,
    SbmSpec,
    build_graph,
    edge_homophily,
    generate_sbm,
    load_graph_dir,
    split_nodes,
    write_graph,
)


def two_cliques() -> Graph:
    # classes {0,1} x {2,3}, fully wired inside, nothing across
    edges = [(0, 1), (2, 3)]
    feats = np.arange(8.0).reshape(4, 2)
    return build_graph(edges, feats, [0, 0, 1, 1])


def bipartite() -> Graph:
    edges = [(0, 2), (0, 3), (1, 2), (1, 3)]
    feats = np.zeros((4, 2))
    return build_graph(edges, feats, [0, 0, 1, 1])


# ---- construction / normalization ----------------------------------------


def test_adjacency_symmetric_and_finite():
    g = generate_sbm(SbmSpec(n=60, classes=3, dim=4, p_in=0.2, p_out=0.05, signal=1.0, seed=0))
    dense = g.adj.toarray()
    np.testing.assert_array_equal(dense, dense.T)  # bitwise, not just approx
    assert np.all(np.isfinite(dense))
    assert np.all(dense.diagonal() > 0)  # every node kept its self-loop


def test_adjacency_normalization_values():
    # single edge 0-1 plus isolated node 2: degrees (2, 2, 1) after self-loops
    g = build_graph([(0, 1)], np.zeros((3, 1)), [0, 1, 0])
    dense = g.adj.toarray()
    np.testing.assert_allclose(dense[0, 0], 0.5)
    np.testing.assert_allclose(dense[0, 1], 0.5)
    np.testing.assert_allclose(dense[2, 2], 1.0)
    mean = g.mean_adj.toarray()
    np.testing.assert_allclose(mean.sum(axis=1), 1.0)  # row-stochastic


def _operators_three_conversions(g: Graph):
    """Oracle: both operators and the mean operator's transpose built as
    separate matrices, each its own COO->CSR conversion, with the degrees
    read off a unit-weighted A+I, on int32 coordinates as for any pattern
    whose nonzeros fit."""
    n, e = g.n, g.raw_edges
    src = np.concatenate([e[:, 0], e[:, 1], np.arange(n)]).astype(np.int32)
    dst = np.concatenate([e[:, 1], e[:, 0], np.arange(n)]).astype(np.int32)
    a_tilde = sp.csr_array(sp.coo_array((np.ones(src.size), (src, dst)), shape=(n, n)))
    deg = np.asarray(a_tilde.sum(axis=1)).reshape(-1)
    dinv_sqrt = 1.0 / np.sqrt(deg)
    sym = sp.csr_array(
        sp.coo_array((dinv_sqrt[src] * dinv_sqrt[dst], (src, dst)), shape=(n, n)))
    mean = sp.csr_array(sp.coo_array((1.0 / deg[src], (src, dst)), shape=(n, n)))
    return sym, mean, sp.csr_array(mean.T)


@pytest.mark.parametrize("make", [
    two_cliques, bipartite,
    lambda: build_graph([], np.arange(5.0)[:, None], [0, 1, 0, 1, 0]),
], ids=["two-cliques", "bipartite", "edgeless"])
def test_operators_share_one_pattern_and_store_no_transpose(make):
    """Both operators sit on one canonical CSR pattern, hold the same arrays
    as separately built ones, and backward's ``.T`` views give the CSR
    transpose's products bit for bit; ``Graph`` stores no transpose."""
    g = make()
    sym, mean, mean_t = _operators_three_conversions(g)
    for got, want in ((g.adj, sym), (g.mean_adj, mean)):
        for name in ("data", "indices", "indptr"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype and np.array_equal(a, b), name
        assert got.has_canonical_format
    assert np.array_equal(g.adj.indptr, g.mean_adj.indptr)
    assert np.array_equal(g.adj.indices, g.mean_adj.indices)
    assert np.shares_memory(g.adj.indices, g.mean_adj.indices)
    assert not g.adj.indices.flags.writeable and not g.adj.indptr.flags.writeable
    x = np.random.default_rng(3).normal(size=(g.n, 7))
    assert np.array_equal(g.mean_adj.T @ x, mean_t @ x)
    assert np.array_equal(g.adj.T @ x, sym.T.tocsr() @ x)
    fields = {f.name for f in dataclasses.fields(Graph)}
    assert not fields & {"adj_t", "mean_adj_t"}


def test_operator_indices_are_int32_through_transpose():
    """The shared pattern's index arrays are int32, half the bytes of the
    int64 edge list they come from, and backward's ``.T`` views keep them;
    a sparse product gives the same bytes as over int64 indices."""
    g = two_cliques()
    assert g.raw_edges.dtype == np.int64
    x = np.random.default_rng(4).normal(size=(g.n, 5))
    for op in (g.adj, g.mean_adj):
        for view in (op, op.T):
            assert view.indices.dtype == view.indptr.dtype == np.int32
        wide = sp.csr_array((op.data, op.indices.astype(np.int64),
                             op.indptr.astype(np.int64)), shape=op.shape)
        assert (op @ x).tobytes() == (wide @ x).tobytes()
        assert (op.T @ x).tobytes() == (wide.T @ x).tobytes()


def test_pickle_carries_inputs_and_rebuilds_shared_pattern():
    """A pickled graph holds its inputs, not its operators: unpickling
    rebuilds both on one shared, read-only pattern, bit for bit."""
    g = split_nodes(generate_sbm(SbmSpec(n=300, classes=3, dim=4, p_in=0.2, p_out=0.02,
                                         signal=1.0, seed=5)), (0.5, 0.25, 0.25), seed=5)
    blob = pickle.dumps(g)
    inputs = (g.raw_edges, g.features, g.labels, g.train_mask, g.val_mask, g.test_mask)
    assert len(blob) < sum(a.nbytes for a in inputs) + 2048
    h = pickle.loads(blob)
    for got, want in ((h.adj, g.adj), (h.mean_adj, g.mean_adj)):
        for name in ("data", "indices", "indptr"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype and np.array_equal(a, b), name
    assert np.shares_memory(h.adj.indices, h.mean_adj.indices)
    assert np.shares_memory(h.adj.indptr, h.mean_adj.indptr)
    assert not h.adj.indices.flags.writeable and not h.adj.indptr.flags.writeable
    for f in dataclasses.fields(Graph):
        if f.name not in ("adj", "mean_adj"):
            a, b = getattr(h, f.name), getattr(g, f.name)
            assert np.array_equal(a, b), f.name
            assert np.asarray(a).dtype == np.asarray(b).dtype, f.name


def test_duplicate_and_reversed_edges_collapse():
    g = build_graph([(0, 1), (1, 0), (0, 1), (1, 1)], np.zeros((2, 1)), [0, 1])
    np.testing.assert_array_equal(g.raw_edges, [[0, 1]])


def test_mismatched_features_labels():
    with pytest.raises(ValueError, match="label count"):
        build_graph([], np.zeros((3, 2)), [0, 1])


# ---- SBM -----------------------------------------------------------------


def test_sbm_extreme_probabilities_give_cliques():
    g = generate_sbm(SbmSpec(n=4, classes=2, dim=2, p_in=1.0, p_out=0.0, signal=1.0, seed=5))
    for a, b in g.raw_edges:
        assert g.labels[a] == g.labels[b]
    # every same-class pair is wired: two cliques of size 2 -> exactly 2 edges
    assert g.raw_edges.shape[0] == 2


def test_sbm_deterministic():
    spec = SbmSpec(n=50, classes=3, dim=4, p_in=0.3, p_out=0.1, signal=2.0, seed=9)
    g1, g2 = generate_sbm(spec), generate_sbm(spec)
    np.testing.assert_array_equal(g1.raw_edges, g2.raw_edges)
    np.testing.assert_array_equal(g1.features, g2.features)
    np.testing.assert_array_equal(g1.labels, g2.labels)


def test_sbm_balanced_classes():
    g = generate_sbm(SbmSpec(n=101, classes=4, dim=2, p_in=0.1, p_out=0.1, signal=1.0, seed=3))
    counts = np.bincount(g.labels, minlength=4)
    assert counts.max() - counts.min() <= 1


def test_sbm_degenerate_spec():
    with pytest.raises(ValueError):
        generate_sbm(SbmSpec(n=0, classes=2, dim=2, p_in=0.1, p_out=0.1, signal=1.0, seed=0))
    with pytest.raises(ValueError):
        generate_sbm(SbmSpec(n=10, classes=2, dim=2, p_in=1.5, p_out=0.1, signal=1.0, seed=0))
    with pytest.raises(ValueError, match="signal must be finite, got nan"):
        SbmSpec(n=10, classes=2, dim=2, p_in=0.1, p_out=0.1, signal=float("nan"), seed=0)


def test_sbm_feature_signal_radius():
    spec = SbmSpec(n=400, classes=2, dim=8, p_in=0.05, p_out=0.05, signal=3.0, seed=11)
    g = generate_sbm(spec)
    centroids = np.stack([g.features[g.labels == c].mean(axis=0) for c in range(2)])
    # empirical class means sit near a radius-3 sphere (noise shrinks with n)
    np.testing.assert_allclose(np.linalg.norm(centroids, axis=1), 3.0, atol=0.5)


# ---- homophily -----------------------------------------------------------


def test_homophily_trivial_graphs():
    assert edge_homophily(two_cliques()) == 1.0
    assert edge_homophily(bipartite()) == 0.0


def test_homophily_neutral_sbm_near_chance():
    vals = [
        edge_homophily(generate_sbm(
            SbmSpec(n=500, classes=4, dim=2, p_in=0.1, p_out=0.1, signal=1.0, seed=s)))
        for s in range(5)
    ]
    assert abs(float(np.mean(vals)) - 0.25) < 0.05


# ---- splits --------------------------------------------------------------


def test_split_sizes_standard_fractions():
    g = generate_sbm(SbmSpec(n=100, classes=4, dim=2, p_in=0.1, p_out=0.1, signal=1.0, seed=1))
    g = split_nodes(g, (0.48, 0.32, 0.20), seed=7)
    assert int(g.train_mask.sum()) == 48
    assert int(g.val_mask.sum()) == 32
    assert int(g.test_mask.sum()) == 20


def test_split_all_train():
    g = generate_sbm(SbmSpec(n=40, classes=2, dim=2, p_in=0.2, p_out=0.2, signal=1.0, seed=2))
    g = split_nodes(g, (1.0, 0.0, 0.0), seed=0)
    assert g.train_mask.all()


def test_split_deterministic():
    g = generate_sbm(SbmSpec(n=80, classes=3, dim=2, p_in=0.1, p_out=0.1, signal=1.0, seed=4))
    a = split_nodes(g, (0.48, 0.32, 0.20), seed=13)
    b = split_nodes(g, (0.48, 0.32, 0.20), seed=13)
    np.testing.assert_array_equal(a.train_mask, b.train_mask)
    np.testing.assert_array_equal(a.val_mask, b.val_mask)
    np.testing.assert_array_equal(a.test_mask, b.test_mask)


def test_split_stratified_per_class():
    g = generate_sbm(SbmSpec(n=200, classes=4, dim=2, p_in=0.1, p_out=0.1, signal=1.0, seed=6))
    g = split_nodes(g, (0.48, 0.32, 0.20), seed=3)
    for c in range(4):
        in_class = g.labels == c
        assert int((g.train_mask & in_class).sum()) == 24  # 48% of 50


def test_split_small_class_warns(caplog):
    feats = np.zeros((5, 2))
    g = build_graph([], feats, [0, 0, 0, 0, 1])  # class 1 has a single node
    with caplog.at_level("WARNING"):
        split_nodes(g, (0.48, 0.32, 0.20), seed=0)
    assert any("split slots" in r.message for r in caplog.records)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1),
       st.tuples(st.floats(0, 1), st.floats(0, 1), st.floats(0, 1)).filter(lambda t: sum(t) <= 1))
def test_split_masks_disjoint_any_fractions(seed, fractions):
    g = build_graph([], np.zeros((30, 1)), np.arange(30) % 3)
    g = split_nodes(g, fractions, seed=seed)
    overlap = (g.train_mask & g.val_mask) | (g.train_mask & g.test_mask) | (g.val_mask & g.test_mask)
    assert not overlap.any()
    assert g.train_mask.sum() + g.val_mask.sum() + g.test_mask.sum() <= 30


def test_split_rejects_oversubscribed_fractions():
    g = build_graph([], np.zeros((10, 1)), np.zeros(10, dtype=np.int64), n_classes=2)
    with pytest.raises(ValueError):
        split_nodes(g, (0.8, 0.3, 0.2), seed=0)


def test_split_rejects_nan_fraction():
    g = build_graph([], np.zeros((10, 1)), np.zeros(10, dtype=np.int64), n_classes=2)
    with pytest.raises(ValueError, match="need three nonnegative fractions"):
        split_nodes(g, (np.nan, 0.5, 0.2), seed=0)


# ---- file round trip -----------------------------------------------------


def test_write_load_round_trip_exact(tmp_path):
    g = generate_sbm(SbmSpec(n=60, classes=3, dim=5, p_in=0.15, p_out=0.05, signal=1.7, seed=21))
    g = split_nodes(g, (0.48, 0.32, 0.20), seed=5)
    write_graph(g, tmp_path)
    h = load_graph_dir(tmp_path)
    np.testing.assert_array_equal(g.raw_edges, h.raw_edges)
    np.testing.assert_array_equal(g.features, h.features)   # bit-exact via repr round trip
    np.testing.assert_array_equal(g.labels, h.labels)
    np.testing.assert_array_equal(g.train_mask, h.train_mask)
    np.testing.assert_array_equal(g.val_mask, h.val_mask)
    np.testing.assert_array_equal(g.test_mask, h.test_mask)


def test_load_without_masks(tmp_path):
    g = generate_sbm(SbmSpec(n=10, classes=2, dim=2, p_in=0.3, p_out=0.1, signal=1.0, seed=8))
    write_graph(g, tmp_path)
    (tmp_path / "masks.txt").unlink()
    h = load_graph_dir(tmp_path)
    assert not h.train_mask.any()


def test_malformed_edge_line_reports_line_number(tmp_path):
    g = generate_sbm(SbmSpec(n=6, classes=2, dim=2, p_in=0.5, p_out=0.1, signal=1.0, seed=1))
    write_graph(g, tmp_path)
    with open(tmp_path / "edges.tsv", "a", encoding="utf-8") as fh:
        fh.write("3\tnope\n")
    n_lines = len((tmp_path / "edges.tsv").read_text().splitlines())
    with pytest.raises(GraphFormatError) as err:
        load_graph_dir(tmp_path)
    assert "edges.tsv" in str(err.value) and "non-integer" in str(err.value)
    assert err.value.line_no == n_lines


def test_edge_index_out_of_range(tmp_path):
    g = generate_sbm(SbmSpec(n=6, classes=2, dim=2, p_in=0.5, p_out=0.1, signal=1.0, seed=1))
    write_graph(g, tmp_path)
    with open(tmp_path / "edges.tsv", "a", encoding="utf-8") as fh:
        fh.write("0\t99\n")
    with pytest.raises(GraphFormatError, match="out of range"):
        load_graph_dir(tmp_path)


def test_feature_label_count_mismatch(tmp_path):
    g = generate_sbm(SbmSpec(n=6, classes=2, dim=2, p_in=0.5, p_out=0.1, signal=1.0, seed=1))
    write_graph(g, tmp_path)
    with open(tmp_path / "labels.txt", "a", encoding="utf-8") as fh:
        fh.write("1\n")
    with pytest.raises(GraphFormatError, match="differ"):
        load_graph_dir(tmp_path)


def test_bad_mask_token(tmp_path):
    g = generate_sbm(SbmSpec(n=6, classes=2, dim=2, p_in=0.5, p_out=0.1, signal=1.0, seed=1))
    write_graph(g, tmp_path)
    lines = (tmp_path / "masks.txt").read_text().splitlines()
    lines[2] = "validation"
    (tmp_path / "masks.txt").write_text("\n".join(lines) + "\n")
    with pytest.raises(GraphFormatError, match="mask token"):
        load_graph_dir(tmp_path)


def test_comments_and_blank_lines_ignored(tmp_path):
    g = two_cliques()
    write_graph(g, tmp_path)
    edges = (tmp_path / "edges.tsv").read_text()
    (tmp_path / "edges.tsv").write_text("# header\n\n" + edges + "\n# trailer\n")
    h = load_graph_dir(tmp_path)
    np.testing.assert_array_equal(g.raw_edges, h.raw_edges)


def _graph_dir(tmp_path) -> None:
    g = generate_sbm(SbmSpec(n=12, classes=2, dim=2, p_in=0.6, p_out=0.2, signal=1.0, seed=1))
    write_graph(split_nodes(g, (0.5, 0.25, 0.25), seed=0), tmp_path)


@pytest.mark.parametrize("name, bad, match", [
    ("edges.tsv", b"3\tnope", "non-integer endpoint"),
    ("edges.tsv", b"0\t99", "out of range"),
    ("edges.tsv", b"0\t1\t2", "expected 2 columns, got 3"),
    ("edges.tsv", b"99999999999999999999\t1", "non-integer endpoint"),
    ("edges.tsv", b"0\t1\xff", "invalid UTF-8"),
    ("features.csv", b"1.0,abc", "non-numeric value"),
    ("features.csv", b"1.0", "expected 2 columns, got 1"),
    ("features.csv", b"nan,0.5", "non-finite value"),
    ("features.csv", b"0.5,-inf", "non-finite value"),
    ("labels.txt", b"x", "non-integer label"),
    ("labels.txt", b"99999999999999999999", "non-integer label"),
    ("labels.txt", b"-1", "negative label"),
    ("masks.txt", b"validation", "mask token must be one of"),
    ("masks.txt", b"tr\xc3ain", "invalid UTF-8"),
])
def test_bad_line_names_file_and_line(tmp_path, name, bad, match):
    """Comment and blank lines before the bad one count toward its number."""
    _graph_dir(tmp_path)
    path = tmp_path / name
    data = path.read_bytes().splitlines()
    head = [data.pop(0), b"# a comment"] if name == "edges.tsv" else []
    blank = b"" if name == "features.csv" else b" \t"  # spaces make a CSV line data
    lines = head + [b"", blank] + data
    at = len(head) + 2 + 2  # the third data row
    lines[at] = bad
    path.write_bytes(b"\n".join(lines) + b"\n")
    with pytest.raises(GraphFormatError, match=match) as err:
        load_graph_dir(tmp_path)
    assert err.value.path == str(path)
    assert err.value.line_no == at + 1
    assert str(err.value).startswith(f"{path}:{at + 1}: ")


def test_row_count_mismatch_names_line(tmp_path):
    _graph_dir(tmp_path)
    labels = tmp_path / "labels.txt"
    labels.write_text("\n" + labels.read_text() + "1\n")  # 13 labels for 12 nodes
    with pytest.raises(GraphFormatError, match="differ") as err:
        load_graph_dir(tmp_path)
    assert err.value.line_no == 14
    masks = tmp_path / "masks.txt"
    _graph_dir(tmp_path)
    masks.write_text("".join(masks.read_text().splitlines(keepends=True)[:-1]))
    with pytest.raises(GraphFormatError, match="differ") as err:
        load_graph_dir(tmp_path)
    assert err.value.line_no == 12  # one past the last of 11 lines


def test_write_graph_bytes(tmp_path):
    features = [[0.1, 1.0], [-2.5, 1e-05], [3.0, 123456789.125], [-0.0, 1e16]]
    g = build_graph([(1, 0), (2, 1), (0, 1)], features, [0, 1, 1, 2],
                    masks=([True, False, False, False], [False, True, False, False],
                           [False, False, True, False]))
    write_graph(g, tmp_path)
    assert (tmp_path / "edges.tsv").read_bytes() == (
        b"# src<TAB>dst, 0-based, undirected\n0\t1\n1\t2\n")
    assert (tmp_path / "features.csv").read_bytes() == (
        b"0.1,1.0\n-2.5,1e-05\n3.0,123456789.125\n-0.0,1e+16\n")
    assert (tmp_path / "labels.txt").read_bytes() == b"0\n1\n1\n2\n"
    assert (tmp_path / "masks.txt").read_bytes() == b"train\nval\ntest\nnone\n"


def test_edgeless_graph_loads_without_warnings(tmp_path):
    g = build_graph([], np.ones((3, 2)), [0, 1, 0])
    write_graph(g, tmp_path)
    assert (tmp_path / "edges.tsv").read_text() == "# src<TAB>dst, 0-based, undirected\n"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        h = load_graph_dir(tmp_path)
    assert h.raw_edges.shape == (0, 2)


def test_numpy_table_syntax(tmp_path):
    """What the numpy table parser reads differently from Python's int() and
    float(): '#' ends an edge line's data anywhere, endpoints may be split by
    any whitespace, '1_0' is not a number, and a line of only whitespace in
    features.csv is not blank."""
    _graph_dir(tmp_path)
    (tmp_path / "edges.tsv").write_text("0\t1  # trailing note\n2 3\n")
    np.testing.assert_array_equal(load_graph_dir(tmp_path).raw_edges, [[0, 1], [2, 3]])
    (tmp_path / "edges.tsv").write_text("1_0\t2\n")
    with pytest.raises(GraphFormatError, match="non-integer endpoint"):
        load_graph_dir(tmp_path)
    (tmp_path / "edges.tsv").write_text("")
    (tmp_path / "features.csv").write_text("  \n" + (tmp_path / "features.csv").read_text())
    with pytest.raises(GraphFormatError, match="non-numeric value") as err:
        load_graph_dir(tmp_path)
    assert err.value.line_no == 1


_GRAPH_FILES = ("edges.tsv", "features.csv", "labels.txt", "masks.txt")
_TABLE_BYTES = st.one_of(
    st.binary(max_size=80),
    st.text(alphabet="0123456789-+.,#\t\n \r_enaitrsvl", max_size=80).map(str.encode))


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(_GRAPH_FILES), _TABLE_BYTES)
def test_any_graph_file_loads_or_raises_format_error(tmp_path_factory, name, data):
    d = tmp_path_factory.mktemp("fuzz")
    _graph_dir(d)
    (d / name).write_bytes(data)
    try:
        g = load_graph_dir(d)
    except GraphFormatError:
        return
    assert g.features.shape[0] == g.labels.shape[0] == g.n
