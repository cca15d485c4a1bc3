"""Binary encoding, PCA against a dense eigendecomposition oracle, edges."""

import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from vsg import (
    ConfigError,
    DimensionError,
    EdgeConfig,
    GeneratorConfig,
    SemanticEdge,
    build_edges,
    embed,
    encode_nodes,
    fit_pca,
    generate_dataset,
    pairwise_distance_percentile,
    transform_pca,
)

from conftest import build_tiny_tax, finite_coord, identity_pca, make_graph, make_node


def eig_pca_oracle(data: np.ndarray, d_v: int):
    """Independent PCA: eigendecomposition of the covariance matrix."""
    mean = data.mean(axis=0)
    centered = data - mean
    cov = centered.T @ centered / len(data)
    eigvals, eigvecs = np.linalg.eigh(cov)
    order = np.argsort(eigvals)[::-1]
    eigvals = eigvals[order]
    components = eigvecs[:, order].T[:d_v]
    ratio = eigvals[:d_v] / eigvals.sum()
    return mean, components, ratio


class TestBinaryEncoding:
    def test_layout(self, tiny_tax):
        g = make_graph([make_node("a", cls=1, attrs=(0, 3))])
        npt.assert_array_equal(encode_nodes(g, tiny_tax), [[0, 1, 0, 1, 0, 0, 1]])

    def test_width_is_classes_plus_attributes(self, tiny_tax, small_graph):
        m = encode_nodes(small_graph, tiny_tax)
        assert m.shape == (4, tiny_tax.num_classes + tiny_tax.num_attributes)
        assert set(np.unique(m)) <= {0.0, 1.0}

    def test_empty_graph(self, tiny_tax):
        g = make_graph([])
        assert encode_nodes(g, tiny_tax).shape == (0, 7)

    def test_matches_per_node_loop(self):
        data = generate_dataset(GeneratorConfig(num_environments=3, seed=2))
        tax = data.taxonomy
        for g in (g for scans in data.environments.values() for g in scans):
            loop = np.zeros((g.num_nodes, tax.num_classes + tax.num_attributes))
            for i, node in enumerate(g.nodes):
                loop[i, node.class_index] = 1.0
                for a in node.attribute_indices:
                    loop[i, tax.num_classes + a] = 1.0
            npt.assert_array_equal(encode_nodes(g, tax), loop)


class TestPca:
    def test_matches_eigendecomposition_oracle(self):
        rng = np.random.default_rng(0)
        for trial in range(20):
            n, dim = int(rng.integers(20, 60)), int(rng.integers(4, 33))
            d_v = int(rng.integers(1, dim + 1))
            data = rng.normal(size=(n, dim)) @ rng.normal(size=(dim, dim))
            model = fit_pca(data, d_v)
            mean, components, ratio = eig_pca_oracle(data, d_v)
            npt.assert_allclose(model.mean, mean, atol=1e-12)
            npt.assert_allclose(model.explained_variance_ratio, ratio, atol=1e-8)
            # Components agree up to sign, row by row.
            for r in range(model.rank):
                dot = abs(float(components[r] @ model.components[r]))
                assert dot == pytest.approx(1.0, abs=1e-8), f"trial {trial} row {r}"

    def test_projection_matches_oracle_subspace(self):
        rng = np.random.default_rng(1)
        data = rng.normal(size=(40, 10))
        model = fit_pca(data, 4)
        mean, components, _ = eig_pca_oracle(data, 4)
        ours = transform_pca(model, data)
        oracle = (data - mean) @ components.T
        # Signs may differ per component; compare magnitudes.
        npt.assert_allclose(np.abs(ours), np.abs(oracle), atol=1e-8)

    def test_sign_canonicalization_is_deterministic(self):
        rng = np.random.default_rng(2)
        data = rng.normal(size=(30, 8))
        a = fit_pca(data, 5)
        b = fit_pca(data.copy(), 5)
        npt.assert_array_equal(a.components, b.components)
        for row in a.components[: a.rank]:
            pivot = int(np.argmax(np.abs(row)))
            assert row[pivot] > 0

    def test_sign_flip_matches_row_loop_bit_for_bit(self):
        rng = np.random.default_rng(6)
        for rank in (2, 5, 9):
            data = rng.normal(size=(40, rank)) @ rng.normal(size=(rank, 9))
            model = fit_pca(data, 6)
            vt = np.linalg.svd(data - data.mean(axis=0), full_matrices=False)[2]
            loop = np.zeros((6, 9))
            loop[: model.rank] = vt[: model.rank]
            for row in range(model.rank):
                if loop[row, int(np.argmax(np.abs(loop[row])))] < 0:
                    loop[row] = -loop[row]
            npt.assert_array_equal(model.components, loop)

    def test_exact_low_rank_data(self):
        rng = np.random.default_rng(3)
        basis = rng.normal(size=(3, 12))
        coeffs = rng.normal(size=(50, 3))
        data = coeffs @ basis  # exactly rank 3
        model = fit_pca(data, 6)
        assert model.rank == 3 < model.d_v
        npt.assert_array_equal(model.components[3:], np.zeros((3, 12)))
        assert float(model.explained_variance_ratio.sum()) == pytest.approx(1.0, abs=1e-9)

    def test_full_rank_ratio_partial(self):
        rng = np.random.default_rng(4)
        data = rng.normal(size=(100, 10))
        model = fit_pca(data, 3)
        assert 0 < float(model.explained_variance_ratio.sum()) < 1
        assert model.rank == model.d_v

    def test_inverse_transform_reconstructs_low_rank(self):
        rng = np.random.default_rng(5)
        basis = rng.normal(size=(2, 6))
        data = rng.normal(size=(30, 2)) @ basis
        model = fit_pca(data, 2)
        recon = transform_pca(model, data) @ model.components + model.mean
        npt.assert_allclose(recon, data, atol=1e-9)

    def test_dimension_errors(self):
        data = np.zeros((10, 4))
        with pytest.raises(DimensionError):
            fit_pca(data, 5)
        with pytest.raises(DimensionError):
            fit_pca(data, 0)
        with pytest.raises(DimensionError):
            fit_pca(np.zeros(4), 1)
        model = fit_pca(np.eye(4), 2)
        with pytest.raises(DimensionError):
            transform_pca(model, np.zeros(5))

    def test_memory_grows_linearly_with_rows(self):
        # A full SVD would also build the 6,000 x 6,000 U factor: 288 MB.
        data = np.random.default_rng(6).normal(size=(6000, 26))
        tracemalloc.start()
        try:
            fit_pca(data, 16)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20

    def test_constant_data_zero_variance(self):
        data = np.ones((10, 4))
        model = fit_pca(data, 2)
        assert model.rank == 0
        npt.assert_array_equal(model.explained_variance_ratio, np.zeros(2))
        npt.assert_allclose(transform_pca(model, data), np.zeros((10, 2)))


def build_edges_reference(g, tax, cfg):
    """The edge rule one pair at a time: a dict of relation sets keyed by
    (source, target), filled from the proximity pairs then the semantic
    edges, emitted in sorted key order."""
    num_rel = tax.num_relationships
    relations: dict[tuple[int, int], set[int]] = {}
    if g.num_nodes and cfg.tau > 0:
        pos = g.positions()
        delta = pos[None, :, :] - pos[:, None, :]
        close = np.linalg.norm(delta, axis=2) < cfg.tau
        np.fill_diagonal(close, False)
        for i, j in zip(*np.nonzero(close)):
            relations[(int(i), int(j))] = set()
    if cfg.include_semantic_edges:
        for edge in g.semantic_edges:
            key = (g.node_index(edge.source_id), g.node_index(edge.target_id))
            relations.setdefault(key, set()).add(edge.relation_index)
    keys = sorted(relations)
    edge_index = np.zeros((len(keys), 2), dtype=np.int64)
    edge_features = np.zeros((len(keys), num_rel + 3), dtype=np.float64)
    for row, (i, j) in enumerate(keys):
        edge_index[row] = (i, j)
        for r in relations[(i, j)]:
            edge_features[row, r] = 1.0
        pi = np.array(g.nodes[i].position)
        pj = np.array(g.nodes[j].position)
        edge_features[row, num_rel:] = pj - pi
    return edge_index, edge_features


# Grid coordinates put pairs exactly at a tau value; free floats do the rest.
edge_coord = st.sampled_from([0.0, 0.5, 1.0, 2.0]) | finite_coord


@st.composite
def edge_cases(draw):
    """A graph of 0-6 nodes whose semantic edges may repeat a pair (with the
    same or another relation) and may join pairs that are also close, plus
    an edge config."""
    n = draw(st.integers(min_value=0, max_value=6))
    nodes = [
        make_node(f"obj{i:03d}", pos=draw(st.tuples(edge_coord, edge_coord, edge_coord)))
        for i in range(n)
    ]
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    edges = []
    if pairs:
        for i, j in draw(st.lists(st.sampled_from(pairs), max_size=10)):
            rel = draw(st.integers(min_value=0, max_value=1))
            edges.append(SemanticEdge(nodes[i].id, nodes[j].id, rel))
    tau = draw(st.sampled_from([0.0, 0.5, 1.0, 2.0, 100.0]) | st.floats(0.0, 150.0))
    cfg = EdgeConfig(tau=tau, include_semantic_edges=draw(st.booleans()))
    return make_graph(nodes, edges), cfg


class TestEdges:
    @settings(max_examples=300, deadline=None)
    @given(case=edge_cases())
    @example(case=(make_graph([]), EdgeConfig(tau=1.0)))
    @example(
        case=(
            make_graph(
                [make_node("a", pos=(0.0, 0.0, 0.0)), make_node("b", pos=(0.5, 0.0, 0.0))],
                edges=[SemanticEdge("a", "b", 1), SemanticEdge("a", "b", 1), SemanticEdge("b", "a", 0)],
            ),
            EdgeConfig(tau=1.0),
        )
    )
    def test_matches_reference_byte_for_byte(self, case):
        g, cfg = case
        tax = build_tiny_tax()
        got = build_edges(g, tax, cfg)
        want = build_edges_reference(g, tax, cfg)
        for ours, ref in zip(got, want):
            assert (ours.dtype, ours.shape) == (ref.dtype, ref.shape)
            assert ours.tobytes() == ref.tobytes()

    def test_geometric_edges_strict_threshold(self, tiny_tax):
        g = make_graph(
            [
                make_node("a", pos=(0.0, 0.0, 0.0)),
                make_node("b", pos=(1.0, 0.0, 0.0)),
                make_node("c", pos=(3.0, 0.0, 0.0)),
            ]
        )
        idx, feats = build_edges(g, tiny_tax, EdgeConfig(tau=1.0))
        assert idx.shape == (0, 2)  # distance exactly 1.0 is not < 1.0
        idx, feats = build_edges(g, tiny_tax, EdgeConfig(tau=1.5))
        assert idx.tolist() == [[0, 1], [1, 0]]
        npt.assert_allclose(feats[0], [0, 0, 1.0, 0, 0])
        npt.assert_allclose(feats[1], [0, 0, -1.0, 0, 0])

    def test_semantic_edges_merge_with_geometric(self, tiny_tax):
        g = make_graph(
            [make_node("a", pos=(0.0, 0.0, 0.0)), make_node("b", pos=(0.5, 0.0, 0.0))],
            edges=[SemanticEdge("a", "b", 1)],
        )
        idx, feats = build_edges(g, tiny_tax, EdgeConfig(tau=1.0))
        assert idx.tolist() == [[0, 1], [1, 0]]
        npt.assert_allclose(feats[0], [0, 1, 0.5, 0, 0])  # union row keeps the relation bit
        npt.assert_allclose(feats[1], [0, 0, -0.5, 0, 0])

    def test_semantic_edges_beyond_tau_survive(self, tiny_tax):
        g = make_graph(
            [make_node("a", pos=(0.0, 0.0, 0.0)), make_node("b", pos=(9.0, 0.0, 0.0))],
            edges=[SemanticEdge("b", "a", 0)],
        )
        idx, feats = build_edges(g, tiny_tax, EdgeConfig(tau=0.5))
        assert idx.tolist() == [[1, 0]]
        npt.assert_allclose(feats[0], [1, 0, -9.0, 0, 0])

    def test_semantic_edges_can_be_disabled(self, tiny_tax):
        g = make_graph(
            [make_node("a", pos=(0.0, 0.0, 0.0)), make_node("b", pos=(9.0, 0.0, 0.0))],
            edges=[SemanticEdge("a", "b", 0)],
        )
        idx, _ = build_edges(g, tiny_tax, EdgeConfig(tau=0.5, include_semantic_edges=False))
        assert idx.shape == (0, 2)

    def test_duplicate_semantic_relations_union(self, tiny_tax):
        g = make_graph(
            [make_node("a", pos=(0.0, 0.0, 0.0)), make_node("b", pos=(0.1, 0.0, 0.0))],
            edges=[SemanticEdge("a", "b", 0), SemanticEdge("a", "b", 1)],
        )
        idx, feats = build_edges(g, tiny_tax, EdgeConfig(tau=0.0))
        assert idx.tolist() == [[0, 1]]
        npt.assert_allclose(feats[0][:2], [1, 1])

    def test_rows_sorted_by_source_then_target(self, tiny_tax):
        g = make_graph(
            [
                make_node("a", pos=(0.0, 0.0, 0.0)),
                make_node("b", pos=(0.1, 0.0, 0.0)),
                make_node("c", pos=(0.2, 0.0, 0.0)),
            ]
        )
        idx, _ = build_edges(g, tiny_tax, EdgeConfig(tau=10.0))
        assert idx.tolist() == sorted(idx.tolist())
        assert len(idx) == 6  # all ordered pairs

    def test_tau_zero_means_no_geometric_edges(self, tiny_tax):
        g = make_graph(
            [make_node("a", pos=(0.0, 0.0, 0.0)), make_node("b", pos=(0.0, 0.0, 0.0001))]
        )
        idx, _ = build_edges(g, tiny_tax, EdgeConfig(tau=0.0))
        assert idx.shape == (0, 2)

    def test_negative_tau_rejected(self):
        with pytest.raises(ConfigError):
            EdgeConfig(tau=-1.0)

    @pytest.mark.parametrize("tau", [float("inf"), float("nan"), True])
    def test_tau_must_be_finite_meters(self, tau):
        with pytest.raises(ConfigError, match="tau must be finite meters >= 0"):
            EdgeConfig(tau=tau)


class TestEmbed:
    def test_shapes_and_ids(self, tiny_tax, small_graph):
        pca = identity_pca(7)
        eg = embed(small_graph, tiny_tax, pca, EdgeConfig(tau=2.0))
        assert eg.node_features.shape == (4, 7)
        assert eg.edge_features.shape[1] == tiny_tax.num_relationships + 3
        assert eg.node_ids == small_graph.node_ids
        npt.assert_allclose(eg.node_features, encode_nodes(small_graph, tiny_tax))

    def test_empty_graph(self, tiny_tax):
        eg = embed(make_graph([]), tiny_tax, identity_pca(7), EdgeConfig(tau=1.0))
        assert eg.num_nodes == 0
        assert eg.num_edges == 0


class TestTauPresets:
    def test_percentile_of_known_distances(self, tiny_tax):
        g = make_graph(
            [
                make_node("a", pos=(0.0, 0.0, 0.0)),
                make_node("b", pos=(1.0, 0.0, 0.0)),
                make_node("c", pos=(3.0, 0.0, 0.0)),
            ]
        )
        # Pairwise distances: 1, 3, 2.
        assert pairwise_distance_percentile([g], 100.0) == pytest.approx(3.0)
        assert pairwise_distance_percentile([g], 50.0) == pytest.approx(2.0)

    def test_pools_across_graphs(self):
        g1 = make_graph([make_node("a", pos=(0, 0, 0)), make_node("b", pos=(1, 0, 0))])
        g2 = make_graph(
            [make_node("a", pos=(0, 0, 0)), make_node("b", pos=(5, 0, 0))], scan="scan01"
        )
        assert pairwise_distance_percentile([g1, g2], 100.0) == pytest.approx(5.0)

    def test_no_multi_node_graph_rejected(self):
        with pytest.raises(ConfigError):
            pairwise_distance_percentile([make_graph([make_node("a")])], 50.0)

    @settings(max_examples=30)
    @given(
        coords=st.lists(
            st.tuples(
                st.floats(-10, 10, allow_nan=False), st.floats(-10, 10, allow_nan=False)
            ),
            min_size=2,
            max_size=8,
        ),
        percentile=st.sampled_from([25.0, 50.0, 75.0, 100.0]),
    )
    def test_percentile_bounds_property(self, coords, percentile):
        nodes = [
            make_node(f"obj{i:03d}", pos=(x, y, 0.0)) for i, (x, y) in enumerate(coords)
        ]
        g = make_graph(nodes)
        pos = g.positions()
        dists = [
            float(np.linalg.norm(pos[i] - pos[j]))
            for i in range(len(nodes))
            for j in range(i + 1, len(nodes))
        ]
        value = pairwise_distance_percentile([g], percentile)
        assert min(dists) - 1e-9 <= value <= max(dists) + 1e-9
