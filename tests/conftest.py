"""Shared fixtures: a tiny taxonomy, graph builders, and hypothesis strategies."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import strategies as st

from vsg import (
    EdgeConfig,
    ObjectNode,
    Sample,
    SceneGraph,
    SemanticEdge,
    Taxonomy,
)
from vsg.embedding import EmbeddedGraph, PcaModel


def build_tiny_tax() -> Taxonomy:
    return Taxonomy(
        name="tiny",
        classes=("table", "cup", "door"),
        attributes=(
            ("wooden", "static"),
            ("open", "state"),
            ("closed", "state"),
            ("movable", "affordance"),
        ),
        relationships=("standing_on", "next_to"),
    )


@pytest.fixture
def tiny_tax() -> Taxonomy:
    return build_tiny_tax()


def make_node(oid: str, cls: int = 0, attrs=(), pos=(0.0, 0.0, 0.0)) -> ObjectNode:
    return ObjectNode(id=oid, class_index=cls, attribute_indices=tuple(attrs), position=pos)


def make_graph(nodes, edges=(), env="envA", scan="scan00", tax_name="tiny", t=0) -> SceneGraph:
    return SceneGraph(
        environment_id=env,
        scan_id=scan,
        timestamp=t,
        taxonomy_name=tax_name,
        nodes=tuple(nodes),
        semantic_edges=tuple(edges),
    )


def make_sample(graph: SceneGraph, rows, pair_id=("s0", "s1")) -> Sample:
    """A sample from one (y_position, y_state, y_instance, m_position,
    m_state) row per node, in node order; the instance mask is always 1."""
    table = np.array(rows, dtype=np.float64).reshape(-1, 5)
    return Sample(graph, table[:, :3], np.column_stack([table[:, 3:], np.ones(len(table))]), pair_id)


def label_rows(graph: SceneGraph, labels_and_masks) -> dict[str, tuple[int, ...]]:
    """Node id -> (y_position, y_state, y_instance, m_position, m_state), read
    off a (labels, masks) pair after checking its layout: float64 (N, 3)
    arrays of 0s and 1s with the instance column unmasked."""
    y, m = labels_and_masks
    assert y.dtype == m.dtype == np.float64 and y.shape == m.shape == (graph.num_nodes, 3)
    assert np.isin(y, (0.0, 1.0)).all() and np.isin(m, (0.0, 1.0)).all() and (m[:, 2] == 1).all()
    return {oid: (*map(int, y[i]), *map(int, m[i, :2])) for i, oid in enumerate(graph.node_ids)}


@pytest.fixture
def small_graph(tiny_tax) -> SceneGraph:
    nodes = [
        make_node("obj000", cls=0, attrs=(0,), pos=(1.0, 1.0, 0.75)),
        make_node("obj001", cls=1, attrs=(3,), pos=(1.2, 1.1, 0.8)),
        make_node("obj002", cls=2, attrs=(1,), pos=(4.0, 0.0, 1.0)),
        make_node("obj003", cls=1, attrs=(3,), pos=(6.5, 6.0, 0.0)),
    ]
    edges = [SemanticEdge("obj001", "obj000", 0), SemanticEdge("obj002", "obj000", 1)]
    return make_graph(nodes, edges)


def identity_pca(d: int) -> PcaModel:
    """PCA that passes d-dim vectors through unchanged."""
    return PcaModel(
        mean=np.zeros(d),
        components=np.eye(d),
        explained_variance_ratio=np.full(d, 1.0 / d),
        d_v=d,
        rank=d,
    )


def random_embedded_graph(
    rng: np.random.Generator, n: int, d_v: int, num_relationships: int, edge_prob: float = 0.5
) -> EmbeddedGraph:
    """Random features and a random directed edge set, bypassing PCA."""
    features = rng.normal(size=(n, d_v))
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j and rng.random() < edge_prob]
    edge_index = np.array(pairs, dtype=np.int64).reshape(len(pairs), 2)
    edge_features = rng.normal(size=(len(pairs), num_relationships + 3))
    return EmbeddedGraph(
        node_features=features,
        edge_index=edge_index,
        edge_features=edge_features,
        node_ids=tuple(f"obj{i:03d}" for i in range(n)),
    )


# ---------------------------------------------------------------------------
# Hypothesis strategies
# ---------------------------------------------------------------------------

finite_coord = st.floats(min_value=-50.0, max_value=50.0, allow_nan=False, allow_infinity=False)

positions = st.tuples(finite_coord, finite_coord, finite_coord)


@st.composite
def tiny_nodes(draw, max_nodes: int = 6):
    n = draw(st.integers(min_value=1, max_value=max_nodes))
    nodes = []
    for i in range(n):
        cls = draw(st.integers(min_value=0, max_value=2))
        attrs = draw(st.sets(st.integers(min_value=0, max_value=3), max_size=4))
        nodes.append(make_node(f"obj{i:03d}", cls=cls, attrs=sorted(attrs), pos=draw(positions)))
    return nodes


@st.composite
def tiny_graphs(draw, max_nodes: int = 6):
    """Random scene graphs over the tiny taxonomy, possibly with edges."""
    nodes = draw(tiny_nodes(max_nodes=max_nodes))
    edges = []
    if len(nodes) >= 2:
        n_edges = draw(st.integers(min_value=0, max_value=min(4, len(nodes))))
        for _ in range(n_edges):
            i = draw(st.integers(min_value=0, max_value=len(nodes) - 1))
            j = draw(st.integers(min_value=0, max_value=len(nodes) - 1))
            if i != j:
                rel = draw(st.integers(min_value=0, max_value=1))
                edges.append(SemanticEdge(nodes[i].id, nodes[j].id, rel))
    return make_graph(nodes, edges)
