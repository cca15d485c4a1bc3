"""Turn a scene graph into network-ready matrices.

Nodes become binary class/attribute indicator vectors compressed by PCA;
edges combine typed semantic relationships with geometric proximity: every
ordered pair of objects closer than a threshold tau gets a directed edge, and
each edge row carries a relationship multi-hot block followed by the 3-D
relative position of target minus source.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .core_graph import SceneGraph, Taxonomy, _attribute_indicators, check_flag, check_real, distance
from .errors import ConfigError, DimensionError

# Singular values below this fraction of the largest are treated as zero rank.
_RANK_TOL = 1e-12

TAU_PERCENTILES = {"p25": 25.0, "p50": 50.0, "p75": 75.0, "p100": 100.0}


def encode_nodes(g: SceneGraph, tax: Taxonomy) -> np.ndarray:
    """Binary rows [class one-hot | attribute multi-hot], (N, |O|+|A|), in node order."""
    classes = np.eye(tax.num_classes)[[n.class_index for n in g.nodes]]
    return np.hstack([classes, _attribute_indicators(g.nodes, tax)])


@dataclass(frozen=True)
class PcaModel:
    """Mean-centered linear projection onto the top principal components.

    rank is the effective rank of the fitted data; rows of components beyond
    it are zero and rank < d_v marks a rank-deficient fit.
    """

    mean: np.ndarray
    components: np.ndarray  # (d_v, D), orthonormal rows up to rank
    explained_variance_ratio: np.ndarray  # (d_v,), non-increasing
    d_v: int
    rank: int

    @property
    def input_dim(self) -> int:
        return self.mean.shape[0]


def fit_pca(vectors: Sequence[np.ndarray] | np.ndarray, d_v: int) -> PcaModel:
    """Fit a PCA projection to d_v dimensions via SVD of the centered data.

    Components are sign-canonicalized (largest-magnitude entry positive) so
    repeated fits on identical data are bit-identical.
    """
    data = np.asarray(vectors, dtype=np.float64)
    if data.ndim != 2:
        raise DimensionError(f"expected a 2-D stack of vectors, got shape {data.shape}")
    n, dim = data.shape
    if d_v < 1 or d_v > dim:
        raise DimensionError(f"d_v={d_v} must be in [1, {dim}]")
    if n < d_v:
        raise DimensionError(f"need at least d_v={d_v} vectors, got {n}")

    mean = data.mean(axis=0)
    centered = data - mean
    # Rows of vt are the principal directions; s**2 / n are the variances.
    _, s, vt = np.linalg.svd(centered, full_matrices=False)
    variances = np.zeros(dim)
    variances[: s.shape[0]] = s**2
    total = variances.sum()

    rank = int(np.sum(s > _RANK_TOL * max(s[0] if s.size else 0.0, 1.0)))
    components = np.zeros((d_v, dim))
    keep = min(d_v, rank, vt.shape[0])
    components[:keep] = vt[:keep]
    # Canonical sign: the entry with the largest magnitude is positive. Rows
    # past `keep` are zero, so their pivot is 0 and they are left alone.
    pivots = components[np.arange(d_v), np.abs(components).argmax(axis=1)]
    components[pivots < 0] *= -1.0

    if total > 0:
        ratio = variances[:d_v] / total
    else:
        ratio = np.zeros(d_v)
    ratio[keep:] = 0.0
    return PcaModel(
        mean=mean,
        components=components,
        explained_variance_ratio=ratio,
        d_v=d_v,
        rank=min(rank, d_v),
    )


def transform_pca(m: PcaModel, v: np.ndarray) -> np.ndarray:
    """Project one vector (D,) or a stack (N, D) into the PCA space."""
    v = np.asarray(v, dtype=np.float64)
    if v.shape[-1] != m.input_dim:
        raise DimensionError(
            f"vector length {v.shape[-1]} does not match PCA input dim {m.input_dim}"
        )
    return (v - m.mean) @ m.components.T


@dataclass(frozen=True)
class EdgeConfig:
    """Geometric edge threshold tau (meters) and semantic-edge switch."""

    tau: float = 0.0
    include_semantic_edges: bool = True

    def __post_init__(self):
        object.__setattr__(self, "tau", check_real(self.tau, 0, np.inf, "tau"))  # meters
        object.__setattr__(self, "include_semantic_edges",
                           check_flag(self.include_semantic_edges, "include_semantic_edges"))


@dataclass(frozen=True)
class EmbeddedGraph:
    """Matrices a model consumes: node features, edge indices, edge features.

    Edge row k connects node edge_index[k, 0] (source) to edge_index[k, 1]
    (target); its features are [relation multi-hot | position of target minus
    position of source]. node_ids maps feature rows back to object ids.
    """

    node_features: np.ndarray  # (N_v, d_v)
    edge_index: np.ndarray  # (N_e, 2) int64
    edge_features: np.ndarray  # (N_e, |R| + 3)
    node_ids: tuple[str, ...]

    @property
    def num_nodes(self) -> int:
        return self.node_features.shape[0]

    @property
    def num_edges(self) -> int:
        return self.edge_index.shape[0]


def build_edges(
    g: SceneGraph, tax: Taxonomy, cfg: EdgeConfig
) -> tuple[np.ndarray, np.ndarray]:
    """Edge index and feature matrices for one graph.

    A directed edge (i, j) exists for every ordered node pair strictly closer
    than tau, plus every semantic edge when enabled. A pair that qualifies
    both ways yields a single row whose relation block is the union of its
    relation bits. Rows are emitted in (source, target) index order.
    """
    n = g.num_nodes
    num_rel = tax.num_relationships
    pos = g.positions()
    adjacent = distance(pos[:, None, :], pos[None, :, :]) < cfg.tau
    np.fill_diagonal(adjacent, False)
    semantic = np.array(
        [
            (g.node_index(e.source_id), g.node_index(e.target_id), e.relation_index)
            for e in (g.semantic_edges if cfg.include_semantic_edges else ())
        ],
        dtype=np.int64,
    ).reshape(-1, 3)  # rows of (source, target, relation)
    adjacent[semantic[:, 0], semantic[:, 1]] = True

    src, tgt = np.nonzero(adjacent)  # row-major, so sorted by (source, target)
    edge_index = np.stack([src, tgt], axis=1).astype(np.int64, copy=False)
    edge_features = np.zeros((len(edge_index), num_rel + 3), dtype=np.float64)
    rows = np.searchsorted(src * n + tgt, semantic[:, 0] * n + semantic[:, 1])
    edge_features[rows, semantic[:, 2]] = 1.0
    edge_features[:, num_rel:] = pos[tgt] - pos[src]
    return edge_index, edge_features


def embed(g: SceneGraph, tax: Taxonomy, pca: PcaModel, cfg: EdgeConfig) -> EmbeddedGraph:
    """Assemble the full embedded graph for one scan. Pure and deterministic."""
    node_features = transform_pca(pca, encode_nodes(g, tax))
    edge_index, edge_features = build_edges(g, tax, cfg)
    return EmbeddedGraph(
        node_features=node_features,
        edge_index=edge_index,
        edge_features=edge_features,
        node_ids=g.node_ids,
    )


def pairwise_distance_percentile(graphs: Iterable[SceneGraph], percentile: float) -> float:
    """Percentile of all pairwise intra-scene object distances.

    This is how the named tau presets (p25/p50/p75/p100) are computed over a
    training set.
    """
    distances: list[np.ndarray] = []
    for g in graphs:
        if g.num_nodes < 2:
            continue
        pos = g.positions()
        i, j = np.triu_indices(g.num_nodes, k=1)
        distances.append(distance(pos[i], pos[j]))
    if not distances:
        raise ConfigError("no graph with at least two nodes; tau percentile undefined")
    pooled = np.concatenate(distances)
    return float(np.percentile(pooled, percentile))
