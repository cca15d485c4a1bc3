"""Graph network predicting per-object change probabilities.

The core layer rule is

    out_i = f(z_i) + sum over incoming edges (j -> i) of z_j * h(q_ji)

where f and h are small MLPs, q_ji is the edge feature vector, and * is an
elementwise product (h emits one gate per feature channel, or a single scalar
gate when configured). Two such layers with ReLU and dropout between them
feed a linear head with three independent sigmoid outputs: the probabilities
of position, state, and instance change for each object.

A forward pass takes one embedded graph or a `GraphUnion` of several; each
graph gets the same floats either way (training.py says how).

A checkpoint bundles the parameters with the PCA model, edge config, and
taxonomy name used at train time, so a loaded model embeds scenes exactly as
it was trained to.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import asdict, dataclass

import numpy as np

from .core_graph import (
    _BAD_FIELD,
    SceneGraph,
    Taxonomy,
    _config_from_json,
    _encode_json,
    _fits,
    _read_json,
    _write_text,
    check_count,
    check_flag,
    check_real,
    taxonomy_from_dict,
    taxonomy_to_dict,
)
from .embedding import TAU_PERCENTILES, EdgeConfig, EmbeddedGraph, PcaModel, embed
from .errors import CheckpointError, ConfigError, DimensionError, GraphError, ParseError, UsageError
from .nn_core import Mlp, ParamStore, check_mode, dropout, dropout_backward, relu, sigmoid

CHECKPOINT_VERSION = 1


def _scatter_add(base: np.ndarray, index: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """``base`` (n, d) with ``rows[k]`` added to row ``index[k]`` in k order: one
    ``np.bincount`` adding each bin's terms in input order, so ``np.add.at``'s
    sums bit for bit, except that bins start at +0.0 and so all -0.0 sums to +0.0.
    In a union no bin spans two graphs, so each bin adds its graph's terms."""
    n, d = base.shape
    bins = np.concatenate([np.arange(n * d), (index[:, None] * d + np.arange(d)).ravel()])
    weights = np.concatenate([base.ravel(), rows.ravel()])
    return np.bincount(bins, weights).reshape(n, d)


@dataclass(frozen=True)
class GraphUnion:
    """Embedded graphs as one disjoint union (Fey & Lenssen, arXiv:1903.02428).

    Node rows and edge rows are stacked in graph order, and each graph's edge
    indices are offset by its first node row. Graph g owns node rows
    ``node_spans[g]``; ``edge_spans`` holds the edge rows of each graph that
    has edges, the only graphs the edge MLP runs on.
    """

    node_features: np.ndarray
    edge_index: np.ndarray
    edge_features: np.ndarray
    node_spans: tuple[tuple[int, int], ...]
    edge_spans: tuple[tuple[int, int], ...]

    @property
    def num_nodes(self) -> int:
        return self.node_features.shape[0]

    @property
    def num_edges(self) -> int:
        return self.edge_index.shape[0]


def _stack(arrays: list[np.ndarray]) -> np.ndarray:
    if len(arrays) == 1:
        return arrays[0]
    try:
        return np.concatenate(arrays)
    except ValueError as e:
        raise DimensionError(f"graphs of different feature widths in one union ({e})") from e


def graph_union(graphs: Sequence[EmbeddedGraph]) -> GraphUnion:
    """One union of `graphs`, in order. Each graph's edge indices are checked
    against its own node count before the offset (GraphError), so no edge
    can point into the next graph's nodes."""
    if not graphs:
        raise UsageError("a graph union needs at least one graph")
    node_spans, edge_spans, firsts, sizes = [], [], [], []
    n = e = 0
    for g in graphs:
        node_spans.append((n, n + g.num_nodes))
        if g.num_edges:
            edge_spans.append((e, e + g.num_edges))
            firsts.append(n)
            sizes.append(g.num_nodes)
        n += g.num_nodes
        e += g.num_edges
    edge_index = _stack([g.edge_index for g in graphs])
    if e:
        counts = [stop - start for start, stop in edge_spans]
        # As unsigned, a negative index wraps past every node count.
        limit = np.repeat(sizes, counts)[:, None] if len(sizes) > 1 else sizes[0]
        if (edge_index.astype(np.uint64) >= limit).any():
            raise GraphError("edge index out of range for its graph's nodes")
        if len(graphs) > 1:
            edge_index = edge_index + np.repeat(firsts, counts)[:, None]
    return GraphUnion(
        _stack([g.node_features for g in graphs]), edge_index,
        _stack([g.edge_features for g in graphs]), tuple(node_spans), tuple(edge_spans),
    )


def finite_probabilities(probs: np.ndarray, scan_id: str) -> np.ndarray:
    """`probs`, the eval-mode probabilities of scan `scan_id`; a non-finite one is a CheckpointError."""
    if not np.isfinite(probs).all():
        raise CheckpointError(f"scan {scan_id!r}: the model's probabilities are not finite")
    return probs


class MpConv:
    """One message-passing convolution layer; preserves the feature width."""

    def __init__(
        self,
        dim: int,
        edge_dim: int,
        hidden_dim: int,
        store: ParamStore,
        prefix: str,
        rng: np.random.Generator,
        scalar_gate: bool = False,
    ):
        self.dim = dim
        self.edge_dim = edge_dim
        self.scalar_gate = scalar_gate
        gate_dim = 1 if scalar_gate else dim
        self.f = Mlp([dim, hidden_dim, dim], store, f"{prefix}.f", rng)
        self.h = Mlp([edge_dim, hidden_dim, gate_dim], store, f"{prefix}.h", rng)

    def forward(
        self,
        z: np.ndarray,
        edge_index: np.ndarray,
        edge_features: np.ndarray,
        node_spans: Sequence[tuple[int, int]] | None = None,
        edge_spans: Sequence[tuple[int, int]] | None = None,
        keep_cache: bool = True,
    ) -> tuple[np.ndarray, tuple | None]:
        """One graph, or a union whose graphs own the given row spans (see
        `Mlp.forward`); the cache is None when not keep_cache."""
        n = z.shape[0]
        if z.shape[1] != self.dim:
            raise DimensionError(f"node width {z.shape[1]} != layer dim {self.dim}")
        if edge_index.size and (edge_index.min() < 0 or edge_index.max() >= n):
            raise GraphError(f"edge index out of range for {n} nodes")
        out, f_cache = self.f.forward(z, node_spans, keep_cache)
        if edge_index.shape[0]:
            if edge_features.shape[1] != self.edge_dim:
                raise DimensionError(
                    f"edge feature width {edge_features.shape[1]} != {self.edge_dim}"
                )
            src = edge_index[:, 0]
            tgt = edge_index[:, 1]
            gates, h_cache = self.h.forward(edge_features, edge_spans, keep_cache)
            messages = z[src] * gates  # broadcasts when the gate is scalar
            out = _scatter_add(out, tgt, messages)
        else:
            gates, h_cache = None, None
        cache = (z, edge_index, f_cache, h_cache, gates) if keep_cache else None
        return out, cache

    def backward(self, cache: tuple, dout: np.ndarray, input_grad: bool = True):
        """Accumulate parameter gradients; return dLoss/dz, or None if not input_grad."""
        z, edge_index, f_cache, h_cache, gates = cache
        dz = self.f.backward(f_cache, dout, input_grad)
        if edge_index.shape[0]:
            src = edge_index[:, 0]
            tgt = edge_index[:, 1]
            dmsg = dout[tgt]
            dgates = dmsg * z[src]
            if self.scalar_gate:
                dgates = dgates.sum(axis=1, keepdims=True)
            if input_grad:
                dz = _scatter_add(dz, src, dmsg * gates)
            self.h.backward(h_cache, dgates, input_grad=False)
        return dz


@dataclass(frozen=True)
class ModelConfig:
    """Architecture knobs; tau is a percentile preset name, kept as it is, or
    meters, stored as a float (a number or a string holding one)."""

    kind: str = "deltavsg"
    d_v: int = 16
    hidden_dim: int = 64
    scalar_gate: bool = False
    tau: float | str = "p75"
    include_semantic_edges: bool = True

    def __post_init__(self):
        if self.kind not in MODEL_KINDS:
            raise ConfigError(f"unknown model kind {self.kind!r}; expected one of {MODEL_KINDS}")
        for name in ("d_v", "hidden_dim"):
            object.__setattr__(self, name, check_count(getattr(self, name), 1, name))
        for name in ("scalar_gate", "include_semantic_edges"):
            object.__setattr__(self, name, check_flag(getattr(self, name), name))
        if self.scalar_gate and "scalar_gate" not in MODEL_CLASSES[self.kind]._HYPERPARAMETERS:
            raise ConfigError(f"scalar_gate does not apply to model kind {self.kind!r}")
        if isinstance(self.tau, str) and self.tau in TAU_PERCENTILES:
            return
        try:  # meters, by EdgeConfig's rule
            tau = EdgeConfig(float(self.tau) if isinstance(self.tau, str) else self.tau).tau
        except (ValueError, ConfigError):
            raise ConfigError(
                f"tau must be finite meters >= 0 or a preset {list(TAU_PERCENTILES)}, got {self.tau!r}"
            ) from None
        object.__setattr__(self, "tau", tau)


class _VariabilityModel:
    """Shared constructor and surface of the graph model and the per-node MLP baseline.

    This is the only constructor: it keeps the shared settings, seeds the
    parameter store, and calls `_add_layers` with an rng seeded the same way.
    A subclass adds its layers there, in a fixed order, and declares its
    `kind`, its checkpointed `_HYPERPARAMETERS`, `forward` and `backward`.
    Only DeltaVSG reads `scalar_gate`.
    """

    kind: str
    # Checkpointed in this order, followed by the parameter store's rng_seed.
    _HYPERPARAMETERS = ("d_v", "hidden_dim", "dropout_rate", "num_relationships")

    def __init__(
        self,
        taxonomy_name: str,
        num_relationships: int,
        pca: PcaModel,
        edge_config: EdgeConfig,
        hidden_dim: int,
        dropout_rate: float,
        seed: int,
        scalar_gate: bool = False,
    ):
        self.taxonomy_name = taxonomy_name
        self.num_relationships = num_relationships
        self.pca = pca
        self.edge_config = edge_config
        self.d_v = pca.d_v
        self.hidden_dim = hidden_dim
        self.dropout_rate = check_real(dropout_rate, 0, 1, "dropout rate", "[)")
        self.scalar_gate = check_flag(scalar_gate, "scalar_gate")
        self.store = ParamStore(rng_seed=seed)
        self._add_layers(np.random.default_rng(seed))

    def hyperparameters(self) -> dict:
        return {k: getattr(self, k) for k in self._HYPERPARAMETERS} | {"rng_seed": self.store.rng_seed}

    def _check_graph(self, eg: GraphUnion) -> None:
        if eg.node_features.shape[1] != self.d_v and eg.num_nodes:
            raise DimensionError(
                f"node features have width {eg.node_features.shape[1]}, model expects {self.d_v}"
            )
        if eg.num_edges and eg.edge_features.shape[1] != self.num_relationships + 3:
            raise DimensionError(
                f"edge features have width {eg.edge_features.shape[1]}, "
                f"model expects {self.num_relationships + 3}"
            )

    def _forward_input(self, eg: EmbeddedGraph | GraphUnion, mode: str) -> tuple[GraphUnion, bool]:
        """Both `forward`s' preamble: the input as a union checked against the
        model, and whether `mode`, checked by `check_mode`, is "train"."""
        g = eg if isinstance(eg, GraphUnion) else graph_union([eg])
        self._check_graph(g)
        check_mode(mode)
        return g, mode == "train"

    def embed_scene(self, g: SceneGraph, tax: Taxonomy) -> EmbeddedGraph:
        if g.taxonomy_name != self.taxonomy_name or tax.name != self.taxonomy_name:
            raise CheckpointError(
                f"model was trained on taxonomy {self.taxonomy_name!r} but got "
                f"graph/taxonomy {g.taxonomy_name!r}/{tax.name!r}"
            )
        return embed(g, tax, self.pca, self.edge_config)

    def predict_probabilities(self, g: SceneGraph, tax: Taxonomy) -> dict[str, tuple[float, float, float]]:
        """Per-object (p_position, p_state, p_instance), eval mode; non-finite ones are a CheckpointError."""
        eg = self.embed_scene(g, tax)
        with np.errstate(over="ignore", invalid="ignore"):  # finite_probabilities reports it, not numpy
            probs = finite_probabilities(self.forward(eg, mode="eval")[0], g.scan_id)
        return dict(zip(eg.node_ids, map(tuple, probs.tolist())))


class DeltaVsgModel(_VariabilityModel):
    """Two message-passing layers, ReLU + dropout between, 3-sigmoid head."""

    kind = "deltavsg"
    _HYPERPARAMETERS = ("d_v", "hidden_dim", "dropout_rate", "scalar_gate", "num_relationships")

    def _add_layers(self, rng: np.random.Generator) -> None:
        conv = (self.d_v, self.num_relationships + 3, self.hidden_dim, self.store)
        self.conv1 = MpConv(*conv, "conv1", rng, self.scalar_gate)
        self.conv2 = MpConv(*conv, "conv2", rng, self.scalar_gate)
        self.head = Mlp([self.d_v, 3], self.store, "head", rng)

    def forward(
        self, eg: EmbeddedGraph | GraphUnion, mode: str = "eval", rng: np.random.Generator | None = None
    ) -> tuple[np.ndarray, tuple | None]:
        """Per-node probabilities (N, 3) of one graph or a union, plus the
        cache backward reads (None in eval mode)."""
        g, train = self._forward_input(eg, mode)
        graph = (g.edge_index, g.edge_features, g.node_spans, g.edge_spans, train)
        a1, c1 = self.conv1.forward(g.node_features, *graph)
        r1 = relu(a1)
        d1, mask = dropout(r1, self.dropout_rate, mode, rng)
        a2, c2 = self.conv2.forward(d1, *graph)
        logits, ch = self.head.forward(a2, g.node_spans, train)
        probs = sigmoid(logits)
        return probs, ((c1, a1 > 0, mask, c2, ch, probs) if train else None)

    def backward(self, cache: tuple | None, dprobs: np.ndarray) -> None:
        """Accumulate exact parameter gradients from dLoss/dProbabilities."""
        if cache is None:
            raise UsageError("backward requires a cache from a train-mode forward")
        c1, active1, mask, c2, ch, probs = cache
        dlogits = dprobs * probs * (1.0 - probs)
        da2 = self.head.backward(ch, dlogits)
        dd1 = self.conv2.backward(c2, da2)
        dr1 = dropout_backward(dd1, mask, self.dropout_rate)
        da1 = dr1 * active1
        self.conv1.backward(c1, da1, input_grad=False)


class MlpBaseline(_VariabilityModel):
    """Per-node MLP on node features only; edges and scalar_gate are ignored."""

    kind = "mlp_baseline"

    def _add_layers(self, rng: np.random.Generator) -> None:
        self.net = Mlp([self.d_v, self.hidden_dim, self.hidden_dim, 3], self.store, "net", rng)

    def forward(
        self, eg: EmbeddedGraph | GraphUnion, mode: str = "eval", rng: np.random.Generator | None = None
    ) -> tuple[np.ndarray, tuple | None]:
        g, train = self._forward_input(eg, mode)
        logits, c = self.net.forward(g.node_features, g.node_spans, train)
        probs = sigmoid(logits)
        return probs, ((c, probs) if train else None)

    def backward(self, cache: tuple | None, dprobs: np.ndarray) -> None:
        if cache is None:
            raise UsageError("backward requires a cache from a train-mode forward")
        c, probs = cache
        dlogits = dprobs * probs * (1.0 - probs)
        self.net.backward(c, dlogits, input_grad=False)


# kind -> class; `train` and `load_checkpoint` both build their model from here.
MODEL_CLASSES = {cls.kind: cls for cls in (DeltaVsgModel, MlpBaseline)}
MODEL_KINDS = tuple(MODEL_CLASSES)


# ---------------------------------------------------------------------------
# Checkpoints: one canonical JSON file; floats survive the round trip exactly,
# so save(load(path)) reproduces the file byte for byte.
# ---------------------------------------------------------------------------


# The JSON type a checkpoint must give each hyperparameter that is not an "int".
_HYPERPARAMETER_TYPES = {"dropout_rate": "float", "scalar_gate": "bool"}


def _pca_to_dict(pca: PcaModel) -> dict:
    return {
        "mean": pca.mean.tolist(),
        "components": pca.components.tolist(),
        "explained_variance_ratio": pca.explained_variance_ratio.tolist(),
        "d_v": pca.d_v,
        "rank": pca.rank,
    }


def _pca_from_dict(d: dict) -> PcaModel:
    return PcaModel(
        mean=np.array(d["mean"], dtype=np.float64),
        components=np.array(d["components"], dtype=np.float64),
        explained_variance_ratio=np.array(d["explained_variance_ratio"], dtype=np.float64),
        d_v=d["d_v"],
        rank=d["rank"],
    )


def checkpoint_to_json(model: _VariabilityModel, taxonomy: Taxonomy) -> str:
    if taxonomy.name != model.taxonomy_name:
        raise CheckpointError(
            f"taxonomy {taxonomy.name!r} does not match the model's {model.taxonomy_name!r}"
        )
    payload = {
        "format_version": CHECKPOINT_VERSION,
        "model_kind": model.kind,
        "taxonomy_name": model.taxonomy_name,
        "taxonomy": taxonomy_to_dict(taxonomy),
        "pca": _pca_to_dict(model.pca),
        "edge_config": asdict(model.edge_config),
        "hyperparameters": model.hyperparameters(),
        "parameters": {n: model.store[n].value.tolist() for n in model.store.names()},
    }
    return _encode_json(payload)


def save_checkpoint(model: _VariabilityModel, taxonomy: Taxonomy, path) -> None:
    _write_text(path, checkpoint_to_json(model, taxonomy))


def _require_finite(path, what: str, values: np.ndarray) -> None:
    if not np.isfinite(values).all():
        raise CheckpointError(f"{path}: {what} holds a non-finite value")


def load_checkpoint(path) -> tuple[_VariabilityModel, Taxonomy]:
    data = _read_json(path, "checkpoint", CheckpointError)
    if data.get("format_version") != CHECKPOINT_VERSION:
        version = data.get("format_version")
        raise CheckpointError(f"{path}: unsupported checkpoint version {version!r}")
    try:
        kind = data["model_kind"]
        hp = data["hyperparameters"]
        cls = MODEL_CLASSES.get(kind)
        if cls is None:
            raise CheckpointError(f"{path}: unknown model kind {kind!r}; expected one of {MODEL_KINDS}")
        names = (*cls._HYPERPARAMETERS, "rng_seed")
        for section, keys in (("hyperparameters", names), ("edge_config", asdict(EdgeConfig()))):
            missing = sorted(set(keys) - set(data[section]))
            if missing:
                raise CheckpointError(f"{path}: checkpoint is missing {section} {missing}")
        bad = [f"hyperparameter {k}" for k in names if not _fits(hp[k], _HYPERPARAMETER_TYPES.get(k, "int"))]
        bad += [f"pca {k}" for k in ("d_v", "rank") if not _fits(data["pca"][k], "int")]
        if bad:
            raise CheckpointError(f"{path}: wrong JSON type for {', '.join(bad)}")
        taxonomy = taxonomy_from_dict(data["taxonomy"], source=str(path))
        if taxonomy.name != data["taxonomy_name"]:
            raise CheckpointError(
                f"{path}: taxonomy payload {taxonomy.name!r} does not match "
                f"taxonomy_name {data['taxonomy_name']!r}"
            )
        pca = _pca_from_dict(data["pca"])
        width = taxonomy.num_classes + taxonomy.num_attributes
        shapes = {"mean": (width,), "components": (pca.d_v, width), "explained_variance_ratio": (pca.d_v,)}
        for field, shape in shapes.items():
            values = getattr(pca, field)
            _require_finite(path, f"pca {field}", values)
            if values.shape != shape:
                raise CheckpointError(f"{path}: pca {field} has shape {values.shape}, expected {shape}")
        for name, value in (("d_v", pca.d_v), ("num_relationships", taxonomy.num_relationships)):
            if hp[name] != value:
                raise CheckpointError(f"{path}: hyperparameter {name} is {hp[name]!r}, expected {value}")
        edge_config = _config_from_json(EdgeConfig, data["edge_config"], f"{path}: edge_config")
        model = cls(
            taxonomy.name,
            taxonomy.num_relationships,
            pca,
            edge_config,
            hidden_dim=hp["hidden_dim"],
            dropout_rate=hp["dropout_rate"],
            seed=hp["rng_seed"],
            scalar_gate=hp.get("scalar_gate", False),
        )
        params = data["parameters"]
        for name in model.store.names():
            if name not in params:
                raise CheckpointError(f"{path}: checkpoint is missing parameter {name!r}")
            stored = np.array(params[name], dtype=np.float64)
            if stored.shape != model.store[name].value.shape:
                raise CheckpointError(
                    f"{path}: parameter {name!r} has shape {stored.shape}, "
                    f"expected {model.store[name].value.shape}"
                )
            _require_finite(path, f"parameter {name!r}", stored)
            model.store[name].value[...] = stored
    except (ConfigError, ParseError, *_BAD_FIELD) as e:
        raise CheckpointError(f"{path}: malformed checkpoint ({e!r})") from e
    return model, taxonomy
