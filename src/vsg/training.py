"""Supervised training loop and evaluation for variability prediction.

The loss is a masked, class-weighted focal loss applied independently to the
three binary outputs per node:

    loss_element = -w_c * (1 - p_t)^gamma * log(p_t)

where p_t is the probability the model assigns to the true class (p for a
positive label, 1-p for a negative one) and w_c is the weight of that class.
Masked elements contribute nothing, and the loss is the mean over unmasked
elements. gamma = 0 with unit weights recovers plain binary cross-entropy.

`train` is two steps: `prepare_training` labels the splits once and fits
the PCA and tau, then `train_prepared` runs the epoch loop. A batch is a
set of whole graphs; samples are drawn with replacement under importance
weights so rare positives are seen often. The returned model is the
best-validation-loss snapshot, and the whole run is deterministic per
(config, seed).

Where speed stops keeping the bits. A run does each graph's float operations
in a fixed order, and every speed-up keeps that order. A step trains its
batch as one disjoint union of graphs (Fey & Lenssen, arXiv:1903.02428;
model.py's ``GraphUnion``). An eval-mode pass (validation, ``evaluate``,
``threshold_sweep``) forwards each distinct scan once, in unions, with the
same floats as alone. Everything elementwise runs once over the union:
gathers, ReLU, sigmoid, the dropout draw (one draw over the union is the
graphs' draws in batch order), the focal-loss elements, and the message sum,
one ``np.bincount`` that adds in input order (model.py's ``_scatter_add``),
where no bin spans two graphs. What the floats depend on stays per graph:
- each matrix product: a stacked product differs from the per-graph ones
  under OpenBLAS in 372 of 600 cases;
- each bias-gradient and loss sum over a graph's own rows:
  ``np.add.reduceat`` differs from the per-graph ``sum`` in 294 of 300
  random cases, so it is not used;
- the order in which graphs' gradients are added: each graph's weight and
  bias gradients are added with their own ``+=``, in batch order, and no
  batched reduction over graphs is used.
Input gradients nobody reads are skipped, and one flat parameter buffer
serves Adam, ``zero_grads`` and the snapshots. A sort plus
``np.add.reduceat`` for the message sum differs from the sequential sum in
292 of 300 random graphs, so it is left out.
"""

from __future__ import annotations

import logging
import math
from collections.abc import Sequence
from dataclasses import asdict, dataclass, field

import numpy as np

from .core_graph import Taxonomy, _encode_json, _write_csv, check_count, check_length, check_real
from .dataset import (
    DatasetBundle,
    LabelConfig,
    Sample,
    VARIABILITY_NAMES,
    importance_sample,
    label_statistics,
)
from .embedding import (TAU_PERCENTILES, EdgeConfig, EmbeddedGraph, PcaModel, embed, encode_nodes,
                        fit_pca, pairwise_distance_percentile)
from .errors import ConfigError, EvaluationError, TrainingError
from .model import MODEL_CLASSES, ModelConfig, finite_probabilities, graph_union
from .nn_core import Adam

logger = logging.getLogger(__name__)

_CLAMP_LO = 1e-7
_CLAMP_HI = 1.0 - 1e-7
_EVAL_UNION = 8  # graphs per union when a trained model is evaluated


@dataclass(frozen=True)
class LossConfig:
    """gamma is the focusing exponent; class_weights is (3, 2): per
    variability type, weight of the positive then the negative class."""

    gamma: float = 0.5
    class_weights: tuple[tuple[float, float], ...] = ((1.0, 1.0),) * 3

    def __post_init__(self):
        object.__setattr__(self, "gamma", check_real(self.gamma, 0, math.inf, "gamma"))
        object.__setattr__(self, "class_weights", tuple(
            tuple(check_real(w, 0, math.inf, f"class_weights[{i}][{j}]", "(]")
                  for j, w in enumerate(check_length(row, 2, f"class_weights[{i}]")))
            for i, row in enumerate(check_length(self.class_weights, 3, "class_weights"))))


def class_weights_from_samples(samples: list[Sample]) -> tuple:
    """Inverse positive-frequency weights per variability type, capped at 20."""
    stats = label_statistics(samples)
    rows = []
    for rate in stats.positive_rates:
        pos = min(20.0, 1.0 / rate) if rate > 0 else 1.0
        rows.append((float(pos), 1.0))
    return tuple(rows)


def focal_loss(
    probs: np.ndarray,
    labels: np.ndarray,
    masks: np.ndarray,
    cfg: LossConfig = LossConfig(),
    spans: Sequence[tuple[int, int]] | None = None,
) -> tuple[float | np.ndarray, np.ndarray]:
    """Masked focal loss and its exact gradient w.r.t. the probabilities.

    All inputs are (N, 3). Returns (mean loss over unmasked elements,
    dLoss/dprobs with zeros at masked entries). All-masked input is defined
    as loss 0 with zero gradient.

    With ``spans``, the rows are a union of graphs, graph g owning rows
    ``spans[g]`` = (start, stop): the loss is then the (G,) array of each
    graph's own loss, and each graph's gradient is that of its own loss.
    The elements are computed once over the union; each graph's sums are
    sums over its own rows, as for the graph alone.
    """
    if probs.shape != labels.shape or probs.shape != masks.shape:
        raise ConfigError(
            f"shape mismatch: probs {probs.shape}, labels {labels.shape}, masks {masks.shape}"
        )
    rows = ((0, probs.shape[0]),) if spans is None else spans
    counts = np.array([masks[start:stop].sum() for start, stop in rows])
    cw = np.asarray(cfg.class_weights, dtype=np.float64)
    positive = labels > 0.5
    w = np.where(positive, cw[None, :, 0], cw[None, :, 1])
    clamped = np.clip(probs, _CLAMP_LO, _CLAMP_HI)
    p_t = np.where(positive, clamped, 1.0 - clamped)
    one_minus = 1.0 - p_t
    log_pt = np.log(p_t)
    weighted = -w * one_minus**cfg.gamma * log_pt * masks
    sums = np.array([weighted[start:stop].sum() for start, stop in rows])
    empty = counts == 0
    counts[empty] = 1.0
    losses = np.where(empty, 0.0, sums / counts)
    # d/dp_t of -w (1-p_t)^g log p_t. The clamp keeps 1 - p_t > 0, so at g = 0
    # the first term is a signed zero and this is exactly -w / p_t.
    dpt = w * cfg.gamma * one_minus ** (cfg.gamma - 1.0) * log_pt - w * one_minus**cfg.gamma / p_t
    sign = np.where(positive, 1.0, -1.0)
    inside = (probs > _CLAMP_LO) & (probs < _CLAMP_HI)
    sizes = [stop - start for start, stop in rows]
    dprobs = dpt * sign * masks * inside / np.repeat(counts, sizes)[:, None]
    if empty.any():
        dprobs[np.repeat(empty, sizes)] = 0.0
    return (float(losses[0]), dprobs) if spans is None else (losses, dprobs)


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 200
    batch_size: int = 8
    learning_rate: float = 1e-3
    dropout_rate: float = 0.2
    seed: int = 0
    patience: int | None = 20  # epochs without val pooled-F1 improvement; None disables

    def __post_init__(self):
        for name, low in (("epochs", 1), ("batch_size", 1), ("seed", 0)):
            object.__setattr__(self, name, check_count(getattr(self, name), low, name))
        if self.patience is not None:
            object.__setattr__(self, "patience", check_count(self.patience, 1, "patience"))
        object.__setattr__(self, "learning_rate",
                           check_real(self.learning_rate, 0, math.inf, "learning_rate", "(]"))
        object.__setattr__(self, "dropout_rate", check_real(self.dropout_rate, 0, 1, "dropout_rate", "[)"))


@dataclass
class TrainingReport:
    """Per-epoch trace of one run; serializes deterministically."""

    train_loss: list[float] = field(default_factory=list)
    val_loss: list[float] = field(default_factory=list)
    val_pooled_f1: list[float] = field(default_factory=list)
    best_epoch: int = -1
    epochs_run: int = 0
    stopped_early: bool = False
    diverged: bool = False
    all_masked_steps: int = 0
    tau: float = 0.0
    class_weights: tuple = ()
    num_train_samples: int = 0
    num_val_samples: int = 0

    def to_json(self) -> str:
        return _encode_json(asdict(self))


def _embed_inputs(samples: list[Sample], embed_scan) -> list[EmbeddedGraph]:
    """Each sample's embedded input graph, calling `embed_scan` once per scan."""
    cache: dict[tuple[str, str], EmbeddedGraph] = {}
    for s in samples:
        key = (s.environment_id, s.input.scan_id)
        if key not in cache:
            cache[key] = embed_scan(s.input)
    return [cache[(s.environment_id, s.input.scan_id)] for s in samples]


def _train_step(model, graphs: list[EmbeddedGraph], samples: list[Sample], loss_cfg: LossConfig,
                rng: np.random.Generator) -> tuple[float, int]:
    """Add the gradient of the batch loss, the mean of its graphs' losses, as
    one union; returns (batch loss, unmasked element count)."""
    batch = graph_union(graphs)
    masks = np.concatenate([s.masks for s in samples])
    probs, cache = model.forward(batch, mode="train", rng=rng)
    losses, dprobs = focal_loss(probs, np.concatenate([s.labels for s in samples]), masks, loss_cfg,
                                batch.node_spans)
    batch_loss = 0.0
    for loss in losses.tolist():
        batch_loss += loss / len(graphs)
    model.backward(cache, dprobs / len(graphs))
    return batch_loss, int(masks.sum())


def _eval_forward(model, graphs: list[EmbeddedGraph], chunk: int) -> list[np.ndarray]:
    """Eval-mode (N, 3) probabilities of each of `graphs`: each distinct graph
    (`_embed_inputs` gives a scan one) is forwarded once, in unions of at most
    `chunk` graphs, with the same floats as alone. Repeats of a graph share
    one read-only array. Callers judge non-finite values."""
    distinct, probs = list({id(g): g for g in graphs}.values()), {}
    with np.errstate(over="ignore", invalid="ignore"):
        for part in (distinct[k:k + chunk] for k in range(0, len(distinct), chunk)):
            batch = graph_union(part)
            out = model.forward(batch, mode="eval")[0]
            out.flags.writeable = False
            probs.update((id(g), out[a:b]) for g, (a, b) in zip(part, batch.node_spans))
    return [probs[id(g)] for g in graphs]


def _validation_pass(model, graphs: list[EmbeddedGraph], samples: list[Sample], loss_cfg: LossConfig,
                     chunk: int) -> tuple[float, float]:
    """(mean graph loss, pooled F1 at 0.5) in eval mode: `_eval_forward` in
    unions of at most `chunk` graphs, each distinct scan once and with the
    same floats as alone; each sample is scored on its own labels and masks."""
    probs = _eval_forward(model, graphs, chunk)
    labels, masks = [s.labels for s in samples], [s.masks for s in samples]
    ends = np.cumsum([len(p) for p in probs]).tolist()
    losses = focal_loss(np.concatenate(probs), np.concatenate(labels), np.concatenate(masks), loss_cfg,
                        tuple(zip([0, *ends[:-1]], ends)))[0]
    f1 = evaluate_probabilities(probs, labels, masks, [0.5])[0].metrics["pooled"].f1
    return sum(losses.tolist()) / len(samples), f1


def sample_probabilities(model, samples: list[Sample], tax) -> list[np.ndarray]:
    """Eval-mode (N, 3) probabilities of each sample's input scan: each
    distinct scan is embedded once and forwarded once, in unions, with the
    same floats as alone (`_eval_forward`; the samples of one scan share one
    read-only array). A taxonomy or scan that is not the model's, and a
    non-finite probability, are refused with the CheckpointError of
    `predict_probabilities`, naming the scan."""
    graphs = _embed_inputs(samples, lambda g: model.embed_scene(g, tax))
    probs = _eval_forward(model, graphs, _EVAL_UNION)
    return [finite_probabilities(p, s.input.scan_id) for p, s in zip(probs, samples)]


def _snapshot(model) -> np.ndarray:
    return model.store.values.copy()


def _restore(model, snap: np.ndarray) -> None:
    model.store.values[...] = snap


@dataclass(frozen=True)
class PreparedTraining:
    """What the epoch loop reads, fit on the train split once."""

    model_cfg: ModelConfig
    taxonomy: Taxonomy
    train_samples: list[Sample]
    val_samples: list[Sample]  # the train samples when the bundle has no val split
    pca: PcaModel
    edge_cfg: EdgeConfig  # tau in meters
    train_inputs: list[EmbeddedGraph]
    val_inputs: list[EmbeddedGraph]


def prepare_training(bundle: DatasetBundle, model_cfg: ModelConfig = ModelConfig(),
                     label_cfg: LabelConfig = LabelConfig()) -> PreparedTraining:
    """Label the splits, fit the PCA and tau, and embed every input graph.
    Refuses an empty train split (TrainingError) and what fit_pca and the
    tau preset refuse (DimensionError, ConfigError)."""
    tax = bundle.taxonomy
    train_samples = bundle.samples("train", label_cfg)
    if not train_samples:
        raise TrainingError("train split has no samples")
    val_samples = bundle.samples("val", label_cfg)
    if not val_samples:
        logger.warning("no validation environments; validating on the train split")
        val_samples = train_samples

    train_graphs = [g for e in bundle.environment_ids("train") for g in bundle.environments[e]]
    vectors = np.vstack([encode_nodes(g, tax) for g in train_graphs])
    pca = fit_pca(vectors, model_cfg.d_v)
    tau = model_cfg.tau  # meters, or a preset that ModelConfig has checked
    if isinstance(tau, str):
        tau = pairwise_distance_percentile(train_graphs, TAU_PERCENTILES[tau])
    edge_cfg = EdgeConfig(tau=tau, include_semantic_edges=model_cfg.include_semantic_edges)
    # One cache for both splits, so a train scan that is also validated on is embedded once.
    inputs = _embed_inputs(train_samples + val_samples, lambda g: embed(g, tax, pca, edge_cfg))
    k = len(train_samples)
    return PreparedTraining(model_cfg, tax, train_samples, val_samples, pca, edge_cfg, inputs[:k], inputs[k:])


def train_prepared(data: PreparedTraining, train_cfg: TrainConfig = TrainConfig(),
                   loss_cfg: LossConfig = LossConfig()):
    """The epoch loop on a fresh model and optimizer; returns (model, report).
    `data` is only read, so training it twice gives identical results."""
    tax, model_cfg = data.taxonomy, data.model_cfg
    model = MODEL_CLASSES[model_cfg.kind](
        tax.name, tax.num_relationships, data.pca, data.edge_cfg, hidden_dim=model_cfg.hidden_dim,
        dropout_rate=train_cfg.dropout_rate, seed=train_cfg.seed, scalar_gate=model_cfg.scalar_gate,
    )
    optimizer = Adam(model.store, lr=train_cfg.learning_rate)
    weights = importance_sample(data.train_samples)

    draw_rng = np.random.default_rng([train_cfg.seed, 1])
    dropout_rng = np.random.default_rng([train_cfg.seed, 2])

    report = TrainingReport(tau=data.edge_cfg.tau, class_weights=loss_cfg.class_weights,
                            num_train_samples=len(data.train_samples), num_val_samples=len(data.val_samples))
    best_val = math.inf
    best_snap = _snapshot(model)
    best_f1 = -1.0
    stale = 0
    steps_per_epoch = max(1, math.ceil(len(data.train_samples) / train_cfg.batch_size))

    # A diverging run is reported by the finiteness checks below, not by numpy.
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(train_cfg.epochs):
            epoch_loss, val_loss = 0.0, math.nan
            for _ in range(steps_per_epoch):
                idx = draw_rng.choice(len(data.train_samples), size=train_cfg.batch_size, p=weights).tolist()
                model.store.zero_grads()
                batch_loss, batch_unmasked = _train_step(
                    model, [data.train_inputs[k] for k in idx], [data.train_samples[k] for k in idx],
                    loss_cfg, dropout_rng,
                )
                if batch_unmasked == 0:
                    report.all_masked_steps += 1
                if not math.isfinite(batch_loss):
                    break
                optimizer.step()
                epoch_loss += batch_loss / steps_per_epoch
            else:
                val_loss, f1 = _validation_pass(
                    model, data.val_inputs, data.val_samples, loss_cfg, train_cfg.batch_size
                )
            if not math.isfinite(val_loss):  # a non-finite batch or validation loss; the epoch is not kept
                logger.warning("non-finite loss at epoch %d; restoring best checkpoint", epoch)
                report.diverged = True
                report.epochs_run = epoch
                _restore(model, best_snap)
                return model, report
            report.train_loss.append(epoch_loss)
            report.val_loss.append(val_loss)
            report.val_pooled_f1.append(f1)
            if val_loss < best_val:
                best_val = val_loss
                best_snap = _snapshot(model)
                report.best_epoch = epoch
            if f1 > best_f1:
                best_f1 = f1
                stale = 0
            else:
                stale += 1
            report.epochs_run = epoch + 1
            if train_cfg.patience is not None and stale >= train_cfg.patience:
                report.stopped_early = True
                break

    _restore(model, best_snap)
    return model, report


def train(
    bundle: DatasetBundle,
    model_cfg: ModelConfig = ModelConfig(),
    train_cfg: TrainConfig = TrainConfig(),
    loss_cfg: LossConfig = LossConfig(),
    label_cfg: LabelConfig = LabelConfig(),
):
    """Fit a model on the bundle's train split; returns (model, report): the
    two steps `prepare_training` and `train_prepared`. The loss takes
    loss_cfg's class weights as given (`vsg train` fills them from the train
    split). The validation split drives checkpoint selection (lowest loss)
    and early stopping (pooled F1 patience)."""
    return train_prepared(prepare_training(bundle, model_cfg, label_cfg), train_cfg, loss_cfg)


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Metrics:
    accuracy: float
    precision: float
    recall: float
    f1: float
    support: int  # positive ground-truth elements among the unmasked


@dataclass(frozen=True)
class EvalReport:
    metrics: dict[str, Metrics]  # position, state, instance, pooled
    threshold: float


def _metrics_from_counts(tp: int, fp: int, fn: int, tn: int) -> Metrics:
    total = tp + fp + fn + tn
    accuracy = (tp + tn) / total if total else 0.0
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return Metrics(accuracy, precision, recall, f1, tp + fn)


def evaluate_probabilities(
    prob_list: list[np.ndarray],
    label_list: list[np.ndarray],
    mask_list: list[np.ndarray],
    thresholds: Sequence[float],
) -> list[EvalReport]:
    """One EvalReport per threshold, in order; masked elements are excluded
    everywhere. All thresholds are counted in one (T, N, 3) step."""
    for threshold in thresholds:
        check_real(threshold, 0, 1, "threshold")  # a probability
    if not prob_list:
        raise EvaluationError("nothing to evaluate: empty sample set")
    pred = np.concatenate(prob_list) >= np.asarray(thresholds, dtype=np.float64)[:, None, None]
    pos = np.concatenate(label_list) > 0.5
    m = np.concatenate(mask_list) > 0
    # Per threshold and type: tp, fp, fn, tn.
    counts = np.stack([(p & y & m).sum(axis=1) for p in (pred, ~pred) for y in (pos, ~pos)], axis=-1)
    reports = []
    for threshold, per_type in zip(thresholds, counts):
        metrics = {
            name: _metrics_from_counts(*per_type[t]) for t, name in enumerate(VARIABILITY_NAMES)
        }
        metrics["pooled"] = _metrics_from_counts(*per_type.sum(axis=0))
        reports.append(EvalReport(metrics=metrics, threshold=threshold))
    return reports


SWEEP_THRESHOLDS = tuple(round(0.05 * k, 2) for k in range(1, 20))


def sweep_rows(reports: list[EvalReport]) -> list[dict]:
    """Precision, recall and F1 of each report, one row per (threshold, type)."""
    rows = []
    for rep in reports:
        for name in VARIABILITY_NAMES:
            m = rep.metrics[name]
            rows.append({"threshold": rep.threshold, "variability": name,
                         "precision": m.precision, "recall": m.recall, "f1": m.f1})
    return rows


def evaluate_samples(model, samples: list[Sample], tax, thresholds: Sequence[float]) -> list[EvalReport]:
    """One EvalReport per threshold, in order, from one `sample_probabilities` pass."""
    probs = sample_probabilities(model, samples, tax)
    return evaluate_probabilities(probs, [s.labels for s in samples], [s.masks for s in samples], thresholds)


def evaluate(model, samples: list[Sample], tax, threshold: float = 0.5) -> EvalReport:
    """Run the model over labeled samples and report per-variability metrics."""
    return evaluate_samples(model, samples, tax, [threshold])[0]


def threshold_sweep(model, samples: list[Sample], tax,
                    thresholds: Sequence[float] = SWEEP_THRESHOLDS) -> list[dict]:
    """Precision/recall per variability type across decision thresholds."""
    return sweep_rows(evaluate_samples(model, samples, tax, thresholds))


def write_eval_csv(report: EvalReport, path) -> None:
    metrics = [(name, report.metrics[name]) for name in (*VARIABILITY_NAMES, "pooled")]
    _write_csv(path, ["variability", "accuracy", "precision", "recall", "f1", "support"],
               ([name, m.accuracy, m.precision, m.recall, m.f1, m.support] for name, m in metrics))


def write_sweep_csv(rows: list[dict], path) -> None:
    header = ["threshold", "variability", "precision", "recall", "f1"]
    _write_csv(path, header, ([row[k] for k in header] for row in rows))
