"""Focal loss values and gradients, class weighting, metric computation,
and the training loop's determinism and control flow."""

import dataclasses
import logging
import math
import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest

from vsg import (
    CheckpointError,
    ConfigError,
    DatasetBundle,
    DimensionError,
    EvaluationError,
    GeneratorConfig,
    LossConfig,
    ModelConfig,
    TrainConfig,
    TrainingError,
    evaluate,
    focal_loss,
    generate_dataset,
    threshold_sweep,
    train,
    write_eval_csv,
    write_sweep_csv,
)
import vsg.model as model_module
import vsg.training as training_module
from vsg.model import MlpBaseline, MpConv, checkpoint_to_json
from vsg.training import class_weights_from_samples, evaluate_probabilities, prepare_training, train_prepared
from vsg.dataset import Sample
from vsg.embedding import EmbeddedGraph
from vsg.nn_core import Adam, Mlp, relu

from conftest import make_graph, make_node, make_sample, random_embedded_graph
from gradcheck import max_relative_error, numerical_gradient
from test_model import jitter_params, make_model, scatter_add_reference


def unit_weights():
    return LossConfig(gamma=0.5, class_weights=((1.0, 1.0),) * 3)


class TestFocalLoss:
    def test_known_value_at_half(self):
        probs = np.array([[0.5, 0.5, 0.5]])
        labels = np.array([[1.0, 0.0, 0.0]])
        masks = np.array([[1.0, 0.0, 0.0]])
        loss, _ = focal_loss(probs, labels, masks, unit_weights())
        assert abs(loss - math.sqrt(0.5) * math.log(2.0)) < 1e-12

    def test_gamma_zero_equals_bce(self):
        rng = np.random.default_rng(0)
        probs = rng.uniform(0.05, 0.95, size=(7, 3))
        labels = (rng.random((7, 3)) < 0.4).astype(float)
        masks = (rng.random((7, 3)) < 0.8).astype(float)
        masks[:, 2] = 1.0
        cw = ((3.0, 1.0), (2.0, 1.5), (1.0, 1.0))
        loss, dprobs = focal_loss(probs, labels, masks, LossConfig(gamma=0.0, class_weights=cw))
        w = np.where(labels > 0.5, np.array(cw)[None, :, 0], np.array(cw)[None, :, 1])
        bce = -w * (labels * np.log(probs) + (1 - labels) * np.log(1 - probs))
        count = masks.sum()
        assert abs(loss - float((bce * masks).sum() / count)) < 1e-12
        dbce = -w * (labels / probs - (1 - labels) / (1 - probs)) * masks / count
        npt.assert_allclose(dprobs, dbce, atol=1e-12)

    def test_focusing_downweights_confident_predictions(self):
        # The (1 - p_t)^gamma factor shrinks the loss more for an already
        # well-classified element than for a marginal one.
        def single(p, gamma):
            probs = np.full((1, 3), p)
            labels = np.ones((1, 3))
            masks = np.array([[1.0, 0.0, 0.0]])
            loss, _ = focal_loss(probs, labels, masks, LossConfig(gamma=gamma))
            return loss

        confident = single(0.9, 2.0) / single(0.9, 0.0)
        marginal = single(0.6, 2.0) / single(0.6, 0.0)
        assert abs(confident - 0.1**2) < 1e-12
        assert abs(marginal - 0.4**2) < 1e-12
        assert confident < marginal

    def test_masked_elements_are_inert(self):
        rng = np.random.default_rng(1)
        probs = rng.uniform(0.1, 0.9, size=(5, 3))
        labels = (rng.random((5, 3)) < 0.5).astype(float)
        masks = (rng.random((5, 3)) < 0.6).astype(float)
        masks[0, 0] = 1.0  # keep at least one element unmasked
        loss, dprobs = focal_loss(probs, labels, masks)
        npt.assert_array_equal(dprobs[masks == 0], 0.0)
        tampered = probs.copy()
        tampered[masks == 0] = rng.uniform(0.01, 0.99, size=int((masks == 0).sum()))
        loss2, dprobs2 = focal_loss(tampered, labels, masks)
        assert loss == loss2
        npt.assert_array_equal(dprobs, dprobs2)

    def test_all_masked_is_zero(self):
        probs = np.full((4, 3), 0.3)
        loss, dprobs = focal_loss(probs, np.zeros((4, 3)), np.zeros((4, 3)))
        assert loss == 0.0
        npt.assert_array_equal(dprobs, np.zeros((4, 3)))

    def test_loss_decreases_as_positive_prob_rises(self):
        losses = []
        for p in np.linspace(0.05, 0.95, 10):
            loss, _ = focal_loss(
                np.array([[p, 0.5, 0.5]]),
                np.array([[1.0, 0.0, 0.0]]),
                np.array([[1.0, 0.0, 0.0]]),
            )
            losses.append(loss)
        assert all(a > b for a, b in zip(losses, losses[1:]))

    @pytest.mark.parametrize("gamma", [0.0, 0.5, 1.0, 2.0])
    def test_gradient_matches_finite_differences(self, gamma):
        rng = np.random.default_rng(int(gamma * 10))
        probs = rng.uniform(0.05, 0.95, size=(6, 3))
        labels = (rng.random((6, 3)) < 0.5).astype(float)
        masks = (rng.random((6, 3)) < 0.7).astype(float)
        masks[:, 2] = 1.0
        cfg = LossConfig(gamma=gamma, class_weights=((2.0, 1.0), (1.0, 3.0), (1.0, 1.0)))
        _, dprobs = focal_loss(probs, labels, masks, cfg)
        num = numerical_gradient(lambda p: focal_loss(p, labels, masks, cfg)[0], probs)
        assert max_relative_error(dprobs, num) < 1e-4

    def test_extreme_probabilities_are_clamped(self):
        probs = np.array([[0.0, 1.0, 0.5]])
        labels = np.array([[1.0, 0.0, 1.0]])
        masks = np.ones((1, 3))
        loss, dprobs = focal_loss(probs, labels, masks)
        assert math.isfinite(loss)
        # No gradient outside the clamp interval: the loss is flat there.
        assert dprobs[0, 0] == 0.0 and dprobs[0, 1] == 0.0
        assert dprobs[0, 2] != 0.0

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ConfigError):
            focal_loss(np.zeros((2, 3)), np.zeros((3, 3)), np.zeros((2, 3)))

    def test_bad_config_rejected(self):
        with pytest.raises(ConfigError):
            LossConfig(gamma=-0.1)
        with pytest.raises(ConfigError):
            LossConfig(class_weights=((1.0, 0.0),) * 3)
        with pytest.raises(ConfigError):
            LossConfig(class_weights=((1.0, 1.0),) * 2)
        for gamma in (math.nan, math.inf):
            with pytest.raises(ConfigError, match="gamma"):
                LossConfig(gamma=gamma)
        for weight in (math.nan, math.inf):
            with pytest.raises(ConfigError, match="class_weights"):
                LossConfig(class_weights=((1.0, 1.0), (weight, 1.0), (1.0, 1.0)))


def sample_with_labels(tiny_tax, rows: list, scan="s0"):
    """One node per (y_position, y_state, y_instance, m_position, m_state) row."""
    nodes = [make_node(f"o{k}", attrs=(1,)) for k in range(len(rows))]
    return make_sample(make_graph(nodes, scan=scan), rows, (scan, "s1"))


class TestClassWeights:
    def test_inverse_frequency(self, tiny_tax):
        labels = [(int(k < 2), int(k < 1), 0, 1, 1) for k in range(8)]
        weights = class_weights_from_samples([sample_with_labels(tiny_tax, labels)])
        assert weights == ((4.0, 1.0), (8.0, 1.0), (1.0, 1.0))

    def test_cap_at_twenty(self, tiny_tax):
        labels = [(int(k == 0), 0, 0, 1, 1) for k in range(40)]
        weights = class_weights_from_samples([sample_with_labels(tiny_tax, labels)])
        assert weights[0] == (20.0, 1.0)

    def test_feeds_loss_config(self, tiny_tax):
        labels = [(1, 0, 0, 1, 1)]
        weights = class_weights_from_samples([sample_with_labels(tiny_tax, labels)])
        assert LossConfig(class_weights=weights).class_weights == weights


def single_report(probs, labels, masks=None, threshold=0.5):
    probs = np.asarray(probs, dtype=float)
    labels = np.asarray(labels, dtype=float)
    masks = np.ones_like(probs) if masks is None else np.asarray(masks, dtype=float)
    return evaluate_probabilities([probs], [labels], [masks], [threshold])[0]


class TestEvaluateProbabilities:
    def test_hand_counted_confusion(self):
        # Position column: 2 TP, 1 FP, 1 FN, 1 TN.
        probs = [[0.9, 0, 0], [0.8, 0, 0], [0.7, 0, 0], [0.2, 0, 0], [0.1, 0, 0]]
        labels = [[1, 0, 0], [1, 0, 0], [0, 0, 0], [1, 0, 0], [0, 0, 0]]
        masks = [[1, 0, 0]] * 5
        m = single_report(probs, labels, masks).metrics["position"]
        assert m.precision == pytest.approx(2 / 3)
        assert m.recall == pytest.approx(2 / 3)
        assert m.f1 == pytest.approx(2 / 3)
        assert m.accuracy == pytest.approx(3 / 5)
        assert m.support == 3

    def test_threshold_is_inclusive(self):
        m = single_report([[0.5, 0, 0]], [[1, 0, 0]], [[1, 0, 0]]).metrics["position"]
        assert m.recall == 1.0

    def test_all_negative_gives_zero_f1(self):
        m = single_report([[0.1, 0, 0]] * 4, [[0, 0, 0]] * 4).metrics["position"]
        assert (m.precision, m.recall, m.f1) == (0.0, 0.0, 0.0)
        assert m.accuracy == 1.0
        assert m.support == 0

    def test_oracle_probabilities_are_perfect(self):
        rng = np.random.default_rng(3)
        labels = (rng.random((20, 3)) < 0.3).astype(float)
        labels[0] = [1, 1, 1]  # ensure every type has a positive
        report = single_report(labels, labels)
        for name in ("position", "state", "instance", "pooled"):
            m = report.metrics[name]
            assert (m.accuracy, m.precision, m.recall, m.f1) == (1.0, 1.0, 1.0, 1.0)

    def test_masked_elements_excluded(self):
        probs = [[0.9, 0.9, 0.1]]
        labels = [[0.0, 1.0, 0.0]]
        masks = [[0.0, 1.0, 1.0]]  # the would-be false positive is masked
        report = single_report(probs, labels, masks)
        assert report.metrics["position"].support == 0
        assert report.metrics["pooled"].precision == 1.0

    def test_pooled_sums_counts(self):
        probs = [[0.9, 0.1, 0.9], [0.1, 0.9, 0.1]]
        labels = [[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]]
        report = single_report(probs, labels)
        # Per element: position TP+TN, state TN+FP, instance FP+FN.
        pooled = report.metrics["pooled"]
        assert pooled.accuracy == pytest.approx(3 / 6)
        assert pooled.precision == pytest.approx(1 / 3)
        assert pooled.recall == pytest.approx(1 / 2)
        assert pooled.support == 2

    def test_empty_rejected(self):
        with pytest.raises(EvaluationError):
            evaluate_probabilities([], [], [], [0.5])

    @pytest.mark.parametrize("threshold", [math.nan, -1.0, 2.0, math.inf, "0.5", None, True])
    def test_threshold_outside_unit_interval_rejected(self, threshold):
        with pytest.raises(ConfigError, match="threshold"):
            single_report([[0.9, 0, 0]], [[1, 0, 0]], threshold=threshold)

    def test_threshold_bounds_accepted(self):
        for threshold in (0.0, 1.0):
            assert single_report([[1.0, 0, 0]], [[1, 0, 0]], threshold=threshold).threshold == threshold

    def test_eval_csv(self, tmp_path):
        report = single_report([[0.9, 0.9, 0.9]], [[1, 1, 1]])
        path = tmp_path / "eval.csv"
        write_eval_csv(report, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "variability,accuracy,precision,recall,f1,support"
        assert len(lines) == 5
        assert lines[1].startswith("position,1.0,1.0,1.0,1.0,1")
        assert lines[4].startswith("pooled,")


def evaluate_probabilities_loop(prob_list, label_list, mask_list, threshold=0.5):
    """The per-sample, per-type counting loop `evaluate_probabilities` replaced."""
    if not prob_list:
        raise EvaluationError("nothing to evaluate: empty sample set")
    counts = np.zeros((3, 4), dtype=np.int64)  # per type: tp, fp, fn, tn
    for probs, labels, masks in zip(prob_list, label_list, mask_list):
        pred = probs >= threshold
        pos = labels > 0.5
        m = masks > 0
        for t in range(3):
            sel = m[:, t]
            p, y = pred[sel, t], pos[sel, t]
            counts[t] += (
                int((p & y).sum()),
                int((p & ~y).sum()),
                int((~p & y).sum()),
                int((~p & ~y).sum()),
            )
    metrics = {
        name: training_module._metrics_from_counts(*counts[t])
        for t, name in enumerate(training_module.VARIABILITY_NAMES)
    }
    metrics["pooled"] = training_module._metrics_from_counts(*counts.sum(axis=0))
    return training_module.EvalReport(metrics=metrics, threshold=threshold)


def test_evaluate_probabilities_matches_loop_reference():
    rng = np.random.default_rng(11)
    for case in range(60):
        sizes = [int(k) for k in rng.integers(0, 9, size=int(rng.integers(1, 7)))]
        sizes[int(rng.integers(len(sizes)))] = 0  # a zero-node sample
        probs = [rng.random((k, 3)) for k in sizes]
        labels = [(rng.random((k, 3)) < 0.3).astype(float) for k in sizes]
        masks = [(rng.random((k, 3)) < 0.8).astype(float) for k in sizes]
        masks[int(rng.integers(len(sizes)))][...] = 0.0  # an all-masked sample
        probs[0][:, 0] = 0.5  # exactly on the threshold
        thresholds = (0.05, 0.5, 0.95)
        got = evaluate_probabilities(probs, labels, masks, thresholds)
        assert got == [evaluate_probabilities_loop(probs, labels, masks, th) for th in thresholds], case


def small_bundle(num_environments=3, seed=4, **kwargs):
    cfg = GeneratorConfig(
        num_environments=num_environments,
        scans_per_environment=3,
        objects_min=6,
        objects_max=8,
        seed=seed,
        **kwargs,
    )
    ds = generate_dataset(cfg)
    env_ids = list(ds.environments)
    splits = {e: "train" for e in env_ids}
    if len(env_ids) > 1:
        splits[env_ids[-1]] = "val"
    return DatasetBundle(ds.taxonomy, ds.environments, splits)


def quick_train_cfg(**kwargs):
    defaults = dict(epochs=3, batch_size=4, learning_rate=1e-3, dropout_rate=0.0, seed=0)
    defaults.update(kwargs)
    return TrainConfig(**defaults)


def small_model_cfg(**kwargs):
    defaults = dict(d_v=8, hidden_dim=8, tau="p50")
    defaults.update(kwargs)
    return ModelConfig(**defaults)


class TestTrain:
    def test_deterministic_runs(self):
        bundle = small_bundle()
        results = []
        for _ in range(2):
            model, report = train(bundle, small_model_cfg(), quick_train_cfg())
            results.append(
                (checkpoint_to_json(model, bundle.taxonomy), report.to_json())
            )
        assert results[0] == results[1]

    def test_train_is_prepare_then_loop(self):
        bundle = small_bundle()
        m, t, l = small_model_cfg(), quick_train_cfg(dropout_rate=0.3), LossConfig(gamma=1.0)

        def as_bytes(model, report):
            return checkpoint_to_json(model, bundle.taxonomy), report.to_json()

        data = prepare_training(bundle, m)
        by_hand = [as_bytes(*train_prepared(data, t, l)) for _ in range(2)]
        # The loop only reads `data`: a second run on it gives the same bytes.
        assert by_hand[0] == by_hand[1] == as_bytes(*train(bundle, m, t, l))

    def test_loss_config_defaults_to_unit_weights(self):
        # train() weighs classes only as its LossConfig says; vsg train fills
        # the weights from the train split itself.
        bundle = small_bundle()
        plain, plain_report = train(bundle, small_model_cfg(), quick_train_cfg())
        given, _ = train(bundle, small_model_cfg(), quick_train_cfg(), LossConfig())
        assert checkpoint_to_json(plain, bundle.taxonomy) == checkpoint_to_json(given, bundle.taxonomy)
        assert plain_report.class_weights == ((1.0, 1.0),) * 3

    def test_loss_decreases_when_overfitting(self):
        bundle = small_bundle(num_environments=1)
        cfg = quick_train_cfg(epochs=40, learning_rate=5e-3, patience=None)
        model, report = train(bundle, small_model_cfg(), cfg)
        assert report.epochs_run == 40
        assert not report.stopped_early
        assert report.train_loss[-1] < 0.5 * report.train_loss[0]

    def test_best_epoch_tracks_val_loss_minimum(self):
        bundle = small_bundle()
        _, report = train(bundle, small_model_cfg(), quick_train_cfg(epochs=8))
        assert report.best_epoch == int(np.argmin(report.val_loss))
        assert len(report.val_loss) == report.epochs_run
        assert len(report.val_pooled_f1) == report.epochs_run

    def test_early_stopping(self):
        bundle = small_bundle()
        cfg = quick_train_cfg(epochs=60, patience=2, learning_rate=1e-5)
        _, report = train(bundle, small_model_cfg(), cfg)
        assert report.stopped_early
        assert report.epochs_run < 60

    def test_missing_val_split_warns_and_uses_train(self, caplog):
        bundle = small_bundle()
        all_train = DatasetBundle(
            bundle.taxonomy, bundle.environments, {e: "train" for e in bundle.environments}
        )
        with caplog.at_level(logging.WARNING):
            _, report = train(all_train, small_model_cfg(), quick_train_cfg(epochs=1))
        assert "no validation environments" in caplog.text
        assert report.num_val_samples == report.num_train_samples

    @pytest.mark.parametrize("val_split", [False, True])
    def test_each_input_scan_is_embedded_once(self, monkeypatch, val_split):
        # Without a val split the train samples are validated on; their scans
        # must not be embedded a second time for that.
        bundle = small_bundle(seed=1)
        if not val_split:
            splits = dict.fromkeys(bundle.environments, "train")
            bundle = DatasetBundle(bundle.taxonomy, bundle.environments, splits)
        calls = []

        def counting_embed(g, *args):
            calls.append((g.environment_id, g.scan_id))
            return embed(g, *args)

        embed = training_module.embed
        monkeypatch.setattr(training_module, "embed", counting_embed)
        data = prepare_training(bundle, small_model_cfg())
        assert len(calls) == len(set(calls)) == 9  # 3 environments x 3 scans, each an input
        if not val_split:
            assert all(v is t for v, t in zip(data.val_inputs, data.train_inputs, strict=True))

    def test_empty_train_split_rejected(self):
        bundle = small_bundle()
        all_val = DatasetBundle(
            bundle.taxonomy, bundle.environments, {e: "val" for e in bundle.environments}
        )
        with pytest.raises(TrainingError):
            train(all_val, small_model_cfg(), quick_train_cfg())

    def test_train_split_without_objects_rejected(self):
        bundle = small_bundle()
        empty = {e: [dataclasses.replace(g, nodes=(), semantic_edges=()) for g in scans]
                 for e, scans in bundle.environments.items()}
        with pytest.raises(DimensionError, match="got 0"):
            prepare_training(DatasetBundle(bundle.taxonomy, empty, bundle.splits), small_model_cfg())

    def test_divergence_restores_best_parameters(self, monkeypatch):
        bundle = small_bundle()
        import vsg.training as training_module

        real = training_module.focal_loss
        calls = {"n": 0}

        def exploding(probs, labels, masks, cfg=LossConfig(), spans=None):
            calls["n"] += 1
            losses, dprobs = real(probs, labels, masks, cfg, spans)
            if calls["n"] > 4:
                return losses * np.nan, np.zeros_like(probs)
            return losses, dprobs

        monkeypatch.setattr(training_module, "focal_loss", exploding)
        model, report = train(bundle, small_model_cfg(), quick_train_cfg(epochs=5))
        assert report.diverged
        assert report.epochs_run < 5

    def test_trains_the_mlp_baseline_kind(self):
        bundle = small_bundle()
        model, _ = train(
            bundle, small_model_cfg(kind="mlp_baseline"), quick_train_cfg(epochs=1)
        )
        assert isinstance(model, MlpBaseline)

    def test_tau_recorded_from_percentile(self):
        bundle = small_bundle()
        _, report = train(bundle, small_model_cfg(tau="p25"), quick_train_cfg(epochs=1))
        _, report75 = train(bundle, small_model_cfg(tau="p75"), quick_train_cfg(epochs=1))
        assert 0 < report.tau < report75.tau

    def test_evaluate_trained_model(self, tmp_path):
        bundle = small_bundle()
        model, _ = train(bundle, small_model_cfg(), quick_train_cfg())
        samples = bundle.samples("val")
        report = evaluate(model, samples, bundle.taxonomy)
        assert set(report.metrics) == {"position", "state", "instance", "pooled"}
        assert report.threshold == 0.5
        rows = threshold_sweep(model, samples, bundle.taxonomy, thresholds=[0.25, 0.5, 0.75])
        assert len(rows) == 9
        for row in rows:
            m = evaluate(model, samples, bundle.taxonomy, threshold=row["threshold"])
            m = m.metrics[row["variability"]]
            assert (row["precision"], row["recall"], row["f1"]) == (m.precision, m.recall, m.f1)
        by_type = [r for r in rows if r["variability"] == "position"]
        recalls = [r["recall"] for r in by_type]
        assert recalls == sorted(recalls, reverse=True)
        write_sweep_csv(rows, tmp_path / "sweep.csv")
        header = (tmp_path / "sweep.csv").read_text().splitlines()[0]
        assert header == "threshold,variability,precision,recall,f1"
        with pytest.raises(ConfigError, match="threshold"):
            evaluate(model, samples, bundle.taxonomy, threshold=math.nan)
        with pytest.raises(ConfigError, match="threshold"):
            threshold_sweep(model, samples, bundle.taxonomy, thresholds=[0.5, 1.5])

    def test_foreign_taxonomy_refused(self):
        bundle = small_bundle()
        model, _ = train(bundle, small_model_cfg(), quick_train_cfg(epochs=1))
        renamed = dataclasses.replace(bundle.taxonomy, name="renamed")
        samples = [
            dataclasses.replace(s, input=dataclasses.replace(s.input, taxonomy_name="renamed"))
            for s in bundle.samples("val")
        ]
        with pytest.raises(CheckpointError, match="renamed"):
            evaluate(model, samples, renamed)
        with pytest.raises(CheckpointError, match="renamed"):
            threshold_sweep(model, samples, renamed)

    def test_train_config_validation(self):
        with pytest.raises(ConfigError):
            TrainConfig(epochs=0)
        with pytest.raises(ConfigError, match="seed"):
            TrainConfig(seed=-1)
        with pytest.raises(ConfigError):
            TrainConfig(dropout_rate=1.0)
        with pytest.raises(ConfigError):
            TrainConfig(patience=0)
        with pytest.raises(ConfigError, match="patience must be an integer"):  # else early stopping is off
            TrainConfig(patience=math.nan)
        for lr in (0.0, -1e-3, math.nan, math.inf):
            with pytest.raises(ConfigError, match="learning_rate"):
                TrainConfig(learning_rate=lr)


def test_numpy_integer_config_fields_save_the_same_bytes(tmp_path):
    # Every count field is stored as a Python int, so a numpy integer in
    # each one gives the Python-int run's world, checkpoint and report.json
    # byte for byte (the JSON writer refuses numpy integers).
    counts = {
        GeneratorConfig: dict(num_environments=3, scans_per_environment=3, objects_min=6, objects_max=8,
                              seed=4),
        TrainConfig: dict(epochs=2, batch_size=4, seed=3, patience=1),
        ModelConfig: dict(d_v=4, hidden_dim=8),
    }
    for cls, values in counts.items():
        assert set(values) == {f.name for f in dataclasses.fields(cls) if f.type in ("int", "int | None")}

    def run(as_count):
        cfg = {cls: cls(**{k: as_count(v) for k, v in values.items()}) for cls, values in counts.items()}
        ds = generate_dataset(cfg[GeneratorConfig])
        splits = {e: "val" if k == 0 else "train" for k, e in enumerate(ds.environments)}
        model, report = train(DatasetBundle(ds.taxonomy, ds.environments, splits), cfg[ModelConfig],
                              cfg[TrainConfig])
        path = tmp_path / f"{as_count.__name__}.json"
        model_module.save_checkpoint(model, ds.taxonomy, path)
        return path.read_bytes(), report.to_json().encode()

    assert run(np.int64) == run(int)


def test_validation_memory_stays_at_one_batch(monkeypatch):
    # 36 validation graphs with 4,024 edges in all: one union of them would
    # hold a 4,024 x 64 float64 edge-MLP hidden layer, 2.0 MiB, and peak at
    # 3.0 MiB. Unions of batch_size = 2 graphs hold at most 340 edges, and
    # the peak, then set by a training step, is 1.0 MiB.
    data = generate_dataset(GeneratorConfig(num_environments=8, scans_per_environment=3,
                                            objects_min=24, objects_max=30, seed=3))
    splits = {e: "train" if k < 2 else "val" for k, e in enumerate(data.environments)}
    prepared = prepare_training(DatasetBundle(data.taxonomy, data.environments, splits),
                                small_model_cfg(hidden_dim=64, tau=2.0))
    assert len(prepared.val_inputs) == 36
    assert sum(g.num_edges for g in prepared.val_inputs) == 4024
    sizes = []

    def recording_union(graphs):
        sizes.append(len(graphs))
        return union(graphs)

    union = training_module.graph_union
    monkeypatch.setattr(training_module, "graph_union", recording_union)
    tracemalloc.start()
    try:
        train_prepared(prepared, quick_train_cfg(epochs=1, batch_size=2))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert max(sizes) == 2
    assert peak < 1.5 * 2**20


def test_train_step_memory_does_not_scale_with_batch_times_weights():
    # 256 four-node graphs through an MLP with 128 x 128 hidden weights: one
    # 128 KiB gradient per graph and layer would make 32 MiB per layer; the
    # union's 1,024 x 128 activations and their gradients are 1 MiB each.
    rng = np.random.default_rng(5)
    graphs = [random_embedded_graph(rng, 4, 8, 2) for _ in range(256)]
    rows = [(i % 2, i // 2, 0, 1, 1) for i in range(4)]
    samples = [make_sample(make_graph([make_node(f"o{i}") for i in range(4)], scan=f"s{k}"), rows, (f"s{k}", "t"))
               for k in range(256)]
    model = make_model(d_v=8, hidden=128, seed=3, kind="mlp")
    tracemalloc.start()
    try:
        training_module._train_step(model, graphs, samples, LossConfig(), np.random.default_rng(0))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 12 * 2**20


# Reference kernels for the whole-run test: the forms training used before
# the bincount scatter, the skipped input gradients, the flat buffer and the
# disjoint-union batch.
def full_backward(original):
    def backward(self, cache, dy, input_grad=True):
        return original(self, cache, dy, input_grad=True)

    return backward


def mlp_forward_reference(self, x, spans=None, keep_cache=True):
    """Mlp.forward of one graph: one product per layer over all its rows,
    each pre-activation cached."""
    assert spans is None or len(spans) == 1
    cache = []
    h = np.asarray(x, dtype=np.float64)
    last = len(self.weights) - 1
    for l, (w, b) in enumerate(zip(self.weights, self.biases)):
        z = h @ w.value + b.value
        cache.append((h, z))
        h = relu(z) if l < last else z
    return h, cache


def mlp_backward_reference(self, cache, dy, input_grad=True):
    """Mlp.backward of one graph: one ``+=`` per parameter."""
    da = np.asarray(dy, dtype=np.float64)
    last = len(self.weights) - 1
    for l in range(last, -1, -1):
        h, z = cache[l]
        dz = da * (z > 0) if l < last else da
        self.weights[l].grad += h.T @ dz
        self.biases[l].grad += dz.sum(axis=0)
        da = dz @ self.weights[l].value.T
    return da


def per_graph_step(model, graphs, samples, loss_cfg, rng):
    """A training step graph by graph: forward, focal_loss, then backward
    of the loss divided by the batch size."""
    batch_loss, unmasked = 0.0, 0
    for g, s in zip(graphs, samples, strict=True):
        probs, cache = model.forward(g, mode="train", rng=rng)
        loss, dprobs = focal_loss(probs, s.labels, s.masks, loss_cfg)
        batch_loss += loss / len(graphs)
        unmasked += int(s.masks.sum())
        model.backward(cache, dprobs / len(graphs))
    return batch_loss, unmasked


def per_graph_validation(model, graphs, samples, loss_cfg, chunk):
    """The validation pass graph by graph, whatever the chunk size."""
    probs = [model.forward(g, mode="eval")[0] for g in graphs]
    loss = sum(focal_loss(p, s.labels, s.masks, loss_cfg)[0] for p, s in zip(probs, samples)) / len(samples)
    report = evaluate_probabilities(probs, [s.labels for s in samples], [s.masks for s in samples], [0.5])[0]
    return loss, report.metrics["pooled"].f1


def per_graph_kernels(monkeypatch):
    """Patch in the per-graph step, validation and MLP kernels."""
    monkeypatch.setattr(Mlp, "forward", mlp_forward_reference)
    monkeypatch.setattr(Mlp, "backward", mlp_backward_reference)
    monkeypatch.setattr(training_module, "_train_step", per_graph_step)
    monkeypatch.setattr(training_module, "_validation_pass", per_graph_validation)


def hand_built_batch(d_v, seed):
    """Ten graphs with labels: a repeated graph, one without edges, a one-node
    and a zero-node graph, and an all-masked sample among random ones."""
    rng = np.random.default_rng(seed)
    graphs = [random_embedded_graph(rng, int(n), d_v, 2) for n in (6, 4, 7, 1, 0, 8, 5)]
    graphs.append(EmbeddedGraph(rng.normal(size=(5, d_v)), np.zeros((0, 2), dtype=np.int64),
                                np.zeros((0, 5)), tuple("abcde")))
    graphs += [graphs[0], graphs[2]]  # repeats: the same arrays twice in one union
    samples = []
    for k, g in enumerate(graphs):
        scene = make_graph([make_node(f"o{i}") for i in range(g.num_nodes)], scan=f"s{k}")
        labels = (rng.random((g.num_nodes, 3)) < 0.4).astype(float)
        masks = (rng.random((g.num_nodes, 3)) < 0.7).astype(float)
        masks[:, 2] = 1.0
        if k == 1:
            masks[...] = 0.0  # all masked
        masks[:, :2] *= 1.0 - labels[:, 2:]
        samples.append(Sample(scene, labels, masks, (f"s{k}", "t")))
    return graphs, samples


@pytest.mark.parametrize("dropout", [0.0, 0.3])
@pytest.mark.parametrize(
    "kind, d_v, hidden, scalar_gate",
    [("graph", 5, 8, False), ("graph", 5, 8, True), ("mlp", 5, 8, False), ("graph", 1, 1, True)],
    ids=["deltavsg", "scalar_gate", "mlp_baseline", "scalar_gate_width_1"],
)
def test_union_step_matches_per_graph_step(monkeypatch, kind, d_v, hidden, scalar_gate, dropout):
    # Width 1 makes one-element weights and biases: a batched reduction of
    # their per-graph gradients over 8 or more graphs would be summed
    # pairwise, not in graph order.
    graphs, samples = hand_built_batch(d_v, seed=7)
    model = make_model(d_v=d_v, hidden=hidden, seed=3, dropout=dropout, scalar_gate=scalar_gate, kind=kind)
    jitter_params(model.store, 3)
    cfg = LossConfig(gamma=0.5, class_weights=((3.0, 1.0), (2.0, 1.0), (1.0, 1.5)))

    def one_step(step):
        model.store.zero_grads()
        rng = np.random.default_rng(11)
        result = step(model, graphs, samples, cfg, rng)
        return result, model.store.grads.copy(), rng.random()

    union = one_step(training_module._train_step)
    with monkeypatch.context() as patched:
        per_graph_kernels(patched)
        reference = one_step(per_graph_step)
    assert union[0] == reference[0] and union[2] == reference[2]
    npt.assert_array_equal(union[1].view(np.int64), reference[1].view(np.int64))
    assert reference[1].any()


def hand_built_model(kind, scalar_gate, graphs, samples):
    """A jittered model whose `embed_scene` returns each sample's hand-built graph."""
    model = make_model(d_v=5, seed=3, scalar_gate=scalar_gate, kind=kind)
    jitter_params(model.store, 3)
    by_scan = {s.input.scan_id: g for g, s in zip(graphs, samples)}
    model.embed_scene = lambda g, tax: by_scan[g.scan_id]
    return model


@pytest.mark.parametrize("kind, scalar_gate", [("graph", False), ("graph", True), ("mlp", False)],
                         ids=["deltavsg", "scalar_gate", "mlp_baseline"])
def test_sample_probabilities_match_per_graph_forward(kind, scalar_gate):
    graphs, samples = hand_built_batch(5, seed=7)
    model = hand_built_model(kind, scalar_gate, graphs, samples)
    got = training_module.sample_probabilities(model, samples, None)
    assert len(got) == len(samples) and got[8] is got[0] and got[9] is got[2]  # repeats are forwarded once
    assert not any(p.flags.writeable for p in got)
    for g, p in zip(graphs, got, strict=True):
        alone = model.forward(g, mode="eval")[0]
        assert p.shape == alone.shape
        npt.assert_array_equal(p.view(np.int64), alone.view(np.int64))


def test_non_finite_probability_names_its_scan_inside_a_union():
    graphs, samples = hand_built_batch(5, seed=7)
    graphs[6] = dataclasses.replace(graphs[6], node_features=graphs[6].node_features.copy())
    graphs[6].node_features[2, 0] = np.nan  # the seventh graph of the first union
    model = hand_built_model("graph", False, graphs, samples)
    with pytest.raises(CheckpointError, match=r"^scan 's6': the model's probabilities are not finite$"):
        training_module.sample_probabilities(model, samples, None)


def spy_eval_forwards(monkeypatch, model_class):
    """The graphs of every eval-mode union forward, in order, recorded
    through `graph_union`."""
    unions, forwarded = {}, []

    def recording_union(graphs):
        batch = union(graphs)
        unions[id(batch)] = (batch, list(graphs))
        return batch

    def spying_forward(self, eg, mode="eval", rng=None):
        if mode == "eval":
            forwarded.extend(unions[id(eg)][1])
        return forward(self, eg, mode, rng)

    union, forward = training_module.graph_union, model_class.forward
    monkeypatch.setattr(training_module, "graph_union", recording_union)
    monkeypatch.setattr(model_class, "forward", spying_forward)
    return forwarded


def assert_each_scan_forwarded_once(forwarded, samples):
    scans = {(s.environment_id, s.input.scan_id) for s in samples}
    assert len(scans) < len(samples)  # 3-scan environments: each input scan has two samples
    assert len(forwarded) == len({id(g) for g in forwarded}) == len(scans)


def test_each_distinct_scan_is_forwarded_once_per_eval_pass(monkeypatch):
    bundle = small_bundle()
    model, _ = train(bundle, small_model_cfg(), quick_train_cfg(epochs=1))
    samples = bundle.samples("val")
    forwarded = spy_eval_forwards(monkeypatch, type(model))
    evaluate(model, samples, bundle.taxonomy)
    assert_each_scan_forwarded_once(forwarded, samples)
    forwarded.clear()
    threshold_sweep(model, samples, bundle.taxonomy)
    assert_each_scan_forwarded_once(forwarded, samples)


def test_each_distinct_scan_is_forwarded_once_per_validation(monkeypatch):
    data = prepare_training(small_bundle(), small_model_cfg())
    forwarded = spy_eval_forwards(monkeypatch, model_module.DeltaVsgModel)
    train_prepared(data, quick_train_cfg(epochs=1))
    assert_each_scan_forwarded_once(forwarded, data.val_samples)
    assert {id(g) for g in forwarded} == {id(g) for g in data.val_inputs}


def test_empty_sample_list_is_nothing_to_evaluate():
    model = make_model(d_v=5, seed=3)
    with pytest.raises(EvaluationError, match="nothing to evaluate"):
        evaluate(model, [], None)
    with pytest.raises(EvaluationError, match="nothing to evaluate"):
        threshold_sweep(model, [], None)


def adam_step_loop(self):
    """Adam.step as a loop over parameters, moments kept per name. beta1,
    beta2 and eps are written out: they are the values `train` uses."""
    self.t += 1
    bc1 = 1.0 - 0.9**self.t
    bc2 = 1.0 - 0.999**self.t
    moments = self.__dict__.setdefault("moments", {})
    for p in self.store.parameters():
        m, v = moments.setdefault(p.name, (np.zeros_like(p.value), np.zeros_like(p.value)))
        m *= 0.9
        m += (1.0 - 0.9) * p.grad
        v *= 0.999
        v += (1.0 - 0.999) * p.grad**2
        p.value -= self.lr * (m / bc1) / (np.sqrt(v / bc2) + 1e-8)


def snapshot_per_name(model):
    return {n: model.store[n].value.copy() for n in model.store.names()}


def restore_per_name(model, snap):
    for n, v in snap.items():
        model.store[n].value[...] = v


@pytest.mark.parametrize(
    "model_cfg",
    [small_model_cfg(), small_model_cfg(scalar_gate=True), small_model_cfg(kind="mlp_baseline")],
    ids=["deltavsg", "scalar_gate", "mlp_baseline"],
)
def test_whole_run_matches_reference_kernels(monkeypatch, model_cfg):
    bundle = small_bundle()
    cfg = quick_train_cfg(epochs=3, dropout_rate=0.3, learning_rate=5e-3)

    def run():
        model, report = train(bundle, model_cfg, cfg)
        return checkpoint_to_json(model, bundle.taxonomy), report.to_json()

    shipped = run()
    per_graph_kernels(monkeypatch)
    monkeypatch.setattr(model_module, "_scatter_add", scatter_add_reference)
    monkeypatch.setattr(Mlp, "backward", full_backward(Mlp.backward))
    monkeypatch.setattr(MpConv, "backward", full_backward(MpConv.backward))
    monkeypatch.setattr(Adam, "step", adam_step_loop)
    monkeypatch.setattr(training_module, "_snapshot", snapshot_per_name)
    monkeypatch.setattr(training_module, "_restore", restore_per_name)
    assert run() == shipped
