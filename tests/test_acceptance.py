"""Release gate: the guarantees the toolkit advertises, checked end to end.

Every check pins its tolerance inline. Independent oracles (finite
differences, scalar loops, brute-force search, dense eigendecomposition,
the generator's own change log) stand in for the implementation under
test wherever one exists. The two training-heavy checks share a
module-scoped world so the whole gate stays within a few minutes.
"""

import itertools
import json
import os
import time

import numpy as np
import numpy.testing as npt
import pytest

from vsg import (
    ClassPropensity,
    DatasetBundle,
    Episode,
    GeneratorConfig,
    LabelConfig,
    LossConfig,
    ModelConfig,
    OracleScorer,
    TrainConfig,
    augment_pairs,
    compute_labels,
    default_taxonomy,
    evaluate,
    fit_pca,
    focal_loss,
    generate_dataset,
    generate_environment,
    held_karp,
    heuristic_tsp,
    ingest_3rscan_layout,
    label_statistics,
    labels_from_log,
    load_checkpoint,
    make_episodes,
    route_length,
    run_coverage,
    run_vsg_planner,
    save_checkpoint,
    scene_graph_from_dict,
    scene_graph_to_json,
    train,
    write_dataset,
)
from vsg.planner import changed_object_ids

from conftest import build_tiny_tax, make_graph, make_node, random_embedded_graph
from gradcheck import max_relative_error, numerical_gradient
from test_model import jitter_params, make_layer, make_model, mp_conv_oracle

# Change rates that depend strongly on the object's class and, for the
# movable classes, on whether it stands within support_radius of a table,
# shelf or cabinet. That relational signal reaches the message-passing
# model through the standing_on edges but is invisible to a node-only
# encoder, which is exactly what the baseline comparison below measures.
HOT = {
    "cup": ClassPropensity(move_near=0.97, move_far=0.02, vanish=0.04),
    "book": ClassPropensity(move_near=0.95, move_far=0.02, vanish=0.03),
    "laptop": ClassPropensity(move_near=0.95, move_far=0.03, toggle=0.06, vanish=0.03),
    "chair": ClassPropensity(move_near=0.90, move_far=0.05),
    "box": ClassPropensity(move_near=0.92, move_far=0.03, toggle=0.05, vanish=0.03),
    "door": ClassPropensity(toggle=0.95),
    "lamp": ClassPropensity(toggle=0.92),
    "cabinet": ClassPropensity(toggle=0.05),
    "plant": ClassPropensity(move_near=0.03, move_far=0.01, vanish=0.90),
}

# Episode world for the planner benchmark: only the classes the trained
# model ranks highest actually change, so prioritizing by predicted
# probability pays off while blind coverage wastes distance on the rest.
SPARSE = {
    "cup": ClassPropensity(move_near=0.92, move_far=0.02, vanish=0.03),
    "book": ClassPropensity(move_near=0.88, move_far=0.02, vanish=0.02),
    "laptop": ClassPropensity(move_near=0.90, move_far=0.02, toggle=0.04, vanish=0.02),
    "chair": ClassPropensity(move_near=0.04, move_far=0.02),
    "box": ClassPropensity(move_near=0.04, move_far=0.02, toggle=0.03, vanish=0.02),
    "door": ClassPropensity(toggle=0.08),
    "lamp": ClassPropensity(toggle=0.05),
    "cabinet": ClassPropensity(toggle=0.03),
    "plant": ClassPropensity(move_near=0.02, move_far=0.01, vanish=0.85),
}


@pytest.fixture(scope="module")
def benchmark_world():
    """Generated world plus a trained model and a node-only baseline.

    Uniform class weights keep the predicted probabilities calibrated, so
    thresholding at 0.5 approximates per-element Bayes decisions and the
    accuracy comparison is meaningful. The sparse tau keeps message sums
    from drowning the per-node signal in near-complete graphs.
    """
    cfg = GeneratorConfig(
        num_environments=100,
        scans_per_environment=3,
        objects_min=24,
        objects_max=30,
        support_radius=1.8,
        seed=424213,
        propensity_overrides=HOT,
    )
    t0 = time.monotonic()
    bundle = generate_dataset(cfg)
    train_cfg = TrainConfig(
        epochs=80, batch_size=8, learning_rate=1.5e-3,
        dropout_rate=0.1, seed=0, patience=None,
    )
    models = {}
    for kind in ("deltavsg", "mlp_baseline"):
        model_cfg = ModelConfig(kind=kind, d_v=26, hidden_dim=48, tau=2.0)
        models[kind], _ = train(bundle, model_cfg, train_cfg, LossConfig())
    return {
        "bundle": bundle,
        "gnn": models["deltavsg"],
        "mlp": models["mlp_baseline"],
        "build_seconds": time.monotonic() - t0,
    }


def _gradient_check_setup(seed):
    """Model, inputs and loss config for one gradient check.

    Redraws (deterministically) until every predicted probability is well
    inside (0, 1): where the sigmoid saturates, the float64 rounding of
    1 - p quantizes log(1 - p) so coarsely that central differences can no
    longer resolve the true slope, and the comparison stops measuring the
    backward pass. The interior restriction keeps finite differences valid
    without changing which code paths run.
    """
    for attempt in range(10):
        base = seed + 1000 * attempt
        rng = np.random.default_rng(base)
        kind = "mlp" if seed % 5 == 4 else "graph"
        dropout = 0.2 if seed % 3 == 0 else 0.0
        model = make_model(
            seed=base, dropout=dropout, scalar_gate=bool(seed % 2), kind=kind
        )
        # Push parameters off zero-bias init so no ReLU sits on its kink.
        jitter_params(model.store, base)
        n = int(rng.integers(3, 7))
        eg = random_embedded_graph(rng, n, 5, 2)
        labels = (rng.uniform(size=(n, 3)) < 0.5).astype(np.float64)
        masks = (rng.uniform(size=(n, 3)) < 0.8).astype(np.float64)
        masks[0, 0] = 1.0
        probs, _ = model.forward(eg, mode="train", rng=np.random.default_rng(base))
        if 1e-3 < probs.min() and probs.max() < 1 - 1e-3:
            loss_cfg = LossConfig(gamma=(0.0, 0.5, 2.0)[seed % 3])
            return base, model, eg, labels, masks, loss_cfg
    raise AssertionError(f"no interior configuration found for seed {seed}")


def test_01_analytic_gradients_match_finite_differences():
    """Backpropagated gradients agree with central differences through the
    whole chain (encoder output -> two message-passing layers or the MLP
    stand-in -> sigmoid head -> masked focal loss) to 1e-4 relative error,
    across 20 seeded configurations, in under a minute."""
    t0 = time.monotonic()
    for seed in range(20):
        base, model, eg, labels, masks, loss_cfg = _gradient_check_setup(seed)

        def loss_fn():
            p, _ = model.forward(eg, mode="train", rng=np.random.default_rng(base))
            return focal_loss(p, labels, masks, loss_cfg)[0]

        probs, cache = model.forward(eg, mode="train", rng=np.random.default_rng(base))
        _, dprobs = focal_loss(probs, labels, masks, loss_cfg)
        model.store.zero_grads()
        model.backward(cache, dprobs)
        for p in model.store.parameters():
            num = numerical_gradient(lambda v: loss_fn(), p.value)
            # Floor at 1e-6: sigmoid squashing leaves some gradients near
            # 1e-9, where finite-difference roundoff dominates a relative
            # comparison.
            err = max_relative_error(p.grad, num, floor=1e-6)
            assert err < 1e-4, f"seed {seed} {p.name}: {err:.2e}"
    assert time.monotonic() - t0 < 60.0


def test_02_message_passing_matches_scalar_loop_oracle():
    """The vectorized layer equals a one-node-at-a-time evaluation of its
    update rule on 100 random graphs of up to 8 nodes, to 1e-12."""
    for seed in range(100):
        rng = np.random.default_rng(1000 + seed)
        n = int(rng.integers(1, 9))
        layer, _ = make_layer(seed=seed, scalar_gate=bool(seed % 4 == 3))
        eg = random_embedded_graph(rng, n, 5, 2)
        out, _ = layer.forward(eg.node_features, eg.edge_index, eg.edge_features)
        oracle = mp_conv_oracle(layer, eg.node_features, eg.edge_index, eg.edge_features)
        assert max_relative_error(out, oracle) < 1e-12, f"seed {seed}"


def test_03_focal_loss_reference_values():
    rng = np.random.default_rng(3)
    probs = rng.uniform(0.05, 0.95, size=(40, 3))
    labels = (rng.uniform(size=(40, 3)) < 0.5).astype(np.float64)
    ones = np.ones_like(probs)

    # gamma = 0 with unit weights is plain binary cross-entropy.
    loss, grad = focal_loss(probs, labels, ones, LossConfig(gamma=0.0))
    bce = float(-(labels * np.log(probs) + (1 - labels) * np.log(1 - probs)).mean())
    bce_grad = (-labels / probs + (1 - labels) / (1 - probs)) / probs.size
    assert abs(loss - bce) < 1e-12
    npt.assert_allclose(grad, bce_grad, atol=1e-12)

    # One unmasked element at p = 0.5, gamma = 0.5: sqrt(1/2) * ln 2.
    loss_half, _ = focal_loss(
        np.array([[0.5, 0.25, 0.75]]),
        np.array([[1.0, 0.0, 1.0]]),
        np.array([[1.0, 0.0, 0.0]]),
        LossConfig(gamma=0.5),
    )
    assert abs(loss_half - np.sqrt(0.5) * np.log(2.0)) < 1e-12

    # Masked entries are inert: garbage there changes nothing, their
    # gradient is exactly zero, and an all-masked batch is (0, zeros).
    masks = (rng.uniform(size=(40, 3)) < 0.6).astype(np.float64)
    masks[0, 0] = 1.0
    cfg = LossConfig(gamma=2.0)
    base_loss, base_grad = focal_loss(probs, labels, masks, cfg)
    garbled_probs = np.where(masks > 0, probs, 0.999)
    garbled_labels = np.where(masks > 0, labels, 1.0 - labels)
    garbled_loss, garbled_grad = focal_loss(garbled_probs, garbled_labels, masks, cfg)
    assert garbled_loss == base_loss
    npt.assert_array_equal(garbled_grad, base_grad)
    npt.assert_array_equal(base_grad * (1 - masks), 0.0)
    all_masked_loss, all_masked_grad = focal_loss(probs, labels, np.zeros_like(ones))
    assert all_masked_loss == 0.0
    npt.assert_array_equal(all_masked_grad, 0.0)


def test_04_labels_agree_with_generator_change_log():
    """Labels recomputed from scan pairs equal the generator's own record
    of what it changed, over 100 environments; a scan paired with itself
    is all zeros; a sequence of n scans yields exactly n(n-1) pairs."""
    cfg = GeneratorConfig(
        num_environments=100, scans_per_environment=3,
        objects_min=6, objects_max=10, seed=11,
    )
    tax = default_taxonomy()
    label_cfg = LabelConfig(epsilon=cfg.epsilon)
    for e in range(cfg.num_environments):
        scans, logs = generate_environment(cfg, e, tax)
        for t, log in enumerate(logs):
            computed = compute_labels(scans[t], scans[t + 1], tax, label_cfg)
            oracle = labels_from_log(scans[t], log, tax, cfg.epsilon)
            for a, b in zip(computed, oracle, strict=True):
                assert a.dtype == b.dtype and np.array_equal(a, b), (e, t)
        for g in scans:
            assert not compute_labels(g, g, tax, label_cfg)[0].any()
        assert len(augment_pairs(scans)) == len(scans) * (len(scans) - 1)
    four, _ = generate_environment(GeneratorConfig(scans_per_environment=4, seed=12), 0, tax)
    assert len(augment_pairs(four)) == 4 * 3
    assert augment_pairs(four[:1]) == []


def test_05_pca_matches_dense_eigendecomposition():
    for dim in (5, 12, 32):
        rng = np.random.default_rng(dim)
        data = rng.normal(size=(200, dim)) * np.linspace(1.0, 3.0, dim) + rng.normal(size=dim)
        model = fit_pca(data, dim)
        centered = data - data.mean(axis=0)
        evals, evecs = np.linalg.eigh(centered.T @ centered)
        order = np.argsort(evals)[::-1]
        evals, evecs = evals[order], evecs[:, order]
        npt.assert_allclose(model.explained_variance_ratio, evals / evals.sum(), atol=1e-8)
        for r in range(dim):
            v = evecs[:, r]
            flip = min(
                np.linalg.norm(model.components[r] - v),
                np.linalg.norm(model.components[r] + v),
            )
            assert flip < 1e-8, f"dim {dim} component {r}"

    # Data of true rank 3: three components explain everything, the rest
    # of the projection is zeroed and flagged.
    rng = np.random.default_rng(0)
    low = rng.normal(size=(60, 3)) @ rng.normal(size=(3, 10)) + rng.normal(size=10)
    model = fit_pca(low, 6)
    assert model.rank == 3 < model.d_v
    assert abs(float(model.explained_variance_ratio.sum()) - 1.0) <= 1e-9
    npt.assert_array_equal(model.components[3:], 0.0)


def test_06_overfits_ten_training_samples():
    """The model drives the training loss under 0.05 on ten samples within
    500 epochs, reproducibly, in under two minutes."""
    gen = GeneratorConfig(
        num_environments=3, scans_per_environment=3,
        objects_min=8, objects_max=10, seed=5,
    )
    data = generate_dataset(gen)
    env_ids = list(data.environments)
    # 3 + 2 + 2 scans give 6 + 2 + 2 ordered pairs: exactly ten samples.
    environments = {
        env_ids[0]: data.environments[env_ids[0]],
        env_ids[1]: data.environments[env_ids[1]][:2],
        env_ids[2]: data.environments[env_ids[2]][:2],
    }
    bundle = DatasetBundle(data.taxonomy, environments, {e: "train" for e in environments})
    assert len(bundle.samples("train")) == 10
    model_cfg = ModelConfig(kind="deltavsg", d_v=16, hidden_dim=32, tau=2.0)
    train_cfg = TrainConfig(
        epochs=500, batch_size=4, learning_rate=5e-3,
        dropout_rate=0.0, seed=0, patience=None,
    )
    t0 = time.monotonic()
    _, report = train(bundle, model_cfg, train_cfg)
    _, rerun = train(bundle, model_cfg, train_cfg)
    assert time.monotonic() - t0 < 120.0
    assert min(report.train_loss) < 0.05
    assert not report.diverged
    assert rerun.train_loss == report.train_loss


def test_07_trained_model_beats_majority_and_node_only_baselines(benchmark_world):
    """On held-out environments the message-passing model beats the
    per-type majority vote by 10+ accuracy points (pooled over unmasked
    elements) and the node-only baseline on position F1, within a
    15-minute budget for the whole build."""
    bundle = benchmark_world["bundle"]
    t0 = time.monotonic()
    test_samples = bundle.samples("test")
    stats = label_statistics(test_samples)
    positives = np.asarray(stats.positives, dtype=np.float64)
    totals = np.asarray(stats.unmasked, dtype=np.float64)
    majority = float(np.maximum(positives, totals - positives).sum() / totals.sum())
    gnn = evaluate(benchmark_world["gnn"], test_samples, bundle.taxonomy)
    mlp = evaluate(benchmark_world["mlp"], test_samples, bundle.taxonomy)
    elapsed = benchmark_world["build_seconds"] + time.monotonic() - t0
    assert gnn.metrics["pooled"].accuracy >= majority + 0.10
    assert gnn.metrics["position"].f1 > mlp.metrics["position"].f1
    assert elapsed < 900.0


def test_08_route_solvers_hit_their_quality_bounds():
    # Exact solver vs brute force over every permutation, 20 instances.
    rng = np.random.default_rng(8)
    for trial in range(20):
        n = 2 + trial % 7
        points = rng.uniform(0, 10, size=(n, 3))
        start = rng.uniform(0, 10, size=3)
        exact = route_length(points, start, held_karp(points, start))
        best = min(
            route_length(points, start, list(perm))
            for perm in itertools.permutations(range(n))
        )
        assert exact <= best + 1e-9, trial

    # Heuristic within 5% of optimal on 100 random ten-point instances.
    worst = 0.0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        points = rng.uniform(0, 10, size=(10, 2))
        start = rng.uniform(0, 10, size=2)
        order = heuristic_tsp(points, start)
        assert sorted(order) == list(range(10))
        ratio = route_length(points, start, order) / route_length(
            points, start, held_karp(points, start)
        )
        worst = max(worst, ratio)
    assert worst <= 1.05


def _separable_episode(seed):
    """Episode a perfect predictor must win: a decoy cluster surrounds the
    start while every true change sits far away in one direction."""
    rng = np.random.default_rng(seed)
    n_changes = int(rng.integers(1, 4))
    decoys = [
        make_node(f"d{i:02d}", cls=0, pos=tuple(rng.uniform(-4, 4, size=3)))
        for i in range(10)
    ]
    angle = rng.uniform(0, 2 * np.pi)
    far = np.array([60.0 * np.cos(angle), 60.0 * np.sin(angle), 0.0])
    movers = [
        make_node(f"m{i}", cls=1, pos=tuple(far + rng.uniform(-2, 2, size=3)))
        for i in range(n_changes)
    ]
    before = make_graph(decoys + movers, scan="scan00", t=0)
    after = make_graph(
        decoys
        + [
            make_node(m.id, cls=1, pos=(m.position[0] + 1.0, m.position[1], m.position[2]))
            for m in movers
        ],
        scan="scan01",
        t=1,
    )
    return Episode(
        previous_map=before, realized_scene=after,
        n=n_changes, start_position=(0.0, 0.0, 0.0),
    )


def test_09_planner_beats_coverage_on_concentrated_changes(benchmark_world):
    """Ranking visits by predicted change probability cuts travel by 30%+
    on average and wins 60%+ of 50 episodes against blind coverage when
    the true changes concentrate on the model's high-ranked classes; with
    oracle probabilities it wins every separable episode outright."""
    episode_cfg = GeneratorConfig(
        num_environments=15,
        scans_per_environment=3,
        objects_min=24,
        objects_max=30,
        support_radius=1.8,
        seed=77123,
        propensity_overrides=SPARSE,
    )
    episode_data = generate_dataset(episode_cfg)
    tax = episode_data.taxonomy
    pool = make_episodes(episode_data.environments, [2, 3])
    feasible = [ep for ep in pool if len(changed_object_ids(ep, tax)) >= ep.n]
    assert len(feasible) >= 50
    episodes = feasible[:50]
    model = benchmark_world["gnn"]
    reductions, wins = [], 0
    for ep in episodes:
        coverage = run_coverage(ep, tax)
        planned = run_vsg_planner(ep, model, tax)
        assert not coverage.infeasible and not planned.infeasible
        reductions.append(
            (coverage.distance_traveled - planned.distance_traveled)
            / coverage.distance_traveled
        )
        wins += planned.distance_traveled < coverage.distance_traveled
    assert float(np.mean(reductions)) >= 0.30
    assert wins / len(episodes) >= 0.60

    tiny = build_tiny_tax()
    for seed in range(10):
        ep = _separable_episode(seed)
        coverage = run_coverage(ep, tiny)
        oracle = run_vsg_planner(ep, OracleScorer(ep.realized_scene), tiny)
        assert oracle.changes_found == ep.n and not oracle.infeasible
        assert oracle.distance_traveled < coverage.distance_traveled, seed


def test_10_identical_configs_reproduce_bit_identical_artifacts(tmp_path):
    cfg = GeneratorConfig(
        num_environments=4, scans_per_environment=2,
        objects_min=5, objects_max=7, seed=3,
    )
    first, second = generate_dataset(cfg), generate_dataset(cfg)
    write_dataset(tmp_path / "a", first.taxonomy, first.environments, first.splits)
    write_dataset(tmp_path / "b", second.taxonomy, second.environments, second.splits)
    files_a = sorted(p.relative_to(tmp_path / "a") for p in (tmp_path / "a").rglob("*.json"))
    files_b = sorted(p.relative_to(tmp_path / "b") for p in (tmp_path / "b").rglob("*.json"))
    assert files_a and files_a == files_b
    for rel in files_a:
        assert (tmp_path / "a" / rel).read_bytes() == (tmp_path / "b" / rel).read_bytes(), rel

    model_cfg = ModelConfig(kind="deltavsg", d_v=8, hidden_dim=8, tau=2.0)
    train_cfg = TrainConfig(epochs=3, batch_size=4, seed=0, patience=None)
    model_one, report_one = train(first, model_cfg, train_cfg)
    model_two, report_two = train(first, model_cfg, train_cfg)
    assert report_one.to_json() == report_two.to_json()
    save_checkpoint(model_one, first.taxonomy, tmp_path / "one.json")
    save_checkpoint(model_two, first.taxonomy, tmp_path / "two.json")
    assert (tmp_path / "one.json").read_bytes() == (tmp_path / "two.json").read_bytes()

    # Round trips through load/save and dict/JSON are byte-exact.
    reloaded, tax = load_checkpoint(tmp_path / "one.json")
    save_checkpoint(reloaded, tax, tmp_path / "again.json")
    assert (tmp_path / "again.json").read_bytes() == (tmp_path / "one.json").read_bytes()
    scene = first.environments[next(iter(first.environments))][0]
    text = scene_graph_to_json(scene, first.taxonomy)
    rebuilt = scene_graph_from_dict(json.loads(text), first.taxonomy)
    assert scene_graph_to_json(rebuilt, first.taxonomy) == text


@pytest.mark.skipif(
    not os.environ.get("VSG_3RSCAN_ROOT"),
    reason="set VSG_3RSCAN_ROOT to a directory of real scan exports",
)
def test_11_real_scan_ingest_statistics():
    """Against real scan exports the adapter yields about 3650 samples
    with positive rates near 21/17/13 percent for position, state and
    instance changes."""
    samples = ingest_3rscan_layout(os.environ["VSG_3RSCAN_ROOT"])[0].samples()
    assert abs(len(samples) - 3650) <= 0.05 * 3650
    stats = label_statistics(samples)
    rates = np.asarray(stats.positives, dtype=np.float64) / np.asarray(
        stats.unmasked, dtype=np.float64
    )
    for rate, expected in zip(rates, (0.21, 0.17, 0.13)):
        assert abs(rate - expected) <= 0.03
