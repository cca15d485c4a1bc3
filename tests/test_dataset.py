"""Label computation, pair augmentation, importance sampling, the synthetic
changing-scene generator with its oracle log, and dataset IO / ingestion."""

import ast
import hashlib
import json
import logging
import math
from dataclasses import asdict
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vsg import (
    ClassPropensity,
    ConfigError,
    GeneratorConfig,
    GeneratorError,
    LabelConfig,
    ModelConfig,
    PairingError,
    ParseError,
    SemanticEdge,
    TrainConfig,
    augment_pairs,
    compute_labels,
    default_taxonomy,
    generate_dataset,
    generate_environment,
    generator_config_from_dict,
    importance_sample,
    ingest_3rscan_layout,
    label_statistics,
    labels_from_log,
    load_dataset,
    make_samples,
    scene_graph_to_json,
    train,
    write_dataset,
)

from vsg.core_graph import distance
from vsg.dataset import LabelStats, _CLASS_SPECS, _semantic_edges

from conftest import build_tiny_tax, label_rows, make_graph, make_node, make_sample, tiny_graphs

SRC = Path(__file__).resolve().parents[1] / "src" / "vsg"


def label_of(y_p=0, y_s=0, y_i=0, m_p=1, m_s=1):
    return (y_p, y_s, y_i, m_p, m_s)


VANISHED = label_of(y_i=1, m_p=0, m_s=0)


def labels_by_id(cur, fut, tax, cfg=LabelConfig()):
    return label_rows(cur, compute_labels(cur, fut, tax, cfg))


def sample_rows(s):
    return label_rows(s.input, (s.labels, s.masks))


class TestComputeLabels:
    def test_unchanged_scene_is_all_negative(self, tiny_tax):
        nodes = [make_node("a", cls=1, attrs=(1,)), make_node("b", cls=0, attrs=(0,))]
        cur = make_graph(nodes, scan="s0")
        fut = make_graph(nodes, scan="s1", t=1)
        labels = labels_by_id(cur, fut, tiny_tax)
        assert labels["a"] == label_of()
        # "b" carries no state-kind attribute, so its state entry is masked.
        assert labels["b"] == label_of(m_s=0)

    def test_position_threshold(self, tiny_tax):
        cur = make_graph([make_node("a", attrs=(1,), pos=(0, 0, 0))], scan="s0")
        for dist, expected in [(0.05, 0), (0.0999, 0), (0.1, 1), (0.2, 1)]:
            fut = make_graph([make_node("a", attrs=(1,), pos=(dist, 0, 0))], scan="s1", t=1)
            labels = labels_by_id(cur, fut, tiny_tax)
            assert labels["a"][0] == expected, dist

    def test_custom_epsilon(self, tiny_tax):
        cur = make_graph([make_node("a", attrs=(1,))], scan="s0")
        fut = make_graph([make_node("a", attrs=(1,), pos=(0.2, 0, 0))], scan="s1", t=1)
        cfg = LabelConfig(epsilon=0.5)
        assert labels_by_id(cur, fut, tiny_tax, cfg)["a"][0] == 0

    @pytest.mark.parametrize("epsilon", [math.inf, math.nan, 0.0, -0.5])
    def test_epsilon_must_be_finite_and_positive(self, epsilon):
        # Else an infinite epsilon labels no object as moved.
        with pytest.raises(ConfigError, match="epsilon must be finite and > 0"):
            LabelConfig(epsilon=epsilon)

    def test_state_toggle(self, tiny_tax):
        cur = make_graph([make_node("a", attrs=(1,))], scan="s0")
        fut = make_graph([make_node("a", attrs=(2,))], scan="s1", t=1)
        labels = labels_by_id(cur, fut, tiny_tax)
        assert labels["a"] == label_of(y_s=1)

    def test_static_attribute_change_is_not_state(self, tiny_tax):
        # Gaining a static or affordance attribute never flips the state label.
        cur = make_graph([make_node("a", attrs=(1,))], scan="s0")
        fut = make_graph([make_node("a", attrs=(0, 1, 3))], scan="s1", t=1)
        assert labels_by_id(cur, fut, tiny_tax)["a"] == label_of()

    def test_vanished_object(self, tiny_tax):
        cur = make_graph([make_node("a", attrs=(1,)), make_node("b")], scan="s0")
        fut = make_graph([make_node("b")], scan="s1", t=1)
        labels = labels_by_id(cur, fut, tiny_tax)
        assert labels["a"] == VANISHED

    def test_vanished_also_moved_is_still_just_vanished(self, tiny_tax):
        cur = make_graph([make_node("a", attrs=(1,))], scan="s0")
        fut = make_graph([make_node("z")], scan="s1", t=1)
        assert labels_by_id(cur, fut, tiny_tax)["a"] == VANISHED

    def test_appearing_object_yields_no_row(self, tiny_tax):
        cur = make_graph([make_node("a", attrs=(1,))], scan="s0")
        fut = make_graph([make_node("a", attrs=(1,)), make_node("new")], scan="s1", t=1)
        y, m = compute_labels(cur, fut, tiny_tax)
        assert y.shape == m.shape == (1, 3)
        assert labels_by_id(cur, fut, tiny_tax) == {"a": label_of()}

    def test_no_state_attributes_masks_state(self, tiny_tax):
        cur = make_graph([make_node("a", attrs=(0, 3))], scan="s0")
        fut = make_graph([make_node("a", attrs=(0, 3))], scan="s1", t=1)
        lab = labels_by_id(cur, fut, tiny_tax)["a"]
        assert lab[4] == 0 and lab[1] == 0

    def test_environment_mismatch_rejected(self, tiny_tax):
        a = make_graph([make_node("a", attrs=(1,))], env="envA", scan="s0")
        b = make_graph([make_node("a", attrs=(1,))], env="envB", scan="s1", t=1)
        with pytest.raises(PairingError):
            compute_labels(a, b, tiny_tax)

    def test_taxonomy_mismatch_rejected(self, tiny_tax):
        a = make_graph([make_node("a", attrs=(1,))], scan="s0")
        b = make_graph([make_node("a", attrs=(1,))], scan="s1", t=1, tax_name="other")
        with pytest.raises(PairingError):
            compute_labels(a, b, tiny_tax)

    @settings(max_examples=50, deadline=None)
    @given(g=tiny_graphs())
    def test_self_pair_is_all_negative(self, g):
        tax = build_tiny_tax()
        for lab in labels_by_id(g, g, tax).values():
            assert lab[:3] == (0, 0, 0)
            assert lab[3] == 1


class TestAugmentPairs:
    def scans(self, n):
        return [
            make_graph([make_node("a", attrs=(1,))], scan=f"s{t}", t=t) for t in range(n)
        ]

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_ordered_pair_count(self, n):
        pairs = augment_pairs(self.scans(n))
        assert len(pairs) == n * (n - 1)
        assert len({(a.scan_id, b.scan_id) for a, b in pairs}) == n * (n - 1)
        assert all(a.scan_id != b.scan_id for a, b in pairs)

    def test_both_directions_present(self):
        pairs = augment_pairs(self.scans(2))
        assert {(a.scan_id, b.scan_id) for a, b in pairs} == {("s0", "s1"), ("s1", "s0")}

    def test_single_scan_warns_and_returns_empty(self, caplog):
        with caplog.at_level(logging.WARNING):
            assert augment_pairs(self.scans(1)) == []
        assert "need 2+" in caplog.text

    def test_make_samples_counts_and_pair_ids(self, tiny_tax):
        samples = make_samples(self.scans(3), tiny_tax)
        assert len(samples) == 6
        assert all(s.pair_id[0] == s.input.scan_id for s in samples)

    def test_sample_label_coverage_enforced(self, tiny_tax):
        g = make_graph([make_node("a", attrs=(1,))], scan="s0")
        with pytest.raises(ConfigError):
            make_sample(g, [label_of(), label_of()])

    @pytest.mark.parametrize("row", [label_of(y_i=1, m_s=0), label_of(y_i=1, m_p=0)])
    def test_vanished_row_must_have_masks_zeroed(self, tiny_tax, row):
        g = make_graph([make_node("a", attrs=(1,))], scan="s0")
        with pytest.raises(ConfigError, match="vanished"):
            make_sample(g, [row])


class TestLabelMatrices:
    def test_rows_follow_node_order(self, tiny_tax):
        g = make_graph(
            [make_node("a", attrs=(1,)), make_node("b", attrs=(0,)), make_node("c", attrs=(2,))],
            scan="s0",
        )
        fut = make_graph(
            [make_node("c", attrs=(1,)), make_node("a", attrs=(1,), pos=(1, 0, 0))], scan="s1", t=1
        )
        y, m = compute_labels(g, fut, tiny_tax)
        assert y.dtype == m.dtype == np.float64
        npt.assert_array_equal(y, [[1, 0, 0], [0, 0, 1], [0, 1, 0]])
        npt.assert_array_equal(m, [[1, 1, 1], [0, 0, 1], [1, 1, 1]])

    def test_instance_column_never_masked(self, tiny_tax):
        g = make_graph([make_node("a", attrs=(0,))], scan="s0")
        _, m = compute_labels(g, make_graph([], scan="s1", t=1), tiny_tax)
        npt.assert_array_equal(m, [[0, 0, 1]])

    def test_label_statistics(self, tiny_tax):
        g = make_graph([make_node("a", attrs=(1,)), make_node("b")], scan="s0")
        stats = label_statistics([make_sample(g, [label_of(y_p=1), VANISHED])])
        assert stats.unmasked == (1, 1, 2)
        assert stats.positives == (1, 0, 1)
        assert stats.positive_rates == (1.0, 0.0, 0.5)


class TestImportanceSampling:
    def one_node_sample(self, tiny_tax, label, oid="a"):
        g = make_graph([make_node(oid, attrs=(1,))], scan="s0")
        return make_sample(g, [label])

    def test_balanced_labels_give_uniform_weights(self, tiny_tax):
        # Global positive rate is exactly 1/2 for every variability type, so
        # every element weighs the same even though the samples differ in
        # size and masking.
        g1 = make_graph(
            [make_node("a", attrs=(1,)), make_node("b", attrs=(1,)), make_node("c", attrs=(1,))],
            scan="s0",
        )
        s1 = make_sample(g1, [label_of(y_p=1, y_s=1), VANISHED, VANISHED])
        s2 = self.one_node_sample(tiny_tax, label_of(), oid="d")
        weights = importance_sample([s1, s2])
        npt.assert_allclose(weights, [0.5, 0.5], atol=1e-15)

    def test_weights_sum_to_one_and_are_positive(self, tiny_tax):
        rng = np.random.default_rng(0)
        samples = []
        for k in range(20):
            y = rng.integers(0, 2, size=3)
            lab = label_of(int(y[0]), int(y[1]))
            samples.append(self.one_node_sample(tiny_tax, lab, oid=f"o{k}"))
        weights = importance_sample(samples)
        assert abs(weights.sum() - 1.0) < 1e-12
        assert np.all(weights > 0)

    def test_rare_instance_positive_upweighted(self, tiny_tax):
        # One vanished object among eight gives a 1/8 instance-positive rate;
        # three of the seven others moved (position rate 3/7), none toggled.
        # The vanished sample's only unmasked element is that instance
        # positive, so it carries raw weight 1/(1/8).
        rare = self.one_node_sample(tiny_tax, VANISHED, oid="v")
        moved = [self.one_node_sample(tiny_tax, label_of(y_p=1), oid=f"m{k}") for k in range(3)]
        still = [self.one_node_sample(tiny_tax, label_of(), oid=f"s{k}") for k in range(4)]
        samples = [rare, *moved, *still]
        assert label_statistics(samples).positive_rates == (3 / 7, 0.0, 1 / 8)
        weights = importance_sample(samples)
        raw_rare = 1.0 / (1 / 8)
        raw_moved = (1.0 / (3 / 7) + 1.0 + 1.0 / (7 / 8)) / 3.0
        raw_still = (1.0 / (4 / 7) + 1.0 + 1.0 / (7 / 8)) / 3.0
        raw = np.array([raw_rare] + [raw_moved] * 3 + [raw_still] * 4)
        npt.assert_allclose(weights, raw / raw.sum(), atol=1e-12)
        assert weights[0] > weights[1] > weights[4]

    def test_all_negative_warns_and_is_uniform(self, tiny_tax, caplog):
        samples = [
            self.one_node_sample(tiny_tax, label_of(), oid=f"o{k}") for k in range(3)
        ]
        with caplog.at_level(logging.WARNING):
            weights = importance_sample(samples)
        assert "no positive labels" in caplog.text
        npt.assert_allclose(weights, np.full(3, 1 / 3), atol=1e-15)

    def test_empty_rejected(self):
        with pytest.raises(ConfigError):
            importance_sample([])


def zero_propensities():
    return {cls: ClassPropensity() for cls in default_taxonomy().classes}


def quiet_config(**kwargs):
    defaults = dict(
        num_environments=2,
        scans_per_environment=3,
        objects_min=8,
        objects_max=10,
        appear_prob=0.0,
        jitter_fraction=0.0,
        propensity_overrides=zero_propensities(),
        seed=11,
    )
    defaults.update(kwargs)
    return GeneratorConfig(**defaults)


class TestGenerator:
    def test_deterministic_in_seed_and_index(self):
        cfg = GeneratorConfig(num_environments=1, scans_per_environment=3, seed=5)
        tax = default_taxonomy()
        scans1, logs1 = generate_environment(cfg, 0, tax)
        scans2, logs2 = generate_environment(cfg, 0, tax)
        assert [scene_graph_to_json(a, tax) for a in scans1] == [
            scene_graph_to_json(b, tax) for b in scans2
        ]
        assert logs1 == logs2
        other, _ = generate_environment(cfg, 1, tax)
        assert scene_graph_to_json(other[0], tax) != scene_graph_to_json(scans1[0], tax)

    def test_frozen_world_never_changes(self):
        cfg = quiet_config()
        scans, logs = generate_environment(cfg, 0)
        for earlier, later in zip(scans, scans[1:]):
            assert earlier.nodes == later.nodes
        for log in logs:
            assert not log.moved and not log.toggled
            assert not log.vanished and not log.appeared
        tax = default_taxonomy()
        for lab in labels_by_id(scans[0], scans[-1], tax).values():
            assert lab[:3] == (0, 0, 0)

    def test_forced_cup_moves(self):
        overrides = zero_propensities()
        overrides["cup"] = ClassPropensity(move_near=1.0, move_far=1.0)
        cfg = quiet_config(propensity_overrides=overrides, objects_min=14, objects_max=16, seed=4)
        tax = default_taxonomy()
        scans, _ = generate_environment(cfg, 0, tax)
        cup = tax.class_index("cup")
        cups_seen = 0
        labels = labels_by_id(scans[0], scans[1], tax)
        for node in scans[0].nodes:
            if node.class_index == cup:
                cups_seen += 1
                assert labels[node.id][0] == 1
            else:
                assert labels[node.id][0] == 0
        assert cups_seen > 0

    def test_forced_cup_vanishes(self):
        overrides = zero_propensities()
        overrides["cup"] = ClassPropensity(vanish=1.0)
        cfg = quiet_config(propensity_overrides=overrides, objects_min=14, objects_max=16, seed=4)
        tax = default_taxonomy()
        scans, logs = generate_environment(cfg, 0, tax)
        cup = tax.class_index("cup")
        cup_ids = {n.id for n in scans[0].nodes if n.class_index == cup}
        assert cup_ids
        assert logs[0].vanished == frozenset(cup_ids)
        labels = labels_by_id(scans[0], scans[1], tax)
        for oid in cup_ids:
            assert labels[oid] == VANISHED

    def test_forced_door_toggles(self):
        overrides = zero_propensities()
        overrides["door"] = ClassPropensity(toggle=1.0)
        cfg = quiet_config(propensity_overrides=overrides)
        tax = default_taxonomy()
        scans, logs = generate_environment(cfg, 0, tax)
        doors = {n.id for n in scans[0].nodes if n.class_index == tax.class_index("door")}
        assert doors
        assert logs[0].toggled == frozenset(doors)
        labels = labels_by_id(scans[0], scans[1], tax)
        for oid in doors:
            assert labels[oid][1] == 1
        # Toggling twice returns to the original attribute set.
        assert scans[0].node(min(doors)).attribute_indices == scans[2].node(
            min(doors)
        ).attribute_indices

    def test_appearing_objects(self):
        cfg = quiet_config(appear_prob=1.0)
        scans, logs = generate_environment(cfg, 0)
        assert logs[0].appeared
        current_ids = set(scans[0].node_ids)
        next_ids = set(scans[1].node_ids)
        assert logs[0].appeared <= next_ids
        assert not (logs[0].appeared & current_ids)
        labels = labels_by_id(scans[0], scans[1], default_taxonomy())
        assert not (set(labels) & logs[0].appeared)

    def test_moves_clear_threshold_and_jitter_stays_below(self):
        cfg = GeneratorConfig(num_environments=1, scans_per_environment=4, seed=2)
        tax = default_taxonomy()
        scans, logs = generate_environment(cfg, 0, tax)
        for t, log in enumerate(logs):
            cur, fut = scans[t], scans[t + 1]
            for norm in log.moved.values():
                assert norm >= 2 * cfg.epsilon
            for oid in cur.node_ids:
                if oid in log.vanished:
                    assert not fut.has_node(oid)
                    continue
                disp = float(
                    np.linalg.norm(
                        np.array(fut.node(oid).position) - np.array(cur.node(oid).position)
                    )
                )
                if oid in log.moved:
                    assert abs(disp - log.moved[oid]) < 1e-12
                else:
                    assert disp < cfg.jitter_fraction * cfg.epsilon

    def test_labels_match_oracle_log(self):
        cfg = GeneratorConfig(
            num_environments=4, scans_per_environment=4, appear_prob=0.3, seed=7
        )
        tax = default_taxonomy()
        label_cfg = LabelConfig(epsilon=cfg.epsilon)
        for e in range(cfg.num_environments):
            scans, logs = generate_environment(cfg, e, tax)
            for t, log in enumerate(logs):
                computed = compute_labels(scans[t], scans[t + 1], tax, label_cfg)
                oracle = labels_from_log(scans[t], log, tax, cfg.epsilon)
                assert label_rows(scans[t], computed) == label_rows(scans[t], oracle), (e, t)
                for a, b in zip(computed, oracle):
                    npt.assert_array_equal(a, b, err_msg=str((e, t)))

    def test_infeasible_placement_raises(self):
        with pytest.raises(GeneratorError):
            generate_environment(
                GeneratorConfig(
                    num_environments=1,
                    scans_per_environment=2,
                    room_size=(1.0, 1.0, 3.0),
                    objects_min=40,
                    objects_max=40,
                ),
                0,
            )

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(move_distance=(0.15, 0.9)),  # below 2 * epsilon
            dict(jitter_fraction=1.0),
            dict(split_fractions=(0.5, 0.5, 0.5)),
            dict(scans_per_environment=1),
            dict(objects_min=2),
            dict(seed=-1),
            dict(room_size=(0.5, 0.5, 3.0)),  # inside the two 0.3 m wall margins
            dict(room_size=(-8.0, 8.0, 3.0)),
            dict(support_radius=-1.0),
            dict(support_radius=float("nan")),
            dict(support_radius=float("inf")),
            dict(support_radius=2e9),  # offsets around a support reach +-0.6 r
            dict(min_spacing=float("nan")),
            dict(min_spacing=-1.0),
            dict(next_to_radius=float("nan")),
            dict(next_to_radius=-3.0),
            dict(move_distance=(0.9, 0.25)),
            dict(move_distance=(0.25, float("inf"))),  # rng.uniform overflows
            dict(move_distance=(0.25, 2e9)),
            dict(move_distance=(float("nan"), 0.9)),
            dict(epsilon=-1.0),
            dict(appear_prob=1.5),
            dict(appear_prob=-0.1),
            dict(room_size=(8.0, float("nan"), 3.0)),  # min() and max() would skip the NaN
            dict(room_size=(float("nan"), 8.0, 3.0)),
            dict(room_size=(8.0, 8.0)),
            dict(split_fractions=(float("nan"), 0.5, 0.5)),
            dict(split_fractions=(0.5, float("nan"), 0.5)),
            dict(split_fractions=(1.0,)),
        ],
    )
    def test_config_validation(self, kwargs):
        with pytest.raises(ConfigError):
            GeneratorConfig(**kwargs)

    def test_override_of_an_unknown_class_is_refused_by_name(self):
        overrides = {"cup": ClassPropensity(vanish=0.5), "cupp": ClassPropensity(vanish=0.5)}
        with pytest.raises(ConfigError, match="unknown class 'cupp'"):
            GeneratorConfig(propensity_overrides=overrides)
        for cls in default_taxonomy().classes:
            GeneratorConfig(propensity_overrides={cls: ClassPropensity()})

    def test_config_dict_round_trip(self):
        overrides = {"cup": ClassPropensity(move_near=0.9, vanish=0.2)}
        cfg = GeneratorConfig(seed=3, propensity_overrides=overrides)
        assert generator_config_from_dict(asdict(cfg)) == cfg

    def test_dataset_split_assignment(self):
        cfg = GeneratorConfig(
            num_environments=10, scans_per_environment=2, objects_min=6, objects_max=8, seed=1
        )
        ds = generate_dataset(cfg)
        assert len(ds.environments) == 10
        counts = {"train": 0, "val": 0, "test": 0}
        for split in ds.splits.values():
            counts[split] += 1
        assert counts == {"train": 7, "val": 2, "test": 1}
        assert ds.splits == generate_dataset(cfg).splits

    @pytest.mark.parametrize("num_environments, fractions, expected", [
        (1, (0.7, 0.15, 0.15), {"env000": "train"}),
        # 0.1 * 4 rounds to no train environment and 0.3 * 4 to one val
        # environment; that one, the first in shuffled order, goes to train.
        (4, (0.1, 0.3, 0.6), {"env000": "test", "env001": "train", "env002": "test", "env003": "test"}),
    ], ids=["one-environment", "train-fraction-rounds-to-zero"])
    def test_tiny_dataset_still_gets_a_train_environment(self, num_environments, fractions, expected):
        cfg = GeneratorConfig(
            num_environments=num_environments, scans_per_environment=2, objects_min=4, objects_max=5,
            split_fractions=fractions,
        )
        assert generate_dataset(cfg).splits == expected


# Change propensities in the style of the acceptance gate's training (HOT)
# and planning (SPARSE) worlds; pinned here, so later edits of the gate
# leave the digests below alone.
HOT_STYLE = {
    "cup": ClassPropensity(move_near=0.97, move_far=0.02, vanish=0.04),
    "laptop": ClassPropensity(move_near=0.95, move_far=0.03, toggle=0.06, vanish=0.03),
    "chair": ClassPropensity(move_near=0.90, move_far=0.05),
    "door": ClassPropensity(toggle=0.95),
    "lamp": ClassPropensity(toggle=0.92),
    "plant": ClassPropensity(move_near=0.03, move_far=0.01, vanish=0.90),
}
SPARSE_STYLE = {
    "book": ClassPropensity(move_near=0.88, move_far=0.02, vanish=0.02),
    "box": ClassPropensity(move_near=0.04, move_far=0.02, toggle=0.03, vanish=0.02),
    "cabinet": ClassPropensity(toggle=0.03),
    "plant": ClassPropensity(move_near=0.02, move_far=0.01, vanish=0.85),
}

# Worlds harder than the golden one, each with the sha256 of its scans, logs
# and splits. The generator's random draws are its contract, so a change
# made for speed keeps every digest.
PINNED_WORLDS = {
    "stress": (
        dict(num_environments=4, scans_per_environment=5, objects_min=4, objects_max=40,
             appear_prob=0.9, jitter_fraction=0.0, seed=5),
        "f5c8174b7b71bd5cc480dd8d35f1ba18bee64b2a0458b28c0071b086dd20c6fa",
    ),
    "big-room": (
        dict(num_environments=2, room_size=(16.0, 16.0, 3.0), objects_min=150, objects_max=200, seed=3),
        "f63834c2fdc428ec8e499895647dba530ba73c3efb3f12f00bf1125c28c3d489",
    ),
    "hot": (
        dict(num_environments=6, scans_per_environment=4, objects_min=24, objects_max=30,
             support_radius=1.8, seed=424213, propensity_overrides=HOT_STYLE),
        "344aad1e114d05b478bd79f77ffcddd660d91c6eef4945a84ea81d6cc85cc4a4",
    ),
    "sparse": (
        dict(num_environments=30, scans_per_environment=2, objects_min=11, objects_max=11,
             support_radius=1.8, seed=99, propensity_overrides=SPARSE_STYLE),
        "3b5565d17c995e9f2a857c5a814f4041fc50122179006ed2e99f6b04b1f2daf4",
    ),
    "crowded-int-room": (
        dict(num_environments=4, room_size=(4, 5, 3), objects_min=20, objects_max=30, min_spacing=0.6,
             jitter_fraction=0.9, appear_prob=0.5, seed=8, propensity_overrides=HOT_STYLE),
        "df97023f2d097d6aba3d4ae3917310cc0f34e5250ca7d32391f574cac04897a8",
    ),
}


def dataset_digest(ds) -> str:
    """sha256 of a generated dataset: each scan's JSON, each log with its
    sets sorted (frozenset order follows PYTHONHASHSEED) and its norms in
    hex, then the splits."""
    h = hashlib.sha256()
    for env, scans in ds.environments.items():
        for scan in scans:
            h.update(scene_graph_to_json(scan, ds.taxonomy).encode())
        for log in ds.logs[env]:
            h.update(repr((
                sorted((oid, norm.hex()) for oid, norm in log.moved.items()),
                sorted(log.toggled), sorted(log.vanished), sorted(log.appeared),
            )).encode())
    h.update(json.dumps(ds.splits).encode())
    return h.hexdigest()


@pytest.mark.parametrize("name", PINNED_WORLDS)
def test_pinned_worlds_keep_their_digests(name):
    kwargs, digest = PINNED_WORLDS[name]
    assert dataset_digest(generate_dataset(GeneratorConfig(**kwargs))) == digest


def norm_loop(v) -> float:
    """Square root of the plain sum of squares, added left to right in Python."""
    return math.sqrt(sum(x * x for x in np.asarray(v).tolist()))


def distances_loop(a, b):
    """Reference for `distance`: one `norm_loop` per pair."""
    out = np.empty((len(a), len(b)))
    for i in range(len(a)):
        for j in range(len(b)):
            out[i, j] = norm_loop(a[i] - b[j])
    return out


def semantic_edges_loop(nodes, tax, specs, cfg):
    """The generator's edges as a Python loop per pair."""
    standing_on = tax.relationship_index("standing_on")
    next_to = tax.relationship_index("next_to")
    attached_to = tax.relationship_index("attached_to")
    by_class = {n.id: tax.classes[n.class_index] for n in nodes}
    supports = [n for n in nodes if specs[by_class[n.id]].is_support]
    walls = [n for n in nodes if by_class[n.id] == "wall"]
    edges = []
    for n in nodes:
        cls = by_class[n.id]
        spec = specs[cls]
        if cls == "door" and walls:
            nearest = min(
                walls,
                key=lambda w: (norm_loop(np.array(n.position) - np.array(w.position)), w.id),
            )
            edges.append(SemanticEdge(n.id, nearest.id, attached_to))
        if spec.is_support or spec.is_structure or not supports:
            continue
        dists = [
            (norm_loop(np.array(n.position)[:2] - np.array(s.position)[:2]), s.id)
            for s in supports
        ]
        d, sid = min(dists)
        if d < cfg.support_radius:
            edges.append(SemanticEdge(n.id, sid, standing_on))
    movable = [n for n in nodes if not specs[by_class[n.id]].is_structure]
    for a in movable:
        for b in movable:
            if a.id >= b.id:
                continue
            d = norm_loop(np.array(a.position)[:2] - np.array(b.position)[:2])
            if d < cfg.next_to_radius:
                edges.append(SemanticEdge(a.id, b.id, next_to))
    return tuple(edges)


@st.composite
def point_pairs(draw):
    """Two 2-D or 3-D point sets of 0-40 rows each, over several scales,
    with some rows of the second copied from the first."""
    dims = draw(st.sampled_from([2, 3]))
    n_a, n_b = draw(st.integers(0, 40)), draw(st.integers(0, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = 10.0 ** rng.integers(-3, 3, size=(n_a + n_b, 1))
    points = rng.uniform(-10, 10, size=(n_a + n_b, dims)) * scale
    a, b = points[:n_a], points[n_a:]
    if n_a and draw(st.booleans()):
        copied = rng.random(n_b) < 0.3
        b[copied] = a[rng.integers(n_a, size=int(copied.sum()))]
    return a, b


def _dot_product_sites(path: Path) -> list[tuple[str, str]]:
    """(file, top-level definition) of each `linalg.norm`, `.dot`, `matmul`
    or `@` in a module: the ways to measure a distance through BLAS."""
    sites = []
    for top in ast.parse(path.read_text(encoding="utf-8")).body:
        for node in ast.walk(top):
            if (
                isinstance(node, ast.Attribute) and node.attr in ("norm", "dot", "matmul")
                or isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult)
            ):
                sites.append((path.name, getattr(top, "name", "<module>")))
    return sites


class TestGeometry:
    def test_distances_go_through_the_one_rule(self):
        # The generator, the labels, the edges and the planner measure every
        # distance with core_graph.distance; the one matmul left is the PCA
        # projection, which is no distance.
        sites = [
            site for name in ("dataset.py", "embedding.py", "planner.py")
            for site in _dot_product_sites(SRC / name)
        ]
        assert sites == [("embedding.py", "transform_pca")]

    @settings(max_examples=300, deadline=None)
    @given(case=point_pairs())
    def test_distances_match_1d_norm_bit_for_bit(self, case):
        a, b = case
        got, want = distance(a[:, None, :], b[None, :, :]), distances_loop(a, b)
        assert got.shape == (len(a), len(b)) and got.dtype == np.float64
        npt.assert_array_equal(got.view(np.int64), want.view(np.int64))

    @pytest.mark.parametrize("support_radius, next_to_radius, appear_prob, seed", [
        (1.0, 0.8, 0.15, 0), (0.4, 0.3, 0.0, 1), (1.6, 1.5, 1.0, 2), (2.5, 2.2, 0.5, 3),
    ])
    def test_semantic_edges_match_loop(self, support_radius, next_to_radius, appear_prob, seed):
        cfg = GeneratorConfig(
            num_environments=3, scans_per_environment=3, objects_min=12, objects_max=24,
            support_radius=support_radius, next_to_radius=next_to_radius,
            appear_prob=appear_prob, seed=seed,
        )
        tax, specs = default_taxonomy(), _CLASS_SPECS
        for e in range(cfg.num_environments):
            for scan in generate_environment(cfg, e, tax)[0]:
                want = semantic_edges_loop(scan.nodes, tax, specs, cfg)
                assert scan.semantic_edges == want, (e, scan.scan_id)
                assert _semantic_edges(list(scan.nodes), tax, specs, cfg) == want
                assert all(type(x) is str for ed in want for x in (ed.source_id, ed.target_id))

    def test_semantic_edges_use_id_order_not_node_order(self):
        # In str order obj1000 < obj999, so ties and next_to direction
        # follow ids, not the node order below; the distance ties are exact.
        tax, specs = default_taxonomy(), _CLASS_SPECS
        nodes = [
            make_node(oid, cls=tax.class_index(cls), pos=pos)
            for oid, cls, pos in [
                ("obj999", "wall", (3.0, 0.0, 1.0)),
                ("obj1000", "wall", (5.0, 0.0, 1.0)),
                ("obj1002", "door", (4.0, 0.0, 1.0)),
                ("obj998", "table", (1.0, 1.0, 0.75)),
                ("obj1001", "shelf", (3.0, 1.0, 0.75)),
                ("obj1003", "cup", (2.0, 1.0, 0.0)),
                ("obj997", "book", (2.0, 2.0, 0.0)),
                ("obj1010", "chair", (6.0, 6.0, 0.0)),
            ]
        ]
        scan = make_graph(nodes, tax_name=tax.name)
        cfg = GeneratorConfig(support_radius=1.5, next_to_radius=2.5)
        want = semantic_edges_loop(scan.nodes, tax, specs, cfg)
        assert _semantic_edges(list(scan.nodes), tax, specs, cfg) == want
        attached_to, standing_on, next_to = (
            tax.relationship_index(r) for r in ("attached_to", "standing_on", "next_to")
        )
        assert want[:3] == (
            SemanticEdge("obj1002", "obj1000", attached_to),
            SemanticEdge("obj1003", "obj1001", standing_on),
            SemanticEdge("obj997", "obj1001", standing_on),
        )
        assert SemanticEdge("obj1001", "obj998", next_to) in want


class TestDatasetIO:
    def small_dataset(self):
        cfg = GeneratorConfig(
            num_environments=3, scans_per_environment=3, objects_min=6, objects_max=8, seed=4
        )
        return generate_dataset(cfg)

    def test_round_trip(self, tmp_path):
        ds = self.small_dataset()
        write_dataset(tmp_path, ds.taxonomy, ds.environments, ds.splits)
        bundle = load_dataset(tmp_path)
        assert bundle.taxonomy == ds.taxonomy
        assert bundle.splits == ds.splits
        assert list(bundle.environments) == list(ds.environments)
        for env, scans in ds.environments.items():
            assert bundle.environments[env] == scans

    def test_written_files_are_stable(self, tmp_path):
        ds = self.small_dataset()
        a, b = tmp_path / "a", tmp_path / "b"
        write_dataset(a, ds.taxonomy, ds.environments, ds.splits)
        write_dataset(b, ds.taxonomy, ds.environments, ds.splits)
        for rel in ["manifest.json", "taxonomy.json", "env000/scan00.json"]:
            assert (a / rel).read_bytes() == (b / rel).read_bytes()

    def test_bundle_split_filtering_and_samples(self, tmp_path):
        ds = self.small_dataset()
        write_dataset(tmp_path, ds.taxonomy, ds.environments, ds.splits)
        bundle = load_dataset(tmp_path)
        train_envs = bundle.environment_ids("train")
        assert train_envs
        assert set(train_envs) == {e for e, s in ds.splits.items() if s == "train"}
        samples = bundle.samples("train")
        assert len(samples) == len(train_envs) * 3 * 2
        with pytest.raises(ConfigError):
            bundle.environment_ids("holdout")

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(ParseError, match="manifest"):
            load_dataset(tmp_path)

    def test_corrupt_manifest(self, tmp_path):
        (tmp_path / "manifest.json").write_text("{nope")
        with pytest.raises(ParseError, match="invalid JSON"):
            load_dataset(tmp_path)

    def test_bad_manifest_version(self, tmp_path):
        ds = self.small_dataset()
        write_dataset(tmp_path, ds.taxonomy, ds.environments, ds.splits)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        manifest["format_version"] = 99
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(ParseError, match="version"):
            load_dataset(tmp_path)

    def test_bad_split_name(self, tmp_path):
        ds = self.small_dataset()
        write_dataset(tmp_path, ds.taxonomy, ds.environments, ds.splits)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        manifest["environments"][0]["split"] = "holdout"
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(ParseError, match="split"):
            load_dataset(tmp_path)


def write_scan(root, scan_id, objects, relationships=None):
    scan_dir = root / scan_id
    scan_dir.mkdir(parents=True, exist_ok=True)
    (scan_dir / "objects.json").write_text(json.dumps({"objects": objects}))
    if relationships is not None:
        (scan_dir / "relationships.json").write_text(
            json.dumps({"relationships": relationships})
        )


def obj(oid, label, position, attributes=None):
    data = {"id": oid, "label": label, "position": list(position)}
    if attributes is not None:
        data["attributes"] = attributes
    return data


class TestIngest:
    def build_layout(self, root):
        index = [
            {"reference": "envA-ref", "scans": [{"reference": "envA-re1"}]},
            {"reference": "envB-ref", "scans": [{"reference": "envB-re1"}]},
        ]
        (root / "3RScan.json").write_text(json.dumps(index))
        chair = {"state": ["open"], "static": ["wooden"]}
        write_scan(
            root,
            "envA-ref",
            [
                obj("1", "chair", (0, 0, 0), chair),
                obj("2", "table", (2, 0, 0), ["wooden"]),
            ],
            relationships=[["1", "2", "standing on"]],
        )
        write_scan(
            root,
            "envA-re1",
            [
                obj("1", "chair", (1.5, 0, 0), chair),
                obj("2", "table", (2, 0, 0), ["wooden"]),
            ],
        )
        write_scan(root, "envB-ref", [obj("3", "lamp", (0, 1, 0)), obj("4", "sofa", (3, 3, 0))])
        write_scan(root, "envB-re1", [obj("3", "lamp", (0, 1, 0))])

    def test_two_environments(self, tmp_path):
        self.build_layout(tmp_path)
        bundle, skipped = ingest_3rscan_layout(tmp_path)
        tax = bundle.taxonomy
        assert len(bundle.environments) == 2
        assert sum(len(scans) for scans in bundle.environments.values()) == 4
        assert len(bundle.samples()) == 4
        assert skipped == ()
        assert bundle.splits == {"envA-ref": "train", "envB-ref": "train"}
        assert tax.classes == ("chair", "lamp", "sofa", "table")
        assert ("open", "state") in tax.attributes
        assert ("wooden", "static") in tax.attributes
        assert "standing on" in tax.relationships

    def test_ingested_labels(self, tmp_path):
        self.build_layout(tmp_path)
        samples = ingest_3rscan_layout(tmp_path)[0].samples()
        by_pair = {(s.environment_id, s.pair_id): s for s in samples}
        forward = by_pair[("envA-ref", ("envA-ref", "envA-re1"))]
        assert sample_rows(forward)["1"][0] == 1  # moved 1.5m
        assert sample_rows(forward)["1"][4] == 1
        assert sample_rows(forward)["2"] == label_of(m_s=0)
        gone = by_pair[("envB-ref", ("envB-ref", "envB-re1"))]
        assert sample_rows(gone)["4"] == VANISHED
        assert label_statistics(samples).positives[2] == 1

    def test_relationships_become_semantic_edges(self, tmp_path):
        self.build_layout(tmp_path)
        bundle, _ = ingest_3rscan_layout(tmp_path)
        tax = bundle.taxonomy
        ref = next(s.input for s in bundle.samples() if s.input.scan_id == "envA-ref")
        assert ref.semantic_edges
        edge = ref.semantic_edges[0]
        assert (edge.source_id, edge.target_id) == ("1", "2")
        assert tax.relationships[edge.relation_index] == "standing on"

    def test_broken_environment_skipped(self, tmp_path, caplog):
        self.build_layout(tmp_path)
        index = json.loads((tmp_path / "3RScan.json").read_text())
        index.append({"reference": "envC-ref", "scans": [{"reference": "envC-re1"}]})
        (tmp_path / "3RScan.json").write_text(json.dumps(index))
        with caplog.at_level(logging.WARNING):
            bundle, skipped = ingest_3rscan_layout(tmp_path)
        assert "envC-ref" in skipped
        assert len(bundle.environments) == 2
        assert len(bundle.samples()) == 4
        assert "skipping" in caplog.text

    @pytest.mark.parametrize(
        "scans",
        [
            [{"reference": "envC-re1"}, {"reference": "envC-re1"}],
            [{"reference": "envC-re1"}, {"reference": "envC-ref"}],
        ],
        ids=["rescan-twice", "reference-as-rescan"],
    )
    def test_entry_listing_a_scan_twice_skipped(self, tmp_path, caplog, scans):
        self.build_layout(tmp_path)
        index = json.loads((tmp_path / "3RScan.json").read_text())
        index.append({"reference": "envC-ref", "scans": scans})
        (tmp_path / "3RScan.json").write_text(json.dumps(index))
        write_scan(tmp_path, "envC-ref", [obj("5", "lamp", (0, 0, 0))])
        write_scan(tmp_path, "envC-re1", [obj("5", "lamp", (1, 0, 0))])
        with caplog.at_level(logging.WARNING):
            bundle, skipped = ingest_3rscan_layout(tmp_path)
        assert skipped == ("envC-ref",)
        repeated = "envC-re1" if scans[1]["reference"] == "envC-re1" else "envC-ref"
        assert f"names scan {repeated}, which the index names more than once; skipping" in caplog.text
        assert sorted(bundle.environments) == ["envA-ref", "envB-ref"]
        assert len(bundle.samples()) == 4
        write_dataset(tmp_path / "data", bundle.taxonomy, bundle.environments, bundle.splits)
        assert load_dataset(tmp_path / "data") == bundle

    def test_reference_listed_by_two_entries_skipped(self, tmp_path, caplog):
        self.build_layout(tmp_path)
        index = json.loads((tmp_path / "3RScan.json").read_text())
        index += [{"reference": "envC-ref", "scans": [{"reference": "envC-re1"}]},
                  {"reference": "envC-ref", "scans": [{"reference": "envC-re2"}]}]
        (tmp_path / "3RScan.json").write_text(json.dumps(index))
        for t, scan in enumerate(("envC-ref", "envC-re1", "envC-re2")):
            write_scan(tmp_path, scan, [obj("5", "lamp", (t, 0, 0))])
        with caplog.at_level(logging.WARNING):
            bundle, skipped = ingest_3rscan_layout(tmp_path)
        assert skipped == ("envC-ref",)
        assert "names scan envC-ref, which the index names more than once; skipping" in caplog.text
        assert sorted(bundle.environments) == ["envA-ref", "envB-ref"]
        assert len(bundle.samples()) == 4

    def test_scan_named_by_two_entries_skips_both(self, tmp_path, caplog):
        self.build_layout(tmp_path)
        index = json.loads((tmp_path / "3RScan.json").read_text())
        index += [{"reference": "a", "scans": [{"reference": "x"}]},
                  {"reference": "b", "scans": [{"reference": "x"}]},
                  {"reference": "c", "scans": [{"reference": "a"}]},
                  {"reference": "c"}]
        (tmp_path / "3RScan.json").write_text(json.dumps(index))
        for t, scan in enumerate(("a", "b", "c", "x")):
            write_scan(tmp_path, scan, [obj("5", "lamp", (t, 0, 0))])
        with caplog.at_level(logging.WARNING):
            bundle, skipped = ingest_3rscan_layout(tmp_path)
        assert skipped == ("a", "b", "c")
        for k, scan in ((2, "x"), (3, "x"), (4, "a"), (5, "c")):
            assert f"entry {k} " in caplog.text and f"names scan {scan}, which" in caplog.text
        assert sorted(bundle.environments) == ["envA-ref", "envB-ref"]

    def test_object_without_position_skips_environment(self, tmp_path, caplog):
        self.build_layout(tmp_path)
        bad = [{"id": "9", "label": "box"}]
        write_scan(tmp_path, "envB-re1", bad)
        with caplog.at_level(logging.WARNING):
            bundle, skipped = ingest_3rscan_layout(tmp_path)
        assert "envB-ref" in skipped
        assert {s.environment_id for s in bundle.samples()} == {"envA-ref"}

    def test_state_attribute_synthesized_when_absent(self, tmp_path):
        index = [{"reference": "envA-ref", "scans": [{"reference": "envA-re1"}]}]
        (tmp_path / "3RScan.json").write_text(json.dumps(index))
        write_scan(tmp_path, "envA-ref", [obj("1", "box", (0, 0, 0), ["red"])])
        write_scan(tmp_path, "envA-re1", [obj("1", "box", (0, 0, 0), ["red"])])
        bundle, _ = ingest_3rscan_layout(tmp_path)
        assert ("unobserved_state", "state") in bundle.taxonomy.attributes
        assert sample_rows(bundle.samples()[0])["1"][4] == 0

    def test_empty_directory(self, tmp_path, caplog):
        with caplog.at_level(logging.WARNING):
            bundle, skipped = ingest_3rscan_layout(tmp_path)
        assert bundle.samples() == []
        assert (bundle.environments, bundle.splits, skipped) == ({}, {}, ())
        assert label_statistics(bundle.samples()) == LabelStats((0, 0, 0), (0, 0, 0))
        assert bundle.taxonomy.num_classes >= 1

    def test_ingested_bundle_writes_loads_and_trains(self, tmp_path):
        (tmp_path / "layout").mkdir()
        self.build_layout(tmp_path / "layout")
        bundle, _ = ingest_3rscan_layout(tmp_path / "layout")
        write_dataset(tmp_path / "data", bundle.taxonomy, bundle.environments, bundle.splits)
        loaded = load_dataset(tmp_path / "data")
        assert loaded == bundle

        def rows(b):
            return [(s.pair_id, s.input, s.labels.tolist(), s.masks.tolist()) for s in b.samples()]

        assert rows(loaded) == rows(bundle)
        _, report = train(loaded, ModelConfig(d_v=4, hidden_dim=4, tau=2.0),
                          TrainConfig(epochs=2, batch_size=2, seed=0))
        assert report.num_train_samples == 4 and report.epochs_run == 2
