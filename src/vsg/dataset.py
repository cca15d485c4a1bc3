"""Supervised samples from scan pairs, plus data sources.

A sample is one ordered pair of scans of the same environment: the earlier
scan is the input graph, and each of its nodes gets three binary labels by
comparison with the later scan:

    position  y_P = 1  iff the object moved at least epsilon meters,
    state     y_S = 1  iff its state-kind attribute set changed,
    instance  y_I = 1  iff it is absent from the later scan.

Vanished objects carry no position/state supervision (their masks are zero),
and nodes without state-kind attributes carry no state supervision. Objects
appearing in the later scan produce no rows at all; the input graph defines
the node set.

Three data sources are provided, and each gives a `DatasetBundle`: a
synthetic changing-scene generator whose oracle change log makes labels
exactly checkable, a dataset directory format (one JSON scene graph per scan
plus a manifest with scan order and an environment-level split), and an
ingestion adapter for graph exports laid out in the 3RScan/3DSSG style.
"""

from __future__ import annotations

import logging
import math
import os
from collections import Counter
from collections.abc import Mapping
from dataclasses import dataclass, field
from types import MappingProxyType

import numpy as np

from .core_graph import (
    MAX_COORDINATE,
    ObjectNode,
    SceneGraph,
    SemanticEdge,
    Taxonomy,
    _attribute_indicators,
    _config_from_json,
    _encode_json,
    check_position,
    distance,
    _parse_rows,
    _read_json,
    _write_text,
    check_count,
    check_length,
    check_real,
    load_scene_graph,
    load_taxonomy,
    node_positions,
    save_scene_graph,
    save_taxonomy,
)
from .errors import ConfigError, GeneratorError, PairingError, ParseError

logger = logging.getLogger(__name__)

MANIFEST_VERSION = 1

VARIABILITY_NAMES = ("position", "state", "instance")

SPLIT_NAMES = ("train", "val", "test")


@dataclass(frozen=True)
class LabelConfig:
    """Labeling knobs: epsilon is the minimum displacement (meters) that
    counts as a position change."""

    epsilon: float = 0.1

    def __post_init__(self):
        object.__setattr__(self, "epsilon", check_real(self.epsilon, 0, math.inf, "epsilon", "(]"))


@dataclass(frozen=True, eq=False)
class Sample:
    """One (current scan, labels) pair; pair_id records (from, to) scan ids.

    labels (y) and masks (m) are float64 (N, 3) arrays in input.node_ids
    order, with columns VARIABILITY_NAMES; the instance column is never
    masked, and a vanished object (y_instance = 1) has its position and
    state masks at 0.
    """

    input: SceneGraph
    labels: np.ndarray
    masks: np.ndarray
    pair_id: tuple[str, str]

    def __post_init__(self):
        shape = (self.input.num_nodes, 3)
        if np.shape(self.labels) != shape or np.shape(self.masks) != shape:
            raise ConfigError(f"sample {self.pair_id}: labels and masks must both be {shape}")
        if (self.labels[:, 2:] * self.masks[:, :2]).any():
            raise ConfigError(f"sample {self.pair_id}: vanished object must have position/state masks 0")

    @property
    def environment_id(self) -> str:
        return self.input.environment_id


def _state_indicators(nodes, tax: Taxonomy) -> np.ndarray:
    """(N, S) bool: node i holds the s-th state-kind attribute of `tax`."""
    return _attribute_indicators(nodes, tax)[:, sorted(tax.state_attribute_indices)]


def _label_arrays(vanished, moved, toggled, has_state) -> tuple[np.ndarray, np.ndarray]:
    """(labels, masks) from per-node bool vectors; a vanished node gets only
    y_instance = 1, and nodes without state get no state supervision."""
    present = ~vanished
    y, m = np.zeros((len(present), 3)), np.ones((len(present), 3))
    y[:, 0], y[:, 1], y[:, 2] = moved & present, toggled & present, vanished
    m[:, 0], m[:, 1] = present, present & has_state
    return y, m


def compute_labels(
    current: SceneGraph,
    future: SceneGraph,
    tax: Taxonomy,
    cfg: LabelConfig = LabelConfig(),
) -> tuple[np.ndarray, np.ndarray]:
    """(labels, masks) for the nodes of `current` by comparison with `future`,
    in the layout `Sample` documents.

    Objects are matched purely by id. Ids present only in `future` yield no
    rows.
    """
    if current.environment_id != future.environment_id:
        raise PairingError(
            f"cannot pair scans of different environments: "
            f"{current.environment_id!r} vs {future.environment_id!r}"
        )
    if current.taxonomy_name != future.taxonomy_name:
        raise PairingError(
            f"cannot pair scans with different taxonomies: "
            f"{current.taxonomy_name!r} vs {future.taxonomy_name!r}"
        )
    vanished = np.array([not future.has_node(n.id) for n in current.nodes], dtype=bool)
    # Each node's counterpart in `future`; a vanished node is its own, so it neither
    # moves nor toggles.
    after = [future.node(n.id) if future.has_node(n.id) else n for n in current.nodes]
    moved = distance(node_positions(after), current.positions()) >= cfg.epsilon
    state = _state_indicators(current.nodes, tax)
    toggled = (state != _state_indicators(after, tax)).any(axis=1)
    has_state = state.any(axis=1)
    return _label_arrays(vanished, moved, toggled & has_state, has_state)


def augment_pairs(scans: list[SceneGraph]) -> list[tuple[SceneGraph, SceneGraph]]:
    """All ordered pairs (i, j), i != j; exactly n(n-1) of them."""
    if len(scans) < 2:
        env = scans[0].environment_id if scans else "<empty>"
        logger.warning("environment %s has %d scan(s); need 2+, skipping", env, len(scans))
        return []
    return [(a, b) for a in scans for b in scans if a.scan_id != b.scan_id]


def make_samples(
    scans: list[SceneGraph], tax: Taxonomy, cfg: LabelConfig = LabelConfig()
) -> list[Sample]:
    return [
        Sample(cur, *compute_labels(cur, fut, tax, cfg), (cur.scan_id, fut.scan_id))
        for cur, fut in augment_pairs(scans)
    ]


@dataclass(frozen=True)
class LabelStats:
    """Per-variability unmasked counts and positive rates over a sample set."""

    unmasked: tuple[int, int, int]
    positives: tuple[int, int, int]

    @property
    def positive_rates(self) -> tuple[float, float, float]:
        return tuple(
            p / u if u else 0.0 for p, u in zip(self.positives, self.unmasked)
        )


def label_statistics(samples: list[Sample]) -> LabelStats:
    y = np.concatenate([np.zeros((0, 3))] + [s.labels for s in samples]).astype(np.int64)
    m = np.concatenate([np.zeros((0, 3))] + [s.masks for s in samples]).astype(np.int64)
    return LabelStats(tuple(m.sum(axis=0).tolist()), tuple((y * m).sum(axis=0).tolist()))


def importance_sample(samples: list[Sample]) -> np.ndarray:
    """Per-sample draw weights, normalized to sum 1.

    Each unmasked label element is weighted by the inverse frequency of its
    class in `samples` (1/rate for positives, 1/(1-rate) for negatives, per
    variability type); a sample's weight is the mean over its unmasked
    elements. On a balanced set every element weighs the same, so the
    weights are uniform.
    """
    if not samples:
        raise ConfigError("importance_sample needs at least one sample")
    rates = np.array(label_statistics(samples).positive_rates, dtype=np.float64)
    if not rates.any():
        logger.warning("no positive labels in any sample; using uniform weights")
    pos_w = np.where(rates > 0, 1.0 / np.where(rates > 0, rates, 1.0), 1.0)
    neg_w = np.where(rates < 1, 1.0 / np.where(rates < 1, 1.0 - rates, 1.0), 1.0)
    weights = np.empty(len(samples), dtype=np.float64)
    for k, s in enumerate(samples):
        element_w = np.where(s.labels > 0, pos_w, neg_w) * s.masks
        total_mask = s.masks.sum()
        weights[k] = element_w.sum() / total_mask if total_mask else 1.0
    return weights / weights.sum()


@dataclass(frozen=True)
class DatasetBundle:
    """A dataset, generated, loaded or ingested: taxonomy, per-environment
    scans (insertion-ordered by environment id) and environment splits."""

    taxonomy: Taxonomy
    environments: dict[str, list[SceneGraph]]
    splits: dict[str, str]  # environment id -> train/val/test

    def environment_ids(self, split: str | None = None) -> list[str]:
        if split is None:
            return list(self.environments)
        if split not in SPLIT_NAMES:
            raise ConfigError(f"unknown split {split!r}; expected one of {SPLIT_NAMES}")
        return [e for e in self.environments if self.splits.get(e) == split]

    def samples(self, split: str | None = None, cfg: LabelConfig = LabelConfig()) -> list[Sample]:
        out: list[Sample] = []
        for env in self.environment_ids(split):
            out.extend(make_samples(self.environments[env], self.taxonomy, cfg))
        return out


# ---------------------------------------------------------------------------
# Synthetic changing-scene generator
# ---------------------------------------------------------------------------

_STATE_PAIRS = (("open", "closed"), ("on", "off"))

_SUPPORT_CLASSES = ("table", "shelf", "cabinet")


@dataclass(frozen=True)
class ClassPropensity:
    """Per-class change probabilities applied at each scan transition.

    move_near applies when the object is within support_radius of a support
    surface (table/shelf/cabinet), move_far otherwise; that context lives in
    the graph geometry, not in the object's own encoding.
    """

    move_near: float = 0.0
    move_far: float = 0.0
    toggle: float = 0.0
    vanish: float = 0.0

    def __post_init__(self):
        for name in ("move_near", "move_far", "toggle", "vanish"):
            object.__setattr__(self, name, check_real(getattr(self, name), 0, 1, f"propensity {name}"))


@dataclass(frozen=True)
class ClassSpec:
    """Static makeup of one object class in the synthetic world."""

    static_attributes: tuple[str, ...] = ()
    affordances: tuple[str, ...] = ()
    state_pair: tuple[str, str] | None = None
    propensity: ClassPropensity = ClassPropensity()
    is_support: bool = False
    is_structure: bool = False


# The synthetic world's classes, built once at import; read-only, since every generator shares them.
_CLASS_SPECS: Mapping[str, ClassSpec] = MappingProxyType({
    "wall": ClassSpec(is_structure=True),
    "floor": ClassSpec(is_structure=True),
    "door": ClassSpec(affordances=("openable",), state_pair=("open", "closed"),
                      propensity=ClassPropensity(toggle=0.45), is_structure=True),
    "table": ClassSpec(static_attributes=("wooden",), is_support=True,
                       propensity=ClassPropensity(move_near=0.02, move_far=0.02)),
    "shelf": ClassSpec(static_attributes=("wooden",), is_support=True),
    "cabinet": ClassSpec(static_attributes=("wooden",), affordances=("openable",),
                         state_pair=("open", "closed"), propensity=ClassPropensity(toggle=0.35),
                         is_support=True),
    "chair": ClassSpec(static_attributes=("fabric",), affordances=("sittable", "movable"),
                       propensity=ClassPropensity(move_near=0.5, move_far=0.35)),
    "lamp": ClassSpec(static_attributes=("metal",), affordances=("switchable",), state_pair=("on", "off"),
                      propensity=ClassPropensity(move_near=0.05, move_far=0.02, toggle=0.5)),
    "laptop": ClassSpec(static_attributes=("metal",), affordances=("switchable", "graspable", "movable"),
                        state_pair=("on", "off"),
                        propensity=ClassPropensity(move_near=0.55, move_far=0.1, toggle=0.5, vanish=0.08)),
    "cup": ClassSpec(static_attributes=("plastic",), affordances=("graspable", "movable"),
                     propensity=ClassPropensity(move_near=0.7, move_far=0.08, vanish=0.12)),
    "book": ClassSpec(affordances=("graspable", "movable"),
                      propensity=ClassPropensity(move_near=0.6, move_far=0.06, vanish=0.1)),
    "plant": ClassSpec(affordances=("movable",),
                       propensity=ClassPropensity(move_near=0.15, move_far=0.05, vanish=0.03)),
    "box": ClassSpec(affordances=("openable", "movable", "graspable"), state_pair=("open", "closed"),
                     propensity=ClassPropensity(move_near=0.5, move_far=0.1, toggle=0.3, vanish=0.08)),
})


def default_taxonomy() -> Taxonomy:
    """The synthetic world's taxonomy: 13 classes, 13 attributes, 5 relations."""
    attributes = (
        [("wooden", "static"), ("metal", "static"), ("plastic", "static"), ("fabric", "static")]
        + [(n, "state") for pair in _STATE_PAIRS for n in pair]
        + [
            ("movable", "affordance"),
            ("openable", "affordance"),
            ("switchable", "affordance"),
            ("sittable", "affordance"),
            ("graspable", "affordance"),
        ]
    )
    return Taxonomy(
        name="synthetic-rooms",
        classes=tuple(sorted(_CLASS_SPECS)),
        attributes=tuple(attributes),
        relationships=("standing_on", "next_to", "attached_to", "part_of", "leaning_against"),
    )


@dataclass(frozen=True)
class GeneratorConfig:
    """Knobs of the synthetic world; see default_taxonomy for its contents."""

    num_environments: int = 10
    scans_per_environment: int = 3
    room_size: tuple[float, float, float] = (8.0, 8.0, 3.0)
    objects_min: int = 12
    objects_max: int = 18
    support_radius: float = 1.0
    next_to_radius: float = 0.8
    min_spacing: float = 0.35
    move_distance: tuple[float, float] = (0.25, 0.9)
    jitter_fraction: float = 0.4  # unmoved objects wiggle below this * epsilon
    appear_prob: float = 0.15
    epsilon: float = 0.1
    seed: int = 0
    split_fractions: tuple[float, float, float] = (0.7, 0.15, 0.15)
    propensity_overrides: dict[str, ClassPropensity] = field(default_factory=dict)

    def __post_init__(self):
        for name, low in (("num_environments", 1), ("scans_per_environment", 2), ("objects_min", 4),
                          ("objects_max", self.objects_min), ("seed", 0)):
            object.__setattr__(self, name, check_count(getattr(self, name), low, name))
        # _place keeps 0.3 m from each wall; every object lies in the room, so within MAX_COORDINATE.
        room = zip(check_length(self.room_size, 3, "room_size"), (0.6, 0.6, 0), ("[]", "[]", "(]"))
        object.__setattr__(self, "room_size", tuple(check_real(v, low, MAX_COORDINATE, f"room_size[{i}]", ends)
                                                    for i, (v, low, ends) in enumerate(room)))
        for name in ("support_radius", "next_to_radius", "min_spacing"):
            object.__setattr__(self, name, check_real(getattr(self, name), 0, MAX_COORDINATE, name))
        object.__setattr__(self, "epsilon", LabelConfig(self.epsilon).epsilon)
        low, high = check_length(self.move_distance, 2, "move_distance")
        low = check_real(low, 2 * self.epsilon, MAX_COORDINATE, "move_distance[0]")  # moves clear the jitter
        high = check_real(high, low, MAX_COORDINATE, "move_distance[1]")
        object.__setattr__(self, "move_distance", (low, high))
        for name, ends in (("appear_prob", "[]"), ("jitter_fraction", "[)")):
            object.__setattr__(self, name, check_real(getattr(self, name), 0, 1, name, ends))
        fractions = enumerate(check_length(self.split_fractions, 3, "split_fractions"))
        object.__setattr__(self, "split_fractions", tuple(check_real(f, 0, 1, f"split_fractions[{i}]")
                                                          for i, f in fractions))
        if abs(sum(self.split_fractions) - 1.0) > 1e-9:
            raise ConfigError(f"split_fractions must sum to 1, got {self.split_fractions}")
        overrides = self.propensity_overrides
        if not isinstance(overrides, dict):
            raise ConfigError(f"propensity_overrides must be a dict of ClassPropensity, got {overrides!r}")
        classes = sorted(_CLASS_SPECS)
        for c, p in overrides.items():
            if c not in classes:
                raise ConfigError(f"propensity_overrides names unknown class {c!r}; "
                                  f"expected one of {classes}")
            if not isinstance(p, ClassPropensity):
                raise ConfigError(f"propensity_overrides[{c!r}] must be a ClassPropensity, got {p!r}")


def generator_config_from_dict(data: dict, source: str = "generator config") -> GeneratorConfig:
    if isinstance(data, dict) and isinstance(data.get("propensity_overrides"), dict):
        data = data | {"propensity_overrides": {
            c: _config_from_json(ClassPropensity, p, f"{source}: propensity_overrides[{c!r}]")
            for c, p in data["propensity_overrides"].items()}}
    return _config_from_json(GeneratorConfig, data, source)


@dataclass(frozen=True)
class TransitionLog:
    """Oracle record of one scan transition, keyed by object id.

    moved maps id to the applied displacement norm (always >= epsilon);
    jittered objects (sub-epsilon wiggle) are deliberately absent from it.
    """

    moved: dict[str, float]
    toggled: frozenset[str]
    vanished: frozenset[str]
    appeared: frozenset[str]


def _place(
    rng: np.random.Generator,
    cfg: GeneratorConfig,
    taken: list,
    z: float,
    near: tuple[float, float, float] | None = None,
) -> tuple[float, float, float]:
    """Random in-room position respecting min spacing to the `taken` positions
    (appended to on success); near biases placement."""
    rx, ry, _ = cfg.room_size
    others = np.array(taken, dtype=np.float64).reshape(-1, 3)[:, :2]
    for _ in range(200):
        if near is None:
            xy = (rng.uniform(0.3, rx - 0.3), rng.uniform(0.3, ry - 0.3))
        else:
            offset = rng.uniform(-0.6 * cfg.support_radius, 0.6 * cfg.support_radius, size=2)
            xy = tuple(np.clip(np.add(near[:2], offset), 0.3, (rx - 0.3, ry - 0.3)).tolist())
        if not len(others) or distance(xy, others).min() >= cfg.min_spacing:
            taken.append((*xy, z))
            return taken[-1]
    raise GeneratorError(
        f"could not place an object with spacing {cfg.min_spacing} in a "
        f"{rx} x {ry} room; too many objects for the space"
    )


def _new_object(tax: Taxonomy, cls: str, number: int, state_value: str | None, position) -> ObjectNode:
    """Object `obj<number>` of class cls: its class's static attributes and
    affordances, plus state_value unless that is None."""
    state = () if state_value is None else (state_value,)
    names = _CLASS_SPECS[cls].static_attributes + _CLASS_SPECS[cls].affordances + state
    attributes = tuple(tax.attribute_index(n) for n in names)
    return ObjectNode(f"obj{number:03d}", tax.class_index(cls), attributes, position)


def _class_flags(nodes: list[ObjectNode], tax: Taxonomy) -> np.ndarray:
    """(4, N) bool: whether each node is a support, a structure, a wall and a
    door, from one table over the classes of `tax` (a class without a spec is none)."""
    of_class = [_CLASS_SPECS.get(c) or ClassSpec() for c in tax.classes]
    table = np.array([
        (s.is_support, s.is_structure, c == "wall", c == "door") for c, s in zip(tax.classes, of_class)
    ])
    return table[[n.class_index for n in nodes]].T


def _semantic_edges(nodes: list[ObjectNode], tax: Taxonomy, cfg: GeneratorConfig) -> tuple[SemanticEdge, ...]:
    """Edges recomputed from geometry. First, in node order, each door is
    attached_to its nearest wall (3-D) and each other non-support,
    non-structure object standing_on its nearest support (xy) if that is
    within support_radius, ties going to the smaller id. Then each pair of
    non-structure objects within next_to_radius (xy) is next_to, source id
    < target id, in node order."""
    standing_on, next_to, attached_to = (
        tax.relationship_index(r) for r in ("standing_on", "next_to", "attached_to")
    )
    ids = [n.id for n in nodes]
    rank = np.argsort(sorted(range(len(ids)), key=ids.__getitem__))  # each id's place in str order
    pos = node_positions(nodes)
    support, structure, wall, door = _class_flags(nodes, tax)

    def nearest(rows, candidates, dims):
        """Per row, the candidate at the least (distance, id), and that distance."""
        candidates = candidates[np.argsort(rank[candidates])]
        d = distance(pos[rows, None, :dims], pos[None, candidates, :dims])
        k = d.argmin(axis=1)
        return candidates[k], d[np.arange(len(rows)), k]

    by_node: dict[int, SemanticEdge] = {}
    walls, doors = np.flatnonzero(wall), np.flatnonzero(door)
    if walls.size:
        for i, w in zip(doors, nearest(doors, walls, 3)[0]):
            by_node[i] = SemanticEdge(ids[i], ids[w], attached_to)
    placed = np.flatnonzero(~support & ~structure)
    if support.any():
        s, d = nearest(placed, np.flatnonzero(support), 2)
        for i, j in zip(placed[d < cfg.support_radius], s[d < cfg.support_radius]):
            by_node[i] = SemanticEdge(ids[i], ids[j], standing_on)
    m = np.flatnonzero(~structure)
    close = distance(pos[m, None, :2], pos[None, m, :2]) < cfg.next_to_radius
    pairs = zip(*np.nonzero(close & (rank[m][:, None] < rank[m][None, :])))
    return tuple(by_node[i] for i in sorted(by_node)) + tuple(
        SemanticEdge(ids[m[a]], ids[m[b]], next_to) for a, b in pairs
    )


def _initial_scene(
    tax: Taxonomy, cfg: GeneratorConfig, rng: np.random.Generator
) -> tuple[list[ObjectNode], int]:
    rx, ry, rz = cfg.room_size
    taken: list[tuple[float, float, float]] = []
    nodes: list[ObjectNode] = []

    def add(cls: str, position, state_value: str | None) -> None:
        nodes.append(_new_object(tax, cls, len(nodes), state_value, position))

    def initial_state(cls: str) -> str | None:
        pair = _CLASS_SPECS[cls].state_pair
        return None if pair is None else pair[int(rng.random() < 0.5)]

    # Fixed structure: four walls, a floor, a door on one wall.
    add("floor", (rx / 2, ry / 2, 0.0), None)
    for wx, wy in ((rx / 2, 0.0), (rx / 2, ry), (0.0, ry / 2), (rx, ry / 2)):
        add("wall", (wx, wy, rz / 2), None)
    add("door", (rx / 2 + 0.5, 0.0, 1.0), initial_state("door"))

    total = int(rng.integers(cfg.objects_min, cfg.objects_max + 1))
    budget = max(total - len(nodes), 4)
    num_supports = max(2, budget // 5)
    support_positions: list[tuple[float, float, float]] = []
    for _ in range(num_supports):
        cls = _SUPPORT_CLASSES[int(rng.integers(len(_SUPPORT_CLASSES)))]
        p = _place(rng, cfg, taken, z=0.75)
        support_positions.append(p)
        add(cls, p, initial_state(cls))

    movable_classes = ("chair", "lamp", "laptop", "cup", "book", "plant", "box")
    for _ in range(budget - num_supports):
        cls = movable_classes[int(rng.integers(len(movable_classes)))]
        near = None
        if _CLASS_SPECS[cls].propensity.move_near > _CLASS_SPECS[cls].propensity.move_far:
            # Split placement so both contexts appear in the data.
            if rng.random() < 0.55 and support_positions:
                near = support_positions[int(rng.integers(len(support_positions)))]
        z = 0.8 if near is not None else 0.0
        try:
            position = _place(rng, cfg, taken, z=z, near=near)
        except GeneratorError:
            if near is None:
                raise
            # A full support surface must not abort the environment; give up
            # on the near bias and place on the open floor instead.
            position = _place(rng, cfg, taken, z=0.0)
        add(cls, position, initial_state(cls))
    return nodes, len(nodes)


def _transition(
    nodes: list[ObjectNode],
    counter: int,
    tax: Taxonomy,
    cfg: GeneratorConfig,
    rng: np.random.Generator,
) -> tuple[list[ObjectNode], int, TransitionLog]:
    rx, ry, _ = cfg.room_size
    pos = node_positions(nodes)
    support = _class_flags(nodes, tax)[0]
    near_support = (distance(pos[:, None, :2], pos[None, support, :2]) < cfg.support_radius).any(axis=1)
    moved: dict[str, float] = {}
    toggled: set[str] = set()
    vanished: set[str] = set()
    appeared: set[str] = set()
    out: list[ObjectNode] = []

    for n, near in zip(nodes, near_support):
        cls = tax.classes[n.class_index]
        spec = _CLASS_SPECS[cls]
        prop = cfg.propensity_overrides.get(cls, spec.propensity)
        if rng.random() < prop.vanish:
            vanished.add(n.id)
            continue
        position = n.position
        x, y, z = position  # a shift adds 0.0 to z, which keeps every world: -0.0 becomes 0.0
        move_p = prop.move_near if near else prop.move_far
        if rng.random() < move_p:
            for _ in range(100):
                angle = rng.uniform(0.0, 2.0 * math.pi)
                dist = rng.uniform(*cfg.move_distance)
                candidate = (x + dist * math.cos(angle), y + dist * math.sin(angle), z + 0.0)
                if 0.0 <= candidate[0] <= rx and 0.0 <= candidate[1] <= ry:
                    moved[n.id] = float(distance(candidate, position))
                    position = candidate
                    break
        elif not spec.is_structure and cfg.jitter_fraction > 0:
            angle = rng.uniform(0.0, 2.0 * math.pi)
            dist = rng.uniform(0.0, cfg.jitter_fraction * cfg.epsilon)
            wiggle = (x + dist * math.cos(angle), y + dist * math.sin(angle), z + 0.0)
            if 0.0 <= wiggle[0] <= rx and 0.0 <= wiggle[1] <= ry:
                position = wiggle
        attributes = n.attribute_indices
        if spec.state_pair is not None and rng.random() < prop.toggle:
            attributes = tuple(set(attributes) ^ {tax.attribute_index(name) for name in spec.state_pair})
            toggled.add(n.id)
        unchanged = position is n.position and attributes is n.attribute_indices
        out.append(n if unchanged else ObjectNode(n.id, n.class_index, attributes, position))

    taken = [n.position for n in out]
    appear_classes = ("cup", "book", "box")
    for _ in range(2):
        if rng.random() < cfg.appear_prob:
            cls = appear_classes[int(rng.integers(len(appear_classes)))]
            try:
                p = _place(rng, cfg, taken, z=0.0)
            except GeneratorError:
                break
            state_pair = _CLASS_SPECS[cls].state_pair
            out.append(_new_object(tax, cls, counter, state_pair and state_pair[1], p))
            appeared.add(out[-1].id)
            counter += 1
    log = TransitionLog(
        moved=moved,
        toggled=frozenset(toggled),
        vanished=frozenset(vanished),
        appeared=frozenset(appeared),
    )
    return out, counter, log


def generate_environment(
    cfg: GeneratorConfig, env_index: int, tax: Taxonomy | None = None
) -> tuple[list[SceneGraph], list[TransitionLog]]:
    """One environment's scan sequence plus the oracle log per transition.

    Deterministic in (cfg.seed, env_index); environments are independent.
    The order of the random draws is the contract: every draw keeps its
    method, its arguments and its place in the stream, so a change made for
    speed only changes the work around the draws and gives the same worlds.
    """
    tax = tax or default_taxonomy()
    rng = np.random.default_rng([cfg.seed, env_index])
    env_id = f"env{env_index:03d}"
    nodes, counter = _initial_scene(tax, cfg, rng)
    scans: list[SceneGraph] = []
    logs: list[TransitionLog] = []
    for t in range(cfg.scans_per_environment):
        scans.append(
            SceneGraph(
                environment_id=env_id,
                scan_id=f"scan{t:02d}",
                timestamp=t,
                taxonomy_name=tax.name,
                nodes=tuple(nodes),
                semantic_edges=_semantic_edges(nodes, tax, cfg),
            )
        )
        if t < cfg.scans_per_environment - 1:
            nodes, counter, log = _transition(nodes, counter, tax, cfg, rng)
            logs.append(log)
    return scans, logs


def labels_from_log(
    scan: SceneGraph, log: TransitionLog, tax: Taxonomy, epsilon: float
) -> tuple[np.ndarray, np.ndarray]:
    """Oracle (labels, masks) for one consecutive transition, straight from the log."""
    ids = scan.node_ids
    return _label_arrays(
        np.array([oid in log.vanished for oid in ids], dtype=bool),
        np.array([oid in log.moved and log.moved[oid] >= epsilon for oid in ids], dtype=bool),
        np.array([oid in log.toggled for oid in ids], dtype=bool),
        _state_indicators(scan.nodes, tax).any(axis=1),
    )


@dataclass(frozen=True)
class GeneratedDataset(DatasetBundle):
    """A generated dataset, with the generator's change log per environment."""

    logs: dict[str, list[TransitionLog]]


def _assign_splits(env_ids: list[str], fractions: tuple[float, float, float], seed: int) -> dict[str, str]:
    rng = np.random.default_rng([seed, 10_007])
    order = list(env_ids)
    rng.shuffle(order)
    n_train = int(round(fractions[0] * len(order)))
    names = ["train"] * n_train + ["val"] * int(round(fractions[1] * len(order)))
    # Tiny datasets still need a train split: the first shuffled environment
    # is always in it, whichever split its position gave it.
    names[:1] = ["train"]
    splits = dict(zip(order, names))
    return {env: splits.get(env, "test") for env in env_ids}


def generate_dataset(cfg: GeneratorConfig) -> GeneratedDataset:
    tax = default_taxonomy()
    environments: dict[str, list[SceneGraph]] = {}
    logs: dict[str, list[TransitionLog]] = {}
    for e in range(cfg.num_environments):
        scans, env_logs = generate_environment(cfg, e, tax)
        environments[scans[0].environment_id] = scans
        logs[scans[0].environment_id] = env_logs
    splits = _assign_splits(list(environments), cfg.split_fractions, cfg.seed)
    return GeneratedDataset(tax, environments, splits, logs)


# ---------------------------------------------------------------------------
# Dataset directory format
# ---------------------------------------------------------------------------


def write_dataset(
    root,
    taxonomy: Taxonomy,
    environments: dict[str, list[SceneGraph]],
    splits: dict[str, str],
) -> None:
    """Write `<root>/<env>/<scan>.json` files plus taxonomy and manifest."""
    os.makedirs(root, exist_ok=True)
    save_taxonomy(taxonomy, os.path.join(root, "taxonomy.json"))
    entries = []
    for env_id, scans in environments.items():
        env_dir = os.path.join(root, env_id)
        os.makedirs(env_dir, exist_ok=True)
        for scan in scans:
            save_scene_graph(scan, taxonomy, os.path.join(env_dir, f"{scan.scan_id}.json"))
        entries.append({"environment_id": env_id, "split": splits.get(env_id, "train"),
                        "scans": [s.scan_id for s in scans]})
    manifest = {"format_version": MANIFEST_VERSION, "taxonomy_file": "taxonomy.json", "environments": entries}
    _write_text(os.path.join(root, "manifest.json"), _encode_json(manifest, indent=2))


def load_dataset(root) -> DatasetBundle:
    manifest_path = os.path.join(root, "manifest.json")
    manifest = _read_json(manifest_path, "manifest")
    if manifest.get("format_version") != MANIFEST_VERSION:
        raise ParseError(
            f"{manifest_path}: unsupported manifest version {manifest.get('format_version')!r}"
        )
    taxonomy_file = str(manifest.get("taxonomy_file", "taxonomy.json"))
    taxonomy = load_taxonomy(os.path.join(root, taxonomy_file))
    environments: dict[str, list[SceneGraph]] = {}
    splits: dict[str, str] = {}
    entries = _parse_rows(manifest_path, manifest.get("environments", []), "environment", lambda e: (
        str(e["environment_id"]), e.get("split", "train"), [str(scan) for scan in e["scans"]]
    ))
    for env_id, split, scan_ids in entries:
        if split not in SPLIT_NAMES:
            raise ParseError(f"{manifest_path}: environment {env_id!r} has bad split {split!r}")
        if env_id in environments:
            raise ParseError(f"{manifest_path}: environment {env_id!r} is listed twice")
        if len(set(scan_ids)) < len(scan_ids):
            repeated = max(scan_ids, key=scan_ids.count)
            raise ParseError(f"{manifest_path}: environment {env_id!r} lists scan {repeated!r} twice")
        environments[env_id] = [
            load_scene_graph(os.path.join(root, env_id, f"{scan_id}.json"), taxonomy)
            for scan_id in scan_ids
        ]
        splits[env_id] = split
    return DatasetBundle(taxonomy, environments, splits)


# ---------------------------------------------------------------------------
# 3RScan/3DSSG-style layout ingestion
# ---------------------------------------------------------------------------


_KIND_MAP = {"state": "state", "dynamic": "state", "affordance": "affordance"}


def _read_scan(scan_dir: str) -> tuple[list[tuple], list[tuple[str, str, str]]]:
    """One scan's objects as (id, label, attributes, position) rows, and its
    relationships as (source, target, name) triples. Every object must carry
    a position check_position accepts and an id no other object of the scan has."""
    path = os.path.join(scan_dir, "objects.json")
    objects = _parse_rows(path, _read_json(path, "objects").get("objects"), "object", lambda o: (
        str(o["id"]), str(o.get("label", "object")), _object_attributes(o), check_position(o["position"]),
    ))
    ids = [row[0] for row in objects]
    if len(set(ids)) < len(ids):
        raise ParseError(f"{path}: duplicate object id {max(ids, key=ids.count)!r}")
    rel_path = os.path.join(scan_dir, "relationships.json")
    if not os.path.isfile(rel_path):
        return objects, []
    rels = _read_json(rel_path, "relationships").get("relationships", [])
    return objects, _parse_rows(
        rel_path, rels, "relationship", lambda r: (str(r[0]), str(r[1]), str(r[2]))
    )


def _index_entry(entry: dict) -> tuple[str, list[str] | None]:
    """(reference, [reference, rescans...]) of one 3RScan.json entry; the list
    is None when the entry has no reference mapping."""
    ref, scans = entry.get("reference"), entry.get("scans")
    if not ref or not isinstance(scans, list):
        return str(ref or ""), None
    return str(ref), [str(ref)] + [str(s["reference"]) for s in scans if s.get("reference")]


def _object_attributes(obj: dict) -> list[tuple[str, str]]:
    attrs = obj.get("attributes", [])
    if isinstance(attrs, dict):
        return [
            (str(name), _KIND_MAP.get(kind, "static"))
            for kind, names in sorted(attrs.items())
            for name in names
        ]
    return [(str(name), "static") for name in attrs]


def ingest_3rscan_layout(root) -> tuple[DatasetBundle, tuple[str, ...]]:
    """Ingest a directory laid out in the 3RScan/3DSSG export style.

    Expected layout:
      <root>/3RScan.json            list of {"reference": <scan>, "scans": [...]}
      <root>/<scan>/objects.json    {"objects": [{"id", "label", "attributes",
                                     "position"}, ...]}
      <root>/<scan>/relationships.json  optional {"relationships":
                                     [[source_id, target_id, name], ...]}

    Returns the bundle and the ids of the skipped environments. Environments
    whose mapping entry or scan files are missing or malformed are skipped
    with a warning, as is every entry that names a scan (as its reference,
    also without a mapping, or as a rescan) that the index names twice; a
    malformed index is a ParseError. Every usable environment is in the
    "train" split, in id order. The taxonomy is built from the union of
    observed labels, attributes, and relationship names.
    """
    # The taxonomy of the empty bundle returned when nothing usable is found.
    placeholder = Taxonomy("3rscan", ("object",), (("present", "state"),), ("near",))
    index_path = os.path.join(root, "3RScan.json")
    if not os.path.isfile(index_path):
        logger.warning("%s: no 3RScan.json index; returning empty dataset", root)
        return DatasetBundle(placeholder, {}, {}), ()
    index = _read_json(index_path, "3RScan index", expect=list)
    scan_lists: dict[str, list[str]] = {}
    skipped: list[str] = []
    rows = _parse_rows(index_path, index, "entry", _index_entry)
    named = Counter(scan_id for ref, ids in rows for scan_id in ids or [ref] if scan_id)
    for k, (ref, ids) in enumerate(rows):
        repeated = next((scan_id for scan_id in ids or [ref] if named[scan_id] > 1), None)
        if repeated is None and ids is not None:
            scan_lists[ref] = ids
            continue
        if repeated:
            why = f"names scan {repeated}, which the index names more than once"
        else:
            why = "has no reference mapping"
        logger.warning("%s: entry %d (%s) %s; skipping", index_path, k, ref, why)
        skip_id = ref or f"<entry {k}>"
        if skip_id not in skipped:
            skipped.append(skip_id)

    # First pass: collect the vocabulary.
    classes: set[str] = set()
    attributes: dict[str, str] = {}
    relations: set[str] = set()
    usable: dict[str, list[tuple[str, list[tuple], list[tuple[str, str, str]]]]] = {}
    for env_id, scan_ids in sorted(scan_lists.items()):
        try:
            entries = [(scan_id, *_read_scan(os.path.join(root, scan_id))) for scan_id in scan_ids]
        except (OSError, ParseError) as e:
            logger.warning("environment %s: %s; skipping", env_id, e)
            skipped.append(env_id)
            continue
        usable[env_id] = entries
        for _, objects, rels in entries:
            for _, label, attrs, _ in objects:
                classes.add(label)
                for name, kind in attrs:
                    attributes.setdefault(name, kind)
            relations.update(name for _, _, name in rels)

    if not usable:
        return DatasetBundle(placeholder, {}, {}), tuple(skipped)

    if not any(kind == "state" for kind in attributes.values()):
        attributes["unobserved_state"] = "state"  # placeholder; never assigned
    if not relations:
        relations.add("near")
    taxonomy = Taxonomy(
        name="3rscan",
        classes=tuple(sorted(classes)) or ("object",),
        attributes=tuple(sorted(attributes.items())),
        relationships=tuple(sorted(relations)),
    )

    environments: dict[str, list[SceneGraph]] = {}
    for env_id, entries in usable.items():
        scans = []
        for t, (scan_id, objects, rels) in enumerate(entries):
            nodes = tuple(
                ObjectNode(
                    id=oid,
                    class_index=taxonomy.class_index(label),
                    attribute_indices=tuple(sorted({taxonomy.attribute_index(n) for n, _ in attrs})),
                    position=position,
                )
                for oid, label, attrs, position in objects
            )
            ids = {n.id for n in nodes}
            edges = tuple(
                SemanticEdge(s, t, taxonomy.relationship_index(name))
                for s, t, name in rels
                if s in ids and t in ids and s != t
            )
            scans.append(
                SceneGraph(
                    environment_id=env_id,
                    scan_id=scan_id,
                    timestamp=t,
                    taxonomy_name=taxonomy.name,
                    nodes=nodes,
                    semantic_edges=edges,
                )
            )
        environments[env_id] = scans
    return DatasetBundle(taxonomy, environments, dict.fromkeys(environments, "train")), tuple(skipped)
