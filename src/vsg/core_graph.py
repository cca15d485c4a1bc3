"""Scene-graph data model, taxonomies, and versioned JSON serialization.

A scene graph is a set of object nodes (semantic class, attribute set, world
position) plus directed typed relationship edges between them. Taxonomies pin
the canonical ordering of class / attribute / relationship names, so files
store names while the in-memory model works with indices.

All types are immutable after construction and safe to share across threads.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, fields
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import (
    ConfigError,
    ObjectLookupError,
    ParseError,
    TaxonomyError,
)

FORMAT_VERSION = 1

ATTRIBUTE_KINDS = ("static", "state", "affordance")

MAX_COORDINATE = 1e9  # meters; any squared distance then stays at most 12 * MAX_COORDINATE**2


def _check_unique(names: Sequence[str], what: str) -> None:
    seen = set()
    for n in names:
        if n in seen:
            raise TaxonomyError(f"duplicate {what} name: {n!r}")
        seen.add(n)


@dataclass(frozen=True)
class Taxonomy:
    """Canonical ordering of class, attribute, and relationship names.

    Each attribute carries a kind: "static" (color, material), "state"
    (open/closed, on/off; the only kind that can trigger state variability),
    or "affordance" (sittable, openable).
    """

    name: str
    classes: tuple[str, ...]
    attributes: tuple[tuple[str, str], ...]  # (name, kind)
    relationships: tuple[str, ...]

    def __post_init__(self):
        if not self.classes or not self.attributes or not self.relationships:
            raise TaxonomyError(
                f"taxonomy {self.name!r}: classes, attributes and relationships "
                "must all be non-empty"
            )
        _check_unique(self.classes, "class")
        _check_unique([a[0] for a in self.attributes], "attribute")
        _check_unique(self.relationships, "relationship")
        for attr_name, kind in self.attributes:
            if kind not in ATTRIBUTE_KINDS:
                raise TaxonomyError(
                    f"attribute {attr_name!r} has unknown kind {kind!r}; "
                    f"expected one of {ATTRIBUTE_KINDS}"
                )
        if not any(kind == "state" for _, kind in self.attributes):
            raise TaxonomyError(
                f"taxonomy {self.name!r} has no state-kind attribute; "
                "state variability would be undefined"
            )
        object.__setattr__(self, "_class_index", {c: i for i, c in enumerate(self.classes)})
        object.__setattr__(
            self, "_attribute_index", {a: i for i, (a, _) in enumerate(self.attributes)}
        )
        object.__setattr__(
            self, "_relationship_index", {r: i for i, r in enumerate(self.relationships)}
        )
        object.__setattr__(
            self,
            "_state_indices",
            frozenset(i for i, (_, kind) in enumerate(self.attributes) if kind == "state"),
        )

    @property
    def num_classes(self) -> int:
        return len(self.classes)

    @property
    def num_attributes(self) -> int:
        return len(self.attributes)

    @property
    def num_relationships(self) -> int:
        return len(self.relationships)

    @property
    def state_attribute_indices(self) -> frozenset[int]:
        return self._state_indices  # type: ignore[attr-defined]

    def _lookup(self, index: dict, what: str, name: str) -> int:
        try:
            return index[name]
        except KeyError:
            raise TaxonomyError(f"unknown {what} {name!r} in taxonomy {self.name!r}") from None

    def class_index(self, name: str) -> int:
        return self._lookup(self._class_index, "class", name)  # type: ignore[attr-defined]

    def attribute_index(self, name: str) -> int:
        return self._lookup(self._attribute_index, "attribute", name)  # type: ignore[attr-defined]

    def relationship_index(self, name: str) -> int:
        return self._lookup(self._relationship_index, "relationship", name)  # type: ignore[attr-defined]


def check_position(raw, error=ValueError, what: str = "position") -> tuple[float, float, float]:
    """The one position rule: three real numbers (no bools, no text), each of
    magnitude at most MAX_COORDINATE, as floats; else `error` naming `what`."""
    pos = tuple(raw)
    real = [isinstance(c, (float, int, np.floating, np.integer)) and not isinstance(c, bool) for c in pos]
    if len(pos) != 3 or not all(real) or not all(abs(c) <= MAX_COORDINATE for c in pos):
        raise error(f"{what} must be 3 finite numbers of magnitude <= {MAX_COORDINATE:g} m, got {raw!r}")
    return tuple(map(float, pos))


@dataclass(frozen=True)
class ObjectNode:
    """One object instance: class, attribute set, and world-frame position.

    The id is stable across scans of the same environment; matching between
    scans is done purely on id equality.
    """

    id: str
    class_index: int
    attribute_indices: tuple[int, ...]
    position: tuple[float, float, float]

    def __post_init__(self):
        attrs = tuple(sorted(set(self.attribute_indices)))
        object.__setattr__(self, "attribute_indices", attrs)
        position = check_position(self.position, ParseError, f"node {self.id!r} position")
        object.__setattr__(self, "position", position)


@dataclass(frozen=True)
class SemanticEdge:
    """Directed typed relationship edge between two object ids."""

    source_id: str
    target_id: str
    relation_index: int

    def __post_init__(self):
        if self.source_id == self.target_id:
            raise ParseError(f"self-edge on node {self.source_id!r} is not allowed")


@dataclass(frozen=True)
class SceneGraph:
    """One scan of one environment: nodes plus semantic edges.

    Timestamps are scan ordinals, not wall-clock. Node order is significant
    and preserved by serialization.
    """

    environment_id: str
    scan_id: str
    timestamp: int
    taxonomy_name: str
    nodes: tuple[ObjectNode, ...] = ()
    semantic_edges: tuple[SemanticEdge, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "nodes", tuple(self.nodes))
        object.__setattr__(self, "semantic_edges", tuple(self.semantic_edges))
        index_of: dict[str, int] = {}
        for i, node in enumerate(self.nodes):
            if node.id in index_of:
                raise ParseError(
                    f"scan {self.scan_id!r}: duplicate node id {node.id!r}"
                )
            index_of[node.id] = i
        for edge in self.semantic_edges:
            for endpoint in (edge.source_id, edge.target_id):
                if endpoint not in index_of:
                    raise ParseError(
                        f"scan {self.scan_id!r}: edge endpoint {endpoint!r} "
                        "does not resolve to a node"
                    )
        object.__setattr__(self, "_index_of", index_of)

    @property
    def num_nodes(self) -> int:
        return len(self.nodes)

    @property
    def num_edges(self) -> int:
        return len(self.semantic_edges)

    @property
    def node_ids(self) -> tuple[str, ...]:
        return tuple(n.id for n in self.nodes)

    def has_node(self, object_id: str) -> bool:
        return object_id in self._index_of  # type: ignore[attr-defined]

    def node(self, object_id: str) -> ObjectNode:
        return self.nodes[self.node_index(object_id)]

    def node_index(self, object_id: str) -> int:
        try:
            return self._index_of[object_id]  # type: ignore[attr-defined]
        except KeyError:
            raise ObjectLookupError(
                f"unknown object id {object_id!r} in scan {self.scan_id!r}"
            ) from None

    def positions(self) -> np.ndarray:
        """Node positions as an (N, 3) float array, in node order."""
        return node_positions(self.nodes)


def node_positions(nodes: Iterable[ObjectNode]) -> np.ndarray:
    """The one position-array builder: (N, 3) float64, in the given order."""
    return np.array([n.position for n in nodes], dtype=np.float64).reshape(-1, 3)


def distance(a, b) -> np.ndarray:
    """Euclidean distance between a and b along the last axis, broadcast.

    The one distance rule of the package: sqrt of a plain sum of squares,
    the same bits as np.linalg.norm(a - b, axis=-1) and free of BLAS, whose
    dot product rounds differently from build to build.
    """
    d = np.subtract(a, b, dtype=np.float64)
    return np.sqrt((d * d).sum(axis=-1))


def _attribute_indicators(nodes: Sequence[ObjectNode], tax: Taxonomy) -> np.ndarray:
    """(N, |A|) bool: node i holds the a-th attribute of `tax`."""
    held = np.zeros((len(nodes), tax.num_attributes), dtype=bool)
    rows = [i for i, node in enumerate(nodes) for _ in node.attribute_indices]
    held[rows, [a for node in nodes for a in node.attribute_indices]] = True
    return held


# ---------------------------------------------------------------------------
# Serialization. Files carry names, not indices; the writer emits a canonical
# key order and sorted attribute lists so that save(load(f)) is byte-identical
# for canonically written files.
# ---------------------------------------------------------------------------

# What reading a missing field or a wrongly typed value out of parsed JSON raises.
_BAD_FIELD = (LookupError, TypeError, ValueError, ArithmeticError, AttributeError)


def _read_json(path, what: str, error=ParseError, expect=dict):
    """The one JSON file reader: a missing or unreadable file, bad UTF-8,
    invalid JSON or a top level that is not an `expect` becomes one `error`
    naming the path."""
    try:
        with open(path, "r", encoding="utf-8") as f:
            data = json.load(f)
    except FileNotFoundError:
        raise error(f"{what} file not found: {path}") from None
    except OSError as e:  # a directory, no permission, an I/O fault
        raise error(f"{path}: cannot read {what} file: {e.strerror or e}") from None
    except json.JSONDecodeError as e:
        raise error(f"{path}: invalid JSON at line {e.lineno}: {e.msg}") from None
    except (ValueError, RecursionError) as e:  # bad UTF-8, an integer of over 4300 digits, deep nesting
        raise error(f"{path}: unreadable JSON text: {e}") from None
    if not isinstance(data, expect):
        raise error(f"{path}: expected a JSON {'list' if expect is list else 'object'} at top level")
    return data


def _parse_rows(source, rows, what: str, build: Callable) -> list:
    """`build(row)` for each row of a JSON list; a missing field or a bad value
    in row k becomes one ParseError naming `what k`."""
    if not isinstance(rows, list):
        raise ParseError(f"{source}: expected a JSON list of {what}s, got {type(rows).__name__}")
    out = []
    try:
        for k, row in enumerate(rows):
            out.append(build(row))
    except KeyError as e:
        raise ParseError(f"{source}: {what} {k}: missing field {e.args[0]!r}") from e
    except _BAD_FIELD as e:
        raise ParseError(f"{source}: {what} {k}: {e}") from e
    return out


def _fits(value, annotation: str, default) -> bool:
    """Whether a parsed JSON value has a type its dataclass field names: an
    integer for `int`, a finite number for `float`, a list as long as the
    default (element by element) for `tuple[...]`, or a str, bool, null or dict."""
    for kind in annotation.split(" | "):
        if kind.startswith("tuple"):
            ok = isinstance(value, (list, tuple)) and len(value) == len(default) and all(
                _fits(v, "tuple" if isinstance(d, tuple) else "float", d) for v, d in zip(value, default)
            )
        elif kind in ("int", "float"):
            ok = not isinstance(value, bool) and isinstance(value, numbers.Integral) or (
                kind == "float" and isinstance(value, float) and math.isfinite(value)
            )
        else:
            ok = isinstance(value, {"str": str, "bool": bool, "None": type(None)}.get(kind, dict))
        if ok:
            return True
    return False


def _config_from_json(cls, data, where: str):
    """Dataclass `cls` from a JSON object, once every key names a field and
    every value fits that field's annotation; a ConfigError, also one raised
    by the dataclass itself, names `where`."""
    if not isinstance(data, dict):
        raise ConfigError(f"{where} must be a JSON object")
    by_name = {f.name: f for f in fields(cls)}
    for key, value in data.items():
        f = by_name.get(key)
        if f is None:
            raise ConfigError(f"{where}: unknown field {key!r}")
        if not _fits(value, f.type, f.default):
            raise ConfigError(f"{where}: field {key!r} must be {f.type}, got {value!r}")
    try:
        return cls(**{k: tuple(v) if by_name[k].type.startswith("tuple") else v for k, v in data.items()})
    except ConfigError as e:  # a range check in the dataclass's __post_init__
        raise ConfigError(f"{where}: {e}") from None


def taxonomy_to_dict(tax: Taxonomy) -> dict:
    return {
        "name": tax.name,
        "classes": list(tax.classes),
        "attributes": [{"name": n, "kind": k} for n, k in tax.attributes],
        "relationships": list(tax.relationships),
    }


def taxonomy_from_dict(data: dict, source: str = "<dict>") -> Taxonomy:
    try:
        return Taxonomy(
            name=str(data["name"]),
            classes=tuple(str(c) for c in data["classes"]),
            attributes=tuple((str(a["name"]), str(a["kind"])) for a in data["attributes"]),
            relationships=tuple(str(r) for r in data["relationships"]),
        )
    except _BAD_FIELD as e:
        raise ParseError(f"{source}: malformed taxonomy file ({e!r})") from e


def save_taxonomy(tax: Taxonomy, path) -> None:
    with open(path, "w", encoding="utf-8") as f:
        json.dump(taxonomy_to_dict(tax), f, indent=2)
        f.write("\n")


def load_taxonomy(path) -> Taxonomy:
    return taxonomy_from_dict(_read_json(path, "taxonomy"), source=str(path))


def scene_graph_to_dict(g: SceneGraph, tax: Taxonomy) -> dict:
    if g.taxonomy_name != tax.name:
        raise TaxonomyError(
            f"graph uses taxonomy {g.taxonomy_name!r} but {tax.name!r} was supplied"
        )
    nodes = []
    for node in g.nodes:
        nodes.append(
            {
                "id": node.id,
                "class": tax.classes[node.class_index],
                "attributes": [tax.attributes[i][0] for i in node.attribute_indices],
                "position": list(node.position),
            }
        )
    edges = []
    for edge in g.semantic_edges:
        edges.append(
            {
                "source": edge.source_id,
                "target": edge.target_id,
                "relation": tax.relationships[edge.relation_index],
            }
        )
    return {
        "format_version": FORMAT_VERSION,
        "environment_id": g.environment_id,
        "scan_id": g.scan_id,
        "timestamp": g.timestamp,
        "taxonomy": tax.name,
        "nodes": nodes,
        "edges": edges,
    }


def scene_graph_from_dict(data: dict, tax: Taxonomy, source: str = "<dict>") -> SceneGraph:
    if not isinstance(data, dict):
        raise ParseError(f"{source}: expected a JSON object at top level")
    version = data.get("format_version")
    if version != FORMAT_VERSION:
        raise ParseError(
            f"{source}: unsupported format_version {version!r} (expected {FORMAT_VERSION})"
        )
    tax_name = data.get("taxonomy")
    if tax_name != tax.name:
        raise TaxonomyError(
            f"{source}: file uses taxonomy {tax_name!r} but {tax.name!r} was supplied"
        )
    nodes = _parse_rows(source, data.get("nodes", []), "node", lambda raw: ObjectNode(
        id=str(raw["id"]),
        class_index=tax.class_index(raw["class"]),
        attribute_indices=tuple(tax.attribute_index(a) for a in raw["attributes"]),
        position=tuple(raw["position"]),
    ))
    edges = _parse_rows(source, data.get("edges", []), "edge", lambda raw: SemanticEdge(
        source_id=str(raw["source"]),
        target_id=str(raw["target"]),
        relation_index=tax.relationship_index(raw["relation"]),
    ))
    try:
        return SceneGraph(
            environment_id=str(data["environment_id"]),
            scan_id=str(data["scan_id"]),
            timestamp=int(data["timestamp"]),
            taxonomy_name=tax.name,
            nodes=tuple(nodes),
            semantic_edges=tuple(edges),
        )
    except KeyError as e:
        raise ParseError(f"{source}: missing field {e.args[0]!r}") from e
    except _BAD_FIELD as e:
        raise ParseError(f"{source}: field 'timestamp': {e}") from e


def scene_graph_to_json(g: SceneGraph, tax: Taxonomy) -> str:
    return json.dumps(scene_graph_to_dict(g, tax), indent=2) + "\n"


def save_scene_graph(g: SceneGraph, tax: Taxonomy, path) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write(scene_graph_to_json(g, tax))


def load_scene_graph(path, tax: Taxonomy) -> SceneGraph:
    return scene_graph_from_dict(_read_json(path, "scene"), tax, source=str(path))
