"""Scene-graph data model, taxonomies, and versioned JSON serialization.

A scene graph is a set of object nodes (semantic class, attribute set, world
position) plus directed typed relationship edges between them. Taxonomies pin
the canonical ordering of class / attribute / relationship names, so files
store names while the in-memory model works with indices.

All types are immutable after construction and safe to share across threads.
"""

from __future__ import annotations

import csv
import json
import math
import numbers
import sys
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
    magnitude at most MAX_COORDINATE, as floats; else `error` naming `what`.
    A tuple of three such plain floats is returned as it is."""
    if type(raw) is tuple and len(raw) == 3:
        x, y, z = raw
        if type(x) is type(y) is type(z) is float and (  # NaN fails here and below
            abs(x) <= MAX_COORDINATE and abs(y) <= MAX_COORDINATE and abs(z) <= MAX_COORDINATE
        ):
            return raw
    pos = tuple(raw)
    if len(pos) != 3 or not all(_fits(c, "float") and abs(c) <= MAX_COORDINATE for c in pos):
        raise error(f"{what} must be 3 finite numbers of magnitude <= {MAX_COORDINATE:g} m, got {raw!r}")
    return tuple(map(float, pos))


def check_count(value, low: int, what: str) -> int:
    """The one count rule (reals have check_real, flags check_flag): a Python or numpy integer
    (no bool, float or NaN) >= `low`, returned as a Python int (what the JSON writer takes);
    else a ConfigError naming `what`."""
    if not _fits(value, "int"):
        raise ConfigError(f"{what} must be an integer, got {value!r}")
    if value < low:
        raise ConfigError(f"{what} must be >= {low}, got {value!r}")
    return int(value)


def check_real(value, low: float, high: float, what: str, ends: str = "[]") -> float:
    """The one real-number rule: a finite int, float or numpy number (no bool, text or NaN)
    in the interval `ends` of low and high ("(]" leaves low out), returned as a Python float;
    else a ConfigError naming `what` and the bound. A `high` of inf asks only for a finite value."""
    if _fits(value, "float"):
        x = float(value)
        if (low < x if ends[0] == "(" else low <= x) and (x < high if ends[1] == ")" else x <= high):
            return x
    if high == math.inf:
        bound = f"finite and {'>' if ends[0] == '(' else '>='} {low:g}"
    else:
        bound = f"in {ends[0]}{low:g}, {high:g}{ends[1]}"
    raise ConfigError(f"{what} must be {bound}, got {value!r}")


def check_flag(value, what: str) -> bool:
    """The one flag rule: a Python or numpy bool (not 0, 1 or text), as a Python bool; else a ConfigError."""
    if not _fits(value, "bool"):
        raise ConfigError(f"{what} must be true or false, got {value!r}")
    return bool(value)


def check_length(value, n: int, what: str) -> tuple:
    """A list or tuple of `n` items (each left to its own rule), as a tuple; else a ConfigError."""
    if not isinstance(value, (list, tuple)) or len(value) != n:
        raise ConfigError(f"{what} must be a list of {n} values, got {value!r}")
    return tuple(value)


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
        object.__setattr__(self, "_node_ids", tuple(index_of))

    @property
    def num_nodes(self) -> int:
        return len(self.nodes)

    @property
    def num_edges(self) -> int:
        return len(self.semantic_edges)

    @property
    def node_ids(self) -> tuple[str, ...]:
        """Node ids in node order, one tuple built at construction."""
        return self._node_ids  # type: ignore[attr-defined]

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


def _encode_json(data, indent: int | None = None) -> str:
    """The one JSON encoder: strict JSON, so a NaN or an infinity raises ValueError."""
    return json.dumps(data, indent=indent, allow_nan=False) + "\n"


def _write_text(path, text: str) -> None:
    """The one text file writer; the text is built first, so a refused value leaves no file."""
    with open(path, "w", encoding="utf-8") as f:
        f.write(text)


def _write_csv(path, header: Sequence, rows: Iterable[Sequence]) -> None:
    """The one CSV writer: the header row, then the data rows."""
    with open(path, "w", encoding="utf-8", newline="") as f:
        csv.writer(f).writerows([header, *rows])


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


def _fits(value, kind: str, *_) -> bool:
    """The type test of check_count ("int": an integer), check_real ("float": a real of magnitude
    at most the largest float, so not NaN or inf) and check_flag ("bool": a Python or numpy bool)."""
    if isinstance(value, float):  # float and np.float64, the common cases, ahead of the slower ABC tests
        return kind == "float" and math.isfinite(value)
    if kind == "bool" or isinstance(value, bool):  # a bool is a flag, never a number
        return kind == "bool" and isinstance(value, (bool, np.bool_))
    if isinstance(value, numbers.Integral):  # compared exactly, as it may not fit a float
        return kind == "int" or -sys.float_info.max <= value <= sys.float_info.max
    return kind == "float" and isinstance(value, numbers.Real) and math.isfinite(value)


def _config_from_json(cls, data, where: str):
    """Dataclass `cls` from a JSON object whose every key names a field; the
    dataclass checks each value, and its ConfigError is raised naming `where`."""
    if not isinstance(data, dict):
        raise ConfigError(f"{where} must be a JSON object")
    names = {f.name for f in fields(cls)}
    unknown = [key for key in data if key not in names]
    if unknown:
        raise ConfigError(f"{where}: unknown field {unknown[0]!r}")
    try:
        return cls(**data)
    except ConfigError as e:
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
    _write_text(path, _encode_json(taxonomy_to_dict(tax), indent=2))


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
    return _encode_json(scene_graph_to_dict(g, tax), indent=2)


def save_scene_graph(g: SceneGraph, tax: Taxonomy, path) -> None:
    _write_text(path, scene_graph_to_json(g, tax))


def load_scene_graph(path, tax: Taxonomy) -> SceneGraph:
    return scene_graph_from_dict(_read_json(path, "scene"), tax, source=str(path))
