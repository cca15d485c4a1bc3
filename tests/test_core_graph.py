"""Scene graph data model, the position rule, and JSON round trips."""

import ast
import dataclasses
import json
import math
import re
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings

from vsg import (
    ClassPropensity,
    ConfigError,
    EdgeConfig,
    GeneratorConfig,
    LabelConfig,
    LossConfig,
    ModelConfig,
    ObjectLookupError,
    ObjectNode,
    ParseError,
    SceneGraph,
    SemanticEdge,
    Taxonomy,
    TaxonomyError,
    TrainConfig,
    load_scene_graph,
    save_scene_graph,
    scene_graph_from_dict,
    scene_graph_to_dict,
    scene_graph_to_json,
)
from vsg.core_graph import (
    MAX_COORDINATE,
    _config_from_json,
    _fits,
    check_count,
    check_flag,
    check_position,
    check_real,
    distance,
    load_taxonomy,
    node_positions,
    save_taxonomy,
    taxonomy_from_dict,
    taxonomy_to_dict,
)

from conftest import MAGNITUDES, make_graph, make_node, tiny_graphs

SRC = Path(__file__).resolve().parents[1] / "src" / "vsg"


class TestTaxonomy:
    def test_lookup_round_trip(self, tiny_tax):
        assert tiny_tax.class_index("cup") == 1
        assert tiny_tax.attribute_index("open") == 1
        assert tiny_tax.relationship_index("next_to") == 1
        assert tiny_tax.num_classes == 3
        assert tiny_tax.num_attributes == 4
        assert tiny_tax.num_relationships == 2

    def test_state_attribute_indices(self, tiny_tax):
        assert tiny_tax.state_attribute_indices == frozenset({1, 2})

    def test_unknown_names_raise(self, tiny_tax):
        with pytest.raises(TaxonomyError):
            tiny_tax.class_index("spaceship")
        with pytest.raises(TaxonomyError):
            tiny_tax.attribute_index("glowing")
        with pytest.raises(TaxonomyError):
            tiny_tax.relationship_index("orbiting")

    def test_duplicate_names_rejected(self):
        with pytest.raises(TaxonomyError):
            Taxonomy("t", ("a", "a"), (("open", "state"),), ("r",))

    def test_empty_sections_rejected(self):
        with pytest.raises(TaxonomyError):
            Taxonomy("t", (), (("open", "state"),), ("r",))

    def test_unknown_attribute_kind_rejected(self):
        with pytest.raises(TaxonomyError):
            Taxonomy("t", ("a",), (("open", "weird"),), ("r",))

    def test_needs_a_state_attribute(self):
        with pytest.raises(TaxonomyError):
            Taxonomy("t", ("a",), (("wooden", "static"),), ("r",))

    def test_serialization_round_trip(self, tiny_tax, tmp_path):
        d = taxonomy_to_dict(tiny_tax)
        assert taxonomy_from_dict(d) == tiny_tax
        path = tmp_path / "tax.json"
        save_taxonomy(tiny_tax, path)
        assert load_taxonomy(path) == tiny_tax

    def test_malformed_taxonomy_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"name": "x"}')
        with pytest.raises(ParseError):
            load_taxonomy(path)


class TestNodesAndEdges:
    def test_attribute_indices_normalized(self):
        node = make_node("a", attrs=(3, 1, 3, 0))
        assert node.attribute_indices == (0, 1, 3)

    def test_position_must_be_finite(self):
        with pytest.raises(ParseError):
            make_node("a", pos=(0.0, float("nan"), 0.0))
        with pytest.raises(ParseError):
            make_node("a", pos=(0.0, 1.0))

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    @pytest.mark.parametrize("v", MAGNITUDES)
    def test_position_magnitude_is_bounded(self, v, sign):
        for axis in range(3):
            pos = [0.0, 0.0, 0.0]
            pos[axis] = sign * v
            if v <= MAX_COORDINATE:
                node = make_node("a", pos=tuple(pos))
                assert node.position == tuple(pos)
                pts = node_positions([node, make_node("b", pos=tuple(-c for c in pos))])
                assert pts.shape == (2, 3) and np.isfinite(distance(pts[0], pts[1]))
            else:
                with pytest.raises(ParseError, match="'a' position"):
                    make_node("a", pos=tuple(pos))

    @pytest.mark.parametrize("pos", [("1.5", True, "2"), (1.5, True, 2.0), (1.5, np.True_, 2.0),
                                     (0.0, None, 0.0), (0.0, 0.0, 0.0, 0.0), (10**400, 0, 0), "abc"])
    def test_position_must_be_three_real_numbers(self, pos):
        with pytest.raises(ParseError):
            make_node("a", pos=pos)

    def test_position_is_stored_as_floats(self):
        node = make_node("a", pos=(np.int64(1), np.float32(0.5), 2))
        assert node.position == (1.0, 0.5, 2.0) and all(type(c) is float for c in node.position)

    def test_fast_path_matches_the_rule(self):
        # check_position returns a tuple of three plain floats as it is; on
        # every input it must accept and refuse as the general rule does.
        def rule(raw):
            pos = tuple(raw)
            real = [isinstance(c, (float, int, np.floating, np.integer)) and not isinstance(c, bool)
                    for c in pos]
            if len(pos) != 3 or not all(real) or not all(abs(c) <= MAX_COORDINATE for c in pos):
                raise ValueError(f"position must be 3 finite numbers of magnitude <= {MAX_COORDINATE:g} m, "
                                 f"got {raw!r}")
            return tuple(map(float, pos))

        edges = [MAX_COORDINATE, -MAX_COORDINATE, math.nextafter(MAX_COORDINATE, math.inf),
                 math.nextafter(-MAX_COORDINATE, -math.inf)]
        specials = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324]
        values = edges + specials + [1.5, -2.25]
        inputs = [(v, 0.0, 0.0) for v in values] + [(0.0, v, 0.0) for v in values]
        inputs += [(1.0, 2.0, v) for v in values] + [tuple(map(np.float64, (v, 0.0, 0.0))) for v in values]
        inputs += [
            (1.0, True, 2.0), (False, 0.0, 0.0), (1.0, 2.0, True), (np.True_, 0.0, 0.0), (1, 2, 3),
            (1.0, 2, 3.0), (1.0, 2.0, 3), (1.0, 2.0, np.float64(3.0)), (np.float64(1.0), 2.0, 3.0),
            (np.int64(4), 0.0, 0.0), (np.float32(0.5), 0.0, 0.0), [1.0, 2.0, 3.0], [math.nan, 0.0, 0.0],
            np.array([1.0, 2.0, 3.0]), (1.0, 2.0), (1.0, 2.0, 3.0, 4.0), (), (1.0, "2", 3.0),
            (1.0, None, 3.0),
        ]
        for raw in inputs:
            try:
                want = rule(raw)
            except ValueError as e:
                with pytest.raises(ValueError) as got:
                    check_position(raw)
                assert str(got.value) == str(e), raw
                continue
            got = check_position(raw)
            assert type(got) is tuple and all(type(c) is float for c in got), raw
            assert [c.hex() for c in got] == [c.hex() for c in want], raw
            if type(raw) is tuple and all(type(c) is float for c in raw):
                assert got is raw

    def test_self_edge_rejected(self):
        with pytest.raises(ParseError):
            SemanticEdge("a", "a", 0)


class TestSceneGraph:
    def test_duplicate_ids_rejected(self):
        with pytest.raises(ParseError):
            make_graph([make_node("a"), make_node("a")])

    def test_edge_endpoints_must_exist(self):
        with pytest.raises(ParseError):
            make_graph([make_node("a")], edges=[SemanticEdge("a", "ghost", 0)])

    def test_lookup(self, small_graph):
        assert small_graph.node("obj001").class_index == 1
        assert small_graph.node_index("obj002") == 2
        with pytest.raises(ObjectLookupError):
            small_graph.node("missing")
        with pytest.raises(ObjectLookupError):
            small_graph.node_index("missing")

    def test_positions_matrix(self, small_graph):
        pos = small_graph.positions()
        assert pos.shape == (4, 3)
        npt.assert_allclose(pos[1], [1.2, 1.1, 0.8])

    def test_node_ids_built_once(self, tiny_tax, small_graph, tmp_path):
        # One tuple per graph, built at construction; it is not a field, so
        # equality, hashing and dataclasses.replace see the nodes alone.
        ids = small_graph.node_ids
        assert ids is small_graph.node_ids
        assert ids == tuple(n.id for n in small_graph.nodes)
        same = dataclasses.replace(small_graph)
        assert same == small_graph and hash(same) == hash(small_graph)
        assert same.node_ids == ids and same.node_ids is same.node_ids
        flipped = dataclasses.replace(small_graph, nodes=small_graph.nodes[::-1])
        assert flipped.node_ids == ids[::-1]
        assert [flipped.node_index(oid) for oid in flipped.node_ids] == list(range(len(ids)))
        save_scene_graph(flipped, tiny_tax, tmp_path / "g.json")
        loaded = load_scene_graph(tmp_path / "g.json", tiny_tax)
        assert loaded == flipped and loaded.node_ids == flipped.node_ids


class TestSerialization:
    def test_round_trip_preserves_everything(self, tiny_tax, small_graph):
        d = scene_graph_to_dict(small_graph, tiny_tax)
        assert d["format_version"] == 1
        back = scene_graph_from_dict(d, tiny_tax)
        assert back == small_graph

    def test_file_round_trip_bytes(self, tiny_tax, small_graph, tmp_path):
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        save_scene_graph(small_graph, tiny_tax, p1)
        loaded = load_scene_graph(p1, tiny_tax)
        save_scene_graph(loaded, tiny_tax, p2)
        assert p1.read_bytes() == p2.read_bytes()

    @settings(max_examples=50)
    @given(g=tiny_graphs())
    def test_round_trip_property(self, g):
        tax = Taxonomy(
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
        text = scene_graph_to_json(g, tax)
        back = scene_graph_from_dict(json.loads(text), tax)
        assert back == g
        assert scene_graph_to_json(back, tax) == text

    def test_names_not_indices_on_disk(self, tiny_tax, small_graph):
        d = scene_graph_to_dict(small_graph, tiny_tax)
        assert d["nodes"][1]["class"] == "cup"
        assert d["nodes"][1]["attributes"] == ["movable"]
        assert d["edges"][0]["relation"] == "standing_on"

    def test_taxonomy_name_mismatch_rejected(self, tiny_tax, small_graph):
        d = scene_graph_to_dict(small_graph, tiny_tax)
        d["taxonomy"] = "other"
        with pytest.raises(TaxonomyError):
            scene_graph_from_dict(d, tiny_tax)

    def test_format_version_checked(self, tiny_tax, small_graph):
        d = scene_graph_to_dict(small_graph, tiny_tax)
        d["format_version"] = 99
        with pytest.raises(ParseError):
            scene_graph_from_dict(d, tiny_tax)

    def test_missing_field_names_the_field(self, tiny_tax, small_graph):
        d = scene_graph_to_dict(small_graph, tiny_tax)
        del d["nodes"][0]["position"]
        with pytest.raises(ParseError, match="position"):
            scene_graph_from_dict(d, tiny_tax)

    def test_invalid_json_names_line(self, tiny_tax, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"format_version": 1,\n  "oops"')
        with pytest.raises(ParseError, match="line"):
            load_scene_graph(path, tiny_tax)


class TestCheckCount:
    def test_refuses_what_the_json_reader_refuses(self):
        values = [0, 7, -3, 10**30, np.int64(5), np.int32(-2), np.uint8(3), True, False, np.True_, 2.5, 3.0,
                  np.float64(4.0), math.nan, math.inf, "3", None, [1]]
        for value in values:
            if _fits(value, "int", None):
                check_count(value, -(10**40), "x")
            else:
                with pytest.raises(ConfigError, match=r"^x must be an integer, got "):
                    check_count(value, -(10**40), "x")

    @pytest.mark.parametrize("value, low", [(0, 1), (-1, 0), (np.int64(3), 4)])
    def test_below_low_names_the_setting_and_the_bound(self, value, low):
        with pytest.raises(ConfigError, match=rf"^size must be >= {low}, got "):
            check_count(value, low, "size")

    @pytest.mark.parametrize("cls", [GeneratorConfig, TrainConfig, ModelConfig])
    def test_every_integer_config_field_keeps_the_count_rule(self, cls):
        # A new `int` field that skips check_count fails here.
        counts = [f for f in dataclasses.fields(cls) if f.type in ("int", "int | None")]
        assert counts, cls
        for f in counts:
            for bad in (math.nan, 2.5, True):
                with pytest.raises(ConfigError, match=f.name):
                    cls(**{f.name: bad})
            kept = getattr(cls(**{f.name: np.int64(f.default)}), f.name)
            assert kept == f.default and type(kept) is int, (f.name, kept)


# One mixed list for every rule: Python and numpy numbers, bools, NaN, +-inf,
# an int too large for a float, text, None and containers.
RULE_VALUES = [0, 7, -3, 10**30, 10**400, np.int64(5), np.int32(-2), np.uint8(3), True, False, np.True_,
               np.False_, 2.5, -0.0, 3.0, np.float16(2), np.float32(1.5), np.float64(4.0), math.nan,
               np.float64("nan"), math.inf, -math.inf, np.float32("inf"), "3", "0.5", None, [1], (0.5,), {}, 1 + 2j]


class TestCheckReal:
    def test_refuses_what_the_float_test_refuses(self):
        for value in RULE_VALUES:
            if _fits(value, "float"):
                got = check_real(value, -math.inf, math.inf, "x")
                assert type(got) is float and got == float(value), value
            else:
                with pytest.raises(ConfigError, match=r"^x must be finite and >= -inf, got "):
                    check_real(value, -math.inf, math.inf, "x")

    def test_float_test_is_a_finite_real_that_is_no_bool(self):
        accepted = [v for v in RULE_VALUES if _fits(v, "float")]
        assert accepted == [0, 7, -3, 10**30, np.int64(5), np.int32(-2), np.uint8(3), 2.5, -0.0, 3.0,
                            np.float16(2), np.float32(1.5), np.float64(4.0)]

    @pytest.mark.parametrize("value, low, high, ends, bound", [
        (0.0, 0, math.inf, "(]", "finite and > 0"),
        (-1, 0, math.inf, "[]", "finite and >= 0"),
        (1.0, 0, 1, "[)", "in [0, 1)"),
        (2, 0, 1, "[]", "in [0, 1]"),
        (0.0, 0, 5, "(]", "in (0, 5]"),
        (np.float32(2e9), 0.6, 1e9, "[]", "in [0.6, 1e+09]"),
    ])
    def test_out_of_range_names_the_setting_and_the_bound(self, value, low, high, ends, bound):
        with pytest.raises(ConfigError, match=rf"^size must be {re.escape(bound)}, got {re.escape(repr(value))}$"):
            check_real(value, low, high, "size", ends)

    def test_closed_ends_are_kept(self):
        assert check_real(0, 0, 1, "p") == 0.0 and check_real(1, 0, 1, "p") == 1.0
        assert check_real(np.float64(0.5), 0, 1, "p", "()") == 0.5


class TestCheckFlag:
    def test_refuses_what_the_bool_test_refuses(self):
        for value in RULE_VALUES:
            if _fits(value, "bool"):
                got = check_flag(value, "x")
                assert type(got) is bool and got == value, value
            else:
                with pytest.raises(ConfigError, match=r"^x must be true or false, got "):
                    check_flag(value, "x")

    def test_message_names_the_setting_and_the_value(self):
        with pytest.raises(ConfigError, match=r"^switch must be true or false, got 0$"):
            check_flag(0, "switch")


# Every config class whose fields come from JSON or a library call.
CONFIG_CLASSES = [LabelConfig, LossConfig, TrainConfig, ClassPropensity, GeneratorConfig, EdgeConfig, ModelConfig]
# Field types with a rule elsewhere: counts (TestCheckCount), the model kind, tau (a preset or meters;
# TestModelConfig in test_model.py) and the overrides (test_dataset.py). Any other type is new.
OTHER_FIELD_TYPES = {"int", "int | None", "str", "float | str", "dict[str, ClassPropensity]"}


def _bad_values(default):
    """Values the field of `default` must refuse: NaN, text and None; True for a
    number and 1 for a flag; and, in a tuple, a wrong length or a bad item."""
    yield from (math.nan, "0.5", None)
    if isinstance(default, tuple):
        yield from (default[:-1], default + default[:1])
        for i, item in enumerate(default):
            yield from (default[:i] + (bad,) + default[i + 1:] for bad in _bad_values(item))
    else:
        yield 1 if isinstance(default, bool) else True


def _as_json(value):
    return [_as_json(v) for v in value] if isinstance(value, tuple) else value


def _leaves(value) -> list:
    return [leaf for v in value for leaf in _leaves(v)] if isinstance(value, tuple) else [value]


def _as_numpy(value, real):
    if isinstance(value, tuple):
        return tuple(_as_numpy(v, real) for v in value)
    return np.bool_(value) if isinstance(value, bool) else real(value)


@pytest.mark.parametrize("cls", CONFIG_CLASSES)
def test_every_real_flag_and_tuple_config_field_keeps_its_rule(cls):
    # A new float, bool or tuple field that skips check_real, check_flag or
    # check_length fails here, and so does a field of a type not listed above.
    fields = dataclasses.fields(cls)
    assert {f.type for f in fields} <= OTHER_FIELD_TYPES | {"float", "bool"} | {
        f.type for f in fields if f.type.startswith("tuple[")}, cls
    ruled = [f for f in fields if f.type in ("float", "bool") or f.type.startswith("tuple[")]
    assert ruled, cls
    for f in ruled:
        for bad in _bad_values(f.default):
            with pytest.raises(ConfigError, match=f.name):
                cls(**{f.name: bad})
            with pytest.raises(ConfigError, match=rf"^spec: .*{f.name}"):
                _config_from_json(cls, {f.name: _as_json(bad)}, "spec")
        # float32 items of split_fractions need not sum to 1 within its tolerance.
        for real in (np.float64,) if f.type.startswith("tuple[") else (np.float32, np.float64):
            value = _as_numpy(f.default, real)
            kept = getattr(cls(**{f.name: value}), f.name)
            assert type(kept) is type(f.default) and kept == value, (f.name, kept)
            assert [type(v) for v in _leaves(kept)] == [type(v) for v in _leaves(f.default)], (f.name, kept)


def _position_array_sites(path: Path) -> list[tuple[str, int]]:
    """(file, line) of each `np.array(...)` whose first argument is a
    comprehension over `.position`."""
    return [
        (path.name, node.lineno)
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "array"
        and isinstance(node.func.value, ast.Name) and node.func.value.id == "np" and node.args
        and isinstance(node.args[0], (ast.ListComp, ast.GeneratorExp))
        and isinstance(node.args[0].elt, ast.Attribute) and node.args[0].elt.attr == "position"
    ]


def test_position_arrays_are_built_only_by_node_positions():
    sites = [site for path in sorted(SRC.glob("*.py")) for site in _position_array_sites(path)]
    tree = ast.parse((SRC / "core_graph.py").read_text(encoding="utf-8"))
    builder = next(n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "node_positions")
    assert len(sites) == 1, sites
    assert sites[0][0] == "core_graph.py" and builder.lineno <= sites[0][1] <= builder.end_lineno


def _calls(path: Path) -> list[tuple[str, str | None, str, ast.Call]]:
    """(file, innermost enclosing function, callee text, call) for each call in `path`."""
    found = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call):
                found.append((path.name, owner, ast.unparse(child.func), child))
            visit(child, child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else owner)

    visit(ast.parse(path.read_text(encoding="utf-8")), None)
    return found


def _opens_for_writing(call: ast.Call) -> bool:
    """Whether an `open(...)` call's mode (default "r") may write; a mode that is
    not a literal counts as writing."""
    modes = [*call.args[1:2], *(k.value for k in call.keywords if k.arg == "mode")]
    return any(not isinstance(m, ast.Constant) or any(c in str(m.value) for c in "wax+") for m in modes)


def test_every_file_is_written_through_the_one_encoder_and_the_two_writers():
    calls = [c for path in sorted(SRC.glob("*.py")) for c in _calls(path)]
    encodes = [(name, owner) for name, owner, callee, _ in calls if callee in ("json.dump", "json.dumps")]
    assert encodes == [("cli.py", "_echo_config"), ("core_graph.py", "_encode_json")]
    loose = [(name, call.lineno) for name, _, callee, call in calls if callee == "json.dumps" and not any(
        k.arg == "allow_nan" and isinstance(k.value, ast.Constant) and k.value.value is False
        for k in call.keywords
    )]
    assert loose == []
    writes = [(name, owner, callee) for name, owner, callee, call in calls
              if callee in ("csv.writer", "csv.DictWriter") or callee == "open" and _opens_for_writing(call)]
    assert writes == [("core_graph.py", "_write_text", "open"), ("core_graph.py", "_write_csv", "open"),
                      ("core_graph.py", "_write_csv", "csv.writer")]


# Calls a command may make after its echo: writers and the rows they write.
# Training is the one computation after the echo, so its log names the config.
_AFTER_ECHO = ("save_checkpoint", "_write_text", "_encode_json", "sweep_rows")


def test_every_command_computes_before_its_echo():
    tree = ast.parse((SRC / "cli.py").read_text(encoding="utf-8"))
    imported = {a.asname or a.name for node in tree.body if isinstance(node, ast.ImportFrom) and node.level
                for a in node.names}
    commands = [f for f in tree.body if isinstance(f, ast.FunctionDef) and f.name.startswith("cmd_")]
    assert len(commands) == 6
    late = []
    for command in commands:
        calls = sorted((c for c in ast.walk(command) if isinstance(c, ast.Call)), key=lambda c: c.lineno)
        echoes = [c for c in calls if ast.unparse(c.func) == "_echo_config"]
        assert len(echoes) == 1, command.name
        for call in calls:
            root = call.func
            while isinstance(root, ast.Attribute):
                root = root.value
            name = getattr(root, "id", None)
            if call.lineno > echoes[0].end_lineno and name in imported and not (
                name.startswith("write_") or name in _AFTER_ECHO
                or (command.name, name) == ("cmd_train", "train_prepared")
            ):
                late.append((command.name, call.lineno, name))
    assert late == [], late
