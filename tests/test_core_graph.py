"""Scene graph data model, the position rule, and JSON round trips."""

import ast
import json
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings

from vsg import (
    ObjectLookupError,
    ObjectNode,
    ParseError,
    SceneGraph,
    SemanticEdge,
    Taxonomy,
    TaxonomyError,
    load_scene_graph,
    save_scene_graph,
    scene_graph_from_dict,
    scene_graph_to_dict,
    scene_graph_to_json,
)
from vsg.core_graph import (
    MAX_COORDINATE,
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
