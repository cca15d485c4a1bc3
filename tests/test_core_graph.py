"""Scene graph data model and JSON round trips."""

import json

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
from vsg.core_graph import load_taxonomy, save_taxonomy, taxonomy_from_dict, taxonomy_to_dict

from conftest import make_graph, make_node, tiny_graphs


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
