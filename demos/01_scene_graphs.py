"""Build a scene graph by hand, inspect it, and round-trip it through JSON.

Run: python3 demos/01_scene_graphs.py
"""

import json
from dataclasses import replace

import numpy as np

from vsg import (
    ObjectNode,
    SceneGraph,
    SemanticEdge,
    Taxonomy,
    default_taxonomy,
    scene_graph_from_dict,
    scene_graph_to_dict,
    scene_graph_to_json,
)


def main():
    tax = default_taxonomy()
    print(f"taxonomy {tax.name!r}: {len(tax.classes)} classes, "
          f"{len(tax.attributes)} attributes, {tax.num_relationships} relationships")
    print("classes:", ", ".join(tax.classes))

    table = ObjectNode(
        id="table_0",
        class_index=tax.class_index("table"),
        attribute_indices=(),
        position=(1.0, 2.0, 0.75),
    )
    cup = ObjectNode(
        id="cup_0",
        class_index=tax.class_index("cup"),
        attribute_indices=(),
        position=(1.1, 2.05, 0.80),
    )
    door = ObjectNode(
        id="door_0",
        class_index=tax.class_index("door"),
        attribute_indices=(tax.attribute_index("open"),),
        position=(4.0, 0.0, 1.0),
    )
    g = SceneGraph(
        environment_id="kitchen",
        scan_id="scan00",
        timestamp=0,
        taxonomy_name=tax.name,
        nodes=(table, cup, door),
        semantic_edges=(
            SemanticEdge("cup_0", "table_0", tax.relationship_index("standing_on")),
        ),
    )
    print(f"\nscene {g.environment_id}/{g.scan_id}: {g.num_nodes} nodes, "
          f"{len(g.semantic_edges)} semantic edges")
    print("cup relative to table:", np.subtract(table.position, cup.position))

    # Versioned JSON round trip: the serialized form is canonical, so
    # writing the reloaded graph reproduces the text byte for byte.
    text = scene_graph_to_json(g, tax)
    reloaded = scene_graph_from_dict(json.loads(text), tax)
    print("round trip byte-identical:", scene_graph_to_json(reloaded, tax) == text)
    print("serialized payload keys:", sorted(scene_graph_to_dict(g, tax)))

    # Nodes and graphs are frozen dataclasses, so re-indexing into a coarser
    # taxonomy is a `replace` of each node's class index and of the graph's
    # taxonomy name.
    coarse = Taxonomy(
        name="coarse",
        classes=("furniture", "portable", "fixture"),
        attributes=tax.attributes,
        relationships=tax.relationships,
    )
    mapping = {
        tax.class_index("table"): coarse.class_index("furniture"),
        tax.class_index("cup"): coarse.class_index("portable"),
        tax.class_index("door"): coarse.class_index("fixture"),
    }
    coarse_graph = replace(
        g,
        taxonomy_name=coarse.name,
        nodes=tuple(replace(n, class_index=mapping[n.class_index]) for n in g.nodes),
    )
    print("mapped classes:",
          [coarse.classes[n.class_index] for n in coarse_graph.nodes])


if __name__ == "__main__":
    main()
