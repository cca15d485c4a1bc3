"""Variable scene graphs: per-object change prediction and change-aware planning.

A scene graph holds the objects of one scan of an environment; pairing two
scans of the same environment yields per-object change labels (position,
state, instance). A small message-passing network predicts those changes as
probabilities, turning the scene graph into a variable scene graph, and a
planner uses the probabilities to find changed objects with less travel.
"""

from .core_graph import (
    ObjectNode,
    SceneGraph,
    SemanticEdge,
    Taxonomy,
    load_scene_graph,
    save_scene_graph,
    scene_graph_from_dict,
    scene_graph_to_dict,
    scene_graph_to_json,
)
from .dataset import (
    ClassPropensity,
    DatasetBundle,
    GeneratedDataset,
    GeneratorConfig,
    LabelConfig,
    Sample,
    VARIABILITY_NAMES,
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
    write_dataset,
)
from .embedding import (
    EdgeConfig,
    build_edges,
    embed,
    encode_nodes,
    fit_pca,
    pairwise_distance_percentile,
    transform_pca,
)
from .errors import (
    CheckpointError,
    ConfigError,
    DimensionError,
    EvaluationError,
    GeneratorError,
    GraphError,
    ObjectLookupError,
    PairingError,
    ParseError,
    TaxonomyError,
    TrainingError,
    UsageError,
    VsgError,
)
from .model import (
    DeltaVsgModel,
    ModelConfig,
    MpConv,
    load_checkpoint,
    save_checkpoint,
)
from .planner import (
    Episode,
    OracleScorer,
    held_karp,
    heuristic_tsp,
    make_episodes,
    ranked_route,
    route_length,
    run_benchmark,
    run_coverage,
    run_vsg_planner,
    solve_tsp,
    write_benchmark_csv,
)
from .training import (
    LossConfig,
    Metrics,
    TrainConfig,
    evaluate,
    focal_loss,
    threshold_sweep,
    train,
    write_eval_csv,
    write_sweep_csv,
)

__version__ = "0.1.0"
