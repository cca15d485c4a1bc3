"""The benchmark's span table still fits the package.

`perfbench/tracer.py` patches each traced function at the name its callers
look it up by. A renamed function makes `Tracer.installed()` fail, and a
caller that stops looking a function up by that name leaves its span
empty; both show here, in a second, instead of in a benchmark run.
"""

import importlib
import importlib.util
from pathlib import Path

from vsg import (
    Episode,
    GeneratorConfig,
    ModelConfig,
    TrainConfig,
    generate_dataset,
    make_episodes,
    planner,
    training,
)

TRACER_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def owner_of(module_name, owner_name):
    owner = importlib.import_module(module_name)
    return getattr(owner, owner_name) if owner_name else owner


def test_span_table_installs_and_sees_the_pipeline():
    tracer_module = load_tracer_module()
    originals = [
        vars(owner_of(module_name, owner_name))[attr]
        for module_name, owner_name, attr, *_ in tracer_module.SPAN_TABLE
    ]
    data = generate_dataset(
        GeneratorConfig(num_environments=3, scans_per_environment=2, objects_min=5, objects_max=6)
    )
    episodes = make_episodes(data.environments, [1, 2])

    tracer = tracer_module.Tracer()
    # Entry points by module attribute, as the benchmark calls them.
    with tracer.installed():
        model, _ = training.train(
            data, ModelConfig(d_v=4, hidden_dim=4), TrainConfig(epochs=1, batch_size=4)
        )
        planner.run_benchmark(episodes, model, data.taxonomy)

    for span in (
        "embedding.embed",
        "embedding.build_edges",
        "training.train",
        "nn_core.adam_step",
        "planner.run_benchmark",
        "planner.run_coverage",
        "planner.run_vsg_planner",
        "planner.predict",
        "dataset.compute_labels",
        "planner.solve_tsp",
        "planner.held_karp",
    ):
        assert tracer.calls[span] > 0, span
    restored = [
        vars(owner_of(module_name, owner_name))[attr]
        for module_name, owner_name, attr, *_ in tracer_module.SPAN_TABLE
    ]
    assert all(a is b for a, b in zip(restored, originals))


def test_one_run_benchmark_labels_each_pair_and_predicts_each_map_once():
    # Episodes in compare-planners' by-n order, so one pair's episodes are
    # not adjacent, plus episodes on (last scan, last scan): no changes, so
    # that map has no feasible episode and is never predicted.
    tracer_module = load_tracer_module()
    data = generate_dataset(
        GeneratorConfig(num_environments=4, scans_per_environment=2, objects_min=6, objects_max=7)
    )
    model, _ = training.train(
        data, ModelConfig(d_v=4, hidden_dim=4), TrainConfig(epochs=1, batch_size=4)
    )
    episodes = sorted(make_episodes(data.environments, [1, 2, 3]), key=lambda ep: ep.n)
    last = next(iter(data.environments.values()))[-1]
    episodes += [Episode(last, last, n) for n in (1, 2)]
    feasible = [
        ep for ep in episodes if len(planner.changed_object_ids(ep, data.taxonomy)) >= ep.n
    ]
    pairs = {(id(ep.previous_map), id(ep.realized_scene)) for ep in episodes}
    maps = {id(ep.previous_map) for ep in feasible}
    assert len(pairs) == 5 and 0 < len(maps) < 5 and 0 < len(feasible) < len(episodes)

    tracer = tracer_module.Tracer()
    with tracer.installed():
        summary = planner.run_benchmark(episodes, model, data.taxonomy)

    assert summary.feasible_episodes == len(feasible)
    assert tracer.calls["planner.run_benchmark"] == 1
    assert tracer.calls["dataset.compute_labels"] == len(pairs)
    assert tracer.calls["planner.predict"] == len(maps)
    assert tracer.calls["planner.run_coverage"] == len(episodes)
    # The denominator of the benchmark's fallback_frac.
    assert tracer.calls["planner.run_vsg_planner"] == len(feasible)
