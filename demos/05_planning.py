"""Active change detection: tour the objects most likely to have changed
instead of sweeping the whole scene.

Trains a model on a world where a few classes change often, then compares
the blind coverage planner against the model-guided planner on fresh
episodes. Takes about half a minute.

Run: python3 demos/05_planning.py
"""

import tempfile
from pathlib import Path

import numpy as np

from vsg import (
    ClassPropensity,
    GeneratorConfig,
    LossConfig,
    ModelConfig,
    OracleScorer,
    TrainConfig,
    generate_dataset,
    make_episodes,
    run_benchmark,
    run_coverage,
    run_vsg_planner,
    train,
    write_benchmark_csv,
)
from vsg.planner import changed_object_ids

RESTLESS = {
    "cup": ClassPropensity(move_near=0.9, move_far=0.03, vanish=0.05),
    "book": ClassPropensity(move_near=0.85, move_far=0.03),
    "laptop": ClassPropensity(move_near=0.85, move_far=0.03, toggle=0.05),
    "door": ClassPropensity(toggle=0.15),
    "chair": ClassPropensity(move_near=0.05, move_far=0.02),
}


def main():
    cfg = GeneratorConfig(
        num_environments=40,
        scans_per_environment=3,
        objects_min=18,
        objects_max=24,
        support_radius=1.8,
        seed=7,
        propensity_overrides=RESTLESS,
    )
    bundle = generate_dataset(cfg)
    model, _ = train(
        bundle,
        ModelConfig(kind="deltavsg", d_v=20, hidden_dim=32, tau=2.0),
        TrainConfig(epochs=40, batch_size=8, learning_rate=2e-3,
                    dropout_rate=0.1, seed=0, patience=None),
        LossConfig(),
    )
    print("model trained on the restless-classes world")

    # Episodes pair a stale map with the realized scene; the robot must
    # confirm n changed objects while traveling as little as possible.
    tax = bundle.taxonomy
    test_envs = {e: bundle.environments[e] for e in bundle.environment_ids("test")}
    episodes = [
        ep for ep in make_episodes(test_envs, [1, 2])
        if len(changed_object_ids(ep, tax)) >= ep.n
    ]
    print(f"{len(episodes)} feasible episodes from {len(test_envs)} held-out environments")

    ep = next(e for e in episodes if e.n == 2)
    cov = run_coverage(ep, tax)
    vsg = run_vsg_planner(ep, model, tax)
    print(f"\none episode (n={ep.n}, {ep.previous_map.num_nodes} objects):")
    print(f"  coverage: {cov.distance_traveled:6.2f} m, "
          f"visited {len(cov.visit_order)} objects")
    print(f"  guided:   {vsg.distance_traveled:6.2f} m, "
          f"visited {len(vsg.visit_order)} objects "
          f"(fallback used: {vsg.fallback_used})")

    # A perfect predictor shows the ceiling for this episode.
    oracle = run_vsg_planner(ep, OracleScorer(ep.realized_scene), tax)
    print(f"  oracle:   {oracle.distance_traveled:6.2f} m")

    summary = run_benchmark(episodes, model, tax)
    print("\nbenchmark over all episodes:")
    for row in summary.rows:
        extra = "" if row.planner == "coverage" else \
            f", distance cut {row.speedup:.0%} on average"
        print(f"  n={row.n} {row.planner:10s} mean {row.mean_distance:6.2f} m "
              f"(std {row.std_distance:5.2f}), wins {row.win_fraction:.0%}{extra}")
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "benchmark.csv"
        write_benchmark_csv(summary, path)
        print(f"\nCSV columns: {path.read_text().splitlines()[0]}")


if __name__ == "__main__":
    main()
