"""Generate a changing environment, read its oracle change log, and derive
training labels from scan pairs.

Run: python3 demos/03_generate_and_label.py
"""

import numpy as np

from vsg import (
    ClassPropensity,
    GeneratorConfig,
    LabelConfig,
    VARIABILITY_NAMES,
    augment_pairs,
    compute_labels,
    default_taxonomy,
    generate_environment,
    importance_sample,
    label_statistics,
    labels_from_log,
    make_samples,
)


def main():
    tax = default_taxonomy()
    cfg = GeneratorConfig(
        num_environments=1,
        scans_per_environment=4,
        objects_min=10,
        objects_max=12,
        seed=33,
        # Cups get restless, doors toggle, everything else keeps defaults.
        propensity_overrides={
            "cup": ClassPropensity(move_near=0.9, move_far=0.1, vanish=0.1),
            "door": ClassPropensity(toggle=0.8),
        },
    )
    scans, logs = generate_environment(cfg, 0, tax)
    print(f"{len(scans)} scans of environment {scans[0].environment_id}; "
          f"{scans[0].num_nodes} objects initially")

    # The generator records exactly what it changed at each step.
    for t, log in enumerate(logs):
        moved = [oid for oid, d in log.moved.items() if d >= cfg.epsilon]
        print(f"scan{t:02d} -> scan{t + 1:02d}: moved {moved or 'none'}, "
              f"toggled {sorted(log.toggled) or 'none'}, "
              f"vanished {sorted(log.vanished) or 'none'}")

    # Labels recomputed from the scan pair agree with that log exactly. They
    # come as two (N, 3) arrays in node order, columns (position, state,
    # instance): the labels y and the masks m saying which entries supervise.
    label_cfg = LabelConfig(epsilon=cfg.epsilon)
    y, m = compute_labels(scans[0], scans[1], tax, label_cfg)
    y_log, m_log = labels_from_log(scans[0], logs[0], tax, cfg.epsilon)
    print("\nrecomputed labels match the generator log:",
          np.array_equal(y, y_log) and np.array_equal(m, m_log))
    kinds = np.array(VARIABILITY_NAMES)
    for oid, row in zip(scans[0].node_ids, y):
        if row.any():
            print(f"  {oid}: {', '.join(kinds[row > 0])}")

    # Every ordered scan pair becomes a training sample: n(n-1) of them.
    pairs = augment_pairs(scans)
    print(f"\n{len(scans)} scans -> {len(pairs)} ordered pairs")
    samples = make_samples(scans, tax, label_cfg)
    stats = label_statistics(samples)
    print("positive rates (position, state, instance):", np.round(stats.positive_rates, 3))

    # Rare positives get proportionally larger sampling weight: each label
    # element weighs 1/rate (or 1/(1 - rate) for negatives) at these rates.
    weights = importance_sample(samples)
    order = np.argsort(weights)[::-1]
    print(f"importance weights: max/min = {weights.max() / weights.min():.2f}, "
          f"heaviest pair {samples[order[0]].pair_id}")


if __name__ == "__main__":
    main()
