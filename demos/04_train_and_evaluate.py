"""Train the change-prediction model on a small synthetic dataset, evaluate
it on held-out environments, and save a checkpoint.

Run: python3 demos/04_train_and_evaluate.py
"""

import tempfile
from pathlib import Path

from vsg import (
    GeneratorConfig,
    LossConfig,
    ModelConfig,
    TrainConfig,
    evaluate,
    generate_dataset,
    load_checkpoint,
    save_checkpoint,
    threshold_sweep,
    train,
)


def main():
    cfg = GeneratorConfig(
        num_environments=30,
        scans_per_environment=3,
        objects_min=12,
        objects_max=16,
        seed=42,
    )
    bundle = generate_dataset(cfg)
    counts = {s: len(bundle.environment_ids(s)) for s in ("train", "val", "test")}
    print(f"{cfg.num_environments} environments split {counts}")

    model_cfg = ModelConfig(kind="deltavsg", d_v=16, hidden_dim=32, tau=2.0)
    train_cfg = TrainConfig(epochs=30, batch_size=8, learning_rate=2e-3,
                            dropout_rate=0.1, seed=0, patience=10)
    model, report = train(bundle, model_cfg, train_cfg, LossConfig())
    print(f"trained {report.epochs_run} epochs "
          f"(best val loss at epoch {report.best_epoch}, "
          f"early stop: {report.stopped_early})")
    print(f"train loss {report.train_loss[0]:.3f} -> {report.train_loss[-1]:.3f}, "
          f"tau {report.tau:.2f} m")

    test_samples = bundle.samples("test")
    rep = evaluate(model, test_samples, bundle.taxonomy)
    print(f"\nheld-out metrics over {len(test_samples)} samples:")
    for kind in ("position", "state", "instance", "pooled"):
        m = rep.metrics[kind]
        print(f"  {kind:9s} acc {m.accuracy:.3f}  P {m.precision:.3f}  "
              f"R {m.recall:.3f}  F1 {m.f1:.3f}  support {m.support}")

    # The decision threshold trades precision against recall per type.
    rows = threshold_sweep(model, test_samples, bundle.taxonomy,
                           thresholds=[0.3, 0.5, 0.7])
    print("\nthreshold sweep (position only):")
    for row in rows:
        if row["variability"] == "position":
            print(f"  t={row['threshold']:.1f}  P {row['precision']:.3f}  "
                  f"R {row['recall']:.3f}  F1 {row['f1']:.3f}")

    # Checkpoints embed the taxonomy and PCA, so a reloaded model predicts
    # without any side files.
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.json"
        save_checkpoint(model, bundle.taxonomy, path)
        reloaded, tax = load_checkpoint(path)
        scan = bundle.environments[bundle.environment_ids("test")[0]][0]
        probs = reloaded.predict_probabilities(scan, tax)
        oid, p = max(probs.items(), key=lambda kv: max(kv[1]))
        print(f"\ncheckpoint reloaded; most change-prone object in one test "
              f"scan: {oid} (p_position={p[0]:.2f}, p_state={p[1]:.2f}, "
              f"p_instance={p[2]:.2f})")


if __name__ == "__main__":
    main()
