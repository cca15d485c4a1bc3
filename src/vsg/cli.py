"""Command-line pipeline: generate, train, eval, predict, plan, compare-planners.

Every run computes its answer, then echoes its fully resolved configuration
(flag > config file > built-in default) on one `resolved-config:` line, then
writes and prints; `train` alone trains after its echo. A run is deterministic
given that configuration. Exit codes: 0 success, 1 domain error (single-line
`error: <Kind>: <message>` on stderr), 2 usage error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import os
import sys

import numpy as np

from .core_graph import (_config_from_json, _encode_json, _read_json, _write_text, check_position,
                         scene_graph_from_dict, scene_graph_to_dict)
from .dataset import (
    VARIABILITY_NAMES,
    GeneratorConfig,
    LabelConfig,
    augment_pairs,
    generate_dataset,
    generator_config_from_dict,
    load_dataset,
    write_dataset,
)
from .errors import CheckpointError, ConfigError, EvaluationError, UsageError, VsgError
from .model import MODEL_KINDS, ModelConfig, load_checkpoint, save_checkpoint
from .planner import (
    Episode,
    changed_object_ids,
    check_route,
    make_episodes,
    ranked_route,
    route_length,
    route_start,
    run_benchmark,
    run_coverage,
    run_vsg_planner,
    write_benchmark_csv,
)
from .training import (
    SWEEP_THRESHOLDS,
    LossConfig,
    TrainConfig,
    class_weights_from_samples,
    evaluate_probabilities,
    prepare_training,
    sample_probabilities,
    sweep_rows,
    train_prepared,
    write_eval_csv,
    write_sweep_csv,
)


def _echo_config(command: str, resolved: dict) -> None:
    print(f"resolved-config: {json.dumps({'command': command, **resolved}, sort_keys=True, allow_nan=False)}")


def _require_dir(path, what: str) -> str:
    if not os.path.isdir(path):
        raise ConfigError(f"{what} directory not found: {path}")
    return path


def _check_taxonomy(tax, name, source: str) -> None:
    """The checkpoint's taxonomy must be the one `source` was written in."""
    if name != tax.name:
        raise CheckpointError(
            f"{source} taxonomy {name!r} does not match checkpoint taxonomy {tax.name!r}"
        )


def _load_scene(path, tax):
    """Read a scene JSON once, check its taxonomy against the checkpoint's,
    then build the graph."""
    data = _read_json(path, "scene", ConfigError, expect=object)
    if isinstance(data, dict):
        _check_taxonomy(tax, data.get("taxonomy"), "scene")
    return scene_graph_from_dict(data, tax, source=str(path))


def _flag_values(args, cls) -> dict:
    """The flags set on the command line for `cls`'s fields, by dest name."""
    return {
        f.name: getattr(args, f.name)
        for f in dataclasses.fields(cls)
        if getattr(args, f.name, None) is not None
    }


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_generate(args) -> int:
    spec = _read_json(args.spec, "generator spec", ConfigError) if args.spec else {}
    source = args.spec or "generator config"
    cfg = generator_config_from_dict(spec | _flag_values(args, GeneratorConfig), source)
    data = generate_dataset(cfg)
    samples = sum(len(augment_pairs(scans)) for scans in data.environments.values())
    _echo_config("generate", dataclasses.asdict(cfg) | {"out": args.out})
    write_dataset(args.out, data.taxonomy, data.environments, data.splits)
    print(
        f"generated {len(data.environments)} environments x "
        f"{cfg.scans_per_environment} scans -> {samples} samples at {args.out}"
    )
    return 0


# Each section's config class; a train flag sets the field named like its dest.
_TRAIN_SECTIONS = {"model": ModelConfig, "train": TrainConfig, "loss": LossConfig, "label": LabelConfig}


def cmd_train(args) -> int:
    bundle = load_dataset(_require_dir(args.data, "data"))
    file_cfg = _read_json(args.config, "config", ConfigError) if args.config else {}
    where = f"{args.config}: config section" if args.config else "config section"
    unknown = set(file_cfg) - set(_TRAIN_SECTIONS)
    if unknown:
        raise ConfigError(f"unknown config sections {sorted(unknown)}; expected {tuple(_TRAIN_SECTIONS)}")
    configs = {}
    for section, cls in _TRAIN_SECTIONS.items():
        values = file_cfg.get(section, {})
        if not isinstance(values, dict):
            raise ConfigError(f"{where} {section!r} must be a JSON object")
        configs[section] = _config_from_json(cls, values | _flag_values(args, cls), f"{where} {section!r}")
    data = prepare_training(bundle, configs["model"], configs["label"])
    if "class_weights" not in file_cfg.get("loss", {}):  # weigh the classes by the train split
        weights = class_weights_from_samples(data.train_samples)
        configs["loss"] = dataclasses.replace(configs["loss"], class_weights=weights)
    sections = {section: dataclasses.asdict(cfg) for section, cfg in configs.items()}
    _echo_config("train", {"data": args.data, "out": args.out} | sections)
    model, report = train_prepared(data, configs["train"], configs["loss"])
    save_checkpoint(model, bundle.taxonomy, args.out)
    if args.report:
        _write_text(args.report, report.to_json())
    last_val = report.val_loss[-1] if report.val_loss else float("nan")
    print(
        f"trained {report.epochs_run} epochs (best {report.best_epoch}); "
        f"final val loss {last_val:.6f}; checkpoint at {args.out}"
        + (" [diverged; best checkpoint kept]" if report.diverged else "")
    )
    return 0


def cmd_eval(args) -> int:
    model, tax = load_checkpoint(args.ckpt)
    bundle = load_dataset(_require_dir(args.data, "data"))
    _check_taxonomy(tax, bundle.taxonomy.name, "dataset")
    label_cfg = _config_from_json(LabelConfig, _flag_values(args, LabelConfig), "label config")
    samples = bundle.samples(args.split, label_cfg)
    if not samples:
        raise EvaluationError(
            f"split {args.split!r} has no samples; pick another --split or regenerate the dataset"
        )
    probabilities = sample_probabilities(model, samples, bundle.taxonomy)
    thresholds = (args.threshold, *SWEEP_THRESHOLDS) if args.sweep else (args.threshold,)
    report, *sweep = evaluate_probabilities(
        probabilities, [s.labels for s in samples], [s.masks for s in samples], thresholds
    )
    _echo_config(
        "eval",
        {
            "ckpt": args.ckpt,
            "data": args.data,
            "split": args.split,
            "threshold": args.threshold,
            "epsilon": label_cfg.epsilon,
            "report": args.report,
        },
    )
    write_eval_csv(report, args.report)
    if args.sweep:
        write_sweep_csv(sweep_rows(sweep), args.sweep)
    for name in (*VARIABILITY_NAMES, "pooled"):
        m = report.metrics[name]
        print(
            f"{name}: accuracy {m.accuracy:.3f} precision {m.precision:.3f} "
            f"recall {m.recall:.3f} f1 {m.f1:.3f} support {m.support}"
        )
    return 0


def cmd_predict(args) -> int:
    model, tax = load_checkpoint(args.ckpt)
    scene = _load_scene(args.scene, tax)
    probabilities = model.predict_probabilities(scene, tax)
    out = scene_graph_to_dict(scene, tax)
    for node_dict in out["nodes"]:
        p_position, p_state, p_instance = probabilities[node_dict["id"]]
        node_dict["variability"] = {"p_position": p_position, "p_state": p_state, "p_instance": p_instance}
    _echo_config("predict", {"ckpt": args.ckpt, "scene": args.scene, "out": args.out})
    _write_text(args.out, _encode_json(out, indent=2))
    print(f"wrote variability scene graph for {scene.num_nodes} objects to {args.out}")
    return 0


def _parse_start(text: str) -> tuple[float, float, float]:
    try:
        return check_position([float(x) for x in text.split(",")])
    except ValueError as e:  # text that is not a number, or a position check_position refuses
        raise UsageError(f"--start x,y,z: {e}") from None


def cmd_plan(args) -> int:
    model, tax = load_checkpoint(args.ckpt)
    scene = _load_scene(args.scene, tax)
    check_route(scene, args.n)
    realized = _load_scene(args.realized, tax) if args.realized else None
    start = _parse_start(args.start) if args.start else None
    start_vec = route_start(scene, start)
    route = ranked_route(scene, model.predict_probabilities(scene, tax), args.n, start_vec)
    total = route_length(scene.positions(), start_vec, [scene.node_index(oid) for oid in route])
    results = []
    if realized is not None:
        ep = Episode(previous_map=scene, realized_scene=realized, n=args.n, start_position=start)
        changed = changed_object_ids(ep, tax)
        results = [run_coverage(ep, tax, changed=changed),
                   run_vsg_planner(ep, model, tax, first=route, changed=changed)]
    _echo_config(
        "plan",
        {"ckpt": args.ckpt, "scene": args.scene, "n": args.n, "start": start,
         "realized": args.realized},
    )
    print("phase1-route: " + " ".join(route))
    print(f"phase1-distance: {total:.6f}")
    for result in results:
        flags = []
        if result.fallback_used:
            flags.append("fallback")
        if result.infeasible:
            flags.append("infeasible")
        print(
            f"{result.planner}: distance {result.distance_traveled:.6f} "
            f"changes {result.changes_found} visits {len(result.visit_order)}"
            + (f" [{', '.join(flags)}]" if flags else "")
        )
    return 0


def _parse_n_range(text: str, n_max: int) -> list[int]:
    """The distinct n values of `text` (like 1..5 or 1,3,5), each in [1, n_max]."""
    try:
        if ".." in text:
            lo, hi = (int(x) for x in text.split("..", 1))
            values = range(lo, hi + 1)
        else:
            values = [int(x) for x in text.split(",")]
            lo, hi = min(values), max(values)
    except ValueError:
        values = ()
    if not values or lo < 1:
        raise UsageError(f"bad --n-range {text!r}; expected like 1..5 or 1,3,5")
    # A range never repeats; a set of it would hold every n up to hi.
    if not isinstance(values, range) and len(set(values)) < len(values):
        raise UsageError(f"--n-range {text!r} repeats an n; each n runs its episodes once")
    if hi > n_max:
        raise UsageError(
            f"--n-range {text!r} reaches n = {hi}, above the {n_max} objects of the largest previous map"
        )
    return list(values)


def cmd_compare_planners(args) -> int:
    model, tax = load_checkpoint(args.ckpt)
    bundle = load_dataset(_require_dir(args.data, "data"))
    _check_taxonomy(tax, bundle.taxonomy.name, "dataset")
    env_ids = bundle.environment_ids(args.split if args.split != "all" else None)
    environments = {e: bundle.environments[e] for e in env_ids}
    if not environments:
        raise EvaluationError(f"no environments in split {args.split!r}")
    n_max = max((ep.previous_map.num_nodes for ep in make_episodes(environments, [1])), default=0)
    n_values = _parse_n_range(args.n_range, n_max)
    if args.seeds < 1:
        raise UsageError(f"--seeds must be >= 1; got {args.seeds}")
    if args.seed < 0:
        raise UsageError(f"--seed must be >= 0; got {args.seed}")
    # --seeds bounds the number of episodes per n, drawn deterministically.
    rng = np.random.default_rng(args.seed)
    chosen: list[Episode] = []
    for n in sorted(n_values):
        eps = make_episodes(environments, [n])
        if len(eps) > args.seeds:
            idx = rng.choice(len(eps), size=args.seeds, replace=False)
            eps = [eps[int(i)] for i in sorted(idx)]
        chosen.extend(eps)
    summary = run_benchmark(chosen, model, tax)
    _echo_config(
        "compare-planners",
        {"data": args.data, "ckpt": args.ckpt, "n_range": n_values, "seeds": args.seeds,
         "seed": args.seed, "split": args.split, "out": args.out},
    )
    write_benchmark_csv(summary, args.out)
    for row in summary.rows:
        print(
            f"n={row.n} {row.planner}: mean {row.mean_distance:.4f} "
            f"std {row.std_distance:.4f} win {row.win_fraction:.3f} "
            f"speedup {row.speedup:.3f}"
        )
    print(
        f"episodes: {summary.feasible_episodes} feasible, "
        f"{summary.infeasible_episodes} infeasible; csv at {args.out}"
    )
    return 0


# ---------------------------------------------------------------------------
# Parser and dispatch
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vsg",
        description="Variable scene graphs: predict per-object change and plan around it.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="write a synthetic dataset directory")
    p.add_argument("--spec", help="generator config JSON (defaults used when omitted)")
    p.add_argument("--out", required=True, help="output dataset directory")
    p.add_argument("--seed", type=int, help="override the spec's seed")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("train", help="train a variability model")
    p.add_argument("--data", required=True)
    p.add_argument("--config", help="JSON with model/train/loss/label sections")
    p.add_argument("--out", required=True, help="checkpoint output path")
    p.add_argument("--report", help="write the per-epoch training report JSON here")
    p.add_argument("--kind", choices=MODEL_KINDS)
    p.add_argument("--d-v", type=int, dest="d_v")
    p.add_argument("--hidden-dim", type=int)
    p.add_argument("--scalar-gate", action="store_const", const=True, default=None)
    p.add_argument("--tau", help="meters, or a percentile preset p25/p50/p75/p100")
    p.add_argument("--epochs", type=int)
    p.add_argument("--batch-size", type=int)
    p.add_argument("--learning-rate", type=float)
    p.add_argument("--dropout-rate", type=float)
    p.add_argument("--seed", type=int)
    p.add_argument("--patience", type=int)
    p.add_argument("--gamma", type=float)
    p.add_argument("--epsilon", type=float)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a dataset split")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--report", required=True, help="metrics CSV output path")
    p.add_argument("--split", default="test", choices=["train", "val", "test"])
    p.add_argument("--threshold", type=float, default=0.5)
    p.add_argument("--epsilon", type=float)
    p.add_argument("--sweep", help="also write a threshold sweep CSV here")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("predict", help="write the scene graph with per-object variability")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--scene", required=True, help="scene graph JSON")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("plan", help="plan a change-detection route on a scene")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--scene", required=True, help="previous-map scene graph JSON")
    p.add_argument("--n", type=int, required=True, help="changes to find")
    p.add_argument("--start", help="start position as x,y,z (default: map centroid)")
    p.add_argument("--realized", help="realized scene JSON; simulates both planners")
    p.set_defaults(func=cmd_plan)

    p = sub.add_parser("compare-planners", help="benchmark Coverage vs the guided planner")
    p.add_argument("--data", required=True)
    p.add_argument("--ckpt", required=True)
    p.add_argument("--n-range", default="1..5", help="like 1..5 or 1,3,5")
    p.add_argument("--seeds", type=int, default=30, help="episodes per n value")
    p.add_argument("--seed", type=int, default=0, help="seed for episode subsampling")
    p.add_argument("--split", default="test", choices=["train", "val", "test", "all"])
    p.add_argument("--out", required=True, help="summary CSV output path")
    p.set_defaults(func=cmd_compare_planners)
    return parser


def dispatch(argv: list[str]) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return args.func(args)
    except (VsgError, OSError) as e:
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
