"""Rebuild the golden files: the untrained half pins the generator, labels,
draw weights and oracle routes; the trained half pins what the CLI trains,
scores, predicts and plans.

For one fixed generated world (6 environments x 3 scans, 16-20 objects, so
that coverage tours go to `heuristic_tsp` and phase-1 routes to
`held_karp`) the files are:

- `dataset.sha256`: the SHA-256 of every file `write_dataset` writes;
- `labels.csv`: the labels and masks of every object of every ordered scan
  pair, as `make_samples` builds them;
- `weights.csv`: the `importance_sample` draw weight of each of those pairs;
- `routes.csv`: for every consecutive scan pair and n = 1, 2, 3, the walk
  of `run_coverage` and of `run_vsg_planner` scored by `OracleScorer`;
- `tours.csv`: the whole Coverage tour of every scan from its centroid. The
  walks above stop after n changes, so only this file sees a change deep in
  a tour: of the 18 tours, the one of env001/scan01 is where taking the
  lowest-cost Or-opt move instead of the first improving one shows.

The trained half runs the CLI in process on a second, tiny world. For each
model kind (`deltavsg`, `--scalar-gate` and `mlp_baseline`) it trains for
4 epochs, then runs `eval --sweep`, `predict`, `plan --realized` and
`compare-planners`:

- `cli_run.txt`: every command line, its stdout, and every text file it
  wrote (the report JSON, eval and sweep CSVs, prediction JSON and
  benchmark CSV), every path relative to the scratch directory;
- `checkpoints.sha256`: the SHA-256 of each checkpoint.

Training floats depend on the numpy and BLAS build, so `stack.json` records
the build these files were written on (numpy's version and the BLAS name,
version and configuration string, as `perfbench/run.py` reads them) and the
trained half is compared only on that build.

`tests/test_golden.py` rebuilds them in process and compares byte for
byte. A change that makes this script rewrite a file changes outputs: name
the file and the reason in CHANGES.md.

Run: PYTHONPATH=src python tests/golden/regenerate.py
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import os
import tempfile
from pathlib import Path

import numpy as np

from vsg import (
    GeneratorConfig,
    OracleScorer,
    generate_dataset,
    importance_sample,
    make_episodes,
    make_samples,
    route_length,
    run_coverage,
    run_vsg_planner,
    solve_tsp,
    write_dataset,
)
from vsg.cli import dispatch

HERE = Path(__file__).resolve().parent

WORLD = GeneratorConfig(
    num_environments=6, scans_per_environment=3, objects_min=16, objects_max=20, seed=8
)


# Restless cups and books, so that most scan pairs hold two changes or more.
TINY_WORLD = {
    "num_environments": 4, "scans_per_environment": 3, "objects_min": 8, "objects_max": 10,
    "support_radius": 1.8, "split_fractions": [0.5, 0.25, 0.25], "seed": 4,
    "propensity_overrides": {"cup": {"move_near": 0.9, "move_far": 0.3}, "book": {"move_near": 0.8}},
}
TRAIN_FLAGS = ["--epochs", "4", "--d-v", "8", "--hidden-dim", "8", "--batch-size", "4",
               "--learning-rate", "0.02"]
KINDS = {"deltavsg": [], "scalar_gate": ["--scalar-gate"], "mlp_baseline": ["--kind", "mlp_baseline"]}
TRAINED = ("checkpoints.sha256", "cli_run.txt")


def stack() -> dict[str, str]:
    """The numpy and BLAS build this process runs on."""
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_config": blas.get("openblas configuration", "?"),
    }


def _sha256(path: Path, name: str) -> str:
    return f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {name}\n"


def _csv(header: list[str], rows) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return out.getvalue()


def golden_files(scratch: Path) -> dict[str, str]:
    """File name -> text of every golden file; `scratch` receives the dataset."""
    world = generate_dataset(WORLD)
    tax = world.taxonomy
    write_dataset(scratch, tax, world.environments, world.splits)
    digests = "".join(
        _sha256(p, p.relative_to(scratch).as_posix()) for p in sorted(scratch.rglob("*")) if p.is_file()
    )

    samples = [s for scans in world.environments.values() for s in make_samples(scans, tax)]
    label_rows = []
    for s in samples:
        for oid, y_row, m_row in zip(s.input.node_ids, s.labels, s.masks):
            label_rows.append([s.environment_id, *s.pair_id, oid,
                               *(format(v, "g") for v in (*y_row, *m_row[:2]))])
    weight_rows = [
        [s.environment_id, *s.pair_id, repr(float(w))]
        for s, w in zip(samples, importance_sample(samples))
    ]

    route_rows = []
    for ep in make_episodes(world.environments, [1, 2, 3]):
        oracle = OracleScorer(ep.realized_scene, ep.label_cfg)
        for result in (run_coverage(ep, tax), run_vsg_planner(ep, oracle, tax)):
            route_rows.append([
                ep.previous_map.environment_id, ep.previous_map.scan_id,
                ep.realized_scene.scan_id, ep.n, result.planner,
                repr(result.distance_traveled), result.changes_found,
                int(result.fallback_used), int(result.infeasible), " ".join(result.visit_order),
            ])

    tour_rows = []
    for scans in world.environments.values():
        for g in scans:
            points, start = g.positions(), g.positions().mean(axis=0)
            order = solve_tsp(points, start)
            tour_rows.append([g.environment_id, g.scan_id, repr(route_length(points, start, order)),
                              " ".join(g.node_ids[k] for k in order)])

    return {
        "dataset.sha256": digests,
        "labels.csv": _csv(
            ["environment", "from", "to", "object",
             "y_position", "y_state", "y_instance", "m_position", "m_state"], label_rows),
        "weights.csv": _csv(["environment", "from", "to", "weight"], weight_rows),
        "routes.csv": _csv(
            ["environment", "from", "to", "n", "planner", "distance", "changes_found",
             "fallback", "infeasible", "visit_order"], route_rows),
        "tours.csv": _csv(["environment", "scan", "length", "order"], tour_rows),
    }


def trained_files(scratch: Path) -> dict[str, str]:
    """File name -> text of the trained half. The CLI runs with `scratch` as
    the working directory, so every path it prints or writes is relative."""
    transcript: list[str] = []

    def vsg(*argv: str, shows=()) -> None:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = dispatch(list(argv))
        if code != 0:
            raise RuntimeError(f"vsg {' '.join(argv)} exited {code}")
        transcript.append(f"$ vsg {' '.join(argv)}\n{out.getvalue()}")
        transcript.extend(f"--- {name}\n{Path(name).read_text(encoding='utf-8')}" for name in shows)

    home = os.getcwd()
    os.chdir(scratch)
    try:
        Path("world.json").write_text(json.dumps(TINY_WORLD), encoding="utf-8")
        vsg("generate", "--spec", "world.json", "--out", "data")
        scene, realized = "data/env000/scan00.json", "data/env000/scan01.json"
        for kind, flags in KINDS.items():
            ckpt, report, metrics, sweep, predicted, bench = (
                f"{kind}{end}" for end in
                (".json", "-report.json", "-eval.csv", "-sweep.csv", "-predict.json", "-benchmark.csv")
            )
            vsg("train", "--data", "data", "--out", ckpt, "--report", report, *TRAIN_FLAGS, *flags,
                shows=[report])
            vsg("eval", "--ckpt", ckpt, "--data", "data", "--report", metrics, "--sweep", sweep,
                shows=[metrics, sweep])
            vsg("predict", "--ckpt", ckpt, "--scene", scene, "--out", predicted, shows=[predicted])
            vsg("plan", "--ckpt", ckpt, "--scene", scene, "--n", "2", "--realized", realized)
            vsg("compare-planners", "--data", "data", "--ckpt", ckpt, "--n-range", "1..2",
                "--seeds", "4", "--split", "all", "--out", bench, shows=[bench])
        digests = "".join(_sha256(Path(f"{kind}.json"), f"{kind}.json") for kind in KINDS)
    finally:
        os.chdir(home)
    return {"checkpoints.sha256": digests, "cli_run.txt": "".join(transcript)}


def main() -> None:
    with tempfile.TemporaryDirectory() as untrained, tempfile.TemporaryDirectory() as trained:
        built = golden_files(Path(untrained)) | trained_files(Path(trained))
        built["stack.json"] = json.dumps(stack(), indent=2) + "\n"
        for name, text in built.items():
            (HERE / name).write_text(text, encoding="utf-8", newline="")
            print(f"wrote {HERE / name}")


if __name__ == "__main__":
    main()
