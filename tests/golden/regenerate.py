"""Rebuild the golden files that pin the generator, labels, draw weights
and oracle routes, none of which depends on training.

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

`tests/test_golden.py` rebuilds them in process and compares byte for
byte. A change that makes this script rewrite a file changes outputs: name
the file and the reason in CHANGES.md.

Run: PYTHONPATH=src python tests/golden/regenerate.py
"""

from __future__ import annotations

import csv
import hashlib
import io
import tempfile
from pathlib import Path

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

HERE = Path(__file__).resolve().parent

WORLD = GeneratorConfig(
    num_environments=6, scans_per_environment=3, objects_min=16, objects_max=20, seed=8
)


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
        f"{hashlib.sha256(p.read_bytes()).hexdigest()}  {p.relative_to(scratch).as_posix()}\n"
        for p in sorted(scratch.rglob("*")) if p.is_file()
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


def main() -> None:
    with tempfile.TemporaryDirectory() as scratch:
        for name, text in golden_files(Path(scratch)).items():
            (HERE / name).write_text(text, encoding="utf-8", newline="")
            print(f"wrote {HERE / name}")


if __name__ == "__main__":
    main()
