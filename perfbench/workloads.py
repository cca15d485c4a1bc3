"""The benchmark's workloads: set-up, one timed operation, and its output checks.

Every workload drives vsg through its public modules, looking each function
up on its module at call time so that `tracer.Tracer` can intercept it. The
inputs are generated from the workload seed (the planner model from a
fixed seed); vsg only ever sees the generated worlds.

- `train`: one `train()` call on the acceptance-gate world, then
  `evaluate` and `threshold_sweep` on its test split. No planner call.
- `plan-exact`: one `run_benchmark` call per scan pair (episodes for
  n = 1, 2, 3) on 11-node maps, so every tour goes to `held_karp`.
- `plan-heuristic`: the same on 22-node maps, so every coverage and
  fallback tour goes to `heuristic_tsp` and `held_karp` only sees phase-1
  routes.
"""

from __future__ import annotations

import itertools
import math
import os
import time
from dataclasses import dataclass

import numpy as np

import vsg.dataset as dataset
import vsg.model as vmodel
import vsg.planner as planner
import vsg.training as training
from vsg.dataset import ClassPropensity, DatasetBundle, GeneratorConfig
from vsg.model import ModelConfig
from vsg.training import LossConfig, TrainConfig

# Change propensities of the acceptance gate's worlds, as they stood when
# the benchmark was defined (tests/test_acceptance.py): HOT drives the
# training world, SPARSE the episode worlds of the planner. The copy is
# pinned on purpose and does not follow later edits of the gate, so that a
# benchmark result stays comparable with its parent's.
HOT = {
    "cup": ClassPropensity(move_near=0.97, move_far=0.02, vanish=0.04),
    "book": ClassPropensity(move_near=0.95, move_far=0.02, vanish=0.03),
    "laptop": ClassPropensity(move_near=0.95, move_far=0.03, toggle=0.06, vanish=0.03),
    "chair": ClassPropensity(move_near=0.90, move_far=0.05),
    "box": ClassPropensity(move_near=0.92, move_far=0.03, toggle=0.05, vanish=0.03),
    "door": ClassPropensity(toggle=0.95),
    "lamp": ClassPropensity(toggle=0.92),
    "cabinet": ClassPropensity(toggle=0.05),
    "plant": ClassPropensity(move_near=0.03, move_far=0.01, vanish=0.90),
}
SPARSE = {
    "cup": ClassPropensity(move_near=0.92, move_far=0.02, vanish=0.03),
    "book": ClassPropensity(move_near=0.88, move_far=0.02, vanish=0.02),
    "laptop": ClassPropensity(move_near=0.90, move_far=0.02, toggle=0.04, vanish=0.02),
    "chair": ClassPropensity(move_near=0.04, move_far=0.02),
    "box": ClassPropensity(move_near=0.04, move_far=0.02, toggle=0.03, vanish=0.02),
    "door": ClassPropensity(toggle=0.08),
    "lamp": ClassPropensity(toggle=0.05),
    "cabinet": ClassPropensity(toggle=0.03),
    "plant": ClassPropensity(move_near=0.02, move_far=0.01, vanish=0.85),
}

N_VALUES = [1, 2, 3]
PLAN_MODEL_SEED = 0
SWEEP_THRESHOLDS = 19  # threshold_sweep's default grid, 0.05 .. 0.95


@dataclass(frozen=True)
class Scale:
    """Input sizes; `FULL` is the benchmark, `TINY` the harness smoke test."""

    train_envs: int
    train_objects: tuple[int, int]
    d_v: int
    hidden_dim: int
    train_epochs: int
    plan_model_envs: int
    plan_model_epochs: int
    exact_envs: int
    exact_objects: int
    heuristic_envs: int
    heuristic_objects: int


FULL = Scale(
    train_envs=100, train_objects=(24, 30), d_v=26, hidden_dim=48, train_epochs=6,
    plan_model_envs=16, plan_model_epochs=3,
    exact_envs=600, exact_objects=11,
    heuristic_envs=48, heuristic_objects=22,
)
TINY = Scale(
    train_envs=6, train_objects=(8, 10), d_v=8, hidden_dim=8, train_epochs=1,
    plan_model_envs=6, plan_model_epochs=1,
    exact_envs=100, exact_objects=11,
    heuristic_envs=3, heuristic_objects=26,
)
SCALES = {"full": FULL, "tiny": TINY}


def _seeds(seed: int) -> tuple[int, int, int]:
    """World, training and episode seeds derived from the workload seed."""
    return tuple(int(s) for s in np.random.SeedSequence(seed).generate_state(3))


def _train_configs(scale: Scale, epochs: int, seed: int):
    return (
        ModelConfig(kind="deltavsg", d_v=scale.d_v, hidden_dim=scale.hidden_dim, tau=2.0),
        TrainConfig(epochs=epochs, batch_size=8, learning_rate=1.5e-3,
                    dropout_rate=0.1, seed=seed, patience=None),
        LossConfig(),
    )


def _finite_in_unit(values) -> bool:
    a = np.asarray(values, dtype=np.float64)
    return bool(np.isfinite(a).all() and (a >= 0).all() and (a <= 1).all())


class TrainWorkload:
    """Set-up generates the world; the operation trains and evaluates on it."""

    name = "train"
    # Parts of the host-speed reference (hostspeed.py): about a third of
    # the operation is LAPACK and BLAS (fit_pca's SVD), the rest numpy
    # calls on small arrays, where the interpreter's overhead dominates.
    reference = ("python", "numpy")

    def __init__(self, seed: int, scale: Scale):
        self.scale = scale
        world_seed, self.train_seed, _ = _seeds(seed)
        self.world_cfg = GeneratorConfig(
            num_environments=scale.train_envs, scans_per_environment=3,
            objects_min=scale.train_objects[0], objects_max=scale.train_objects[1],
            support_radius=1.8, seed=world_seed, propensity_overrides=HOT,
        )
        self.first_f1: float | None = None

    def setup(self) -> None:
        data = dataset.generate_dataset(self.world_cfg)
        self.bundle = DatasetBundle(data.taxonomy, data.environments, data.splits)
        self.test_samples = self.bundle.samples("test")
        self.test_scans = [s for e in self.bundle.environment_ids("test")
                           for s in self.bundle.environments[e]]

    def setup_signature(self) -> str:
        return repr(sorted((e, [s.num_nodes for s in v]) for e, v in self.bundle.environments.items()))

    def operations(self) -> list:
        return [None]

    def run(self, op) -> dict:
        model_cfg, train_cfg, loss_cfg = _train_configs(
            self.scale, self.scale.train_epochs, self.train_seed)
        tax = self.bundle.taxonomy
        t0 = time.perf_counter()
        model, report = training.train(self.bundle, model_cfg, train_cfg, loss_cfg)
        t1 = time.perf_counter()
        ev = training.evaluate(model, self.test_samples, tax)
        sweep = training.threshold_sweep(model, self.test_samples, tax)
        t2 = time.perf_counter()
        return {"model": model, "report": report, "eval": ev, "sweep": sweep,
                "train_s": t1 - t0, "eval_s": t2 - t1}

    def check(self, op, out: dict) -> list[str]:
        problems = []
        report, model, tax = out["report"], out["model"], self.bundle.taxonomy
        if report.epochs_run != self.scale.train_epochs or report.diverged:
            problems.append(f"epochs_run {report.epochs_run}, diverged {report.diverged}")
        if not all(np.isfinite(model.store[n].value).all() for n in model.store.names()):
            problems.append("non-finite parameter")
        for scan in self.test_scans:
            if not _finite_in_unit(list(model.predict_probabilities(scan, tax).values())):
                problems.append(f"probability outside [0, 1] on {scan.scan_id}")
                break
        metrics = out["eval"].metrics
        if not _finite_in_unit([[m.accuracy, m.precision, m.recall, m.f1] for m in metrics.values()]):
            problems.append("evaluate metric outside [0, 1]")
        sweep = out["sweep"]
        if len(sweep) != SWEEP_THRESHOLDS * 3 or not _finite_in_unit(
            [[r["precision"], r["recall"], r["f1"]] for r in sweep]
        ):
            problems.append("threshold_sweep rows malformed")
        f1 = metrics["pooled"].f1
        if self.first_f1 is None:
            self.first_f1 = f1
        elif f1 != self.first_f1:
            problems.append(f"pooled F1 {f1!r} differs from the first run's {self.first_f1!r}")
        return problems

    def quality(self, first_pass: list[tuple]) -> dict[str, tuple[float, str, str]]:
        f1 = first_pass[0][1]["eval"].metrics["pooled"].f1
        return {
            "test_f1": (f1, "ratio", "higher"),
            "quality": (f1, "ratio", "higher"),
        }

    def details(self, outs: list[dict]) -> dict[str, tuple[float, str, str]]:
        return {
            "train_s": (float(np.median([o["train_s"] for o in outs])), "s", "lower"),
            "eval_s": (float(np.median([o["eval_s"] for o in outs])), "s", "lower"),
        }

    def oracle_distance_mean(self) -> float:
        return 0.0


class PlanWorkload:
    """Set-up trains a small model and builds a filtered episode world; the
    operation is one `run_benchmark` call on one scan pair's episodes."""

    # The operations are plain-Python tour search (held_karp, heuristic_tsp).
    reference = ("python",)

    def __init__(self, name: str, seed: int, scale: Scale, workdir: str):
        self.name = name
        self.scale = scale
        self.workdir = workdir
        # The planner workloads share one model, trained in set-up from a
        # fixed seed, so their numbers vary with the episodes alone; the
        # train workload measures how models vary with the seed.
        world_seed, self.train_seed, _ = _seeds(PLAN_MODEL_SEED)
        episode_seed = _seeds(seed)[2]
        self.model_world_cfg = GeneratorConfig(
            num_environments=scale.plan_model_envs, scans_per_environment=3,
            objects_min=scale.train_objects[0], objects_max=scale.train_objects[1],
            support_radius=1.8, seed=world_seed, propensity_overrides=HOT,
        )
        envs, objects = (
            (scale.exact_envs, scale.exact_objects) if name == "plan-exact"
            else (scale.heuristic_envs, scale.heuristic_objects)
        )
        # One scan pair per environment, so every previous map holds exactly
        # `objects` nodes and every operation routes tours of the same size.
        self.episode_cfg = GeneratorConfig(
            num_environments=envs, scans_per_environment=2,
            objects_min=objects, objects_max=objects,
            support_radius=1.8, seed=episode_seed, propensity_overrides=SPARSE,
        )
        self._optimal: dict[tuple, float] = {}  # episode key -> optimal distance

    def setup(self) -> None:
        world = dataset.generate_dataset(self.model_world_cfg)
        bundle = DatasetBundle(world.taxonomy, world.environments, world.splits)
        model, _ = training.train(
            bundle, *_train_configs(self.scale, self.scale.plan_model_epochs, self.train_seed))
        ckpt = os.path.join(self.workdir, "model.json")
        vmodel.save_checkpoint(model, world.taxonomy, ckpt)
        self.model, self.tax = vmodel.load_checkpoint(ckpt)
        with open(ckpt, encoding="utf-8") as f:
            self.checkpoint_text = f.read()

        episodes = dataset.generate_dataset(self.episode_cfg)
        # A pair is kept when all its episodes are feasible (at least max(n)
        # objects changed), so every operation holds one episode per n. The
        # kept environments go through the write/load round trip.
        kept: dict[str, list] = {}
        self.episodes_dropped = 0
        self.pairs_dropped = 0
        for env_id, scans in episodes.environments.items():
            pool = planner.make_episodes({env_id: scans}, N_VALUES)
            infeasible = sum(len(planner.changed_object_ids(ep, self.tax)) < ep.n for ep in pool)
            self.episodes_dropped += infeasible
            if infeasible:
                self.pairs_dropped += 1
            else:
                kept[env_id] = scans
        root = os.path.join(self.workdir, "episodes")
        dataset.write_dataset(root, episodes.taxonomy, kept, episodes.splits)
        loaded = dataset.load_dataset(root)
        self.pairs: list[list[planner.Episode]] = [
            planner.make_episodes({env_id: scans}, N_VALUES)
            for env_id, scans in loaded.environments.items()
        ]

    def setup_signature(self) -> str:
        return self.checkpoint_text

    def operations(self) -> list:
        return self.pairs

    def run(self, op):
        return planner.run_benchmark(op, self.model, self.tax)

    def check(self, op, summary) -> list[str]:
        problems = []
        ns = sorted({ep.n for ep in op})
        rows = sorted((r.n, r.planner) for r in summary.rows)
        if rows != sorted((n, p) for n in ns for p in (planner.COVERAGE, planner.VSG_PLANNER)):
            problems.append(f"summary rows {rows} for n in {ns}")
        episode_of = {ep.n: ep for ep in op}
        for r in summary.rows:
            if not all(math.isfinite(x) and x >= 0 for x in (r.mean_distance, r.std_distance)):
                problems.append(f"bad distance in row {r}")
            elif r.n in episode_of and r.mean_distance < self._optimal_distance(episode_of[r.n]) - 1e-9:
                problems.append(f"row {r} is shorter than the optimal walk")
        if summary.feasible_episodes != len(op) or summary.infeasible_episodes != 0:
            problems.append(
                f"{summary.feasible_episodes} feasible / {summary.infeasible_episodes} "
                f"infeasible of {len(op)} episodes")
        return problems

    def _optimal_distance(self, ep) -> float:
        """Length of the shortest walk from the start that finds n changes.

        A walk runs in straight lines between objects, so a shortest one
        visits changed objects only: this is the minimum over ordered
        choices of n changed objects, by brute force. It uses none of vsg's
        route solvers, so it is a yardstick that a solver change cannot move.
        """
        prev = ep.previous_map
        key = (prev.environment_id, prev.scan_id, ep.realized_scene.scan_id, ep.n)
        if key not in self._optimal:
            changed = sorted(planner.changed_object_ids(ep, self.tax))
            pts = np.array([ep.previous_map.node(oid).position for oid in changed], dtype=np.float64)
            from_start = np.linalg.norm(pts - ep.start(), axis=1)
            between = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=2)
            self._optimal[key] = min(
                from_start[order[0]] + sum(between[a, b] for a, b in zip(order, order[1:]))
                for order in itertools.permutations(range(len(changed)), ep.n)
            )
        return float(self._optimal[key])

    def _oracle_distance(self, ep) -> float:
        """Guided planner with perfect predictions (`OracleScorer`): what the
        fixed top-(n+3) route design costs on its own."""
        oracle = planner.OracleScorer(ep.realized_scene, ep.label_cfg)
        return planner.run_vsg_planner(ep, oracle, self.tax).distance_traveled

    def oracle_distance_mean(self) -> float:
        return float(np.mean([self._oracle_distance(ep) for op in self.pairs for ep in op]))

    def quality(self, first_pass: list[tuple]) -> dict[str, tuple[float, str, str]]:
        # Every operation holds one episode per n, so a summary row's mean
        # distance is that episode's distance.
        coverage, guided, oracle, optimal = [], [], [], []
        for op, summary in first_pass:
            rows = {(r.n, r.planner): r.mean_distance for r in summary.rows}
            for ep in op:
                coverage.append(rows[(ep.n, planner.COVERAGE)])
                guided.append(rows[(ep.n, planner.VSG_PLANNER)])
                oracle.append(self._oracle_distance(ep))
                optimal.append(self._optimal_distance(ep))
        coverage, guided, oracle, optimal = (
            np.array(x) for x in (coverage, guided, oracle, optimal))
        return {
            "coverage_distance_mean": (float(coverage.mean()), "m", "lower"),
            "guided_distance_mean": (float(guided.mean()), "m", "lower"),
            "oracle_distance_mean": (float(oracle.mean()), "m", "lower"),
            "optimal_distance_mean": (float(optimal.mean()), "m", "lower"),
            # Mean over episodes and both planners of the optimal walk's share
            # of the planner's walk: 1 when every walk is optimal, lower when
            # either planner's route gets longer.
            "quality": (float(np.mean(np.r_[optimal / coverage, optimal / guided])),
                        "ratio", "higher"),
        }

    def details(self, outs: list) -> dict[str, tuple[float, str, str]]:
        return {
            "pairs_kept": (len(self.pairs), "count", "higher"),
            "pairs_dropped": (self.pairs_dropped, "count", "lower"),
            "episodes_dropped": (self.episodes_dropped, "count", "lower"),
        }


def make_workload(name: str, seed: int, scale: Scale, workdir: str):
    if name == "train":
        return TrainWorkload(seed, scale)
    return PlanWorkload(name, seed, scale, workdir)
