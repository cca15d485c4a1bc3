"""Span tracing from outside the package: wrap vsg functions where they are looked up.

A span covers one call of a wrapped function. Its inclusive time is the
call's wall time; its self time is that minus the time of the spans it
directly contains. Spans are aggregated per name in memory (calls,
inclusive and self seconds) plus a few counters that hooks compute from
the call's arguments and result.

Each entry of `SPAN_TABLE` names the module or class attribute that the
caller resolves at call time, so patching it intercepts the call without
touching the package's source: `vsg.planner.held_karp` is what
`solve_tsp` calls, `vsg.training.fit_pca` is what `train` calls, and a
method is patched on its class.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time
from collections import defaultdict

import numpy as np


class Tracer:
    def __init__(self):
        self.calls: dict[str, int] = defaultdict(int)
        self.total_s: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[dict] = []  # open spans: name, child_s, scratch
        self._patches: list[tuple[object, str, object]] = []
        self._paused = False

    # -- spans --------------------------------------------------------------

    def wrap(self, name, fn, after=None):
        """`fn` traced as span `name` (a string, or a function of the call's
        args and kwargs); `after(tracer, args, kwargs, result)` runs on return."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer._paused:
                return fn(*args, **kwargs)
            label = name(args, kwargs) if callable(name) else name
            frame = {"name": label, "child_s": 0.0, "scratch": {}}
            tracer._stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                tracer._stack.pop()
                if tracer._stack:
                    tracer._stack[-1]["child_s"] += dt
                tracer.calls[label] += 1
                tracer.total_s[label] += dt
                tracer.self_s[label] += dt - frame["child_s"]
            if after is not None:
                after(tracer, args, kwargs, result)
            return result

        return traced

    def enclosing(self, name: str) -> dict | None:
        """Scratch space of the innermost open span called `name`, if any."""
        for frame in reversed(self._stack):
            if frame["name"] == name:
                return frame["scratch"]
        return None

    @contextlib.contextmanager
    def paused(self):
        """Calls inside this block run untraced (checks, oracle runs)."""
        previous, self._paused = self._paused, True
        try:
            yield
        finally:
            self._paused = previous

    # -- patching -----------------------------------------------------------

    def patch(self, owner, attr: str, name, after=None) -> None:
        original = vars(owner)[attr]
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, after))

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def installed(self):
        """Every span of SPAN_TABLE patched in for the duration of the block."""
        for module_name, owner_name, attr, name, after in SPAN_TABLE:
            owner = importlib.import_module(module_name)
            if owner_name:
                owner = getattr(owner, owner_name)
            self.patch(owner, attr, name, after)
        try:
            yield self
        finally:
            self.restore()


# ---------------------------------------------------------------------------
# Hooks: counters computed at the span boundary
# ---------------------------------------------------------------------------


FORWARD_SPANS = ("model.forward_train", "model.forward_eval")


def _forward_name(args, kwargs) -> str:
    mode = kwargs.get("mode", args[2] if len(args) > 2 else "eval")
    return FORWARD_SPANS[0] if mode == "train" else FORWARD_SPANS[1]


def _after_forward(tracer, args, kwargs, result) -> None:
    if _forward_name(args, kwargs) == FORWARD_SPANS[1] and tracer.enclosing("training.train") is not None:
        tracer.counters["train_eval_forwards"] += 1


def _after_train(tracer, args, kwargs, result) -> None:
    report = result[1]
    tracer.counters["train_val_sample_epochs"] += report.epochs_run * report.num_val_samples


def _after_fit_pca(tracer, args, kwargs, result) -> None:
    tracer.counters["embedding.fit_pca.rows"] += len(args[0])


def _after_embed(tracer, args, kwargs, result) -> None:
    tracer.counters["embedding.embed.edges"] += result.num_edges


def _after_solve_tsp(tracer, args, kwargs, result) -> None:
    scratch = tracer.enclosing("planner.run_benchmark")
    if scratch is None:
        return
    start = kwargs.get("start", args[1] if len(args) > 1 else None)
    key = (
        np.asarray(args[0], dtype=np.float64).tobytes(),
        np.asarray(start, dtype=np.float64).tobytes(),
    )
    seen = scratch.setdefault("tsp_inputs", set())
    if key in seen:
        tracer.counters["solve_tsp_repeats"] += 1
    seen.add(key)


def _after_held_karp(tracer, args, kwargs, result) -> None:
    n = len(args[0])
    tracer.counters["planner.held_karp.points_max"] = max(tracer.counters["planner.held_karp.points_max"], n)
    tracer.counters["planner.held_karp.states"] += (1 << n) * n


def _after_heuristic(tracer, args, kwargs, result) -> None:
    tracer.counters["heuristic_points"] += len(args[0])


def _after_vsg_planner(tracer, args, kwargs, result) -> None:
    tracer.counters["fallbacks"] += int(result.fallback_used)


# (module, class or "", attribute, span name, hook). A function imported by
# name into another module is patched where that module looks it up.
SPAN_TABLE = [
    ("vsg.training", "", "fit_pca", "embedding.fit_pca", _after_fit_pca),
    ("vsg.training", "", "embed", "embedding.embed", _after_embed),
    ("vsg.model", "", "embed", "embedding.embed", _after_embed),
    ("vsg.embedding", "", "build_edges", "embedding.build_edges", None),
    ("vsg.model", "DeltaVsgModel", "forward", _forward_name, _after_forward),
    ("vsg.model", "DeltaVsgModel", "backward", "model.backward", None),
    ("vsg.model", "MpConv", "forward", "model.mp_conv_forward", None),
    ("vsg.model", "MpConv", "backward", "model.mp_conv_backward", None),
    ("vsg.model", "", "save_checkpoint", "model.save_checkpoint", None),
    ("vsg.model", "", "load_checkpoint", "model.load_checkpoint", None),
    ("vsg.nn_core", "Mlp", "forward", "nn_core.mlp_forward", None),
    ("vsg.nn_core", "Mlp", "backward", "nn_core.mlp_backward", None),
    ("vsg.nn_core", "Adam", "step", "nn_core.adam_step", None),
    ("vsg.training", "", "train", "training.train", _after_train),
    ("vsg.training", "", "focal_loss", "training.focal_loss", None),
    ("vsg.training", "", "evaluate", "training.evaluate", None),
    ("vsg.training", "", "threshold_sweep", "training.threshold_sweep", None),
    ("vsg.dataset", "", "generate_dataset", "dataset.generate_dataset", None),
    ("vsg.dataset", "", "write_dataset", "dataset.write_dataset", None),
    ("vsg.dataset", "", "load_dataset", "dataset.load_dataset", None),
    ("vsg.dataset", "", "compute_labels", "dataset.compute_labels", None),
    ("vsg.planner", "", "compute_labels", "dataset.compute_labels", None),
    ("vsg.dataset", "", "save_scene_graph", "core_graph.save_scene_graph", None),
    ("vsg.dataset", "", "load_scene_graph", "core_graph.load_scene_graph", None),
    ("vsg.planner", "", "run_benchmark", "planner.run_benchmark", None),
    ("vsg.planner", "", "run_coverage", "planner.run_coverage", None),
    ("vsg.planner", "", "run_vsg_planner", "planner.run_vsg_planner", _after_vsg_planner),
    ("vsg.model", "_VariabilityModel", "predict_probabilities", "planner.predict", None),
    ("vsg.planner", "", "solve_tsp", "planner.solve_tsp", _after_solve_tsp),
    ("vsg.planner", "", "held_karp", "planner.held_karp", _after_held_karp),
    ("vsg.planner", "", "heuristic_tsp", "planner.heuristic_tsp", _after_heuristic),
]

# Every span name the table can produce, in table order; the one span
# named per call (`_forward_name`) contributes both of its names.
SPAN_NAMES = list(dict.fromkeys(
    n for *_, name, _ in SPAN_TABLE
    for n in (FORWARD_SPANS if name is _forward_name else (name,))
))


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """Per-layer metrics computed from the tracer: name -> (value, unit)."""
    out: dict[str, tuple[float, str]] = {}
    for name in SPAN_NAMES:
        out[f"{name}.s"] = (tracer.total_s[name], "s")
        out[f"{name}.self_s"] = (tracer.self_s[name], "s")
        out[f"{name}.calls"] = (tracer.calls[name], "count")
    c = tracer.counters
    out["embedding.fit_pca.rows"] = (int(c["embedding.fit_pca.rows"]), "count")
    out["embedding.embed.edges"] = (int(c["embedding.embed.edges"]), "count")
    out["training.val_passes_per_epoch"] = (
        _ratio(c["train_eval_forwards"], c["train_val_sample_epochs"]), "count")
    out["planner.solve_tsp.repeat_frac"] = (
        _ratio(c["solve_tsp_repeats"], tracer.calls["planner.solve_tsp"]), "ratio")
    out["planner.held_karp.points_max"] = (int(c["planner.held_karp.points_max"]), "count")
    out["planner.held_karp.states"] = (int(c["planner.held_karp.states"]), "count")
    out["planner.heuristic_tsp.points_mean"] = (
        _ratio(c["heuristic_points"], tracer.calls["planner.heuristic_tsp"]), "count")
    out["planner.fallback_frac"] = (
        _ratio(c["fallbacks"], tracer.calls["planner.run_vsg_planner"]), "ratio")
    return out
