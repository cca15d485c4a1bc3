"""Smoke test of the benchmark harness at tiny input sizes.

    python3 -m pytest perfbench/test_harness.py -q

Runs every workload once per mode at `--scale tiny` and checks the
harness, not vsg's speed: every metric named in BENCHMARK.json is
reported with its unit and direction, span nesting gives self times >= 0,
traced counts repeat for a repeated seed, and the benchmark refuses to
run without the package sources.
"""

import functools
import json
import math
import os
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

# BLAS on the calling thread, as run.py sets it, before anything loads numpy:
# idle BLAS threads spin and add CPU time that no measured piece owns.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
METRIC_LINE = re.compile(r"^\s+metric (\S+) = (\S+) (\S+) \((lower|higher) is better\)$")

# Metrics each workload prints under the names its users know, beyond the
# gated ones: name -> (unit, better).
COMMON_DETAILS = {
    "op_cpu_s_p50": ("s", "lower"), "op_cpu_s_p90": ("s", "lower"),
    "op_s_p50": ("s", "lower"), "op_s_p90": ("s", "lower"), "ops_per_s": ("1/s", "higher"),
    "setup_cpu_s": ("s", "lower"), "setup_wall_s": ("s", "lower"), "fail_frac": ("ratio", "lower"),
}
PLAN_DETAILS = {
    **COMMON_DETAILS,
    "pair_s_p50": ("s", "lower"), "pair_s_p90": ("s", "lower"), "pairs_per_s": ("1/s", "higher"),
    "coverage_distance_mean": ("m", "lower"), "guided_distance_mean": ("m", "lower"),
    "optimal_distance_mean": ("m", "lower"),
}
WORKLOAD_DETAILS = {
    "train": {
        **COMMON_DETAILS,
        "train_s": ("s", "lower"), "eval_s": ("s", "lower"), "test_f1": ("ratio", "higher"),
    },
    "plan-exact": PLAN_DETAILS,
    "plan-heuristic": PLAN_DETAILS,
}


def _run(workload: str, trace: int, seed: int = 5, root: Path = ROOT):
    return subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0.2", "--trace", str(trace), "--scale", "tiny"],
        cwd=root, capture_output=True, text=True, timeout=300,
    )


@functools.lru_cache(maxsize=None)
def bench(workload: str, trace: int, seed: int = 5):
    """(result object, {printed metric: (unit, better)}) of one tiny run."""
    proc = _run(workload, trace, seed)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    printed = {}
    for line in lines:
        m = METRIC_LINE.match(line)
        if m:
            printed[m.group(1)] = (m.group(3), m.group(4))
    return json.loads(lines[-1]), printed


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_named_metric_is_reported_with_unit_and_direction(workload, trace):
    result, printed = bench(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in spec}
    for m in spec:
        reported = result["metrics"][m["name"]]
        assert reported["unit"] == m["unit"], m["name"]
        value = reported["value"]
        assert isinstance(value, (int, float)) and not isinstance(value, bool)
        assert math.isfinite(value), m["name"]
        assert printed[m["name"]] == (m["unit"], m["better"]), m["name"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_prints_its_user_facing_metrics(workload):
    _, printed = bench(workload, 0)
    for name, unit_better in WORKLOAD_DETAILS[workload].items():
        assert printed.get(name) == unit_better, name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_span_self_times_are_nonnegative_and_within_inclusive(workload):
    metrics = bench(workload, 1)[0]["metrics"]
    for name, entry in metrics.items():
        if name.endswith(".self_s"):
            total = metrics[name[: -len(".self_s")] + ".s"]["value"]
            assert 0.0 <= entry["value"] <= total + 1e-9, name


def test_layers_separate_by_workload():
    train = bench("train", 1)[0]["metrics"]
    assert all(v["value"] == 0 for k, v in train.items()
               if k.startswith("planner.") and k.endswith(".calls"))
    exact = bench("plan-exact", 1)[0]["metrics"]
    assert exact["planner.held_karp.calls"]["value"] > 0
    assert exact["planner.heuristic_tsp.calls"]["value"] == 0
    heuristic = bench("plan-heuristic", 1)[0]["metrics"]
    assert heuristic["planner.heuristic_tsp.calls"]["value"] > 0
    assert heuristic["planner.held_karp.points_max"]["value"] <= 6


def test_traced_counts_repeat_for_the_same_seed():
    first = bench("plan-exact", 1)[0]["metrics"]
    proc = _run("plan-exact", 1)  # a fresh process, not the cached run
    assert proc.returncode == 0, proc.stderr
    rerun = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    for name, entry in first.items():
        if entry["unit"] in ("count", "ratio", "m") and name != "trace_overhead_frac":
            assert rerun[name]["value"] == entry["value"], name


def test_tracer_self_time_subtracts_children():
    sys.path.insert(0, str(HERE))
    import tracer as tr

    spans = tr.Tracer()

    def leaf():
        time.sleep(0.01)

    traced_leaf = spans.wrap("leaf", leaf)

    def parent():
        traced_leaf()
        traced_leaf()
        time.sleep(0.005)

    spans.wrap("parent", parent)()
    assert spans.calls == {"leaf": 2, "parent": 1}
    assert spans.self_s["parent"] == pytest.approx(spans.total_s["parent"] - spans.total_s["leaf"])
    assert 0.004 <= spans.self_s["parent"] < spans.total_s["parent"]
    assert spans.self_s["leaf"] == spans.total_s["leaf"]


def test_host_speed_leaves_samples_out_and_calibrates_from_the_window():
    sys.path.insert(0, str(HERE))
    import hostspeed

    speed = hostspeed.HostSpeed(("python", "numpy"))
    with speed.sampling():
        with speed.measure() as m:
            c0 = time.process_time()
            while time.process_time() - c0 < 4 * hostspeed.PERIOD_S:
                pass
    # One sample when sampling starts, about one per PERIOD_S inside the
    # piece, and one when it stops.
    inside = [s for s in speed.samples if m.start <= s.at <= m.end]
    assert len(inside) >= 3 and len(speed.samples) == len(inside) + 2
    # The loop's CPU clock counts the samples; the piece's CPU time does not.
    assert m.cpu_s + sum(s.cpu_s for s in inside) == pytest.approx(
        4 * hostspeed.PERIOD_S, abs=0.05)
    speed.calibrate([m])
    mean_sample = sum(s.cpu_s for s in speed.samples) / len(speed.samples)
    nominal_s = hostspeed.NOMINAL_S["python"] + hostspeed.NOMINAL_S["numpy"]
    assert m.cost_s == pytest.approx(m.cpu_s * nominal_s / mean_sample)


def test_refuses_to_run_without_the_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__", ".work-*"))
    proc = _run(WORKLOADS[0], 0, root=tmp_path)
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())
