"""Every numeric CLI option, given a hostile value, ends in a clean exit.

Each numeric option of `eval`, `plan` and `compare-planners`, and the
`--seed` of `generate` and `train`, is given every value of `VALUES`
through `dispatch` on a tiny world. The run must exit 0, 1 or 2 and raise
nothing; exit 1 prints exactly one `error:` line, and exit 0 echoes a
`resolved-config:` line that JSON without NaN or Infinity accepts. Every
(option, value) pair runs, so the check does not depend on a draw.

Coordinates get the same treatment: a `--start` and scenes whose largest
coordinate is each of `MAGNITUDES` either run to finite output, with every
TSP route a permutation, or are one `error:` line before the echo.
"""

from __future__ import annotations

import json
import math
import re

import pytest

from vsg import load_dataset, planner
from vsg.cli import dispatch
from vsg.core_graph import MAX_COORDINATE

from conftest import MAGNITUDES

VALUES = ["nan", "inf", "-inf", "-1", "0", "1e309", str(2**63), "", "text"]

GEN_SPEC = {
    "num_environments": 3,
    "scans_per_environment": 2,
    "objects_min": 4,
    "objects_max": 5,
    "split_fractions": [0.4, 0.3, 0.3],
    "seed": 5,
}

# --epochs, --batch-size and the layer widths stay fixed: they size the work.
TRAIN_FLAGS = ["--epochs", "1", "--batch-size", "2", "--d-v", "4", "--hidden-dim", "4"]


@pytest.fixture(scope="module")
def world(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    spec = root / "gen.json"
    spec.write_text(json.dumps(GEN_SPEC))
    data, ckpt = root / "data", root / "model.json"
    assert dispatch(["generate", "--spec", str(spec), "--out", str(data)]) == 0
    assert dispatch(["train", "--data", str(data), "--out", str(ckpt), *TRAIN_FLAGS]) == 0
    return {"spec": spec, "data": data, "ckpt": ckpt,
            "scene": data / "env000" / "scan00.json", "realized": data / "env000" / "scan01.json"}


# A valid command line per subcommand; the fuzzed option is appended last, so it wins.
COMMANDS = {
    "generate": lambda w, out: ["generate", "--spec", w["spec"], "--out", out / "data"],
    "train": lambda w, out: ["train", "--data", w["data"], "--out", out / "m.json", *TRAIN_FLAGS],
    "eval": lambda w, out: ["eval", "--ckpt", w["ckpt"], "--data", w["data"],
                            "--report", out / "m.csv", "--sweep", out / "s.csv"],
    "plan": lambda w, out: ["plan", "--ckpt", w["ckpt"], "--scene", w["scene"], "--n", "1",
                            "--realized", w["realized"]],
    "compare-planners": lambda w, out: ["compare-planners", "--data", w["data"], "--ckpt", w["ckpt"],
                                        "--n-range", "1..2", "--seeds", "2", "--split", "all",
                                        "--out", out / "b.csv"],
}

OPTIONS = [
    ("generate", "--seed"),
    ("train", "--seed"),
    ("eval", "--threshold"),
    ("eval", "--epsilon"),
    ("plan", "--n"),
    ("plan", "--start"),
    ("compare-planners", "--n-range"),
    ("compare-planners", "--seeds"),
    ("compare-planners", "--seed"),
]


def _refuse_constant(name):
    raise ValueError(f"{name} is not JSON")


@pytest.mark.parametrize("value", VALUES)
@pytest.mark.parametrize("command, option", OPTIONS)
def test_hostile_value_exits_cleanly(world, tmp_path, capsys, command, option, value):
    argv = [str(a) for a in COMMANDS[command](world, tmp_path)] + [f"{option}={value}"]
    rc = dispatch(argv)
    out, err = capsys.readouterr()
    assert rc in (0, 1, 2) and "Traceback" not in err, (rc, err)
    if rc == 1:
        assert len([line for line in err.splitlines() if line.startswith("error:")]) == 1, err
    if rc == 0:
        echo = [line for line in out.splitlines() if line.startswith("resolved-config: ")]
        assert len(echo) == 1, out
        json.loads(echo[0][len("resolved-config: "):], parse_constant=_refuse_constant)


# Generator spec values that numpy would refuse mid-generation, after the echo.
BAD_SPEC_VALUES = [
    ("room_size", [0.5, 0.5, 3]),
    ("room_size", [-8, 8, 3]),
    ("support_radius", -1),
    ("move_distance", [0.9, 0.25]),
    ("epsilon", -1),
    ("room_size", [8, 8, -1]),
    ("room_size", [8, 8, 0]),
    ("room_size", [2e9, 8, 3]),  # each object lies in the room, and a coordinate is at most 1e9 m
    ("room_size", [8, 8, 1e200]),
    ("support_radius", 1.7e308),  # _place draws offsets in +-0.6 r, which overflows numpy's range
    ("min_spacing", -1.0),
    ("next_to_radius", -1.0),
]


@pytest.mark.parametrize("field, value", BAD_SPEC_VALUES)
def test_out_of_range_generator_spec_refused_before_echo(tmp_path, capsys, field, value):
    spec = tmp_path / "gen.json"
    spec.write_text(json.dumps(GEN_SPEC | {field: value}))
    rc = dispatch(["generate", "--spec", str(spec), "--out", str(tmp_path / "data")])
    out, err = capsys.readouterr()
    assert rc == 1 and "resolved-config:" not in out and "Traceback" not in err, (out, err)
    err = err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: ConfigError: {spec}: "), err
    assert not (tmp_path / "data").exists()


@pytest.mark.parametrize("extra", [1, 74, pytest.param(None, id="above-node-count")])
def test_d_v_above_encoding_width_refused_before_echo(world, tmp_path, capsys, extra):
    # `extra` is how far d_v goes past the node encoding's width; None puts it
    # one past the train split's node count instead, within the width.
    bundle = load_dataset(world["data"])
    width = bundle.taxonomy.num_classes + bundle.taxonomy.num_attributes
    nodes = sum(g.num_nodes for e in bundle.environment_ids("train") for g in bundle.environments[e])
    d_v = nodes + 1 if extra is None else width + extra
    assert extra is not None or d_v <= width
    ckpt = tmp_path / "m.json"
    argv = [str(a) for a in COMMANDS["train"](world, tmp_path)]
    rc = dispatch(argv + [f"--d-v={d_v}"])
    out, err = capsys.readouterr()
    assert rc == 1 and "resolved-config:" not in out and not ckpt.exists()
    err = err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: DimensionError: ") and f"d_v={d_v}" in err[0], err


def _scaled_scenes(world, out, v):
    """The scene and realized scene, scaled by one factor so that the largest
    coordinate magnitude of the two is v."""
    raws = [json.loads(world[key].read_text()) for key in ("scene", "realized")]
    top = max(abs(c) for raw in raws for node in raw["nodes"] for c in node["position"])
    paths = []
    for raw, name in zip(raws, ("scene.json", "realized.json")):
        for node in raw["nodes"]:
            node["position"] = [min(max(c * (v / top), -v), v) for c in node["position"]]
        (out / name).write_text(json.dumps(raw))
        paths.append(out / name)
    return paths


@pytest.fixture
def checked_tsp(monkeypatch):
    """Every solve_tsp result the planner gets, each checked to be a permutation."""
    orders = []

    def solve_tsp(points, start):
        order = real(points, start)
        assert sorted(order) == list(range(len(points))), order
        orders.append(order)
        return order

    real = planner.solve_tsp
    monkeypatch.setattr(planner, "solve_tsp", solve_tsp)
    return orders


def _finite_numbers(text: str) -> list[float]:
    values = [float(x) for x in re.findall(r"distance:? (\S+)", text)]
    assert values and all(math.isfinite(x) for x in values), text
    return values


def _refused_before_echo(rc, out, err, kind):
    assert rc == 1 and "resolved-config:" not in out and "Traceback" not in err, (out, err)
    err = err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {kind}: "), err


@pytest.mark.parametrize("sign", ["", "-"])
@pytest.mark.parametrize("v", MAGNITUDES)
def test_start_magnitude(world, tmp_path, capsys, checked_tsp, v, sign):
    argv = [str(a) for a in COMMANDS["plan"](world, tmp_path)] + [f"--start={sign}{v!r},0,{v!r}"]
    rc = dispatch(argv)
    out, err = capsys.readouterr()
    if v > MAX_COORDINATE:
        _refused_before_echo(rc, out, err, "UsageError")
        return
    assert rc == 0, err
    assert len(_finite_numbers(out)) == 3 and checked_tsp  # the phase-1 route and both planners


@pytest.mark.parametrize("command", ["predict", "plan"])
@pytest.mark.parametrize("v", MAGNITUDES)
def test_scene_magnitude(world, tmp_path, capsys, checked_tsp, command, v):
    scene, realized = _scaled_scenes(world, tmp_path, v)
    pred = tmp_path / "pred.json"
    argv = {
        "predict": ["predict", "--ckpt", world["ckpt"], "--scene", scene, "--out", pred],
        "plan": ["plan", "--ckpt", world["ckpt"], "--scene", scene, "--n", "1", "--realized", realized],
    }[command]
    rc = dispatch([str(a) for a in argv])
    out, err = capsys.readouterr()
    if v > MAX_COORDINATE:
        _refused_before_echo(rc, out, err, "ParseError")
        assert not pred.exists()
        return
    assert rc == 0, err
    if command == "plan":
        assert len(_finite_numbers(out)) == 3 and checked_tsp
        return
    nodes = json.loads(pred.read_text(), parse_constant=_refuse_constant)["nodes"]
    assert all(0 <= p <= 1 for node in nodes for p in node["variability"].values())
