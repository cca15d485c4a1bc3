"""Every numeric CLI option, given a hostile value, ends in a clean exit.

Each numeric option of `eval`, `plan` and `compare-planners`, and the
`--seed` of `generate` and `train`, is given every value of `VALUES`
through `dispatch` on a tiny world. The run must exit 0, 1 or 2 and raise
nothing; exit 1 prints exactly one `error:` line, and exit 0 echoes a
`resolved-config:` line that JSON without NaN or Infinity accepts. Every
(option, value) pair runs, so the check does not depend on a draw.
"""

from __future__ import annotations

import json

import pytest

from vsg import load_dataset
from vsg.cli import dispatch

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
