"""Every JSON file vsg loads either loads or fails with one VsgError.

A hypothesis test mutates valid files for each loader (drop a key, change a
value's type, truncate, inject NaN/Infinity, empty a list, insert bad UTF-8
bytes); the loader must load cleanly or raise a `VsgError`, and a checkpoint
that loads must re-save its settings as the file gave them. A CLI test holds
the exit-1, one-`error:`-line rule on hand-written malformed scenes,
manifests, specs and configs; library tests cover the 3RScan ingest, which
has no command; and a structural guard keeps `json.load`/`json.loads` in the
one reader.
"""

from __future__ import annotations

import ast
import contextlib
import io
import json
import logging
import math
import shutil
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from vsg import (
    ParseError,
    VsgError,
    ingest_3rscan_layout,
    load_checkpoint,
    load_dataset,
    load_scene_graph,
)
from vsg.cli import dispatch
from vsg.core_graph import MAX_COORDINATE, load_taxonomy
from vsg.model import checkpoint_to_json

from conftest import MAGNITUDES

SRC = Path(__file__).resolve().parents[1] / "src" / "vsg"

GEN_SPEC = {
    "num_environments": 2,
    "scans_per_environment": 2,
    "objects_min": 4,
    "objects_max": 5,
    "split_fractions": [0.5, 0.5, 0.0],
    "propensity_overrides": {"cup": {"move_near": 0.5, "move_far": 0.1}},
    "seed": 3,
}

TRAIN_CONFIG = {
    "model": {"kind": "deltavsg", "d_v": 4, "hidden_dim": 4, "scalar_gate": False, "tau": 1.5},
    "train": {"epochs": 1, "batch_size": 2, "learning_rate": 0.01, "seed": 0, "patience": 2},
    "loss": {"gamma": 0.5, "class_weights": [[2.0, 1.0], [1.0, 1.0], [3.0, 1.0]]},
    "label": {"epsilon": 0.1},
}

INDEX = [
    {"reference": "envA-ref", "scans": [{"reference": "envA-re1"}]},
    {"reference": "envB-ref", "scans": [{"reference": "envB-re1"}]},
]

OBJECTS = {
    "objects": [
        {"id": "1", "label": "chair", "position": [0, 0, 0],
         "attributes": {"state": ["open"], "static": ["wooden"]}},
        {"id": "2", "label": "table", "position": [2, 0, 0], "attributes": ["wooden"]},
    ]
}

RELATIONSHIPS = {"relationships": [["1", "2", "standing on"]]}


def run_cli(argv: list[str]) -> tuple[int, str]:
    """Exit code and stderr of one in-process CLI run."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        rc = dispatch(argv)
    return rc, err.getvalue()


def assert_one_error_line(rc: int, err: str, kind: str = "") -> str:
    lines = err.strip().splitlines()
    assert rc == 1 and len(lines) == 1, (rc, err)
    assert lines[0].startswith(f"error: {kind}"), lines[0]
    return lines[0]


@pytest.fixture(scope="module")
def world(tmp_path_factory):
    """A tiny generated dataset, a checkpoint trained on it, a 3RScan-style
    layout, and the generator spec and train config as files."""
    root = tmp_path_factory.mktemp("loaders")
    spec = root / "spec.json"
    spec.write_text(json.dumps(GEN_SPEC))
    config = root / "train.json"
    config.write_text(json.dumps(TRAIN_CONFIG))
    data = root / "data"
    ckpt = root / "model.json"
    assert run_cli(["generate", "--spec", str(spec), "--out", str(data)])[0] == 0
    assert run_cli(["train", "--data", str(data), "--config", str(config),
                    "--out", str(ckpt)])[0] == 0
    layout = root / "layout"
    layout.mkdir()
    (layout / "3RScan.json").write_text(json.dumps(INDEX))
    for scan in ("envA-ref", "envA-re1", "envB-ref", "envB-re1"):
        (layout / scan).mkdir()
        (layout / scan / "objects.json").write_text(json.dumps(OBJECTS))
        (layout / scan / "relationships.json").write_text(json.dumps(RELATIONSHIPS))
    return {"root": root, "spec": spec, "config": config, "data": data, "ckpt": ckpt,
            "layout": layout, "taxonomy": load_taxonomy(data / "taxonomy.json")}


def _load_library(call):
    try:
        call()
    except VsgError:
        pass


def _load_cli(argv):
    rc, err = run_cli(argv)
    if rc != 0:
        assert_one_error_line(rc, err)
    return rc


def _same_value(a, b) -> bool:
    """Numbers compare by value; every other type strictly."""
    if type(a) in (int, float) and type(b) in (int, float):
        return a == b
    return type(a) is type(b) and a == b


def _load_checkpoint(w):
    """Predict with the checkpoint; when it loads, its settings must re-save as
    the file gave them."""
    argv = ["predict", "--ckpt", str(w["ckpt"]), "--scene", str(w["data"] / "env000" / "scan00.json"),
            "--out", str(w["root"] / "fuzz-pred.json")]
    if _load_cli(argv) != 0:
        return
    stored = json.loads(w["ckpt"].read_bytes())
    saved = json.loads(checkpoint_to_json(*load_checkpoint(w["ckpt"])))
    for section in ("hyperparameters", "edge_config"):
        assert saved[section].keys() == stored[section].keys(), section
        for key, value in stored[section].items():
            assert _same_value(saved[section][key], value), (section, key, value)


# loader name -> (files it may mutate, relative to the world root; the load)
LOADERS = {
    "taxonomy": (["data/taxonomy.json"],
                 lambda w: _load_library(lambda: load_taxonomy(w["data"] / "taxonomy.json"))),
    "scene": (["data/env000/scan00.json"],
              lambda w: _load_library(lambda: load_scene_graph(
                  w["data"] / "env000" / "scan00.json", w["taxonomy"]))),
    "manifest": (["data/manifest.json"],
                 lambda w: _load_library(lambda: load_dataset(w["data"]))),
    "3rscan": (["layout/3RScan.json", "layout/envA-ref/objects.json",
                "layout/envB-re1/relationships.json"],
               lambda w: _load_library(lambda: ingest_3rscan_layout(w["layout"]))),
    "checkpoint": (["model.json"], _load_checkpoint),
    "generator-spec": (["spec.json"], lambda w: _load_cli(
        ["generate", "--spec", str(w["spec"]), "--out", str(w["root"] / "gen-out")])),
    "train-config": (["train.json"], lambda w: _load_cli(
        ["train", "--data", str(w["data"]), "--config", str(w["config"]),
         "--out", str(w["root"] / "fuzz-model.json")])),
}

MUTATIONS = ["drop_key", "change_type", "truncate", "non_finite", "empty_list", "bad_utf8"]

# One value of each JSON type; a type change draws one of a different type.
TYPE_SWAPS = [None, True, "x", 7, 2.5, [1], {"k": 1}]


def _paths(value, path=()):
    """Every position in a parsed JSON value, the root included."""
    yield path
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return
    for key, child in items:
        yield from _paths(child, (*path, key))


def _key_path(path):
    """A position's dict keys without its list indices: every element of one
    weight matrix shares a key path, and each checkpoint setting has its own."""
    return tuple(k for k in path if isinstance(k, str))


def _at(value, path):
    for key in path:
        value = value[key]
    return value


def mutate(draw, raw: bytes, kind: str) -> bytes:
    if kind == "truncate":
        return raw[: draw(st.integers(0, len(raw) - 1))]
    if kind == "bad_utf8":
        at = draw(st.integers(0, len(raw)))
        return raw[:at] + draw(st.sampled_from([b"\xff", b"\xc3(", b"\xed\xa0\x80"])) + raw[at:]
    value = json.loads(raw)
    paths = list(_paths(value))
    if kind == "drop_key":
        paths = [p for p in paths if p and isinstance(_at(value, p[:-1]), dict)]
    elif kind == "empty_list":
        paths = [p for p in paths if isinstance(_at(value, p), list)]
    assume(paths)
    # Key path first, then a position within it, so a file's few scalar
    # settings are drawn as often as each of its large arrays.
    by_key: dict[tuple, list] = {}
    for p in paths:
        by_key.setdefault(_key_path(p), []).append(p)
    path = draw(st.sampled_from(by_key[draw(st.sampled_from(list(by_key)))]))
    if kind == "drop_key":
        del _at(value, path[:-1])[path[-1]]
        return json.dumps(value).encode()
    if kind == "change_type":
        old = _at(value, path)
        new = draw(st.sampled_from([v for v in TYPE_SWAPS if type(v) is not type(old)]))
    elif kind == "non_finite":
        new = draw(st.sampled_from([math.nan, math.inf, -math.inf]))
    else:
        new = []
    if not path:
        return json.dumps(new).encode()
    _at(value, path[:-1])[path[-1]] = new
    return json.dumps(value).encode()


@pytest.mark.parametrize("loader", list(LOADERS))
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_mutated_file_loads_or_raises_vsg_error(world, loader, data):
    files, load = LOADERS[loader]
    target = world["root"] / data.draw(st.sampled_from(files))
    original = target.read_bytes()
    target.write_bytes(mutate(data.draw, original, data.draw(st.sampled_from(MUTATIONS))))
    try:
        load(world)
    finally:
        target.write_bytes(original)


def _scene(world, **changes):
    raw = json.loads((world["data"] / "env000" / "scan00.json").read_text())
    return raw | changes


def _entries(world):
    return json.loads((world["data"] / "manifest.json").read_text())["environments"]


def _manifest(world, environments):
    raw = json.loads((world["data"] / "manifest.json").read_text())
    return [] if environments is None else raw | {"environments": environments}


# case -> (command, file contents (JSON value or raw text), error kind, words the line must hold)
CLI_CASES = {
    "scene-nodes-not-a-list": ("predict", lambda w: _scene(w, nodes=5), "ParseError", ["nodes"]),
    "scene-edges-not-a-list": ("predict", lambda w: _scene(w, edges=5), "ParseError", ["edges"]),
    "scene-edge-not-an-object": ("predict", lambda w: _scene(w, edges=[5]), "ParseError", ["edge 0"]),
    "scene-unhashable-relation": (
        "predict",
        lambda w: _scene(w, edges=[{"source": "obj000", "target": "obj001", "relation": ["x"]}]),
        "ParseError", ["edge 0"]),
    "scene-timestamp-not-a-number": (
        "predict", lambda w: _scene(w, timestamp="x"), "ParseError", ["timestamp"]),
    "manifest-top-level-list": ("train --data", lambda w: _manifest(w, None), "ParseError", ["object"]),
    "manifest-entry-not-an-object": (
        "train --data", lambda w: _manifest(w, [5]), "ParseError", ["environment 0"]),
    "manifest-entry-without-scans": (
        "train --data", lambda w: _manifest(w, [{"environment_id": "env000"}]), "ParseError",
        ["environment 0", "scans"]),
    "manifest-scans-not-a-list": (
        "train --data", lambda w: _manifest(w, [{"environment_id": "env000", "scans": 5}]),
        "ParseError", ["environment 0"]),
    "manifest-entry-without-id": (
        "train --data", lambda w: _manifest(w, [{"scans": ["scan00"]}]), "ParseError",
        ["environment 0", "environment_id"]),
    "manifest-environment-twice": (
        "train --data", lambda w: _manifest(w, _entries(w) + [_entries(w)[0] | {"split": "test"}]),
        "ParseError", ["'env000'", "twice"]),
    "manifest-scan-twice": (
        "train --data",
        lambda w: _manifest(w, [_entries(w)[0] | {"scans": ["scan00", "scan01", "scan00"]}]),
        "ParseError", ["'env000'", "'scan00'", "twice"]),
    "generator-spec-list": ("generate", lambda w: [1, 2], "ConfigError", ["object"]),
    "generator-spec-nested-too-deeply": ("generate", lambda w: "[" * 100_000, "ConfigError", ["depth"]),
    "scene-integer-too-long": (
        "predict",
        lambda w: json.dumps(_scene(w)).replace('"position": [', '"position": [' + "1" * 5000 + ", ", 1),
        "ConfigError", ["digits"]),
    "train-config-section-not-an-object": (
        "train", lambda w: {"model": 5}, "ConfigError", ["'model'"]),
}


@pytest.mark.parametrize("case", list(CLI_CASES))
def test_malformed_file_is_one_error_line(world, tmp_path, case):
    command, content, kind, words = CLI_CASES[case]
    if command == "train --data":
        data = tmp_path / "data"
        shutil.copytree(world["data"], data)
        bad = data / "manifest.json"
        argv = ["train", "--data", str(data), "--out", str(tmp_path / "m.json")]
    else:
        bad = tmp_path / "file.json"
        argv = {
            "predict": ["predict", "--ckpt", str(world["ckpt"]), "--scene", str(bad),
                        "--out", str(tmp_path / "o.json")],
            "generate": ["generate", "--spec", str(bad), "--out", str(tmp_path / "gen")],
            "train": ["train", "--data", str(world["data"]), "--config", str(bad),
                      "--out", str(tmp_path / "m.json")],
        }[command]
    text = content(world)
    bad.write_text(text if isinstance(text, str) else json.dumps(text))
    line = assert_one_error_line(*run_cli(argv), f"{kind}:")
    for word in [str(bad), *words]:
        assert word in line, line


def test_unreadable_file_is_the_callers_error_kind(world, tmp_path):
    data = tmp_path / "data"
    shutil.copytree(world["data"], data)
    (data / "manifest.json").unlink()
    (data / "manifest.json").mkdir()
    with pytest.raises(ParseError, match="manifest.json"):
        load_dataset(data)
    argv = ["train", "--data", str(data), "--out", str(tmp_path / "m.json")]
    assert str(data / "manifest.json") in assert_one_error_line(*run_cli(argv), "ParseError:")


class TestIngestFaults:
    @pytest.mark.parametrize(
        "content", [b'[{"reference": "envA-ref", "sc', b'[{"reference": "\xff"}]', b"[5]"],
        ids=["truncated", "not-utf-8", "entry-not-an-object"],
    )
    def test_bad_index_is_parse_error(self, world, tmp_path, content):
        layout = tmp_path / "layout"
        shutil.copytree(world["layout"], layout)
        (layout / "3RScan.json").write_bytes(content)
        with pytest.raises(ParseError, match="3RScan.json"):
            ingest_3rscan_layout(layout)

    @pytest.mark.parametrize(
        "name, content",
        [("objects.json", [1]), ("relationships.json", [1]),
         ("relationships.json", {"relationships": [["1", "2"]]}),
         ("objects.json", {"objects": [OBJECTS["objects"][0] | {"position": [0, 0]}]}),
         ("objects.json", {"objects": [OBJECTS["objects"][0] | {"position": [0, float("nan"), 0]}]}),
         ("objects.json", {"objects": [OBJECTS["objects"][0]] * 2})],
        ids=["objects-not-an-object", "relationships-not-an-object", "short-relationship-row",
             "position-of-two-numbers", "position-not-finite", "duplicate-object-id"],
    )
    def test_bad_scan_file_skips_environment(self, world, tmp_path, caplog, name, content):
        layout = tmp_path / "layout"
        shutil.copytree(world["layout"], layout)
        (layout / "envB-re1" / name).write_text(json.dumps(content))
        with caplog.at_level(logging.WARNING):
            bundle, skipped = ingest_3rscan_layout(layout)
        assert skipped == ("envB-ref",)
        assert {s.environment_id for s in bundle.samples()} == {"envA-ref"}
        assert "envB-ref" in caplog.text and "skipping" in caplog.text

    @pytest.mark.parametrize(
        "position",
        [[v, 0, 0] for v in MAGNITUDES] + [[0, -v, 0] for v in MAGNITUDES]
        + [["1.5", True, "2"], [1.5, True, 2], [0, None, 0]], ids=json.dumps,
    )
    def test_position_within_the_bound_or_environment_skipped(self, world, tmp_path, caplog, position):
        layout = tmp_path / "layout"
        shutil.copytree(world["layout"], layout)
        objects = {"objects": [OBJECTS["objects"][0] | {"position": position}, OBJECTS["objects"][1]]}
        (layout / "envB-re1" / "objects.json").write_text(json.dumps(objects))
        with caplog.at_level(logging.WARNING):
            bundle, skipped = ingest_3rscan_layout(layout)
        accepted = all(type(c) in (int, float) and abs(c) <= MAX_COORDINATE for c in position)
        if not accepted:
            assert skipped == ("envB-ref",) and "envB-re1" in caplog.text and "skipping" in caplog.text
            assert set(bundle.environments) == {"envA-ref"}
            return
        assert skipped == ()
        assert bundle.environments["envB-ref"][1].node("1").position == tuple(map(float, position))
        labels = [s.labels for s in bundle.samples()]
        assert len(labels) == 4 and all(np.isfinite(y).all() for y in labels)


def _json_parse_sites(path: Path) -> list[tuple[str, int]]:
    """(file, line) of each `json.load`/`json.loads` use or `from json import`."""
    return [
        (path.name, node.lineno)
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.ImportFrom) and node.module == "json"
        or isinstance(node, ast.Attribute) and node.attr in ("load", "loads")
        and isinstance(node.value, ast.Name) and node.value.id == "json"
    ]


def test_json_is_parsed_only_by_the_one_reader():
    sites = [site for path in sorted(SRC.glob("*.py")) for site in _json_parse_sites(path)]
    tree = ast.parse((SRC / "core_graph.py").read_text(encoding="utf-8"))
    reader = next(n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "_read_json")
    assert len(sites) == 1, sites
    assert sites[0][0] == "core_graph.py" and reader.lineno <= sites[0][1] <= reader.end_lineno
