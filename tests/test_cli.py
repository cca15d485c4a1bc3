"""End-to-end tests for the command-line pipeline.

Subcommands run in-process through `dispatch` so stdout/stderr and exit codes
are observable without subprocesses; one smoke test exercises the installed
`vsg` entry point for real.
"""

import dataclasses
import json
import os
import shutil
import subprocess
import tracemalloc

import pytest

from vsg import (
    Episode,
    compute_labels,
    embed,
    evaluate,
    load_checkpoint,
    load_dataset,
    load_scene_graph,
    ranked_route,
    route_length,
    run_coverage,
    run_vsg_planner,
    save_checkpoint,
    scene_graph_to_dict,
    threshold_sweep,
    write_eval_csv,
    write_sweep_csv,
)
from vsg import planner
import vsg.dataset as dataset_module
import vsg.model as model_module
from vsg.cli import _TRAIN_SECTIONS, _parse_n_range, build_parser, dispatch
from vsg.errors import UsageError
from vsg.model import _VariabilityModel

GEN_SPEC = {
    "num_environments": 5,
    "scans_per_environment": 3,
    "objects_min": 5,
    "objects_max": 7,
    "split_fractions": [0.6, 0.2, 0.2],
    "seed": 7,
}

TRAIN_FLAGS = [
    "--epochs", "3", "--d-v", "8", "--hidden-dim", "8",
    "--batch-size", "4", "--seed", "0",
]


def read(path):
    with open(path, "rb") as f:
        return f.read()


def resolved_config(capsys):
    """Parse the `resolved-config:` line out of captured stdout."""
    out = capsys.readouterr().out
    lines = [l for l in out.splitlines() if l.startswith("resolved-config: ")]
    assert len(lines) == 1, out
    return json.loads(lines[0][len("resolved-config: "):]), out


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """One generated dataset plus a trained checkpoint, shared readonly."""
    root = tmp_path_factory.mktemp("cli")
    spec = root / "gen.json"
    spec.write_text(json.dumps(GEN_SPEC))
    data = root / "data"
    assert dispatch(["generate", "--spec", str(spec), "--out", str(data)]) == 0
    ckpt = root / "model.json"
    assert dispatch(["train", "--data", str(data), "--out", str(ckpt), *TRAIN_FLAGS]) == 0
    return {"root": root, "spec": spec, "data": data, "ckpt": ckpt,
            "scene": data / "env000" / "scan00.json"}


class TestExitCodes:
    def test_help_exits_zero(self, capsys):
        assert dispatch(["--help"]) == 0
        assert "compare-planners" in capsys.readouterr().out

    def test_subcommand_help_exits_zero(self, capsys):
        assert dispatch(["train", "--help"]) == 0

    def test_unknown_subcommand_exits_two(self, capsys):
        assert dispatch(["frobnicate"]) == 2

    def test_missing_required_flag_exits_two(self, capsys):
        assert dispatch(["generate"]) == 2

    def test_missing_data_dir_is_domain_error(self, tmp_path, capsys):
        rc = dispatch(["train", "--data", str(tmp_path / "nope"),
                       "--out", str(tmp_path / "m.json")])
        assert rc == 1
        err = capsys.readouterr().err.strip()
        assert err.startswith("error: ConfigError:")
        assert str(tmp_path / "nope") in err

    def test_bad_n_range_is_domain_error(self, pipeline, capsys):
        rc = dispatch(["compare-planners", "--data", str(pipeline["data"]),
                       "--ckpt", str(pipeline["ckpt"]), "--n-range", "0..2",
                       "--out", "/dev/null"])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: UsageError:")

    @pytest.mark.parametrize("n_range", ["x..3", "1..y", "1,,3", "a"])
    def test_non_integer_n_range_is_one_error_line(self, pipeline, capsys, n_range):
        rc = dispatch(["compare-planners", "--data", str(pipeline["data"]),
                       "--ckpt", str(pipeline["ckpt"]), "--n-range", n_range,
                       "--out", "/dev/null"])
        assert rc == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: UsageError:")


    @pytest.mark.parametrize("threshold", ["nan", "2", "-1", "inf"])
    def test_eval_threshold_outside_unit_interval_refused_before_echo(
        self, pipeline, tmp_path, capsys, threshold
    ):
        report = tmp_path / "metrics.csv"
        rc = dispatch(["eval", "--ckpt", str(pipeline["ckpt"]), "--data", str(pipeline["data"]),
                       "--report", str(report), "--threshold", threshold])
        out, err = capsys.readouterr()
        assert rc == 1 and "resolved-config:" not in out and not report.exists()
        err = err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: ConfigError: threshold"), err

    @pytest.mark.parametrize("n", ["0", "-2"])
    def test_plan_n_below_one_is_one_error_line(self, pipeline, capsys, n):
        rc = dispatch(["plan", "--ckpt", str(pipeline["ckpt"]), "--scene", str(pipeline["scene"]),
                       "--n", n])
        out, err = capsys.readouterr()
        assert rc == 1 and "phase1-route" not in out
        err = err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: ConfigError:"), err

    @pytest.mark.parametrize("seeds", ["-1", "0"])
    def test_compare_planners_seeds_below_one_refused_before_echo(
        self, pipeline, tmp_path, capsys, seeds
    ):
        out_csv = tmp_path / "benchmark.csv"
        rc = dispatch(["compare-planners", "--data", str(pipeline["data"]),
                       "--ckpt", str(pipeline["ckpt"]), "--seeds", seeds, "--out", str(out_csv)])
        out, err = capsys.readouterr()
        assert rc == 1 and "resolved-config:" not in out and not out_csv.exists()
        err = err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: UsageError: --seeds"), err

    @pytest.mark.parametrize("flag, value", [
        ("--seed", "-1"), ("--n-range", "1..99"), ("--n-range", "2,99"), ("--n-range", "1..1000000000000")])
    def test_compare_planners_negative_seed_or_n_above_largest_map_refused_before_echo(
        self, pipeline, tmp_path, capsys, flag, value
    ):
        out_csv = tmp_path / "benchmark.csv"
        rc = dispatch(["compare-planners", "--data", str(pipeline["data"]),
                       "--ckpt", str(pipeline["ckpt"]), flag, value, "--out", str(out_csv)])
        out, err = capsys.readouterr()
        assert rc == 1 and "resolved-config:" not in out and not out_csv.exists()
        err = err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: UsageError: {flag}"), err

    def test_compare_planners_no_feasible_episodes_refused_before_echo(self, pipeline, tmp_path, capsys):
        # No scan pair of this world changes 5 objects, so every episode is infeasible.
        out_csv = tmp_path / "benchmark.csv"
        rc = dispatch(["compare-planners", "--data", str(pipeline["data"]), "--ckpt", str(pipeline["ckpt"]),
                       "--n-range", "5", "--split", "all", "--out", str(out_csv)])
        out, err = capsys.readouterr()
        assert rc == 1 and out == "" and not out_csv.exists()
        err = err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: EvaluationError: no feasible episodes"), err

    @pytest.mark.parametrize("n_range", ["1,1", "2,1,2"])
    def test_repeated_n_in_n_range_refused_before_echo(self, pipeline, tmp_path, capsys, n_range):
        out_csv = tmp_path / "benchmark.csv"
        rc = dispatch(["compare-planners", "--data", str(pipeline["data"]),
                       "--ckpt", str(pipeline["ckpt"]), "--n-range", n_range, "--out", str(out_csv)])
        out, err = capsys.readouterr()
        assert rc == 1 and "resolved-config:" not in out and not out_csv.exists()
        err = err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: UsageError: --n-range") and "repeats" in err[0], err

    def test_n_range_is_refused_without_listing_its_values(self):
        # A range cannot repeat an n, so it is never expanded to check; a
        # set of 1..3000000 alone peaks near 270 MiB.
        tracemalloc.start()
        try:
            with pytest.raises(UsageError, match="reaches n = 3000000"):
                _parse_n_range("1..3000000", 10)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20, peak


    @pytest.mark.filterwarnings("error")  # no numpy warning on the way to a refusal either
    @pytest.mark.parametrize(
        "case", ["plan-n-zero", "plan-empty-scene", "eval-empty-split", "train-empty-split",
                 "generate-unplaceable", "plan-realized-other-environment"])
    def test_refused_before_echo(self, pipeline, tmp_path, capsys, case):
        # Each case is refused after its inputs are read but before the echo,
        # so no file is written besides the input it starts from.
        empty_scene = tmp_path / "empty.json"
        spec = tmp_path / "gen.json"
        if case == "plan-empty-scene":
            scene = json.loads(pipeline["scene"].read_text())
            empty_scene.write_text(json.dumps(scene | {"nodes": [], "edges": []}))
        elif case == "generate-unplaceable":  # no room for objects 20 m apart
            spec.write_text(json.dumps({"num_environments": 1, "min_spacing": 20.0}))
        elif case in ("eval-empty-split", "train-empty-split"):
            data = tmp_path / "data"
            shutil.copytree(pipeline["data"], data)
            manifest = json.loads((data / "manifest.json").read_text())
            for entry in manifest["environments"]:
                entry["split"] = "test"
            (data / "manifest.json").write_text(json.dumps(manifest))
        argv, kind = {
            "plan-n-zero": (["plan", "--ckpt", pipeline["ckpt"], "--scene", pipeline["scene"],
                             "--n", "0"], "ConfigError"),
            "plan-empty-scene": (["plan", "--ckpt", pipeline["ckpt"], "--scene", empty_scene,
                                  "--n", "1"], "ConfigError"),
            "eval-empty-split": (["eval", "--ckpt", pipeline["ckpt"], "--data", tmp_path / "data",
                                  "--split", "val", "--report", tmp_path / "m.csv"], "EvaluationError"),
            "train-empty-split": (["train", "--data", tmp_path / "data", "--out", tmp_path / "m.json",
                                   *TRAIN_FLAGS], "TrainingError"),
            "generate-unplaceable": (["generate", "--spec", spec, "--out", tmp_path / "data"],
                                     "GeneratorError"),
            "plan-realized-other-environment": (
                ["plan", "--ckpt", pipeline["ckpt"], "--scene", pipeline["scene"], "--n", "1",
                 "--realized", pipeline["data"] / "env001" / "scan01.json"], "PairingError"),
        }[case]
        rc = dispatch([str(a) for a in argv])
        out, err = capsys.readouterr()
        assert rc == 1 and "resolved-config:" not in out, out
        err = err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {kind}:"), err
        inputs = {"plan-n-zero": [], "plan-empty-scene": ["empty.json"], "generate-unplaceable": ["gen.json"],
                  "plan-realized-other-environment": []}.get(case, ["data"])
        assert [p.name for p in tmp_path.iterdir()] == inputs


class TestGenerate:
    def test_writes_dataset_layout(self, pipeline):
        data = pipeline["data"]
        assert (data / "manifest.json").is_file()
        assert (data / "taxonomy.json").is_file()
        envs = sorted(d.name for d in data.iterdir() if d.is_dir())
        assert envs == [f"env{k:03d}" for k in range(5)]
        assert sorted(p.name for p in (data / "env000").iterdir()) == [
            "scan00.json", "scan01.json", "scan02.json",
        ]

    def test_echoes_resolved_config_with_seed_override(self, tmp_path, capsys):
        spec = tmp_path / "gen.json"
        spec.write_text(json.dumps(GEN_SPEC))
        assert dispatch(["generate", "--spec", str(spec),
                         "--out", str(tmp_path / "d"), "--seed", "9"]) == 0
        cfg, _ = resolved_config(capsys)
        assert cfg["command"] == "generate"
        assert cfg["seed"] == 9  # flag beats the spec file's 7
        assert cfg["num_environments"] == 5

    @pytest.mark.parametrize("entry, where, message", [
        ({"objects_min": 2}, "", "objects_min must be >= 4"),
        ({"propensity_overrides": {"cup": {"vanish": 2.0}}}, ": propensity_overrides['cup']",
         "propensity vanish must be in [0, 1], got 2.0"),
        ({"propensity_overrides": {"cupp": {"vanish": 0.5}}}, "",
         "propensity_overrides names unknown class 'cupp'"),
    ])
    def test_out_of_range_spec_names_the_file(self, tmp_path, capsys, entry, where, message):
        spec = tmp_path / "gen.json"
        spec.write_text(json.dumps({**GEN_SPEC, **entry}))
        rc = dispatch(["generate", "--spec", str(spec), "--out", str(tmp_path / "d")])
        captured = capsys.readouterr()
        err = captured.err.strip()
        assert rc == 1 and len(err.splitlines()) == 1, err
        assert err.startswith(f"error: ConfigError: {spec}{where}: {message}"), err
        assert "resolved-config:" not in captured.out
        assert not (tmp_path / "d").exists()

    def test_deterministic_across_runs(self, pipeline, tmp_path):
        again = tmp_path / "again"
        assert dispatch(["generate", "--spec", str(pipeline["spec"]),
                         "--out", str(again)]) == 0
        for dirpath, _, files in os.walk(pipeline["data"]):
            rel = os.path.relpath(dirpath, pipeline["data"])
            for name in files:
                ours = os.path.join(dirpath, name)
                theirs = os.path.join(again, rel, name)
                assert read(ours) == read(theirs), os.path.join(rel, name)


class TestTrainEval:
    def test_eval_writes_report_csv(self, pipeline, tmp_path, capsys):
        report = tmp_path / "eval.csv"
        rc = dispatch(["eval", "--ckpt", str(pipeline["ckpt"]),
                       "--data", str(pipeline["data"]), "--report", str(report)])
        assert rc == 0
        lines = report.read_text().strip().splitlines()
        assert lines[0] == "variability,accuracy,precision,recall,f1,support"
        assert len(lines) == 5  # position, state, instance, pooled
        assert "pooled:" in capsys.readouterr().out

    def test_eval_sweep_csv(self, pipeline, tmp_path):
        report = tmp_path / "eval.csv"
        sweep = tmp_path / "sweep.csv"
        rc = dispatch(["eval", "--ckpt", str(pipeline["ckpt"]),
                       "--data", str(pipeline["data"]), "--report", str(report),
                       "--sweep", str(sweep)])
        assert rc == 0
        lines = sweep.read_text().strip().splitlines()
        assert lines[0] == "threshold,variability,precision,recall,f1"
        assert len(lines) > 1

    def test_eval_sweep_embeds_each_scan_once(self, pipeline, tmp_path, monkeypatch):
        embedded = []

        def counting_embed(g, *args):
            embedded.append((g.environment_id, g.scan_id))
            return embed(g, *args)

        monkeypatch.setattr(model_module, "embed", counting_embed)
        report, sweep = tmp_path / "eval.csv", tmp_path / "sweep.csv"
        rc = dispatch(["eval", "--ckpt", str(pipeline["ckpt"]), "--data", str(pipeline["data"]),
                       "--report", str(report), "--sweep", str(sweep)])
        assert rc == 0
        bundle = load_dataset(pipeline["data"])
        scans = [(e, s.scan_id) for e in bundle.environment_ids("test") for s in bundle.environments[e]]
        assert scans and sorted(embedded) == sorted(scans)
        # The one pass writes what evaluate and threshold_sweep each compute alone.
        model, tax = load_checkpoint(pipeline["ckpt"])
        samples = bundle.samples("test")
        write_eval_csv(evaluate(model, samples, tax), tmp_path / "alone.csv")
        write_sweep_csv(threshold_sweep(model, samples, tax), tmp_path / "alone-sweep.csv")
        assert read(report) == read(tmp_path / "alone.csv")
        assert read(sweep) == read(tmp_path / "alone-sweep.csv")

    def test_train_labels_each_pair_once(self, pipeline, tmp_path, monkeypatch, capsys):
        bundle = load_dataset(pipeline["data"])
        train_pairs, val_pairs = len(bundle.samples("train")), len(bundle.samples("val"))
        assert train_pairs and val_pairs
        calls = []

        def counting_labels(*args):
            calls.append(args)
            return compute_labels(*args)

        monkeypatch.setattr(dataset_module, "compute_labels", counting_labels)
        rc = dispatch(["train", "--data", str(pipeline["data"]),
                       "--out", str(tmp_path / "m.json"), *TRAIN_FLAGS])
        assert rc == 0
        assert len(calls) == train_pairs + val_pairs

    def test_training_is_deterministic(self, pipeline, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        ra, rb = tmp_path / "ra.json", tmp_path / "rb.json"
        for ckpt, rep in ((a, ra), (b, rb)):
            rc = dispatch(["train", "--data", str(pipeline["data"]),
                           "--out", str(ckpt), "--report", str(rep), *TRAIN_FLAGS])
            assert rc == 0
        assert read(a) == read(b)
        assert read(ra) == read(rb)
        assert read(a) == read(pipeline["ckpt"])

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_diverging_run_writes_a_strict_json_report(self, pipeline, tmp_path, capsys):
        """A non-finite validation loss ends the run as a non-finite batch loss does:
        the epoch is not kept, the report stays strict JSON, and numpy prints
        no warning of its own."""
        ckpt, rep = tmp_path / "m.json", tmp_path / "report.json"
        rc = dispatch(["train", "--data", str(pipeline["data"]), "--out", str(ckpt), "--report", str(rep),
                       *TRAIN_FLAGS, "--batch-size", "64", "--learning-rate", "1e100"])
        assert rc == 0 and "[diverged; best checkpoint kept]" in capsys.readouterr().out

        def refuse(constant):
            raise AssertionError(f"report.json holds {constant}")

        report = json.loads(rep.read_text(), parse_constant=refuse)
        assert report["diverged"] is True
        for key in ("train_loss", "val_loss", "val_pooled_f1"):
            assert len(report[key]) == report["epochs_run"], key
        load_checkpoint(ckpt)

    def test_flag_beats_config_file(self, pipeline, tmp_path, capsys):
        cfg = tmp_path / "train.json"
        cfg.write_text(json.dumps({"train": {"epochs": 2, "seed": 0},
                                   "model": {"d_v": 8, "hidden_dim": 8}}))
        rc = dispatch(["train", "--data", str(pipeline["data"]),
                       "--config", str(cfg), "--out", str(tmp_path / "m.json"),
                       "--epochs", "3"])
        assert rc == 0
        resolved, _ = resolved_config(capsys)
        assert resolved["train"]["epochs"] == 3
        assert resolved["model"]["d_v"] == 8

    def test_default_gamma_flag_changes_nothing(self, pipeline, tmp_path, capsys):
        """Class weights come from the train split whether or not a loss flag is given."""
        runs = []
        for name, flags in (("plain", []), ("gamma", ["--gamma", "0.5"])):
            ckpt, rep = tmp_path / f"{name}.json", tmp_path / f"{name}-report.json"
            rc = dispatch(["train", "--data", str(pipeline["data"]), "--out", str(ckpt),
                           "--report", str(rep), *TRAIN_FLAGS, *flags])
            assert rc == 0
            runs.append((resolved_config(capsys)[0], read(ckpt), read(rep)))
        (plain_echo, *plain_files), (gamma_echo, *gamma_files) = runs
        assert plain_files == gamma_files
        assert plain_echo["loss"] == gamma_echo["loss"]
        assert plain_echo["loss"]["class_weights"] == json.loads(plain_files[1])["class_weights"]
        assert plain_echo["loss"]["class_weights"] != [[1.0, 1.0]] * 3

    def test_config_class_weights_are_kept(self, pipeline, tmp_path, capsys):
        weights = [[2.0, 1.0], [3.0, 1.0], [4.0, 1.0]]
        cfg = tmp_path / "train.json"
        cfg.write_text(json.dumps({"loss": {"class_weights": weights}}))
        rep = tmp_path / "report.json"
        rc = dispatch(["train", "--data", str(pipeline["data"]), "--config", str(cfg),
                       "--out", str(tmp_path / "m.json"), "--report", str(rep), *TRAIN_FLAGS])
        assert rc == 0
        assert resolved_config(capsys)[0]["loss"]["class_weights"] == weights
        assert json.loads(rep.read_text())["class_weights"] == weights

    def test_label_section_has_only_epsilon(self, pipeline, tmp_path, capsys):
        cfg = tmp_path / "train.json"
        cfg.write_text(json.dumps({"label": {"require_state_attributes": False}}))
        rc = dispatch(["train", "--data", str(pipeline["data"]), "--config", str(cfg),
                       "--out", str(tmp_path / "m.json"), *TRAIN_FLAGS])
        captured = capsys.readouterr()
        assert rc == 1 and "resolved-config:" not in captured.out
        assert "unknown field 'require_state_attributes'" in captured.err

    def test_unknown_config_section_rejected(self, pipeline, tmp_path, capsys):
        cfg = tmp_path / "train.json"
        cfg.write_text(json.dumps({"optim": {"lr": 1.0}}))
        rc = dispatch(["train", "--data", str(pipeline["data"]),
                       "--config", str(cfg), "--out", str(tmp_path / "m.json")])
        assert rc == 1
        assert "unknown config sections" in capsys.readouterr().err

    def test_unknown_model_kind_is_config_error(self, pipeline, tmp_path, capsys):
        cfg = tmp_path / "train.json"
        cfg.write_text(json.dumps({"model": {"kind": "gnn"}}))
        rc = dispatch(["train", "--data", str(pipeline["data"]),
                       "--config", str(cfg), "--out", str(tmp_path / "m.json")])
        assert rc == 1
        captured = capsys.readouterr()
        err = captured.err.strip()
        assert err.startswith("error: ConfigError:") and "'gnn'" in err
        assert len(err.splitlines()) == 1
        # Rejected while resolving the config, before any training work.
        assert "resolved-config:" not in captured.out
        assert not (tmp_path / "m.json").exists()

    @pytest.mark.parametrize("field", ["d_v", "hidden_dim"])
    def test_size_below_one_is_config_error(self, pipeline, tmp_path, capsys, field):
        cfg = tmp_path / "train.json"
        cfg.write_text(json.dumps({"model": {field: 0}}))
        rc = dispatch(["train", "--data", str(pipeline["data"]),
                       "--config", str(cfg), "--out", str(tmp_path / "m.json")])
        captured = capsys.readouterr()
        err = captured.err.strip()
        assert rc == 1 and len(err.splitlines()) == 1, err
        assert err.startswith(f"error: ConfigError: {cfg}: config section 'model': ")
        assert err.endswith(f"{field} must be >= 1, got 0")
        assert "resolved-config:" not in captured.out
        assert not (tmp_path / "m.json").exists()

    @pytest.mark.parametrize("flags, config", [
        (["--tau", "p80"], None),
        (["--tau", "-1"], None),
        (["--tau", "nan"], None),
        ([], {"model": {"tau": -2}}),
        (["--kind", "mlp_baseline", "--scalar-gate"], None),
    ], ids=["unknown-preset", "negative", "nan", "negative-in-config", "scalar-gate-on-mlp-baseline"])
    def test_bad_model_setting_is_refused_before_the_echo(
        self, pipeline, tmp_path, capsys, flags, config
    ):
        argv = ["train", "--data", str(pipeline["data"]), "--out", str(tmp_path / "m.json"), *flags]
        if config is not None:
            (tmp_path / "train.json").write_text(json.dumps(config))
            argv += ["--config", str(tmp_path / "train.json")]
        rc = dispatch(argv)
        captured = capsys.readouterr()
        err = captured.err.strip()
        assert rc == 1 and len(err.splitlines()) == 1, err
        assert err.startswith("error: ConfigError:") and "'model'" in err
        assert "resolved-config:" not in captured.out
        assert not (tmp_path / "m.json").exists()

    def test_tau_text_in_config_is_echoed_as_meters(self, pipeline, tmp_path, capsys):
        cfg = tmp_path / "train.json"
        cfg.write_text(json.dumps({"model": {"tau": "1.5"}}))
        rc = dispatch(["train", "--data", str(pipeline["data"]), "--config", str(cfg),
                       "--out", str(tmp_path / "m.json"), *TRAIN_FLAGS])
        assert rc == 0
        resolved, _ = resolved_config(capsys)
        assert resolved["model"]["tau"] == 1.5
        assert load_checkpoint(tmp_path / "m.json")[0].edge_config.tau == 1.5

    def test_zero_dropout_checkpoint_reloads_byte_for_byte(self, pipeline, tmp_path, capsys):
        cfg = tmp_path / "train.json"
        cfg.write_text(json.dumps({"train": {"dropout_rate": 0}}))
        first, second = tmp_path / "a.json", tmp_path / "b.json"
        rc = dispatch(["train", "--data", str(pipeline["data"]), "--config", str(cfg),
                       "--out", str(first), *TRAIN_FLAGS])
        assert rc == 0
        save_checkpoint(*load_checkpoint(first), second)
        assert read(first) == read(second)

    def test_every_train_flag_sets_one_config_field(self):
        train_parser = next(
            action for action in build_parser()._actions if action.dest == "command"
        ).choices["train"]
        sections = [{f.name for f in dataclasses.fields(cls)} for cls in _TRAIN_SECTIONS.values()]
        flags = [a.dest for a in train_parser._actions
                 if a.option_strings and a.dest not in ("help", "data", "config", "out", "report")]
        assert len(flags) == 13
        for dest in flags:
            assert sum(dest in names for names in sections) == 1, dest


class TestPredict:
    def test_annotates_every_node(self, pipeline, tmp_path, capsys):
        out = tmp_path / "pred.json"
        rc = dispatch(["predict", "--ckpt", str(pipeline["ckpt"]),
                       "--scene", str(pipeline["scene"]), "--out", str(out)])
        assert rc == 0
        model, tax = load_checkpoint(pipeline["ckpt"])
        scene = load_scene_graph(pipeline["scene"], tax)
        payload = json.loads(out.read_text())
        assert len(payload["nodes"]) == scene.num_nodes
        probs = model.predict_probabilities(scene, tax)
        for node in payload["nodes"]:
            var = node["variability"]
            expected = probs[node["id"]]
            for key, value in zip(("p_position", "p_state", "p_instance"), expected):
                assert 0.0 < var[key] < 1.0
                assert var[key] == pytest.approx(value, abs=1e-12)

    def test_output_is_scene_plus_variability(self, pipeline, tmp_path):
        out = tmp_path / "pred.json"
        assert dispatch(["predict", "--ckpt", str(pipeline["ckpt"]),
                         "--scene", str(pipeline["scene"]), "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        for node in payload["nodes"]:
            node.pop("variability")
        _, tax = load_checkpoint(pipeline["ckpt"])
        scene = load_scene_graph(pipeline["scene"], tax)
        assert payload == scene_graph_to_dict(scene, tax)

    def test_wrong_taxonomy_rejected(self, pipeline, tmp_path, capsys):
        raw = json.loads(pipeline["scene"].read_text())
        raw["taxonomy"] = "somewhere-else"
        other = tmp_path / "scene.json"
        other.write_text(json.dumps(raw))
        rc = dispatch(["predict", "--ckpt", str(pipeline["ckpt"]),
                       "--scene", str(other), "--out", str(tmp_path / "o.json")])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: CheckpointError:")

    def test_non_finite_weight_is_one_error_line(self, pipeline, tmp_path, capsys):
        data = json.loads(pipeline["ckpt"].read_text())
        data["parameters"]["head.W0"][0][0] = float("nan")
        ckpt = tmp_path / "nan.json"
        ckpt.write_text(json.dumps(data))
        out = tmp_path / "pred.json"
        capsys.readouterr()
        rc = dispatch(["predict", "--ckpt", str(ckpt),
                       "--scene", str(pipeline["scene"]), "--out", str(out)])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.err.startswith("error: CheckpointError:")
        assert len(captured.err.strip().splitlines()) == 1
        assert "head.W0" in captured.err
        assert not out.exists()

    # A checkpoint with finite but huge weights loads; its probabilities are NaN.
    @pytest.mark.filterwarnings("error")  # and numpy's overflow warnings stay off stderr
    @pytest.mark.parametrize("command", ["predict", "plan", "compare-planners", "eval", "eval-sweep"])
    def test_non_finite_probabilities_are_one_error_line(self, pipeline, tmp_path, capsys, command):
        model, tax = load_checkpoint(pipeline["ckpt"])
        model.store.values *= 1e200
        ckpt = tmp_path / "huge.json"
        save_checkpoint(model, tax, ckpt)
        load_checkpoint(ckpt)
        out = tmp_path / "out"
        argv = {
            "predict": ["predict", "--scene", pipeline["scene"], "--out", out],
            "plan": ["plan", "--scene", pipeline["scene"], "--n", "1",
                     "--realized", pipeline["data"] / "env000" / "scan01.json"],
            "compare-planners": ["compare-planners", "--data", pipeline["data"], "--n-range", "1",
                                 "--split", "all", "--out", out],
            "eval": ["eval", "--data", pipeline["data"], "--report", out],
            "eval-sweep": ["eval", "--data", pipeline["data"], "--report", out,
                           "--sweep", tmp_path / "sweep.csv"],
        }[command]
        capsys.readouterr()
        rc = dispatch([str(a) for a in [*argv, "--ckpt", ckpt]])
        captured = capsys.readouterr()
        err = captured.err.strip().splitlines()
        assert rc == 1 and len(err) == 1, captured.err
        assert err[0].startswith("error: CheckpointError: scan '") and "not finite" in err[0]
        assert [p.name for p in tmp_path.iterdir()] == ["huge.json"]  # no output file written
        assert "resolved-config:" not in captured.out

    def test_too_wide_pca_components_is_one_error_line(self, pipeline, tmp_path, capsys):
        data = json.loads(pipeline["ckpt"].read_text())
        for row in data["pca"]["components"]:
            row.append(0.0)
        ckpt = tmp_path / "wide.json"
        ckpt.write_text(json.dumps(data))
        capsys.readouterr()
        rc = dispatch(["predict", "--ckpt", str(ckpt),
                       "--scene", str(pipeline["scene"]), "--out", str(tmp_path / "pred.json")])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error: CheckpointError:") and len(err.strip().splitlines()) == 1
        assert str(ckpt) in err and "components" in err


# plan-realized is `plan` with a good --scene and the malformed file as --realized.
@pytest.mark.parametrize("command", ["predict", "plan", "plan-realized"])
@pytest.mark.parametrize(
    "content, expected",
    [
        (None, "error: ConfigError: scene file not found: {path}"),
        ('{"format_version": 1, "nodes": [', "error: ConfigError: {path}: invalid JSON at line 1:"),
        ("[]", "error: ParseError: {path}: expected a JSON object at top level"),
    ],
    ids=["missing", "truncated", "not-an-object"],
)
def test_malformed_scene_is_one_error_line(pipeline, tmp_path, capsys, command, content, expected):
    bad = tmp_path / "scene.json"
    if content is not None:
        bad.write_text(content)
    if command == "predict":
        argv = ["predict", "--scene", str(bad), "--out", str(tmp_path / "o.json")]
    elif command == "plan":
        argv = ["plan", "--scene", str(bad), "--n", "1"]
    else:
        argv = ["plan", "--scene", str(pipeline["scene"]), "--realized", str(bad), "--n", "1"]
    rc = dispatch([*argv, "--ckpt", str(pipeline["ckpt"])])
    assert rc == 1
    captured = capsys.readouterr()
    err = captured.err.strip()
    assert err.startswith(expected.format(path=bad)), err
    assert len(err.splitlines()) == 1
    assert "phase1-route:" not in captured.out


@pytest.fixture(scope="module")
def sized_scenes(pipeline, tmp_path_factory):
    """Scan pairs of 10 and of 20 objects, in the checkpoint's taxonomy: the
    first is planned with Held-Karp, the second above EXACT_TSP_LIMIT."""
    root = tmp_path_factory.mktemp("sized")
    scenes = {}
    for objects in (10, 20):
        spec = root / f"gen{objects}.json"
        spec.write_text(json.dumps({"num_environments": 1, "scans_per_environment": 2,
                                    "objects_min": objects, "objects_max": objects, "seed": 7}))
        data = root / str(objects)
        assert dispatch(["generate", "--spec", str(spec), "--out", str(data)]) == 0
        scenes[objects] = data / "env000" / "scan00.json", data / "env000" / "scan01.json"
    return scenes


def plan_line(result):
    """`vsg plan --realized`'s line for one planner's episode result."""
    flags = [f for f, on in zip(("fallback", "infeasible"), (result.fallback_used, result.infeasible)) if on]
    return (f"{result.planner}: distance {result.distance_traveled:.6f} "
            f"changes {result.changes_found} visits {len(result.visit_order)}"
            + (f" [{', '.join(flags)}]" if flags else ""))


def planner_lines(out):
    return [l for l in out.splitlines() if l.startswith(("coverage: ", "vsg: "))]


class TestPlan:
    def test_prints_route_and_distance(self, pipeline, capsys):
        rc = dispatch(["plan", "--ckpt", str(pipeline["ckpt"]),
                       "--scene", str(pipeline["scene"]), "--n", "1"])
        assert rc == 0
        out = capsys.readouterr().out
        route_line = next(l for l in out.splitlines() if l.startswith("phase1-route: "))
        dist_line = next(l for l in out.splitlines() if l.startswith("phase1-distance: "))
        model, tax = load_checkpoint(pipeline["ckpt"])
        scene = load_scene_graph(pipeline["scene"], tax)
        route = route_line.split(": ", 1)[1].split()
        assert len(route) == min(1 + 3, scene.num_nodes)
        assert len(set(route)) == len(route)
        # The printed route is the guided planner's phase 1 from the centroid.
        start = scene.positions().mean(axis=0)
        assert route == ranked_route(scene, model.predict_probabilities(scene, tax), 1, start)
        length = route_length(scene.positions(), start, [scene.node_index(o) for o in route])
        assert float(dist_line.split(": ", 1)[1]) == pytest.approx(length, abs=1e-6)
        assert length > 0.0

    def test_realized_scene_simulates_both_planners(self, pipeline, capsys):
        realized = pipeline["data"] / "env000" / "scan01.json"
        rc = dispatch(["plan", "--ckpt", str(pipeline["ckpt"]),
                       "--scene", str(pipeline["scene"]), "--n", "1",
                       "--realized", str(realized)])
        assert rc == 0
        out = capsys.readouterr().out
        assert any(l.startswith("coverage: distance ") for l in out.splitlines())
        assert any(l.startswith("vsg: distance ") for l in out.splitlines())

    def test_infeasible_episode_prints_both_planners(self, pipeline, capsys):
        # The scene as its own realized scene: nothing changed, so neither
        # planner finds its change. Both lines are those of the public
        # runners with no precomputed inputs.
        scene_path = str(pipeline["scene"])
        rc = dispatch(["plan", "--ckpt", str(pipeline["ckpt"]), "--scene", scene_path,
                       "--n", "1", "--realized", scene_path])
        assert rc == 0
        out = capsys.readouterr().out
        model, tax = load_checkpoint(pipeline["ckpt"])
        scene = load_scene_graph(pipeline["scene"], tax)
        ep = Episode(previous_map=scene, realized_scene=load_scene_graph(pipeline["scene"], tax), n=1)
        route = next(l for l in out.splitlines() if l.startswith("phase1-route: ")).split(": ", 1)[1].split()
        assert route == ranked_route(scene, model.predict_probabilities(scene, tax), 1, ep.start())
        lines = planner_lines(out)
        assert lines == [plan_line(run_coverage(ep, tax)),
                         plan_line(run_vsg_planner(ep, model, tax, first=route))]
        assert lines[0].startswith("coverage: ") and lines[0].endswith(" [infeasible]")
        assert lines[1].startswith("vsg: ") and lines[1].endswith(" [fallback, infeasible]")

    @pytest.mark.parametrize("start", [None, "1,2,0.5"])
    @pytest.mark.parametrize("objects", [10, 20])
    def test_realized_output_is_the_public_runners(self, pipeline, sized_scenes, capsys, objects, start):
        # On a Held-Karp map and on one above EXACT_TSP_LIMIT, every planning
        # line is the one the plain public functions give.
        scene_path, realized_path = sized_scenes[objects]
        n = 2
        rc = dispatch(["plan", "--ckpt", str(pipeline["ckpt"]), "--scene", str(scene_path), "--n", str(n),
                       "--realized", str(realized_path), *(["--start", start] if start else [])])
        assert rc == 0
        out = capsys.readouterr().out
        model, tax = load_checkpoint(pipeline["ckpt"])
        scene = load_scene_graph(scene_path, tax)
        assert (scene.num_nodes <= planner.EXACT_TSP_LIMIT) == (objects == 10)
        start_position = tuple(float(x) for x in start.split(",")) if start else None
        ep = Episode(previous_map=scene, realized_scene=load_scene_graph(realized_path, tax), n=n,
                     start_position=start_position)
        route = ranked_route(scene, model.predict_probabilities(scene, tax), n, ep.start())
        length = route_length(scene.positions(), ep.start(), [scene.node_index(o) for o in route])
        assert f"phase1-route: {' '.join(route)}" in out.splitlines()
        assert f"phase1-distance: {length:.6f}" in out.splitlines()
        assert planner_lines(out) == [plan_line(run_coverage(ep, tax)),
                                      plan_line(run_vsg_planner(ep, model, tax))]

    @pytest.mark.parametrize("realized", [True, False])
    @pytest.mark.parametrize("objects", [10, 20])
    def test_whole_map_is_routed_once_and_only_for_realized(self, pipeline, sized_scenes, capsys, monkeypatch,
                                                            objects, realized):
        # The map as its own realized scene at n = 2: the guided planner falls
        # back over the objects its 5-object phase-1 route left, and solves
        # that tour on its own. With --realized the whole map gets one matrix,
        # on a Held-Karp map from its one table fill, and one Coverage tour;
        # a plan without --realized solves only its phase-1 route.
        calls = []

        def spy(name):  # each call's size: its point count, or for a read-back its member count
            run = getattr(planner, name)

            def counted(*args):
                calls.append((name, len(args[-1] if name == "_held_karp_route" else args[0])))
                return run(*args)
            monkeypatch.setattr(planner, name, counted)

        for name in ("_held_karp_fill", "_extended_distances", "_held_karp_route", "solve_tsp"):
            spy(name)
        scene_path = str(sized_scenes[objects][0])
        rc = dispatch(["plan", "--ckpt", str(pipeline["ckpt"]), "--scene", scene_path, "--n", "2",
                       *(["--realized", scene_path] if realized else [])])
        assert rc == 0
        lines = planner_lines(capsys.readouterr().out)
        assert len(lines) == 2 * realized
        assert not realized or lines[1].startswith("vsg: ") and lines[1].endswith(" [fallback, infeasible]")
        whole = sorted(call for call in calls if call[1] == objects)
        if not realized:
            expected = []
        elif objects <= planner.EXACT_TSP_LIMIT:
            expected = [(name, objects) for name in ("_extended_distances", "_held_karp_fill", "_held_karp_route")]
        else:  # heuristic_tsp builds the tour's own matrix
            expected = [("_extended_distances", objects)] * 2 + [("solve_tsp", objects)]
        assert whole == sorted(expected)

    def test_realized_scene_predicts_once_and_labels_once(self, pipeline, capsys, monkeypatch):
        # ... and solves its phase-1 route once: the guided run walks the printed route.
        calls = []
        predict, labels = _VariabilityModel.predict_probabilities, planner.compute_labels
        route = planner._MapContext.phase1

        def counting_predict(self, *args):
            calls.append("predict")
            return predict(self, *args)

        def counting_labels(*args):
            calls.append("labels")
            return labels(*args)

        def counting_route(*args):
            calls.append("phase-1")
            return route(*args)

        monkeypatch.setattr(_VariabilityModel, "predict_probabilities", counting_predict)
        monkeypatch.setattr(planner, "compute_labels", counting_labels)
        monkeypatch.setattr(planner._MapContext, "phase1", counting_route)
        realized = pipeline["data"] / "env000" / "scan01.json"
        rc = dispatch(["plan", "--ckpt", str(pipeline["ckpt"]),
                       "--scene", str(pipeline["scene"]), "--n", "2",
                       "--realized", str(realized)])
        assert rc == 0
        assert sorted(calls) == ["labels", "phase-1", "predict"]
        capsys.readouterr()

    def test_bad_start_is_usage_error(self, pipeline, capsys):
        rc = dispatch(["plan", "--ckpt", str(pipeline["ckpt"]),
                       "--scene", str(pipeline["scene"]), "--n", "1",
                       "--start", "1,2"])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: UsageError:")

    @pytest.mark.parametrize("start", ["a,b,c", "1,2,x", "nan,0,0", "inf,0,0", "0,-inf,0"])
    def test_non_finite_start_is_one_error_line(self, pipeline, capsys, start):
        rc = dispatch(["plan", "--ckpt", str(pipeline["ckpt"]),
                       "--scene", str(pipeline["scene"]), "--n", "1",
                       "--start", start])
        assert rc == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: UsageError:")


class TestComparePlanners:
    def test_writes_summary_csv(self, pipeline, tmp_path, capsys):
        out = tmp_path / "bench.csv"
        rc = dispatch(["compare-planners", "--data", str(pipeline["data"]),
                       "--ckpt", str(pipeline["ckpt"]), "--n-range", "1..2",
                       "--seeds", "4", "--split", "all", "--out", str(out)])
        assert rc == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "n,planner,mean_distance,std_distance,win_fraction,speedup"
        assert len(lines) == 5  # two n values x two planners
        assert "episodes:" in capsys.readouterr().out

    def test_split_without_a_scan_pair_is_refused_before_echo(self, pipeline, tmp_path, capsys):
        # With one scan per environment there is no episode, so no largest map for --n-range to exceed.
        data = tmp_path / "data"
        shutil.copytree(pipeline["data"], data)
        manifest = json.loads((data / "manifest.json").read_text())
        for entry in manifest["environments"]:
            entry["scans"] = entry["scans"][:1]
        (data / "manifest.json").write_text(json.dumps(manifest))
        rc = dispatch(["compare-planners", "--data", str(data), "--ckpt", str(pipeline["ckpt"]),
                       "--n-range", "1..5", "--split", "train", "--out", str(tmp_path / "bench.csv")])
        out, err = capsys.readouterr()
        assert rc == 1 and "resolved-config:" not in out, out
        assert err.strip().splitlines() == [
            "error: EvaluationError: no scan pair in split 'train': each of its environments holds one scan"
        ]
        assert not (tmp_path / "bench.csv").exists()

    def test_deterministic_csv(self, pipeline, tmp_path):
        outs = []
        for name in ("x.csv", "y.csv"):
            out = tmp_path / name
            rc = dispatch(["compare-planners", "--data", str(pipeline["data"]),
                           "--ckpt", str(pipeline["ckpt"]), "--n-range", "1..2",
                           "--seeds", "4", "--split", "all", "--out", str(out)])
            assert rc == 0
            outs.append(read(out))
        assert outs[0] == outs[1]

    def test_echo_records_the_seed_used(self, pipeline, tmp_path, capsys):
        echoes = []
        for seed in ([], ["--seed", "0"], ["--seed", "5"]):
            rc = dispatch(["compare-planners", "--data", str(pipeline["data"]),
                           "--ckpt", str(pipeline["ckpt"]), "--n-range", "1..2",
                           "--seeds", "2", "--split", "all",
                           "--out", str(tmp_path / "bench.csv"), *seed])
            assert rc == 0
            echoes.append(resolved_config(capsys)[0])
        assert [e["seed"] for e in echoes] == [0, 0, 5]
        assert echoes[0] == echoes[1] != echoes[2]


def test_console_script_smoke(tmp_path):
    exe = shutil.which("vsg")
    if exe is None:
        pytest.skip("vsg entry point not on PATH")
    proc = subprocess.run([exe, "--help"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert "generate" in proc.stdout
