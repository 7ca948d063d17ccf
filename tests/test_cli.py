"""End-to-end tests of the command line interface and the run pipeline."""

import json
from pathlib import Path

import numpy as np
import pytest

from driftmc.cli import main
from driftmc.config import build_scenario, resolve_config
from driftmc.payoffs import evaluate_batch

# Explicit parameters of a two-asset Black-Scholes model.
TWO_ASSETS = {"sigma": [[0.2, 0.0], [0.0, 0.2]], "s0": [1.0, 1.0]}

TINY_CONFIG = {
    "model": {"tag": "black_scholes", "n": 2, "seed": 1},
    "payoff": {"moneyness": 1.05},
    "grid": {"horizon": 1.0, "dt": 1.0 / 16},
    "training": {"epochs": 1, "steps_per_epoch": 5, "batch_size": 32,
                 "seed": 3},
    "estimation": {"sample_sizes": [400, 800], "seed": 7,
                   "block_size": 128},
}


def write_config(tmp_path, overrides=None, name="config.json"):
    cfg = json.loads(json.dumps(TINY_CONFIG))
    for key, value in (overrides or {}).items():
        cfg.setdefault(key, {}).update(value)
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


def run_artifacts(out_dir):
    return sorted(p.name for p in Path(out_dir).iterdir())


def deterministic_artifacts(out_dir):
    """A run's artifacts but its wall times, which vary from run to run."""
    return [name for name in run_artifacts(out_dir) if name != "timings.json"]


class TestValidateCommand:
    def test_sampled_config_validates(self, tmp_path):
        cfg = write_config(tmp_path)
        assert main(["validate", "--config", str(cfg)]) == 0

    def test_invalid_explicit_params_exit_code(self, tmp_path, capsys):
        cfg = {
            "model": {"tag": "black_scholes", "n": 1,
                      "params": {"sigma": [[0.2]], "s0": [-1.0]}},
            "payoff": {"strike": 1.0, "weights": [1.0]},
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(cfg))
        assert main(["validate", "--config", str(path)]) == 4
        assert "s0[0]: must be positive" in capsys.readouterr().err

    def test_malformed_config_exit_code(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{ not json")
        assert main(["validate", "--config", str(path)]) == 2

    def test_unknown_field_exit_code(self, tmp_path):
        path = tmp_path / "odd.json"
        path.write_text(json.dumps({"modle": {}}))
        assert main(["validate", "--config", str(path)]) == 2

    @pytest.mark.parametrize("schema", ["driftmc-run-v1", "driftmc-run-v2",
                                        "driftmc-run-v3", "driftmc-run-v4"])
    def test_v1_resolved_config_names_schema(self, tmp_path, capsys, schema):
        out_dir = tmp_path / "dry"
        main(["run", "--config", str(write_config(tmp_path)), "--out-dir",
              str(out_dir), "--dry-run"])
        resolved = json.loads((out_dir / "resolved_config.json").read_text())
        resolved["schema"] = schema
        path = tmp_path / "old.json"
        path.write_text(json.dumps(resolved))
        assert main(["validate", "--config", str(path)]) == 2
        assert schema in capsys.readouterr().err

    @pytest.mark.parametrize("block, field, value", [
        ("payoff", "weight_rule", "risk_adjusted"),
        ("payoff", "averaging", "trapezoid"),
        ("training", "resample", "fresh"),
        ("training", "clip_threshold", None),
        ("training", "beta1", 0.9),
        ("training", "beta2", 0.999),
        ("training", "eps", 1e-8),
        ("training", "smooth_window", 200),
        ("model", "recipe", {"s0": [0.8, 1.2]}),
        (None, "output", {"formats": ["csv"]}),  # a removed top-level block
    ])
    def test_removed_field_is_config_error(self, tmp_path, capsys, block,
                                           field, value):
        overrides = {field: value} if block is None else {block: {field: value}}
        cfg = write_config(tmp_path, overrides=overrides)
        assert main(["validate", "--config", str(cfg)]) == 2
        assert repr(field) in capsys.readouterr().err


class TestSampleParamsCommand:
    def test_prints_parameters(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert main(["sample-params", "--config", str(cfg)]) == 0
        block = json.loads(capsys.readouterr().out)
        assert block["tag"] == "black_scholes"
        assert len(block["params"]["s0"]) == 2

    def test_seed_override_changes_draw(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        main(["sample-params", "--config", str(cfg)])
        first = capsys.readouterr().out
        main(["sample-params", "--config", str(cfg), "--seed", "99"])
        second = capsys.readouterr().out
        assert first != second


class TestPriceCommands:
    def test_price_report_json(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "report.json"
        assert main(["price", "--config", str(cfg), "--n", "500",
                     "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["measure"] == "P"
        assert report["n"] == 500

    def test_train_then_price_is_and_compare(self, tmp_path):
        cfg = write_config(tmp_path)
        out_dir = tmp_path / "artifacts"
        assert main(["train", "--config", str(cfg), "--out-dir",
                     str(out_dir)]) == 0
        checkpoint = out_dir / "checkpoint.json"
        assert checkpoint.exists()
        assert (out_dir / "training_trace.csv").exists()

        mc_file = tmp_path / "mc.json"
        is_file = tmp_path / "is.json"
        assert main(["price", "--config", str(cfg), "--n", "400",
                     "--seed", "7", "--out", str(mc_file)]) == 0
        assert main(["price-is", "--config", str(cfg),
                     "--checkpoint", str(checkpoint), "--n", "400",
                     "--seed", "8", "--out", str(is_file)]) == 0
        row_file = tmp_path / "row.json"
        assert main(["compare", "--mc-report", str(mc_file),
                     "--is-report", str(is_file), "--out", str(row_file)]) == 0
        row = json.loads(row_file.read_text())
        assert row["n"] == 400
        assert row["vr"] > 0.0

    def test_price_commands_reproduce_run(self, tmp_path):
        cfg = write_config(tmp_path)
        out_dir = tmp_path / "full"
        assert main(["run", "--config", str(cfg), "--out-dir",
                     str(out_dir)]) == 0
        reports = json.loads((out_dir / "reports.json").read_text())["reports"]
        plain, is_ = (next(r for r in reports
                           if r["n"] == 400 and r["measure"] == measure)
                      for measure in ("P", "P_h"))
        mc_file = tmp_path / "mc.json"
        is_file = tmp_path / "is.json"
        assert main(["price", "--config", str(cfg), "--n", "400",
                     "--seed", "7", "--out", str(mc_file)]) == 0
        assert main(["price-is", "--config", str(cfg), "--checkpoint",
                     str(out_dir / "checkpoint.json"), "--n", "400",
                     "--out", str(is_file)]) == 0
        assert json.loads(mc_file.read_text()) == plain
        assert json.loads(is_file.read_text()) == is_

    @pytest.mark.parametrize("n", ["0", "-5"])
    def test_non_positive_sample_size_is_config_error(self, tmp_path, n):
        cfg = write_config(tmp_path)
        assert main(["price", "--config", str(cfg), "--n", n]) == 2

    @pytest.mark.parametrize("dt", [0, -0.01])
    def test_non_positive_grid_step_is_config_error(self, tmp_path, capsys,
                                                    dt):
        cfg = write_config(tmp_path, overrides={"grid": {"dt": dt}})
        assert main(["price", "--config", str(cfg), "--n", "16"]) == 2
        assert "grid.dt" in capsys.readouterr().err

    @pytest.mark.parametrize("dt", [0.3, 2.0])
    def test_grid_step_must_divide_horizon(self, tmp_path, capsys, dt):
        # 1 / 0.3 and 1 / 2.0 are no whole step counts; rounding them would
        # price a grid other than the one the resolved config records
        cfg = write_config(tmp_path, overrides={"grid": {"dt": dt}})
        assert main(["price", "--config", str(cfg), "--n", "16"]) == 2
        assert "grid.dt" in capsys.readouterr().err

    @pytest.mark.parametrize("block_size", [0, -128])
    def test_non_positive_block_size_is_config_error(self, tmp_path, capsys,
                                                     block_size):
        cfg = write_config(tmp_path,
                           overrides={"estimation": {"block_size": block_size}})
        assert main(["price", "--config", str(cfg), "--n", "16"]) == 2
        assert "estimation.block_size" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["train", "run"])
    def test_unknown_activation_is_config_error(self, tmp_path, capsys,
                                                command):
        cfg = write_config(tmp_path,
                           overrides={"training": {"activation": "logistic"}})
        assert main([command, "--config", str(cfg), "--out-dir",
                     str(tmp_path / "out")]) == 2
        assert "unknown activation 'logistic'" in capsys.readouterr().err

    def test_price_csv_to_stdout(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert main(["price", "--config", str(cfg), "--n", "64",
                     "--format", "csv"]) == 0
        header, row, end = capsys.readouterr().out.split("\n")
        assert header.split(",")[:3] == ["label", "measure", "n"]
        assert row.split(",")[1:3] == ["P", "64"]
        assert end == ""

    def test_price_dump_paths(self, tmp_path):
        cfg = write_config(tmp_path)
        dump = tmp_path / "paths.csv"
        assert main(["price", "--config", str(cfg), "--n", "16",
                     "--dump-paths", str(dump), "--out",
                     str(tmp_path / "r.json")]) == 0
        header = dump.read_text().splitlines()[0]
        assert header == "path_id,step,state_0,state_1"

    def test_dumped_paths_are_the_priced_paths(self, tmp_path):
        # the payoff of the dumped paths reproduces the reported mean, over
        # three blocks of 128 paths, the last one partial
        cfg = write_config(tmp_path)
        dump = tmp_path / "paths.csv"
        out = tmp_path / "r.json"
        assert main(["price", "--config", str(cfg), "--n", "300",
                     "--dump-paths", str(dump), "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        sc = build_scenario(resolve_config(json.loads(cfg.read_text())))
        rows = np.loadtxt(dump, delimiter=",", skiprows=1)
        nodes = sc.grid.n_steps + 1
        np.testing.assert_array_equal(rows[:, 0], np.repeat(np.arange(300),
                                                            nodes))
        states = rows[:, 2:].reshape(300, nodes, sc.model.n_state)
        values = evaluate_batch(sc.payoff, states, sc.grid).values
        discount_cents = 100.0 * np.exp(-sc.model.rate * sc.grid.horizon)
        assert report["mean_cents"] > 0.0
        assert np.mean(values * discount_cents) == pytest.approx(
            report["mean_cents"], rel=1e-12)


@pytest.mark.parametrize("threads", ["0", "-3"])
@pytest.mark.parametrize("command", ["price", "price-is", "run"])
def test_non_positive_threads_exit_config(tmp_path, capsys, command, threads):
    extra = {"price": [], "price-is": ["--checkpoint", str(tmp_path / "c")],
             "run": ["--out-dir", str(tmp_path / "out")]}[command]
    argv = [command, "--config", str(write_config(tmp_path)), *extra,
            "--threads", threads]
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    assert "--threads" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


class TestRunCommand:
    def test_dry_run_writes_only_config(self, tmp_path):
        cfg = write_config(tmp_path)
        out_dir = tmp_path / "dry"
        assert main(["run", "--config", str(cfg), "--out-dir", str(out_dir),
                     "--dry-run"]) == 0
        assert run_artifacts(out_dir) == ["resolved_config.json"]

    def test_full_run_emits_artifacts(self, tmp_path):
        cfg = write_config(tmp_path)
        out_dir = tmp_path / "full"
        assert main(["run", "--config", str(cfg), "--out-dir",
                     str(out_dir)]) == 0
        names = run_artifacts(out_dir)
        assert names == ["checkpoint.json", "reports.csv", "reports.json",
                         "resolved_config.json", "timings.json",
                         "training_trace.csv"]
        rows = json.loads((out_dir / "reports.json").read_text())["comparison"]
        assert [row["n"] for row in rows] == [400, 800]
        timings = json.loads((out_dir / "timings.json").read_text())
        assert sorted(timings) == ["estimates", "training_seconds"]
        assert timings["training_seconds"] > 0.0
        estimates = timings["estimates"]
        assert [(e["measure"], e["n"], e["seed"]) for e in estimates] == [
            ("P", 400, 7), ("P", 800, 9), ("P_h", 400, 8), ("P_h", 800, 10)]
        for e in estimates:
            assert e["label"] == "black_scholes-asian"
            assert e["wall_seconds"] > 0.0
            assert e["paths_per_s"] == pytest.approx(e["n"] / e["wall_seconds"])

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path)
        first = tmp_path / "run1"
        second = tmp_path / "run2"
        assert main(["run", "--config", str(cfg), "--out-dir", str(first)]) == 0
        assert main(["run", "--config", str(cfg), "--out-dir", str(second)]) == 0
        for name in deterministic_artifacts(first):
            assert (first / name).read_bytes() == (second / name).read_bytes()

    def test_thread_count_does_not_change_artifacts(self, tmp_path):
        cfg = write_config(tmp_path)
        serial = tmp_path / "serial"
        threaded = tmp_path / "threaded"
        assert main(["run", "--config", str(cfg), "--out-dir", str(serial),
                     "--threads", "1"]) == 0
        assert main(["run", "--config", str(cfg), "--out-dir", str(threaded),
                     "--threads", "8"]) == 0
        for name in deterministic_artifacts(serial):
            assert (serial / name).read_bytes() == (threaded / name).read_bytes()

    def test_resolved_config_is_reusable_fixed_point(self, tmp_path):
        cfg = write_config(tmp_path)
        out_dir = tmp_path / "orig"
        assert main(["run", "--config", str(cfg), "--out-dir", str(out_dir)]) == 0
        resolved = out_dir / "resolved_config.json"
        rerun_dir = tmp_path / "rerun"
        assert main(["run", "--config", str(resolved), "--out-dir",
                     str(rerun_dir)]) == 0
        for name in deterministic_artifacts(out_dir):
            assert (out_dir / name).read_bytes() == (rerun_dir / name).read_bytes()

    def test_failure_leaves_error_file(self, tmp_path):
        # invalid explicit params are refused while the config resolves,
        # also by a dry run
        cfg = write_config(tmp_path, overrides={
            "model": {"params": {"sigma": [[0.2, 0.0], [0.0, 0.2]],
                                 "s0": [-1.0, 1.0]},
                      "tag": "black_scholes", "n": 2},
            "payoff": {"weights": [0.5, 0.5], "strike": 1.0},
        })
        for extra in ([], ["--dry-run"]):
            out_dir = tmp_path / f"fail{len(extra)}"
            assert main(["run", "--config", str(cfg), "--out-dir",
                         str(out_dir), *extra]) == 4
            assert run_artifacts(out_dir) == ["error.json"]
            error = json.loads((out_dir / "error.json").read_text())
            assert error["stage"] == "resolve"
            assert error["error"] == "ModelValidationError"

    @pytest.mark.parametrize("field, value", [
        ("epochs", -1),
        ("steps_per_epoch", -5),
        ("learning_rate", -0.01),
        ("learning_rate", float("nan")),
        ("batch_size", 1),
        ("batch_size", None),
        ("steps_per_epoch", 2.5),
        ("seed", -1),
    ])
    def test_bad_training_block_fails_at_resolve(self, tmp_path, capsys,
                                                 field, value):
        # refused before anything is simulated: the only artifact is the
        # error file, and it names the resolve stage
        cfg = write_config(tmp_path, overrides={"training": {field: value}})
        out_dir = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out-dir",
                     str(out_dir)]) == 2
        assert f"training.{field}" in capsys.readouterr().err
        assert run_artifacts(out_dir) == ["error.json"]
        error = json.loads((out_dir / "error.json").read_text())
        assert error["stage"] == "resolve"
        assert error["error"] == "ConfigError"

    @pytest.mark.parametrize("overrides, named", [
        ({"model": {"n": 2.9}}, "model.n"),
        ({"model": {"n": None}}, "model.n"),
        ({"model": {"seed": 1.5}}, "model.seed"),
        ({"model": {"rate": "0.05"}}, "model.rate"),
        ({"payoff": {"moneyness": "1.3"}}, "payoff.moneyness"),
        ({"estimation": {"seed": 7.5}}, "estimation.seed"),
        ({"estimation": {"block_size": 64.5}}, "estimation.block_size"),
        ({"estimation": {"sample_sizes": [2.9]}}, "estimation.sample_sizes"),
        ({"training": {"hidden_width": 2.5}}, "training.hidden_width"),
        ({"training": {"activation": "relu"}}, "training.activation"),
        ({"payoff": {"weights": [0.5, 0.25, 0.25]}}, "payoff.weights"),
        ({"payoff": {"barrier_moneyness": [0.7]}},
         "payoff.barrier_moneyness"),
        ({"payoff": {"barriers": [1.6, 0.7]}}, "lower < upper barrier"),
        ({"model": {"params": dict(TWO_ASSETS, mu=[0.05, 0.05])}},
         "model.params.mu"),
        ({"model": {"params": {"s0": [1.0, 1.0]}}}, "model.params.sigma"),
        ({"model": {"n": 3, "params": TWO_ASSETS}}, "model.n is 3"),
    ], ids=["n-fraction", "n-null", "model-seed", "rate-string",
            "moneyness-string", "estimation-seed", "block-size",
            "sample-size", "hidden-width", "activation", "weights-width",
            "barrier-moneyness", "barriers-reversed", "params-mu",
            "params-no-sigma", "params-width"])
    def test_bad_value_fails_at_resolve(self, tmp_path, capsys, overrides,
                                        named):
        # refused before anything is written, naming the field, where the
        # value was once truncated, ignored or crashed mid-run; validate
        # refuses what run refuses
        cfg = write_config(tmp_path, overrides=overrides)
        assert main(["validate", "--config", str(cfg)]) == 2
        assert named in capsys.readouterr().err
        out_dir = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out-dir",
                     str(out_dir)]) == 2
        assert named in capsys.readouterr().err
        assert run_artifacts(out_dir) == ["error.json"]
        error = json.loads((out_dir / "error.json").read_text())
        assert error["stage"] == "resolve"
        assert error["error"] == "ConfigError"

    def test_zero_rate_runs_with_inverse_norm_weights(self, tmp_path):
        # the weights are 1 / |sigma row k| normalized, whatever the rate
        cfg = write_config(tmp_path, overrides={"model": {"rate": 0.0}})
        assert main(["validate", "--config", str(cfg)]) == 0
        out_dir = tmp_path / "zero_rate"
        assert main(["run", "--config", str(cfg), "--out-dir",
                     str(out_dir)]) == 0
        resolved = json.loads((out_dir / "resolved_config.json").read_text())
        inverse = 1.0 / np.linalg.norm(resolved["model"]["params"]["sigma"],
                                       axis=1)
        np.testing.assert_allclose(resolved["payoff"]["weights"],
                                   inverse / inverse.sum(), rtol=1e-15)
        assert "reports.csv" in run_artifacts(out_dir)
