"""End-to-end tests of the command line interface and the run pipeline."""

import json
from pathlib import Path

import numpy as np
import pytest

from driftmc.cli import main

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


# Overrides for a price whose numbers a test does not read.
SMALL_SAMPLE = {"estimation": {"sample_sizes": [16]}}


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

    def test_prints_the_resolved_config_run_writes(self, tmp_path, capsys):
        # byte for byte, and a fixed point: validate on its own output
        # prints the same bytes
        cfg = write_config(tmp_path)
        assert main(["validate", "--config", str(cfg)]) == 0
        printed = capsys.readouterr().out.encode("utf-8")
        out_dir = tmp_path / "run"
        assert main(["run", "--config", str(cfg), "--out-dir",
                     str(out_dir)]) == 0
        assert printed == (out_dir / "resolved_config.json").read_bytes()
        resolved = tmp_path / "resolved.json"
        resolved.write_bytes(printed)
        capsys.readouterr()
        assert main(["validate", "--config", str(resolved)]) == 0
        assert capsys.readouterr().out.encode("utf-8") == printed

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

    def test_volatility_params_on_black_scholes_exit_code(self, tmp_path,
                                                          capsys):
        params = {**TWO_ASSETS, "v0": [5.0, 5.0], "reversion": [-3.0]}
        cfg = write_config(tmp_path, overrides={
            "model": {"params": params}})
        assert main(["validate", "--config", str(cfg)]) == 4
        err = capsys.readouterr().err
        assert "v0: not a parameter" in err
        assert "reversion: not a parameter" in err

    def test_malformed_config_exit_code(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{ not json")
        assert main(["validate", "--config", str(path)]) == 2

    def test_unknown_field_exit_code(self, tmp_path):
        path = tmp_path / "odd.json"
        path.write_text(json.dumps({"modle": {}}))
        assert main(["validate", "--config", str(path)]) == 2

    @pytest.mark.parametrize("schema", ["driftmc-run-v1", "driftmc-run-v2",
                                        "driftmc-run-v3", "driftmc-run-v4",
                                        "driftmc-run-v5"])
    def test_v1_resolved_config_names_schema(self, tmp_path, capsys, schema):
        assert main(["validate", "--config",
                     str(write_config(tmp_path))]) == 0
        resolved = json.loads(capsys.readouterr().out)
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


class TestPriceCommands:
    def test_price_report_json(self, tmp_path):
        # the first configured sample size, at the estimation seed
        cfg = write_config(tmp_path, overrides={
            "estimation": {"sample_sizes": [500, 1000]}})
        out = tmp_path / "report.json"
        assert main(["price", "--config", str(cfg), "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["measure"] == "P"
        assert (report["n"], report["seed"]) == (500, 7)

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
        assert main(["price", "--config", str(cfg), "--out",
                     str(mc_file)]) == 0
        assert main(["price", "--config", str(cfg), "--checkpoint",
                     str(checkpoint), "--out", str(is_file)]) == 0
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
        full = json.loads((out_dir / "reports.json").read_text())
        plain, is_ = (next(r for r in full["reports"] if r["measure"] == m)
                      for m in ("P", "P_h"))
        mc_file = tmp_path / "mc.json"
        is_file = tmp_path / "is.json"
        row_file = tmp_path / "row.json"
        assert main(["price", "--config", str(cfg), "--out",
                     str(mc_file)]) == 0
        assert main(["price", "--config", str(cfg), "--checkpoint",
                     str(out_dir / "checkpoint.json"), "--out",
                     str(is_file)]) == 0
        assert main(["compare", "--mc-report", str(mc_file),
                     "--is-report", str(is_file), "--out", str(row_file)]) == 0
        assert json.loads(mc_file.read_text()) == plain
        assert json.loads(is_file.read_text()) == is_
        assert json.loads(row_file.read_text()) == full["comparison"][0]

    @pytest.mark.parametrize("dt", [0, -0.01])
    def test_non_positive_grid_step_is_config_error(self, tmp_path, capsys,
                                                    dt):
        cfg = write_config(tmp_path, overrides={"grid": {"dt": dt}})
        assert main(["price", "--config", str(cfg)]) == 2
        assert "grid.dt" in capsys.readouterr().err

    @pytest.mark.parametrize("dt", [0.3, 2.0])
    def test_grid_step_must_divide_horizon(self, tmp_path, capsys, dt):
        # 1 / 0.3 and 1 / 2.0 are no whole step counts; rounding them would
        # price a grid other than the one the resolved config records
        cfg = write_config(tmp_path, overrides={"grid": {"dt": dt}})
        assert main(["price", "--config", str(cfg)]) == 2
        assert "grid.dt" in capsys.readouterr().err

    @pytest.mark.parametrize("block_size", [0, -128])
    def test_non_positive_block_size_is_config_error(self, tmp_path, capsys,
                                                     block_size):
        cfg = write_config(tmp_path,
                           overrides={"estimation": {"block_size": block_size}})
        assert main(["price", "--config", str(cfg)]) == 2
        assert "estimation.block_size" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["train", "run"])
    def test_unknown_activation_is_config_error(self, tmp_path, capsys,
                                                command):
        cfg = write_config(tmp_path,
                           overrides={"training": {"activation": "logistic"}})
        assert main([command, "--config", str(cfg), "--out-dir",
                     str(tmp_path / "out")]) == 2
        assert "unknown activation 'logistic'" in capsys.readouterr().err

    @pytest.mark.parametrize("checkpoint", [False, True],
                             ids=["price", "price-checkpoint"])
    def test_dump_paths_option_is_gone(self, tmp_path, capsys, checkpoint):
        extra = ["--checkpoint", str(tmp_path / "c")] if checkpoint else []
        with pytest.raises(SystemExit) as exit_info:
            main(["price", "--config", str(write_config(tmp_path)), *extra,
                  "--dump-paths", str(tmp_path / "paths.csv")])
        assert exit_info.value.code == 2
        assert "--dump-paths" in capsys.readouterr().err

    @pytest.mark.parametrize("edit, message", [
        (lambda record: {k: v for k, v in record.items() if k != "params"},
         "'params'"),
        (list, "not a JSON object"),
        (lambda record: dict(record, params=["x"] * len(record["params"])),
         "non-numeric 'params'"),
    ], ids=["no-params", "list", "params-not-numbers"])
    def test_malformed_checkpoint_is_config_error(self, tmp_path, capsys,
                                                  edit, message):
        cfg = write_config(tmp_path)
        out_dir = tmp_path / "artifacts"
        assert main(["train", "--config", str(cfg), "--out-dir",
                     str(out_dir)]) == 0
        checkpoint = out_dir / "checkpoint.json"
        checkpoint.write_text(json.dumps(edit(json.loads(
            checkpoint.read_text()))))
        assert main(["price", "--config", str(cfg), "--checkpoint",
                     str(checkpoint)]) == 2
        assert message in capsys.readouterr().err

    def test_checkpoint_of_another_width_is_named(self, tmp_path, capsys):
        # a 2-asset Black-Scholes drift cannot price a 3-asset Heston model,
        # whose driver has dimension 6
        out_dir = tmp_path / "artifacts"
        assert main(["train", "--config", str(write_config(tmp_path)),
                     "--out-dir", str(out_dir)]) == 0
        checkpoint = out_dir / "checkpoint.json"
        heston = write_config(tmp_path, overrides={
            **SMALL_SAMPLE, "model": {"tag": "heston", "n": 3}},
            name="heston.json")
        assert main(["price", "--config", str(heston), "--checkpoint",
                     str(checkpoint)]) == 2
        err = capsys.readouterr().err
        assert f"checkpoint {checkpoint} has drift output width 2" in err
        assert "driver dimension is 6" in err

    def test_report_without_label_is_config_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, overrides=SMALL_SAMPLE)
        mc_file = tmp_path / "mc.json"
        assert main(["price", "--config", str(cfg), "--out",
                     str(mc_file)]) == 0
        report = json.loads(mc_file.read_text())
        del report["label"]
        mc_file.write_text(json.dumps(report))
        assert main(["compare", "--mc-report", str(mc_file),
                     "--is-report", str(mc_file)]) == 2
        err = capsys.readouterr().err
        assert "'label'" in err and str(mc_file) in err

    @pytest.mark.parametrize("field", ["vr", "extra"])
    def test_report_with_unknown_field_is_config_error(self, tmp_path,
                                                       capsys, field):
        # compare reads exactly the fields price writes, so a report with
        # one more, such as a "vr": null that price does not write, is
        # refused by file and field
        cfg = write_config(tmp_path, overrides=SMALL_SAMPLE)
        mc_file = tmp_path / "mc.json"
        assert main(["price", "--config", str(cfg), "--out",
                     str(mc_file)]) == 0
        report = json.loads(mc_file.read_text())
        assert field not in report
        mc_file.write_text(json.dumps(dict(report, **{field: None})))
        assert main(["compare", "--mc-report", str(mc_file),
                     "--is-report", str(mc_file)]) == 2
        err = capsys.readouterr().err
        assert f"report {mc_file} has unknown field {field!r}" in err

    @pytest.mark.parametrize("field, value", [
        ("label", 5),
        ("measure", None),
        ("n", None),
        ("n", "400"),
        ("n", True),
        ("seed", 7.5),
        ("mean_cents", "1.0"),
        ("se_pct", float("nan")),
        ("kappa", float("inf")),
        ("theta", "0.1"),
        ("per_sample_variance", "x"),
        ("per_sample_variance", False),
        (None, "{ not json"),
    ])
    def test_report_field_of_wrong_type_is_config_error(self, tmp_path,
                                                        capsys, field, value):
        # a config error naming the file and the field, not a traceback
        # from deep in compare or a silent conversion
        cfg = write_config(tmp_path, overrides=SMALL_SAMPLE)
        mc_file = tmp_path / "mc.json"
        assert main(["price", "--config", str(cfg), "--out",
                     str(mc_file)]) == 0
        if field is None:
            mc_file.write_text(value)
        else:
            report = json.loads(mc_file.read_text())
            report[field] = value
            mc_file.write_text(json.dumps(report))
        assert main(["compare", "--mc-report", str(mc_file),
                     "--is-report", str(mc_file)]) == 2
        err = capsys.readouterr().err
        assert str(mc_file) in err
        assert ("not valid JSON" if field is None else repr(field)) in err

    def test_all_zero_reports_compare(self, tmp_path, capsys):
        # an all-zero sample reports an infinite se_pct, which compare reads
        cfg = write_config(tmp_path, overrides={
            **SMALL_SAMPLE, "payoff": {"moneyness": 100.0}})
        mc_file = tmp_path / "mc.json"
        is_file = tmp_path / "is.json"
        assert main(["price", "--config", str(cfg), "--out",
                     str(mc_file)]) == 0
        report = json.loads(mc_file.read_text())
        assert report["se_pct"] == float("inf")
        is_file.write_text(json.dumps(dict(report, measure="P_h")))
        assert main(["compare", "--mc-report", str(mc_file),
                     "--is-report", str(is_file)]) == 0
        row = json.loads(capsys.readouterr().out)
        assert row["mc_se_pct"] == row["is_se_pct"] == float("inf")
        assert row["vr"] == 1.0


@pytest.mark.parametrize("argv, removed", [
    (["sample-params", "--config", "{config}"], "sample-params"),
    (["price", "--config", "{config}", "--format", "csv"], "--format"),
    (["price-is", "--config", "{config}", "--checkpoint", "{tmp}/c"],
     "price-is"),
    (["price", "--config", "{config}", "--n", "16"], "--n"),
    (["price", "--config", "{config}", "--seed", "1"], "--seed"),
    (["--verbose", "validate", "--config", "{config}"], "--verbose"),
    (["compare", "--mc-report", "{tmp}/mc.json", "--is-report",
      "{tmp}/is.json", "--format", "csv"], "--format"),
    (["run", "--config", "{config}", "--out-dir", "{tmp}/out", "--seed", "1"],
     "--seed"),
    (["run", "--config", "{config}", "--out-dir", "{tmp}/out", "--dry-run"],
     "--dry-run"),
], ids=["sample-params", "price-format", "price-is", "price-n", "price-seed",
        "verbose", "compare-format", "run-seed", "run-dry-run"])
def test_removed_option_exits_from_argparse(tmp_path, capsys, argv, removed):
    # the config file sets a run, validate prints it resolved, price
    # --checkpoint prices with a drift, reports are JSON, and reports.json
    # and timings.json hold what a log line would
    config = write_config(tmp_path)
    with pytest.raises(SystemExit) as exit_info:
        main([arg.format(config=config, tmp=tmp_path) for arg in argv])
    assert exit_info.value.code == 2
    assert removed in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("threads", ["0", "-3"])
@pytest.mark.parametrize("command", ["price", "price-checkpoint", "run"])
def test_non_positive_threads_exit_config(tmp_path, capsys, command, threads):
    argv = {"price": ["price"],
            "price-checkpoint": ["price", "--checkpoint", str(tmp_path / "c")],
            "run": ["run", "--out-dir", str(tmp_path / "out")]}[command]
    argv += ["--config", str(write_config(tmp_path)), "--threads", threads]
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    assert "--threads" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


class TestRunCommand:
    def test_full_run_emits_artifacts(self, tmp_path):
        cfg = write_config(tmp_path)
        out_dir = tmp_path / "full"
        assert main(["run", "--config", str(cfg), "--out-dir",
                     str(out_dir)]) == 0
        names = run_artifacts(out_dir)
        assert names == ["checkpoint.json", "reports.csv", "reports.json",
                         "resolved_config.json", "timings.json",
                         "training_trace.csv"]
        trace = (out_dir / "training_trace.csv").read_text().splitlines()
        assert trace[0] == "step,v_hat,h_norm_sq,informative"
        assert len(trace) == 6
        assert all(line.endswith((",0", ",1")) for line in trace[1:])
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
        # invalid explicit params are refused while the config resolves
        cfg = write_config(tmp_path, overrides={
            "model": {"params": {"sigma": [[0.2, 0.0], [0.0, 0.2]],
                                 "s0": [-1.0, 1.0]},
                      "tag": "black_scholes", "n": 2},
            "payoff": {"weights": [0.5, 0.5], "strike": 1.0},
        })
        out_dir = tmp_path / "fail"
        assert main(["run", "--config", str(cfg), "--out-dir",
                     str(out_dir)]) == 4
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
        ({"payoff": {"barriers": [1.6, 0.7]}},
         "payoff.barriers needs lower < upper barrier"),
        ({"model": {"params": dict(TWO_ASSETS, mu=[0.05, 0.05])}},
         "model.params.mu"),
        ({"model": {"params": {"s0": [1.0, 1.0]}}}, "model.params.sigma"),
        ({"model": {"n": 3, "params": TWO_ASSETS}}, "model.n is 3"),
        ({"model": {"params": dict(TWO_ASSETS, sigma=[[0.2, 0.0], [0.1]])}},
         "model.params.sigma"),
        ({"model": {"params": dict(TWO_ASSETS, s0=[1.0, "one"])}},
         "model.params.s0"),
        ({"model": {"params": dict(TWO_ASSETS, s0=[[1.0, 1.0]])}},
         "model.params.s0"),
        ({"payoff": {"weights": [0.5, 0.4]}}, "payoff.weights"),
        ({"model": {"rate": True}}, "model.rate"),
        ({"grid": {"dt": True}}, "grid.dt"),
        ({"model": {"n": True}}, "model.n"),
        ({"estimation": {"sample_sizes": [True]}},
         "estimation.sample_sizes"),
        ({"payoff": {"barrier_moneyness": 0}}, "payoff.barrier_moneyness"),
        ({"payoff": {"barrier_moneyness": []}}, "payoff.barrier_moneyness"),
        ({"payoff": {"barrier_moneyness": False}},
         "payoff.barrier_moneyness"),
        ({"payoff": {"barriers": [0.5, 2.0],
                     "barrier_moneyness": [0.9, 0.95]}},
         "payoff.barriers or payoff.barrier_moneyness"),
        ({"estimation": {"sample_sizes": [0]}}, "estimation.sample_sizes"),
        ({"estimation": {"sample_sizes": [-5]}}, "estimation.sample_sizes"),
        ({"payoff": {"strike": 1.0, "moneyness": 2.0}},
         "payoff.strike or payoff.moneyness"),
        ({"payoff": {"moneyness": -1.0}}, "payoff.moneyness"),
        ({"payoff": {"moneyness": 0}}, "payoff.moneyness"),
        ({"payoff": {"strike": 0.0, "moneyness": None}}, "payoff.strike"),
        ({"payoff": {"barrier_moneyness": [1.6, 0.7]}},
         "payoff.barrier_moneyness needs lower < upper barrier"),
    ], ids=["n-fraction", "n-null", "model-seed", "rate-string",
            "moneyness-string", "estimation-seed", "block-size",
            "sample-size", "hidden-width", "activation", "weights-width",
            "barrier-moneyness", "barriers-reversed", "params-mu",
            "params-no-sigma", "params-width", "params-ragged-sigma",
            "params-s0-string", "params-s0-nested", "weights-sum",
            "rate-bool", "dt-bool", "n-bool", "sample-size-bool",
            "barrier-moneyness-zero", "barrier-moneyness-empty",
            "barrier-moneyness-false", "barriers-both", "sample-size-zero",
            "sample-size-negative", "strike-and-moneyness",
            "moneyness-negative", "moneyness-zero", "strike-zero",
            "barrier-moneyness-reversed"])
    def test_bad_value_fails_at_resolve(self, tmp_path, capsys, overrides,
                                        named):
        # refused before anything is written, naming the field, where the
        # value was once truncated, ignored or crashed mid-run; validate
        # and train refuse what run refuses
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
        train_dir = tmp_path / "train"
        assert main(["train", "--config", str(cfg), "--out-dir",
                     str(train_dir)]) == 2
        assert named in capsys.readouterr().err
        assert not (train_dir / "resolved_config.json").exists()

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
