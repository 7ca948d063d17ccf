"""End-to-end tests of the command line interface and the run pipeline."""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from driftmc import config, pipeline
from driftmc.cli import main
from driftmc.config import Scenario, build_payoff
from driftmc.network import _checkpoint_digest, init_net, save_checkpoint
from driftmc.pipeline import TRAIN_ARTIFACTS

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


def signed(record, **changes):
    """A checkpoint record with ``changes`` and a digest that matches them,
    as a checkpoint written by another program would carry."""
    record = dict(record, **changes)
    record["sha256"] = _checkpoint_digest(record["hidden"], record["output"],
                                          record["activation"],
                                          record["params"])
    return record


# The artifacts of a successful run.
RUN_ARTIFACTS = ["checkpoint.json", "reports.json", "resolved_config.json",
                 "timings.json", "training_trace.json"]


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
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(cfg))
        assert main(["validate", "--config", str(path)]) == 2
        assert (f"config error: config {path}: model spec invalid: s0[0]: "
                "must be positive") in capsys.readouterr().err

    def test_volatility_params_on_black_scholes_exit_code(self, tmp_path,
                                                          capsys):
        params = {**TWO_ASSETS, "v0": [5.0, 5.0], "reversion": [-3.0]}
        cfg = write_config(tmp_path, overrides={
            "model": {"params": params}})
        assert main(["validate", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert f"config {cfg}: model spec invalid" in err
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
        # named by its dotted path
        overrides = {field: value} if block is None else {block: {field: value}}
        cfg = write_config(tmp_path, overrides=overrides)
        assert main(["validate", "--config", str(cfg)]) == 2
        name = field if block is None else f"{block}.{field}"
        assert repr(name) in capsys.readouterr().err


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
        # after train, price --checkpoint writes a comparison row
        cfg = write_config(tmp_path)
        out_dir = tmp_path / "artifacts"
        assert main(["train", "--config", str(cfg), "--out-dir",
                     str(out_dir)]) == 0
        checkpoint = out_dir / "checkpoint.json"
        assert checkpoint.exists()
        assert (out_dir / "training_trace.json").exists()

        row_file = tmp_path / "row.json"
        assert main(["price", "--config", str(cfg), "--checkpoint",
                     str(checkpoint), "--out", str(row_file)]) == 0
        row = json.loads(row_file.read_text())
        assert sorted(row) == ["importance", "plain", "vr"]
        assert (row["plain"]["measure"], row["importance"]["measure"]) == (
            "P", "P_h")
        assert row["plain"]["n"] == row["importance"]["n"] == 400
        assert row["vr"] > 0.0

    def test_price_commands_reproduce_run(self, tmp_path):
        # price writes run's first plain report, and price --checkpoint
        # run's first row, at any thread count
        cfg = write_config(tmp_path)
        out_dir = tmp_path / "full"
        assert main(["run", "--config", str(cfg), "--out-dir",
                     str(out_dir)]) == 0
        reports = json.loads((out_dir / "reports.json").read_text())
        row = reports["comparison"][0]
        mc_file = tmp_path / "mc.json"
        row_file = tmp_path / "row.json"
        for threads in ("1", "2"):
            assert main(["price", "--config", str(cfg), "--out",
                         str(mc_file), "--threads", threads]) == 0
            assert main(["price", "--config", str(cfg), "--checkpoint",
                         str(out_dir / "checkpoint.json"), "--out",
                         str(row_file), "--threads", threads]) == 0
            assert json.loads(mc_file.read_text()) == row["plain"]
            assert json.loads(row_file.read_text()) == row

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
        assert ("training.activation must be 'scaled_tanh' or 'tanh', got "
                "'logistic'" in capsys.readouterr().err)

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
         "'params'[0] must be a finite number"),
        (lambda record: signed(record, hidden=-1), "'hidden'"),
        (lambda record: signed(record, params=[math.nan] * len(
            record["params"])), "'params'[0] must be a finite number"),
        (lambda record: signed(record, hidden=str(record["hidden"])),
         "'hidden'"),
        (lambda record: signed(record, activation="relu"),
         "'activation' must be 'scaled_tanh' or 'tanh', got 'relu'"),
        (lambda record: signed(record, extra=1), "unknown field 'extra'"),
    ], ids=["no-params", "list", "params-not-numbers", "hidden-negative",
            "params-nan", "hidden-string", "activation-relu", "extra-field"])
    def test_malformed_checkpoint_is_config_error(self, tmp_path, capsys,
                                                  edit, message):
        # exit 2 naming the file and the field, also where the digest
        # matches: not numpy's message, a numerical failure or a silent
        # conversion
        cfg = write_config(tmp_path)
        out_dir = tmp_path / "artifacts"
        assert main(["train", "--config", str(cfg), "--out-dir",
                     str(out_dir)]) == 0
        checkpoint = out_dir / "checkpoint.json"
        checkpoint.write_text(json.dumps(edit(json.loads(
            checkpoint.read_text()))))
        assert main(["price", "--config", str(cfg), "--checkpoint",
                     str(checkpoint)]) == 2
        err = capsys.readouterr().err
        assert message in err and f"checkpoint {checkpoint}" in err

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

    def test_refused_checkpoint_draws_no_plain_path(self, tmp_path, capsys,
                                                     monkeypatch):
        # price --checkpoint reads the checkpoint before it prices, so a
        # checkpoint it refuses exits before a path of either measure is
        # drawn
        checkpoint = tmp_path / "checkpoint.json"
        save_checkpoint(init_net(2, 2, np.random.default_rng(0)), checkpoint)
        heston = write_config(tmp_path, overrides={
            **SMALL_SAMPLE, "model": {"tag": "heston", "n": 3}})

        def no_estimate(*args, **kwargs):
            raise AssertionError("an estimate was drawn")
        monkeypatch.setattr(pipeline, "estimate_plain", no_estimate)
        monkeypatch.setattr(pipeline, "estimate_is", no_estimate)
        assert main(["price", "--config", str(heston), "--checkpoint",
                     str(checkpoint)]) == 2
        assert "has drift output width 2" in capsys.readouterr().err

    def test_price_with_checkpoint_builds_one_scenario(self, tmp_path,
                                                       monkeypatch):
        # the plain and the importance-sampled estimate of the row are
        # priced from one scenario
        checkpoint = tmp_path / "checkpoint.json"
        save_checkpoint(init_net(2, 2, np.random.default_rng(0)), checkpoint)
        cfg = write_config(tmp_path, overrides=SMALL_SAMPLE)
        built = []

        def counted(*args):
            built.append(args)
            return Scenario(*args)
        monkeypatch.setattr(config, "Scenario", counted)
        assert main(["price", "--config", str(cfg), "--checkpoint",
                     str(checkpoint), "--out", str(tmp_path / "row.json")]) == 0
        assert len(built) == 1

    def test_all_zero_reports_compare(self, tmp_path, capsys):
        # a payoff no path reaches: the row's two all-zero estimates keep an
        # infinite se_pct, and their VR is the flagged 1.0, not a reduction
        cfg = write_config(tmp_path, overrides={
            **SMALL_SAMPLE, "payoff": {"moneyness": 100.0}})
        out_dir = tmp_path / "artifacts"
        assert main(["train", "--config", str(cfg), "--out-dir",
                     str(out_dir)]) == 0
        capsys.readouterr()
        assert main(["price", "--config", str(cfg), "--checkpoint",
                     str(out_dir / "checkpoint.json")]) == 0
        row = json.loads(capsys.readouterr().out)
        for report in (row["plain"], row["importance"]):
            assert (report["mean_cents"], report["se_pct"]) == (
                0.0, float("inf"))
        assert row["vr"] == 1.0

    def test_model_seed_does_not_split_a_scenario(self, tmp_path):
        # with explicit params, model.seed chooses nothing, so configs that
        # differ only in it price one scenario under one label
        configs = [write_config(tmp_path, {
            **SMALL_SAMPLE, "model": {"seed": seed, "params": TWO_ASSETS}},
            f"seed-{seed}.json") for seed in (0, 5)]
        out_dir = tmp_path / "train"
        assert main(["train", "--config", str(configs[1]), "--out-dir",
                     str(out_dir)]) == 0
        mc_file, row_file = tmp_path / "mc.json", tmp_path / "row.json"
        assert main(["price", "--config", str(configs[0]), "--out",
                     str(mc_file)]) == 0
        assert main(["price", "--config", str(configs[1]), "--checkpoint",
                     str(out_dir / "checkpoint.json"), "--out",
                     str(row_file)]) == 0
        report = json.loads(mc_file.read_text())
        row = json.loads(row_file.read_text())
        labels = {report["label"], row["plain"]["label"],
                  row["importance"]["label"]}
        assert len(labels) == 1
        assert report == row["plain"]


@pytest.mark.parametrize("content", [None, "{ not json", "[1, 2]",
                                     "[" * 100_000],
                         ids=["missing", "not-json", "not-object", "too-deep"])
@pytest.mark.parametrize("kind", ["config", "checkpoint"])
def test_unreadable_input_file_is_named(tmp_path, capsys, kind, content):
    # every input file is read by one reader, and each of its refusals
    # exits 2 naming the file
    bad = tmp_path / f"bad-{kind}.json"
    if content is not None:
        bad.write_text(content)
    cfg = str(write_config(tmp_path, overrides=SMALL_SAMPLE))
    argv = {"config": ["validate", "--config", str(bad)],
            "checkpoint": ["price", "--config", cfg,
                           "--checkpoint", str(bad)]}[kind]
    assert main(argv) == 2
    assert str(bad) in capsys.readouterr().err


@pytest.mark.parametrize("command", ["price", "run"])
def test_unwritable_output_is_no_config_error(tmp_path, capsys, command):
    # the config is fine, only the output path is not: a missing directory
    # for price's report, a file in the way of run's directory
    cfg = str(write_config(tmp_path, overrides=SMALL_SAMPLE))
    in_the_way = tmp_path / "file"
    in_the_way.write_text("")
    argv = {"price": ["price", "--out", str(tmp_path / "missing" / "x")],
            "run": ["run", "--out-dir", str(in_the_way / "out")]}[command]
    assert main(argv + ["--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "config error" not in err


@pytest.mark.parametrize("argv, removed", [
    (["sample-params", "--config", "{config}"], "sample-params"),
    (["price", "--config", "{config}", "--format", "csv"], "--format"),
    (["price-is", "--config", "{config}", "--checkpoint", "{tmp}/c"],
     "price-is"),
    (["price", "--config", "{config}", "--n", "16"], "--n"),
    (["price", "--config", "{config}", "--seed", "1"], "--seed"),
    (["--verbose", "validate", "--config", "{config}"], "--verbose"),
    (["compare", "--mc-report", "{tmp}/mc.json", "--is-report",
      "{tmp}/is.json"], "compare"),
    (["run", "--config", "{config}", "--out-dir", "{tmp}/out", "--seed", "1"],
     "--seed"),
    (["run", "--config", "{config}", "--out-dir", "{tmp}/out", "--dry-run"],
     "--dry-run"),
], ids=["sample-params", "price-format", "price-is", "price-n", "price-seed",
        "verbose", "compare", "run-seed", "run-dry-run"])
def test_removed_option_exits_from_argparse(tmp_path, capsys, argv, removed):
    # the config file sets a run, validate prints it resolved, price
    # --checkpoint writes a comparison row, reports are JSON, and
    # reports.json and timings.json hold what a log line would
    config = write_config(tmp_path)
    with pytest.raises(SystemExit) as exit_info:
        main([arg.format(config=config, tmp=tmp_path) for arg in argv])
    assert exit_info.value.code == 2
    assert removed in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("threads", ["0", "-3"])
@pytest.mark.parametrize("command",
                         ["price", "price-checkpoint", "train", "run"])
def test_non_positive_threads_exit_config(tmp_path, capsys, command, threads):
    argv = {"price": ["price"],
            "price-checkpoint": ["price", "--checkpoint", str(tmp_path / "c")],
            "train": ["train", "--out-dir", str(tmp_path / "out")],
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
        assert run_artifacts(out_dir) == RUN_ARTIFACTS
        # the trace is the fields of TrainTrace, one entry a step
        trace = json.loads((out_dir / "training_trace.json").read_text())
        assert sorted(trace) == ["h_norm_sq", "halted_reason", "informative",
                                 "v_hat"]
        assert len(trace["v_hat"]) == len(trace["h_norm_sq"]) == 5
        assert [type(i) for i in trace["informative"]] == [bool] * 5
        assert trace["halted_reason"] is None
        # each estimate is stated once, in the row that compares it
        reports = json.loads((out_dir / "reports.json").read_text())
        assert list(reports) == ["comparison"]
        rows = reports["comparison"]
        assert [(row["plain"]["n"], row["plain"]["seed"],
                 row["importance"]["n"], row["importance"]["seed"])
                for row in rows] == [(400, 7, 400, 8), (800, 9, 800, 10)]
        assert {row["plain"]["measure"] for row in rows} == {"P"}
        assert {row["importance"]["measure"] for row in rows} == {"P_h"}
        # timings.json holds only wall times, row by row as reports.json
        timings = json.loads((out_dir / "timings.json").read_text())
        assert sorted(timings) == ["comparison", "training_seconds"]
        assert timings["training_seconds"] > 0.0
        assert len(timings["comparison"]) == len(rows)
        for walls in timings["comparison"]:
            assert sorted(walls) == ["importance", "plain"]
            assert walls["plain"] > 0.0 and walls["importance"] > 0.0

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

    def test_train_thread_count_does_not_change_artifacts(self, tmp_path):
        # batches drawn ahead on three threads train the net of one
        cfg = write_config(tmp_path)
        for threads in ("1", "3"):
            assert main(["train", "--config", str(cfg), "--out-dir",
                         str(tmp_path / threads), "--threads", threads]) == 0
        for name in TRAIN_ARTIFACTS:
            assert ((tmp_path / "1" / name).read_bytes()
                    == (tmp_path / "3" / name).read_bytes())

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
        })
        out_dir = tmp_path / "fail"
        assert main(["run", "--config", str(cfg), "--out-dir",
                     str(out_dir)]) == 2
        assert run_artifacts(out_dir) == ["error.json"]
        error = json.loads((out_dir / "error.json").read_text())
        assert error["stage"] == "resolve"
        assert error["error"] == "ModelValidationError"

    @pytest.mark.parametrize("overrides, field", [
        ({"estimation": {"sample_sizes": [400, 1e17]}},
         "estimation.sample_sizes[1] 1e+17"),
        ({"grid": {"dt": 1e-17}}, "grid.dt 1e-17"),
        ({"training": {"batch_size": 1e15}},
         "training.batch_size 1000000000000000"),
        ({"training": {"hidden_width": 1e15}},
         "training.hidden_width 1000000000000000"),
    ], ids=["sample-size", "dt", "batch-size", "hidden-width"])
    def test_array_too_large_to_allocate_exits_2(self, tmp_path, capsys,
                                                  overrides, field):
        # 10^15 doubles or more are beyond any address space, so the
        # allocation fails at once and touches nothing; resolve refuses the
        # field that asks for the array, a sample size, the grid, a
        # training batch or the net's output weights, so every command
        # names the config file and the field, and run fails at resolve
        cfg = write_config(tmp_path, overrides=overrides)
        out_dir = tmp_path / "out"
        for argv in (["validate"], ["price", "--out", str(out_dir)],
                     ["run", "--out-dir", str(out_dir)]):
            assert main([*argv, "--config", str(cfg)]) == 2
            assert capsys.readouterr().err.startswith(
                f"config error: config {cfg}: {field} needs an array too "
                "large to allocate: Unable to allocate")
            if argv[0] != "run":
                assert not out_dir.exists()
        error = json.loads((out_dir / "error.json").read_text())
        assert (error["stage"], error["error"]) == ("resolve", "ConfigError")

    @pytest.mark.parametrize("command", ["price", "run"])
    def test_non_finite_estimate_exits_numerical(self, tmp_path, capsys,
                                                 command):
        # a finite config whose estimate is not finite: no report holds an
        # infinity, and run names the stage that failed
        cfg = tmp_path / "huge.json"
        cfg.write_text(json.dumps({
            "model": {"tag": "black_scholes", "n": 1,
                      "params": {"sigma": [[0.2]], "s0": [1e200]}},
            "payoff": {"moneyness": 0.5}, "grid": {"dt": 0.1},
            "estimation": {"sample_sizes": [500]}}))
        out = tmp_path / "out"
        target = ["--out", str(out)] if command == "price" else [
            "--out-dir", str(out)]
        assert main([command, "--config", str(cfg), *target]) == 3
        err = capsys.readouterr().err
        assert "is not finite" in err and "RuntimeWarning" not in err
        if command == "price":
            assert not out.exists()
        else:
            error = json.loads((out / "error.json").read_text())
            assert (error["stage"], error["error"]) == ("plain",
                                                        "NonFiniteError")

    def test_reused_out_dir_keeps_no_stale_artifact(self, tmp_path):
        # a run first removes what an earlier run wrote there: the error
        # file of a failure, the reports of a success
        good = write_config(tmp_path)
        bad = write_config(tmp_path, overrides={"model": {"n": 2.9}},
                           name="bad.json")
        out_dir = tmp_path / "out"
        for cfg, code, artifacts in ((bad, 2, ["error.json"]),
                                     (good, 0, RUN_ARTIFACTS),
                                     (bad, 2, ["error.json"])):
            assert main(["run", "--config", str(cfg), "--out-dir",
                         str(out_dir)]) == code
            assert run_artifacts(out_dir) == artifacts

    @pytest.mark.parametrize("content", [None, "{ not json"],
                             ids=["missing", "not-json"])
    def test_unreadable_config_keeps_no_stale_artifact(self, tmp_path,
                                                       capsys, content):
        # a config that cannot be read still clears the earlier run's
        # artifacts, as train does, so none of them reads as its result
        out_dir = tmp_path / "out"
        assert main(["run", "--config", str(write_config(tmp_path)),
                     "--out-dir", str(out_dir)]) == 0
        bad = tmp_path / "bad.json"
        if content is not None:
            bad.write_text(content)
        assert main(["run", "--config", str(bad), "--out-dir",
                     str(out_dir)]) == 2
        assert str(bad) in capsys.readouterr().err
        assert run_artifacts(out_dir) == []

    @pytest.mark.parametrize("command, code", [("run", 0), ("train", 3)])
    def test_training_halt_is_recorded(self, tmp_path, nan_objective_from,
                                       command, code):
        # training halts at step 2; run prices with the net of steps 0 and
        # 1, train exits as a numerical failure, and both keep the
        # checkpoint and a trace that says why training stopped
        nan_objective_from(2)
        out_dir = tmp_path / "out"
        assert main([command, "--config", str(write_config(tmp_path)),
                     "--out-dir", str(out_dir)]) == code
        assert (out_dir / "checkpoint.json").exists()
        trace = json.loads((out_dir / "training_trace.json").read_text())
        assert trace["halted_reason"] == ("non-finite objective or gradient "
                                          "at step 2")
        assert len(trace["v_hat"]) == len(trace["informative"]) == 2

    @pytest.mark.parametrize("command, code", [("run", 0), ("train", 3)])
    def test_weight_overflow_halts_training(self, tmp_path, capsys, command,
                                            code):
        # at learning rate 1e3 step 1 overflows a log-weight: training
        # halts with the net of step 0, which run prices (its VR is NaN,
        # since every weight underflows) and train reports as a numerical
        # failure, and both keep the checkpoint and the trace
        cfg = write_config(tmp_path,
                           overrides={"training": {"learning_rate": 1e3}})
        out_dir = tmp_path / "out"
        assert main([command, "--config", str(cfg), "--out-dir",
                     str(out_dir)]) == code
        assert (out_dir / "checkpoint.json").exists()
        trace = json.loads((out_dir / "training_trace.json").read_text())
        assert "log weight reached" in trace["halted_reason"]
        assert trace["halted_reason"].endswith(" at step 1")
        assert len(trace["v_hat"]) == 1
        if command == "run":
            assert run_artifacts(out_dir) == RUN_ARTIFACTS
        else:
            assert trace["halted_reason"] in capsys.readouterr().err

    def test_halted_run_logs_the_halt_once(self, tmp_path, caplog,
                                          nan_objective_from):
        # the trace records the halt; stderr gets one line about it
        nan_objective_from(2)
        assert main(["run", "--config", str(write_config(tmp_path)),
                     "--out-dir", str(tmp_path / "out")]) == 0
        halts = [r for r in caplog.records if "at step 2" in r.getMessage()]
        assert [(r.name, r.levelname) for r in halts] == [
            ("driftmc.pipeline", "WARNING")]

    def test_train_into_reused_out_dir_keeps_no_stale_artifact(self,
                                                               tmp_path):
        # a refused config leaves no checkpoint of an earlier train behind
        # for price --checkpoint to pick up
        out_dir = tmp_path / "out"
        assert main(["train", "--config", str(write_config(tmp_path)),
                     "--out-dir", str(out_dir)]) == 0
        bad = write_config(tmp_path, overrides={"payoff": {"moneyness": -1}},
                           name="bad.json")
        assert main(["train", "--config", str(bad), "--out-dir",
                     str(out_dir)]) == 2
        assert run_artifacts(out_dir) == []

    @pytest.mark.parametrize("field, value", [
        ("epochs", -1),
        ("steps_per_epoch", -5),
        ("learning_rate", -0.01),
        ("learning_rate", float("nan")),
        ("batch_size", 1),
        ("batch_size", None),
        ("steps_per_epoch", 2.5),
        ("seed", -1),
        ("hidden_width", 0),
        ("activation", "relu"),
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
        ({"payoff": {"barrier_moneyness": [0.7]}},
         "payoff.barrier_moneyness"),
        ({"model": {"params": dict(TWO_ASSETS, mu=[0.05, 0.05])}},
         "model.params.mu"),
        ({"model": {"params": {"s0": [1.0, 1.0]}}}, "model.params.sigma"),
        ({"model": {"n": 3, "params": TWO_ASSETS}},
         "model.params.s0 must be a list of 3 numbers"),
        ({"model": {"params": dict(TWO_ASSETS, sigma=[[0.2, 0.0], [0.1]])}},
         "model.params.sigma"),
        ({"model": {"params": dict(TWO_ASSETS, s0=[1.0, "one"])}},
         "model.params.s0"),
        ({"model": {"params": dict(TWO_ASSETS, s0=[[1.0, 1.0]])}},
         "model.params.s0"),
        ({"model": {"rate": True}}, "model.rate"),
        ({"grid": {"dt": True}}, "grid.dt"),
        ({"model": {"n": True}}, "model.n"),
        ({"estimation": {"sample_sizes": [True]}},
         "estimation.sample_sizes"),
        ({"payoff": {"barrier_moneyness": 0}}, "payoff.barrier_moneyness"),
        ({"payoff": {"barrier_moneyness": []}}, "payoff.barrier_moneyness"),
        ({"payoff": {"barrier_moneyness": False}},
         "payoff.barrier_moneyness"),
        ({"estimation": {"sample_sizes": [0]}}, "estimation.sample_sizes"),
        ({"estimation": {"sample_sizes": [-5]}}, "estimation.sample_sizes"),
        ({"payoff": {"moneyness": -1.0}}, "payoff.moneyness"),
        ({"payoff": {"moneyness": 0}}, "payoff.moneyness"),
        ({"payoff": {"barrier_moneyness": [1.6, 0.7]}},
         "payoff.barrier_moneyness needs lower < upper barrier"),
        ({"model": {"rate": 800}}, "model.rate * grid.horizon"),
        ({"model": {"rate": -800}}, "model.rate * grid.horizon"),
        ({"grid": {"horizon": 1e6, "dt": 1}}, "model.rate * grid.horizon"),
        ({"grid": {"horizon": 1e308}}, "grid.dt must divide grid.horizon"),
        ({"model": {"rate": 10**400}}, "model.rate"),
        ({"model": {"n": 10**400}}, "model.n"),
        ({"estimation": {"sample_sizes": [10**400]}},
         "estimation.sample_sizes[0]"),
        ({"model": {"params": dict(TWO_ASSETS, s0=[True, 1.0])}},
         "model.params.s0[0]"),
        ({"model": {"tag": "heston", "params": dict(TWO_ASSETS, v0=[True])}},
         "model.params.v0[0]"),
        ({"model": {"params": dict(TWO_ASSETS, s0=[math.nan, 1.0])}},
         "model.params.s0[0]"),
        ({"model": {"params": dict(TWO_ASSETS, sigma=[[0.2, math.inf],
                                                      [0.0, 0.2]])}},
         "model.params.sigma[0][1]"),
        ({"model": {"n": 1, "params": {"sigma": [[0.2, 0.1]], "s0": [1.0]}}},
         "model.params.sigma[0]"),
        ({"model": {"tag": []}}, "model.tag must be 'black_scholes' or"),
        ({"model": {"n": 0}}, "model.n must be an integer of at least 1"),
        ({"model": {"tag": "garch"}},
         "model.tag must be 'black_scholes' or 'heston' or 'three_halves' or "
         "'stein_stein', got 'garch'"),
        ({"estimate": {}}, "unknown config field 'estimate'"),
        ({"training": {"lr": 0.1}}, "unknown config field 'training.lr'"),
        ({"payoff": {"strike": 1.0}}, "unknown config field 'payoff.strike'"),
        ({"payoff": {"barriers": [0.7, 1.6]}},
         "unknown config field 'payoff.barriers'"),
        ({"payoff": {"weights": [0.5, 0.5]}},
         "unknown config field 'payoff.weights'"),
        ({"model": {"params": TWO_ASSETS}, "payoff": {"moneyness": 1.75e308}},
         "payoff.moneyness"),
        ({"model": {"n": 1, "params": {"sigma": [[0.2]], "s0": [1.5]}},
          "payoff": {"barrier_moneyness": [1.7e308, 1.75e308]}},
         "payoff.barrier_moneyness"),
    ], ids=["n-fraction", "n-null", "model-seed", "rate-string",
            "moneyness-string", "estimation-seed", "block-size",
            "sample-size", "hidden-width", "activation",
            "barrier-moneyness", "params-mu",
            "params-no-sigma", "params-width", "params-ragged-sigma",
            "params-s0-string", "params-s0-nested",
            "rate-bool", "dt-bool", "n-bool", "sample-size-bool",
            "barrier-moneyness-zero", "barrier-moneyness-empty",
            "barrier-moneyness-false", "sample-size-zero",
            "sample-size-negative",
            "moneyness-negative", "moneyness-zero",
            "barrier-moneyness-reversed", "rate-overflow", "rate-underflow",
            "horizon-overflow", "step-count-overflow", "rate-huge-int",
            "n-huge-int", "sample-size-huge-int", "params-s0-bool",
            "params-v0-bool", "params-s0-nan", "params-sigma-inf",
            "params-sigma-not-square", "tag-list", "n-zero", "tag-unknown",
            "unknown-field", "unknown-block-field", "payoff-strike",
            "payoff-barriers", "payoff-weights", "strike-overflow",
            "barriers-overflow"])
    def test_bad_value_fails_at_resolve(self, tmp_path, capsys, overrides,
                                        named):
        # refused before anything is written, naming the config file and
        # the field, where the value was once truncated, ignored or crashed
        # mid-run; validate and train refuse what run refuses
        cfg = write_config(tmp_path, overrides=overrides)
        assert main(["validate", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert named in err and f"config {cfg}: " in err
        out_dir = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out-dir",
                     str(out_dir)]) == 2
        err = capsys.readouterr().err
        assert named in err and f"config {cfg}: " in err
        assert run_artifacts(out_dir) == ["error.json"]
        error = json.loads((out_dir / "error.json").read_text())
        assert error["stage"] == "resolve"
        assert error["error"] == "ConfigError"
        train_dir = tmp_path / "train"
        assert main(["train", "--config", str(cfg), "--out-dir",
                     str(train_dir)]) == 2
        err = capsys.readouterr().err
        assert named in err and f"config {cfg}: " in err
        assert not (train_dir / "resolved_config.json").exists()

    def test_zero_sigma_row_fails_at_resolve(self, tmp_path, capsys):
        # the model spec refuses a zero row of sigma before the basket
        # weights or the covariation see it, so validate and run exit 2
        cfg = write_config(tmp_path, overrides={"model": {"params": dict(
            TWO_ASSETS, sigma=[[0.2, 0.0], [0.0, 0.0]])}})
        assert main(["validate", "--config", str(cfg)]) == 2
        assert "sigma[1]: zero row" in capsys.readouterr().err
        out_dir = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out-dir",
                     str(out_dir)]) == 2
        assert "sigma[1]: zero row" in capsys.readouterr().err
        error = json.loads((out_dir / "error.json").read_text())
        assert (error["stage"], error["error"]) == ("resolve",
                                                    "ModelValidationError")

    def test_zero_rate_runs_with_inverse_norm_weights(self, tmp_path):
        # the weights are 1 / |sigma row k| normalized, whatever the rate,
        # and at rate 0 the strike is the moneyness times the basket value
        cfg = write_config(tmp_path, overrides={"model": {"rate": 0.0}})
        assert main(["validate", "--config", str(cfg)]) == 0
        out_dir = tmp_path / "zero_rate"
        assert main(["run", "--config", str(cfg), "--out-dir",
                     str(out_dir)]) == 0
        resolved = json.loads((out_dir / "resolved_config.json").read_text())
        assert resolved["payoff"] == {"moneyness": 1.05,
                                      "barrier_moneyness": None}
        params = resolved["model"]["params"]
        inverse = 1.0 / np.linalg.norm(params["sigma"], axis=1)
        payoff = build_payoff(resolved)
        np.testing.assert_allclose(payoff.weights, inverse / inverse.sum(),
                                   rtol=1e-15)
        assert payoff.strike == 1.05 * float(np.dot(payoff.weights,
                                                    params["s0"]))
        assert run_artifacts(out_dir) == RUN_ARTIFACTS
