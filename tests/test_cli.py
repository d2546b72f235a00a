import json
import math
import os
from pathlib import Path

import numpy as np
import pytest

from powernet import cli
from powernet.cli import main
from powernet.dataio import dataset_to_json, json_text
from powernet.synth import make_aligned_dataset
from powernet.training import TrainingError


FAST = ["--splits", "96:48:48", "--window-len", "6", "--memory-size", "4",
        "--max-epochs", "2", "--patience", "2"]


@pytest.fixture(scope="module")
def dataset_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "dataset.json"
    path.write_text(dataset_to_json(make_aligned_dataset(days=10, seed=0)))
    return str(path)


@pytest.fixture(scope="module")
def checkpoint_dir(tmp_path_factory, dataset_path):
    out = tmp_path_factory.mktemp("ckpt")
    rc = main(["train", "--dataset", dataset_path, "--out", str(out),
               "--seed", "0"] + FAST)
    assert rc == 0
    return out


@pytest.fixture(scope="module")
def gbt_checkpoint(tmp_path_factory, dataset_path):
    out = tmp_path_factory.mktemp("gbt")
    assert main(["train", "--dataset", dataset_path, "--model", "gbt",
                 "--out", str(out), "--splits", "96:48:48",
                 "--window-len", "6"]) == 0
    return json.loads((out / "checkpoint.json").read_text())


#: (command, key, value): a checkpoint whose split list or feature spec
#: entry ``key`` is ``value``, or a dataset whose ``key`` (its sixth entry,
#: for a list) becomes ``value(old)``, is a usage error; forecasting reads
#: no splits
MALFORMED_INPUTS = (
    [("evaluate", "splits", [[0, 1]]),
     ("evaluate", "splits", [[0, 96], [96, "144"], [144, 192]])]
    + [(command, key, value) for key, value in [
        ("weather_mean", [0.0] * 5),
        ("weather_std", [None] * 11),
        ("window_len", -3),
        ("window_len", "6"),
        ("summary_vocab", ["Clear"]),
        ("icon_vocab", {"rain": "x"}),
        ("cons_mean", "x"),
        ("utc_offset_hours", "x"),
        ("daytime_range", [7])] for command in ("evaluate", "forecast")]
    + [("forecast", "utc_offset_hours", 1e308),
       ("evaluate", "kw", lambda old: "0.43"),
       ("evaluate", "hours", lambda old: old + 0.7),
       pytest.param("evaluate", "kw", lambda old: True, id="evaluate-kw-bool"),
       pytest.param("evaluate", "hours", lambda old: True,
                    id="evaluate-hours-bool"),
       ("evaluate", "summary", lambda old: 1),
       ("evaluate", "dropped_hours", lambda old: "x")])


def assert_usage_error(rc, capsys):
    """Exit 2 with a one-line ``error:`` message, no traceback and nothing
    on stdout."""
    out, err = capsys.readouterr()
    assert rc == 2
    assert err.startswith("error:") and err.count("\n") == 1, err
    assert out == ""
    return err


def same_outputs(a, b):
    """True when directories ``a`` and ``b`` hold the same files, byte for byte."""
    names = sorted(os.listdir(a))
    return names == sorted(os.listdir(b)) and all(
        (a / name).read_bytes() == (b / name).read_bytes() for name in names)


class TestSynthIngest:
    def test_non_finite_readings_are_malformed(self, tmp_path):
        fx = tmp_path / "fx"
        assert main(["synth", "--out", str(fx), "--days", "3",
                     "--apartments", "1", "--seed", "1"]) == 0
        lines = (fx / "Apt1.csv").read_text().splitlines()
        # three 1e308 readings in a row: two share an hour, whose sum overflows
        for i, token in ((5, "inf"), (40, "-inf"), (90, "nan"), (120, "1e308"),
                         (121, "1e308"), (122, "1e308")):
            lines[i] = lines[i].split(",")[0] + "," + token
        (fx / "Apt1.csv").write_text("\n".join(lines) + "\n")
        out = tmp_path / "ingested"
        assert main(["ingest", "--consumption", str(fx / "Apt1.csv"),
                     "--weather", str(fx / "weather.csv"), "--out", str(out)]) == 0
        text = (out / "dataset.json").read_text()
        assert "Infinity" not in text and "NaN" not in text
        report = json.loads((out / "ingest_report.json").read_text())
        assert report["rows_malformed"] == 6

    def ingest_edited_weather(self, tmp_path, capsys, edit):
        """The usage error of ingesting a 3-day synth fixture after
        ``edit`` changed the cell lists of its weather.csv rows in place."""
        fx = tmp_path / "fx"
        assert main(["synth", "--out", str(fx), "--days", "3",
                     "--apartments", "1", "--seed", "1"]) == 0
        rows = [line.split(",") for line in (fx / "weather.csv").read_text().splitlines()]
        edit(rows)
        (fx / "weather.csv").write_text("".join(",".join(r) + "\n" for r in rows))
        capsys.readouterr()
        rc = main(["ingest", "--consumption", str(fx / "Apt1.csv"),
                   "--weather", str(fx / "weather.csv"),
                   "--out", str(tmp_path / "out")])
        return assert_usage_error(rc, capsys)

    @pytest.mark.parametrize("token", ["garbage", "nan", "inf"])
    def test_junk_weather_time_is_usage_error(self, tmp_path, capsys, token):
        def edit(rows):
            rows[7][0] = token
        err = self.ingest_edited_weather(tmp_path, capsys, edit)
        assert "weather.csv" in err and "row 8" in err and token in err

    def test_short_weather_row_without_its_time_is_usage_error(self, tmp_path, capsys):
        def edit(rows):   # time moves to the last column; row 8 keeps 3 cells
            rows[:] = [r[1:] + r[:1] for r in rows]
            del rows[7][3:]
        err = self.ingest_edited_weather(tmp_path, capsys, edit)
        assert "weather.csv" in err and "row 8: bad time ''" in err

    def test_repeated_weather_hour_is_usage_error(self, tmp_path, capsys):
        def edit(rows):
            rows[9][0] = rows[7][0]
        err = self.ingest_edited_weather(tmp_path, capsys, edit)
        assert err == (f"error: {tmp_path / 'fx' / 'weather.csv'}: row 10: time "
                       f"'2016-04-01T06:00:00' repeats row 8\n")

    def test_consumption_without_a_parseable_row_is_usage_error(self, tmp_path,
                                                                capsys):
        fx = tmp_path / "fx"
        assert main(["synth", "--out", str(fx), "--days", "2",
                     "--apartments", "1"]) == 0
        (fx / "Apt1.csv").write_text("timestamp,power_kW\nsoon,1.5\n")
        capsys.readouterr()
        rc = main(["ingest", "--consumption", str(fx / "Apt1.csv"),
                   "--weather", str(fx / "weather.csv"),
                   "--out", str(tmp_path / "out")])
        assert (assert_usage_error(rc, capsys)
                == f"error: {fx / 'Apt1.csv'}: no parseable rows\n")

    def test_hourly_consumption(self, tmp_path):
        # the readings on the hour of a quarter-hour fixture, read as hourly
        fx = tmp_path / "fx"
        assert main(["synth", "--out", str(fx), "--days", "3",
                     "--apartments", "1", "--seed", "1"]) == 0
        lines = (fx / "Apt1.csv").read_text().splitlines()[::4]
        (fx / "hourly.csv").write_text("\n".join(lines) + "\n")
        out = tmp_path / "ingested"
        assert main(["ingest", "--consumption", str(fx / "hourly.csv"),
                     "--format", "hourly", "--weather", str(fx / "weather.csv"),
                     "--out", str(out)]) == 0
        doc = json.loads((out / "dataset.json").read_text())
        assert doc["kw"] == [float(line.split(",")[1]) for line in lines]

    @pytest.mark.parametrize("name, cell", [("Apt1.csv", 1),
                                            ("weather.csv", 3)])
    def test_oversized_csv_field_is_usage_error(self, tmp_path, capsys,
                                                name, cell):
        # the csv module refuses a field over 131072 characters
        fx = tmp_path / "fx"
        assert main(["synth", "--out", str(fx), "--days", "3",
                     "--apartments", "1", "--seed", "1"]) == 0
        lines = (fx / name).read_text().splitlines()
        cells = lines[5].split(",")
        cells[cell] = "1" * 200000
        lines[5] = ",".join(cells)
        (fx / name).write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        rc = main(["ingest", "--consumption", str(fx / "Apt1.csv"),
                   "--weather", str(fx / "weather.csv"),
                   "--out", str(tmp_path / "out")])
        err = assert_usage_error(rc, capsys)
        assert name in err and "line 6" in err and "field limit" in err

    def test_non_finite_weather_cells_are_missing(self, tmp_path):
        fx = tmp_path / "fx"
        assert main(["synth", "--out", str(fx), "--days", "3",
                     "--apartments", "1", "--seed", "1"]) == 0
        lines = (fx / "weather.csv").read_text().splitlines()
        for i, token in ((5, "inf"), (9, "-inf"), (13, "1e308")):
            cells = lines[i].split(",")
            cells[3] = token   # temperature
            lines[i] = ",".join(cells)
        (fx / "weather.csv").write_text("\n".join(lines) + "\n")
        out = tmp_path / "ingested"
        assert main(["ingest", "--consumption", str(fx / "Apt1.csv"),
                     "--weather", str(fx / "weather.csv"), "--out", str(out)]) == 0
        text = (out / "dataset.json").read_text()
        assert "Infinity" not in text and "NaN" not in text
        doc = json.loads(text)
        temperatures = [row[0] for row in doc["numeric"]]
        assert temperatures.count(None) == 3

    def test_short_weather_row_is_missing_data(self, tmp_path):
        fx = tmp_path / "fx"
        assert main(["synth", "--out", str(fx), "--days", "3",
                     "--apartments", "1", "--seed", "1"]) == 0
        lines = (fx / "weather.csv").read_text().splitlines()
        lines[7] = lines[7].split(",")[0]   # only the time cell is left
        (fx / "weather.csv").write_text("\n".join(lines) + "\n")
        out = tmp_path / "ingested"
        assert main(["ingest", "--consumption", str(fx / "Apt1.csv"),
                     "--weather", str(fx / "weather.csv"), "--out", str(out)]) == 0
        doc = json.loads((out / "dataset.json").read_text())
        assert doc["summary"][6] == "" and doc["icon"][6] == ""
        assert doc["numeric"][6] == [None] * 11
        assert doc["summary"][5] != ""

    def test_remaining_gaps_counts_unfilled_hours(self, tmp_path):
        fx = tmp_path / "fx"
        assert main(["synth", "--out", str(fx), "--days", "3",
                     "--apartments", "1", "--seed", "1"]) == 0
        lines = (fx / "Apt1.csv").read_text().splitlines()
        # quarter-hour readings: hours 10-14 (5 h) and hour 30 (1 h) go missing
        del lines[120:124]
        del lines[40:60]
        (fx / "Apt1.csv").write_text("\n".join(lines) + "\n")
        reports = {}
        for run in (2, 5):
            out = tmp_path / f"run{run}"
            assert main(["ingest", "--consumption", str(fx / "Apt1.csv"),
                         "--weather", str(fx / "weather.csv"), "--out", str(out),
                         "--fill-max-run", str(run)]) == 0
            reports[run] = json.loads((out / "ingest_report.json").read_text())
        assert reports[2]["remaining_gaps"] == 5
        assert reports[2]["aligned_hours"] == 72 - 5
        assert reports[5]["remaining_gaps"] == 0
        assert reports[5]["aligned_hours"] == 72

    def test_full_pipeline(self, tmp_path):
        fx = tmp_path / "fx"
        assert main(["synth", "--out", str(fx), "--days", "3",
                     "--apartments", "2", "--seed", "1"]) == 0
        out = tmp_path / "ingested"
        rc = main(["ingest",
                   "--consumption", str(fx / "Apt1.csv"), str(fx / "Apt2.csv"),
                   "--weather", str(fx / "weather.csv"),
                   "--aggregate", "--out", str(out)])
        assert rc == 0
        doc = json.loads((out / "dataset.json").read_text())
        assert len(doc["hours"]) == 72
        report = json.loads((out / "ingest_report.json").read_text())
        assert report["aligned_hours"] == 72
        assert report["rows_malformed"] == 0
        assert report["rows_duplicate"] == report["rows_off_grid"] == 0

    def test_missing_input_is_usage_error(self, tmp_path, capsys):
        rc = main(["ingest", "--consumption", "nope.csv",
                   "--weather", "nope2.csv", "--out", str(tmp_path)])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_multiple_files_require_aggregate(self, tmp_path, capsys, monkeypatch):
        fx = tmp_path / "fx"
        main(["synth", "--out", str(fx), "--days", "2", "--apartments", "2"])
        from powernet import dataio
        read = []
        monkeypatch.setattr(dataio, "read_text", lambda *args: read.append(args))
        capsys.readouterr()
        rc = main(["ingest",
                   "--consumption", str(fx / "Apt1.csv"), str(fx / "Apt2.csv"),
                   "--weather", str(fx / "weather.csv"), "--out", str(tmp_path)])
        assert "require --aggregate" in assert_usage_error(rc, capsys)
        assert read == []   # checked before any file is read

    @pytest.mark.parametrize("kind", ["consumption", "weather"])
    def test_undecodable_csv_is_usage_error(self, tmp_path, capsys, kind):
        fx = tmp_path / "fx"
        assert main(["synth", "--out", str(fx), "--days", "2",
                     "--apartments", "1"]) == 0
        paths = {"consumption": fx / "Apt1.csv", "weather": fx / "weather.csv"}
        paths[kind].write_bytes(b"\xff\xfe\x00bad")
        capsys.readouterr()
        rc = main(["ingest", "--consumption", str(paths["consumption"]),
                   "--weather", str(paths["weather"]),
                   "--out", str(tmp_path / "out")])
        err = assert_usage_error(rc, capsys)
        assert f"cannot read {kind} CSV" in err

    @pytest.mark.parametrize("argv", [
        ["synth", "--days", "0"],
        ["synth", "--apartments", "0"],
        ["ingest", "--fill-max-run", "-1"],
        ["synth", "--seed", "-1"],
    ], ids=["synth_days", "synth_apartments", "ingest_fill_max_run", "synth_seed"])
    def test_out_of_range_flag_is_usage_error(self, tmp_path, capsys, argv):
        fx = tmp_path / "fx"
        assert main(["synth", "--out", str(fx), "--days", "2",
                     "--apartments", "1"]) == 0
        if argv[0] == "ingest":
            argv = argv + ["--consumption", str(fx / "Apt1.csv"),
                           "--weather", str(fx / "weather.csv")]
        capsys.readouterr()
        out = tmp_path / "out"
        rc = main(argv + ["--out", str(out)])
        assert_usage_error(rc, capsys)
        assert not out.exists() or not os.listdir(out)


class TestTrain:
    def test_writes_checkpoint_and_report(self, checkpoint_dir):
        doc = json.loads((checkpoint_dir / "checkpoint.json").read_text())
        assert doc["hyperparameters"]["memory_size"] == 4
        assert "feature_spec" in doc
        assert len(doc["hyperparameters"]["splits"]) == 3
        report = json.loads((checkpoint_dir / "report.json").read_text())
        assert len(report["val_mse"]) <= 2
        lines = (checkpoint_dir / "curves.csv").read_text().splitlines()
        assert lines[0] == "epoch,train_loss,val_mse"
        assert [[float(v) for v in line.split(",")] for line in lines[1:]] == [
            [e, tl, vm] for e, (tl, vm) in
            enumerate(zip(report["train_loss"], report["val_mse"]))]

    def test_deterministic_outputs(self, dataset_path, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert main(["train", "--dataset", dataset_path, "--out", str(out),
                         "--seed", "3"] + FAST) == 0
        assert (a / "checkpoint.json").read_bytes() == (b / "checkpoint.json").read_bytes()
        assert (a / "report.json").read_bytes() == (b / "report.json").read_bytes()

    def test_config_file_with_flag_override(self, dataset_path, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"memory_size": 3, "max_epochs": 1,
                                   "patience": 1, "window_len": 6,
                                   "splits": "96:48:48"}))
        out = tmp_path / "out"
        assert main(["train", "--dataset", dataset_path, "--config", str(cfg),
                     "--out", str(out), "--memory-size", "5"]) == 0
        doc = json.loads((out / "checkpoint.json").read_text())
        assert doc["hyperparameters"]["memory_size"] == 5   # flag wins

    def test_unknown_config_key_rejected(self, dataset_path, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"memry_size": 3}))
        rc = main(["train", "--dataset", dataset_path, "--config", str(cfg),
                   "--out", str(tmp_path)])
        assert rc == 2
        assert "unknown config keys" in capsys.readouterr().err

    def test_gbt_model(self, dataset_path, tmp_path):
        out = tmp_path / "gbt"
        assert main(["train", "--dataset", dataset_path, "--model", "gbt",
                     "--out", str(out), "--splits", "96:48:48",
                     "--window-len", "6"]) == 0
        doc = json.loads((out / "checkpoint.json").read_text())
        assert doc["model_type"] == "gbt"
        assert len(doc["trees"]) == 200

    def test_bad_splits_usage_error(self, dataset_path, tmp_path, capsys):
        rc = main(["train", "--dataset", dataset_path, "--out", str(tmp_path),
                   "--splits", "banana"])
        assert rc == 2

    @pytest.mark.parametrize("splits", ["100:0:10", "0:48:48", "96:48:0"])
    @pytest.mark.parametrize("command", [["train"], ["grid-search"],
                                         ["train", "--model", "gbt"]],
                             ids=["train", "grid_search", "gbt"])
    def test_zero_hour_split_usage_error(self, dataset_path, tmp_path, capsys,
                                         command, splits):
        rc = main(command + ["--dataset", dataset_path, "--out", str(tmp_path),
                             "--splits", splits])
        assert (f"splits: expected TRAIN:VAL:TEST hours, each >= 1, got '{splits}'"
                in assert_usage_error(rc, capsys))

    def test_missing_config_file(self, dataset_path, tmp_path, capsys):
        rc = main(["train", "--dataset", dataset_path, "--out", str(tmp_path),
                   "--config", str(tmp_path / "nope.json")])
        assert "cannot read config" in assert_usage_error(rc, capsys)

    def test_zero_batch_size_rejected(self, dataset_path, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"batch_size": 0}))
        rc = main(["train", "--dataset", dataset_path, "--config", str(cfg),
                   "--out", str(tmp_path)] + FAST)
        assert "batch_size" in assert_usage_error(rc, capsys)

    @pytest.mark.parametrize("flags, config, field", [
        (["--memory-size", "0"], {}, "memory_size"),
        (["--window-len", "0"], {}, "window_len"),
        ([], {"stack": 0}, "stack"),
        (["--learning-rate", "nan"], {}, "learning_rate"),
        (["--learning-rate", "inf"], {}, "learning_rate"),
        (["--l2-lambda", "-1"], {}, "l2_lambda"),
        ([], {"d1": 0}, "d1"),
        ([], {"splits": 5}, "splits: expected TRAIN:VAL:TEST hours, each >= 1, got 5"),
        ([], {"acf_threshold": "x"}, "acf_threshold: expected real in (0, 1), got 'x'"),
        ([], {"max_epochs": 1.5}, "max_epochs: expected int >= 1, got 1.5"),
        ([], {"window_len": True}, "window_len: expected null or int >= 1, got True"),
        ([], {"memory_size": "8"}, "memory_size: expected int >= 1, got '8'"),
        ([], {"memory_size_grid": ["a"]}, "memory_size_grid[0]: expected int >= 1"),
        (["--seed", "-1"], {}, "seed: expected int >= 0, got -1"),
        ([], {"seed": -1}, "seed: expected int >= 0, got -1"),
        (["--model", "gbt", "--seed", "-1"], {}, "seed: expected int >= 0, got -1"),
        (["--learning-rate", "1e308"], {}, "learning_rate: expected real in (0, 1)"),
        ([], {"l2_lambda": 1e308}, "l2_lambda: expected real in [0, 1)"),
        ([], [{"memory_size": 4}], "must be a JSON object"),
        (["--splits", "960:48:48"], {}, "need 1056 rows, have 240"),
    ], ids=["memory_size", "window_len", "stack", "learning_rate_nan",
            "learning_rate_inf", "l2_lambda", "d1", "config_splits_int",
            "config_acf_threshold_text", "config_max_epochs_float",
            "config_window_len_bool", "config_memory_size_text",
            "config_memory_size_grid_text", "seed_flag", "config_seed",
            "gbt_seed_flag", "learning_rate_huge", "l2_lambda_huge",
            "config_list", "dataset_shorter_than_splits"])
    def test_bad_training_setting(self, dataset_path, tmp_path, capsys,
                                  flags, config, field):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        # the config values under test, not FAST's flags, which would win
        fast = [arg for flag, value in zip(FAST[::2], FAST[1::2])
                if flag[2:].replace("-", "_") not in config for arg in (flag, value)]
        out = tmp_path / "out"
        rc = main(["train", "--dataset", dataset_path, "--config", str(cfg),
                   "--out", str(out)] + fast + flags)
        assert field in assert_usage_error(rc, capsys)
        assert not out.exists()

    def test_diverged_training_is_internal_error(self, dataset_path, tmp_path,
                                                 capsys, monkeypatch):
        def diverge(*args):
            raise TrainingError("loss is nan at epoch 0")
        monkeypatch.setattr(cli, "train", diverge)
        out = tmp_path / "out"
        rc = main(["train", "--dataset", dataset_path, "--out", str(out)] + FAST)
        assert rc == 1
        assert capsys.readouterr().err == "error: loss is nan at epoch 0\n"
        assert not out.exists()

    def test_diverged_validation_is_internal_error(self, dataset_path, tmp_path,
                                                   capsys, monkeypatch):
        from powernet import training
        monkeypatch.setattr(training, "_validation_mse", lambda *args: math.nan)
        out = tmp_path / "out"
        rc = main(["train", "--dataset", dataset_path, "--out", str(out)] + FAST)
        assert rc == 1
        assert capsys.readouterr().err == "error: validation diverged at epoch 0\n"
        assert not out.exists()

    def test_flag_and_file_fail_alike(self, dataset_path, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"memory_size": 1.5}))
        base = ["train", "--dataset", dataset_path, "--out", str(tmp_path / "out")]
        flag = assert_usage_error(main(base + ["--memory-size", "1.5"]), capsys)
        file = assert_usage_error(main(base + ["--config", str(cfg)]), capsys)
        assert flag == file == "error: config: memory_size: expected int >= 1, got 1.5\n"

    @pytest.mark.parametrize("argv, message", [
        (["train", "--model", "gbt", "--memory-size", "5"],
         "--memory-size is not used by train --model gbt"),
        (["train", "--model", "gbt", "--window-len", "6", "--seed", "0"],
         "--seed is not used by train --model gbt"),
        (["grid-search", "--model", "gbt", "--max-epochs", "1"],
         "--max-epochs is not used by grid-search --model gbt"),
        (["train", "--memory-size-grid", "[3]", "--memory-size", "4"],
         "--memory-size-grid is not used by train"),
        (["grid-search", "--memory-size", "5"],
         "--memory-size is not used by grid-search"),
    ], ids=["gbt_memory_size", "gbt_seed", "gbt_grid_max_epochs", "train_grid",
            "grid_memory_size"])
    def test_flag_the_command_ignores(self, dataset_path, tmp_path, capsys,
                                      argv, message):
        out = tmp_path / "out"
        rc = main(argv + ["--dataset", dataset_path, "--out", str(out),
                          "--splits", "96:48:48"])
        assert assert_usage_error(rc, capsys) == f"error: {message}\n"
        assert not out.exists()

    def test_config_file_keys_the_command_ignores(self, dataset_path, tmp_path):
        # one file serves both commands: its keys are not judged by use
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"memory_size": 3, "memory_size_grid": [3],
                                   "max_epochs": 1, "splits": "96:48:48",
                                   "window_len": 6}))
        for model in ("gbt", "powernet"):
            assert main(["train", "--dataset", dataset_path, "--model", model,
                         "--config", str(cfg), "--out", str(tmp_path / model)]) == 0

    def test_null_window_len_flag_overrides_file(self, dataset_path, tmp_path):
        # the ACF rule picks 2 on this dataset; the file's 6 must not win
        fast = [arg for arg in FAST if arg not in ("--window-len", "6")]
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"window_len": 6}))
        null, acf = tmp_path / "null", tmp_path / "acf"
        assert main(["train", "--dataset", dataset_path, "--out", str(null),
                     "--config", str(cfg), "--window-len", "null"] + fast) == 0
        assert main(["train", "--dataset", dataset_path, "--out", str(acf)] + fast) == 0
        doc = json.loads((null / "checkpoint.json").read_text())
        assert doc["feature_spec"]["window_len"] == 2
        assert same_outputs(null, acf)

    @pytest.mark.parametrize("text, value", [
        (".2", 0.2), ("00", 0), ("1e-3", 1e-3), ("96:48:48", "96:48:48"),
        ("nan", math.nan), ("null", None), ("[3,4]", [3, 4]), ("true", True),
    ])
    def test_flag_value_decoding(self, text, value):
        got = cli._config_value(text)
        assert type(got) is type(value)
        assert got == value or (math.isnan(got) and math.isnan(value))

    @pytest.mark.parametrize("where", ["--config", "--dataset", "--memory-size-grid"])
    def test_deeply_nested_json_is_usage_error(self, dataset_path, tmp_path,
                                               capsys, where):
        deep = "[" * 100_000   # json.loads raises RecursionError on it
        path = tmp_path / "deep.json"
        path.write_text(deep)
        argv = {"--config": ["--dataset", dataset_path, "--config", str(path)],
                "--dataset": ["--dataset", str(path)],
                "--memory-size-grid": ["--dataset", dataset_path,
                                       "--memory-size-grid", deep]}[where]
        rc = main(["train", "--out", str(tmp_path / "out")] + argv)
        assert_usage_error(rc, capsys)

    def test_decoded_flags_match_config_file(self, dataset_path, tmp_path):
        # the values the typed flags read, given as JSON in a file
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"dropout_rate": 0.2, "seed": 0,
                                   "learning_rate": 0.001, "splits": "96:48:48"}))
        fast = FAST[2:]   # without --splits
        flags, file = tmp_path / "flags", tmp_path / "file"
        assert main(["train", "--dataset", dataset_path, "--out", str(flags),
                     "--dropout-rate", ".2", "--seed", "00", "--learning-rate",
                     "1e-3", "--splits", "96:48:48"] + fast) == 0
        assert main(["train", "--dataset", dataset_path, "--out", str(file),
                     "--config", str(cfg)] + fast) == 0
        assert same_outputs(flags, file)

    def test_config_checked_before_data(self, dataset_path, tmp_path, capsys):
        # the dataset is too short for these splits; the config error wins
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"batch_size": 0}))
        rc = main(["train", "--dataset", dataset_path, "--config", str(cfg),
                   "--out", str(tmp_path), "--splits", "900:48:48"])
        assert "batch_size" in assert_usage_error(rc, capsys)

    def test_dropout_rate_out_of_range(self, dataset_path, tmp_path, capsys):
        rc = main(["train", "--dataset", dataset_path, "--out", str(tmp_path),
                   "--dropout-rate", "1.5"] + FAST)
        assert "dropout_rate" in assert_usage_error(rc, capsys)

    def test_truncated_dataset(self, dataset_path, tmp_path, capsys):
        text = Path(dataset_path).read_text()
        bad = tmp_path / "dataset.json"
        bad.write_text(text[:len(text) // 2])
        rc = main(["train", "--dataset", str(bad), "--out", str(tmp_path)]
                  + FAST)
        assert_usage_error(rc, capsys)

    def test_env_out_dir(self, dataset_path, tmp_path, monkeypatch):
        monkeypatch.setenv("POWERNET_OUT", str(tmp_path / "envout"))
        assert main(["train", "--dataset", dataset_path, "--seed", "1"] + FAST) == 0
        assert (tmp_path / "envout" / "checkpoint.json").exists()


class TestGridSearch:
    def test_small_grid(self, dataset_path, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"memory_size_grid": [3, 4], "max_epochs": 2,
                                   "patience": 2, "window_len": 6,
                                   "splits": "96:48:48"}))
        out = tmp_path / "out"
        assert main(["grid-search", "--dataset", dataset_path,
                     "--config", str(cfg), "--out", str(out)]) == 0
        grid = json.loads((out / "grid_report.json").read_text())
        assert set(grid) == {"3", "4"}
        ckpt = json.loads((out / "checkpoint.json").read_text())
        assert ckpt["hyperparameters"]["memory_size"] in (3, 4)

    def test_grid_flag_matches_config_file(self, dataset_path, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"memory_size_grid": [3, 4]}))
        flag, file = tmp_path / "flag", tmp_path / "file"
        # grid-search refuses --memory-size, which the grid replaces
        fast = [arg for arg in FAST if arg not in ("--memory-size", "4")]
        assert main(["grid-search", "--dataset", dataset_path, "--out", str(flag),
                     "--memory-size-grid", "[3,4]"] + fast) == 0
        assert main(["grid-search", "--dataset", dataset_path, "--out", str(file),
                     "--config", str(cfg)] + fast) == 0
        assert (flag / "grid_report.json").exists()
        assert same_outputs(flag, file)


class TestEvaluate:
    def test_test_split_metrics(self, dataset_path, checkpoint_dir, tmp_path):
        out = tmp_path / "eval"
        rc = main(["evaluate", "--checkpoint",
                   str(checkpoint_dir / "checkpoint.json"),
                   "--dataset", dataset_path, "--split", "test",
                   "--out", str(out)])
        assert rc == 0
        doc = json.loads((out / "evaluate_test.json").read_text())
        assert doc["n"] == 48
        assert doc["mse"] > 0 and doc["mape"] > 0

    @pytest.mark.parametrize("out, made", [
        ("file", ["file"]),                                # --out is a file
        ("file/sub", ["file"]),                            # --out is under a file
        ("dir", ["dir/", "dir/evaluate_test.json/"]),      # an output name is a directory
    ])
    def test_unusable_out_is_usage_error(self, dataset_path, checkpoint_dir, tmp_path,
                                         capsys, out, made):
        # the work is done, then the write is refused with one line naming
        # the path; what was there stays as it was (a directory ends in /)
        for name in made:
            if name.endswith("/"):
                (tmp_path / name).mkdir()
            else:
                (tmp_path / name).write_text("kept")
        rc = main(["evaluate", "--checkpoint", str(checkpoint_dir / "checkpoint.json"),
                   "--dataset", dataset_path, "--out", str(tmp_path / out)])
        err = assert_usage_error(rc, capsys)
        assert f"cannot write {tmp_path / out / 'evaluate_test.json'}: " in err
        assert sorted(p.relative_to(tmp_path).as_posix() + "/" * p.is_dir()
                      for p in tmp_path.rglob("*")) == made
        assert all((tmp_path / name).read_text() == "kept"
                   for name in made if not name.endswith("/"))

    def test_missing_checkpoint(self, dataset_path, tmp_path):
        rc = main(["evaluate", "--checkpoint", "nope.json",
                   "--dataset", dataset_path, "--out", str(tmp_path)])
        assert rc == 2

    def test_truncated_checkpoint(self, dataset_path, checkpoint_dir,
                                  tmp_path, capsys):
        text = (checkpoint_dir / "checkpoint.json").read_text()
        bad = tmp_path / "checkpoint.json"
        bad.write_text(text[:len(text) // 2])
        rc = main(["evaluate", "--checkpoint", str(bad),
                   "--dataset", dataset_path, "--out", str(tmp_path)])
        assert_usage_error(rc, capsys)

    @pytest.mark.parametrize("case, name", [
        ("w1_17_columns", "w1"),
        ("stack_1", "stack"),
        ("hyperparameters_list", "hyperparameters: expected object, got [1]"),
        ("stack_text", "stack: expected int >= 1, got '2'"),
        ("params_list", "params: expected object, got []"),
        ("seed_text", "seed: expected int >= 0, got 'x'"),
        ("gbt_initial_prediction_text", "initial_prediction: expected real, got 'x'"),
        ("gbt_learning_rate_null", "learning_rate: expected real, got None"),
        ("w4_overflow", "test predictions overflow"),
        ("w4_overflow_forecast", "recursive predictions overflow"),
        ("w4_overflow_anomaly", "actual_history predictions overflow"),
        ("gbt_overflow", "test predictions overflow"),
        ("w3_bool", "params.w3: data[2]: expected real, got True"),
        ("w1_575_entries", "params.w1: data has 575 entries, shape [32, 18] needs 576"),
        ("b4_no_entries", "params.b4: data has 0 entries, shape [1] needs 1")])
    def test_checkpoint_params_must_fit_layout(self, dataset_path, checkpoint_dir,
                                               gbt_checkpoint, tmp_path, capsys,
                                               case, name):
        gbt = case.startswith("gbt")
        doc = (json.loads(json.dumps(gbt_checkpoint)) if gbt else
               json.loads((checkpoint_dir / "checkpoint.json").read_text()))
        if case == "w1_17_columns":
            d1 = doc["params"]["w1"]["shape"][0]
            doc["params"]["w1"] = {"shape": [d1, 17], "data": [0.0] * (d1 * 17)}
        elif case.startswith("w4_overflow"):   # finite weights, infinite predictions
            doc["params"]["w4"]["data"] = [1e308] * len(doc["params"]["w4"]["data"])
        elif case == "gbt_overflow":
            doc.update(initial_prediction=1e308, learning_rate=1e308)
        elif case == "w3_bool":     # json reads it as a bool, not as 1.0
            doc["params"]["w3"]["data"][2] = True
        elif case == "w1_575_entries":
            del doc["params"]["w1"]["data"][-1]
        elif case == "b4_no_entries":
            doc["params"]["b4"]["data"] = []
        else:   # one top-level key; stack_1 records a 2-layer network as 1 layer
            key = name.split(":")[0]
            doc[key] = {"stack_1": 1, "hyperparameters_list": [1], "stack_text": "2",
                        "params_list": [], "seed_text": "x",
                        "gbt_initial_prediction_text": "x",
                        "gbt_learning_rate_null": None}[case]
        bad = tmp_path / "checkpoint.json"
        bad.write_text(json.dumps(doc))
        command = next((c for c in ("forecast", "anomaly") if case.endswith(c)),
                       "evaluate")
        out = tmp_path / "out"
        rc = main([command, "--checkpoint", str(bad), "--dataset", dataset_path,
                   "--out", str(out)] + (["--horizon", "24"] if command != "evaluate" else []))
        assert name in assert_usage_error(rc, capsys)
        assert not out.exists()

    def test_nan_parameter_is_usage_error(self, dataset_path, checkpoint_dir,
                                          tmp_path, capsys):
        text = (checkpoint_dir / "checkpoint.json").read_text()
        doc = json.loads(text)
        doc["params"]["w3"]["data"][2] = float("nan")
        bad = tmp_path / "checkpoint.json"
        bad.write_text(json.dumps(doc))   # json writes the NaN token
        rc = main(["evaluate", "--checkpoint", str(bad),
                   "--dataset", dataset_path, "--out", str(tmp_path)])
        assert "w3" in assert_usage_error(rc, capsys)
        assert not (tmp_path / "evaluate_test.json").exists()

    def test_gbt_checkpoint(self, dataset_path, gbt_checkpoint, tmp_path):
        path = tmp_path / "checkpoint.json"
        path.write_text(json.dumps(gbt_checkpoint))
        rc = main(["evaluate", "--checkpoint", str(path),
                   "--dataset", dataset_path, "--out", str(tmp_path)])
        assert rc == 0
        assert json.loads((tmp_path / "evaluate_test.json").read_text())["n"] == 48

    @pytest.mark.parametrize("kind", ["gbt", "powernet"])
    def test_checkpoint_without_splits_is_usage_error(self, dataset_path, checkpoint_dir,
                                                      gbt_checkpoint, tmp_path, capsys,
                                                      kind):
        if kind == "gbt":
            doc = {k: v for k, v in gbt_checkpoint.items() if k != "splits"}
        else:
            doc = json.loads((checkpoint_dir / "checkpoint.json").read_text())
            del doc["hyperparameters"]["splits"]
        path = tmp_path / "checkpoint.json"
        path.write_text(json.dumps(doc))
        rc = main(["evaluate", "--checkpoint", str(path),
                   "--dataset", dataset_path, "--out", str(tmp_path / "out")])
        assert "does not record split boundaries" in assert_usage_error(rc, capsys)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("case, message", [
        ("feature_999", "feature: expected int in [0, 24), got 999"),
        ("feature_24", "feature: expected int in [0, 24), got 24"),  # window 6 + 18
        ("feature_-2", "feature: expected int in [0, 24), got -2"),
        ("nan_leaf", "value: expected real, got nan"),
        ("nan_threshold", "threshold: expected real, got nan")],
        ids=["feature_999-split feature 999", "feature_24-split feature 24",
             "feature_-2-split feature -2", "nan_leaf-non-finite",
             "nan_threshold-non-finite"])
    def test_gbt_tree_must_fit_features(self, dataset_path, gbt_checkpoint,
                                        tmp_path, capsys, case, message):
        doc = json.loads(json.dumps(gbt_checkpoint))
        node = doc["trees"][0]
        while "value" not in node["left"]:
            node = node["left"]
        if case.startswith("feature_"):
            node["feature"] = int(case.split("_")[1])
        elif case == "nan_leaf":
            node["left"]["value"] = float("nan")
        else:
            node["threshold"] = float("nan")
        path = tmp_path / "checkpoint.json"
        path.write_text(json.dumps(doc))
        rc = main(["evaluate", "--checkpoint", str(path),
                   "--dataset", dataset_path, "--out", str(tmp_path)])
        assert message in assert_usage_error(rc, capsys)

    @pytest.mark.parametrize("command, key, value", MALFORMED_INPUTS)
    def test_malformed_spec_or_splits(self, dataset_path, checkpoint_dir,
                                      tmp_path, capsys, command, key, value):
        doc = json.loads((checkpoint_dir / "checkpoint.json").read_text())
        data = json.loads(Path(dataset_path).read_text())
        if callable(value):
            if isinstance(data[key], list):
                data[key][5] = value(data[key][5])
            else:
                data[key] = value(data[key])
        elif key == "splits":
            doc["hyperparameters"]["splits"] = value
        else:
            doc["feature_spec"][key] = value
        path = tmp_path / "checkpoint.json"
        path.write_text(json.dumps(doc))
        dataset = tmp_path / "dataset.json"
        dataset.write_text(json.dumps(data))
        rc = main([command, "--checkpoint", str(path), "--dataset", str(dataset),
                   "--out", str(tmp_path / "out")] +
                  (["--horizon", "24"] if command == "forecast" else []))
        assert key in assert_usage_error(rc, capsys)
        assert not (tmp_path / "out").exists()

    def test_negative_split_bound_is_usage_error(self, dataset_path, checkpoint_dir,
                                                 tmp_path, capsys):
        # a train split starting 30 rows before the dataset is refused, not
        # clamped to the rows that have a window of history
        doc = json.loads((checkpoint_dir / "checkpoint.json").read_text())
        doc["hyperparameters"]["splits"][0][0] = -30
        path = tmp_path / "checkpoint.json"
        path.write_text(json.dumps(doc))
        rc = main(["evaluate", "--checkpoint", str(path), "--dataset", dataset_path,
                   "--split", "train", "--out", str(tmp_path / "out")])
        err = assert_usage_error(rc, capsys)
        assert "splits: [0][0]: expected int >= 0, got -30" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key", ["trees", "feature_spec"])
    def test_gbt_checkpoint_missing_key(self, dataset_path, gbt_checkpoint,
                                        tmp_path, capsys, key):
        doc = {k: v for k, v in gbt_checkpoint.items() if k != key}
        path = tmp_path / "checkpoint.json"
        path.write_text(json.dumps(doc))
        rc = main(["evaluate", "--checkpoint", str(path),
                   "--dataset", dataset_path, "--out", str(tmp_path)])
        assert key in assert_usage_error(rc, capsys)


class TestForecast:
    def test_recursive_outputs(self, dataset_path, checkpoint_dir, tmp_path):
        out = tmp_path / "fc"
        rc = main(["forecast", "--checkpoint",
                   str(checkpoint_dir / "checkpoint.json"),
                   "--dataset", dataset_path, "--mode", "recursive",
                   "--horizon", "48", "--thresholds", "5,10,1000",
                   "--out", str(out)])
        assert rc == 0
        doc = json.loads((out / "forecast_recursive.json").read_text())
        assert doc["horizon"] == 48
        assert len(doc["predictions"]) == 48
        table = json.loads((out / "retraining.json").read_text())
        assert table[-1]["crossing_hour"] is None or isinstance(
            table[-1]["crossing_hour"], int)
        assert (out / "forecast_recursive_curve.csv").exists()

    def test_actual_mode(self, dataset_path, checkpoint_dir, tmp_path):
        out = tmp_path / "fc"
        rc = main(["forecast", "--checkpoint",
                   str(checkpoint_dir / "checkpoint.json"),
                   "--dataset", dataset_path, "--mode", "actual",
                   "--horizon", "24", "--out", str(out)])
        assert rc == 0
        assert (out / "forecast_actual.json").exists()

    def test_horizon_too_long(self, dataset_path, checkpoint_dir, tmp_path):
        rc = main(["forecast", "--checkpoint",
                   str(checkpoint_dir / "checkpoint.json"),
                   "--dataset", dataset_path, "--horizon", "100000",
                   "--out", str(tmp_path)])
        assert rc == 2

    @pytest.mark.parametrize("mode", ["recursive", "actual"])
    @pytest.mark.parametrize("horizon", ["0", "-3"])
    def test_empty_horizon_is_usage_error(self, dataset_path, checkpoint_dir,
                                          tmp_path, capsys, mode, horizon):
        rc = main(["forecast", "--checkpoint",
                   str(checkpoint_dir / "checkpoint.json"),
                   "--dataset", dataset_path, "--mode", mode,
                   "--horizon", horizon, "--start-row", "100",
                   "--out", str(tmp_path)])
        assert "horizon must be >= 1" in assert_usage_error(rc, capsys)


    @pytest.mark.parametrize("token", ["nan", "inf", "5,-inf"])
    def test_non_finite_threshold_is_usage_error(self, dataset_path,
                                                 checkpoint_dir, tmp_path,
                                                 capsys, token):
        rc = main(["forecast", "--checkpoint",
                   str(checkpoint_dir / "checkpoint.json"),
                   "--dataset", dataset_path, "--horizon", "48",
                   "--thresholds", token, "--out", str(tmp_path)])
        assert "--thresholds" in assert_usage_error(rc, capsys)
        assert not list(tmp_path.glob("forecast_*"))

    def test_gbt_checkpoint_rejected(self, dataset_path, gbt_checkpoint, tmp_path, capsys):
        path = tmp_path / "checkpoint.json"
        path.write_text(json.dumps(gbt_checkpoint))
        rc = main(["forecast", "--checkpoint", str(path),
                   "--dataset", dataset_path, "--out", str(tmp_path / "out")])
        err = assert_usage_error(rc, capsys)
        assert "forecast requires a powernet checkpoint" in err
        assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv, taken", [
    (["forecast"], "forecast_recursive.json"),
    (["anomaly", "--thetas", "0.5"], "anomaly.json")])
def test_output_name_a_directory_writes_nothing(dataset_path, checkpoint_dir, tmp_path,
                                                capsys, argv, taken):
    # the last file of the command's set is an existing directory: the set
    # is refused before its first file is written
    (tmp_path / taken).mkdir()
    rc = main(argv + ["--checkpoint", str(checkpoint_dir / "checkpoint.json"),
                      "--dataset", dataset_path, "--horizon", "24", "--out", str(tmp_path)])
    err = assert_usage_error(rc, capsys)
    assert f"cannot write {tmp_path / taken}: " in err
    assert os.listdir(tmp_path) == [taken] and not os.listdir(tmp_path / taken)


class TestAnomaly:
    def test_sweep_and_detection(self, dataset_path, checkpoint_dir, tmp_path):
        out = tmp_path / "an"
        rc = main(["anomaly", "--checkpoint",
                   str(checkpoint_dir / "checkpoint.json"),
                   "--dataset", dataset_path, "--horizon", "48",
                   "--thetas", "0.1,0.5", "--detect-theta", "0.5",
                   "--out", str(out)])
        assert rc == 0
        doc = json.loads((out / "anomaly.json").read_text())
        assert [r["theta"] for r in doc["sweep"]] == [0.1, 0.5]
        assert doc["sweep"][1]["mape"] > doc["sweep"][0]["mape"]
        assert doc["detection"]["windows"] == 48 - 24 + 1
        assert (out / "theft_sweep.csv").exists()

    def test_detection_reuses_the_sweep_forecast(self, dataset_path,
                                                 checkpoint_dir, tmp_path,
                                                 monkeypatch):
        # one forecast of the clean history comes first; the other, of the
        # test window, feeds the sweep and the detector
        import powernet.cli as cli
        from powernet import forecast_anomaly as fa
        from powernet.dataio import dataset_from_json
        from powernet.features import FeatureSpec
        from powernet.model import checkpoint_from_json
        calls = []
        forecast = fa.forecast_with_actuals

        def counted(*args):
            calls.append(args[3:])
            return forecast(*args)
        monkeypatch.setattr(cli, "forecast_with_actuals", counted)
        monkeypatch.setattr(fa, "forecast_with_actuals", counted)
        out = tmp_path / "an"
        rc = main(["anomaly", "--checkpoint",
                   str(checkpoint_dir / "checkpoint.json"),
                   "--dataset", dataset_path, "--horizon", "48",
                   "--thetas", "0.1,0.5", "--detect-theta", "0.5",
                   "--out", str(out)])
        assert rc == 0
        monkeypatch.undo()
        d = dataset_from_json(Path(dataset_path).read_text())
        start = len(d) - 48
        assert calls == [(start - 48, 48), (start, 48)]
        text = (checkpoint_dir / "checkpoint.json").read_text()
        p, _, spec_doc, _ = checkpoint_from_json(text)
        spec = FeatureSpec.from_dict(spec_doc)
        rows = fa.theft_sweep(p, spec, d, start, 48, [0.1, 0.5])
        expected = cli._csv(["theta", "mape"], [(r["theta"], r["mape"]) for r in rows])
        assert (out / "theft_sweep.csv").read_bytes() == expected.encode()
        assert json.loads((out / "anomaly.json").read_text())["sweep"] == rows

    def test_error_after_the_sweep_writes_nothing(self, dataset_path,
                                                  checkpoint_dir, tmp_path, capsys):
        # the clean window before --start-row lacks history; the CLI
        # refuses it before the sweep runs
        out = tmp_path / "an"
        rc = main(["anomaly", "--checkpoint", str(checkpoint_dir / "checkpoint.json"),
                   "--dataset", dataset_path, "--horizon", "24", "--start-row", "10",
                   "--detect-theta", "0.5", "--out", str(out)])
        assert "history" in assert_usage_error(rc, capsys)
        assert not out.exists()

    def test_hole_in_the_clean_span_is_refused_before_the_sweep(
            self, refusal_inputs, tmp_path, capsys, monkeypatch):
        # the holed dataset lacks the hour after row 229: the clean span,
        # rows 228..235, crosses it and the test span, rows 230..237, does not
        calls = []
        monkeypatch.setattr(cli, "theft_sweep", lambda *args, **kw: calls.append(args))
        out = tmp_path / "an"
        rc = main(["anomaly", "--checkpoint", refusal_inputs["ckpt"],
                   "--dataset", refusal_inputs["holed"], "--horizon", "2",
                   "--start-row", "236", "--detect-theta", "0.5",
                   "--detector-window", "2", "--out", str(out)])
        err = assert_usage_error(rc, capsys)
        assert "rows 228..235 are not a contiguous hourly span" in err
        assert calls == [] and not out.exists()

    def test_gbt_checkpoint_rejected(self, dataset_path, gbt_checkpoint, tmp_path, capsys):
        path = tmp_path / "checkpoint.json"
        path.write_text(json.dumps(gbt_checkpoint))
        rc = main(["anomaly", "--checkpoint", str(path),
                   "--dataset", dataset_path, "--out", str(tmp_path / "out")])
        err = assert_usage_error(rc, capsys)
        assert "anomaly requires a powernet checkpoint" in err
        assert not (tmp_path / "out").exists()

    def test_nan_detector_k_is_usage_error(self, dataset_path, checkpoint_dir,
                                           tmp_path, capsys):
        out = tmp_path / "an"
        rc = main(["anomaly", "--checkpoint",
                   str(checkpoint_dir / "checkpoint.json"),
                   "--dataset", dataset_path, "--horizon", "48",
                   "--detect-theta", "0.5", "--detector-k", "nan",
                   "--out", str(out)])
        assert "k: expected real > 0, got nan" in assert_usage_error(rc, capsys)
        assert not out.exists()

    def test_horizon_shorter_than_detector_window_is_usage_error(
            self, dataset_path, checkpoint_dir, tmp_path, capsys):
        out = tmp_path / "an"
        rc = main(["anomaly", "--checkpoint",
                   str(checkpoint_dir / "checkpoint.json"),
                   "--dataset", dataset_path, "--horizon", "12",
                   "--detect-theta", "0.5", "--detector-window", "24",
                   "--out", str(out)])
        assert "need at least 24 hours, have 12" in assert_usage_error(rc, capsys)
        assert not out.exists()


@pytest.fixture(scope="module")
def refusal_inputs(tmp_path_factory, dataset_path, checkpoint_dir):
    """The paths the refusal table names: a 288-row dataset, the 240-row
    one with a one-hour hole ten rows from its end, two consumption files
    of which the second lacks its last hour, and the window-6 checkpoint."""
    root = tmp_path_factory.mktemp("refusals")
    short = root / "short.json"
    short.write_text(dataset_to_json(make_aligned_dataset(days=12, seed=0)))
    doc = json.loads(Path(dataset_path).read_text())
    for key in ("hours", "kw", "summary", "icon", "numeric"):
        del doc[key][-10]
    holed = root / "holed.json"
    holed.write_text(json.dumps(doc))
    fx = root / "fx"
    assert main(["synth", "--out", str(fx), "--days", "2", "--apartments", "2"]) == 0
    lines = (fx / "Apt2.csv").read_text().splitlines(keepends=True)
    (fx / "Apt2.csv").write_text("".join(lines[:-4]))   # 4 quarter-hours
    return {"short": str(short), "holed": str(holed),
            "ckpt": str(checkpoint_dir / "checkpoint.json"), "apt1": str(fx / "Apt1.csv"),
            "apt2": str(fx / "Apt2.csv"), "weather": str(fx / "weather.csv")}


#: (argv, what the one error line names): each refusal names the flag,
#: config key or file to change, its value and the limit in rows or hours.
#: ``{name}`` stands for a path of ``refusal_inputs``.
REFUSALS = {
    "forecast_default_horizon": (
        "forecast --checkpoint {ckpt} --dataset {short}",
        ["--horizon 720", "needs 726 rows", "{short}", "has 288 rows",
         "6 hours of history (the checkpoint's window) come before the 720 hours"]),
    "anomaly_default_horizon": (
        "anomaly --checkpoint {ckpt} --dataset {short}",
        ["--horizon 336", "needs 342 rows", "{short}", "has 288 rows"]),
    "anomaly_detection_needs_clean_hours": (
        "anomaly --checkpoint {ckpt} --dataset {short} --horizon 200 --detect-theta 0.5",
        ["--horizon 200", "needs 406 rows", "200 clean hours for --detect-theta"]),
    "start_row_before_the_window": (
        "forecast --checkpoint {ckpt} --dataset {short} --horizon 24 --start-row 3",
        ["--start-row 3", "--horizon 24", "rows -3..26", "6 hours of history"]),
    "start_row_past_the_end": (
        "forecast --checkpoint {ckpt} --dataset {short} --horizon 24 --start-row 280",
        ["--start-row 280", "rows 274..303", "{short}", "has 288 rows"]),
    "train_default_splits": (
        "train --dataset {short}",
        ["{short}", "--splits 624:48:48", "need 720 rows, have 288"]),
    "horizon_below_detector_window": (
        "anomaly --checkpoint {ckpt} --dataset {short} --horizon 10 --detect-theta 0.5",
        ["--horizon 10", "--detector-window 24", "need at least 24 hours, have 10"]),
    "aggregate_unequal_spans": (
        "ingest --consumption {apt1} {apt2} --weather {weather} --aggregate",
        ["--aggregate", "{apt2} has 47 hours from 2016-04-01T00:00:00",
         "{apt1} 48 hours from"]),
    "split_without_examples": (
        "train --dataset {short} --splits 10:5:273 --window-len 24",
        ["the train split has no examples", "10 targets", "window_len=24"]),
    "forecast_across_a_hole": (
        "forecast --checkpoint {ckpt} --dataset {holed} --horizon 24 --mode actual",
        ["rows 209..238 are not a contiguous hourly span: 2016-04-10T14:00:00, "
         "the hour after row 229, is missing"]),
    # a missing checkpoint: the flag is refused before any file is read
    "detect_theta_out_of_range": (
        "anomaly --checkpoint missing.json --dataset {short} --detect-theta 1.5",
        ["--detect-theta: expected real in [0, 1), got 1.5"]),
    "thetas_out_of_range": (
        "anomaly --checkpoint missing.json --dataset {short} --thetas 0.2,1.5",
        ["--thetas: expected real in [0, 1), got 1.5"]),
}


@pytest.mark.parametrize("case", REFUSALS)
def test_refusal_names_what_to_change(refusal_inputs, tmp_path, capsys, case):
    argv, names = REFUSALS[case]
    out = tmp_path / "out"
    rc = main(argv.format(**refusal_inputs).split() + ["--out", str(out)])
    err = assert_usage_error(rc, capsys)
    for name in names:
        assert name.format(**refusal_inputs) in err
    assert not out.exists()


class TestParser:
    def test_missing_subcommand_exits(self, capsys):
        assert "required: command" in assert_usage_error(main([]), capsys)

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        assert "usage: powernet" in capsys.readouterr().out

    def test_every_config_key_is_a_flag(self):
        commands = cli.build_parser()._subparsers._group_actions[0].choices
        for command in ("train", "grid-search"):
            flags = commands[command]._option_string_actions
            for key, rule in cli.CONFIG_CHECKS.items():
                action = flags["--" + key.replace("_", "-")]
                assert (action.dest, action.help) == (key, rule.kind)

    #: (argv, fault): every usage error the parser itself finds
    PARSER_ERRORS = [
        (["synth", "--days", "x"], "bad int"),
        (["synth", "--format", "x"], "bad choice"),
        (["synth", "--bogus"], "unknown flag"),
        (["ingest", "--consumption", "c", "--weather", "w", "--fill-max-run", "x"],
         "bad int"),
        (["ingest", "--consumption", "c", "--weather", "w", "--format", "x"],
         "bad choice"),
        (["ingest", "--consumption", "c"], "missing flag"),
        (["ingest", "--consumption", "c", "--weather", "w", "--bogus"],
         "unknown flag"),
        (["train", "--dataset", "d", "--model", "x"], "bad choice"),
        (["train", "--seed", "0"], "missing flag"),
        (["train", "--dataset", "d", "--bogus", "1"], "unknown flag"),
        (["forecast", "--checkpoint", "c", "--dataset", "d", "--horizon", "x"],
         "bad int"),
        (["forecast", "--checkpoint", "c", "--dataset", "d", "--thresholds", "x"],
         "bad float"),
        (["forecast", "--checkpoint", "c", "--dataset", "d", "--mode", "x"],
         "bad choice"),
        (["forecast", "--dataset", "d"], "missing flag"),
        (["forecast", "--checkpoint", "c", "--dataset", "d", "--bogus"],
         "unknown flag"),
        (["anomaly", "--checkpoint", "c", "--dataset", "d", "--detector-window", "x"],
         "bad int"),
        (["anomaly", "--checkpoint", "c", "--dataset", "d", "--detector-k", "x"],
         "bad float"),
        (["anomaly", "--checkpoint", "c"], "missing flag"),
        (["anomaly", "--checkpoint", "c", "--dataset", "d", "--bogus"],
         "unknown flag"),
    ]

    @pytest.mark.parametrize("argv, fault", PARSER_ERRORS,
                             ids=[f"{argv[0]}-{fault}" for argv, fault in PARSER_ERRORS])
    def test_parser_error_is_one_line(self, capsys, argv, fault):
        assert_usage_error(main(argv), capsys)

    def test_all_subcommands_registered(self):
        from powernet.cli import build_parser
        sub = next(a for a in build_parser()._actions
                   if isinstance(a, type(build_parser()._subparsers._group_actions[0])))
        names = set(sub.choices)
        assert {"ingest", "train", "evaluate", "forecast", "anomaly",
                "grid-search", "synth"} <= names


class TestJsonWriters:
    """Every JSON writer raises on a non-finite float instead of writing
    the non-standard tokens NaN or Infinity."""

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_value_raises(self, value):
        from powernet.baselines import GbtModel
        from powernet.features import fit_feature_spec
        from powernet.model import checkpoint_to_json, init_params
        from powernet.training import TrainReport

        d = make_aligned_dataset(days=2, seed=0)
        spec = fit_feature_spec(d, slice(0, 24), window_len=3)
        spec.cons_mean = value
        p = init_params(2, 2, 2, 2)
        p.vec[3] = value
        d.kw[4] = value
        writers = [
            lambda: json_text({"a": [1.0, value]}),
            lambda: checkpoint_to_json(p, {}, {}, 0),
            lambda: json_text(spec.to_dict()),
            lambda: dataset_to_json(d),
            lambda: json_text(TrainReport(
                train_loss=[value], val_mse=[1.0], best_epoch=0).to_dict()),
            GbtModel(initial_prediction=value).to_json,
        ]
        for write in writers:
            with pytest.raises(ValueError, match="JSON compliant"), \
                    np.errstate(invalid="ignore"):
                write()

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_forecast_actual_is_usage_error(self, tmp_path, monkeypatch, capsys,
                                                       dataset_path, checkpoint_dir, value):
        # the metrics refuse the actual before any forecast file is written
        from powernet import cli
        from powernet.forecast_anomaly import ForecastReport

        report = ForecastReport(mode="recursive", horizon=2, predictions=np.ones(2),
                                actuals=np.array([1.0, value]))
        monkeypatch.setattr(cli, "forecast_recursive", lambda *args: report)
        out = tmp_path / "fc"
        rc = main(["forecast", "--checkpoint", str(checkpoint_dir / "checkpoint.json"),
                   "--dataset", dataset_path, "--horizon", "2", "--out", str(out)])
        assert "actual" in assert_usage_error(rc, capsys)
        assert not out.exists()
