import errno
import json
import logging
import os
import platform
import shutil
import subprocess
import sys
import tracemalloc
import zlib
from pathlib import Path

import numpy as np
import pytest

from sdgl import checkpoint
from sdgl import model as sdgl_model
from sdgl.cli import EXIT_OK, EXIT_RUNTIME, EXIT_USAGE, main
from sdgl.data import PlantedGraphSpec, Scaler, load_csv, make_windows, synth_generate
from sdgl.model import SGD, ModelConfig, SDGLModel
from test_model import format_1_bytes, poison_after_third_step


def error_lines(caplog) -> list[str]:
    return [r.getMessage() for r in caplog.records if r.levelno >= logging.ERROR]


def run_sdgl(*args, env=None) -> subprocess.CompletedProcess:
    """``sdgl`` in a fresh process, so its whole stderr is what a user sees."""
    env = dict(os.environ, **(env or {}), PYTHONPATH=os.pathsep.join(
        p for p in (str(Path(__file__).resolve().parents[1] / "src"),
                    os.environ.get("PYTHONPATH")) if p))
    return subprocess.run([sys.executable, "-m", "sdgl.cli", *map(str, args)], env=env,
                          capture_output=True, text=True)


@pytest.fixture(scope="module")
def synth_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("synth")
    code = main([
        "synth", "--nodes", "5", "--steps", "150", "--seed", "3",
        "--edge-prob", "0.4", "--noise", "0.2", "--out-dir", str(d),
    ])
    assert code == EXIT_OK
    return d


@pytest.fixture(scope="module")
def small_config(tmp_path_factory):
    p = tmp_path_factory.mktemp("cfg") / "small.json"
    p.write_text(json.dumps({
        "embed_dim": 8, "heads": 2, "channels": 8, "layers": 2,
        "batch_size": 16, "epochs": 1, "dropout_keep": 1.0,
    }))
    return p


@pytest.fixture(scope="module")
def train_dir(tmp_path_factory, synth_dir, small_config):
    d = tmp_path_factory.mktemp("train")
    code = main([
        "train", "--data", str(synth_dir / "data.csv"),
        "--config", str(small_config), "--epochs", "2", "--seed", "1",
        "--out-dir", str(d),
    ])
    assert code == EXIT_OK
    return d


class TestSynth:
    def test_outputs_and_manifest(self, synth_dir):
        assert (synth_dir / "data.csv").is_file()
        assert (synth_dir / "truth_adjacency.csv").is_file()
        assert (synth_dir / "schedule.json").is_file()
        manifest = json.loads((synth_dir / "manifest.json").read_text())
        assert manifest["command"] == "synth"
        assert manifest["config"]["nodes"] == 5
        assert set(manifest["outputs"]) >= {"data", "truth", "schedule"}
        ds = load_csv(synth_dir / "data.csv")
        assert ds.values.shape == (150, 5)

    def test_rerun_is_byte_identical(self, synth_dir, tmp_path):
        code = main([
            "synth", "--nodes", "5", "--steps", "150", "--seed", "3",
            "--edge-prob", "0.4", "--noise", "0.2", "--out-dir", str(tmp_path),
        ])
        assert code == EXIT_OK
        assert (tmp_path / "data.csv").read_bytes() == (synth_dir / "data.csv").read_bytes()

    def test_switch_writes_secondary_set(self, tmp_path):
        code = main([
            "synth", "--nodes", "6", "--steps", "120", "--switch", "30:60,80:100",
            "--out-dir", str(tmp_path),
        ])
        assert code == EXIT_OK
        assert (tmp_path / "secondary_adjacency.csv").is_file()
        sched = json.loads((tmp_path / "schedule.json").read_text())
        assert sched["switch_intervals"] == [[30, 60], [80, 100]]

    def test_bad_interval_is_usage_error(self, tmp_path):
        assert main(["synth", "--switch", "oops", "--out-dir", str(tmp_path)]) == EXIT_USAGE

    def test_unstable_alpha_is_runtime_error(self, tmp_path, caplog):
        # generation failures (including spec values that cannot produce a
        # bounded trajectory, or any series at all) are runtime errors, not
        # usage errors
        out = tmp_path / "synth"
        for flags, named in ((["--alpha", "1.5"], "alpha"), (["--steps", "0"], "time step"),
                             (["--period", "0"], "seasonal period"),
                             (["--noise", "-1"], "noise std"), (["--noise", "nan"], "noise std"),
                             (["--switch", "5:3"], "5:3"),
                             (["--switch", "5:9", "--switch-fraction", "nan"], "switch fraction"),
                             (["--switch-fraction", "-3"], "switch fraction")):
            caplog.clear()
            assert main(["synth", *flags, "--out-dir", str(out)]) == EXIT_RUNTIME, flags
            [line] = error_lines(caplog)
            assert named in line and "\n" not in line, line
            assert not out.exists()

    def test_overflowing_noise_is_one_line(self, tmp_path):
        out = tmp_path / "synth"
        run = run_sdgl("synth", "--noise", "1e308", "--steps", 50, "--out-dir", out)
        assert run.returncode == EXIT_RUNTIME
        assert run.stderr.splitlines() == [
            "ERROR sdgl: trajectory became non-finite with noise std 1e+308"]
        assert not out.exists()

    def test_manifest_records_the_forcing_drawn(self, synth_dir):
        forcing = json.loads((synth_dir / "manifest.json").read_text())["forcing"]
        res = synth_generate(PlantedGraphSpec(n_nodes=5, edge_prob=0.4, noise_std=0.2), 150, 3)
        assert forcing == {"amp": res.amp, "phase": res.phase, "period": 24}
        np.testing.assert_array_equal(load_csv(synth_dir / "data.csv").values, res.dataset.values)


THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class TestManifestEnvironment:
    @pytest.mark.parametrize("command_dir", ["synth_dir", "train_dir"])
    def test_keys_and_types(self, request, command_dir):
        manifest = json.loads((request.getfixturevalue(command_dir) / "manifest.json").read_text())
        env = manifest["environment"]
        assert set(env) == {"python", "numpy", "blas", "cpu_count", "usable_cores", *THREAD_VARS}
        assert env["python"] == platform.python_version()
        assert env["numpy"] == np.__version__
        # numpy < 1.25 cannot report its BLAS build
        if env["blas"] is not None:
            assert set(env["blas"]) == {"name", "version"}
            assert all(v is None or isinstance(v, str) for v in env["blas"].values())
        assert isinstance(env["cpu_count"], int) and env["cpu_count"] >= 1
        assert env["usable_cores"] is None or (
            isinstance(env["usable_cores"], int) and 1 <= env["usable_cores"] <= env["cpu_count"])
        for var in THREAD_VARS:
            assert env[var] == os.environ.get(var)

    def test_argv_is_the_parsed_list(self, tmp_path):
        # in process, the list main parsed, not the host process's arguments;
        # from the console, sys.argv[1:]
        args = ["synth", "--nodes", "3", "--steps", "40", "--out-dir", str(tmp_path / "a")]
        assert main(args) == EXIT_OK
        assert json.loads((tmp_path / "a" / "manifest.json").read_text())["argv"] == args
        args[-1] = str(tmp_path / "b")
        assert run_sdgl(*args).returncode == EXIT_OK
        assert json.loads((tmp_path / "b" / "manifest.json").read_text())["argv"] == args

    def test_thread_settings_as_set(self, tmp_path, monkeypatch):
        monkeypatch.setenv("OMP_NUM_THREADS", "3")
        monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
        assert main(["synth", "--nodes", "3", "--steps", "40", "--out-dir", str(tmp_path)]) == EXIT_OK
        env = json.loads((tmp_path / "manifest.json").read_text())["environment"]
        assert env["OMP_NUM_THREADS"] == "3" and env["MKL_NUM_THREADS"] is None


class TestTrain:
    def test_artifacts(self, train_dir):
        assert (train_dir / "checkpoint.sdgl").is_file()
        lines = (train_dir / "epochs.csv").read_text().strip().splitlines()
        assert lines[0] == "epoch,train_loss,val_MAE,val_RMSE,val_MAPE"
        assert len(lines) == 3  # header + 2 epochs
        manifest = json.loads((train_dir / "manifest.json").read_text())
        assert manifest["command"] == "train"
        assert manifest["config"]["epochs"] == 2  # flag beats config file
        assert manifest["config"]["seed"] == 1
        assert len(manifest["dataset"]["sha256"]) == 64

    def test_deterministic_checkpoint(self, synth_dir, small_config, train_dir, tmp_path):
        code = main([
            "train", "--data", str(synth_dir / "data.csv"),
            "--config", str(small_config), "--epochs", "2", "--seed", "1",
            "--out-dir", str(tmp_path),
        ])
        assert code == EXIT_OK
        assert (tmp_path / "checkpoint.sdgl").read_bytes() == \
            (train_dir / "checkpoint.sdgl").read_bytes()

    def test_config_is_checked_once_per_path(self, synth_dir, small_config, tmp_path,
                                             monkeypatch):
        # the config checks itself when built; the model and the loader trust it
        calls = []
        check = ModelConfig.validate

        def counting(config):
            calls.append(config)
            check(config)

        monkeypatch.setattr(ModelConfig, "validate", counting)
        assert main(["train", "--data", str(synth_dir / "data.csv"), "--config",
                     str(small_config), "--out-dir", str(tmp_path)]) == EXIT_OK
        assert len(calls) == 1
        checkpoint.load(tmp_path / "checkpoint.sdgl")
        assert len(calls) == 2

    def test_missing_data_file(self, tmp_path):
        assert main(["train", "--data", str(tmp_path / "nope.csv"),
                     "--out-dir", str(tmp_path)]) == EXIT_USAGE

    def test_malformed_config_file(self, synth_dir, tmp_path, caplog):
        bad = tmp_path / "bad.json"
        out = tmp_path / "run"
        # "[" * 200_000 nests past the JSON parser's depth limit
        for text in ("{not json", "[" * 200_000, '{"foo": 1}', "[1, 2]", '{"heads": "4"}',
                     '{"channels": 16.0}', '{"epochs": 1.0}', '{"window": 19.0}',
                     '{"heads": 2.0, "embed_dim": 8}', '{"batch_size": 8.0}',
                     '{"horizon": 3.0}', '{"layers": true}', '{"head_dim": 2.5}',
                     '{"momentum": "0.5"}', '{"dropout_keep": true}', '{"gamma": NaN}'):
            caplog.clear()
            bad.write_text(text)
            assert main(["train", "--data", str(synth_dir / "data.csv"),
                         "--config", str(bad), "--out-dir", str(out)]) == EXIT_USAGE, text
            [line] = error_lines(caplog)
            assert line.startswith(f"config file {bad}: ") and "\n" not in line, line
            assert not out.exists()
        # the file is named only when the setting in the error was set there and not by a flag
        bad.write_text('{"momentum": 1.5}')
        good = tmp_path / "good.json"
        good.write_text('{"momentum": 0.5}')
        for flags, prefix in ((["--config", str(bad)], f"config file {bad}: momentum: "),
                              (["--lambda", "nan"], "lambda_reg: "),
                              (["--config", str(good), "--momentum", "nan"], "momentum: ")):
            caplog.clear()
            assert main(["train", "--data", str(synth_dir / "data.csv"), *flags,
                         "--out-dir", str(out)]) == EXIT_USAGE, flags
            [line] = error_lines(caplog)
            assert line.startswith(prefix), line
            assert not out.exists()

    def test_mistyped_ablation_in_config_file(self, synth_dir, tmp_path, caplog):
        # a string is not split into letters, and an object is not read as its keys
        bad = tmp_path / "bad.json"
        out = tmp_path / "run"
        for value in ('"no_gloss"', "null", "5", '{"no_gloss": 1}'):
            caplog.clear()
            bad.write_text(f'{{"ablation": {value}}}')
            assert main(["train", "--data", str(synth_dir / "data.csv"),
                         "--config", str(bad), "--out-dir", str(out)]) == EXIT_USAGE, value
            [line] = error_lines(caplog)
            assert line.startswith(f"config file {bad}: ablation: need a list"), line
            assert "\n" not in line, line
            assert not out.exists()

    @pytest.mark.parametrize("text, fault", [
        ('{"learning_rate": 1%s}' % ("0" * 400), "learning_rate: need a finite number"),
        ('{"seed": 1%s}' % ("0" * 5000), "Exceeds the limit (4300 digits)"),
    ], ids=["401 digits", "5001 digits"])
    def test_number_past_float_or_str_range_in_config_file(self, synth_dir, tmp_path,
                                                           caplog, text, fault):
        # past float range, a real setting is a type error; past Python's 4300-digit
        # int-to-str limit, the parser's ValueError is the file's error
        bad = tmp_path / "big.json"
        bad.write_text(text)
        out = tmp_path / "run"
        assert main(["train", "--data", str(synth_dir / "data.csv"),
                     "--config", str(bad), "--out-dir", str(out)]) == EXIT_USAGE
        [line] = error_lines(caplog)
        assert line.startswith(f"config file {bad}: ") and fault in line, line
        assert len(line) < 300 and not out.exists()

    def test_setting_too_large_to_allocate(self, synth_dir, tmp_path, monkeypatch, caplog):
        # numpy raises a MemoryError subclass; the model is patched, so nothing is allocated
        def too_large(config):
            raise MemoryError("Unable to allocate 119. GiB for an array")

        monkeypatch.setattr(sdgl_model, "SDGLModel", too_large)
        cfg = tmp_path / "huge.json"
        cfg.write_text('{"embed_dim": 4000000000, "heads": 1}')
        out = tmp_path / "run"
        assert main(["train", "--data", str(synth_dir / "data.csv"),
                     "--config", str(cfg), "--out-dir", str(out)]) == EXIT_RUNTIME
        assert error_lines(caplog) == ["out of memory: Unable to allocate 119. GiB for an array"]
        assert not out.exists()

    def test_data_too_short_writes_nothing(self, tmp_path, caplog):
        assert main(["synth", "--nodes", "4", "--steps", "30",
                     "--out-dir", str(tmp_path / "synth")]) == EXIT_OK
        out = tmp_path / "run"
        assert main(["train", "--data", str(tmp_path / "synth" / "data.csv"),
                     "--out-dir", str(out)]) == EXIT_USAGE
        [line] = error_lines(caplog)
        assert "train split" in line and "\n" not in line, line
        assert not out.exists()

    def test_divergence_writes_nothing(self, synth_dir, tmp_path):
        cfg = tmp_path / "diverge.json"
        cfg.write_text(json.dumps({"learning_rate": 1e160, "epochs": 3, "embed_dim": 8,
                                   "heads": 2, "channels": 8, "batch_size": 16}))
        out = tmp_path / "run"
        run = run_sdgl("train", "--data", synth_dir / "data.csv", "--config", cfg,
                       "--out-dir", out)
        assert run.returncode == EXIT_RUNTIME
        [line] = run.stderr.splitlines()
        assert line.startswith("ERROR sdgl: loss became non-finite") \
            and "last finite loss" in line, run.stderr
        assert not out.exists()

    def test_divergence_in_the_last_step_writes_nothing(self, tmp_path):
        # one step in all, so no loss check sees its update; on this series
        # that update makes the validation forecast overflow
        assert main(["synth", "--nodes", "5", "--steps", "200", "--seed", "1",
                     "--out-dir", str(tmp_path / "synth")]) == EXIT_OK
        cfg = tmp_path / "diverge.json"
        cfg.write_text(json.dumps({"learning_rate": 1e308, "epochs": 1, "batch_size": 100000}))
        out = tmp_path / "run"
        run = run_sdgl("train", "--data", tmp_path / "synth" / "data.csv", "--config", cfg,
                       "--out-dir", out)
        assert run.returncode == EXIT_RUNTIME
        [line] = run.stderr.splitlines()
        assert line.startswith("ERROR sdgl: validation forecast became non-finite"), run.stderr
        assert not out.exists()

    @pytest.mark.parametrize("ablation", [[], ["no_dyadj"]])
    def test_nonfinite_embeddings_are_a_divergence(self, tmp_path, ablation):
        # the update after batch 1 leaves the static embeddings non-finite;
        # the static graph passes that on, and the next loss check names it
        assert main(["synth", "--nodes", "2", "--steps", "200", "--seed", "1",
                     "--out-dir", str(tmp_path / "synth")]) == EXIT_OK
        cfg = tmp_path / "diverge.json"
        cfg.write_text(json.dumps({"learning_rate": 1e308, "lambda_reg": 1e12, "embed_dim": 1,
                                   "heads": 1, "epochs": 2, "batch_size": 8,
                                   "ablation": ablation}))
        out = tmp_path / "run"
        run = run_sdgl("train", "--data", tmp_path / "synth" / "data.csv", "--config", cfg,
                       "--out-dir", out)
        assert run.returncode == EXIT_RUNTIME
        [line] = run.stderr.splitlines()
        assert line.startswith("ERROR sdgl: loss became non-finite at epoch 1, batch 2"), \
            run.stderr
        assert not out.exists()

    def test_infinite_weight_is_a_divergence(self, synth_dir, small_config, tmp_path,
                                             monkeypatch, caplog):
        # the gate's sigmoid saturates, so only the end-of-epoch state check sees the inf
        monkeypatch.setattr(SGD, "step", poison_after_third_step("tcn1.gate.bias"))
        out = tmp_path / "run"
        assert main(["train", "--data", str(synth_dir / "data.csv"),
                     "--config", str(small_config), "--out-dir", str(out)]) == EXIT_RUNTIME
        assert error_lines(caplog) == ["state tensor 'tcn1.gate.bias' became non-finite in epoch 1"]
        assert not out.exists()

    def test_failing_writer_leaves_nothing(self, synth_dir, small_config, tmp_path,
                                           monkeypatch, caplog):
        def save(path, model, scaler):
            path.write_bytes(b"partial")
            raise OSError("disk full")

        monkeypatch.setattr(checkpoint, "save", save)
        fresh, existing = tmp_path / "new" / "run", tmp_path / "existing"
        existing.mkdir()
        for out in (fresh, existing):
            caplog.clear()
            assert main(["train", "--data", str(synth_dir / "data.csv"),
                         "--config", str(small_config), "--out-dir", str(out)]) == EXIT_RUNTIME
            assert error_lines(caplog) == ["disk full"]
        assert not fresh.parent.exists()
        assert list(existing.iterdir()) == []

    def test_failed_rename_leaves_nothing(self, synth_dir, small_config, tmp_path,
                                          monkeypatch, caplog):
        # the renames of outputs into place, not checkpoint.save's rename of its
        # own temporary or the move of an earlier file aside; the first, of the
        # checkpoint, succeeds
        real_replace, renames = os.replace, []

        def replace(src, dst):
            if not Path(dst).name.endswith((".tmp", ".old")):
                renames.append(dst)
                if len(renames) == 2:
                    raise OSError(28, "No space left on device")
            real_replace(src, dst)

        monkeypatch.setattr(os, "replace", replace)
        fresh, existing = tmp_path / "new" / "run", tmp_path / "existing"
        existing.mkdir()
        for name in ("epochs.csv", "manifest.json"):
            (existing / name).write_text(f"earlier {name}\n")
        for out in (fresh, existing):
            caplog.clear()
            renames.clear()
            assert main(["train", "--data", str(synth_dir / "data.csv"),
                         "--config", str(small_config), "--out-dir", str(out)]) == EXIT_RUNTIME
            assert error_lines(caplog) == ["[Errno 28] No space left on device"]
            assert Path(renames[1]).name == "epochs.csv"
        assert not fresh.parent.exists()
        assert {p.name: p.read_text() for p in existing.iterdir()} == {
            name: f"earlier {name}\n" for name in ("epochs.csv", "manifest.json")}

    def test_output_path_that_is_a_directory_keeps_the_earlier_run(
            self, synth_dir, small_config, train_dir, tmp_path, caplog):
        # a rename over epochs.csv would fail after the checkpoint's had
        # replaced the earlier one, and the rollback would delete it
        out = tmp_path / "run"
        shutil.copytree(train_dir, out)
        (out / "epochs.csv").unlink()
        (out / "epochs.csv").mkdir()
        assert main(["train", "--data", str(synth_dir / "data.csv"), "--config",
                     str(small_config), "--out-dir", str(out)]) == EXIT_RUNTIME
        assert error_lines(caplog) == [
            f"[Errno {errno.EISDIR}] output path is a directory: '{out / 'epochs.csv'}'"]
        for name in ("checkpoint.sdgl", "manifest.json"):
            assert (out / name).read_bytes() == (train_dir / name).read_bytes(), name
        assert sorted(p.name for p in out.iterdir()) == [
            "checkpoint.sdgl", "epochs.csv", "manifest.json"]

    def test_failed_rename_keeps_the_earlier_run(self, synth_dir, small_config, train_dir,
                                                 tmp_path, monkeypatch, caplog):
        # the rename over epochs.csv fails after the checkpoint's has replaced
        # the earlier one, which was moved aside and is moved back
        real_replace = os.replace

        def replace(src, dst):
            if Path(src).name == ".epochs.csv.tmp":
                raise PermissionError(errno.EACCES, "Permission denied", str(dst))
            real_replace(src, dst)

        out = tmp_path / "run"
        shutil.copytree(train_dir, out)
        monkeypatch.setattr(os, "replace", replace)
        assert main(["train", "--data", str(synth_dir / "data.csv"), "--config",
                     str(small_config), "--seed", "2", "--out-dir", str(out)]) == EXIT_RUNTIME
        assert error_lines(caplog) == [
            f"[Errno {errno.EACCES}] Permission denied: '{out / 'epochs.csv'}'"]
        names = ["checkpoint.sdgl", "epochs.csv", "manifest.json"]
        assert sorted(p.name for p in out.iterdir()) == names
        for name in names:
            assert (out / name).read_bytes() == (train_dir / name).read_bytes(), name

    def test_each_output_is_renamed_once(self, synth_dir, small_config, tmp_path, monkeypatch):
        # the savers write the temporary they are handed; only the files moved
        # aside by a second run into the same directory add renames
        from sdgl import data as sdgl_data
        real_replace, renames, opened = os.replace, [], []

        def replace(src, dst):
            real_replace(src, dst)  # a move aside of a file not there raises here
            renames.append((Path(src).name, Path(dst).name))

        def spying_open(path, *args, **kwargs):
            opened.append(Path(path).name)
            return open(path, *args, **kwargs)

        monkeypatch.setattr(os, "replace", replace)
        monkeypatch.setattr(sdgl_data, "open", spying_open, raising=False)
        outputs = ["checkpoint.sdgl", "epochs.csv", "manifest.json"]
        for run in range(2):
            renames.clear()
            assert main(["train", "--data", str(synth_dir / "data.csv"), "--config",
                         str(small_config), "--out-dir", str(tmp_path)]) == EXIT_OK
            into_place = [(f".{name}.tmp", name) for name in outputs]
            aside = [(name, f".{name}.old") for name in outputs]
            assert renames == (into_place if run == 0 else
                               [r for pair in zip(aside, into_place) for r in pair])
        assert ".checkpoint.sdgl.tmp" in opened
        assert not [name for name in opened if name.endswith(".tmp.tmp")]
        # called from the library, the savers still write a temporary and rename it
        renames.clear()
        checkpoint.save(tmp_path / "copy.sdgl", checkpoint.load(tmp_path / "checkpoint.sdgl").model,
                        Scaler(np.zeros(5), np.ones(5)))
        assert renames == [(".copy.sdgl.tmp", "copy.sdgl")]

    def test_huge_layer_count_writes_nothing(self, synth_dir, tmp_path):
        # 2.0 ** 1999 overflows a float; the window check stops at layer 3
        out = tmp_path / "run"
        run = run_sdgl("train", "--data", synth_dir / "data.csv", "--layers", 2000,
                       "--out-dir", out)
        assert run.returncode == EXIT_USAGE
        [line] = run.stderr.splitlines()
        assert line.startswith("ERROR sdgl: window: "), run.stderr
        assert not out.exists()

    def test_invalid_hyperparameter(self, synth_dir, tmp_path):
        assert main(["train", "--data", str(synth_dir / "data.csv"),
                     "--momentum", "1.5", "--out-dir", str(tmp_path)]) == EXIT_USAGE

    @pytest.mark.parametrize("heads", ["0", "-1"])
    def test_bad_head_count_writes_nothing(self, synth_dir, tmp_path, caplog, heads):
        out = tmp_path / "run"
        assert main(["train", "--data", str(synth_dir / "data.csv"),
                     "--heads", heads, "--out-dir", str(out)]) == EXIT_USAGE
        assert "heads" in caplog.text
        assert not (out / "epochs.csv").exists()

    def test_unknown_ablation_rejected_by_parser(self, synth_dir, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["train", "--data", str(synth_dir / "data.csv"),
                  "--ablate", "everything", "--out-dir", str(tmp_path)])
        assert exc.value.code == EXIT_USAGE

    def test_malformed_csv_is_usage_error(self, tmp_path, caplog):
        bad = tmp_path / "bad.csv"
        out = tmp_path / "run"
        for text, fault in (
                ("a,b\n1,2\n3,oops\n", "non-numeric cell at row 2, column 2: 'oops'"),
                ("a,b\n1,2\n3,nan\n", "non-finite values in rows [2] (data rows, counted from 1)"),
                ("a\n1\n2\n", "dataset must be T x N with N >= 2, got (2, 1)")):
            caplog.clear()
            bad.write_text(text)
            assert main(["train", "--data", str(bad), "--out-dir", str(out)]) == EXIT_USAGE, text
            assert error_lines(caplog) == [f"{bad}: {fault}"]
            assert not out.exists()

    def test_csv_not_utf8_is_usage_error(self, tmp_path):
        bad = tmp_path / "latin1.csv"
        bad.write_bytes("a,b\n1,2\n3,4é\n".encode("latin-1"))
        out = tmp_path / "run"
        run = run_sdgl("train", "--data", bad, "--out-dir", out)
        assert run.returncode == EXIT_USAGE
        assert run.stderr.splitlines() == [
            f"ERROR sdgl: {bad}: not UTF-8 text: cannot decode byte 0xe9 (invalid continuation byte)"]
        assert not out.exists()


class TestEval:
    def test_text_and_json_agree(self, synth_dir, train_dir, tmp_path, capsys):
        code = main([
            "eval", "--checkpoint", str(train_dir / "checkpoint.sdgl"),
            "--data", str(synth_dir / "data.csv"), "--split", "test",
            "--out-dir", str(tmp_path), "--format", "json",
        ])
        assert code == EXIT_OK
        stdout = capsys.readouterr().out
        report = json.loads(stdout)
        on_disk = json.loads((tmp_path / "metrics.json").read_text())
        assert report == on_disk
        text = (tmp_path / "metrics.txt").read_text()
        for name in ("MAE", "RMSE"):
            line = next(l for l in text.splitlines() if l.startswith(f"average.{name}:"))
            assert float(line.split(": ")[1]) == report["average"][name]
        assert len(report["per_horizon"]) == 3

    def test_node_count_mismatch(self, train_dir, tmp_path):
        code = main(["synth", "--nodes", "7", "--steps", "150",
                     "--out-dir", str(tmp_path / "other")])
        assert code == EXIT_OK
        code = main([
            "eval", "--checkpoint", str(train_dir / "checkpoint.sdgl"),
            "--data", str(tmp_path / "other" / "data.csv"),
            "--out-dir", str(tmp_path),
        ])
        assert code == EXIT_USAGE

    def test_export_graphs_node_count_mismatch(self, train_dir, tmp_path, caplog):
        code = main(["synth", "--nodes", "7", "--steps", "150",
                     "--out-dir", str(tmp_path / "other")])
        assert code == EXIT_OK
        code = main([
            "export-graphs", "--checkpoint", str(train_dir / "checkpoint.sdgl"),
            "--data", str(tmp_path / "other" / "data.csv"),
            "--out-dir", str(tmp_path / "graphs"),
        ])
        assert code == EXIT_USAGE
        assert "node-count mismatch: checkpoint has" in caplog.text
        assert "dataset has 7" in caplog.text
        assert not (tmp_path / "graphs").exists()

    def test_corrupt_checkpoint(self, synth_dir, train_dir, tmp_path, caplog):
        bad = tmp_path / "c.sdgl"
        good = (train_dir / "checkpoint.sdgl").read_bytes()
        for content in (b"garbage not a checkpoint", good[: len(good) // 2]):
            caplog.clear()
            bad.write_bytes(content)
            code = main([
                "eval", "--checkpoint", str(bad),
                "--data", str(synth_dir / "data.csv"), "--out-dir", str(tmp_path / "eval"),
            ])
            assert code == EXIT_RUNTIME
            [line] = error_lines(caplog)
            assert line.startswith(f"{bad}: ") and "\n" not in line, line

    @pytest.mark.parametrize("extra", [1, 22])
    def test_trailing_bytes_after_checkpoint(self, synth_dir, train_dir, tmp_path, caplog, extra):
        raw = (train_dir / "checkpoint.sdgl").read_bytes()
        bad = tmp_path / "c.sdgl"
        bad.write_bytes(raw + b"\x00" * extra)
        code = main([
            "eval", "--checkpoint", str(bad),
            "--data", str(synth_dir / "data.csv"), "--out-dir", str(tmp_path / "eval"),
        ])
        assert code == EXIT_RUNTIME == 1
        size = len(raw) - 16 - int.from_bytes(raw[8:16], "little")
        [line] = error_lines(caplog)
        assert line == f"{bad}: payload is {size + extra} bytes, its config needs {size}", line

    def test_checkpoint_of_format_1(self, synth_dir, tmp_path):
        # a file the earlier format wrote fails by its version; retrain to use it
        model = SDGLModel(ModelConfig(n_nodes=5, embed_dim=8, heads=2, channels=8))
        bad, out = tmp_path / "c.sdgl", tmp_path / "eval"
        bad.write_bytes(format_1_bytes(model, Scaler(np.zeros(5), np.ones(5))))
        run = run_sdgl("eval", "--checkpoint", bad, "--data", synth_dir / "data.csv",
                       "--out-dir", out)
        assert run.returncode == EXIT_RUNTIME
        assert run.stderr.splitlines() == [f"ERROR sdgl: {bad}: unsupported format version 1"]
        assert not out.exists()

    @pytest.mark.parametrize("field,value,named", [
        ("crc32", None, "header field 'crc32'"),
        # the whole header, nested past the JSON parser's depth limit
        pytest.param(None, b"[" * 200_000,
                     "header is nested past the JSON parser's recursion depth limit",
                     id="header-nested"),
        ("config", {"heads": "4"}, "header field 'config'"),
        # checked against the payload's length before a 3000-node model is built
        pytest.param("config", {"n_nodes": 3000},
                     "payload is {payload} bytes, its config needs 144504744", id="config-n_nodes"),
    ])
    def test_checkpoint_header_schema_error(self, synth_dir, train_dir, tmp_path, caplog,
                                            field, value, named):
        raw = (train_dir / "checkpoint.sdgl").read_bytes()
        hlen = int.from_bytes(raw[8:16], "little")
        header = json.loads(raw[16 : 16 + hlen])
        if isinstance(value, dict):
            header[field].update(value)
        elif field:
            header[field] = value
        blob = value if isinstance(value, bytes) else json.dumps(header).encode()
        bad = tmp_path / "c.sdgl"
        bad.write_bytes(raw[:8] + len(blob).to_bytes(8, "little") + blob + raw[16 + hlen :])
        code = main([
            "eval", "--checkpoint", str(bad),
            "--data", str(synth_dir / "data.csv"), "--out-dir", str(tmp_path / "eval"),
        ])
        assert code == EXIT_RUNTIME
        [line] = error_lines(caplog)
        named = named.format(payload=len(raw) - 16 - hlen)
        assert line.startswith(f"{bad}: {named}") and "\n" not in line, line

    def test_ablation_checkpoint_with_a_tensor_it_does_not_read(self, synth_dir, tmp_path,
                                                                 caplog):
        # a no_ifm header over the full model's payload, which also holds the
        # fusion gate tensors no_ifm does not read, is refused by its length
        settings = dict(n_nodes=5, embed_dim=8, heads=2, channels=8)
        files = {}
        for ablation in ((), ("no_ifm",)):
            model = SDGLModel(ModelConfig(**settings, ablation=ablation))
            files[ablation] = tmp_path / f"{'-'.join(ablation) or 'full'}.sdgl"
            checkpoint.save(files[ablation], model, Scaler(np.zeros(5), np.ones(5)))
        full, ablated = (f.read_bytes() for f in files.values())
        hlen, full_hlen = (int.from_bytes(raw[8:16], "little") for raw in (ablated, full))
        header = json.loads(ablated[16 : 16 + hlen])
        payload = full[16 + full_hlen :]
        header["crc32"] = zlib.crc32(payload)
        blob = json.dumps(header).encode()
        bad = tmp_path / "c.sdgl"
        bad.write_bytes(ablated[:8] + len(blob).to_bytes(8, "little") + blob + payload)
        need = len(ablated) - 16 - hlen
        assert len(payload) > need
        message = f"{bad}: payload is {len(payload)} bytes, its config needs {need}"
        with pytest.raises(checkpoint.CheckpointError) as exc:
            checkpoint.load(bad)
        assert str(exc.value) == message
        code = main([
            "eval", "--checkpoint", str(bad),
            "--data", str(synth_dir / "data.csv"), "--out-dir", str(tmp_path / "eval"),
        ])
        assert code == EXIT_RUNTIME
        assert error_lines(caplog) == [message]
        assert not (tmp_path / "eval").exists()


class TestExportGraphs:
    def test_static_and_dynamic_csvs(self, synth_dir, train_dir, tmp_path):
        code = main([
            "export-graphs", "--checkpoint", str(train_dir / "checkpoint.sdgl"),
            "--data", str(synth_dir / "data.csv"),
            "--windows", "0", "5", "--threshold", "0.1",
            "--out-dir", str(tmp_path),
        ])
        assert code == EXIT_OK
        static = load_csv(tmp_path / "static_adjacency.csv").values
        np.testing.assert_allclose(static.sum(axis=1), 1.0, atol=1e-12)
        for idx in (0, 5):
            dyn = load_csv(tmp_path / f"dynamic_adjacency_{idx:06d}.csv").values
            np.testing.assert_allclose(dyn.sum(axis=1), 1.0, atol=1e-12)
        edges = (tmp_path / "static_edges.csv").read_text().splitlines()
        assert edges[0] == "source,target,weight"
        rows = [line.split(",") for line in edges[1:]]
        # exactly the entries above the threshold, in row-major order
        assert [(int(i), int(j)) for i, j, _ in rows] == [
            (i, j) for i in range(5) for j in range(5) if static[i, j] > 0.1
        ]
        for i, j, w in rows:
            assert static[int(i), int(j)] == float(w)

    def test_window_out_of_range(self, synth_dir, train_dir, tmp_path):
        code = main([
            "export-graphs", "--checkpoint", str(train_dir / "checkpoint.sdgl"),
            "--data", str(synth_dir / "data.csv"),
            "--windows", "100000", "--out-dir", str(tmp_path / "graphs"),
        ])
        assert code == EXIT_USAGE
        assert not (tmp_path / "graphs").exists()

    def test_no_dynamic_branch_checkpoint(self, synth_dir, small_config, tmp_path):
        run = tmp_path / "run"
        code = main([
            "train", "--data", str(synth_dir / "data.csv"),
            "--config", str(small_config), "--epochs", "1",
            "--ablate", "no_dyadj", "--out-dir", str(run),
        ])
        assert code == EXIT_OK
        code = main([
            "export-graphs", "--checkpoint", str(run / "checkpoint.sdgl"),
            "--data", str(synth_dir / "data.csv"),
            "--windows", "0", "--out-dir", str(tmp_path / "graphs"),
        ])
        assert code == EXIT_USAGE
        assert not (tmp_path / "graphs").exists()
        # the static graph and its edges export without the dynamic branch
        code = main([
            "export-graphs", "--checkpoint", str(run / "checkpoint.sdgl"),
            "--data", str(synth_dir / "data.csv"),
            "--threshold", "0.1", "--out-dir", str(tmp_path / "graphs"),
        ])
        assert code == EXIT_OK
        edges = (tmp_path / "graphs" / "static_edges.csv").read_text().splitlines()
        assert edges[0] == "source,target,weight"

    def test_many_windows_match_single_exports_in_bounded_memory(self, train_dir, tmp_path):
        # 900 windows of a longer 5-node series: the whole forward runs on
        # slices of EVAL_BATCH windows, not on all of them at once
        assert main(["synth", "--nodes", "5", "--steps", "1000", "--seed", "4",
                     "--out-dir", str(tmp_path / "long")]) == EXIT_OK
        loaded = ["--checkpoint", str(train_dir / "checkpoint.sdgl"),
                  "--data", str(tmp_path / "long" / "data.csv")]
        tracemalloc.start()
        try:
            code = main(["export-graphs", *loaded, "--windows", *map(str, range(900)),
                         "--out-dir", str(tmp_path / "many")])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == EXIT_OK
        # 2.0 MB here; the whole model on all 900 windows at once peaked at 33 MB
        assert peak <= 8 * 2**20, peak
        for idx in (0, 127, 128, 899):
            name = f"dynamic_adjacency_{idx:06d}.csv"
            assert main(["export-graphs", *loaded, "--windows", str(idx),
                         "--out-dir", str(tmp_path / f"one{idx}")]) == EXIT_OK
            assert (tmp_path / "many" / name).read_bytes() == \
                (tmp_path / f"one{idx}" / name).read_bytes(), idx

    @pytest.mark.parametrize("indices", [list(range(130)), [140, 3, 77, 78, 12, 199]])
    def test_exports_are_the_graphs_forward_builds(self, train_dir, tmp_path, indices):
        # 130 consecutive windows are a span slice of 128 and one of 2; the scattered
        # ones run per window. Each file parses back to forward's matrix, bit for bit.
        assert main(["synth", "--nodes", "5", "--steps", "250", "--seed", "5",
                     "--out-dir", str(tmp_path / "long")]) == EXIT_OK
        code = main(["export-graphs", "--checkpoint", str(train_dir / "checkpoint.sdgl"),
                     "--data", str(tmp_path / "long" / "data.csv"),
                     "--windows", *map(str, indices), "--out-dir", str(tmp_path / "graphs")])
        assert code == EXIT_OK
        loaded = checkpoint.load(train_dir / "checkpoint.sdgl")
        cfg = loaded.model.config
        inputs = make_windows(load_csv(tmp_path / "long" / "data.csv").values,
                              cfg.window, cfg.horizon).inputs
        for start in range(0, len(indices), sdgl_model.EVAL_BATCH):
            chunk = indices[start : start + sdgl_model.EVAL_BATCH]
            x = loaded.scaler.transform_windows(inputs[chunk])
            want = loaded.model.forward(x).dynamic_graphs.values.data
            for idx, matrix in zip(chunk, want):
                got = load_csv(tmp_path / "graphs" / f"dynamic_adjacency_{idx:06d}.csv").values
                np.testing.assert_array_equal(got, matrix, err_msg=str(idx))


def test_success_leaves_no_temporary(synth_dir, train_dir, tmp_path):
    loaded = ["--checkpoint", str(train_dir / "checkpoint.sdgl"),
              "--data", str(synth_dir / "data.csv")]
    for _ in range(2):  # the second run moves the first one's files aside, then deletes them
        assert main(["eval", *loaded, "--out-dir", str(tmp_path / "eval")]) == EXIT_OK
    assert main(["export-graphs", *loaded, "--windows", "0", "3", "--threshold", "0.1",
                 "--out-dir", str(tmp_path / "graphs")]) == EXIT_OK
    for d in (synth_dir, train_dir, tmp_path / "eval", tmp_path / "graphs"):
        assert (d / "manifest.json").is_file()
        assert not list(d.glob(".*.tmp")) + list(d.glob(".*.old")), d


def test_manifest_times_each_phase(synth_dir, train_dir, tmp_path):
    loaded = ["--checkpoint", str(train_dir / "checkpoint.sdgl"),
              "--data", str(synth_dir / "data.csv")]
    assert main(["eval", *loaded, "--out-dir", str(tmp_path / "eval")]) == EXIT_OK
    assert main(["export-graphs", *loaded, "--windows", "0", "--out-dir",
                 str(tmp_path / "graphs")]) == EXIT_OK
    runs = {
        synth_dir: {"generate", "write"},
        train_dir: {"load", "windowing", "train", "write"},
        tmp_path / "eval": {"load", "windowing", "evaluate", "write"},
        tmp_path / "graphs": {"load", "windowing", "evaluate", "write"},
    }
    for d, phases in runs.items():
        manifest = json.loads((d / "manifest.json").read_text())
        seconds = manifest["phase_seconds"]
        assert set(seconds) == phases, d
        # disjoint stretches of the run, on the clock of its wall-clock time
        assert all(s >= 0 for s in seconds.values()), seconds
        assert sum(seconds.values()) <= manifest["wall_clock_seconds"], seconds


@pytest.mark.parametrize("command", ["eval", "export-graphs"])
def test_missing_checkpoint_is_a_usage_error(synth_dir, tmp_path, caplog, command):
    missing, out = tmp_path / "nope.sdgl", tmp_path / "out"
    code = main([command, "--checkpoint", str(missing), "--data", str(synth_dir / "data.csv"),
                 "--out-dir", str(out)])
    assert code == EXIT_USAGE
    assert error_lines(caplog) == [f"checkpoint file not found: {missing}"]
    assert not out.exists()


def test_sdgl_log_level(tmp_path):
    synth = ("synth", "--nodes", 3, "--steps", 40)
    # not a level name: the default INFO, not a format string handed to basicConfig
    run = run_sdgl(*synth, "--out-dir", tmp_path / "a", env={"SDGL_LOG": "BASIC_FORMAT"})
    assert run.returncode == EXIT_OK, run.stderr
    assert run.stderr.startswith("INFO sdgl: synth: wrote"), run.stderr
    run = run_sdgl(*synth, "--out-dir", tmp_path / "b", env={"SDGL_LOG": "warning"})
    assert run.returncode == EXIT_OK and run.stderr == ""
