import json
import logging

import numpy as np
import pytest

from sdgl import checkpoint
from sdgl.cli import EXIT_OK, EXIT_RUNTIME, EXIT_USAGE, main
from sdgl.data import load_csv


def error_lines(caplog) -> list[str]:
    return [r.getMessage() for r in caplog.records if r.levelno >= logging.ERROR]


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
        for flags in (["--alpha", "1.5"], ["--steps", "0"], ["--period", "0"],
                      ["--noise", "-1"], ["--switch", "5:3"]):
            caplog.clear()
            assert main(["synth", *flags, "--out-dir", str(out)]) == EXIT_RUNTIME, flags
            [line] = error_lines(caplog)
            assert "\n" not in line
            assert not out.exists()


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

    def test_missing_data_file(self, tmp_path):
        assert main(["train", "--data", str(tmp_path / "nope.csv"),
                     "--out-dir", str(tmp_path)]) == EXIT_USAGE

    def test_malformed_config_file(self, synth_dir, tmp_path, caplog):
        bad = tmp_path / "bad.json"
        out = tmp_path / "run"
        for text in ("{not json", '{"foo": 1}', "[1, 2]", '{"heads": "4"}',
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

    def test_data_too_short_writes_nothing(self, tmp_path, caplog):
        assert main(["synth", "--nodes", "4", "--steps", "30",
                     "--out-dir", str(tmp_path / "synth")]) == EXIT_OK
        out = tmp_path / "run"
        assert main(["train", "--data", str(tmp_path / "synth" / "data.csv"),
                     "--out-dir", str(out)]) == EXIT_USAGE
        [line] = error_lines(caplog)
        assert "train split" in line and "\n" not in line, line
        assert not out.exists()

    def test_divergence_writes_nothing(self, synth_dir, tmp_path, caplog):
        cfg = tmp_path / "diverge.json"
        cfg.write_text(json.dumps({"learning_rate": 1e160, "epochs": 3, "embed_dim": 8,
                                   "heads": 2, "channels": 8, "batch_size": 16}))
        out = tmp_path / "run"
        with np.errstate(all="ignore"):
            code = main(["train", "--data", str(synth_dir / "data.csv"),
                         "--config", str(cfg), "--out-dir", str(out)])
        assert code == EXIT_RUNTIME
        [line] = error_lines(caplog)
        assert "last finite loss" in line and "\n" not in line, line
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

    def test_malformed_csv_is_usage_error(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b\n1,2\n3,oops\n")
        assert main(["train", "--data", str(bad), "--out-dir", str(tmp_path)]) == EXIT_USAGE


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
        bad = tmp_path / "c.sdgl"
        bad.write_bytes((train_dir / "checkpoint.sdgl").read_bytes() + b"\x00" * extra)
        code = main([
            "eval", "--checkpoint", str(bad),
            "--data", str(synth_dir / "data.csv"), "--out-dir", str(tmp_path / "eval"),
        ])
        assert code == EXIT_RUNTIME == 1
        [line] = error_lines(caplog)
        assert line == f"{bad}: {extra} unexpected bytes after the last record", line

    @pytest.mark.parametrize("field,value,named", [
        ("tensor_count", None, "header field 'tensor_count'"),
        ("step", "3", "header field 'step'"),
        ("config", {"heads": "4"}, "header field 'config'"),
    ])
    def test_checkpoint_header_schema_error(self, synth_dir, train_dir, tmp_path, caplog,
                                            field, value, named):
        raw = (train_dir / "checkpoint.sdgl").read_bytes()
        hlen = int.from_bytes(raw[8:16], "little")
        header = json.loads(raw[16 : 16 + hlen])
        if isinstance(value, dict):
            header[field].update(value)
        else:
            header[field] = value
        blob = json.dumps(header).encode()
        bad = tmp_path / "c.sdgl"
        bad.write_bytes(raw[:8] + len(blob).to_bytes(8, "little") + blob + raw[16 + hlen :])
        code = main([
            "eval", "--checkpoint", str(bad),
            "--data", str(synth_dir / "data.csv"), "--out-dir", str(tmp_path / "eval"),
        ])
        assert code == EXIT_RUNTIME
        [line] = error_lines(caplog)
        assert line.startswith(f"{bad}: {named}") and "\n" not in line, line


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
