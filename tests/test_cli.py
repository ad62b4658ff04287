import csv
import json
import math
from pathlib import Path

import numpy as np
import pytest

from roomsense import frames
from roomsense.cli import main
from roomsense.evaluation import NO_PREDICTION, PredictionTrack
from roomsense.frames import CSV_BLOCK_ROWS, parse_frame
from roomsense.pipeline import WindowSet


def run(args):
    return main(args)


@pytest.fixture(scope="module")
def chain(tmp_path_factory):
    """Small end-to-end stage chain shared by the read-only CLI tests."""
    root = tmp_path_factory.mktemp("chain")

    def p(name):
        return str(root / name)

    scenario = '{"n_samples":1000,"seed":3,"missing_runs":2}'
    assert run(["synth", "--set", f"scenario={scenario}", "--out", p("synth")]) == 0
    assert run(["clean", "--set", f"in={p('synth')}/frame.csv",
                "--out", p("clean")]) == 0
    assert run(["sample", "--set", f"in={p('clean')}/clean.csv",
                "--set", 'channels=["co2","oxygen","sound","o3"]',
                "--set", "undersample_k=20", "--out", p("sample")]) == 0
    assert run(["split", "--set", f"in={p('sample')}/windows", "--seed", "4",
                "--out", p("split")]) == 0
    assert run(["train", "--set", f"train_windows={p('split')}/train",
                "--set", f"valid_windows={p('split')}/valid",
                "--set", 'model={"kind":"fcn","filters":[8,8],"kernels":[5,3]}',
                "--set", 'train={"epochs":3,"early_stopping":false}',
                "--seed", "5", "--out", p("train")]) == 0
    assert run(["eval", "--set", f"checkpoint={p('train')}/model",
                "--set", f"scaler={p('train')}/scaler.json",
                "--set", f"windows={p('split')}/test", "--out", p("eval")]) == 0
    return root


class TestStageChain:
    def test_artifacts_exist(self, chain):
        for rel in ("synth/frame.csv", "synth/scenario.json", "clean/clean.csv",
                    "sample/windows.bin", "sample/windows.json",
                    "split/train.bin", "split/valid.bin", "split/test.bin",
                    "train/model.json", "train/model.bin", "train/scaler.json",
                    "train/history.json", "train/history.csv", "train/timing.csv",
                    "eval/metrics.json", "eval/confusion.json", "eval/metrics.csv",
                    "eval/confusion.csv"):
            assert (chain / rel).exists(), rel

    def test_every_outdir_has_resolved_config(self, chain):
        for stage in ("synth", "clean", "sample", "split", "train", "eval"):
            doc = json.loads((chain / stage / "config.resolved.json").read_text())
            assert doc["_meta"]["command"] == stage
            assert "version" in doc["_meta"]

    def test_rerun_from_resolved_config_reproduces_outputs(self, chain, tmp_path):
        rerun = tmp_path / "rerun"
        code = run(["train", "--config", str(chain / "train/config.resolved.json"),
                    "--out", str(rerun)])
        assert code == 0
        for rel in ("model.bin", "model.json", "history.json", "scaler.json"):
            assert (rerun / rel).read_bytes() == (chain / "train" / rel).read_bytes()

    def test_predict_smooth_pca(self, chain):
        p = lambda name: str(chain / name)
        assert run(["predict", "--set", f"checkpoint={p('train')}/model",
                    "--set", f"scaler={p('train')}/scaler.json",
                    "--set", f"in={p('clean')}/clean.csv", "--out", p("predict")]) == 0
        assert run(["smooth", "--set", f"track={p('predict')}/track.json",
                    "--set", "width=3", "--out", p("smooth")]) == 0
        assert run(["pca", "--set", f"checkpoint={p('train')}/model",
                    "--set", f"scaler={p('train')}/scaler.json",
                    "--set", f"windows={p('split')}/test", "--out", p("pca")]) == 0
        assert (chain / "predict/track.csv").exists()
        assert (chain / "smooth/track.json").exists()
        assert (chain / "pca/projection.csv").exists()

    def test_report_missing_correlate_select(self, chain):
        p = lambda name: str(chain / name)
        assert run(["report-missing", "--set", f"in={p('synth')}/frame.csv",
                    "--out", p("missing")]) == 0
        assert run(["correlate", "--set", f"in={p('clean')}/clean.csv",
                    "--out", p("corr")]) == 0
        assert run(["select-features", "--set", f"correlation={p('corr')}/correlation.json",
                    "--out", p("feat")]) == 0
        features = json.loads((chain / "feat/features.json").read_text())
        assert 1 <= len(features["features"]) <= 17


class TestTrackWriter:
    """``predict`` and ``smooth`` format each track column once per block,
    for ``track.json`` and ``track.csv`` together."""

    @pytest.fixture
    def calls(self, monkeypatch):
        calls = []
        format_cells = frames.format_cells

        def counted(column):
            calls.append(len(column))
            return format_cells(column)

        monkeypatch.setattr(frames, "format_cells", counted)
        return calls

    @staticmethod
    def one_pass(out: Path) -> int:
        doc = json.loads((out / "track.json").read_text())
        blocks = math.ceil(len(doc["timestamps"]) / CSV_BLOCK_ROWS)
        return (1 + 2 * len(doc["classes"])) * blocks

    def test_smooth(self, tmp_path, calls):
        n = 2 * CSV_BLOCK_ROWS + 7
        probs = np.random.default_rng(0).random((2, n))
        probs[:, ::5] = np.nan
        decs = np.where(np.isnan(probs), NO_PREDICTION, probs >= 0.5).astype(np.int8)
        track = PredictionTrack(120 * np.arange(n), ("person", "window_open"), probs, decs, 0.5)
        json_text, csv_text = track.texts()
        (tmp_path / "track.json").write_text(json_text)
        calls.clear()
        out = tmp_path / "smooth"
        assert run(["smooth", "--set", f"track={tmp_path}/track.json", "--set", "width=1",
                    "--out", str(out)]) == 0
        assert len(calls) == self.one_pass(out) == 5 * 3
        # width 1 flips nothing, so both texts come back unchanged
        assert (out / "track.json").read_text() == json_text
        assert (out / "track.csv").read_text() == csv_text

    def test_predict(self, chain, tmp_path, calls):
        out = tmp_path / "predict"
        assert run(["predict", "--set", f"checkpoint={chain}/train/model",
                    "--set", f"scaler={chain}/train/scaler.json",
                    "--set", f"in={chain}/clean/clean.csv", "--out", str(out)]) == 0
        assert len(calls) == self.one_pass(out) > 0

    def test_class_names_with_comma_and_quote_keep_the_csv_header_whole(self, tmp_path):
        names = ("a,b", 'q"x')
        probs = np.array([[0.25, np.nan, 0.75], [0.5, 0.125, np.nan]])
        decs = np.where(np.isnan(probs), NO_PREDICTION, probs >= 0.5).astype(np.int8)
        track = PredictionTrack(120 * np.arange(3), names, probs, decs, 0.5)
        (tmp_path / "track.json").write_text(track.to_json())
        out = tmp_path / "smooth"
        assert run(["smooth", "--set", f"track={tmp_path}/track.json", "--out", str(out)]) == 0
        header, *rows = read_csv(out / "track.csv")
        assert header == ["timestamp", "prob_a,b", "decision_a,b", 'prob_q"x', 'decision_q"x']
        assert {len(row) for row in rows} == {1 + 2 * len(names)}


def read_csv(path: Path) -> list[list[str]]:
    with open(path, newline="", encoding="utf-8") as f:
        return list(csv.reader(f))


@pytest.fixture(scope="module")
def reports(chain):
    """``tune`` and ``pca`` over the chain's windows and model, for their report files."""
    assert run(["tune", "--set", f"train_windows={chain}/split/train",
                "--set", f"valid_windows={chain}/split/valid", "--set", "model_kind=fcn",
                "--set", 'model={"kernels":[3]}', "--set", 'space={"filters0":[4,8]}',
                "--set", "trials=2", "--set", 'train={"epochs":1,"early_stopping":false}',
                "--out", str(chain / "tune")]) == 0
    assert run(["pca", "--set", f"checkpoint={chain}/train/model",
                "--set", f"scaler={chain}/train/scaler.json",
                "--set", f"windows={chain}/split/test", "--out", str(chain / "pca")]) == 0
    return chain


class TestReports:
    """Each report CSV read back with ``csv.reader``: its numbers are its JSON
    sibling's, and every cell of ``projection.csv`` and ``timing.csv`` is a number."""

    def test_history_csv(self, chain):
        doc = json.loads((chain / "train/history.json").read_text())
        header, *rows = read_csv(chain / "train/history.csv")
        assert header == ["epoch", "train_loss", "valid_loss", "valid_accuracy", "learning_rate"]
        assert len(rows) == len(doc["train_loss"]) == 3
        for epoch, row in enumerate(rows):
            assert int(row[0]) == epoch + 1
            for key, cell in zip(header[1:], row[1:]):
                value = doc[key][epoch]
                assert (cell == "") if value is None else (float(cell) == value), (key, cell)

    def test_metrics_and_confusion_csv(self, chain):
        metrics = json.loads((chain / "eval/metrics.json").read_text())["classes"]
        header, *rows = read_csv(chain / "eval/metrics.csv")
        assert header == ["class", "precision", "recall", "f1", "support"]
        assert [row[0] for row in rows] == list(metrics) == ["person", "window_open"]
        for name, *cells in rows:
            got = dict(zip(header[1:], map(float, cells)))
            assert got == metrics[name] and cells[-1] == str(metrics[name]["support"])
        confusion = json.loads((chain / "eval/confusion.json").read_text())
        header, *rows = read_csv(chain / "eval/confusion.csv")
        assert header == ["class", "tp", "fp", "fn", "tn"]
        assert {name: dict(zip(header[1:], map(int, cells))) for name, *cells in rows} == confusion

    def test_trials_csv(self, reports):
        doc = json.loads((reports / "tune/trials.json").read_text())
        header, *rows = read_csv(reports / "tune/trials.csv")
        assert header == ["trial", "f1_mean", "filters0"]
        assert len(rows) == len(doc["trials"]) == 2
        for row, trial in zip(rows, doc["trials"]):
            assert (int(row[0]), float(row[1]), int(row[2])) == (
                trial["index"], trial["f1_mean"], trial["params"]["filters0"])

    @pytest.mark.parametrize("rel,header,rows", [
        ("train/timing.csv", ["epoch", "wall_seconds"], 3),
        ("tune/timing.csv", ["trial", "wall_seconds"], 2),
        ("pca/projection.csv", ["x", "y", "label"], None)])
    def test_every_cell_is_a_number(self, reports, rel, header, rows):
        got, *body = read_csv(reports / rel)
        assert got == header
        if rows is None:  # one point per test window
            rows = WindowSet.load(reports / "split/test").X.shape[0]
        assert len(body) == rows > 0
        assert all(len(row) == len(header) for row in body)
        for row in body:
            for cell in row:
                float(cell)

    def test_split_by_time(self, chain, tmp_path):
        frame = parse_frame((chain / "clean/clean.csv").read_bytes())
        cut = int(frame.timestamps[len(frame) // 3])
        out = tmp_path / "split"
        assert run(["split", "--set", "mode=time", "--set", f"in={chain}/clean/clean.csv",
                    "--set", f"cut_timestamp={cut}", "--out", str(out)]) == 0
        train = parse_frame((out / "train.csv").read_bytes())
        test = parse_frame((out / "test.csv").read_bytes())
        assert train.timestamps[-1] < cut == test.timestamps[0]
        assert len(train) == len(frame) // 3 and len(train) + len(test) == len(frame)
        for part in (train, test):
            assert (part.channel_names, part.label_names) == (frame.channel_names,
                                                              frame.label_names)
        assert np.array_equal(np.concatenate([train.values, test.values], axis=1),
                              frame.values, equal_nan=True)
        assert np.array_equal(np.concatenate([train.label_values, test.label_values], axis=1),
                              frame.label_values)


class TestValidation:
    @pytest.mark.parametrize("argv", [["clean", "--set", "in=x.csv", "--seed", "5"],
                                      ["smooth", "--set", "track=t.json", "--seed", "3"]])
    def test_seed_on_a_command_without_a_seed_key_exit_1(self, tmp_path, capsys, argv):
        out = tmp_path / "never"
        assert run([*argv, "--out", str(out)]) == 1
        assert "'seed'" in capsys.readouterr().err
        assert not out.exists()

    def test_dry_run_unknown_key_exit_1_no_files(self, tmp_path):
        out = tmp_path / "never"
        code = run(["synth", "--set", "bogus_key=3", "--dry-run", "--out", str(out)])
        assert code == 1
        assert not out.exists()

    def test_dry_run_valid_config_writes_nothing(self, tmp_path):
        out = tmp_path / "never"
        code = run(["synth", "--dry-run", "--out", str(out)])
        assert code == 0
        assert not out.exists()

    def test_unknown_key_in_config_file_names_key(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text('{"wat": 1}')
        code = run(["clean", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 1
        assert "wat" in capsys.readouterr().err

    def test_missing_required_key_exit_1(self, tmp_path):
        assert run(["clean", "--out", str(tmp_path / "o")]) == 1

    def test_missing_input_file_exit_2(self, tmp_path):
        assert run(["clean", "--set", "in=/nonexistent.csv",
                    "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize("row,where", [
        (b"1700000120,410.5,99999999999999999999", "row 2, column 'person'"),
        (b"17000\xff00120,410.5,1", "row 2, column 'timestamp'"),
        (b"1700000120,41\xe9.5,0", "row 2, column 'co2'")])
    def test_out_of_range_or_undecodable_cell_exit_2(self, tmp_path, capsys, row, where):
        frame = tmp_path / "frame.csv"
        frame.write_bytes(b"timestamp,co2,person\n1700000000,400.0,0\n" + row + b"\n")
        assert run(["clean", "--set", f"in={frame}", "--out", str(tmp_path / "o")]) == 2
        assert where in capsys.readouterr().err

    def test_clean_refuses_an_infinite_cell_exit_2_without_output(self, tmp_path, capsys):
        """The reader takes ``inf``; interpolating next to it cannot fill a cell."""
        frame = tmp_path / "frame.csv"
        frame.write_bytes(b"timestamp,co2,person\n1700000000,400.0,0\n1700000120,inf,1\n"
                          b"1700000240,,1\n1700000360,-inf,0\n1700000480,420.0,0\n")
        out = tmp_path / "o"
        assert run(["clean", "--set", f"in={frame}", "--out", str(out)]) == 2
        assert "channel 'co2' has an infinite cell at timestamp 1700000120" in \
            capsys.readouterr().err
        assert not out.exists()

    def test_fingerprint_mismatch_exit_2(self, chain, tmp_path):
        wrong = "0" * 64
        code = run(["eval", "--set", f"checkpoint={chain}/train/model",
                    "--set", f"scaler={chain}/train/scaler.json",
                    "--set", f"windows={chain}/split/test",
                    "--set", f"expect_fingerprint={wrong}",
                    "--out", str(tmp_path / "o")])
        assert code == 2

    @pytest.mark.parametrize("command,data_key,data", [
        ("predict", "in", "clean/clean.csv"), ("pca", "windows", "split/test")])
    def test_predict_pca_check_fingerprint(self, chain, tmp_path, capsys, command,
                                           data_key, data):
        right = json.loads((chain / "train/model.json").read_text())["fingerprint"]
        for expect, code in ((right, 0), ("0" * 64, 2)):
            assert run([command, "--set", f"checkpoint={chain}/train/model",
                        "--set", f"scaler={chain}/train/scaler.json",
                        "--set", f"{data_key}={chain}/{data}",
                        "--set", f"expect_fingerprint={expect}",
                        "--out", str(tmp_path / "o")]) == code
        assert "fingerprint mismatch" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["eval", "pca"])
    def test_non_finite_window_exit_2(self, chain, tmp_path, capsys, command):
        windows = WindowSet.load(chain / "split/test")
        windows.X[3, 1, 2] = float("nan")
        windows.save(tmp_path / "test")
        code = run([command, "--set", f"checkpoint={chain}/train/model",
                    "--set", f"scaler={chain}/train/scaler.json",
                    "--set", f"windows={tmp_path}/test", "--out", str(tmp_path / "o")])
        assert code == 2
        assert "non-finite" in capsys.readouterr().err
        assert not (tmp_path / "o" / "metrics.json").exists()
        assert not (tmp_path / "o" / "pca.json").exists()

    @pytest.mark.parametrize("command", ["eval", "pca"])
    def test_zero_window_set_exit_2(self, chain, tmp_path, capsys, command):
        WindowSet.load(chain / "split/test").take(np.arange(0)).save(tmp_path / "test")
        code = run([command, "--set", f"checkpoint={chain}/train/model",
                    "--set", f"scaler={chain}/train/scaler.json",
                    "--set", f"windows={tmp_path}/test", "--out", str(tmp_path / "o")])
        assert code == 2
        assert "zero windows" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("scaler", ["standard", "minmax"])
    @pytest.mark.parametrize("command", ["train", "tune"])
    @pytest.mark.parametrize("empty", ["train", "valid"])
    def test_zero_window_training_set_exit_2(self, chain, tmp_path, capsys, command, empty,
                                             scaler):
        WindowSet.load(chain / "split/valid").take(np.arange(0)).save(tmp_path / "empty")
        sets = {key: f"{chain}/split/{key}" for key in ("train", "valid")}
        sets[empty] = f"{tmp_path}/empty"
        code = run([command, "--set", f"train_windows={sets['train']}",
                    "--set", f"valid_windows={sets['valid']}", "--set", 'model={"kind":"fcn"}',
                    "--set", f"scaler_kind={scaler}",
                    "--set", 'train={"epochs":1}', "--out", str(tmp_path / "o")])
        assert code == 2
        what = "training" if empty == "train" else "validation"
        assert f"the {what} set holds zero windows" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("scaler", ["standard", "minmax"])
    def test_zero_window_pretraining_corpus_exit_2(self, chain, tmp_path, capsys, scaler):
        WindowSet.load(chain / "sample/windows").take(np.arange(0)).save(tmp_path / "empty")
        code = run(["pretrain-ae", "--set", f"windows={tmp_path}/empty",
                    "--set", f"scaler_kind={scaler}", "--out", str(tmp_path / "o")])
        assert code == 2
        assert "the training set holds zero windows" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_time_split_of_a_header_only_csv_exit_2(self, tmp_path, capsys):
        (tmp_path / "empty.csv").write_text("timestamp,co2\n")
        code = run(["split", "--set", "mode=time", "--set", "cut_timestamp=5",
                    "--set", f"in={tmp_path}/empty.csv", "--out", str(tmp_path / "o")])
        assert code == 2
        assert "zero rows" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_damaged_checkpoint_exit_2(self, chain, tmp_path):
        for rel in ("model.json", "model.bin"):
            (tmp_path / rel).write_bytes((chain / "train" / rel).read_bytes())
        blob = tmp_path / "model.bin"
        blob.write_bytes(blob.read_bytes()[:-8])
        code = run(["eval", "--set", f"checkpoint={tmp_path}/model",
                    "--set", f"scaler={chain}/train/scaler.json",
                    "--set", f"windows={chain}/split/test",
                    "--out", str(tmp_path / "o")])
        assert code == 2

    def test_short_window_set_exit_2(self, chain, tmp_path):
        for rel in ("test.json", "test.bin"):
            (tmp_path / rel).write_bytes((chain / "split" / rel).read_bytes())
        blob = tmp_path / "test.bin"
        blob.write_bytes(blob.read_bytes()[:-3])
        code = run(["eval", "--set", f"checkpoint={chain}/train/model",
                    "--set", f"scaler={chain}/train/scaler.json",
                    "--set", f"windows={tmp_path}/test",
                    "--out", str(tmp_path / "o")])
        assert code == 2

    def test_divergence_exit_3(self, chain, tmp_path):
        # the BCE path is overflow-proof by construction, so divergence is
        # provoked through the MSE reconstruction loss
        import numpy as np
        with np.errstate(over="ignore", invalid="ignore"):
            code = run(["pretrain-ae", "--set", f"windows={chain}/sample/windows",
                        "--set", 'model={"encoder_hidden":[5,4],"latent":2}',
                        "--set", 'train={"epochs":2,"lr_max":1e200,"early_stopping":false}',
                        "--out", str(tmp_path / "o")])
        assert code == 3

    @pytest.fixture
    def track_doc(self, chain, tmp_path):
        out = tmp_path / "predict"
        assert run(["predict", "--set", f"checkpoint={chain}/train/model",
                    "--set", f"scaler={chain}/train/scaler.json",
                    "--set", f"in={chain}/clean/clean.csv", "--out", str(out)]) == 0
        return json.loads((out / "track.json").read_text())

    def smooth_doc(self, doc, tmp_path, capsys):
        path = tmp_path / "damaged.json"
        path.write_text(json.dumps(doc))
        code = run(["smooth", "--set", f"track={path}", "--out", str(tmp_path / "o")])
        return code, capsys.readouterr().err

    @pytest.mark.parametrize("key", ["threshold", "timestamps", "classes",
                                     "probabilities", "decisions"])
    def test_track_missing_key_exit_2(self, track_doc, tmp_path, capsys, key):
        del track_doc[key]
        code, err = self.smooth_doc(track_doc, tmp_path, capsys)
        assert code == 2
        assert repr(key) in err
        assert not (tmp_path / "o" / "track.json").exists()

    @pytest.mark.parametrize("key,value", [
        ("threshold", "0.5"), ("threshold", True), ("timestamps", [1.5, 2.5]),
        ("classes", "person"), ("probabilities", [0.1]), ("decisions", None),
    ])
    def test_track_wrong_type_exit_2(self, track_doc, tmp_path, capsys, key, value):
        track_doc[key] = value
        code, err = self.smooth_doc(track_doc, tmp_path, capsys)
        assert code == 2
        assert repr(key) in err

    def test_track_timestamp_out_of_range_exit_2(self, track_doc, tmp_path, capsys):
        track_doc["timestamps"][-1] = 2**70
        code, err = self.smooth_doc(track_doc, tmp_path, capsys)
        assert code == 2
        assert "'timestamps'" in err and "64 bits" in err

    @pytest.mark.parametrize("key,bad", [("probabilities", "0.3"), ("decisions", 2),
                                         ("decisions", 0.0)])
    def test_track_wrong_cell_type_exit_2(self, track_doc, tmp_path, capsys, key, bad):
        name = track_doc["classes"][0]
        track_doc[key][name][5] = bad
        code, err = self.smooth_doc(track_doc, tmp_path, capsys)
        assert code == 2
        assert f"{key}.{name!r}" in err

    @pytest.mark.parametrize("key", ["probabilities", "decisions"])
    def test_track_short_class_list_exit_2(self, track_doc, tmp_path, capsys, key):
        name = track_doc["classes"][-1]
        track_doc[key][name] = track_doc[key][name][:-1]
        code, err = self.smooth_doc(track_doc, tmp_path, capsys)
        assert code == 2
        assert f"{key}.{name!r}" in err and "'timestamps'" in err

    def test_env_outdir_override(self, chain, tmp_path, monkeypatch):
        target = tmp_path / "env_out"
        monkeypatch.setenv("ROOMSENSE_OUTDIR", str(target))
        assert run(["report-missing", "--set", f"in={chain}/synth/frame.csv",
                    "--out", str(tmp_path / "ignored")]) == 0
        assert (target / "missing.json").exists()


@pytest.fixture(scope="module")
def track(tmp_path_factory):
    """A three-timestamp track.json for ``smooth``."""
    probs = np.array([[0.25, 0.75, 0.5]])
    decisions = (probs >= 0.5).astype(np.int8)
    path = tmp_path_factory.mktemp("track") / "track.json"
    path.write_text(PredictionTrack(120 * np.arange(3), ("person",), probs, decisions,
                                    0.5).texts()[0])
    return path


class TestFailedRunMakesNoOutput:
    """A run that exits 1 leaves no ``--out`` directory, and ``--dry-run`` exits 1
    on the type and required-key errors a real run exits 1 on."""

    @pytest.mark.parametrize("argv, message", [
        (["clean", "--set", "in=CHAIN/synth/frame.csv", "--set", "edge_policy=bogus"],
         "edge_policy must be 'trim' or 'extend', got 'bogus'"),
        (["eval", "--set", "scaler=CHAIN/train/scaler.json", "--set", "windows=CHAIN/split/test"],
         "missing required config key 'checkpoint'"),
        (["sample", "--set", "in=CHAIN/clean/clean.csv", "--set", "length=0"],
         "length and stride must be >= 1"),
        (["split", "--set", "in=CHAIN/sample/windows", "--set", "mode=foo"],
         "split mode must be random|time, got 'foo'"),
        # the key is checked before the input is opened, so a missing input cannot mask it
        (["split", "--set", "in=CHAIN/missing.csv", "--set", "mode=time"],
         "missing required config key 'cut_timestamp'"),
        (["synth", "--set", "scenario=other"],
         """scenario must be "bundled" or a JSON object, got 'other'"""),
        (["smooth", "--set", "track=TRACK", "--set", "width=0"],
         "smoothing width must be >= 1"),
        (["eval", "--set", "checkpoint=CHAIN/train/model", "--set", "threshold=1.5",
          "--set", "scaler=CHAIN/train/scaler.json", "--set", "windows=CHAIN/split/test"],
         "threshold must lie in [0, 1], got 1.5"),
        (["train", "--set", "train_windows=CHAIN/split/train",
          "--set", "valid_windows=CHAIN/split/valid",
          "--set", 'model={"kind":"fcn","filters":[8,8],"kernels":[3]}'],
         "filters and kernels must have equal length >= 1"),
        (["predict", "--set", "checkpoint=CHAIN/train/model",
          "--set", "scaler=CHAIN/train/scaler.json", "--set", "in=CHAIN/clean/clean.csv",
          "--set", "length=-1"],
         "length must be >= 1, got -1"),
    ], ids=["clean edge_policy", "eval without checkpoint", "sample length", "split mode",
            "split time without cut_timestamp", "synth scenario", "smooth width",
            "eval threshold", "fcn filters and kernels", "predict length"])
    def test_config_error_exits_1_without_output(self, chain, track, tmp_path, capsys,
                                                 argv, message):
        out = tmp_path / "out"
        argv = [a.replace("CHAIN", str(chain)).replace("TRACK", str(track)) for a in argv]
        assert run([*argv, "--out", str(out)]) == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_negative_fleet_size_exits_1_naming_the_key(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert run(["synth", "--set", "fleet_devices=-2", "--out", str(out)]) == 1
        assert "'fleet_devices'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["smooth", "--set", "track=t.json", "--set", "out=5"],
        ["clean", "--out", "OUT"],
        ["smooth", "--set", "track=t.json", "--set", 'width="x"', "--out", "OUT"],
    ], ids=["out", "missing in", "width"])
    def test_dry_run_exits_1_on_a_type_or_required_key_error(self, tmp_path, capsys, argv):
        argv = [a.replace("OUT", str(tmp_path / "out")) for a in argv]
        assert run([*argv, "--dry-run"]) == 1
        assert "config ok" not in capsys.readouterr().out
        assert not (tmp_path / "out").exists()

    def test_missing_track_exits_2_without_resolved_config(self, tmp_path):
        out = tmp_path / "out"
        assert run(["smooth", "--set", f"track={tmp_path}/missing.json",
                    "--out", str(out)]) == 2
        assert not (out / "config.resolved.json").exists()


class TestDeterminism:
    def test_identical_configs_give_byte_identical_artifacts(self, chain, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert run(["train", "--set", f"train_windows={chain}/split/train",
                        "--set", f"valid_windows={chain}/split/valid",
                        "--set", 'model={"kind":"fcn","filters":[8],"kernels":[3]}',
                        "--set", 'train={"epochs":2,"early_stopping":false}',
                        "--seed", "9", "--out", str(out)]) == 0
            outs.append(out)
        for rel in ("model.bin", "model.json", "history.json", "history.csv",
                    "scaler.json"):
            assert (outs[0] / rel).read_bytes() == (outs[1] / rel).read_bytes(), rel

    def test_tune_runs_and_logs_trials(self, chain, tmp_path):
        out = tmp_path / "tune"
        assert run(["tune", "--set", f"train_windows={chain}/split/train",
                    "--set", f"valid_windows={chain}/split/valid",
                    "--set", "model_kind=fcn",
                    "--set", 'model={"kernels":[3]}',
                    "--set", 'space={"filters0":[4,8]}',
                    "--set", "trials=2",
                    "--set", 'train={"epochs":1,"early_stopping":false}',
                    "--seed", "3", "--out", str(out)]) == 0
        trials = json.loads((out / "trials.json").read_text())
        assert len(trials["trials"]) == 2
        assert trials["best"]["params"]["filters0"] in (4, 8)
        assert (out / "trials.csv").exists()
        timing = (out / "timing.csv").read_text().splitlines()
        assert timing[0] == "trial,wall_seconds"
        assert [line.split(",")[0] for line in timing[1:]] == ["0", "1"]
        assert all(float(line.split(",")[1]) > 0 for line in timing[1:])

    def test_tune_trials_json_byte_identical_across_runs(self, chain, tmp_path):
        docs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert run(["tune", "--set", f"train_windows={chain}/split/train",
                        "--set", f"valid_windows={chain}/split/valid",
                        "--set", "model_kind=lstm",
                        "--set", 'space={"hidden":[3,5],"dropout":[0.1,0.3]}',
                        "--set", "trials=2",
                        "--set", 'train={"epochs":1,"early_stopping":false}',
                        "--seed", "8", "--out", str(out)]) == 0
            docs.append((out / "trials.json").read_bytes())
        assert docs[0] == docs[1]
        assert b"wall_seconds" not in docs[0]

    def test_semi_supervised_stages(self, chain, tmp_path):
        # fleet corpus -> pretrain-ae -> train-head -> eval
        p = lambda name: str(tmp_path / name)
        scenario = '{"n_samples":220,"seed":6}'
        assert run(["synth", "--set", f"scenario={scenario}", "--set",
                    "fleet_devices=2", "--out", p("fleet")]) == 0
        fleet_csvs = sorted(Path(p("fleet"), "fleet").glob("*.csv"))
        assert len(fleet_csvs) == 2
        assert run(["sample", "--set", f"in={fleet_csvs[0]}", "--out", p("fw")]) == 0
        assert run(["pretrain-ae", "--set", f"windows={p('fw')}/windows",
                    "--set", 'model={"encoder_hidden":[6,5],"latent":3}',
                    "--set", 'train={"epochs":1,"early_stopping":false}',
                    "--seed", "2", "--out", p("ae")]) == 0
        # labelled windows on all 17 channels for the head
        assert run(["sample", "--set", f"in={chain}/clean/clean.csv",
                    "--set", "undersample_k=20", "--out", p("lab")]) == 0
        assert run(["split", "--set", f"in={p('lab')}/windows", "--seed", "8",
                    "--out", p("labsplit")]) == 0
        assert run(["train-head", "--set", f"encoder={p('ae')}/model",
                    "--set", f"scaler={p('ae')}/scaler.json",
                    "--set", f"train_windows={p('labsplit')}/train",
                    "--set", f"valid_windows={p('labsplit')}/valid",
                    "--set", 'head={"hidden":16}',
                    "--set", 'train={"epochs":2,"early_stopping":false}',
                    "--seed", "4", "--out", p("head")]) == 0
        assert run(["eval", "--set", f"checkpoint={p('head')}/model",
                    "--set", f"scaler={p('ae')}/scaler.json",
                    "--set", f"windows={p('labsplit')}/test",
                    "--out", p("heval")]) == 0
        metrics = json.loads(Path(p("heval"), "metrics.json").read_text())
        assert "person" in metrics["classes"]
