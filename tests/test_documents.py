"""Damaged documents and config objects exit 1 or 2 with the key named, never crash.

Every JSON document one CLI stage writes and another reads, and every nested
config object, is damaged one key at a time (top-level and nested keys): the
key is deleted, or its value replaced by a string, ``true``, ``null`` and
``[[]]``. Each case runs the reading stage through ``cli.main`` in-process, so
an exception the CLI does not turn into an exit code fails the test with its
traceback. A case may succeed, or fail on the value's meaning, only when it
deletes a key that has a default or puts a scalar where a scalar of the same
JSON type was; every other case must exit 1 (config object) or 2 (document)
and its stderr must name every key on the damaged path.
"""

import copy
import itertools
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from roomsense.cli import main
from roomsense.errors import IntegrityError
from roomsense.nn.checkpoint import architecture_fingerprint
from roomsense.pca import PcaModel, pca_fit
from roomsense.rng import Rng
from roomsense.schema import parse, placeholder
from roomsense.synth import ScenarioConfig

DELETE = object()
REPLACEMENTS = ("x", True, None, [[]])
TRAIN = {"epochs": 1, "early_stopping": False}
LSTM = {"kind": "lstm", "in_channels": 3, "hidden": 3, "bidirectional": False,
        "dropout": 0.0, "classes": 2, "head_mode": "multi_label"}
ALL = "all"  # every key of a config object has a default


def run(argv, capsys):
    code = main([str(a) for a in argv])
    return code, capsys.readouterr().err


@pytest.fixture(scope="module")
def stages(tmp_path_factory):
    """One small run of every stage whose output another stage reads."""
    root = tmp_path_factory.mktemp("documents")

    def stage(*argv):
        assert main([str(a) for a in argv] + ["--out", str(root / argv[0])]) == 0

    stage("synth", "--set", 'scenario={"n_samples":300,"seed":4}')
    stage("clean", "--set", f"in={root}/synth/frame.csv")
    stage("sample", "--set", f"in={root}/clean/clean.csv", "--set", "length=5",
          "--set", 'channels=["co2","oxygen","sound"]')
    stage("train", "--set", f"train_windows={root}/sample/windows",
          "--set", f"valid_windows={root}/sample/windows",
          "--set", f"model={json.dumps(LSTM)}", "--set", f"train={json.dumps(TRAIN)}")
    stage("predict", "--set", f"checkpoint={root}/train/model", "--set", "length=5",
          "--set", f"scaler={root}/train/scaler.json", "--set", f"in={root}/clean/clean.csv")
    stage("correlate", "--set", f"in={root}/clean/clean.csv")
    stage("select-features", "--set", f"correlation={root}/correlate/correlation.json")
    stage("pretrain-ae", "--set", f"windows={root}/sample/windows",
          "--set", 'model={"encoder_hidden":[3,2],"latent":2}',
          "--set", f"train={json.dumps(TRAIN)}")
    return root


def key_paths(doc, prefix=()):
    """Every key path of a JSON object, into nested objects and a list's first object."""
    for key, value in doc.items():
        yield (*prefix, key)
        if isinstance(value, dict):
            yield from key_paths(value, (*prefix, key))
        elif isinstance(value, list) and value and isinstance(value[0], dict):
            yield from key_paths(value[0], (*prefix, key, 0))


def damage(doc, path, value):
    """A copy of ``doc`` with the key at ``path`` deleted or set, and its old value."""
    doc = copy.deepcopy(doc)
    parent = doc
    for step in path[:-1]:
        parent = parent[step]
    original = parent[path[-1]]
    if value is DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return doc, original


def fuzz(doc, argv_for, optional, capsys):
    """Run every damaged copy of ``doc``; return one line per case that broke the contract."""
    broken = []
    for path in key_paths(doc):
        for value in (DELETE, *REPLACEMENTS):
            bad, original = damage(doc, path, value)
            code, err = run(argv_for(bad, path), capsys)
            if value is DELETE:
                well_typed = optional == ALL or path in optional
            else:
                well_typed = type(value) is type(original) and not isinstance(value, list)
            named = all(step in err for step in path if isinstance(step, str))
            if not (code in (1, 2) and named or well_typed and code in (0, 1, 2)):
                label = "delete" if value is DELETE else f"set {value!r}"
                broken.append(f"{'.'.join(map(str, path))} {label}: exit {code}, {err.strip()!r}")
    return broken


def write_json(path: Path, doc) -> Path:
    path.write_text(json.dumps(doc))
    return path


def copy_with(src: Path, dst: Path, doc) -> Path:
    """``src``'s blob next to a damaged sidecar or manifest ``doc``; the stem to load."""
    dst.mkdir(parents=True, exist_ok=True)
    (dst / src.with_suffix(".bin").name).write_bytes(src.with_suffix(".bin").read_bytes())
    write_json(dst / src.with_suffix(".json").name, doc)
    return dst / src.stem


DOCUMENTS = ["model.json", "window sidecar", "scaler.json", "features.json",
             "correlation.json", "track.json"]


@pytest.mark.parametrize("name", DOCUMENTS)
def test_damaged_document_exits_2_naming_the_key(stages, tmp_path, capsys, name):
    out = ["--out", tmp_path / "out"]
    model, scaler, windows = stages / "train/model", stages / "train/scaler.json", \
        stages / "sample/windows"

    def eval_argv(checkpoint=model, scaler=scaler, windows=windows):
        return ["eval", "--set", f"checkpoint={checkpoint}", "--set", f"scaler={scaler}",
                "--set", f"windows={windows}", *out]

    def model_case(doc, path):
        if path[0] == "architecture" and isinstance(doc.get("architecture"), dict):
            doc["fingerprint"] = architecture_fingerprint(doc["architecture"])
        return eval_argv(checkpoint=copy_with(model, tmp_path / "ck", doc))

    source, argv_for, optional = {
        "model.json": (model.with_suffix(".json"), model_case, ()),
        "window sidecar": (windows.with_suffix(".json"), lambda doc, path: [
            "split", "--set", f"in={copy_with(windows, tmp_path / 'w', doc)}", *out],
            {("scaler_note",)}),
        "scaler.json": (scaler, lambda doc, path: eval_argv(
            scaler=write_json(tmp_path / "scaler.json", doc)), ()),
        "features.json": (stages / "select-features/features.json", lambda doc, path: [
            "sample", "--set", f"in={stages}/clean/clean.csv", "--set", "length=5",
            "--set", f"features_file={write_json(tmp_path / 'features.json', doc)}", *out],
            {("note",)}),
        "correlation.json": (stages / "correlate/correlation.json", lambda doc, path: [
            "select-features", "--set",
            f"correlation={write_json(tmp_path / 'correlation.json', doc)}", *out], ()),
        "track.json": (stages / "predict/track.json", lambda doc, path: [
            "smooth", "--set", f"track={write_json(tmp_path / 'track.json', doc)}", *out], ()),
    }[name]
    doc = json.loads(source.read_text())
    broken = fuzz(doc, argv_for, optional, capsys)
    assert not broken, "\n".join(broken)


CONFIG_OBJECTS = ["scenario", "model", "head", "train", "space"]


@pytest.mark.parametrize("name", CONFIG_OBJECTS)
def test_damaged_config_object_exits_1_naming_the_key(stages, tmp_path, capsys, name):
    windows = stages / "sample/windows"
    fit = ["--set", f"train_windows={windows}", "--set", f"valid_windows={windows}",
           "--out", tmp_path / "out"]
    scenario = {**json.loads((stages / "synth/scenario.json").read_text()),
                "n_samples": 200, "noise_std": {"co2": 8.0}}
    doc, command, optional = {
        "scenario": (scenario, lambda doc: ["synth", "--set", f"scenario={json.dumps(doc)}",
                                            "--out", tmp_path / "out"], ALL),
        "model": (LSTM, lambda doc: ["train", "--set", f"model={json.dumps(doc)}",
                                     "--set", f"train={json.dumps(TRAIN)}", *fit],
                  {(key,) for key in LSTM if key != "kind"}),
        "head": ({"hidden": 3, "classes": 2, "head_mode": "multi_label"}, lambda doc: [
            "train-head", "--set", f"encoder={stages}/pretrain-ae/model",
            "--set", f"scaler={stages}/pretrain-ae/scaler.json",
            "--set", f"head={json.dumps(doc)}", "--set", f"train={json.dumps(TRAIN)}", *fit], ALL),
        "train": ({"epochs": 1, "batch_size": 64, "lr_max": 1e-3, "lr_min": 0.0,
                   "schedule": "cosine", "early_stopping": False, "patience": 10,
                   "min_delta": 1e-4, "seed": 0, "shuffle": True}, lambda doc: [
            "train", "--set", f"model={json.dumps(LSTM)}", "--set", f"train={json.dumps(doc)}",
            *fit], ALL),
        "space": ({"hidden": [3, 4], "dropout": [0.0, 0.1]}, lambda doc: [
            "tune", "--set", "model_kind=lstm", "--set", f"space={json.dumps(doc)}",
            "--set", "trials=1", "--set", f"train={json.dumps(TRAIN)}", *fit], ALL),
    }[name]
    broken = fuzz(doc, lambda bad, path: command(bad), optional, capsys)
    assert not broken, "\n".join(broken)


def test_named_damaged_inputs(stages, tmp_path, capsys):
    """Inputs that each ended in a traceback or the wrong exit code without the checked reader."""
    scaler = json.loads((stages / "train/scaler.json").read_text())
    windows = stages / "sample/windows"
    sidecar = json.loads(windows.with_suffix(".json").read_text())
    out = ["--out", tmp_path / "out"]

    serial = itertools.count()

    def eval_with(scaler_doc):
        path = write_json(tmp_path / f"scaler{next(serial)}.json", scaler_doc)
        return ["eval", "--set", f"checkpoint={stages}/train/model", *out,
                "--set", f"scaler={path}", "--set", f"windows={windows}"]

    def split_with(sidecar_doc):
        stem = copy_with(windows, tmp_path / f"w{next(serial)}", sidecar_doc)
        return ["split", "--set", f"in={stem}", *out]

    cases = [
        (eval_with({k: v for k, v in scaler.items() if k != "std"}), 2, "'std'"),
        (eval_with({**scaler, "kind": "foo"}), 2, "'kind'"),
        (eval_with({**scaler, "mean": scaler["mean"][:-1]}), 2, "'mean'"),
        (["sample", "--set", f"in={stages}/clean/clean.csv", *out, "--set",
          f"features_file={write_json(tmp_path / 'f.json', {'note': ''})}"], 2, "'features'"),
        (["select-features", *out, "--set", "correlation="
          f"{write_json(tmp_path / 'c.json', {'variables': ['co2']})}"], 2, "'matrix'"),
        (split_with({k: v for k, v in sidecar.items() if k != "x_shape"}), 2, "'x_shape'"),
        (split_with({**sidecar, "channel_names": sidecar["channel_names"][:-1]}), 2,
         "'channel_names'"),
        (["tune", "--set", f"train_windows={windows}", "--set", f"valid_windows={windows}",
          "--set", "space=[1]", *out], 1, "space"),
        (["tune", "--set", f"train_windows={windows}", "--set", f"valid_windows={windows}",
          "--set", 'model={"kernels":3}', *out], 1, "'kernels'"),
        (["synth", "--set", 'scenario={"bogus":1}', *out], 1, "'bogus'"),
        (["synth", "--set", 'scenario={"noise_std":{"co2":"8"}}', *out], 1, "'noise_std'"),
        (["synth", "--set", 'scenario={"device_count":2}', *out], 1, "'device_count'"),
    ]
    for argv, code, named in cases:
        got, err = run(argv, capsys)
        assert (got, named in err) == (code, True), (argv, err)


def test_top_level_config_values_exit_1_naming_the_key(stages, tmp_path, capsys):
    """Top-level values of the wrong JSON type: a traceback, exit 2 or a silent cast before."""
    track = stages / "predict/track.json"
    cases = [
        ["smooth", "--set", f"track={track}", "--set", "width=[1]"],
        ["smooth", "--set", f"track={track}", "--set", 'width="x"'],
        ["smooth", "--set", f"track={track}", "--set", "width=2.9"],
        ["sample", "--set", f"in={stages}/clean/clean.csv", "--set", "length=[1]"],
        ["split", "--set", f"in={stages}/sample/windows", "--set", "ratios=5"],
        ["synth", "--set", "fleet_devices=[1]"],
        ["correlate", "--set", f"in={stages}/clean/clean.csv", "--set", "variables=5"],
        ["predict", "--set", f"checkpoint={stages}/train/model", "--set", "length=5",
         "--set", f"scaler={stages}/train/scaler.json", "--set", f"in={stages}/clean/clean.csv",
         "--set", "expect_fingerprint=5"],
        ["sample", "--set", f"in={stages}/clean/clean.csv", "--set", "features_file=5"],
        ["split", "--set", f"in={stages}/sample/windows", "--set", "ratios=[0.3,0.3,0.2,0.2]"],
        ["split", "--set", f"in={stages}/sample/windows", "--set", "ratios=[0.5,0.5]"],
        # paths that are not strings
        ["split", "--set", "in=5"],
        ["pretrain-ae", "--set", "windows=5"],
        ["train", "--set", "train_windows=5"],
        ["train", "--set", f"train_windows={stages}/sample/windows", "--set", "valid_windows=5"],
        ["eval", "--set", "checkpoint=5"],
        ["train-head", "--set", "encoder=5"],
    ]
    for argv in cases:
        key = argv[-1].split("=")[0]
        got, err = run([*argv, "--out", tmp_path / "out"], capsys)
        assert (got, f"config key {key!r}" in err) == (1, True), (argv, err)
    got, err = run(["smooth", "--set", f"track={track}", "--set", "out=5"], capsys)
    assert (got, "config key 'out'" in err) == (1, True), err


def test_track_with_impossible_probabilities_exits_2(stages, tmp_path, capsys):
    doc = json.loads((stages / "predict/track.json").read_text())
    name = doc["classes"][0]
    decisions = doc["decisions"][name]
    hit = next(i for i, d in enumerate(decisions) if d != -1)
    miss = decisions.index(-1)
    cases = [(hit, float("inf")), (hit, float("nan")), (miss, float("nan")), (hit, 1.5),
             (hit, -0.25), (hit, None), (miss, 0.5)]
    for i, value in cases:
        bad = copy.deepcopy(doc)
        bad["probabilities"][name][i] = value
        path = write_json(tmp_path / "track.json", bad)  # json.dumps writes Infinity and NaN
        got, err = run(["smooth", "--set", f"track={path}", "--out", tmp_path / "out"], capsys)
        assert (got, f"probabilities.{name!r}" in err) == (2, True), (value, err)


def test_console_stderr_has_no_traceback(tmp_path):
    proc = subprocess.run([sys.executable, "-m", "roomsense", "synth", "--set",
                           'scenario={"bogus":1}', "--out", str(tmp_path)],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 1
    assert "'bogus'" in proc.stderr and "Traceback" not in proc.stderr


@pytest.mark.parametrize("flag", ["--config", "track", "scaler", "correlation", "features_file",
                                  "checkpoint", "windows"])
def test_non_utf8_file_exits_2_without_traceback(stages, tmp_path, flag):
    path = tmp_path / "input.json"
    path.write_bytes(b'{"width": 3\xff}')
    stem = tmp_path / "input"  # a checkpoint or window set whose header is the bad file
    fit = {"checkpoint": stages / "train/model", "scaler": stages / "train/scaler.json",
           "windows": stages / "sample/windows"}
    command, given = {
        "--config": ("smooth", {}),
        "track": ("smooth", {"track": path}),
        "scaler": ("eval", {**fit, "scaler": path}),
        "correlation": ("select-features", {"correlation": path}),
        "features_file": ("sample", {"in": stages / "clean/clean.csv", "length": 5,
                                     "features_file": path}),
        "checkpoint": ("eval", {**fit, "checkpoint": stem}),
        "windows": ("eval", {**fit, "windows": stem}),
    }[flag]
    where = ["--config", str(path)] if flag == "--config" else [
        arg for key, value in given.items() for arg in ("--set", f"{key}={value}")]
    proc = subprocess.run([sys.executable, "-m", "roomsense", command, *where,
                           "--out", str(tmp_path / "out")],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2, proc.stderr
    assert "utf-8" in proc.stderr and "Traceback" not in proc.stderr
    assert str(path) in proc.stderr, proc.stderr


def test_pca_model_round_trip_and_damage():
    model = pca_fit(Rng(10).normal(size=(30, 3)) * np.array([3, 1, 0.5]))
    again = PcaModel.from_json(model.to_json())
    assert again.mean.tobytes() == model.mean.tobytes()
    assert again.components.tobytes() == model.components.tobytes()
    assert again.explained == model.explained
    doc = json.loads(model.to_json())
    doc["components"] = doc["components"][:-1]
    with pytest.raises(IntegrityError, match="'components'"):
        PcaModel.from_json(json.dumps(doc))


def test_scenario_round_trip_and_damage():
    cfg = ScenarioConfig(n_samples=50, seed=3, noise_std={"co2": 4.0}, ambient={"o3": 6.0})
    assert ScenarioConfig.from_json(cfg.to_json()) == cfg
    doc = json.loads(cfg.to_json())
    doc["ambient"] = {"o3": "6"}
    with pytest.raises(IntegrityError, match="'ambient'"):
        ScenarioConfig.from_json(json.dumps(doc))



NON_FINITE = ["set NaN", "set -Infinity", "config file NaN", "track threshold NaN",
              "manifest NaN", "eval threshold 1.5", "predict threshold -0.5",
              "track threshold 1.5"]


@pytest.mark.parametrize("case", NON_FINITE)
def test_non_finite_numbers_and_thresholds_are_refused(stages, tmp_path, capsys, case):
    """NaN and Infinity, which RFC 8259 JSON has not, exit 1 in a config and 2 in a
    document; so does a threshold outside [0, 1]."""
    model, scaler = stages / "train/model", stages / "train/scaler.json"
    predict = ["predict", "--set", f"checkpoint={model}", "--set", f"scaler={scaler}",
               "--set", "length=5", "--set", f"in={stages}/clean/clean.csv"]

    def evaluate(checkpoint=model):
        return ["eval", "--set", f"checkpoint={checkpoint}", "--set", f"scaler={scaler}",
                "--set", f"windows={stages}/sample/windows"]

    def smooth(threshold):
        doc = {**json.loads((stages / "predict/track.json").read_text()), "threshold": threshold}
        return ["smooth", "--set", f"track={write_json(tmp_path / 'track.json', doc)}"]

    def config_file():
        path = tmp_path / "config.json"
        path.write_text('{"threshold": NaN}')
        return [*predict, "--config", path]

    def manifest():
        doc = json.loads(model.with_suffix(".json").read_text())
        doc["architecture"]["dropout"] = float("nan")
        doc["fingerprint"] = architecture_fingerprint(doc["architecture"])
        return evaluate(copy_with(model, tmp_path / "ck", doc))

    argv, code, named = {
        "set NaN": (lambda: [*predict, "--set", "threshold=NaN"], 1, "'threshold'"),
        "set -Infinity": (lambda: [*evaluate(), "--set", "threshold=-Infinity"], 1,
                          "'threshold'"),
        "config file NaN": (config_file, 1, str(tmp_path / "config.json")),
        "track threshold NaN": (lambda: smooth(float("nan")), 2, "'threshold'"),
        "manifest NaN": (manifest, 2, "NaN"),
        "eval threshold 1.5": (lambda: [*evaluate(), "--set", "threshold=1.5"], 1, "threshold"),
        "predict threshold -0.5": (lambda: [*predict, "--set", "threshold=-0.5"], 1,
                                   "threshold"),
        "track threshold 1.5": (lambda: smooth(1.5), 2, "threshold"),
    }[case]
    got, err = run([*argv(), "--out", tmp_path / "out"], capsys)
    assert (got, named in err) == (code, True), err


@pytest.mark.parametrize("how", ["--set", "--config"])
def test_float_beyond_float64_exits_1_before_any_output(tmp_path, capsys, how):
    """json reads 1e999 as inf; a config refuses it naming the key before --out is made."""
    train = '{"epochs": 1, "lr_max": 1e999}'
    argv = ["train", "--set", f"train={train}"]
    if how == "--config":
        argv = ["train", "--config", tmp_path / "config.json"]
        argv[-1].write_text(f'{{"train": {train}}}')
    out = tmp_path / "out"
    got, err = run([*argv, "--out", out], capsys)
    assert (got, "train.lr_max holds inf" in err, out.exists()) == (1, True, False), err


@pytest.mark.parametrize("where", ["eval threshold", "train lr_max", "scaler mean"])
def test_integer_beyond_float64_in_a_float_key_is_named(stages, tmp_path, capsys, where):
    """A JSON int is a valid float, but float() of one beyond float64 raised OverflowError."""
    big = "1" + "0" * 400
    scaler = stages / "train/scaler.json"
    evaluate = ["eval", "--set", f"checkpoint={stages}/train/model",
                "--set", f"windows={stages}/sample/windows"]
    if where == "eval threshold":
        argv = [*evaluate, "--set", f"scaler={scaler}", "--set", f"threshold={big}"]
        code, named = 1, "config key 'threshold' is beyond the float64 range"
    elif where == "train lr_max":
        argv = ["train", "--set", f"train_windows={stages}/sample/windows",
                "--set", f"valid_windows={stages}/sample/windows",
                "--set", f"model={json.dumps(LSTM)}", "--set", f'train={{"lr_max": {big}}}']
        code, named = 1, "train config key 'lr_max' is beyond the float64 range"
    else:
        text = scaler.read_text()
        doc = json.loads(text)
        bad = tmp_path / "scaler.json"
        bad.write_text(text.replace(repr(doc["mean"][0]), big, 1))
        argv = [*evaluate, "--set", f"scaler={bad}"]
        code, named = 2, "key mean[0] is beyond the float64 range"
    got, err = run([*argv, "--out", tmp_path / "out"], capsys)
    assert (got, named in err) == (code, True), err


def test_placeholder_names_the_first_non_finite_value():
    assert placeholder(parse('{"a": [1, -1e999], "b": NaN}')[0]) == "a[1] holds -inf"
    assert placeholder(parse('[1e308, {"c": Infinity}]')[0], "k") == "k[1].c holds Infinity"
    assert placeholder(parse('{"a": [1e308, 0.5]}')[0]) is None
