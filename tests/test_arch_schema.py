"""One architecture schema: arch dicts, CLI defaults and key checks come from the config dataclasses."""

import json

import numpy as np
import pytest

from roomsense.cli import main
from roomsense.errors import ConfigError, IntegrityError, RoomsenseError
from roomsense.models import (
    KINDS,
    AutoencoderConfig,
    FcnConfig,
    HeadConfig,
    InceptionConfig,
    LstmConfig,
    build_autoencoder,
    build_encoder_classifier,
    build_fcn,
    build_lstm_classifier,
    build_model,
    config_from_arch,
    model_arch,
    model_from_checkpoint,
)
from roomsense.models.config import to_arch
from roomsense.schema import read
from roomsense.training import TrainConfig
from roomsense.nn.checkpoint import architecture_fingerprint, load_checkpoint
from roomsense.pipeline import WindowSet

CHANNELS = ("co2", "oxygen", "sound")
CLASSES = ("person", "window_open")
TRAIN = 'train={"epochs":1,"early_stopping":false}'


def fingerprint(model) -> str:
    return architecture_fingerprint(model_arch(model))


def test_fingerprints_pinned():
    ae = build_autoencoder(AutoencoderConfig())
    assert fingerprint(build_fcn(FcnConfig(9, (32, 8), (5, 3))))[:16] == "4e6d97f563cd6ad7"
    assert fingerprint(build_lstm_classifier(
        LstmConfig(9, hidden=26, dropout=0.2)))[:16] == "cb742406f518ae01"
    assert fingerprint(ae)[:16] == "c385786c8059bc39"
    assert fingerprint(build_encoder_classifier(ae, HeadConfig()))[:16] == "8f097ef498b01fc7"


@pytest.mark.parametrize("config", [
    FcnConfig(3, (4, 2), (3, 3)), LstmConfig(3, hidden=4, bidirectional=True, dropout=0.1),
    InceptionConfig(3, filters=2, bottleneck=2, branch_kernels=(3, 5), depth=3),
    AutoencoderConfig(3, (4, 3), 2, 5)])
def test_arch_round_trip(config):
    kind = next(k for k, (cls, _) in KINDS.items() if isinstance(config, cls))
    arch = to_arch(config, kind)
    assert json.loads(json.dumps(arch)) == arch
    assert config_from_arch(arch) == config
    assert model_arch(build_model(arch)) == arch


def test_inception_arch_has_no_ensemble_and_members_are_an_argument():
    assert "ensemble" not in to_arch(InceptionConfig(3), "inception")


@pytest.mark.parametrize("arch,key", [
    ({"kind": "lstm", "in_channels": 3, "hiden": 4}, "hiden"),
    ({"kind": "lstm", "in_channels": 3}, "hidden"),
    ({"kind": "encoder_classifier", "head": {}}, "autoencoder"),
    ({"kind": "encoder_classifier", "autoencoder": to_arch(AutoencoderConfig(), "autoencoder"),
      "head": {"hidden": 3, "classes": 2}}, "head_mode"),
])
def test_config_from_arch_names_the_key(arch, key):
    with pytest.raises(ConfigError, match=key):
        config_from_arch(arch)


@pytest.fixture(scope="module")
def windows(tmp_path_factory):
    root = tmp_path_factory.mktemp("schema")
    rng = np.random.default_rng(3)
    n = 24
    ws = WindowSet(X=rng.normal(size=(n, len(CHANNELS), 5)),
                   Y=(rng.uniform(size=(n, len(CLASSES))) < 0.5).astype(float),
                   channel_names=CHANNELS, class_names=CLASSES,
                   start_timestamps=1_700_000_000 + 120 * np.arange(n),
                   label_position="first")
    ws.save(root / "w")
    return root / "w"


def train_argv(windows, out, model):
    return ["train", "--set", f"train_windows={windows}", "--set", f"valid_windows={windows}",
            "--set", f"model={json.dumps(model)}", "--set", TRAIN, "--seed", "1",
            "--out", str(out)]


def manifest(out) -> dict:
    return json.loads((out / "model.json").read_text())


# fingerprint prefixes the CLI wrote for these windows before the configs became the schema
@pytest.mark.parametrize("kind,prefix", [
    ("fcn", "8ade2ec5e12d9ef8"), ("lstm", "f675f39717a4689f"), ("inception", None)])
def test_cli_train_writes_dataclass_defaults(windows, tmp_path, kind, prefix):
    assert main(train_argv(windows, tmp_path, {"kind": kind})) == 0
    config = KINDS[kind][0](in_channels=len(CHANNELS), classes=len(CLASSES))
    assert manifest(tmp_path)["architecture"] == to_arch(config, kind)
    if prefix is not None:
        assert manifest(tmp_path)["fingerprint"][:16] == prefix


def test_cli_pretrain_and_head_write_dataclass_defaults(windows, tmp_path):
    assert main(["pretrain-ae", "--set", f"windows={windows}", "--set", TRAIN,
                 "--out", str(tmp_path / "ae")]) == 0
    ae_arch = to_arch(AutoencoderConfig(in_channels=len(CHANNELS), window=5), "autoencoder")
    assert manifest(tmp_path / "ae")["architecture"] == ae_arch
    assert manifest(tmp_path / "ae")["fingerprint"][:16] == "997dc48c1a535a80"
    assert main(["train-head", "--set", f"encoder={tmp_path / 'ae' / 'model'}",
                 "--set", f"scaler={tmp_path / 'ae' / 'scaler.json'}",
                 "--set", f"train_windows={windows}", "--set", f"valid_windows={windows}",
                 "--set", TRAIN, "--out", str(tmp_path / "head")]) == 0
    head = {"hidden": 100, "classes": len(CLASSES), "head_mode": "multi_label"}
    assert manifest(tmp_path / "head")["architecture"] == {
        "kind": "encoder_classifier", "autoencoder": ae_arch, "head": head}
    assert manifest(tmp_path / "head")["fingerprint"][:16] == "a8901a0f72ba133a"


@pytest.fixture(scope="module")
def tiny_ae(windows, tmp_path_factory):
    out = tmp_path_factory.mktemp("tiny_ae")
    assert main(["pretrain-ae", "--set", f"windows={windows}",
                 "--set", 'model={"encoder_hidden":[3,2],"latent":2}', "--set", TRAIN,
                 "--out", str(out)]) == 0
    return out


@pytest.mark.parametrize("section,doc,bad", [
    ("model", {"kind": "lstm", "hiden": 3}, "hiden"), ("model", {"kind": "lstn"}, "lstn"),
    ("head", {"hiden": 3}, "hiden"), ("train", {"epochs": 1, "epoch": 2}, "epoch")])
def test_cli_unknown_key_exits_1_naming_it(windows, tiny_ae, tmp_path, capsys, section, doc,
                                           bad):
    if section == "head":
        argv = ["train-head", "--set", f"encoder={tiny_ae / 'model'}",
                "--set", f"scaler={tiny_ae / 'scaler.json'}", "--set", f"head={json.dumps(doc)}",
                "--set", f"train_windows={windows}", "--set", f"valid_windows={windows}",
                "--set", TRAIN, "--out", str(tmp_path)]
    elif section == "train":
        argv = train_argv(windows, tmp_path, {"kind": "lstm"}) + [
            "--set", f"train={json.dumps(doc)}"]
    else:
        argv = train_argv(windows, tmp_path, doc)
    assert main(argv) == 1
    assert repr(bad) in capsys.readouterr().err
    assert not (tmp_path / "model.json").exists()


@pytest.mark.parametrize("cls,doc,ok", [
    (LstmConfig, {"hidden": 4}, True),
    (LstmConfig, {"hidden": True}, False),
    (LstmConfig, {"hidden": 4.0}, False),
    (LstmConfig, {"hidden": "4"}, False),
    (LstmConfig, {"dropout": 0}, True),
    (LstmConfig, {"dropout": 0.25}, True),
    (LstmConfig, {"dropout": False}, False),
    (LstmConfig, {"dropout": "0.1"}, False),
    (LstmConfig, {"bidirectional": True}, True),
    (LstmConfig, {"bidirectional": 1}, False),
    (LstmConfig, {"head_mode": "single_label"}, True),
    (LstmConfig, {"head_mode": ["single_label"]}, False),
    (FcnConfig, {"filters": [4, 8], "kernels": [3, 3]}, True),
    (FcnConfig, {"filters": [4, 8.0], "kernels": [3, 3]}, False),
    (FcnConfig, {"filters": [4, True], "kernels": [3, 3]}, False),
    (FcnConfig, {"filters": 4, "kernels": [3]}, False),
    (TrainConfig, {"lr_max": 1, "shuffle": False}, True),
    (TrainConfig, {"early_stopping": "false"}, False),
])
def test_from_fields_checks_value_types(cls, doc, ok):
    base = {} if cls is TrainConfig else {"in_channels": 3}
    if ok:
        read(cls, {**base, **doc}, "cfg", complete=False)
    else:
        with pytest.raises(ConfigError, match=repr(next(iter(doc)))):
            read(cls, {**base, **doc}, "cfg", complete=False)


@pytest.mark.parametrize("argv", [
    lambda w, o: train_argv(w, o, {"kind": "lstm", "hidden": "4"}),
    lambda w, o: train_argv(w, o, {"kind": "fcn", "filters": [4, "8"], "kernels": [3, 3]}),
    lambda w, o: train_argv(w, o, {"kind": "lstm"}) + ["--set", "train=[1]"],
    lambda w, o: train_argv(w, o, 3),
    lambda w, o: ["pretrain-ae", "--set", f"windows={w}", "--set", "model=3", "--set", TRAIN,
                  "--out", str(o)],
    lambda w, o: ["pretrain-ae", "--set", f"windows={w}", "--set", 'model=["latent"]',
                  "--set", TRAIN, "--out", str(o)],
])
def test_cli_wrong_typed_config_exits_1(windows, tmp_path, capsys, argv):
    assert main(argv(windows, tmp_path)) == 1
    assert "config error" in capsys.readouterr().err
    assert not (tmp_path / "model.json").exists()


@pytest.fixture(scope="module")
def lstm_checkpoint(windows, tmp_path_factory):
    out = tmp_path_factory.mktemp("lstm")
    assert main(train_argv(windows, out, {"kind": "lstm", "hidden": 4, "dropout": 0.2})) == 0
    return out


def edited_copy(src, dst, edit, refingerprint):
    doc = manifest(src)
    edit(doc["architecture"])
    if refingerprint:
        doc["fingerprint"] = architecture_fingerprint(doc["architecture"])
    dst.mkdir(exist_ok=True)
    (dst / "model.json").write_text(json.dumps(doc))
    (dst / "model.bin").write_bytes((src / "model.bin").read_bytes())
    return dst / "model"


def test_manifest_missing_arch_key_raises_roomsense_error(lstm_checkpoint, tmp_path):
    path = edited_copy(lstm_checkpoint, tmp_path, lambda a: a.pop("dropout"), True)
    with pytest.raises(RoomsenseError, match="dropout"):
        model_from_checkpoint(path)
    path = edited_copy(lstm_checkpoint, tmp_path, lambda a: a.pop("dropout"), False)
    with pytest.raises(IntegrityError):
        model_from_checkpoint(path)


def test_edited_arch_fails_fingerprint_recompute(lstm_checkpoint, windows, tmp_path, capsys):
    stored = manifest(lstm_checkpoint)["fingerprint"]
    assert load_checkpoint(lstm_checkpoint / "model").fingerprint == stored
    path = edited_copy(lstm_checkpoint, tmp_path / "ck",
                       lambda a: a.update(head_mode="single_label"), False)
    with pytest.raises(IntegrityError):
        load_checkpoint(path)
    assert main(["eval", "--set", f"checkpoint={path}",
                 "--set", f"scaler={lstm_checkpoint / 'scaler.json'}",
                 "--set", f"windows={windows}", "--set", f"expect_fingerprint={stored}",
                 "--out", str(tmp_path / "eval")]) == 2
    assert "fingerprint" in capsys.readouterr().err
    assert not (tmp_path / "eval" / "metrics.json").exists()


def test_eval_exits_2_on_manifest_without_seed(lstm_checkpoint, windows, tmp_path, capsys):
    doc = manifest(lstm_checkpoint)
    del doc["seed"]
    (tmp_path / "model.json").write_text(json.dumps(doc))
    (tmp_path / "model.bin").write_bytes((lstm_checkpoint / "model.bin").read_bytes())
    assert main(["eval", "--set", f"checkpoint={tmp_path / 'model'}",
                 "--set", f"scaler={lstm_checkpoint / 'scaler.json'}",
                 "--set", f"windows={windows}", "--out", str(tmp_path / "eval")]) == 2
    assert "'seed'" in capsys.readouterr().err
