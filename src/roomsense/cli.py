"""Command-line stages wiring the pipeline into reproducible runs.

Every command reads an optional JSON config (``--config``), applies ``--set
key=value`` overrides (values parsed as JSON, falling back to strings),
validates against its documented key set (unknown keys are rejected), writes
the resolved config next to its outputs, and emits machine-readable JSON/CSV
artifacts plus a short human-readable summary on stdout. The nested objects
(``model``, ``head``, ``train``, ``scenario``, ``space``) are checked by
``roomsense.schema.read`` against the fields of their config dataclasses, which
also supply every default; the CLI fills in only what it derives from the
windows (``in_channels``, ``classes``, ``window``).

Exit codes: 0 success, 1 config/validation error, 2 runtime or data error,
3 training divergence.

Environment override: ROOMSENSE_OUTDIR replaces the output directory.
Everything else comes from the config file or --set.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace
from pathlib import Path

from . import __version__
from .errors import ConfigError, RoomsenseError, TrainingDivergedError
from .evaluation import (
    PredictionTrack,
    confusions_to_json,
    evaluate,
    feature_matrix,
    predict_timeline,
    smooth,
)
from .frames import (
    CorrelationMatrix,
    FeatureSet,
    SensorFrame,
    binarize_person,
    csv_text,
    frame_to_csv,
    interpolate_missing,
    missing_report,
    parse_frame,
    pearson_matrix,
    select_features,
)
from .models import (
    KINDS,
    FcnConfig,
    HeadConfig,
    build_encoder_classifier,
    build_model,
    model_from_checkpoint,
    param_count,
    save_model,
)
from .models.config import field_names, to_arch
from .nn.checkpoint import load_checkpoint
from .pca import pca_fit, pca_project, projection_csv
from .pipeline import (
    ScalerParams,
    SplitSpec,
    WindowSet,
    build_windows,
    fit_scaler,
    split_random,
    split_time,
    transform,
)
from .search import (
    SearchSpace,
    fcn_search_space,
    lstm_search_space,
    random_search,
    trials_to_json,
)
from .schema import dump, parse, placeholder, read, read_document
from .synth import ScenarioConfig, bundled_scenario, generate_fleet, generate_frame
from .training import TrainConfig, train_autoencoder, train_classifier

# Documented keys (and defaults) per command; unknown keys are rejected.
COMMAND_KEYS: dict[str, dict] = {
    "synth": {"out": "runs/synth", "seed": None, "scenario": "bundled",
              "fleet_devices": 0, "fleet_jitter": 0.02},
    "clean": {"out": "runs/clean", "in": None, "edge_policy": "trim",
              "binarize": True},
    "report-missing": {"out": "runs/report-missing", "in": None},
    "correlate": {"out": "runs/correlate", "in": None, "variables": None},
    "select-features": {"out": "runs/select-features", "correlation": None,
                        "pair_threshold": 0.9,
                        "classes": ["person", "window_open"]},
    "sample": {"out": "runs/sample", "in": None, "channels": None,
               "features_file": None, "length": 7, "stride": 1,
               "position": "first", "undersample_k": None, "max_gap_s": 360},
    "split": {"out": "runs/split", "mode": "random", "in": None, "seed": 0,
              "ratios": [0.7, 0.2, 0.1], "cut_timestamp": None},
    "train": {"out": "runs/train", "train_windows": None, "valid_windows": None,
              "model": None, "train": {}, "scaler_kind": "standard", "seed": 0},
    "tune": {"out": "runs/tune", "train_windows": None, "valid_windows": None,
             "model_kind": "fcn", "model": {}, "space": None, "trials": 10,
             "train": {}, "scaler_kind": "standard", "seed": 0},
    "pretrain-ae": {"out": "runs/pretrain-ae", "windows": None, "model": {},
                    "train": {}, "scaler_kind": "standard", "seed": 0},
    "train-head": {"out": "runs/train-head", "encoder": None, "scaler": None,
                   "train_windows": None, "valid_windows": None, "head": {},
                   "train": {}, "seed": 0},
    "eval": {"out": "runs/eval", "checkpoint": None, "scaler": None,
             "windows": None, "threshold": 0.5, "expect_fingerprint": None},
    "predict": {"out": "runs/predict", "checkpoint": None, "scaler": None,
                "in": None, "length": 7, "position": "first", "threshold": 0.5,
                "max_gap_s": 360, "expect_fingerprint": None},
    "smooth": {"out": "runs/smooth", "track": None, "width": 3},
    "pca": {"out": "runs/pca", "checkpoint": None, "scaler": None,
            "windows": None, "expect_fingerprint": None},
}


def _parse_set(value: str) -> tuple[str, object]:
    if "=" not in value:
        raise ConfigError(f"--set expects key=value, got {value!r}")
    key, raw = value.split("=", 1)
    try:
        parsed, _ = parse(raw)
    except json.JSONDecodeError:
        return key, raw
    if bad := placeholder(parsed, key):
        raise ConfigError(f"config key {bad}, not a finite JSON number")
    return key, parsed


def resolve_config(command: str, config_path: str | None, overrides: list[str],
                   out: str | None) -> dict:
    known = COMMAND_KEYS[command]
    resolved = json.loads(json.dumps(known))  # a deep copy of the defaults
    if config_path:
        try:  # the text only: a config file that is not JSON is a config error
            loaded, _ = parse(read_document(config_path, "config file", parse=str))
        except FileNotFoundError:
            raise ConfigError(f"config file not found: {config_path}") from None
        except json.JSONDecodeError as e:
            raise ConfigError(f"config file is not valid JSON: {e}") from None
        if bad := placeholder(read(dict, loaded, "config file")):
            raise ConfigError(f"config file {config_path} key {bad}, not a finite JSON number")
        for key, value in loaded.items():
            if key == "_meta":
                continue  # resolved configs carry their metadata block along
            if key not in known:
                raise ConfigError(f"unknown config key {key!r} for command {command!r}")
            resolved[key] = value
    for item in overrides:
        key, value = _parse_set(item)
        if key not in known:
            raise ConfigError(f"unknown config key {key!r} for command {command!r}")
        resolved[key] = value
    if out is not None:
        resolved["out"] = out
    resolved["out"] = os.environ.get("ROOMSENSE_OUTDIR") or resolved["out"]
    return resolved


def _require(cfg: dict, key: str) -> object:
    if cfg.get(key) in (None, ""):
        raise ConfigError(f"missing required config key {key!r}")
    return cfg[key]


def _path(cfg: dict, key: str) -> str:
    """The file path that required config key ``key`` holds, checked as a string."""
    _require(cfg, key)
    return _value(cfg, key, str)


def _document(cfg: dict, key: str, cls):
    """``cls.from_json`` of the text of the file that config key ``key`` names."""
    return read_document(_path(cfg, key), f"config key {key!r} file", cls.from_json)


def _value(cfg: dict, key: str, tp):
    """Top-level config value ``key`` checked as ``tp``; a float comes back as a float."""
    value = read(tp, cfg[key], "config", path=key)
    return float(value) if tp is float else value


def _write(outdir: Path, name: str, text: str) -> None:
    (outdir / name).write_text(text, encoding="utf-8")


def _write_resolved(outdir: Path, command: str, cfg: dict) -> None:
    # flat and directly consumable via --config; _meta is the normalized
    # metadata block (no timestamps, so artifacts are byte-stable)
    doc = {**cfg, "_meta": {"command": command, "tool": "roomsense",
                            "version": __version__}}
    _write(outdir, "config.resolved.json", dump(doc))


def _write_track(outdir: Path, track: PredictionTrack) -> None:
    for name, text in zip(("track.json", "track.csv"), track.texts()):
        _write(outdir, name, text)


def _load_frame(path: str) -> SensorFrame:
    return parse_frame(Path(path).read_bytes())


def _config(cls, doc, what: str, **derived):
    """``cls`` from a nested config object over the values the CLI derives."""
    names = field_names(cls)
    return read(cls, {**{k: v for k, v in derived.items() if k in names},
                      **read(dict, doc, what)}, what)


def _write_history(outdir: Path, history) -> None:
    _write(outdir, "history.json", history.to_json())
    _write(outdir, "history.csv", history.to_csv())
    _write(outdir, "timing.csv", history.timing_csv())


# ---------------------------------------------------------------------------
# command bodies
# ---------------------------------------------------------------------------

def cmd_synth(cfg: dict, outdir: Path) -> None:
    scenario = cfg["scenario"]
    sc = (bundled_scenario() if scenario == "bundled"
          else read(ScenarioConfig, scenario, "scenario"))
    if (seed := _value(cfg, "seed", int | None)) is not None:
        sc = replace(sc, seed=seed)
    _write(outdir, "scenario.json", sc.to_json())
    devices = _value(cfg, "fleet_devices", int)
    if devices > 0:
        fleet_dir = outdir / "fleet"
        fleet_dir.mkdir(exist_ok=True)
        for frame in generate_fleet(sc, devices, jitter=_value(cfg, "fleet_jitter", float)):
            (fleet_dir / f"{frame.device_id}.csv").write_bytes(frame_to_csv(frame))
        print(f"wrote {devices} unlabelled fleet frames to {fleet_dir}")
    else:
        frame = generate_frame(sc)
        (outdir / "frame.csv").write_bytes(frame_to_csv(frame))
        print(f"wrote {len(frame)} labelled rows to {outdir / 'frame.csv'}")


def cmd_clean(cfg: dict, outdir: Path) -> None:
    frame = _load_frame(_path(cfg, "in"))
    before = missing_report(frame)
    frame = interpolate_missing(frame, cfg["edge_policy"])
    if _value(cfg, "binarize", bool) and "person" in frame.label_names:
        frame = binarize_person(frame)
    (outdir / "clean.csv").write_bytes(frame_to_csv(frame))
    summary = {"rows": len(frame), "edge_policy": cfg["edge_policy"],
               "missing_filled": {n: c for n, c in zip(before.channel_names, before.counts) if c}}
    _write(outdir, "summary.json", dump(summary))
    print(f"cleaned frame: {len(frame)} rows -> {outdir / 'clean.csv'}")


def cmd_report_missing(cfg: dict, outdir: Path) -> None:
    report = missing_report(_load_frame(_path(cfg, "in")))
    _write(outdir, "missing.json", report.to_json())
    total = sum(report.counts)
    print(f"{total} missing cells over {report.total_rows} rows -> {outdir / 'missing.json'}")


def cmd_correlate(cfg: dict, outdir: Path) -> None:
    frame = _load_frame(_path(cfg, "in"))
    variables = (_value(cfg, "variables", list[str]) if cfg["variables"]
                 else [*frame.channel_names, *frame.label_names])
    matrix = pearson_matrix(frame, variables)
    _write(outdir, "correlation.json", matrix.to_json())
    print(f"{len(variables)}x{len(variables)} correlation matrix -> "
          f"{outdir / 'correlation.json'}")


def cmd_select_features(cfg: dict, outdir: Path) -> None:
    matrix = _document(cfg, "correlation", CorrelationMatrix)
    features = select_features(matrix, _value(cfg, "pair_threshold", float),
                               _value(cfg, "classes", tuple[str, ...]))
    _write(outdir, "features.json", features.to_json())
    print(f"retained {len(features.names)} features: {', '.join(features.names)}")


def cmd_sample(cfg: dict, outdir: Path) -> None:
    frame = _load_frame(_path(cfg, "in"))
    if cfg["channels"]:
        channels = _value(cfg, "channels", list[str])
    elif cfg["features_file"]:
        channels = list(_document(cfg, "features_file", FeatureSet).names)
    else:
        channels = list(frame.channel_names)
    windows = build_windows(frame, channels, _value(cfg, "length", int),
                            _value(cfg, "stride", int), cfg["position"],
                            _value(cfg, "undersample_k", int | None),
                            _value(cfg, "max_gap_s", int))
    windows.save(outdir / "windows")
    print(f"{len(windows)} windows of shape ({len(channels)}, {cfg['length']}) -> "
          f"{outdir / 'windows.bin'}")


def cmd_split(cfg: dict, outdir: Path) -> None:
    if cfg["mode"] == "random":
        spec = SplitSpec(ratios=_value(cfg, "ratios", tuple[float, float, float]),
                         seed=_value(cfg, "seed", int))
        windows = WindowSet.load(_path(cfg, "in"))
        train, valid, test = split_random(windows, spec)
        train.save(outdir / "train")
        valid.save(outdir / "valid")
        test.save(outdir / "test")
        print(f"split {len(windows)} windows -> {len(train)}/{len(valid)}/{len(test)}")
    elif cfg["mode"] == "time":
        frame = _load_frame(_path(cfg, "in"))
        _require(cfg, "cut_timestamp")
        cut = _value(cfg, "cut_timestamp", int)
        train, test = split_time(frame, cut)
        (outdir / "train.csv").write_bytes(frame_to_csv(train))
        (outdir / "test.csv").write_bytes(frame_to_csv(test))
        print(f"time split at {cut}: {len(train)} train rows, {len(test)} test rows")
    else:
        raise ConfigError(f"split mode must be random|time, got {cfg['mode']!r}")


def _model_arch(cfg_model: dict, windows: WindowSet) -> dict:
    """The model's dataclass defaults, then what the windows give, then the user's keys."""
    doc = dict(read(dict, cfg_model, "model config"))
    kind = doc.pop("kind", None)
    if not isinstance(kind, str) or kind not in KINDS:
        raise ConfigError(f"model config needs a 'kind' ({'|'.join(KINDS)}), got {kind!r}")
    config = _config(KINDS[kind][0], doc, "model config", in_channels=len(windows.channel_names),
                     classes=windows.Y.shape[1], window=windows.length)
    return to_arch(config, kind)


def cmd_train(cfg: dict, outdir: Path) -> None:
    train_w = WindowSet.load(_path(cfg, "train_windows"))
    valid_w = WindowSet.load(_path(cfg, "valid_windows"))
    seed = _value(cfg, "seed", int)
    arch = _model_arch(_require(cfg, "model"), train_w)
    scaler = fit_scaler(cfg["scaler_kind"], train_w)
    train_s = transform(scaler, train_w)
    valid_s = transform(scaler, valid_w)
    model = build_model(arch, seed=seed)
    tcfg = _config(TrainConfig, cfg["train"], "train config", seed=seed)
    model, history = train_classifier(model, train_s, valid_s, tcfg)
    save_model(model, outdir / "model", step=len(history))
    _write(outdir, "scaler.json", scaler.to_json())
    _write_history(outdir, history)
    print(f"trained {arch['kind']} ({param_count(model)} parameters), "
          f"{len(history)} epochs, best valid loss "
          f"{min(history.valid_loss):.6f} -> {outdir / 'model.json'}")


def cmd_tune(cfg: dict, outdir: Path) -> None:
    train_w = WindowSet.load(_path(cfg, "train_windows"))
    valid_w = WindowSet.load(_path(cfg, "valid_windows"))
    seed = _value(cfg, "seed", int)
    scaler = fit_scaler(cfg["scaler_kind"], train_w)
    train_s = transform(scaler, train_w)
    valid_s = transform(scaler, valid_w)
    kind = cfg["model_kind"]
    base = {**read(dict, cfg["model"], "model config"), "kind": kind}
    blocks = len(read(tuple[int, ...], base.get("kernels", FcnConfig.kernels), "model config",
                      path="kernels"))
    if cfg["space"] is not None:
        space = SearchSpace(read(dict[str, list], cfg["space"], "space"))
    elif kind == "fcn":
        space = fcn_search_space(blocks=blocks)
    elif kind == "lstm":
        space = lstm_search_space()
    else:
        raise ConfigError(f"no default search space for model kind {kind!r}")

    def build(params: dict, trial_seed: int):
        if kind == "fcn":
            params = {"filters": [params[f"filters{i}"] for i in range(blocks)]}
        return build_model(_model_arch({**base, **params}, train_w), seed=trial_seed)

    tcfg = _config(TrainConfig, cfg["train"], "train config", seed=seed)
    trials, best = random_search(space, build, train_s, valid_s, tcfg,
                                 _value(cfg, "trials", int), seed)
    _write(outdir, "trials.json", trials_to_json(trials, best))
    names = sorted(space.grids)
    index, f1, wall, *params = zip(*((t.index, t.f1_mean, t.wall_seconds,
                                      *(str(t.params[k]) for k in names)) for t in trials))
    _write(outdir, "trials.csv", csv_text(["trial", "f1_mean", *names], [index, f1, *params]))
    _write(outdir, "timing.csv", csv_text(["trial", "wall_seconds"], [index, wall]))
    _write(outdir, "best.json", dump(best.to_doc()))
    print(f"{len(trials)} trials; best f1={best.f1_mean:.4f} with {best.params}")


def cmd_pretrain_ae(cfg: dict, outdir: Path) -> None:
    windows = WindowSet.load(_path(cfg, "windows"))
    seed = _value(cfg, "seed", int)
    arch = _model_arch({**read(dict, cfg["model"], "model config"), "kind": "autoencoder"},
                       windows)
    scaler = fit_scaler(cfg["scaler_kind"], windows)
    scaled = transform(scaler, windows)
    model = build_model(arch, seed=seed)
    tcfg = _config(TrainConfig, cfg["train"], "train config", seed=seed)
    model, history = train_autoencoder(model, scaled, tcfg)
    save_model(model, outdir / "model", step=len(history))
    _write(outdir, "scaler.json", scaler.to_json())
    _write_history(outdir, history)
    print(f"pretrained autoencoder (latent {arch['latent']}), final valid MSE "
          f"{history.valid_loss[-1]:.6f} -> {outdir / 'model.json'}")


def cmd_train_head(cfg: dict, outdir: Path) -> None:
    ckpt = load_checkpoint(_path(cfg, "encoder"))
    scaler = _document(cfg, "scaler", ScalerParams)
    train_w = WindowSet.load(_path(cfg, "train_windows"))
    valid_w = WindowSet.load(_path(cfg, "valid_windows"))
    seed = _value(cfg, "seed", int)
    head = _config(HeadConfig, cfg["head"], "head config", classes=train_w.Y.shape[1])
    model = build_encoder_classifier(ckpt, head, seed=seed)
    tcfg = _config(TrainConfig, cfg["train"], "train config", seed=seed)
    model, history = train_classifier(model, transform(scaler, train_w),
                                      transform(scaler, valid_w), tcfg)
    save_model(model, outdir / "model", step=len(history))
    _write_history(outdir, history)
    print(f"trained encoder classifier head ({param_count(model)} trainable "
          f"parameters) -> {outdir / 'model.json'}")


def cmd_eval(cfg: dict, outdir: Path) -> None:
    model = model_from_checkpoint(_path(cfg, "checkpoint"),
                                  _value(cfg, "expect_fingerprint", str | None))
    scaler = _document(cfg, "scaler", ScalerParams)
    windows = transform(scaler, WindowSet.load(_path(cfg, "windows")))
    metrics, confusions = evaluate(model, windows, _value(cfg, "threshold", float))
    _write(outdir, "metrics.json", metrics.to_json())
    _write(outdir, "metrics.csv", csv_text(
        ["class", "precision", "recall", "f1", "support"],
        [metrics.class_names, metrics.precision, metrics.recall, metrics.f1, metrics.support]))
    _write(outdir, "confusion.json", confusions_to_json(confusions))
    _write(outdir, "confusion.csv", csv_text(
        ["class", "tp", "fp", "fn", "tn"],
        [[getattr(c, key) for c in confusions] for key in ("class_name", "tp", "fp", "fn", "tn")]))
    per_class = ", ".join(f"{n}={f:.3f}" for n, f in zip(metrics.class_names, metrics.f1))
    print(f"accuracy {metrics.accuracy:.4f}; F1 {per_class}")


def cmd_predict(cfg: dict, outdir: Path) -> None:
    model = model_from_checkpoint(_path(cfg, "checkpoint"),
                                  _value(cfg, "expect_fingerprint", str | None))
    scaler = _document(cfg, "scaler", ScalerParams)
    frame = _load_frame(_path(cfg, "in"))
    track = predict_timeline(model, frame, scaler, _value(cfg, "length", int),
                             cfg["position"], _value(cfg, "threshold", float),
                             _value(cfg, "max_gap_s", int))
    _write_track(outdir, track)
    covered = int((track.decisions[0] >= 0).sum()) if len(track.class_names) else 0
    print(f"predicted {covered}/{len(track)} timestamps -> {outdir / 'track.json'}")


def cmd_smooth(cfg: dict, outdir: Path) -> None:
    track = _document(cfg, "track", PredictionTrack)
    smoothed = smooth(track, _value(cfg, "width", int))
    _write_track(outdir, smoothed)
    flipped = int((smoothed.decisions != track.decisions).sum())
    print(f"smoothing width {cfg['width']} flipped {flipped} decisions")


def cmd_pca(cfg: dict, outdir: Path) -> None:
    model = model_from_checkpoint(_path(cfg, "checkpoint"),
                                  _value(cfg, "expect_fingerprint", str | None))
    scaler = _document(cfg, "scaler", ScalerParams)
    windows = transform(scaler, WindowSet.load(_path(cfg, "windows")))
    features = feature_matrix(model, windows.X)
    pca = pca_fit(features)
    points = pca_project(pca, features)
    labels = windows.Y[:, 0].astype(int) if windows.Y.shape[1] else None
    _write(outdir, "pca.json", pca.to_json())
    _write(outdir, "projection.csv", projection_csv(points, labels))
    print(f"projected {points.shape[0]} points; explained fractions "
          f"{pca.explained[0]:.3f}/{pca.explained[1]:.3f}")


COMMANDS = {
    "synth": cmd_synth,
    "clean": cmd_clean,
    "report-missing": cmd_report_missing,
    "correlate": cmd_correlate,
    "select-features": cmd_select_features,
    "sample": cmd_sample,
    "split": cmd_split,
    "train": cmd_train,
    "tune": cmd_tune,
    "pretrain-ae": cmd_pretrain_ae,
    "train-head": cmd_train_head,
    "eval": cmd_eval,
    "predict": cmd_predict,
    "smooth": cmd_smooth,
    "pca": cmd_pca,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="roomsense",
        description="Occupancy and open-window detection pipeline stages.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, keys in COMMAND_KEYS.items():
        keylist = ", ".join(f"{k} (default {v!r})" for k, v in keys.items())
        p = sub.add_parser(name, description=f"Config keys: {keylist}")
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                       help="override a config key (value parsed as JSON)")
        p.add_argument("--seed", type=int, help="same as a last --set seed=SEED")
        p.add_argument("--out", help="output directory")
        p.add_argument("--dry-run", action="store_true",
                       help="check the config's key names and exit without writing")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        seed = [] if args.seed is None else [f"seed={args.seed}"]
        cfg = resolve_config(args.command, args.config, [*args.set, *seed], args.out)
        if args.dry_run:
            print(f"config ok: {json.dumps(cfg, sort_keys=True)}")
            return 0
        outdir = Path(_value(cfg, "out", str))
        outdir.mkdir(parents=True, exist_ok=True)
        _write_resolved(outdir, args.command, cfg)
        COMMANDS[args.command](cfg, outdir)
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except TrainingDivergedError as exc:
        print(f"training diverged: {exc}", file=sys.stderr)
        return 3
    # a file that cannot be read is a data error
    except (RoomsenseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
