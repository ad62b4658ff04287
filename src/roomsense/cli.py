"""Command-line stages wiring the pipeline into reproducible runs.

Every command reads an optional JSON config (``--config``), applies ``--set
key=value`` overrides (values parsed as JSON, falling back to strings), and
checks every key against its table in ``COMMAND_KEYS`` (unknown keys, JSON
types, required keys) before it writes anything. It emits machine-readable
JSON/CSV artifacts plus a short human-readable summary on stdout, and writes
the resolved config, ``config.resolved.json``, next to them only after a
successful run; a config error leaves no output directory. The nested objects
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
from collections.abc import Iterable
from dataclasses import replace
from pathlib import Path
from typing import get_args

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
    frame_csv_blocks,
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

# Each command's documented keys, checked in this order: (annotation, default). Unknown keys
# are rejected; a None default that the annotation does not take marks a required key.
COMMAND_KEYS: dict[str, dict[str, tuple[object, object]]] = {
    "synth": {"out": (str, "runs/synth"), "seed": (int | None, None),
              "scenario": (str | dict, "bundled"), "fleet_devices": (int, 0),
              "fleet_jitter": (float, 0.02)},
    "clean": {"out": (str, "runs/clean"), "in": (str, None), "edge_policy": (str, "trim"),
              "binarize": (bool, True)},
    "report-missing": {"out": (str, "runs/report-missing"), "in": (str, None)},
    "correlate": {"out": (str, "runs/correlate"), "in": (str, None),
                  "variables": (list[str] | None, None)},
    "select-features": {"out": (str, "runs/select-features"), "correlation": (str, None),
                        "pair_threshold": (float, 0.9),
                        "classes": (tuple[str, ...], ["person", "window_open"])},
    "sample": {"out": (str, "runs/sample"), "in": (str, None),
               "channels": (list[str] | None, None), "features_file": (str | None, None),
               "length": (int, 7), "stride": (int, 1), "position": (str, "first"),
               "undersample_k": (int | None, None), "max_gap_s": (int, 360)},
    "split": {"out": (str, "runs/split"), "mode": (str, "random"), "in": (str, None),
              "seed": (int, 0), "ratios": (tuple[float, float, float], [0.7, 0.2, 0.1]),
              "cut_timestamp": (int | None, None)},
    "train": {"out": (str, "runs/train"), "train_windows": (str, None),
              "valid_windows": (str, None), "model": (dict, None), "train": (dict, {}),
              "scaler_kind": (str, "standard"), "seed": (int, 0)},
    "tune": {"out": (str, "runs/tune"), "train_windows": (str, None),
             "valid_windows": (str, None), "model_kind": (str, "fcn"), "model": (dict, {}),
             "space": (dict[str, list] | None, None), "trials": (int, 10), "train": (dict, {}),
             "scaler_kind": (str, "standard"), "seed": (int, 0)},
    "pretrain-ae": {"out": (str, "runs/pretrain-ae"), "windows": (str, None),
                    "model": (dict, {}), "train": (dict, {}), "scaler_kind": (str, "standard"),
                    "seed": (int, 0)},
    "train-head": {"out": (str, "runs/train-head"), "encoder": (str, None),
                   "scaler": (str, None), "train_windows": (str, None),
                   "valid_windows": (str, None), "head": (dict, {}), "train": (dict, {}),
                   "seed": (int, 0)},
    "eval": {"out": (str, "runs/eval"), "checkpoint": (str, None), "scaler": (str, None),
             "windows": (str, None), "threshold": (float, 0.5),
             "expect_fingerprint": (str | None, None)},
    "predict": {"out": (str, "runs/predict"), "checkpoint": (str, None), "scaler": (str, None),
                "in": (str, None), "length": (int, 7), "position": (str, "first"),
                "threshold": (float, 0.5), "max_gap_s": (int, 360),
                "expect_fingerprint": (str | None, None)},
    "smooth": {"out": (str, "runs/smooth"), "track": (str, None), "width": (int, 3)},
    "pca": {"out": (str, "runs/pca"), "checkpoint": (str, None), "scaler": (str, None),
            "windows": (str, None), "expect_fingerprint": (str | None, None)},
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
    resolved = json.loads(json.dumps({k: v for k, (_, v) in known.items()}))  # a deep copy
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


def read_command(command: str, cfg: dict) -> dict:
    """``cfg``'s values checked in the order of ``command``'s key table; floats as floats."""
    checked = {}
    for key, (tp, default) in COMMAND_KEYS[command].items():
        if cfg[key] in (None, "") and default is None and type(None) not in get_args(tp):
            raise ConfigError(f"missing required config key {key!r}")
        value = read(tp, cfg[key], "config", path=key)
        checked[key] = float(value) if tp is float else value
    return checked


def _document(cfg: dict, key: str, cls):
    """``cls.from_json`` of the text of the file that config key ``key`` names."""
    return read_document(cfg[key], f"config key {key!r} file", cls.from_json)


def _write(outdir: Path, name: str, text: str | Iterable[str]) -> None:
    """Write ``text``, or each of its blocks in turn, to ``outdir / name`` as
    UTF-8, making its directory first."""
    path = outdir / name
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.writelines([text] if isinstance(text, str) else text)


def _write_track(outdir: Path, track: PredictionTrack) -> None:
    for name, text in zip(("track.json", "track.csv"), track.texts()):
        _write(outdir, name, text)


def _load_frame(path: str) -> SensorFrame:
    return parse_frame(Path(path).read_bytes())


def _config(cls, doc, what: str, **derived):
    """``cls`` from a nested config object over the values the CLI derives."""
    names = field_names(cls)
    return read(cls, {**{k: v for k, v in derived.items() if k in names}, **doc}, what)


def _write_history(outdir: Path, history) -> None:
    _write(outdir, "history.json", history.to_json())
    _write(outdir, "history.csv", history.to_csv())
    _write(outdir, "timing.csv", history.timing_csv())


# ---------------------------------------------------------------------------
# command bodies
# ---------------------------------------------------------------------------

def cmd_synth(cfg: dict, outdir: Path) -> None:
    scenario = cfg["scenario"]
    if isinstance(scenario, str) and scenario != "bundled":
        raise ConfigError(f'scenario must be "bundled" or a JSON object, got {scenario!r}')
    sc = (bundled_scenario() if scenario == "bundled"
          else read(ScenarioConfig, scenario, "scenario"))
    if cfg["seed"] is not None:
        sc = replace(sc, seed=cfg["seed"])
    devices = cfg["fleet_devices"]
    if devices < 0:
        raise ConfigError(f"config key 'fleet_devices' must be >= 0, got {devices}")
    _write(outdir, "scenario.json", sc.to_json())
    if devices > 0:
        for frame in generate_fleet(sc, devices, jitter=cfg["fleet_jitter"]):
            _write(outdir, f"fleet/{frame.device_id}.csv", frame_csv_blocks(frame))
        print(f"wrote {devices} unlabelled fleet frames to {outdir / 'fleet'}")
    else:
        frame = generate_frame(sc)
        _write(outdir, "frame.csv", frame_csv_blocks(frame))
        print(f"wrote {len(frame)} labelled rows to {outdir / 'frame.csv'}")


def cmd_clean(cfg: dict, outdir: Path) -> None:
    frame = _load_frame(cfg["in"])
    before = missing_report(frame)
    frame = interpolate_missing(frame, cfg["edge_policy"])
    if cfg["binarize"] and "person" in frame.label_names:
        frame = binarize_person(frame)
    _write(outdir, "clean.csv", frame_csv_blocks(frame))
    summary = {"rows": len(frame), "edge_policy": cfg["edge_policy"],
               "missing_filled": {n: c for n, c in zip(before.channel_names, before.counts) if c}}
    _write(outdir, "summary.json", dump(summary))
    print(f"cleaned frame: {len(frame)} rows -> {outdir / 'clean.csv'}")


def cmd_report_missing(cfg: dict, outdir: Path) -> None:
    report = missing_report(_load_frame(cfg["in"]))
    _write(outdir, "missing.json", report.to_json())
    total = sum(report.counts)
    print(f"{total} missing cells over {report.total_rows} rows -> {outdir / 'missing.json'}")


def cmd_correlate(cfg: dict, outdir: Path) -> None:
    frame = _load_frame(cfg["in"])
    variables = cfg["variables"] or [*frame.channel_names, *frame.label_names]
    matrix = pearson_matrix(frame, variables)
    _write(outdir, "correlation.json", matrix.to_json())
    print(f"{len(variables)}x{len(variables)} correlation matrix -> "
          f"{outdir / 'correlation.json'}")


def cmd_select_features(cfg: dict, outdir: Path) -> None:
    matrix = _document(cfg, "correlation", CorrelationMatrix)
    features = select_features(matrix, cfg["pair_threshold"], cfg["classes"])
    _write(outdir, "features.json", features.to_json())
    print(f"retained {len(features.names)} features: {', '.join(features.names)}")


def cmd_sample(cfg: dict, outdir: Path) -> None:
    frame = _load_frame(cfg["in"])
    if cfg["channels"]:
        channels = cfg["channels"]
    elif cfg["features_file"]:
        channels = list(_document(cfg, "features_file", FeatureSet).names)
    else:
        channels = list(frame.channel_names)
    windows = build_windows(frame, channels, cfg["length"], cfg["stride"], cfg["position"],
                            cfg["undersample_k"], cfg["max_gap_s"])
    windows.save(outdir / "windows")
    print(f"{len(windows)} windows of shape ({len(channels)}, {cfg['length']}) -> "
          f"{outdir / 'windows.bin'}")


def cmd_split(cfg: dict, outdir: Path) -> None:
    if cfg["mode"] == "random":
        spec = SplitSpec(ratios=cfg["ratios"], seed=cfg["seed"])
        windows = WindowSet.load(cfg["in"])
        train, valid, test = split_random(windows, spec)
        train.save(outdir / "train")
        valid.save(outdir / "valid")
        test.save(outdir / "test")
        print(f"split {len(windows)} windows -> {len(train)}/{len(valid)}/{len(test)}")
    elif cfg["mode"] == "time":
        if (cut := cfg["cut_timestamp"]) is None:
            raise ConfigError("missing required config key 'cut_timestamp'")
        frame = _load_frame(cfg["in"])
        train, test = split_time(frame, cut)
        _write(outdir, "train.csv", frame_csv_blocks(train))
        _write(outdir, "test.csv", frame_csv_blocks(test))
        print(f"time split at {cut}: {len(train)} train rows, {len(test)} test rows")
    else:
        raise ConfigError(f"split mode must be random|time, got {cfg['mode']!r}")


def _model_arch(cfg_model: dict, windows: WindowSet) -> dict:
    """The model's dataclass defaults, then what the windows give, then the user's keys."""
    doc = dict(cfg_model)
    kind = doc.pop("kind", None)
    if not isinstance(kind, str) or kind not in KINDS:
        raise ConfigError(f"model config needs a 'kind' ({'|'.join(KINDS)}), got {kind!r}")
    config = _config(KINDS[kind][0], doc, "model config", in_channels=len(windows.channel_names),
                     classes=windows.Y.shape[1], window=windows.length)
    return to_arch(config, kind)


def cmd_train(cfg: dict, outdir: Path) -> None:
    train_w = WindowSet.load(cfg["train_windows"])
    valid_w = WindowSet.load(cfg["valid_windows"])
    arch = _model_arch(cfg["model"], train_w)
    scaler = fit_scaler(cfg["scaler_kind"], train_w)
    train_s = transform(scaler, train_w)
    valid_s = transform(scaler, valid_w)
    model = build_model(arch, seed=cfg["seed"])
    tcfg = _config(TrainConfig, cfg["train"], "train config", seed=cfg["seed"])
    model, history = train_classifier(model, train_s, valid_s, tcfg)
    save_model(model, outdir / "model", step=len(history))
    _write(outdir, "scaler.json", scaler.to_json())
    _write_history(outdir, history)
    print(f"trained {arch['kind']} ({param_count(model)} parameters), "
          f"{len(history)} epochs, best valid loss "
          f"{min(history.valid_loss):.6f} -> {outdir / 'model.json'}")


def cmd_tune(cfg: dict, outdir: Path) -> None:
    train_w = WindowSet.load(cfg["train_windows"])
    valid_w = WindowSet.load(cfg["valid_windows"])
    scaler = fit_scaler(cfg["scaler_kind"], train_w)
    train_s = transform(scaler, train_w)
    valid_s = transform(scaler, valid_w)
    kind = cfg["model_kind"]
    base = {**cfg["model"], "kind": kind}
    blocks = len(read(tuple[int, ...], base.get("kernels", FcnConfig.kernels), "model config",
                      path="kernels"))
    if cfg["space"] is not None:
        space = SearchSpace(cfg["space"])
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

    tcfg = _config(TrainConfig, cfg["train"], "train config", seed=cfg["seed"])
    trials, best = random_search(space, build, train_s, valid_s, tcfg, cfg["trials"],
                                 cfg["seed"])
    _write(outdir, "trials.json", trials_to_json(trials, best))
    names = sorted(space.grids)
    index, f1, wall, *params = zip(*((t.index, t.f1_mean, t.wall_seconds,
                                      *(str(t.params[k]) for k in names)) for t in trials))
    _write(outdir, "trials.csv", csv_text(["trial", "f1_mean", *names], [index, f1, *params]))
    _write(outdir, "timing.csv", csv_text(["trial", "wall_seconds"], [index, wall]))
    _write(outdir, "best.json", dump(best.to_doc()))
    print(f"{len(trials)} trials; best f1={best.f1_mean:.4f} with {best.params}")


def cmd_pretrain_ae(cfg: dict, outdir: Path) -> None:
    windows = WindowSet.load(cfg["windows"])
    arch = _model_arch({**cfg["model"], "kind": "autoencoder"}, windows)
    scaler = fit_scaler(cfg["scaler_kind"], windows)
    scaled = transform(scaler, windows)
    model = build_model(arch, seed=cfg["seed"])
    tcfg = _config(TrainConfig, cfg["train"], "train config", seed=cfg["seed"])
    model, history = train_autoencoder(model, scaled, tcfg)
    save_model(model, outdir / "model", step=len(history))
    _write(outdir, "scaler.json", scaler.to_json())
    _write_history(outdir, history)
    print(f"pretrained autoencoder (latent {arch['latent']}), final valid MSE "
          f"{history.valid_loss[-1]:.6f} -> {outdir / 'model.json'}")


def cmd_train_head(cfg: dict, outdir: Path) -> None:
    ckpt = load_checkpoint(cfg["encoder"])
    scaler = _document(cfg, "scaler", ScalerParams)
    train_w = WindowSet.load(cfg["train_windows"])
    valid_w = WindowSet.load(cfg["valid_windows"])
    head = _config(HeadConfig, cfg["head"], "head config", classes=train_w.Y.shape[1])
    model = build_encoder_classifier(ckpt, head, seed=cfg["seed"])
    tcfg = _config(TrainConfig, cfg["train"], "train config", seed=cfg["seed"])
    model, history = train_classifier(model, transform(scaler, train_w),
                                      transform(scaler, valid_w), tcfg)
    save_model(model, outdir / "model", step=len(history))
    _write_history(outdir, history)
    print(f"trained encoder classifier head ({param_count(model)} trainable "
          f"parameters) -> {outdir / 'model.json'}")


def cmd_eval(cfg: dict, outdir: Path) -> None:
    model = model_from_checkpoint(cfg["checkpoint"], cfg["expect_fingerprint"])
    scaler = _document(cfg, "scaler", ScalerParams)
    windows = transform(scaler, WindowSet.load(cfg["windows"]))
    metrics, confusions = evaluate(model, windows, cfg["threshold"])
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
    model = model_from_checkpoint(cfg["checkpoint"], cfg["expect_fingerprint"])
    scaler = _document(cfg, "scaler", ScalerParams)
    frame = _load_frame(cfg["in"])
    track = predict_timeline(model, frame, scaler, cfg["length"], cfg["position"],
                             cfg["threshold"], cfg["max_gap_s"])
    _write_track(outdir, track)
    covered = int((track.decisions[0] >= 0).sum()) if len(track.class_names) else 0
    print(f"predicted {covered}/{len(track)} timestamps -> {outdir / 'track.json'}")


def cmd_smooth(cfg: dict, outdir: Path) -> None:
    track = _document(cfg, "track", PredictionTrack)
    smoothed = smooth(track, cfg["width"])
    _write_track(outdir, smoothed)
    flipped = int((smoothed.decisions != track.decisions).sum())
    print(f"smoothing width {cfg['width']} flipped {flipped} decisions")


def cmd_pca(cfg: dict, outdir: Path) -> None:
    model = model_from_checkpoint(cfg["checkpoint"], cfg["expect_fingerprint"])
    scaler = _document(cfg, "scaler", ScalerParams)
    windows = transform(scaler, WindowSet.load(cfg["windows"]))
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
        keylist = ", ".join(f"{k} (default {v!r})" for k, (_, v) in keys.items())
        p = sub.add_parser(name, description=f"Config keys: {keylist}")
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                       help="override a config key (value parsed as JSON)")
        p.add_argument("--seed", type=int, help="same as a last --set seed=SEED")
        p.add_argument("--out", help="output directory")
        p.add_argument("--dry-run", action="store_true",
                       help="check key names, JSON types and required keys; write nothing")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        seed = [] if args.seed is None else [f"seed={args.seed}"]
        cfg = resolve_config(args.command, args.config, [*args.set, *seed], args.out)
        checked = read_command(args.command, cfg)
        if args.dry_run:
            print(f"config ok: {json.dumps(cfg, sort_keys=True)}")
            return 0
        # flat and directly consumable via --config; no timestamps, so it is byte-stable.
        # Dumped before the run, since the checked values may share lists with cfg.
        meta = {"command": args.command, "tool": "roomsense", "version": __version__}
        resolved = dump({**cfg, "_meta": meta})
        COMMANDS[args.command](checked, Path(checked["out"]))
        _write(Path(checked["out"]), "config.resolved.json", resolved)
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
