"""The four workloads: set-up, one round of stages, and the checks on each.

A round runs every stage of a workload once and checks each stage's output;
each checked stage is one operation. Supervised and semi-supervised rounds
call the library; deploy and tune rounds call ``roomsense.cli.main``
in-process, as an operator would run the stages. The program only sees the
inputs generated here from the run's seed.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from roomsense import cli
from roomsense.evaluation import evaluate, feature_matrix, smooth, PredictionTrack
from roomsense.frames import STANDARD_CHANNELS, SensorFrame, binarize_person, frame_to_csv
from roomsense.models import (
    AutoencoderConfig,
    FcnConfig,
    HeadConfig,
    LstmConfig,
    build_autoencoder,
    build_encoder_classifier,
    build_fcn,
    build_lstm_classifier,
    model_from_checkpoint,
    save_model,
)
from roomsense.pca import pca_fit
from roomsense.pipeline import (
    WindowSet,
    build_windows,
    fit_scaler,
    split_fraction,
    split_time,
    transform,
)
from roomsense.synth import ScenarioConfig, bundled_scenario, generate_fleet, generate_frame
from roomsense.training import TrainConfig, train_autoencoder, train_classifier

import checks

NINE_CHANNELS = ("humidity", "temperature", "tvoc", "oxygen", "co2", "co",
                 "pressure", "o3", "sound")
WINDOW = 7
MAX_GAP_S = 360
SMOOTH_WIDTH = 3
# Deploy's sensor record and checkpoint are fixed, so the smoothing work (which
# grows with flips) and the track's F1 do not swing with the seed; the seed
# places the missing runs and time gaps. The raw CSV of the known-failing
# predict is the same for every seed.
DEPLOY_SCENARIO_SEED = 2024
DEPLOY_MODEL_SEED = 2025
RAW_FAULT_SEED = 2023
# The gated models, and the autoencoder's fleet corpus, use the acceptance
# criteria's seeds (4 and 7); the run seed varies the labelled splits. With
# seed-driven starts, one FCN in about thirty, and one encoder in sixteen,
# ended at or below its F1 gate after the fixed epochs.
SUPERVISED_MODEL_SEED = 1
FLEET_SEED = 70
AE_SEED = 5
HEAD_SEED = 6
# tune searches dropout at the paper's hidden size, so every trial costs the same
TUNE_GRIDS = {"hidden": [26], "dropout": [0.1, 0.2, 0.3, 0.4, 0.5]}


@dataclass(frozen=True)
class Sizes:
    """Input sizes and epoch counts; ``FULL`` is what the benchmark measures."""

    labelled_rows: int = 20_000      # the bundled scenario
    supervised_epochs: int = 12
    eval_repeats: int = 8            # evaluations per model in one round
    fleet_devices: int = 20          # x 594 windows each
    ae_epochs: int = 2
    head_epochs: int = 30
    deploy_rows: int = 20_000        # 120 s samples, about 28 days
    raw_fault_rows: int = 3_000
    deploy_ckpt_epochs: int = 1
    tune_trials: int = 4
    tune_epochs: int = 2
    best_epochs: int = 4
    fcn_gate: float = 0.90
    lstm_gate: float = 0.85
    head_gate: float = 0.80
    mse_gate: float = 1.0            # all-zero reconstruction of scaled data


FULL = Sizes()
TINY = Sizes(labelled_rows=3_000, supervised_epochs=1, eval_repeats=1, fleet_devices=2, ae_epochs=1,
             head_epochs=1, deploy_rows=2_000, raw_fault_rows=600, tune_trials=2,
             tune_epochs=1, best_epochs=1, fcn_gate=0.0, lstm_gate=0.0, head_gate=0.0,
             mse_gate=math.inf)


@dataclass
class Op:
    name: str
    failure: str | None = None
    known_fault: bool = False


@dataclass
class Round:
    rates: dict[str, float] = field(default_factory=dict)
    f1_min: float = 1.0
    ops: list[Op] = field(default_factory=list)


@dataclass
class Context:
    workdir: Path
    seed: int
    sizes: Sizes
    tracer: object | None = None

    def seed_for(self, stream: int) -> int:
        return checks.child_seed(self.seed, stream) & 0x7FFF_FFFF

    def stage(self, name: str):
        return self.tracer.stage(name) if self.tracer else contextlib.nullcontext()

    def timed(self, name: str, fn, *args, **kwargs):
        with self.stage(name):
            t0 = time.perf_counter()
            out = fn(*args, **kwargs)
            seconds = time.perf_counter() - t0
        return out, seconds

    def cli(self, name: str, argv: list[str]) -> float:
        """Run one CLI stage in-process; returns its wall seconds."""
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            rc, seconds = self.timed(name, cli.main, argv)
        if rc != 0:
            raise RuntimeError(f"roomsense {argv[0]} exited {rc}: {err.getvalue().strip()}")
        return seconds


def _labelled_split(ctx: Context, channels: tuple[str, ...]):
    """Bundled scenario, time-separated test quarter, under-sampled train part."""
    frame = binarize_person(generate_frame(
        replace(bundled_scenario(), n_samples=ctx.sizes.labelled_rows)))
    cut = int(frame.timestamps[int(len(frame) * 0.75)])
    train_frame, test_frame = split_time(frame, cut)
    train_w = build_windows(train_frame, channels, length=WINDOW, undersample_k=50)
    test_w = build_windows(test_frame, channels, length=WINDOW)
    return train_w, test_w


def _recount(model, ws: WindowSet) -> list[float]:
    return checks.f1_per_class(model.predict_proba(ws.X), ws.Y)


def _train_cfg(epochs: int, seed: int, lr_min: float = 1e-5) -> TrainConfig:
    return TrainConfig(epochs=epochs, batch_size=64, lr_max=3e-3, lr_min=lr_min,
                       seed=seed, early_stopping=False)


# -- supervised --------------------------------------------------------------

def supervised_setup(ctx: Context) -> dict:
    train_w, test_w = _labelled_split(ctx, NINE_CHANNELS)
    tr, va = split_fraction(train_w, 0.8, seed=ctx.seed_for(1))
    scaler = fit_scaler("standard", tr)
    return {"train": transform(scaler, tr), "valid": transform(scaler, va),
            "test": transform(scaler, test_w)}


def supervised_round(ctx: Context, st: dict) -> Round:
    epochs = ctx.sizes.supervised_epochs
    rnd = Round()
    models = {
        "fcn": (build_fcn(FcnConfig(in_channels=9, filters=(32, 8), kernels=(5, 3)),
                          seed=SUPERVISED_MODEL_SEED), ctx.sizes.fcn_gate),
        "lstm": (build_lstm_classifier(LstmConfig(in_channels=9, hidden=26, dropout=0.2),
                                       seed=SUPERVISED_MODEL_SEED), ctx.sizes.lstm_gate),
    }
    eval_seconds = 0.0
    for slot, (name, (model, gate)) in zip(("stage1", "stage2"), models.items()):
        (model, history), seconds = ctx.timed(f"{name}_train", train_classifier, model,
                                              st["train"], st["valid"],
                                              _train_cfg(epochs, SUPERVISED_MODEL_SEED))
        rnd.rates[slot] = len(st["train"]) * epochs / seconds
        rnd.ops.append(Op(f"{name}_train", checks.check_history(
            name, history.train_loss, history.valid_loss, epochs)))
        for _ in range(ctx.sizes.eval_repeats):
            (metrics, _), seconds = ctx.timed(f"{name}_eval", evaluate, model, st["test"])
            eval_seconds += seconds
        own = _recount(model, st["test"])
        rnd.f1_min = min(rnd.f1_min, *own)
        rnd.ops.append(Op(f"{name}_eval", checks.check_f1(name, own, list(metrics.f1), gate)))
    rnd.rates["stage3"] = 2 * ctx.sizes.eval_repeats * len(st["test"]) / eval_seconds
    return rnd


# -- semi-supervised ---------------------------------------------------------

def semisupervised_setup(ctx: Context) -> dict:
    fleet_cfg = replace(bundled_scenario(), n_samples=600, seed=FLEET_SEED)
    # one device more than the corpus holds out windows the autoencoder never sees
    *pieces, probe = [build_windows(f, STANDARD_CHANNELS, length=WINDOW)
                      for f in generate_fleet(fleet_cfg, devices=ctx.sizes.fleet_devices + 1)]
    corpus = WindowSet(
        X=np.concatenate([w.X for w in pieces]),
        Y=np.zeros((sum(len(w) for w in pieces), 0)),
        channel_names=STANDARD_CHANNELS, class_names=(),
        start_timestamps=np.concatenate([w.start_timestamps for w in pieces]),
        label_position="first",
    )
    scaler = fit_scaler("standard", corpus)
    train_w, test_w = _labelled_split(ctx, STANDARD_CHANNELS)
    pool, _ = split_fraction(transform(scaler, train_w), 0.1, seed=ctx.seed_for(1))
    head_tr, head_va = split_fraction(pool, 0.8, seed=ctx.seed_for(2))
    return {"corpus": transform(scaler, corpus), "head_train": head_tr,
            "head_valid": head_va, "test": transform(scaler, test_w),
            "probe": transform(scaler, probe).X}


def semisupervised_round(ctx: Context, st: dict) -> Round:
    sz = ctx.sizes
    rnd = Round()
    ae = build_autoencoder(AutoencoderConfig(latent=10), seed=AE_SEED)
    (ae, history), seconds = ctx.timed("ae_train", train_autoencoder, ae, st["corpus"],
                                       _train_cfg(sz.ae_epochs, AE_SEED, lr_min=1e-4))
    rnd.rates["stage1"] = len(st["corpus"]) * sz.ae_epochs / seconds
    probe = st["probe"]
    mse = float(((ae.forward(probe) - probe) ** 2).mean())
    failure = (checks.check_history("autoencoder", history.train_loss, history.valid_loss,
                                    sz.ae_epochs)
               or checks.check_reconstruction(mse, sz.mse_gate))
    rnd.ops.append(Op("ae_train", failure))

    clf = build_encoder_classifier(ae, HeadConfig(), seed=HEAD_SEED)
    frozen = {p.name: p.value.copy() for p in clf.store if not p.trainable}
    (clf, history), seconds = ctx.timed("head_train", train_classifier, clf, st["head_train"],
                                        st["head_valid"],
                                        _train_cfg(sz.head_epochs, HEAD_SEED, lr_min=1e-4))
    rnd.rates["stage2"] = len(st["head_train"]) * sz.head_epochs / seconds
    source = {p.name: p.value for p in ae.store if p.name in frozen}
    after = {p.name: p.value for p in clf.store if p.name in frozen}
    failure = (checks.check_history("head", history.train_loss, history.valid_loss,
                                    sz.head_epochs)
               or checks.check_frozen(source, frozen) or checks.check_frozen(frozen, after))
    rnd.ops.append(Op("head_train", failure))

    (metrics, _), seconds = ctx.timed("evaluate", evaluate, clf, st["test"])
    rnd.rates["stage3"] = len(st["test"]) / seconds
    own = _recount(clf, st["test"])
    rnd.f1_min = min(own)
    rnd.ops.append(Op("evaluate", checks.check_f1("head", own, list(metrics.f1), sz.head_gate)))

    def pca_stage():
        features = feature_matrix(clf, st["test"].X)
        return features, pca_fit(features)

    (features, pca), _ = ctx.timed("pca", pca_stage)
    rnd.ops.append(Op("pca", checks.check_pca(features, pca.components, pca.explained)))
    return rnd


# -- deploy ------------------------------------------------------------------

def _damage(frame: SensorFrame, seed: int, missing_runs: int, gaps: int) -> SensorFrame:
    """Blank ``missing_runs`` runs of 1-8 cells and cut ``gaps`` gaps of 30-120 rows."""
    rng = np.random.default_rng(seed)
    n = len(frame)
    values = frame.values.copy()
    for _ in range(missing_runs):
        length = int(rng.integers(1, 9))
        start = int(rng.integers(1, n - length - 1))
        values[rng.integers(len(frame.channel_names)), start:start + length] = np.nan
    keep = np.ones(n, dtype=bool)
    for _ in range(gaps):
        length = int(rng.integers(30, 121))
        start = int(rng.integers(1, n - length - 1))
        keep[start:start + length] = False
    return SensorFrame(frame.timestamps[keep], frame.channel_names, values[:, keep],
                       frame.label_names, frame.label_values[:, keep], frame.device_id)


def deploy_setup(ctx: Context) -> dict:
    sz = ctx.sizes
    d = ctx.workdir
    base = generate_frame(ScenarioConfig(n_samples=sz.deploy_rows, seed=DEPLOY_SCENARIO_SEED))
    raw = _damage(base, ctx.seed_for(1), sz.deploy_rows // 400, sz.deploy_rows // 4000)
    (d / "raw.csv").write_bytes(frame_to_csv(raw))
    fault = generate_frame(ScenarioConfig(n_samples=sz.raw_fault_rows, seed=RAW_FAULT_SEED,
                                          missing_runs=sz.raw_fault_rows // 60,
                                          gap_count=2))
    (d / "raw_fault.csv").write_bytes(frame_to_csv(fault))
    train_w, _ = _labelled_split(ctx, NINE_CHANNELS)
    tr, va = split_fraction(train_w, 0.8, seed=DEPLOY_MODEL_SEED)
    scaler = fit_scaler("standard", tr)
    model = build_lstm_classifier(LstmConfig(in_channels=9, hidden=26, dropout=0.2),
                                  seed=DEPLOY_MODEL_SEED)
    model, _ = train_classifier(model, transform(scaler, tr), transform(scaler, va),
                                _train_cfg(sz.deploy_ckpt_epochs, DEPLOY_MODEL_SEED))
    save_model(model, d / "model")
    (d / "scaler.json").write_text(scaler.to_json(), encoding="utf-8")
    return {"rows": len(raw)}


def _predict_argv(ctx: Context, csv_path: Path, out: Path) -> list[str]:
    d = ctx.workdir
    return ["predict", "--set", f"in={csv_path}", "--set", f"checkpoint={d / 'model'}",
            "--set", f"scaler={d / 'scaler.json'}", "--set", f"max_gap_s={MAX_GAP_S}",
            "--set", f"length={WINDOW}", "--out", str(out)]


def _read_scaler(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def deploy_round(ctx: Context, st: dict) -> Round:
    d = ctx.workdir
    rnd = Round()
    scaler = _read_scaler(d / "scaler.json")
    seconds = ctx.cli("clean", ["clean", "--set", f"in={d / 'raw.csv'}",
                                "--out", str(d / "clean")])
    rnd.rates["stage1"] = st["rows"] / seconds
    frame = checks.read_frame_csv(d / "clean" / "clean.csv")
    rnd.ops.append(Op("clean", checks.check_no_missing(frame)))
    rows = len(frame["timestamps"])

    seconds = ctx.cli("predict", _predict_argv(ctx, d / "clean" / "clean.csv", d / "predict"))
    rnd.rates["stage2"] = rows / seconds
    track = checks.read_track(d / "predict" / "track.json")
    anchored = checks.anchored_rows(frame["timestamps"], WINDOW, MAX_GAP_S)
    sample = np.flatnonzero(anchored)[:: max(1, int(anchored.sum()) // 64)]
    rnd.ops.append(Op("predict", checks.check_track(track, anchored)
                      or checks.check_probability_sample(
                          track, frame, scaler,
                          model_from_checkpoint(d / "model"), WINDOW, sample)))

    seconds = ctx.cli("smooth", ["smooth", "--set", f"track={d / 'predict' / 'track.json'}",
                                 "--set", f"width={SMOOTH_WIDTH}", "--out", str(d / "smooth")])
    rnd.rates["stage3"] = rows / seconds
    smoothed = checks.read_track(d / "smooth" / "track.json")
    again = smooth(PredictionTrack(smoothed["timestamps"], tuple(smoothed["classes"]),
                                   smoothed["probs"], smoothed["decisions"],
                                   smoothed["threshold"]), SMOOTH_WIDTH)
    rnd.ops.append(Op("smooth", checks.check_smoothed(track, smoothed, again.decisions,
                                                      SMOOTH_WIDTH)))
    rnd.f1_min = min(checks.track_f1(smoothed, frame["labels"]))

    # Known fault: windows holding a missing cell get a prediction, not the marker.
    ctx.cli("predict_raw", _predict_argv(ctx, d / "raw_fault.csv", d / "predict_raw"))
    raw = checks.read_frame_csv(d / "raw_fault.csv")
    idx = [raw["channels"].index(c) for c in scaler["channels"]]
    missing = checks.windows_with_missing(raw["values"][idx], WINDOW)
    rnd.ops.append(Op("predict_raw", checks.check_missing_marked(
        checks.read_track(d / "predict_raw" / "track.json"), missing), known_fault=True))
    return rnd


# -- tune --------------------------------------------------------------------

def tune_setup(ctx: Context) -> dict:
    train_w, test_w = _labelled_split(ctx, NINE_CHANNELS)
    tr, va = split_fraction(train_w, 0.8, seed=ctx.seed_for(1))
    for name, ws in (("train", tr), ("valid", va), ("test", test_w)):
        ws.save(ctx.workdir / name)
    return {"train": len(tr), "test": test_w}


def tune_round(ctx: Context, st: dict) -> Round:
    """Tune an LSTM grid with one worker per core, train the best point, evaluate it."""
    sz = ctx.sizes
    d = ctx.workdir
    rnd = Round()
    seed = ctx.seed_for(2)
    train = {"epochs": sz.tune_epochs, "early_stopping": False, "lr_max": 3e-3,
             "lr_min": 1e-5, "batch_size": 64}
    config = {"train_windows": str(d / "train"), "valid_windows": str(d / "valid"),
              "model_kind": "lstm", "space": TUNE_GRIDS, "trials": sz.tune_trials,
              "train": train, "seed": seed}
    (d / "tune.json").write_text(json.dumps(config), encoding="utf-8")
    os.environ["ROOMSENSE_THREADS"] = str(len(os.sched_getaffinity(0)))
    try:
        seconds = ctx.cli("tune", ["tune", "--config", str(d / "tune.json"),
                                   "--out", str(d / "tune")])
    finally:
        del os.environ["ROOMSENSE_THREADS"]
    rnd.rates["stage1"] = sz.tune_trials / seconds
    doc = json.loads((d / "tune" / "trials.json").read_text(encoding="utf-8"))
    rnd.ops.append(Op("tune", checks.check_tune(doc, seed, TUNE_GRIDS,
                                                sz.tune_trials)))

    best = doc["best"]["params"]
    model = {"kind": "lstm", "hidden": best["hidden"], "dropout": best["dropout"]}
    seconds = ctx.cli("train", [
        "train", "--set", f"train_windows={d / 'train'}", "--set", f"valid_windows={d / 'valid'}",
        "--set", f"model={json.dumps(model)}",
        "--set", f"train={json.dumps({**train, 'epochs': sz.best_epochs})}",
        "--seed", str(ctx.seed_for(3)), "--out", str(d / "best")])
    rnd.rates["stage2"] = st["train"] * sz.best_epochs / seconds
    history = json.loads((d / "best" / "history.json").read_text(encoding="utf-8"))
    rnd.ops.append(Op("train", checks.check_history(
        "best", history["train_loss"], history["valid_loss"], sz.best_epochs)))

    seconds = sum(ctx.cli("eval", [
        "eval", "--set", f"checkpoint={d / 'best' / 'model'}",
        "--set", f"scaler={d / 'best' / 'scaler.json'}",
        "--set", f"windows={d / 'test'}", "--out", str(d / "eval")])
        for _ in range(sz.eval_repeats))
    test = st["test"]
    rnd.rates["stage3"] = sz.eval_repeats * len(test) / seconds
    scaler = _read_scaler(d / "best" / "scaler.json")
    x = ((test.X - np.array(scaler["mean"])[None, :, None])
         / np.array(scaler["std"])[None, :, None])
    own = checks.f1_per_class(model_from_checkpoint(d / "best" / "model").predict_proba(x), test.Y)
    metrics = json.loads((d / "eval" / "metrics.json").read_text(encoding="utf-8"))
    rnd.f1_min = min(own)
    rnd.ops.append(Op("eval", checks.check_f1(
        "best", own, [metrics["classes"][n]["f1"] for n in test.class_names], 0.0)))
    return rnd


WORKLOADS = {
    "supervised": (supervised_setup, supervised_round),
    "semisupervised": (semisupervised_setup, semisupervised_round),
    "deploy": (deploy_setup, deploy_round),
    "tune": (tune_setup, tune_round),
}
