"""Where the traced run records spans and counts, and the per-layer metrics.

``install`` wraps roomsense's public functions and layer methods through a
``Tracer``; ``layer_metrics`` turns the spans and counts of one set-up or one
round into the per-layer metrics that ``BENCHMARK.json`` lists.
"""

from __future__ import annotations

import math
import statistics

from roomsense import cli, evaluation, frames, models, nn, pca, pipeline, search, synth, training
from roomsense.evaluation import PredictionTrack

from tracing import Tracer, self_seconds

# span name -> per-layer metric reporting its total seconds
TIMED = [
    "nn.Conv1d.forward", "nn.Conv1d.backward", "nn.BatchNorm1d.forward",
    "nn.BatchNorm1d.backward", "nn.Lstm.forward", "nn.Lstm.backward",
    "nn.Dense.forward", "nn.Dense.backward", "nn.Dropout.forward", "nn.loss",
    "nn.adam_step", "nn.checkpoint.save", "nn.checkpoint.load", "training.valid_pass",
    "evaluation.evaluate", "evaluation.smooth", "evaluation.track_io",
    "frames.parse_frame", "frames.frame_to_csv", "frames.missing_report",
    "frames.interpolate_missing", "pipeline.build_windows", "pipeline.transform",
    "synth.generate", "pca.fit",
]
COUNTS = {"nn.Lstm.calls", "nn.adam_step.calls", "training.epochs", "evaluation.smooth_flips"}
MODEL_CLASSES = (models.FcnClassifier, models.LstmClassifier, models.RecurrentAutoencoder,
                 models.EncoderClassifier)


def _train_flag(args, kwargs) -> bool:
    return bool(args[2] if len(args) > 2 else kwargs.get("train", False))


def _model_forward(tracer: Tracer, args, kwargs) -> None:
    if not _train_flag(args, kwargs) and tracer.inside("training.valid_pass"):
        tracer.count("valid_forwards")
    if isinstance(args[0], models.EncoderClassifier) and tracer.inside("training.train_classifier"):
        tracer.count("encoder_rows", args[1].shape[0])


def _valid_pass(tracer: Tracer, args, kwargs) -> None:
    ws, batch_size = args[1], args[3]
    tracer.count("epochs")
    tracer.count("valid_batches", math.ceil(len(ws) / max(batch_size, 256)))


def _trained(tracer: Tracer, args, kwargs, result) -> None:
    model, train, valid = args[:3]
    if isinstance(model, models.EncoderClassifier):
        tracer.count("head_window_epochs", (len(train) + len(valid)) * len(result[1]))


def _smoothed(tracer: Tracer, args, kwargs, result) -> None:
    tracer.count("smooth_flips", int((result.decisions != args[0].decisions).sum()))


def _searched(tracer: Tracer, args, kwargs, result) -> None:
    for trial in result[0]:
        tracer.sample("trial_seconds", trial.wall_seconds)


def install(tracer: Tracer) -> None:
    """Wrap the layers; ``tracer.close()`` undoes it."""
    for cls, label in ((nn.Conv1d, "Conv1d"), (nn.BatchNorm1d, "BatchNorm1d"),
                       (nn.Lstm, "Lstm"), (nn.Dense, "Dense")):
        tracer.patch_method(cls, "forward", f"nn.{label}.forward")
        tracer.patch_method(cls, "backward", f"nn.{label}.backward")
    tracer.patch_method(nn.Dropout, "forward", "nn.Dropout.forward")
    for cls in MODEL_CLASSES:
        tracer.patch_method(cls, "forward", f"models.{cls.kind}.forward", before=_model_forward)
        tracer.patch_method(cls, "backward", f"models.{cls.kind}.backward")
        tracer.patch_method(cls, "predict_proba", f"models.{cls.kind}.predict_proba")
    for attr in ("to_json", "from_json", "to_csv"):
        tracer.patch_method(PredictionTrack, attr, "evaluation.track_io")
    functions = [
        (nn.losses, "bce_with_logits", "nn.loss"), (nn.losses, "mse", "nn.loss"),
        (nn.losses, "softmax_cross_entropy", "nn.loss"), (nn.params, "adam_step", "nn.adam_step"),
        (nn.checkpoint, "save_checkpoint", "nn.checkpoint.save"),
        (nn.checkpoint, "load_checkpoint", "nn.checkpoint.load"),
        (training, "train_autoencoder", "training.train_autoencoder"),
        (evaluation, "evaluate", "evaluation.evaluate"),
        (evaluation, "predict_timeline", "evaluation.predict_timeline"),
        (frames, "parse_frame", "frames.parse_frame"),
        (frames, "frame_to_csv", "frames.frame_to_csv"),
        (frames, "missing_report", "frames.missing_report"),
        (frames, "interpolate_missing", "frames.interpolate_missing"),
        (pipeline, "build_windows", "pipeline.build_windows"),
        (pipeline, "transform", "pipeline.transform"),
        (synth, "generate_frame", "synth.generate"), (pca, "pca_fit", "pca.fit"),
    ]
    for module, attr, name in functions:
        tracer.patch_function(module.__name__, attr, name)
    tracer.patch_function(training.__name__, "_validation_pass", "training.valid_pass",
                          before=_valid_pass)
    tracer.patch_function(training.__name__, "train_classifier", "training.train_classifier",
                          after=_trained)
    tracer.patch_function(evaluation.__name__, "smooth", "evaluation.smooth", after=_smoothed)
    tracer.patch_function(search.__name__, "random_search", "search.random_search",
                          after=_searched)
    tracer.patch_function(cli.__name__, "main", "cli.main")


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    return "count" if name in COUNTS else "ratio"


def layer_metrics(spans: dict, counts, samples: dict) -> dict[str, float]:
    """Per-layer metrics of one set-up or round (seconds, counts and ratios)."""
    trial_seconds = samples.get("trial_seconds", [])
    totals: dict[str, float] = {}
    calls: dict[str, int] = {}
    for s in spans.values():
        totals[s.name] = totals.get(s.name, 0.0) + s.seconds
        calls[s.name] = calls.get(s.name, 0) + 1
    out = {f"{name}_s": totals.get(name, 0.0) for name in TIMED}
    out["nn.Lstm.calls"] = calls.get("nn.Lstm.forward", 0)
    out["nn.adam_step.calls"] = calls.get("nn.adam_step", 0)
    out["training.epochs"] = counts["epochs"]
    out["training.eval_forwards_per_valid_batch"] = (
        counts["valid_forwards"] / counts["valid_batches"] if counts["valid_batches"] else 0.0)
    out["models.encoder_forwards_per_window"] = (
        counts["encoder_rows"] / counts["head_window_epochs"]
        if counts["head_window_epochs"] else 0.0)
    out["evaluation.predict_timeline_self_s"] = self_seconds(spans, "evaluation.predict_timeline")
    out["evaluation.smooth_flips"] = counts["smooth_flips"]
    search_s = totals.get("search.random_search", 0.0)
    out["search.trial_s"] = statistics.median(trial_seconds) if trial_seconds else 0.0
    out["search.concurrency"] = sum(trial_seconds) / search_s if search_s else 0.0
    out["cli.overhead_s"] = self_seconds(spans, "cli.main")
    return out
