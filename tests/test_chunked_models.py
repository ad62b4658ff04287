"""Model calls outside training: 512-window chunks, finite input, nothing held.

Each model's own ``predict_proba`` and ``feature_space`` check and chunk
windows, so they agree byte for byte with an explicit 512-window loop on
either side of a chunk edge, and ``forward`` is one batch. ``predict_timeline``
and the validation pass chunk through the same ``chunked``, the first picking
its windows by row so only one chunk is ever gathered.
The chunks run on the caller plus helper threads; the tests force three
helpers, so they cover that path on a one-core machine too. An eval-mode
forward keeps no backward cache, which tracemalloc sees as memory held after
the call.
"""

import os
import subprocess
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest

from roomsense.errors import ConfigError, DegenerateDataError
from roomsense.evaluation import NO_PREDICTION, predict_timeline
from roomsense.frames import binarize_person, frame_to_csv, interpolate_missing, parse_frame
from roomsense.models import (
    AutoencoderConfig,
    FcnConfig,
    HeadConfig,
    InceptionConfig,
    LstmConfig,
    build_autoencoder,
    build_encoder_classifier,
    build_fcn,
    build_inception,
    build_lstm_classifier,
)
from roomsense.nn import head_probabilities, layers
from roomsense.pipeline import fit_scaler, split_on_gaps
from roomsense.rng import Rng
from roomsense.synth import ScenarioConfig, generate_frame
from roomsense.training import _Encoded, _validation_pass, loss_for

CHUNK = 512
MIB = 2 ** 20


def _small(kind, channels=3, length=7):
    """A small model of ``kind`` whose batch norms hold running statistics."""
    if kind == "fcn":
        model = build_fcn(FcnConfig(in_channels=channels, filters=(6, 4), kernels=(3, 3)), 1)
    elif kind == "lstm":
        model = build_lstm_classifier(
            LstmConfig(in_channels=channels, hidden=5, bidirectional=True), 1)
    elif kind == "inception":
        model = build_inception(InceptionConfig(in_channels=channels, filters=2, bottleneck=2,
                                                branch_kernels=(2, 5), depth=3), 1)
    else:
        ae = build_autoencoder(AutoencoderConfig(in_channels=channels, encoder_hidden=(6,),
                                                 latent=4, window=length), 1)
        model = ae if kind == "autoencoder" else build_encoder_classifier(
            ae, HeadConfig(hidden=5, head_mode="single_label"), 2)
    model.forward(Rng(2).normal(size=(4, channels, length)), train=True)
    return model


CLASSIFIERS = ["fcn", "lstm", "inception", "encoder_classifier"]


@pytest.fixture
def helpers(monkeypatch):
    """Three helper threads, whatever this machine's core count and BLAS settings."""
    monkeypatch.setattr(layers, "CHUNK_HELPERS", 3)


@pytest.mark.parametrize("n", [1, 511, 512, 513, 1100, 5000])
@pytest.mark.parametrize("kind", [*CLASSIFIERS, "autoencoder"])
def test_own_calls_match_the_chunked_helpers_across_chunk_edges(kind, n, helpers):
    model = _small(kind)
    x = Rng(n).normal(size=(n, 3, 7))
    edges = range(0, n, CHUNK)
    # each chunk run alone on this thread: the serial loop the helpers must match
    features = [model.feature_space(x[i:i + CHUNK]) for i in edges]
    assert model.feature_space(x).tobytes() == np.concatenate(features).tobytes()
    if kind == "autoencoder":
        assert model.encode(x).tobytes() == np.concatenate(features).tobytes()
        return
    probs = model.predict_proba(x)
    by_chunk = [head_probabilities(model.forward(x[i:i + CHUNK]), model.config.head_mode)
                for i in edges]
    assert probs.tobytes() == np.concatenate(by_chunk).tobytes()
    # every window once, in order: the whole batch in one forward differs
    # from the chunks by GEMM summation order at most
    whole = head_probabilities(model.forward(x), model.config.head_mode)
    assert probs.shape == whole.shape
    np.testing.assert_allclose(probs, whole, rtol=1e-12, atol=1e-15)


def test_encoder_classifier_forward_runs_its_encoder_once():
    clf = _small("encoder_classifier")
    first, calls = clf.encoder[0], []
    run = first.forward
    first.forward = lambda x, train=True: calls.append(len(x)) or run(x, train)
    assert clf.forward(Rng(4).normal(size=(1100, 3, 7))).shape == (1100, clf.config.classes)
    assert calls == [1100]


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("kind", [*CLASSIFIERS, "autoencoder"])
def test_direct_calls_refuse_non_finite_windows(kind, bad):
    model = _small(kind)
    x = Rng(3).normal(size=(CHUNK + 3, 3, 7))
    x[CHUNK + 1, 2, 4] = bad  # in the second chunk
    calls = [model.feature_space]
    if kind == "autoencoder":
        calls.append(model.encode)
        with pytest.raises(ConfigError):
            model.predict_proba(x)
    else:
        calls.append(model.predict_proba)
    for call in calls:
        with pytest.raises(DegenerateDataError, match="non-finite"):
            call(x)


def test_helpers_run_chunks_at_the_same_time(helpers):
    # the first two chunks wait for each other, which only a second thread can end
    meet = threading.Barrier(2, timeout=30)

    def method(xb):
        if xb[0, 0, 0] < CHUNK * 2:
            meet.wait()
        return xb[:, 0, 0]

    x = np.broadcast_to(np.arange(4 * CHUNK, dtype=float)[:, None, None], (4 * CHUNK, 1, 1))
    assert layers.chunked(method, x).tobytes() == x[:, 0, 0].tobytes()


def test_every_chunk_runs_once_under_fast_thread_switching(helpers):
    runs = np.zeros(40, dtype=int)

    def method(xb):
        runs[int(xb[0, 0, 0]) // CHUNK] += 1  # no two threads share a chunk
        return xb[:, 0, 0].copy()

    x = np.arange(40 * CHUNK - 7, dtype=float)[:, None, None]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            assert layers.chunked(method, x).tobytes() == x[:, 0, 0].tobytes()
    finally:
        sys.setswitchinterval(interval)
    assert (runs == 5).all(), runs


def test_a_failing_chunk_is_raised_and_no_call_outlives_chunked(helpers):
    lock = threading.Lock()
    running, started = [0], [0]

    def method(xb):
        with lock:
            running[0] += 1
            started[0] += 1
        try:
            if xb[0, 0, 0] == CHUNK:
                raise ArithmeticError("chunk at 512")
            time.sleep(0.01)
            return xb[:, 0, 0]
        finally:
            with lock:
                running[0] -= 1

    x = np.arange(20 * CHUNK, dtype=float)[:, None, None]
    with pytest.raises(ArithmeticError, match="chunk at 512"):
        layers.chunked(method, x)
    assert running[0] == 0
    calls = started[0]
    time.sleep(0.05)
    assert started[0] == calls < 20


def _recording_method():
    """A method that records each chunk's size (from any thread) and returns its rows."""
    sizes, lock = [], threading.Lock()

    def method(xb):
        with lock:
            sizes.append(len(xb))
        return xb[:, 0, 0].copy()
    return method, sizes


@pytest.mark.parametrize("n", [1, 511, 512, 513, 1300])
def test_rows_gather_each_chunk_across_chunk_edges(n, helpers):
    x = Rng(5).normal(size=(2000, 2, 3))
    rows = Rng(n).permutation(2000)[:n]
    method, sizes = _recording_method()
    got = layers.chunked(method, x, rows)
    # each chunk run alone on this thread: the serial loop the helpers must match
    by_chunk = [x[rows[i:i + CHUNK], 0, 0] for i in range(0, n, CHUNK)]
    assert got.tobytes() == np.concatenate(by_chunk).tobytes()
    assert sorted(sizes) == sorted(len(c) for c in by_chunk)


def test_rows_gather_one_chunk_per_thread_at_a_time(helpers):
    x = Rng(6).normal(size=(20_000, 17, 7))  # 19 MiB; four chunks are 1.9 MiB
    rows = np.arange(x.shape[0])[::-1]
    held, peak = _traced(lambda: layers.chunked(lambda xb: xb[:, 0, 0].copy(), x, rows))
    assert held < 0.5 and peak < 3, (held, peak)


def test_a_non_finite_row_that_rows_leave_out_is_not_checked(helpers):
    x = Rng(7).normal(size=(1200, 2, 3))
    x[5, 1, 2], x[700, 0, 0] = np.nan, np.inf
    rows = np.delete(np.arange(1200), [5, 700])
    method, _ = _recording_method()
    assert layers.chunked(method, x, rows).tobytes() == x[rows, 0, 0].tobytes()


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_a_non_finite_selected_row_is_a_data_error(bad, helpers):
    x = Rng(8).normal(size=(1200, 2, 3))
    x[700, 0, 0] = bad  # in the second chunk of rows

    def method(xb):
        assert np.isfinite(xb).all(), "a non-finite window reached the method"
        return xb[:, 0, 0].copy()

    with pytest.raises(DegenerateDataError, match="non-finite"):
        layers.chunked(method, x, np.arange(100, 1200))
    with pytest.raises(DegenerateDataError, match="zero windows"):
        layers.chunked(method, x, np.arange(0))


def test_predict_timeline_track_does_not_depend_on_the_helpers(monkeypatch):
    raw = generate_frame(ScenarioConfig(n_samples=3000, seed=4, missing_runs=6,
                                        gap_count=1))
    frame = binarize_person(parse_frame(frame_to_csv(raw)))
    segments = split_on_gaps(frame)
    channels = ("co2", "tvoc", "so2")
    assert len(segments) > 1 and np.isnan(frame.select_channels(channels).values).any()
    assert max(len(seg) for seg in segments) > 2 * CHUNK + 7  # more than two chunks
    scaler = fit_scaler("standard", interpolate_missing(frame).select_channels(channels))
    model = build_lstm_classifier(LstmConfig(in_channels=3, hidden=5), seed=3)
    texts = []
    for count in (0, 3):
        monkeypatch.setattr(layers, "CHUNK_HELPERS", count)
        track = predict_timeline(model, frame, scaler, 7)
        texts.append((track.to_json(), track.to_csv()))
    assert texts[0] == texts[1]
    assert (track.decisions[0] == NO_PREDICTION).sum() > 2 * 6  # missing cells, not only edges


@pytest.mark.parametrize("kind", ["fcn", "lstm", "encoder_classifier", "autoencoder"])
def test_validation_pass_matches_a_serial_per_chunk_reference(kind, helpers):
    model = _small(kind)
    x = Rng(9).normal(size=(1300, 3, 7))
    reconstruction = kind == "autoencoder"
    classes = 1 if reconstruction else model.config.classes
    labels = Rng(10).uniform(size=(len(x), classes)) < 0.4
    if getattr(model.config, "head_mode", "") == "single_label":
        labels = np.eye(classes)[Rng(10).integers(classes, size=len(x))] > 0
    net = getattr(model, "suffix", model)
    ws = _Encoded(model.feature_space(x) if net is not model else x, labels.astype(float))
    loss_fn = loss_for(model)
    loss, accuracy = _validation_pass(net, ws, loss_fn, reconstruction)
    # serial reference: one chunk at a time on this thread, a row-weighted mean of chunk losses
    total, correct = 0.0, 0
    for i in range(0, len(x), CHUNK):
        out = net.forward(ws.X[i:i + CHUNK], train=False)
        target = ws.X[i:i + CHUNK] if reconstruction else ws.Y[i:i + CHUNK]
        total += loss_fn(out, target)[0] * len(out)
        probs = head_probabilities(out, getattr(net.config, "head_mode", "multi_label"))
        correct += int(((probs >= 0.5) == (target >= 0.5)).sum())
    assert loss == pytest.approx(total / len(x), rel=0, abs=1e-12)
    assert accuracy == (None if reconstruction else correct / ws.Y.size)


@pytest.mark.parametrize("kind", [*CLASSIFIERS, "autoencoder"])
def test_zero_windows_are_a_data_error(kind):
    model = _small(kind)
    x = np.empty((0, 3, 7))
    calls = [model.feature_space] + ([] if kind == "autoencoder" else [model.predict_proba])
    for call in calls:
        with pytest.raises(DegenerateDataError, match="zero windows"):
            call(x)


CORES = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()


@pytest.mark.parametrize("first, env, blas, helper_count", [
    ("", {}, "1", min(CORES, 4) - 1),
    ("", {"OPENBLAS_NUM_THREADS": "4"}, "4", 0),
    ("import numpy; ", {}, "None", 0),
])
def test_blas_gets_one_thread_only_while_numpy_is_not_loaded(first, env, blas, helper_count):
    clean = {k: v for k, v in os.environ.items()
             if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    code = (f"{first}import os, roomsense; from roomsense.nn import layers; "
            "print(os.environ.get('OPENBLAS_NUM_THREADS'), layers.CHUNK_HELPERS)")
    out = subprocess.run([sys.executable, "-c", code], env={**clean, **env},
                         capture_output=True, text=True, check=True).stdout.split()
    assert out == [blas, str(helper_count)]


def _traced(call):
    """MiB still allocated after ``call()`` returns (its result dropped), and the peak."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = call()
        peak = tracemalloc.get_traced_memory()[1]
        del result
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    return (held - before) / MIB, (peak - before) / MIB


def test_encoder_classifier_prediction_memory_is_one_chunk(helpers):
    # peak memory with four chunks in flight
    clf = build_encoder_classifier(build_autoencoder(AutoencoderConfig(), seed=1),
                                   HeadConfig(), seed=2)
    x = Rng(0).normal(size=(5000, 17, 7))
    held, peak = _traced(lambda: clf.predict_proba(x))
    assert held < 8 and peak < 64, (held, peak)


DEFAULT_SIZE = {
    "fcn": lambda: build_fcn(FcnConfig(in_channels=17), 1),
    "lstm": lambda: build_lstm_classifier(LstmConfig(in_channels=17), 1),
    "inception": lambda: build_inception(InceptionConfig(in_channels=17), 1),
    "autoencoder": lambda: build_autoencoder(AutoencoderConfig(), 1),
    "encoder_classifier": lambda: build_encoder_classifier(
        build_autoencoder(AutoencoderConfig(), 1), HeadConfig(), 2),
}


@pytest.mark.parametrize("kind", DEFAULT_SIZE)
def test_eval_forward_holds_no_more_than_one_chunk(kind):
    model = DEFAULT_SIZE[kind]()
    model.forward(Rng(1).normal(size=(2, 17, 7)), train=True)  # batch-norm statistics
    x = Rng(2).normal(size=(CHUNK, 17, 7))
    held, _ = _traced(lambda: model.forward(x, train=False))
    assert held <= x.nbytes / MIB, held
