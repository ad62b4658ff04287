"""Model calls outside training: 512-window chunks, finite input, nothing held.

Each model's own ``predict_proba`` and ``feature_space`` are the one level that
checks and chunks windows, so they agree byte for byte with an explicit
512-window loop on either side of a chunk edge, and ``forward`` is one batch.
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
from roomsense.rng import Rng

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
