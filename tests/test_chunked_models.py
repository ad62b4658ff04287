"""Model calls outside training: 512-window chunks, finite input, nothing held.

Each model's own ``predict_proba`` and ``feature_space`` are the one level that
checks and chunks windows, so they agree byte for byte with an explicit
512-window loop on either side of a chunk edge, and ``forward`` is one batch.
An eval-mode forward keeps no backward cache, which tracemalloc sees as memory
held after the call.
"""

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
from roomsense.nn import head_probabilities
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


@pytest.mark.parametrize("n", [1, 511, 512, 513, 1100])
@pytest.mark.parametrize("kind", CLASSIFIERS)
def test_own_calls_match_the_chunked_helpers_across_chunk_edges(kind, n):
    model = _small(kind)
    x = Rng(n).normal(size=(n, 3, 7))
    probs = model.predict_proba(x)
    edges = range(0, n, CHUNK)
    by_chunk = [head_probabilities(model.forward(x[i:i + CHUNK]), model.config.head_mode)
                for i in edges]
    assert probs.tobytes() == np.concatenate(by_chunk).tobytes()
    features = [model.feature_space(x[i:i + CHUNK]) for i in edges]
    assert model.feature_space(x).tobytes() == np.concatenate(features).tobytes()
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


def test_encoder_classifier_prediction_memory_is_one_chunk():
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
