"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`. The end-to-end criteria are
seeded regressions on the bundled synthetic scenario; the structural criteria
are exact; the numeric oracles compare against independent brute-force
implementations at the stated tolerances.
"""

from __future__ import annotations

import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from conftest import numeric_gradient, rel_error
from roomsense.evaluation import evaluate, smooth
from roomsense.evaluation import PredictionTrack
from roomsense.frames import STANDARD_CHANNELS, binarize_person, pearson_matrix
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
    param_count,
    save_model,
)
from roomsense.nn import (
    BatchNorm1d,
    Conv1d,
    Dense,
    Dropout,
    GlobalAvgPool,
    Lstm,
    MaxPool1dSame,
    ParamStore,
    Relu,
    Sigmoid,
    SoftmaxClasses,
    bce_with_logits,
    mse,
    softmax_cross_entropy,
)
from roomsense.pca import pca_fit
from roomsense.pipeline import (
    SplitSpec,
    WindowSet,
    build_windows,
    fit_scaler,
    slide,
    Segment,
    split_fraction,
    split_random,
    split_time,
    transform,
    undersample,
    window_label,
)
from roomsense.rng import Rng
from roomsense.synth import bundled_scenario, generate_fleet, generate_frame
from roomsense.training import TrainConfig, train_autoencoder, train_classifier

NINE_CHANNELS = ("humidity", "temperature", "tvoc", "oxygen", "co2", "co",
                 "pressure", "o3", "sound")

_cache: dict = {}


def report(num: int, name: str, ok: bool, detail: str, elapsed: float,
           budget: float) -> None:
    verdict = "PASS" if ok else "FAIL"
    line = (f"ACCEPTANCE {num} {verdict} {name}: {detail} "
            f"[{elapsed:.1f}s / budget {budget:.0f}s]")
    print("\n" + line)
    assert ok, line
    assert elapsed < budget, f"criterion {num} exceeded its runtime budget: {line}"


# ---------------------------------------------------------------------------
# criterion 1: exact parameter-count reproduction
# ---------------------------------------------------------------------------

def test_criterion_1_parameter_counts():
    t0 = time.perf_counter()
    counts = {
        "fcn_minimized": param_count(
            build_fcn(FcnConfig(in_channels=9, filters=(16, 32), kernels=(5, 3)))),
        "fcn_optimized": param_count(
            build_fcn(FcnConfig(in_channels=9, filters=(32, 8), kernels=(5, 3)))),
        "lstm_uni": param_count(
            build_lstm_classifier(LstmConfig(in_channels=8, hidden=100))),
        "lstm_bi": param_count(
            build_lstm_classifier(LstmConfig(in_channels=8, hidden=100,
                                             bidirectional=True))),
    }
    expected = {"fcn_minimized": 2418, "fcn_optimized": 2306,
                "lstm_uni": 43802, "lstm_bi": 87602}
    ok = counts == expected
    report(1, "parameter counts", ok, f"{counts}", time.perf_counter() - t0, 1.0)


# ---------------------------------------------------------------------------
# criterion 2: gradient suite at h=1e-5, rel error < 1e-4
# ---------------------------------------------------------------------------

def _grad_check_params(loss_fn, run_backward, store, h=1e-5):
    store.grad_arena[...] = 0.0
    run_backward()
    worst = 0.0
    for p in store:
        if not p.trainable:
            continue
        num = numeric_gradient(loss_fn, p.value, h=h)
        worst = max(worst, rel_error(p.grad, num))
    return worst


def _grad_check_input(loss_fn, dx, x, h=1e-5):
    return rel_error(dx, numeric_gradient(loss_fn, x, h=h))


def _layer_gradient_sweep() -> float:
    worst = 0.0
    rng_seed = 100

    def bump():
        nonlocal rng_seed
        rng_seed += 1
        return rng_seed

    # conv1d on three shapes
    for (shape, k) in [((2, 3, 9), 5), ((1, 2, 7), 3), ((3, 1, 8), 4)]:
        store = ParamStore()
        conv = Conv1d(store, "c", shape[1], 3, k, Rng(bump()))
        x = Rng(bump()).normal(size=shape)
        t = Rng(bump()).normal(size=(shape[0], 3, shape[2]))
        state = {}

        def run():
            _, g = mse(conv.forward(x), t)
            state["dx"] = conv.backward(g)

        worst = max(worst, _grad_check_params(
            lambda: mse(conv.forward(x), t)[0], run, store))
        worst = max(worst, _grad_check_input(
            lambda: mse(conv.forward(x), t)[0], state["dx"], x))

    # batchnorm1d, train mode, three shapes
    for shape in [(4, 3, 7), (2, 1, 9), (3, 5, 2)]:
        store = ParamStore()
        bn = BatchNorm1d(store, "b", shape[1])
        bn.gamma.value[...] = Rng(bump()).uniform(0.5, 1.5, size=(shape[1],))
        bn.beta.value[...] = Rng(bump()).normal(size=(shape[1],))
        x = Rng(bump()).normal(size=shape)
        t = Rng(bump()).normal(size=shape)
        state = {}

        def run():
            _, g = mse(bn.forward(x, train=True), t)
            state["dx"] = bn.backward(g)

        worst = max(worst, _grad_check_params(
            lambda: mse(bn.forward(x, train=True), t)[0], run, store))
        worst = max(worst, _grad_check_input(
            lambda: mse(bn.forward(x, train=True), t)[0], state["dx"], x))

    # dense on three shapes
    for (n, d, m) in [(4, 3, 2), (1, 5, 4), (6, 2, 7)]:
        store = ParamStore()
        dense = Dense(store, "d", d, m, Rng(bump()))
        x = Rng(bump()).normal(size=(n, d))
        t = Rng(bump()).normal(size=(n, m))
        state = {}

        def run():
            _, g = mse(dense.forward(x), t)
            state["dx"] = dense.backward(g)

        worst = max(worst, _grad_check_params(
            lambda: mse(dense.forward(x), t)[0], run, store))
        worst = max(worst, _grad_check_input(
            lambda: mse(dense.forward(x), t)[0], state["dx"], x))

    # LSTM uni + bi, sequence and last, three shapes each direction mode
    for bidir, seq, shape, h_size in [
        (False, False, (2, 3, 5), 4), (False, True, (1, 2, 6), 3),
        (False, False, (3, 2, 4), 2), (True, False, (2, 3, 5), 4),
        (True, True, (1, 2, 4), 3), (True, False, (2, 2, 6), 2),
    ]:
        store = ParamStore()
        lstm = Lstm(store, "l", shape[1], h_size, Rng(bump()),
                    bidirectional=bidir, return_sequence=seq)
        x = Rng(bump()).normal(size=shape)
        width = h_size * (2 if bidir else 1)
        t_shape = (shape[0], width, shape[2]) if seq else (shape[0], width)
        t = Rng(bump()).normal(size=t_shape)
        state = {}

        def run():
            _, g = mse(lstm.forward(x), t)
            state["dx"] = lstm.backward(g)

        worst = max(worst, _grad_check_params(
            lambda: mse(lstm.forward(x), t)[0], run, store))
        worst = max(worst, _grad_check_input(
            lambda: mse(lstm.forward(x), t)[0], state["dx"], x))

    # GAP, maxpool, activations, dropout (input gradients)
    for shape in [(2, 3, 5), (1, 4, 7), (3, 2, 4)]:
        gap = GlobalAvgPool()
        x = Rng(bump()).normal(size=shape)
        t = Rng(bump()).normal(size=shape[:2])
        _, g = mse(gap.forward(x), t)
        worst = max(worst, _grad_check_input(
            lambda: mse(gap.forward(x), t)[0], gap.backward(g), x))

        pool = MaxPool1dSame()
        t2 = Rng(bump()).normal(size=shape)
        _, g2 = mse(pool.forward(x), t2)
        worst = max(worst, _grad_check_input(
            lambda: mse(pool.forward(x), t2)[0], pool.backward(g2), x))

        for act in (Relu(), Sigmoid()):
            xa = Rng(bump()).normal(size=shape)
            ta = Rng(bump()).normal(size=shape)
            _, ga = mse(act.forward(xa), ta)
            worst = max(worst, _grad_check_input(
                lambda: mse(act.forward(xa), ta)[0], act.backward(ga), xa))

    for shape in [(3, 4), (2, 6), (5, 2)]:
        soft = SoftmaxClasses()
        x = Rng(bump()).normal(size=shape)
        t = Rng(bump()).uniform(size=shape)
        _, g = mse(soft.forward(x), t)
        worst = max(worst, _grad_check_input(
            lambda: mse(soft.forward(x), t)[0], soft.backward(g), x))

        seed = bump()
        x2 = Rng(bump()).normal(size=shape)
        t2 = Rng(bump()).normal(size=shape)

        def drop_loss():
            drop = Dropout(0.3, Rng(seed))
            return mse(drop.forward(x2, train=True), t2)[0]

        drop = Dropout(0.3, Rng(seed))
        _, g2 = mse(drop.forward(x2, train=True), t2)
        worst = max(worst, _grad_check_input(drop_loss, drop.backward(g2), x2))

    # both losses (plus the softmax variant) w.r.t. logits
    for shape in [(3, 2), (2, 4), (4, 3)]:
        z = Rng(bump()).normal(size=shape)
        y = (Rng(bump()).uniform(size=shape) < 0.5).astype(float)
        _, g = bce_with_logits(z, y)
        worst = max(worst, _grad_check_input(lambda: bce_with_logits(z, y)[0], g, z))

        p = Rng(bump()).normal(size=shape)
        t = Rng(bump()).normal(size=shape)
        _, gm = mse(p, t)
        worst = max(worst, _grad_check_input(lambda: mse(p, t)[0], gm, p))

        onehot = np.eye(shape[1])[Rng(bump()).integers(shape[1], size=(shape[0],))]
        _, gs = softmax_cross_entropy(z, onehot)
        worst = max(worst, _grad_check_input(
            lambda: softmax_cross_entropy(z, onehot)[0], gs, z))

    return worst


def _end_to_end_gradient_sweep() -> float:
    worst = 0.0

    def check(model, x, loss_of, h=1e-5):
        nonlocal worst
        model.store.grad_arena[...] = 0.0
        out = model.forward(x, train=True)
        _, grad = loss_of(out)
        model.backward(grad)
        analytic = {p.name: p.grad.copy() for p in model.store if p.trainable}
        for p in model.store:
            if not p.trainable:
                continue
            num = numeric_gradient(
                lambda: loss_of(model.forward(x, train=True))[0], p.value, h=h)
            worst = max(worst, rel_error(analytic[p.name], num))

    y2 = (Rng(201).uniform(size=(3, 2)) < 0.5).astype(float)
    fcn = build_fcn(FcnConfig(in_channels=2, filters=(3, 2), kernels=(3, 3)), seed=11)
    check(fcn, Rng(202).normal(size=(3, 2, 6)), lambda o: bce_with_logits(o, y2))

    y3 = (Rng(203).uniform(size=(2, 2)) < 0.5).astype(float)
    lstm = build_lstm_classifier(LstmConfig(in_channels=2, hidden=3), seed=12)
    check(lstm, Rng(204).normal(size=(2, 2, 4)), lambda o: bce_with_logits(o, y3))

    inc = build_inception(InceptionConfig(in_channels=2, filters=2, bottleneck=2,
                                          branch_kernels=(3, 5), depth=3),
                          seed=13)
    check(inc, Rng(205).normal(size=(2, 2, 8)), lambda o: bce_with_logits(o, y3))

    ae = build_autoencoder(AutoencoderConfig(in_channels=2, encoder_hidden=(3, 3),
                                             latent=2, window=4), seed=14)
    x_ae = Rng(206).normal(size=(2, 2, 4))
    check(ae, x_ae, lambda o: mse(o, x_ae))

    y5 = (Rng(207).uniform(size=(3, 2)) < 0.5).astype(float)
    enc_clf = build_encoder_classifier(ae, HeadConfig(hidden=4, classes=2), seed=15)
    check(enc_clf, Rng(208).normal(size=(3, 2, 4)), lambda o: bce_with_logits(o, y5))

    return worst


def test_criterion_2_gradient_suite():
    t0 = time.perf_counter()
    worst_layer = _layer_gradient_sweep()
    worst_e2e = _end_to_end_gradient_sweep()
    ok = worst_layer < 1e-4 and worst_e2e < 1e-4
    report(2, "gradient suite", ok,
           f"worst layer rel err {worst_layer:.2e}, worst end-to-end {worst_e2e:.2e}",
           time.perf_counter() - t0, 60.0)


# ---------------------------------------------------------------------------
# criterion 3: pipeline operations vs independent brute force
# ---------------------------------------------------------------------------

def _undersample_oracle(labels, k):
    n = labels.shape[0]
    keep = sorted({j for i in range(n) if labels[i].any()
                   for j in range(max(0, i - k), min(n, i + k + 1))})
    runs = []
    for j in keep:
        if runs and j == runs[-1][1]:
            runs[-1][1] = j + 1
        else:
            runs.append([j, j + 1])
    return [tuple(r) for r in runs]


def _smooth_oracle(series, width):
    d = list(series)
    while True:
        runs = []
        for i, v in enumerate(d):
            if runs and runs[-1][0] == v:
                runs[-1][2] += 1
            else:
                runs.append([v, i, 1])
        flipped = False
        for j in range(1, len(runs) - 1):
            v, s, ln = runs[j]
            if (v in (0, 1) and ln < width and runs[j - 1][0] == runs[j + 1][0]
                    and runs[j - 1][0] in (0, 1)):
                for i in range(s, s + ln):
                    d[i] = runs[j - 1][0]
                flipped = True
                break
        if not flipped:
            return d


def _track_of(series):
    d = np.asarray(series, dtype=np.int8)[None, :]
    probs = np.where(d == -1, np.nan, d * 0.9 + 0.05)
    return PredictionTrack(np.arange(d.shape[1], dtype=np.int64), ("c0",), probs, d, 0.5)


def test_criterion_3_pipeline_oracles():
    t0 = time.perf_counter()
    rng = Rng(303)
    failures = []

    for i in range(120):  # undersample
        n = 4 + rng.integers(40)
        k = rng.integers(6)
        labels = (rng.uniform(size=(n, 2)) < 0.2).astype(float)
        got = [(s.start, s.end) for s in undersample(labels, k)]
        if got != _undersample_oracle(labels, k):
            failures.append(f"undersample instance {i}")

    for i in range(120):  # slide
        start = rng.integers(5)
        end = start + 1 + rng.integers(30)
        length = 1 + rng.integers(8)
        stride = 1 + rng.integers(4)
        got = slide(Segment(start, end), length, stride)
        want = [s for s in range(start, end)
                if s + length <= end and (s - start) % stride == 0]
        if got != want:
            failures.append(f"slide instance {i}")

    for i in range(120):  # window_label
        length = 1 + rng.integers(10)
        block = (rng.uniform(size=(length, 2)) < 0.5).astype(float)
        first = block[0].tolist()
        last = block[-1].tolist()
        mean = [1.0 if block[:, c].mean() >= 0.5 else 0.0 for c in range(2)]
        if (window_label(block, "first").tolist() != first
                or window_label(block, "last").tolist() != last
                or window_label(block, "mean").tolist() != mean):
            failures.append(f"window_label instance {i}")

    for i in range(100):  # split_random vs documented shuffle + partition laws
        n = 10 + rng.integers(60)
        seed = int(rng.integers(10_000))
        ws = WindowSet(X=np.arange(n, dtype=float)[:, None, None], Y=np.zeros((n, 1)),
                       channel_names=("a",), class_names=("c",),
                       start_timestamps=np.arange(n, dtype=np.int64),
                       label_position="first")
        tr, va, te = split_random(ws, SplitSpec(seed=seed))
        perm = np.argsort(Rng(seed).raw(n), kind="stable")
        n_tr, n_va = int(np.floor(n * 0.7)), int(np.floor(n * 0.2))
        want = (perm[:n_tr], perm[n_tr:n_tr + n_va], perm[n_tr + n_va:])
        got = (tr.start_timestamps, va.start_timestamps, te.start_timestamps)
        if any(not np.array_equal(g, w) for g, w in zip(got, want)):
            failures.append(f"split_random instance {i}")

    for i in range(150):  # smooth
        n = 3 + rng.integers(50)
        w = 1 + rng.integers(4)
        series = (rng.uniform(size=(n,)) < 0.5).astype(np.int8)
        got = smooth(_track_of(series), w).decisions[0].tolist()
        if got != _smooth_oracle(series.tolist(), w):
            failures.append(f"smooth instance {i}")

    from conftest import toy_frame
    for i in range(100):  # pearson vs numpy
        n = 5 + rng.integers(40)
        d = 2 + rng.integers(4)
        data = {f"c{j}": rng.normal(size=(n,)).tolist() for j in range(d)}
        m = pearson_matrix(toy_frame(data), list(data))
        oracle = np.corrcoef(np.array([data[f"c{j}"] for j in range(d)]))
        if np.abs(m.matrix - oracle).max() > 1e-9:
            failures.append(f"pearson instance {i}")

    for i in range(100):  # pca vs eigh
        n = 20 + rng.integers(50)
        d = 3 + rng.integers(4)
        scales = np.array([2.5 ** -j for j in range(d)])
        data = rng.normal(size=(n, d)) * scales + rng.normal(size=(d,))
        model = pca_fit(data)
        centered = data - data.mean(axis=0)
        evals, evecs = np.linalg.eigh(centered.T @ centered / n)
        order = np.argsort(evals)[::-1]
        frac = evals[order[:2]] / evals.sum()
        if (abs(model.explained[0] - frac[0]) > 1e-9
                or abs(model.explained[1] - frac[1]) > 1e-9
                or abs(model.components[:, 0] @ evecs[:, order[0]]) < 1 - 1e-9
                or abs(model.components[:, 1] @ evecs[:, order[1]]) < 1 - 1e-9):
            failures.append(f"pca instance {i}")

    ok = not failures
    report(3, "pipeline oracles", ok,
           "all 7 operations match brute force" if ok else f"failures: {failures[:5]}",
           time.perf_counter() - t0, 30.0)


# ---------------------------------------------------------------------------
# criteria 4 + 8: end-to-end supervised regression and its determinism
# ---------------------------------------------------------------------------

def _supervised_pipeline(workdir: Path) -> dict:
    frame = binarize_person(generate_frame(bundled_scenario()))
    cut = int(frame.timestamps[int(len(frame) * 0.75)])
    train_frame, test_frame = split_time(frame, cut)
    train_w = build_windows(train_frame, NINE_CHANNELS, length=7, stride=1,
                            position="first", undersample_k=50)
    test_w = build_windows(test_frame, NINE_CHANNELS, length=7, stride=1,
                           position="first")
    tr, va = split_fraction(train_w, 0.8, seed=11)
    scaler = fit_scaler("standard", tr)
    tr_s, va_s, te_s = (transform(scaler, tr), transform(scaler, va),
                        transform(scaler, test_w))
    cfg = TrainConfig(epochs=100, batch_size=64, lr_max=3e-3, lr_min=1e-5,
                      seed=1, patience=10)

    fcn = build_fcn(FcnConfig(in_channels=9, filters=(32, 8), kernels=(5, 3)), seed=1)
    fcn, fcn_hist = train_classifier(fcn, tr_s, va_s, cfg)
    fcn_metrics, _ = evaluate(fcn, te_s)

    lstm = build_lstm_classifier(LstmConfig(in_channels=9, hidden=26, dropout=0.2),
                                 seed=1)
    lstm, lstm_hist = train_classifier(lstm, tr_s, va_s, cfg)
    lstm_metrics, _ = evaluate(lstm, te_s)

    save_model(fcn, workdir / "fcn", step=len(fcn_hist))
    save_model(lstm, workdir / "lstm", step=len(lstm_hist))
    return {
        "fcn_f1": fcn_metrics.f1,
        "lstm_f1": lstm_metrics.f1,
        "fcn_ckpt": ((workdir / "fcn.json").read_bytes(),
                     (workdir / "fcn.bin").read_bytes()),
        "lstm_ckpt": ((workdir / "lstm.json").read_bytes(),
                      (workdir / "lstm.bin").read_bytes()),
        "report": fcn_metrics.to_json() + lstm_metrics.to_json(),
        "history_report": fcn_hist.to_json() + lstm_hist.to_json(),
    }


def _supervised(tmp_path_factory) -> dict:
    if "supervised" not in _cache:
        t0 = time.perf_counter()
        workdir = tmp_path_factory.mktemp("supervised_run1")
        result = _supervised_pipeline(workdir)
        result["elapsed"] = time.perf_counter() - t0
        _cache["supervised"] = result
    return _cache["supervised"]


def test_criterion_4_end_to_end_regression(tmp_path_factory):
    art = _supervised(tmp_path_factory)
    fcn_ok = all(f >= 0.90 for f in art["fcn_f1"])
    lstm_ok = all(f >= 0.85 for f in art["lstm_f1"])
    report(4, "end-to-end synthetic regression", fcn_ok and lstm_ok,
           f"FCN F1 {[round(f, 4) for f in art['fcn_f1']]} (>=0.90), "
           f"LSTM F1 {[round(f, 4) for f in art['lstm_f1']]} (>=0.85)",
           art["elapsed"], 600.0)


# ---------------------------------------------------------------------------
# criterion 5: under-sampling effect (timing ratio + F1 proximity)
# ---------------------------------------------------------------------------

def test_criterion_5_undersampling_effect():
    t0 = time.perf_counter()
    frame = binarize_person(generate_frame(bundled_scenario()))

    def run(windows, seed=3):
        tr, va, te = split_random(windows, SplitSpec(seed=seed))
        scaler = fit_scaler("standard", tr)
        tr, va, te = (transform(scaler, tr), transform(scaler, va),
                      transform(scaler, te))
        model = build_fcn(FcnConfig(in_channels=9, filters=(16, 32), kernels=(5, 3)),
                          seed=seed)
        cfg = TrainConfig(epochs=8, batch_size=64, lr_max=3e-3, lr_min=1e-5,
                          seed=seed, early_stopping=False)
        # CPU time of this process, so load from other processes cannot move the ratio
        t_start = time.process_time()
        model, _ = train_classifier(model, tr, va, cfg)
        cpu = time.process_time() - t_start
        metrics, _ = evaluate(model, te)
        return cpu, metrics.f1

    full = build_windows(frame, NINE_CHANNELS, length=7, position="first")
    under = build_windows(frame, NINE_CHANNELS, length=7, position="first",
                          undersample_k=30)
    cpu_full, f1_full = run(full)
    cpu_under, f1_under = run(under)
    ratio = cpu_full / cpu_under
    diffs = [abs(a - b) for a, b in zip(f1_full, f1_under)]
    ok = ratio >= 2.0 and all(d <= 0.05 for d in diffs)
    report(5, "under-sampling effect", ok,
           f"CPU-time ratio {ratio:.2f}x (>=2), F1 full {[round(f, 3) for f in f1_full]} "
           f"vs under {[round(f, 3) for f in f1_under]}, max diff {max(diffs):.3f}",
           time.perf_counter() - t0, 600.0)


# ---------------------------------------------------------------------------
# criterion 6: scaler equivalence
# ---------------------------------------------------------------------------

def test_criterion_6_scaler_equivalence():
    t0 = time.perf_counter()
    frame = binarize_person(generate_frame(bundled_scenario()))
    windows = build_windows(frame, NINE_CHANNELS, length=7, position="first",
                            undersample_k=30)

    def run(kind):
        tr, va, te = split_random(windows, SplitSpec(seed=5))
        scaler = fit_scaler(kind, tr)
        tr, va, te = (transform(scaler, tr), transform(scaler, va),
                      transform(scaler, te))
        model = build_fcn(FcnConfig(in_channels=9, filters=(16, 32), kernels=(5, 3)),
                          seed=5)
        cfg = TrainConfig(epochs=8, batch_size=64, lr_max=3e-3, lr_min=1e-5,
                          seed=5, early_stopping=False)
        model, _ = train_classifier(model, tr, va, cfg)
        metrics, _ = evaluate(model, te)
        return metrics.f1

    f1_std = run("standard")
    f1_mm = run("minmax")
    diffs = [abs(a - b) for a, b in zip(f1_std, f1_mm)]
    ok = all(d <= 0.05 for d in diffs)
    report(6, "scaler equivalence", ok,
           f"standard {[round(f, 3) for f in f1_std]} vs minmax "
           f"{[round(f, 3) for f in f1_mm]}, max diff {max(diffs):.3f} (<=0.05)",
           time.perf_counter() - t0, 300.0)


# ---------------------------------------------------------------------------
# criteria 7 + 8: semi-supervised path and its determinism
# ---------------------------------------------------------------------------

def _semisupervised_pipeline(workdir: Path) -> dict:
    fleet_cfg = replace(bundled_scenario(), n_samples=600, seed=70)
    fleet = generate_fleet(fleet_cfg, devices=20)
    pieces = [build_windows(f, STANDARD_CHANNELS, length=7) for f in fleet]
    corpus = WindowSet(
        X=np.concatenate([w.X for w in pieces]),
        Y=np.zeros((sum(len(w) for w in pieces), 0)),
        channel_names=STANDARD_CHANNELS,
        class_names=(),
        start_timestamps=np.concatenate([w.start_timestamps for w in pieces]),
        label_position="first",
    )
    scaler = fit_scaler("standard", corpus)
    corpus_s = transform(scaler, corpus)
    ae_cfg = TrainConfig(epochs=3, batch_size=64, lr_max=3e-3, lr_min=1e-4,
                         seed=5, early_stopping=False)

    ae10 = build_autoencoder(AutoencoderConfig(latent=10), seed=5)
    ae10, hist10 = train_autoencoder(ae10, corpus_s, ae_cfg)
    ae2 = build_autoencoder(AutoencoderConfig(latent=2), seed=5)
    ae2, hist2 = train_autoencoder(ae2, corpus_s, ae_cfg)

    frame = binarize_person(generate_frame(bundled_scenario()))
    cut = int(frame.timestamps[int(len(frame) * 0.75)])
    train_frame, test_frame = split_time(frame, cut)
    train_w = build_windows(train_frame, STANDARD_CHANNELS, length=7,
                            position="first", undersample_k=50)
    test_w = build_windows(test_frame, STANDARD_CHANNELS, length=7, position="first")
    train_s = transform(scaler, train_w)
    test_s = transform(scaler, test_w)
    head_pool, _ = split_fraction(train_s, 0.1, seed=13)  # 10% of labelled windows
    head_tr, head_va = split_fraction(head_pool, 0.8, seed=14)

    clf = build_encoder_classifier(ae10, HeadConfig(), seed=6)
    head_cfg = TrainConfig(epochs=100, batch_size=64, lr_max=3e-3, lr_min=1e-4,
                           seed=6, patience=10)
    clf, head_hist = train_classifier(clf, head_tr, head_va, head_cfg)
    metrics, _ = evaluate(clf, test_s)

    save_model(clf, workdir / "encoder_clf", step=len(head_hist))
    return {
        "f1": metrics.f1,
        "mse10": hist10.valid_loss[-1],
        "mse2": hist2.valid_loss[-1],
        "labelled_fraction_count": len(head_pool),
        "ckpt": ((workdir / "encoder_clf.json").read_bytes(),
                 (workdir / "encoder_clf.bin").read_bytes()),
        "report": metrics.to_json() + head_hist.to_json(),
    }


def _semisupervised(tmp_path_factory) -> dict:
    if "semi" not in _cache:
        t0 = time.perf_counter()
        workdir = tmp_path_factory.mktemp("semi_run1")
        result = _semisupervised_pipeline(workdir)
        result["elapsed"] = time.perf_counter() - t0
        _cache["semi"] = result
    return _cache["semi"]


def test_criterion_7_semisupervised_path(tmp_path_factory):
    art = _semisupervised(tmp_path_factory)
    f1_ok = all(f >= 0.80 for f in art["f1"])
    mse_ok = art["mse10"] < art["mse2"]
    report(7, "semi-supervised path", f1_ok and mse_ok,
           f"encoder-classifier F1 {[round(f, 4) for f in art['f1']]} (>=0.80) on "
           f"{art['labelled_fraction_count']} labelled windows; "
           f"recon MSE latent10 {art['mse10']:.4f} < latent2 {art['mse2']:.4f}",
           art["elapsed"], 900.0)


def test_criterion_8_determinism(tmp_path_factory):
    first_sup = _supervised(tmp_path_factory)
    first_semi = _semisupervised(tmp_path_factory)
    t0 = time.perf_counter()
    sup_again = _supervised_pipeline(tmp_path_factory.mktemp("supervised_run2"))
    semi_again = _semisupervised_pipeline(tmp_path_factory.mktemp("semi_run2"))
    checks = {
        "fcn checkpoint": first_sup["fcn_ckpt"] == sup_again["fcn_ckpt"],
        "lstm checkpoint": first_sup["lstm_ckpt"] == sup_again["lstm_ckpt"],
        "supervised reports": (first_sup["report"] == sup_again["report"]
                               and first_sup["history_report"]
                               == sup_again["history_report"]),
        "encoder checkpoint": first_semi["ckpt"] == semi_again["ckpt"],
        "semi reports": first_semi["report"] == semi_again["report"],
    }
    ok = all(checks.values())
    report(8, "determinism", ok,
           "bit-identical checkpoints and reports on repeat" if ok
           else f"mismatches: {[k for k, v in checks.items() if not v]}",
           time.perf_counter() - t0, 1500.0)


# ---------------------------------------------------------------------------
# criterion 9: smoothing property over 1,000 random tracks
# ---------------------------------------------------------------------------

def test_criterion_9_smoothing_property():
    t0 = time.perf_counter()
    rng = Rng(909)
    ok = True
    detail = ""
    for i in range(1000):
        n = 3 + rng.integers(80)
        w = 1 + rng.integers(5)
        series = (rng.uniform(size=(n,)) < 0.5).astype(np.int8)
        once = smooth(_track_of(series), w)
        twice = smooth(once, w)
        if not np.array_equal(once.decisions, twice.decisions):
            ok, detail = False, f"not idempotent on instance {i}"
            break
        runs = []
        for v in once.decisions[0]:
            if runs and runs[-1][0] == v:
                runs[-1][1] += 1
            else:
                runs.append([int(v), 1])
        for j in range(1, len(runs) - 1):
            if runs[j - 1][0] == runs[j + 1][0] and runs[j][1] < w:
                ok, detail = False, f"short flank-agreeing run on instance {i}"
                break
        if not ok:
            break
    report(9, "smoothing property", ok,
           detail or "idempotent, no flank-agreeing run shorter than w (1000 tracks)",
           time.perf_counter() - t0, 5.0)
