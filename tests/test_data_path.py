"""The column-wise data path against its row-at-a-time references.

Each reference below is the earlier per-element implementation, kept as an
oracle: synthetic frames must stay bit-identical, CSV bytes byte-identical,
and windows and tracks identical. The pinned SHA-256 digests were taken
from the reference implementations, so the synthetic corpus and its
artifacts cannot drift silently.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
from dataclasses import replace
from datetime import datetime, timedelta, timezone

import numpy as np
import pytest

from roomsense import frames
from roomsense.errors import IntegrityError, ParseError, SchemaError
from roomsense.evaluation import (
    NO_PREDICTION,
    PredictionTrack,
    predict_timeline,
)
from roomsense.frames import (
    CSV_BLOCK_ROWS,
    STANDARD_CHANNELS,
    STANDARD_LABELS,
    SensorFrame,
    binarize_person,
    frame_to_csv,
    interpolate_missing,
    parse_frame,
)
from roomsense.models import LstmConfig, build_lstm_classifier
from roomsense.nn import layers
from roomsense.pipeline import (
    Segment,
    build_windows,
    fit_scaler,
    label_offset,
    slide,
    split_on_gaps,
    transform,
    undersample,
    window_label,
)
from roomsense.rng import Rng, derive_seed
from roomsense.synth import (
    ScenarioConfig,
    _occupancy_schedule,
    _renewal_durations,
    bundled_scenario,
    generate_fleet,
    generate_frame,
)

INT64_MIN, INT64_MAX = -2**63, 2**63 - 1
NINE = ("humidity", "temperature", "tvoc", "oxygen", "co2", "co", "pressure", "o3", "sound")


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# ---------------------------------------------------------------------------
# references: the row-at-a-time implementations
# ---------------------------------------------------------------------------

def reference_window_schedule(cfg: ScenarioConfig, rng: Rng, person: np.ndarray) -> np.ndarray:
    window = np.zeros(cfg.n_samples, dtype=np.int64)
    n = cfg.n_samples
    starts = np.flatnonzero(np.diff(np.concatenate([[0], person > 0]).astype(int)) == 1)
    for block_start in starts:
        if rng.uniform() >= cfg.window_open_prob:
            continue
        block_len = 1
        while block_start + block_len < n and person[block_start + block_len] > 0:
            block_len += 1
        offset = rng.integers(max(1, block_len))
        dur = _renewal_durations(rng, cfg.window_mean)
        s = block_start + offset
        window[s:s + dur] = 1
    t = _renewal_durations(rng, cfg.idle_window_mean)
    while t < n:
        dur = _renewal_durations(rng, cfg.window_mean)
        window[t:t + dur] = 1
        t += dur + _renewal_durations(rng, cfg.idle_window_mean)
    return window


def reference_generate_frame(cfg: ScenarioConfig) -> SensorFrame:
    rng = Rng(cfg.seed)
    n = cfg.n_samples
    person = _occupancy_schedule(cfg, rng.spawn(1))
    window = reference_window_schedule(cfg, rng.spawn(2), person)

    noise_rng = rng.spawn(3)
    eps = {name: noise_rng.normal(0.0, 1.0, size=(n,)) * cfg.noise_of(name)
           for name in STANDARD_CHANNELS}

    amb = {name: cfg.ambient_of(name) for name in STANDARD_CHANNELS}
    co2 = np.full(n, amb["co2"])
    hum = np.full(n, amb["humidity_abs"])
    tvoc = np.full(n, amb["tvoc"])
    co = np.full(n, amb["co"])
    o3 = np.full(n, amb["o3"])
    temp_drift = np.zeros(n)
    pressure = np.full(n, amb["pressure"])
    e_press = eps["pressure"]
    e_temp_drift = noise_rng.normal(0.0, 1.0, size=(n,)) * 0.02 * cfg.noise_scale

    for t in range(1, n):
        p = person[t - 1]
        open_ = window[t - 1] > 0
        d_co2 = cfg.co2_decay_open if open_ else cfg.co2_decay_closed
        co2[t] = co2[t - 1] + cfg.co2_emission * p - d_co2 * (co2[t - 1] - amb["co2"]) \
            + eps["co2"][t]
        d_hum = cfg.hum_decay_open if open_ else cfg.hum_decay_closed
        hum_target = cfg.hum_abs_outdoor if open_ else amb["humidity_abs"]
        hum[t] = hum[t - 1] + cfg.hum_emission * p - d_hum * (hum[t - 1] - hum_target) \
            + eps["humidity_abs"][t]
        d_tvoc = cfg.tvoc_decay_open if open_ else cfg.tvoc_decay_closed
        tvoc[t] = tvoc[t - 1] + cfg.tvoc_emission * p - d_tvoc * (tvoc[t - 1] - amb["tvoc"]) \
            + eps["tvoc"][t]
        d_co = cfg.co_decay_open if open_ else cfg.co_decay_closed
        co[t] = co[t - 1] + cfg.co_emission * p - d_co * (co[t - 1] - amb["co"]) \
            + eps["co"][t]
        o3_rate = cfg.o3_rate_open if open_ else cfg.o3_rate_closed
        o3_target = cfg.o3_outdoor if open_ else amb["o3"]
        o3[t] = o3[t - 1] - o3_rate * (o3[t - 1] - o3_target) + eps["o3"][t]
        temp_drift[t] = temp_drift[t - 1] - 0.005 * temp_drift[t - 1] + e_temp_drift[t]
        pressure[t] = pressure[t - 1] - 0.01 * (pressure[t - 1] - amb["pressure"]) \
            + e_press[t]

    co2 = np.clip(co2, 380.0, 8000.0)
    hum = np.clip(hum, 1.0, 30.0)
    tvoc = np.clip(tvoc, 0.0, 5000.0)
    co = np.clip(co, 0.0, 50.0)
    o3 = np.clip(o3, 0.0, 100.0)

    occupied = person > 0
    sound = np.where(occupied,
                     cfg.sound_occupied + cfg.sound_per_person * (person - 1),
                     amb["sound"]) + eps["sound"]
    temperature = amb["temperature"] + cfg.temp_per_person * person + temp_drift \
        + eps["temperature"]
    oxygen = amb["oxygen"] - cfg.o2_coupling * (co2 - amb["co2"]) + eps["oxygen"]
    humidity = amb["humidity"] + 5.5 * (hum - amb["humidity_abs"]) + eps["humidity"]
    dewpt = amb["dewpt"] + 0.9 * (hum - amb["humidity_abs"]) + eps["dewpt"]
    sound_max = sound + np.abs(eps["sound_max"])

    series = {
        "pressure": pressure, "temperature": temperature, "sound": sound,
        "tvoc": tvoc, "oxygen": oxygen, "humidity": humidity,
        "humidity_abs": hum, "co2": co2, "co": co,
        "so2": amb["so2"] + eps["so2"], "no2": amb["no2"] + eps["no2"], "o3": o3,
        "pm2_5": amb["pm2_5"] + eps["pm2_5"], "pm10": amb["pm10"] + eps["pm10"],
        "pm1": amb["pm1"] + eps["pm1"], "sound_max": sound_max, "dewpt": dewpt,
    }
    values = np.stack([series[name] for name in STANDARD_CHANNELS])
    timestamps = cfg.start_epoch + cfg.period_s * np.arange(n, dtype=np.int64)
    labels = np.stack([person, window])

    inject_rng = rng.spawn(4)
    if cfg.missing_leading > 0:
        c = inject_rng.integers(len(STANDARD_CHANNELS))
        values[c, :cfg.missing_leading] = np.nan
    for _ in range(cfg.missing_runs):
        c = inject_rng.integers(len(STANDARD_CHANNELS))
        run = max(1, int(round(-cfg.missing_run_mean
                               * math.log(1.0 - inject_rng.uniform()))))
        start = inject_rng.integers(max(1, n - run))
        values[c, start:start + run] = np.nan
    if cfg.gap_count > 0:
        keep = np.ones(n, dtype=bool)
        for _ in range(cfg.gap_count):
            run = max(1, int(round(-cfg.gap_mean * math.log(1.0 - inject_rng.uniform()))))
            start = 1 + inject_rng.integers(max(1, n - run - 1))
            keep[start:start + run] = False
        timestamps = timestamps[keep]
        values = values[:, keep]
        labels = labels[:, keep]

    return SensorFrame(timestamps=timestamps, channel_names=STANDARD_CHANNELS,
                       values=values, label_names=STANDARD_LABELS,
                       label_values=labels, device_id=cfg.device_id)


def reference_frame_to_csv(frame: SensorFrame) -> bytes:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["timestamp", *frame.channel_names, *frame.label_names])
    for i in range(len(frame)):
        row: list[str] = [str(int(frame.timestamps[i]))]
        for c in range(len(frame.channel_names)):
            v = frame.values[c, i]
            row.append("" if math.isnan(v) else repr(float(v)))
        for k in range(len(frame.label_names)):
            row.append(str(int(frame.label_values[k, i])))
        writer.writerow(row)
    return buf.getvalue().encode("utf-8")


def reference_track_csv(track: PredictionTrack) -> str:
    header = ["timestamp"]
    for name in track.class_names:
        header += [f"prob_{name}", f"decision_{name}"]
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow(header)
    lines = [buf.getvalue()[:-1]]
    for i in range(len(track)):
        row = [str(int(track.timestamps[i]))]
        for k in range(len(track.class_names)):
            p = track.probabilities[k, i]
            row.append("" if math.isnan(p) else repr(float(p)))
            row.append(str(int(track.decisions[k, i])))
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def reference_track_json(track: PredictionTrack) -> str:
    doc = {
        "threshold": track.threshold,
        "timestamps": track.timestamps.tolist(),
        "classes": list(track.class_names),
        "probabilities": {
            name: [None if math.isnan(v) else v for v in track.probabilities[k]]
            for k, name in enumerate(track.class_names)
        },
        "decisions": {
            name: track.decisions[k].tolist()
            for k, name in enumerate(track.class_names)
        },
    }
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def reference_parse_timestamp(cell: str, row: int) -> int:
    cell = cell.strip()
    if not cell:
        raise ParseError(f"row {row}: empty timestamp", row=row, column="timestamp")
    try:
        value = int(cell)
    except ValueError:
        pass
    else:
        if not INT64_MIN <= value <= INT64_MAX:  # added with the typed range error
            raise ParseError(f"row {row}: timestamp out of range", row=row, column="timestamp")
        return value
    try:
        dt = datetime.fromisoformat(cell.replace("Z", "+00:00"))
    except ValueError:
        raise ParseError(f"row {row}: unparseable timestamp {cell!r}",
                         row=row, column="timestamp") from None
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=timezone.utc)
    return int(dt.timestamp())


def reference_parse_frame(csv_bytes: bytes) -> SensorFrame:
    """The per-cell row loop; the 64-bit range checks are the only additions."""
    text = csv_bytes.decode("utf-8")
    reader = csv.reader(io.StringIO(text))
    try:
        header = next(reader)
    except StopIteration:
        raise SchemaError("empty CSV: no header row") from None
    header = [h.strip() for h in header]
    if not header or header[0] != "timestamp":
        raise SchemaError(f"first column must be 'timestamp', got {header[:1]}")
    if len(set(header)) != len(header):
        raise SchemaError("duplicate column names in header")
    label_cols = [h for h in header[1:] if h in STANDARD_LABELS]
    channel_cols = [h for h in header[1:] if h not in STANDARD_LABELS]

    ts_list: list[int] = []
    rows: list[list[float]] = []
    lab_rows: list[list[int]] = []
    col_of = {name: header.index(name) for name in header}
    for row_i, row in enumerate(reader, start=1):
        if not row or all(not c.strip() for c in row):
            continue
        if len(row) != len(header):
            raise ParseError(f"row {row_i}: expected {len(header)} cells, got {len(row)}",
                             row=row_i)
        ts_list.append(reference_parse_timestamp(row[0], row_i))
        vals = []
        for name in channel_cols:
            cell = row[col_of[name]].strip()
            if cell == "":
                vals.append(math.nan)
                continue
            try:
                vals.append(float(cell))
            except ValueError:
                raise ParseError(f"row {row_i}, column {name!r}: unparseable cell {cell!r}",
                                 row=row_i, column=name) from None
        rows.append(vals)
        labs = []
        for name in label_cols:
            cell = row[col_of[name]].strip()
            try:
                v = int(cell)
            except ValueError:
                raise ParseError(f"row {row_i}, column {name!r}: label cell must be a "
                                 f"non-negative integer, got {cell!r}",
                                 row=row_i, column=name) from None
            if v < 0:
                raise ParseError(f"row {row_i}, column {name!r}: label cell must be >= 0",
                                 row=row_i, column=name)
            if v > INT64_MAX:  # added with the typed range error
                raise ParseError(f"row {row_i}, column {name!r}: label out of range",
                                 row=row_i, column=name)
            labs.append(v)
        lab_rows.append(labs)

    ts = np.asarray(ts_list, dtype=np.int64)
    if ts.size != np.unique(ts).size:
        raise IntegrityError("duplicate timestamps")
    order = np.argsort(ts, kind="stable")
    values = np.asarray(rows, dtype=np.float64).reshape(len(ts_list), len(channel_cols))
    labels = np.asarray(lab_rows, dtype=np.int64).reshape(len(ts_list), len(label_cols))
    return SensorFrame(
        timestamps=ts[order],
        channel_names=tuple(channel_cols),
        values=values[order].T,
        label_names=tuple(label_cols),
        label_values=labels[order].T,
    )


def reference_window_label(window_labels, position="first"):
    wl = np.asarray(window_labels, dtype=np.float64)
    if wl.ndim == 1:
        wl = wl[:, None]
    if position == "first":
        out = wl[0]
    elif position == "last":
        out = wl[-1]
    else:
        out = (wl.mean(axis=0) >= 0.5).astype(np.float64)
    return out.astype(np.float64)


def reference_build_windows(frame, channels, length, stride=1, position="first",
                            undersample_k=None, max_gap_s=360):
    sel = frame.select_channels(channels)
    segments = split_on_gaps(sel, max_gap_s)
    label_mat = sel.label_matrix()
    if undersample_k is not None:
        refined = []
        for seg in segments:
            for sub in undersample(label_mat[seg.start:seg.end], undersample_k):
                refined.append(Segment(seg.start + sub.start, seg.start + sub.end))
        segments = refined
    starts = []
    for seg in segments:
        starts.extend(slide(seg, length, stride))
    n = len(starts)
    X = np.empty((n, len(channels), length), dtype=np.float64)
    Y = np.empty((n, len(sel.label_names)), dtype=np.float64)
    for i, s in enumerate(starts):
        X[i] = sel.values[:, s:s + length]
        Y[i] = reference_window_label(label_mat[s:s + length], position)
    return X, Y, np.asarray(starts, dtype=np.int64)


def reference_predict_timeline(model, frame, scaler, length, position="first",
                               threshold=0.5, max_gap_s=360):
    sel = frame.select_channels(scaler.channel_names)
    scaled = transform(scaler, sel)
    names = frame.label_names
    n = len(frame)
    probs = np.full((len(names), n), np.nan)
    decisions = np.full((len(names), n), NO_PREDICTION, dtype=np.int8)
    offset = label_offset(length, position)
    bad = np.concatenate([[0], np.cumsum(~np.isfinite(scaled.values).all(axis=0))])
    for seg in split_on_gaps(scaled, max_gap_s):
        starts = np.asarray(slide(seg, length, stride=1), dtype=np.int64)
        starts = starts[bad[starts + length] == bad[starts]]
        if not starts.size:
            continue
        X = np.stack([scaled.values[:, s:s + length] for s in starts])
        p = np.concatenate([model.predict_proba(X[i:i + 512]) for i in range(0, len(X), 512)])
        anchor = starts + offset
        probs[:, anchor] = p.T
        decisions[:, anchor] = (p.T >= threshold).astype(np.int8)
    return PredictionTrack(frame.timestamps, names, probs, decisions, threshold)


# ---------------------------------------------------------------------------
# pinned digests
# ---------------------------------------------------------------------------

def damaged_frame() -> SensorFrame:
    return generate_frame(ScenarioConfig(n_samples=3000, seed=11, missing_runs=25,
                                         missing_leading=6, gap_count=4))


class TestPinnedDigests:
    def test_bundled_frame_csv(self):
        assert sha256(frame_to_csv(generate_frame(bundled_scenario()))) == \
            "3df163ddcb86cd178382e69a169e3a43bcc31399d2da26b112dd139ea37b3e94"

    def test_fleet_device_csv(self):
        device = generate_fleet(ScenarioConfig(n_samples=2000, seed=70), devices=2)[1]
        assert sha256(frame_to_csv(device)) == \
            "a6d39d8d7eda20810fbeff4cf59157d04a8ba6153547ba61b103509059e30112"

    def test_missing_and_gap_scenario_csv(self):
        assert sha256(frame_to_csv(damaged_frame())) == \
            "f2ab48b945af438c07efe3ebb7fd1db87626cd20b19065e4481d82e95e837b0e"

    def test_arrays_parsed_from_missing_and_gap_scenario_csv(self):
        frame = parse_frame(frame_to_csv(damaged_frame()))
        arrays = frame.timestamps.tobytes() + frame.values.tobytes() + \
            frame.label_values.tobytes()
        assert sha256(arrays) == \
            "7074f29233bbc8103a06f578f301748276a54a5226924366f387e5b74e236d65"

    @pytest.mark.parametrize("position,y_digest", [
        ("first", "7c4960c108492e52c5dc8b55dfd41b4b0543bfbfc572b71f02f7c64434ffaf3e"),
        ("mean", "04d91fbff5ed2b8f47dd5ef1a2904006df3ab9529fd09c10613b535f1581763e"),
        ("last", "a2fa7381c13d093f5f5c976ec8a0900c7ef3b96363f624bbb5c764b6dbe685a0"),
    ])
    def test_window_bytes(self, position, y_digest):
        ws = build_windows(binarize_person(damaged_frame()), NINE, length=7,
                           position=position)
        assert sha256(ws.X.tobytes()) == \
            "f787a807800c5b3ee35c352192e1b033224df81cf9b73022d52cda1970fa062d"
        assert sha256(ws.Y.tobytes()) == y_digest
        assert sha256(ws.start_indices.tobytes()) == \
            "c06a1934e4cb3c72ddd687b0f97f8ce782f4933566b42e8d61c894aa97cdf49e"

    @staticmethod
    def odd_values_track() -> PredictionTrack:
        probs = np.array([[np.nan, -0.0, 5e-324, 0.5, 1.0, 0.1 + 0.2],
                          [0.25, np.nan, np.nan, 1e-300, 0.0, 0.999999999999]])
        decs = np.array([[-1, 0, 0, 1, 1, 0], [0, -1, -1, 0, 0, 1]], dtype=np.int8)
        return PredictionTrack(1_700_000_000 + 120 * np.arange(6),
                               ("person", "window_open"), probs, decs, 0.5)

    def test_track_csv_with_nan_negative_zero_and_subnormal(self):
        assert sha256(self.odd_values_track().to_csv().encode("utf-8")) == \
            "4e984bf5e09fc02c12be85645bc953408f9177a1279d1d8d60679e71a59742e0"

    def test_track_json_with_nan_negative_zero_and_subnormal(self):
        assert sha256(self.odd_values_track().to_json().encode("utf-8")) == \
            "1d9a5e6a969a9228f44b606be5b98e5e5db6e29f4a7068bdd3c1f93a0b67181f"


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------

def random_scenario(seed: int) -> ScenarioConfig:
    rng = np.random.default_rng(seed)
    u = lambda lo, hi: float(rng.uniform(lo, hi))
    return ScenarioConfig(
        n_samples=int(rng.integers(1, 700)), seed=int(rng.integers(0, 2**31)),
        occupancy_mean=u(2, 80), vacancy_mean=u(2, 300), max_people=int(rng.integers(1, 6)),
        window_open_prob=u(0, 1), window_mean=u(1, 60), idle_window_mean=u(5, 500),
        co2_emission=int(rng.integers(0, 40)) if rng.random() < 0.3 else u(0, 40),
        co2_decay_closed=u(0.001, 0.5), co2_decay_open=u(0.05, 0.99),
        hum_emission=u(0, 0.2), hum_decay_closed=u(0.001, 0.5), hum_decay_open=u(0.05, 0.99),
        hum_abs_outdoor=u(1, 12), tvoc_emission=u(0, 20), tvoc_decay_closed=u(0.001, 0.5),
        tvoc_decay_open=u(0.05, 0.99), co_emission=u(0, 0.05), co_decay_closed=u(0.001, 0.5),
        co_decay_open=u(0.05, 0.99), o3_rate_closed=u(0.001, 0.5), o3_rate_open=u(0.05, 0.99),
        o3_outdoor=u(5, 60), noise_scale=u(0, 3) if rng.random() < 0.8 else 0.0,
        noise_std={"co2": u(0, 20)} if rng.random() < 0.5 else {},
        ambient={"co2": u(380, 600), "o3": u(0, 20)} if rng.random() < 0.5 else {},
        missing_runs=int(rng.integers(0, 6)), missing_leading=int(rng.integers(0, 4)),
        gap_count=int(rng.integers(0, 3)), gap_mean=u(1, 30),
    )


def assert_frames_identical(a: SensorFrame, b: SensorFrame) -> None:
    assert a.values.tobytes() == b.values.tobytes()
    assert np.array_equal(a.timestamps, b.timestamps)
    assert np.array_equal(a.label_values, b.label_values)
    assert (a.channel_names, a.label_names, a.device_id) == \
        (b.channel_names, b.label_names, b.device_id)


class TestGenerateFrameOracle:
    @pytest.mark.parametrize("seed", range(40))
    def test_random_scenarios_bit_identical(self, seed):
        cfg = random_scenario(seed)
        assert_frames_identical(generate_frame(cfg), reference_generate_frame(cfg))

    def test_fleet_bit_identical(self):
        cfg = ScenarioConfig(n_samples=600, seed=70)
        for i, device in enumerate(generate_fleet(cfg, devices=3)):
            dev_seed = derive_seed(cfg.seed, i + 1)
            jit_rng = Rng(derive_seed(dev_seed, 0xA))
            ambient = {name: cfg.ambient_of(name) * (1.0 + 0.02 * jit_rng.normal())
                       for name in STANDARD_CHANNELS}
            dev_cfg = replace(cfg, seed=dev_seed, device_id=f"synth-{i:03d}", ambient=ambient)
            assert_frames_identical(device,
                                    reference_generate_frame(dev_cfg).without_labels())

    @pytest.mark.parametrize("n", [1, 2, 4097])
    def test_zero_noise_and_tiny_frames_bit_identical(self, n):
        for cfg in (ScenarioConfig(n_samples=n, seed=2024, noise_scale=0.0),
                    ScenarioConfig(n_samples=n, seed=2024)):
            assert_frames_identical(generate_frame(cfg), reference_generate_frame(cfg))

    def test_integer_ambient_reads_as_float(self):
        # the recurrences keep float state whatever the ambient's JSON type
        as_int = generate_frame(ScenarioConfig(n_samples=300, seed=3, ambient={"co2": 420}))
        as_float = generate_frame(ScenarioConfig(n_samples=300, seed=3,
                                                 ambient={"co2": 420.0}))
        assert_frames_identical(as_int, as_float)


def frame_of(n: int, labels: bool = True, nan_channel: bool = False,
             seed: int = 0) -> SensorFrame:
    rng = np.random.default_rng(seed)
    values = rng.normal(0, 1e3, size=(4, n)) * rng.choice([1e-310, 1e-5, 1.0, 1e17], size=(4, n))
    values[rng.random((4, n)) < 0.1] = np.nan
    values[1, rng.random(n) < 0.05] = -0.0
    if nan_channel:
        values[2] = np.nan
    label_values = rng.integers(0, 4, size=(2, n)) if labels else np.zeros((0, n))
    return SensorFrame(timestamps=1_600_000_000 + 120 * np.arange(n, dtype=np.int64),
                       channel_names=("a", "b", "c", "d"), values=values,
                       label_names=("person", "window_open") if labels else (),
                       label_values=label_values)


class TestCsvWriterOracle:
    @pytest.mark.parametrize("n", [0, 1, CSV_BLOCK_ROWS - 1, CSV_BLOCK_ROWS,
                                   CSV_BLOCK_ROWS + 1, 2 * CSV_BLOCK_ROWS + 7])
    @pytest.mark.parametrize("labels,nan_channel", [(True, False), (False, False),
                                                    (True, True)])
    def test_frame_csv_bytes_identical(self, n, labels, nan_channel):
        frame = frame_of(n, labels, nan_channel, seed=n)
        out = frame_to_csv(frame)
        assert out == reference_frame_to_csv(frame)
        if n:
            again = parse_frame(out)
            assert again.values.tobytes() == frame.values.tobytes()

    @pytest.mark.parametrize("n", [0, 1, CSV_BLOCK_ROWS - 1, CSV_BLOCK_ROWS,
                                   CSV_BLOCK_ROWS + 1])
    @pytest.mark.parametrize("classes", [(), ("person",), ("person", "window_open")])
    def test_track_csv_identical(self, n, classes):
        rng = np.random.default_rng(n + len(classes))
        probs = rng.random((len(classes), n))
        probs[rng.random(probs.shape) < 0.2] = np.nan
        if classes:
            probs[-1] = np.nan  # one class with no prediction anywhere
        decs = np.where(np.isnan(probs), NO_PREDICTION, probs >= 0.5).astype(np.int8)
        track = PredictionTrack(np.arange(n) * 120, classes, probs, decs, 0.5)
        assert track.to_csv() == reference_track_csv(track)

    def test_odd_header_names_still_quoted(self):
        frame = SensorFrame(timestamps=[1, 2], channel_names=("a,b", 'q"x'),
                            values=[[1.0, np.nan], [np.inf, -np.inf]])
        assert frame_to_csv(frame) == reference_frame_to_csv(frame)


class TestTrackJsonOracle:
    NAMES = ("window_open", 'q"x\\é', "person")  # out of sorted order; quote, backslash, non-ASCII
    EDGE_PROBS = (0.0, 1.0, 5e-324, 1 - 2**-53)
    EDGE_TIMESTAMPS = (-2**63, -2**63 + 1, 2**63 - 2, 2**63 - 1)

    @pytest.mark.parametrize("seed", range(32))
    def test_random_tracks_byte_identical(self, seed):
        rng = np.random.default_rng(seed)
        classes = self.NAMES[:seed % 4]
        n = int(rng.integers(1, 60)) if seed % 5 else 0
        probs = rng.random((len(classes), n))
        edge = rng.random(probs.shape) < 0.3
        probs[edge] = rng.choice(self.EDGE_PROBS, size=int(edge.sum()))
        probs[rng.random(probs.shape) < 0.2] = np.nan
        if classes and seed % 3 == 0:
            probs[seed % len(classes)] = np.nan  # one class with no prediction anywhere
        threshold = (0.5, 1)[seed % 2]
        decs = np.where(np.isnan(probs), NO_PREDICTION, probs >= threshold).astype(np.int8)
        timestamps = rng.integers(-2**63, 2**63 - 1, size=n, dtype=np.int64, endpoint=True)
        timestamps[:4] = self.EDGE_TIMESTAMPS[:n]
        track = PredictionTrack(timestamps, classes, probs, decs, threshold)
        text = track.to_json()
        assert text == reference_track_json(track)
        assert PredictionTrack.from_json(text).to_json() == text

    @pytest.mark.parametrize("n", [0, CSV_BLOCK_ROWS - 1, CSV_BLOCK_ROWS, CSV_BLOCK_ROWS + 1,
                                   2 * CSV_BLOCK_ROWS + 7])
    def test_both_texts_across_blocks(self, n):
        rng = np.random.default_rng(n)
        classes = ("person", *self.NAMES)  # "person" twice: JSON keeps the last row
        probs = rng.random((len(classes), n))
        probs[rng.random(probs.shape) < 0.1] = np.nan
        for edge in range(CSV_BLOCK_ROWS, n, CSV_BLOCK_ROWS):
            probs[1, edge - 1] = probs[2, edge] = np.nan  # no prediction on each side
            probs[3, edge - 1:edge + 1] = np.nan           # and on both
        probs[3, -1:] = np.nan
        decs = np.where(np.isnan(probs), NO_PREDICTION, probs >= 0.5).astype(np.int8)
        track = PredictionTrack(1_700_000_000 + 120 * np.arange(n), classes, probs, decs, 0.5)
        json_text, csv_text = track.texts()
        assert json_text == reference_track_json(track)
        assert csv_text == reference_track_csv(track)


# cell spellings the CSV contract accepts, and one damaged cell or row of each kind
FLOAT_SPELLINGS = ("42", "-7", "+3", "007.50", ".5", "5.", "1e3", "1E-5", "-2.5e+07",
                   "inf", "-Infinity", "+inf", "nan", "NaN", "-nan", "5e-324", "-0.0",
                   "1.7976931348623157e308", "1e999")
BLANK_SPELLINGS = ("", " ", "\t", "  ", '""', '" "', '"" ', "\xa0", "\u2003 ")
PADDING = (" ", "\t", "\xa0", "\x0c", "\x1c", "\u2003")
DAMAGE = ("float", "hash", "negative label", "float label", "overflow label",
          "overflow timestamp", "short row", "long row", "duplicate timestamp")


def random_cell(rng, kind: str, value) -> str:
    if kind == "float":
        if rng.random() < 0.15:
            return str(rng.choice(BLANK_SPELLINGS))
        u = rng.random()
        if u < 0.3:
            text = str(rng.choice(FLOAT_SPELLINGS))
        elif u < 0.4:
            text = f"{value:.3e}" if rng.random() < 0.5 else f"{value:g}"
        else:
            text = repr(value)
    else:
        text = str(value) if rng.random() < 0.9 else f"+{value:03d}"
    if rng.random() < 0.15:
        pad = str(rng.choice(PADDING))
        text = pad + text + pad[::-1]
    if rng.random() < 0.1:
        text = f'"{text}"' + (" " if rng.random() < 0.3 else "")
    return text


def iso_timestamp(rng, t: int) -> str:
    dt = datetime.fromtimestamp(t, tz=timezone.utc)
    u = rng.random()
    if u < 0.3:
        return dt.isoformat()
    if u < 0.5:
        return dt.strftime("%Y-%m-%dT%H:%M:%SZ")
    if u < 0.7:
        return dt.replace(tzinfo=None).isoformat(sep=" ")
    return dt.astimezone(timezone(timedelta(hours=2))).isoformat()


def random_csv(seed: int) -> bytes:
    """A CSV in the contract's spellings, with one damaged cell or row in most."""
    rng = np.random.default_rng(seed)
    channels = [str(c) for c in rng.choice(STANDARD_CHANNELS, size=rng.integers(1, 6),
                                           replace=False)]
    labels = [str(c) for c in STANDARD_LABELS if rng.random() < 0.5]
    columns = channels + labels
    rng.shuffle(columns)
    n = int(rng.integers(0, 25))
    times = 1_600_000_000 + 120 * rng.permutation(n)
    iso = rng.random() < 0.3
    rows = []
    for t in times.tolist():
        cells = [iso_timestamp(rng, t) if iso and rng.random() < 0.7 else str(t)]
        for name in columns:
            if name in labels:
                cells.append(random_cell(rng, "label", int(rng.integers(0, 5))))
            else:
                scale = 10.0 ** rng.integers(-310, 18)
                cells.append(random_cell(rng, "float", float(rng.normal() * scale)))
        rows.append(cells)
    damage = str(rng.choice(DAMAGE)) if n and rng.random() < 0.6 else None
    if damage:
        cells = rows[int(rng.integers(n))]
        label_at = [1 + j for j, name in enumerate(columns) if name in labels]
        channel_at = [1 + j for j, name in enumerate(columns) if name not in labels]
        if damage == "float":
            cells[int(rng.choice(channel_at))] = str(rng.choice(["abc", "1.2.3", "--1", "1e"]))
        elif damage == "hash":
            cells[int(rng.choice(channel_at))] = str(rng.choice(["#2", "#", " #1.5"]))
        elif damage.endswith("label") and label_at:
            bad = {"negative label": "-1", "float label": "1.0",
                   "overflow label": str(rng.choice(["9223372036854775808",
                                                     "99999999999999999999"]))}[damage]
            cells[int(rng.choice(label_at))] = bad
        elif damage == "overflow timestamp":
            cells[0] = str(rng.choice(["9223372036854775808", "-9223372036854775809"]))
        elif damage == "short row":
            cells.pop()
        elif damage == "long row":
            cells.append("1")
        elif damage == "duplicate timestamp" and n > 1:
            cells[0] = str(times[0])
    lines = [",".join(cells) for cells in rows]
    for _ in range(int(rng.integers(0, 3))):
        blank = str(rng.choice(["", ",,", " , ", '"",""', "\t", "," * len(columns)]))
        lines.insert(int(rng.integers(0, len(lines) + 1)), blank)
    eol = "\r\n" if rng.random() < 0.3 else "\n"
    text = eol.join([",".join(["timestamp", *columns]), *lines])
    return (text + (eol if rng.random() < 0.8 else "")).encode("utf-8")


def parse_outcome(parse, data: bytes):
    try:
        return parse(data)
    except (ParseError, IntegrityError) as exc:
        return type(exc), getattr(exc, "row", None), getattr(exc, "column", None)


class TestParseFrameOracle:
    @pytest.mark.parametrize("block", range(10))
    def test_random_csvs_match_the_row_loop(self, block):
        kinds = {"frame": 0, ParseError: 0, IntegrityError: 0}
        for seed in range(60 * block, 60 * block + 60):
            data = random_csv(seed)
            new = parse_outcome(parse_frame, data)
            old = parse_outcome(reference_parse_frame, data)
            if isinstance(old, SensorFrame):
                assert isinstance(new, SensorFrame), (seed, new)
                assert_frames_identical(new, old)
                assert new.values.view(np.int64).tobytes() == \
                    old.values.view(np.int64).tobytes()
                kinds["frame"] += 1
            else:
                assert new == old, seed
                kinds[old[0]] += 1
        assert all(kinds.values()), kinds

    def test_every_damage_kind_is_covered(self):
        seen = {str(np.random.default_rng(seed).choice(DAMAGE)) for seed in range(600)}
        assert seen == set(DAMAGE)

    @pytest.mark.parametrize("cell,column", [
        ("1_000", "co2"), ("١٢", "co2"), ("１.５", "co2"), ("1_0", "person"),
        ("٣", "person"), ("1_600_000_000", "timestamp"), ("١٦٠٠", "timestamp")])
    def test_underscores_and_non_ascii_digits_are_refused(self, cell, column):
        """The one place the C reader is stricter than ``float()`` and ``int()``."""
        cells = {"timestamp": "1600000120", "co2": "400.5", "person": "1"}
        cells[column] = cell
        data = ("timestamp,co2,person\n1599999880,410.0,0\n"
                + ",".join(cells.values()) + "\n").encode("utf-8")
        assert isinstance(reference_parse_frame(data), SensorFrame)
        with pytest.raises(ParseError) as err:
            parse_frame(data)
        assert (err.value.row, err.value.column) == (2, column)


@pytest.fixture
def blocks(monkeypatch):
    """A function that sets ``CSV_BLOCK_BYTES`` and returns the list of how
    many blocks each ``parse_frame`` call since the fixture started read."""
    counts = []
    body_blocks = frames._body_blocks

    def counted(data, start):
        counts.append(0)
        for block in body_blocks(data, start):
            counts[-1] += 1
            yield block

    def set_size(size: int) -> list[int]:
        monkeypatch.setattr(frames, "CSV_BLOCK_BYTES", size)
        return counts

    monkeypatch.setattr(frames, "_body_blocks", counted)
    return set_size


def assert_same_outcome(new, old) -> None:
    if isinstance(old, SensorFrame):
        assert isinstance(new, SensorFrame), new
        assert_frames_identical(new, old)
        assert new.channel_names == old.channel_names
        assert new.values.view(np.int64).tobytes() == old.values.view(np.int64).tobytes()
    else:
        assert new == old


class TestParseFrameBlockEdges:
    """The block reader against the row loop and itself, with blocks cut down
    to a few dozen bytes so that line ends fall on block edges."""

    @pytest.mark.parametrize("size", [1, 24, 48])
    def test_random_csvs_match_the_row_loop(self, blocks, size):
        counts = blocks(size)
        for seed in range(600):
            data = random_csv(seed)
            assert_same_outcome(parse_outcome(parse_frame, data),
                                parse_outcome(reference_parse_frame, data))
        # a block holds one or two of the 12 lines a CSV has on average
        assert len(counts) == 600 and sum(counts) > 600 * 5, sum(counts)

    @staticmethod
    def every_size(blocks, data: bytes) -> list:
        outcomes = []
        for size in range(1, len(data) + 2):
            blocks(size)
            outcomes.append(parse_outcome(parse_frame, data))
        return outcomes

    def test_quoted_header_with_a_line_break(self, blocks):
        data = b'timestamp,"co\n2",person\n1700000000,400.5,1\n1700000120,,0\n'
        for frame in self.every_size(blocks, data):
            assert frame.channel_names == ("co\n2",)
            assert frame.values.tolist()[0][0] == 400.5 and math.isnan(frame.values[0, 1])
            assert frame.label_values.tolist() == [[1, 0]]

    def test_non_utf8_byte_only_in_a_later_block(self, blocks):
        rows = [f"{1_700_000_000 + 120 * i},{400 + i}.5,0" for i in range(12)]
        rows[9] = rows[9].replace(".5", ".\udcff5")
        data = "\n".join(["timestamp,co2,person", *rows, ""]).encode("utf-8", "surrogateescape")
        counts = blocks(40)
        assert parse_outcome(parse_frame, data) == (ParseError, 10, "co2")
        assert counts[-1] > 3  # the blocks before it were read
        for outcome in self.every_size(blocks, data):
            assert outcome == (ParseError, 10, "co2")

    def test_iso_timestamp_only_in_a_later_block(self, blocks):
        rows = [f"{1_700_000_000 + 120 * i},{400 + i}.5" for i in range(12)]
        rows[10] = "2023-11-14T22:33:20Z," + rows[10].split(",")[1]  # 1700001200
        data = "\n".join(["timestamp,co2", *rows, ""]).encode()
        want = reference_parse_frame(data)
        assert want.timestamps[10] == 1_700_001_200
        for frame in self.every_size(blocks, data):
            assert_same_outcome(frame, want)

    @pytest.mark.parametrize("eol", [b"\n", b"\r\n"])
    def test_all_blank_rows_at_block_edges(self, blocks, eol):
        lines = [b"timestamp,co2,person", b"1700000000,400.5,0", b' , ,"" ', b"",
                 b"1700000120,,1", b",,", b"1700000240,402.5,x", b"1700000360,403.5,0"]
        data = eol.join(lines) + eol
        assert parse_outcome(reference_parse_frame, data) == (ParseError, 6, "person")
        for outcome in self.every_size(blocks, data):
            assert outcome == (ParseError, 6, "person")
        good = data.replace(b",x", b",1")
        want = reference_parse_frame(good)
        assert len(want) == 4
        for frame in self.every_size(blocks, good):
            assert_same_outcome(frame, want)

    def test_crlf_at_block_edges_reads_as_lf(self, blocks):
        for seed in range(40):
            data = random_csv(seed).replace(b"\r\n", b"\n")
            want = parse_outcome(reference_parse_frame, data)
            crlf = data.replace(b"\n", b"\r\n")
            for size in range(1, 60):
                blocks(size)
                assert_same_outcome(parse_outcome(parse_frame, crlf), want)


class TestBuildWindowsOracle:
    @pytest.mark.parametrize("position", ["first", "mean", "last"])
    @pytest.mark.parametrize("undersample_k", [None, 0, 5, 40])
    @pytest.mark.parametrize("length,stride", [(7, 1), (1, 1), (10, 3)])
    def test_identical_to_per_window_loop(self, position, undersample_k, length, stride):
        frame = binarize_person(damaged_frame())
        ws = build_windows(frame, NINE, length, stride, position, undersample_k)
        X, Y, starts = reference_build_windows(frame, NINE, length, stride, position,
                                               undersample_k)
        assert ws.X.tobytes() == X.tobytes() and ws.X.shape == X.shape
        assert ws.Y.tobytes() == Y.tobytes() and ws.Y.shape == Y.shape
        assert np.array_equal(ws.start_indices, starts)

    def test_unlabelled_and_too_short_frames(self):
        frame = generate_frame(ScenarioConfig(n_samples=50, seed=4)).without_labels()
        for length in (7, 50, 51):
            ws = build_windows(frame, NINE, length)
            X, Y, starts = reference_build_windows(frame, NINE, length)
            assert ws.X.shape == X.shape and ws.Y.shape == Y.shape == (len(starts), 0)
            assert ws.X.tobytes() == X.tobytes()

    @pytest.mark.parametrize("position", ["first", "mean", "last"])
    def test_stacked_window_label_matches_one_block_at_a_time(self, position):
        blocks = (np.random.default_rng(1).random((30, 6, 3)) < 0.5).astype(np.float64)
        stacked = window_label(blocks, position)
        assert stacked.shape == (30, 3)
        for i in range(30):
            assert np.array_equal(stacked[i], reference_window_label(blocks[i], position))
            assert np.array_equal(stacked[i], window_label(blocks[i], position))


class BatchRecorder:
    """Wraps a model and records every batch its predict_proba sees."""

    def __init__(self, model):
        self.model = model
        self.config = model.config
        self.batches = []

    def predict_proba(self, x):
        self.batches.append(x.copy())
        return self.model.predict_proba(x)


class TestPredictTimelineOracle:
    @pytest.mark.parametrize("position", ["first", "last"])
    def test_track_json_identical_on_raw_csv(self, tmp_path, monkeypatch, position):
        monkeypatch.setattr(layers, "CHUNK_HELPERS", 0)  # batches recorded in chunk order
        raw = generate_frame(ScenarioConfig(n_samples=1500, seed=21, missing_runs=30,
                                            missing_leading=3, gap_count=4))
        frame = binarize_person(parse_frame(frame_to_csv(raw)))
        assert np.isnan(frame.values).any() and (np.diff(frame.timestamps) > 360).any()
        channels = ("co2", "oxygen", "sound", "o3")
        scaler = fit_scaler("standard", interpolate_missing(frame).select_channels(channels))
        model = build_lstm_classifier(LstmConfig(in_channels=4, hidden=5), seed=3)
        new, old = BatchRecorder(model), BatchRecorder(model)
        track = predict_timeline(new, frame, scaler, 7, position)
        expected = reference_predict_timeline(old, frame, scaler, 7, position)
        assert track.to_json() == expected.to_json()
        assert track.to_csv() == expected.to_csv()
        assert len(new.batches) == len(old.batches) > 1
        for a, b in zip(new.batches, old.batches):
            assert a.shape == b.shape and a.tobytes() == b.tobytes()
        # a full 512 chunk followed by the rest of its segment: the first window
        # after the chunk edge is the last one before it, shifted by one row
        sizes = [len(b) for b in new.batches]
        assert 512 in sizes[:-1]
        edge = sizes.index(512)
        before, after = new.batches[edge][-1], new.batches[edge + 1][0]
        assert np.array_equal(before[:, 1:], after[:, :-1])
