import warnings
from dataclasses import replace

import numpy as np
import pytest

from conftest import toy_frame
from roomsense.errors import (
    ConfigError,
    DegenerateDataError,
    IntegrityError,
    SchemaError,
    SplitError,
)
from roomsense.frames import SensorFrame, binarize_person, interpolate_missing
from roomsense.pipeline import (
    ScalerParams,
    Segment,
    SplitSpec,
    WindowSet,
    build_windows,
    fit_scaler,
    label_offset,
    slide,
    split_fraction,
    split_on_gaps,
    split_random,
    split_time,
    transform,
    undersample,
    window_label,
)
from roomsense.rng import Rng


def one_class(rows):
    return np.asarray(rows, dtype=float)[:, None]


class TestUndersample:
    def test_single_event_expansion(self):
        segments = undersample(one_class([0, 0, 0, 1, 0, 0, 0, 0]), k=2)
        assert [(s.start, s.end) for s in segments] == [(1, 6)]

    def test_all_negative(self):
        assert undersample(one_class([0, 0, 0]), k=2) == []

    def test_overlap_merges(self):
        segments = undersample(one_class([0, 0, 1, 0, 0, 1, 0, 0]), k=2)
        assert [(s.start, s.end) for s in segments] == [(0, 8)]

    def test_multi_class_any_positive(self):
        labels = np.array([[0, 0], [1, 0], [0, 0], [0, 1], [0, 0]], dtype=float)
        segments = undersample(labels, k=0)
        assert [(s.start, s.end) for s in segments] == [(1, 2), (3, 4)]

    def test_negative_k_rejected(self):
        with pytest.raises(ConfigError):
            undersample(one_class([1]), k=-1)

    @staticmethod
    def oracle(labels, k):
        n = labels.shape[0]
        keep = set()
        for i in range(n):
            if labels[i].any():
                for j in range(max(0, i - k), min(n, i + k + 1)):
                    keep.add(j)
        runs = []
        for j in sorted(keep):
            if runs and j == runs[-1][1]:
                runs[-1][1] = j + 1
            else:
                runs.append([j, j + 1])
        return [tuple(r) for r in runs]

    def test_matches_bruteforce_on_random_instances(self):
        rng = Rng(31)
        for _ in range(150):
            n = 5 + rng.integers(40)
            k = rng.integers(6)
            labels = (rng.uniform(size=(n, 2)) < 0.15).astype(float)
            got = [(s.start, s.end) for s in undersample(labels, k)]
            assert got == self.oracle(labels, k)
            # disjoint, sorted, covers every positive, retains <= n rows
            flat = [i for s, e in got for i in range(s, e)]
            assert flat == sorted(set(flat))
            assert len(flat) <= n
            positives = {i for i in range(n) if labels[i].any()}
            assert positives.issubset(flat)


class TestSplitOnGaps:
    def test_uniform_single_segment(self):
        frame = toy_frame({"a": list(range(10))})
        segments = split_on_gaps(frame)
        assert [(s.start, s.end) for s in segments] == [(0, 10)]

    def test_one_gap_two_segments(self):
        ts = np.concatenate([np.arange(5), 2 * 24 * 3600 + np.arange(5, 10)])
        frame = SensorFrame(timestamps=1700000000 + 120 * ts,
                            channel_names=("a",), values=np.zeros((1, 10)))
        segments = split_on_gaps(frame)
        assert [(s.start, s.end) for s in segments] == [(0, 5), (5, 10)]

    def test_explicit_gap_rows(self):
        ts = np.arange(30) * 120
        ts[10:] += 1000
        ts[20:] += 1000
        frame = SensorFrame(timestamps=1700000000 + ts, channel_names=("a",),
                            values=np.zeros((1, 30)))
        segments = split_on_gaps(frame, max_gap_s=360)
        assert [(s.start, s.end) for s in segments] == [(0, 10), (10, 20), (20, 30)]

    def test_bad_max_gap(self):
        with pytest.raises(ConfigError):
            split_on_gaps(toy_frame({"a": [1, 2]}), 0)


class TestSlide:
    def test_counts(self):
        assert len(slide(Segment(0, 10), 7, 1)) == 4
        assert slide(Segment(0, 6), 7, 1) == []
        assert slide(Segment(0, 15), 15, 1) == [0]

    def test_stride(self):
        assert slide(Segment(2, 12), 4, 3) == [2, 5, 8]

    def test_oracle_random(self):
        rng = Rng(17)
        for _ in range(150):
            start = rng.integers(5)
            end = start + 1 + rng.integers(30)
            length = 1 + rng.integers(8)
            stride = 1 + rng.integers(4)
            got = slide(Segment(start, end), length, stride)
            want = [s for s in range(start, end)
                    if s + length <= end and (s - start) % stride == 0]
            assert got == want


class TestWindowLabel:
    def test_constant_any_position(self):
        block = np.tile([1.0, 0.0], (5, 1))
        for pos in ("first", "mean", "last"):
            assert window_label(block, pos).tolist() == [1.0, 0.0]

    def test_mean_below_half(self):
        col = np.array([1, 1, 0, 0, 0, 0, 0], dtype=float)
        assert window_label(col, "mean").tolist() == [0.0]

    def test_mean_at_or_above_half(self):
        col = np.array([1, 1, 1, 1, 0, 0, 0], dtype=float)
        assert window_label(col, "mean").tolist() == [1.0]

    def test_tie_rounds_up(self):
        col = np.array([1, 0], dtype=float)
        assert window_label(col, "mean").tolist() == [1.0]

    def test_length_one_all_positions_equal(self):
        block = np.array([[1.0, 0.0]])
        results = {pos: window_label(block, pos).tolist()
                   for pos in ("first", "mean", "last")}
        assert results["first"] == results["mean"] == results["last"]

    def test_label_offset(self):
        assert label_offset(7, "first") == 0
        assert label_offset(7, "last") == 6
        assert label_offset(7, "mean") == 3

    def test_unknown_position(self):
        with pytest.raises(ConfigError):
            window_label(np.zeros((3, 1)), "middle")


def small_windows(n=20, c=2, length=5, seed=1):
    rng = Rng(seed)
    return WindowSet(
        X=rng.normal(size=(n, c, length)),
        Y=(rng.uniform(size=(n, 2)) < 0.5).astype(float),
        channel_names=tuple(f"ch{i}" for i in range(c)),
        class_names=("person", "window_open"),
        start_timestamps=np.arange(n, dtype=np.int64) * 120,
        label_position="first",
    )


class TestSplitRandom:
    def test_sizes_7_2_1(self):
        ws = small_windows(10)
        train, valid, test = split_random(ws, SplitSpec(seed=3))
        assert (len(train), len(valid), len(test)) == (7, 2, 1)

    def test_deterministic(self):
        ws = small_windows(40)
        a = split_random(ws, SplitSpec(seed=9))
        b = split_random(ws, SplitSpec(seed=9))
        for x, y in zip(a, b):
            assert np.array_equal(x.X, y.X)

    def test_partition_disjoint_exhaustive(self):
        ws = small_windows(33)
        train, valid, test = split_random(ws, SplitSpec(seed=2))
        stamps = np.concatenate([train.start_timestamps, valid.start_timestamps,
                                 test.start_timestamps])
        assert sorted(stamps.tolist()) == ws.start_timestamps.tolist()

    def test_matches_documented_shuffle(self):
        # independent reimplementation of the documented permutation rule
        ws = small_windows(25)
        spec = SplitSpec(ratios=(0.6, 0.2, 0.2), seed=14)
        train, valid, test = split_random(ws, spec)
        perm = np.argsort(Rng(14).raw(25), kind="stable")
        n_train = int(np.floor(25 * 0.6))
        n_valid = int(np.floor(25 * 0.2))
        assert train.start_timestamps.tolist() == \
            ws.start_timestamps[perm[:n_train]].tolist()
        assert valid.start_timestamps.tolist() == \
            ws.start_timestamps[perm[n_train:n_train + n_valid]].tolist()
        assert test.start_timestamps.tolist() == \
            ws.start_timestamps[perm[n_train + n_valid:]].tolist()

    def test_too_small(self):
        with pytest.raises(SplitError):
            split_random(small_windows(9), SplitSpec(seed=1))

    def test_bad_ratios(self):
        with pytest.raises(ConfigError):
            SplitSpec(ratios=(0.5, 0.5, 0.0))
        with pytest.raises(ConfigError):
            SplitSpec(ratios=(0.5, 0.4, 0.2))
        # exactly one ratio each for train, valid and test
        with pytest.raises(ConfigError, match="three"):
            SplitSpec(ratios=(0.3, 0.3, 0.2, 0.2))
        with pytest.raises(ConfigError, match="three"):
            SplitSpec(ratios=(0.5, 0.5))

    def test_split_fraction(self):
        ws = small_windows(30)
        a, b = split_fraction(ws, 0.8, seed=5)
        assert (len(a), len(b)) == (24, 6)
        both = sorted(np.concatenate([a.start_timestamps, b.start_timestamps]).tolist())
        assert both == ws.start_timestamps.tolist()


class TestSplitTime:
    def test_cut_outside_range(self):
        frame = toy_frame({"a": list(range(10))})
        with pytest.raises(ConfigError):
            split_time(frame, int(frame.timestamps[0]))
        with pytest.raises(ConfigError):
            split_time(frame, int(frame.timestamps[-1]) + 1)

    def test_zero_rows_are_a_split_error(self):
        frame = toy_frame({"a": [1.0, 2.0]}).slice_rows(0, 0)
        with pytest.raises(SplitError, match="zero rows"):
            split_time(frame, 5)

    def test_median_cut_halves(self):
        for n in (10, 11):
            frame = toy_frame({"a": list(range(n))})
            cut = int(frame.timestamps[n // 2])
            train, test = split_time(frame, cut)
            assert {len(train), len(test)} == {n // 2, n - n // 2}
            assert len(train) + len(test) == n

    def test_windows_share_no_source_rows(self):
        rng = Rng(23)
        frame = toy_frame({"a": rng.normal(size=(60,)).tolist()},
                          {"person": (rng.uniform(size=(60,)) < 0.3).astype(int).tolist()})
        cut = int(frame.timestamps[35])
        train, test = split_time(frame, cut)
        train_w = build_windows(train, ["a"], length=5)
        test_w = build_windows(test, ["a"], length=5)
        train_rows = {r for s in train_w.start_indices for r in range(s, s + 5)}
        # test frame rows are offset by the pivot in the source frame
        test_rows = {35 + r for s in test_w.start_indices for r in range(s, s + 5)}
        assert train_rows.isdisjoint(test_rows)
        assert max(train_rows) < 35 <= min(test_rows)


class TestScalers:
    def test_standard_population_moments(self):
        scaler = fit_scaler("standard", toy_frame({"a": [2.0, 4.0, 6.0]}))
        assert scaler.stat_a[0] == pytest.approx(4.0)
        assert scaler.stat_b[0] == pytest.approx(np.sqrt(8.0 / 3.0))

    def test_minmax(self):
        scaler = fit_scaler("minmax", toy_frame({"a": [2.0, 4.0, 6.0]}))
        assert (scaler.stat_a[0], scaler.stat_b[0]) == (2.0, 6.0)

    def test_constant_channel_error(self):
        frame = toy_frame({"a": [3.0, 3.0, 3.0]})
        for kind in ("standard", "minmax"):
            with pytest.raises(DegenerateDataError):
                fit_scaler(kind, frame)

    @pytest.mark.parametrize("kind", ["standard", "minmax"])
    def test_zero_windows_or_rows_are_a_data_error_before_any_statistic(self, kind):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # numpy's empty-slice warnings
            with pytest.raises(DegenerateDataError, match="the training set holds zero windows"):
                fit_scaler(kind, small_windows(20).take(np.arange(0)))
            with pytest.raises(DegenerateDataError, match="the training set holds zero rows"):
                fit_scaler(kind, toy_frame({"a": [1.0, 2.0]}).slice_rows(0, 0))

    def test_standard_transform_normalizes_fit_data(self):
        ws = small_windows(50, c=3)
        scaler = fit_scaler("standard", ws)
        out = transform(scaler, ws)
        for c in range(3):
            flat = out.X[:, c, :].ravel()
            assert abs(flat.mean()) < 1e-9
            assert abs(flat.var() - 1.0) < 1e-9

    def test_minmax_transform_in_unit_interval(self):
        ws = small_windows(50, c=3)
        out = transform(fit_scaler("minmax", ws), ws)
        assert out.X.min() >= 0.0 and out.X.max() <= 1.0

    def test_unseen_values_can_leave_unit_interval(self):
        train = toy_frame({"a": [0.0, 1.0, 2.0]})
        scaler = fit_scaler("minmax", train)
        wild = transform(scaler, toy_frame({"a": [-1.0, 3.0, 0.5]}))
        assert wild.channel("a")[0] < 0.0
        assert wild.channel("a")[1] > 1.0

    def test_unknown_channel_schema_error(self):
        scaler = fit_scaler("standard", toy_frame({"a": [1.0, 2.0]}))
        with pytest.raises(SchemaError):
            transform(scaler, toy_frame({"b": [1.0, 2.0]}))

    def test_scaler_json_round_trip(self):
        scaler = fit_scaler("standard", small_windows(20))
        again = ScalerParams.from_json(scaler.to_json())
        assert again.kind == scaler.kind
        assert np.allclose(again.stat_a, scaler.stat_a)
        assert np.allclose(again.stat_b, scaler.stat_b)


class TestBuildWindows:
    def frame_with_gap(self):
        ts = np.arange(20) * 120
        ts[12:] += 5000  # gap between rows 11 and 12
        values = np.arange(20, dtype=float)[None, :]
        labels = np.zeros(20, dtype=np.int64)
        labels[5] = 1
        labels[15] = 1
        return SensorFrame(timestamps=1700000000 + ts, channel_names=("a",),
                           values=values, label_names=("person",),
                           label_values=labels[None, :])

    def test_windows_never_cross_gaps(self):
        ws = build_windows(self.frame_with_gap(), ["a"], length=5)
        for s in ws.start_indices:
            assert not (s < 12 <= s + 4)

    def test_undersample_then_slide(self):
        ws = build_windows(self.frame_with_gap(), ["a"], length=3, undersample_k=2)
        # event contexts: rows [3, 8) in segment one and [13, 18) in segment two
        assert ws.start_indices.tolist() == [3, 4, 5, 13, 14, 15]

    def test_window_content_matches_source(self):
        frame = self.frame_with_gap()
        ws = build_windows(frame, ["a"], length=4)
        for i, s in enumerate(ws.start_indices):
            assert np.array_equal(ws.X[i, 0], frame.values[0, s:s + 4])

    def test_label_positions(self):
        frame = self.frame_with_gap()
        first = build_windows(frame, ["a"], 3, position="first")
        last = build_windows(frame, ["a"], 3, position="last")
        for ws, off in ((first, 0), (last, 2)):
            for i, s in enumerate(ws.start_indices):
                assert ws.Y[i, 0] == frame.label_values[0, s + off]

    def test_container_round_trip(self, tmp_path):
        ws = build_windows(self.frame_with_gap(), ["a"], length=4, undersample_k=3)
        ws.save(tmp_path / "w")
        again = WindowSet.load(tmp_path / "w")
        assert np.array_equal(again.X, ws.X)
        assert np.array_equal(again.Y, ws.Y)
        assert np.array_equal(again.start_timestamps, ws.start_timestamps)
        assert np.array_equal(again.start_indices, ws.start_indices)
        assert again.channel_names == ws.channel_names
        assert again.class_names == ws.class_names
        assert again.label_position == ws.label_position

    @pytest.mark.parametrize("damage", [lambda b: b[:-3], lambda b: b[:-8],
                                        lambda b: b + b"\x00" * 8,
                                        lambda b: b[:len(b) // 2]])
    def test_container_wrong_blob_length_is_integrity_error(self, tmp_path, damage):
        build_windows(self.frame_with_gap(), ["a"], length=4).save(tmp_path / "w")
        blob = tmp_path / "w.bin"
        blob.write_bytes(damage(blob.read_bytes()))
        with pytest.raises(IntegrityError, match="bytes"):
            WindowSet.load(tmp_path / "w")

    def test_container_flipped_byte_is_integrity_error(self, tmp_path):
        build_windows(self.frame_with_gap(), ["a"], length=4).save(tmp_path / "w")
        blob = tmp_path / "w.bin"
        data = bytearray(blob.read_bytes())
        data[7] ^= 0x40  # exponent byte of the first value of X
        blob.write_bytes(bytes(data))
        with pytest.raises(IntegrityError, match="blob_sha256"):
            WindowSet.load(tmp_path / "w")

    @pytest.mark.parametrize("indices", [True, False])
    def test_container_int64_round_trip_is_exact(self, tmp_path, indices):
        # float64 holds integers exactly only up to 2**53
        extremes = [2**53 + 1, np.iinfo(np.int64).min, np.iinfo(np.int64).max]
        ws = small_windows(3)
        ws.start_timestamps = np.array(extremes, dtype=np.int64)
        ws.start_indices = np.array(extremes[::-1], dtype=np.int64) if indices else None
        ws.save(tmp_path / "w")
        again = WindowSet.load(tmp_path / "w")
        assert again.start_timestamps.tolist() == extremes
        if indices:
            assert again.start_indices.tolist() == extremes[::-1]
        else:
            assert again.start_indices is None

    def test_container_without_blob_sha256_is_refused(self, tmp_path):
        import json
        build_windows(self.frame_with_gap(), ["a"], length=4).save(tmp_path / "w")
        sidecar = tmp_path / "w.json"
        doc = json.loads(sidecar.read_text())
        del doc["blob_sha256"]  # a sidecar as written before the blob was hashed
        sidecar.write_text(json.dumps(doc))
        with pytest.raises(IntegrityError, match="'blob_sha256'"):
            WindowSet.load(tmp_path / "w")


def labelled_frame():
    frame = toy_frame({"co2": [np.nan, 1.0, 2.0, 4.0, np.nan, 3.0, 5.0, 6.0],
                       "sound": [1.0, 2.0, 4.0, 3.0, 5.0, 2.0, 1.0, np.nan]},
                      {"person": [0, 2, 0, 1, 3, 0, 0, 1], "window_open": [0, 0, 1, 1, 0, 0, 1, 0]})
    return replace(frame, device_id="dev-7")


def labelled_windows():
    return build_windows(interpolate_missing(labelled_frame(), "extend"), ["co2", "sound"],
                         length=3, position="mean")


BOTH = {"channel_names": ("co2", "sound")}
FRAME = {"device_id": "dev-7", "label_names": ("person", "window_open")}
WINDOWS = {**BOTH, "class_names": ("person", "window_open"), "label_position": "mean"}


@pytest.mark.parametrize("derive, rows, kept", [
    pytest.param(lambda: labelled_frame().select_channels(["sound"]), 8,
                 {**FRAME, "channel_names": ("sound",)}, id="select_channels"),
    pytest.param(lambda: labelled_frame().slice_rows(2, 5), 3, {**FRAME, **BOTH},
                 id="slice_rows"),
    pytest.param(lambda: interpolate_missing(labelled_frame(), "trim"), 6, {**FRAME, **BOTH},
                 id="interpolate_missing-trim"),
    pytest.param(lambda: interpolate_missing(labelled_frame(), "extend"), 8, {**FRAME, **BOTH},
                 id="interpolate_missing-extend"),
    pytest.param(lambda: binarize_person(labelled_frame()), 8, {**FRAME, **BOTH},
                 id="binarize_person"),
    pytest.param(lambda: transform(fit_scaler("standard", interpolate_missing(labelled_frame())),
                                   labelled_frame()), 8, {**FRAME, **BOTH}, id="transform-frame"),
    pytest.param(lambda: labelled_windows().take([4, 1]), 2,
                 {**WINDOWS, "start_indices": [4, 1]}, id="take"),
    pytest.param(lambda: transform(fit_scaler("minmax", labelled_windows()), labelled_windows()),
                 6, {**WINDOWS, "start_indices": [0, 1, 2, 3, 4, 5]}, id="transform-windows"),
])
def test_derived_records_keep_their_fields(derive, rows, kept):
    out = derive()
    assert len(out) == rows
    for name, want in kept.items():
        got = getattr(out, name)
        assert (got.tolist() if isinstance(got, np.ndarray) else got) == want, name
