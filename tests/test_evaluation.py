import numpy as np
import pytest

from conftest import toy_frame
from roomsense.errors import ConfigError, DegenerateDataError
from roomsense.evaluation import (
    NO_PREDICTION,
    PredictionTrack,
    _smooth_series,
    evaluate,
    feature_matrix,
    predict_timeline,
    smooth,
)
from roomsense.frames import SensorFrame
from roomsense.nn import layers
from roomsense.nn.layers import CHUNK_WINDOWS, chunked
from roomsense.pipeline import WindowSet, fit_scaler
from roomsense.rng import Rng


class FixedModel:
    """Stub model returning pre-set probabilities for the rows it sees."""

    def __init__(self, probs):
        self.probs = np.asarray(probs, dtype=float)
        self._cursor = 0

    def predict_proba(self, x):
        n = x.shape[0]
        out = self.probs[self._cursor:self._cursor + n]
        self._cursor += n
        return out

    def reset(self):
        self._cursor = 0


class ConstantModel:
    def __init__(self, row):
        self.row = np.asarray(row, dtype=float)

    def predict_proba(self, x):
        return np.tile(self.row, (x.shape[0], 1))


def windows_with_labels(y):
    y = np.asarray(y, dtype=float)
    n, k = y.shape
    return WindowSet(
        X=np.zeros((n, 1, 3)),
        Y=y,
        channel_names=("a",),
        class_names=("person", "window_open")[:k],
        start_timestamps=np.arange(n, dtype=np.int64),
        label_position="first",
    )


class RecordingModel(ConstantModel):
    """Records how many windows each entry-point call receives."""

    def __init__(self, row):
        super().__init__(row)
        self.calls = []

    def predict_proba(self, x):
        self.calls.append(len(x))
        return super().predict_proba(x)

    def feature_space(self, x):
        self.calls.append(len(x))
        return x.reshape(len(x), -1)


class TestEvaluate:
    def test_perfect_predictions(self):
        y = (Rng(1).uniform(size=(20, 2)) < 0.5).astype(float)
        ws = windows_with_labels(y)
        metrics, confusions = evaluate(FixedModel(y), ws)
        assert metrics.precision == (1.0, 1.0)
        assert metrics.recall == (1.0, 1.0)
        assert metrics.f1 == (1.0, 1.0)
        assert metrics.accuracy == 1.0
        for c in confusions:
            assert c.fp == c.fn == 0

    def test_hand_confusion_two_thirds(self):
        # TP=2 FP=1 FN=1 TN=6 over 10 rows
        y = np.array([1, 1, 1, 0, 0, 0, 0, 0, 0, 0], dtype=float)[:, None]
        p = np.array([0.9, 0.8, 0.2, 0.7, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1])[:, None]
        ws = windows_with_labels(y)
        metrics, confusions = evaluate(FixedModel(p), ws)
        c = confusions[0]
        assert (c.tp, c.fp, c.fn, c.tn) == (2, 1, 1, 6)
        assert c.total == 10
        assert metrics.precision[0] == pytest.approx(2 / 3)
        assert metrics.recall[0] == pytest.approx(2 / 3)
        assert metrics.f1[0] == pytest.approx(2 / 3)

    def test_zero_support_warns_and_recall_zero(self):
        y = np.zeros((5, 1))
        p = np.full((5, 1), 0.9)
        with pytest.warns(UserWarning, match="zero support"):
            metrics, _ = evaluate(FixedModel(p), windows_with_labels(y))
        assert metrics.recall[0] == 0.0
        assert metrics.support[0] == 0

    def test_row_permutation_invariance(self):
        rng = Rng(2)
        y = (rng.uniform(size=(30, 2)) < 0.4).astype(float)
        p = rng.uniform(size=(30, 2))
        base, _ = evaluate(FixedModel(p), windows_with_labels(y))
        perm = Rng(3).permutation(30)
        permuted, _ = evaluate(FixedModel(p[perm]), windows_with_labels(y[perm]))
        assert base.f1 == permuted.f1
        assert base.accuracy == permuted.accuracy

    def test_confusion_sums_to_n_per_class(self):
        rng = Rng(4)
        y = (rng.uniform(size=(25, 2)) < 0.4).astype(float)
        p = rng.uniform(size=(25, 2))
        _, confusions = evaluate(FixedModel(p), windows_with_labels(y))
        for c in confusions:
            assert c.total == 25

    def test_threshold_applies(self):
        y = np.array([[1.0], [0.0]])
        p = np.array([[0.6], [0.55]])
        metrics_low, _ = evaluate(FixedModel(p), windows_with_labels(y), threshold=0.5)
        fm = FixedModel(p)
        metrics_high, _ = evaluate(fm, windows_with_labels(y), threshold=0.58)
        assert metrics_low.accuracy == 0.5
        assert metrics_high.accuracy == 1.0

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_window_rejected(self, bad):
        class Untouchable:
            def predict_proba(self, x):
                return chunked(self._run, x)  # as every real model checks its windows

            feature_space = predict_proba

            def _run(self, xb):
                raise AssertionError("a non-finite window reached the model")

        ws = windows_with_labels(np.ones((6, 1)))
        ws.X[4, 0, 1] = bad
        with pytest.raises(DegenerateDataError, match="non-finite"):
            evaluate(Untouchable(), ws)
        with pytest.raises(DegenerateDataError, match="non-finite"):
            feature_matrix(Untouchable(), ws.X)

    def test_one_entry_point_call_for_every_window(self):
        # the model's own entry point is the only level that chunks
        ws = windows_with_labels(np.ones((1100, 1)))
        model = RecordingModel([0.8])
        evaluate(model, ws)
        feature_matrix(model, ws.X)
        assert model.calls == [1100, 1100]


class TestPredictTimeline:
    def scaler_for(self, frame):
        return fit_scaler("standard", frame)

    def test_one_predict_proba_call_per_slice_of_starts(self, monkeypatch):
        monkeypatch.setattr(layers, "CHUNK_HELPERS", 0)  # calls in chunk order
        n = 2 * CHUNK_WINDOWS + 80
        frame = toy_frame({"a": Rng(11).normal(size=(n,)).tolist()}, {"person": [0] * n})
        model = RecordingModel([0.8])
        track = predict_timeline(model, frame, self.scaler_for(frame), length=4)
        starts = n - 4 + 1
        assert model.calls == [CHUNK_WINDOWS, CHUNK_WINDOWS, starts - 2 * CHUNK_WINDOWS]
        assert (track.decisions[0] != NO_PREDICTION).sum() == starts

    def test_constant_model_constant_track(self):
        frame = toy_frame({"a": Rng(1).normal(size=(12,)).tolist()},
                          {"person": [0] * 12})
        track = predict_timeline(ConstantModel([0.8]), frame, self.scaler_for(frame),
                                 length=4)
        covered = ~np.isnan(track.probabilities[0])
        assert np.allclose(track.probabilities[0][covered], 0.8)
        assert np.all(track.decisions[0][covered] == 1)

    def test_window_arithmetic_first_position(self):
        frame = toy_frame({"a": Rng(2).normal(size=(10,)).tolist()},
                          {"person": [0] * 10})
        track = predict_timeline(ConstantModel([0.8]), frame, self.scaler_for(frame),
                                 length=7, position="first")
        covered = np.flatnonzero(track.decisions[0] != NO_PREDICTION)
        assert covered.tolist() == [0, 1, 2, 3]
        assert np.isnan(track.probabilities[0][4:]).all()

    def test_last_position_anchors_at_window_end(self):
        frame = toy_frame({"a": Rng(3).normal(size=(10,)).tolist()},
                          {"person": [0] * 10})
        track = predict_timeline(ConstantModel([0.8]), frame, self.scaler_for(frame),
                                 length=7, position="last")
        covered = np.flatnonzero(track.decisions[0] != NO_PREDICTION)
        assert covered.tolist() == [6, 7, 8, 9]

    def test_short_frame_gives_marker_track_with_warning(self):
        frame = toy_frame({"a": [1.0, 2.0, 3.0]}, {"person": [0, 0, 0]})
        with pytest.warns(UserWarning, match="shorter"):
            track = predict_timeline(ConstantModel([0.8]), frame,
                                     self.scaler_for(frame), length=7)
        assert len(track) == 3
        assert np.all(track.decisions == NO_PREDICTION)
        assert np.isnan(track.probabilities).all()

    def test_gap_rows_not_covered(self):
        ts = np.arange(20) * 120
        ts[10:] += 5000
        frame = SensorFrame(timestamps=1700000000 + ts, channel_names=("a",),
                            values=Rng(4).normal(size=(1, 20)),
                            label_names=("person",),
                            label_values=np.zeros((1, 20), dtype=np.int64))
        track = predict_timeline(ConstantModel([0.8]), frame, self.scaler_for(frame),
                                 length=4)
        covered = np.flatnonzero(track.decisions[0] != NO_PREDICTION)
        # windows fit in [0..6] and [10..16] start positions
        assert covered.tolist() == list(range(0, 7)) + list(range(10, 17))

    def test_window_with_missing_cell_gets_marker(self):
        values = Rng(10).normal(size=(2, 16))
        scaler = self.scaler_for(toy_frame({"a": values[0].tolist(), "b": values[1].tolist()}))
        values[1, 9] = np.nan
        frame = toy_frame({"a": values[0].tolist(), "b": values[1].tolist()},
                          {"person": [0] * 16})

        class FiniteOnlyModel(ConstantModel):
            def predict_proba(self, x):
                assert np.isfinite(x).all()
                return super().predict_proba(x)

        track = predict_timeline(FiniteOnlyModel([0.8]), frame, scaler, length=4)
        covered = np.flatnonzero(track.decisions[0] != NO_PREDICTION)
        # starts 0..12 fit; those whose window [s, s+4) holds row 9 are 6..9
        assert covered.tolist() == [0, 1, 2, 3, 4, 5, 10, 11, 12]
        assert np.isnan(track.probabilities[0][6:10]).all()
        assert np.allclose(track.probabilities[0][covered], 0.8)

    def test_decisions_consistent_with_threshold(self):
        frame = toy_frame({"a": Rng(5).normal(size=(15,)).tolist()},
                          {"person": [0] * 15})
        probs = Rng(6).uniform(size=(12, 1))
        model = FixedModel(probs)
        track = predict_timeline(model, frame, self.scaler_for(frame), length=4,
                                 threshold=0.5)
        covered = track.decisions[0] != NO_PREDICTION
        assert np.array_equal(track.decisions[0][covered],
                              (track.probabilities[0][covered] >= 0.5).astype(np.int8))

    def test_json_round_trip(self):
        frame = toy_frame({"a": Rng(7).normal(size=(9,)).tolist()}, {"person": [0] * 9})
        track = predict_timeline(ConstantModel([0.3]), frame, self.scaler_for(frame),
                                 length=4)
        again = PredictionTrack.from_json(track.to_json())
        assert np.array_equal(again.timestamps, track.timestamps)
        assert np.array_equal(again.decisions, track.decisions)
        nan_a = np.isnan(track.probabilities)
        assert np.array_equal(np.isnan(again.probabilities), nan_a)
        assert np.array_equal(again.probabilities[~nan_a], track.probabilities[~nan_a])

    def test_csv_has_row_per_timestamp(self):
        frame = toy_frame({"a": Rng(8).normal(size=(9,)).tolist()}, {"person": [0] * 9})
        track = predict_timeline(ConstantModel([0.3]), frame, self.scaler_for(frame),
                                 length=4)
        lines = track.to_csv().strip().split("\n")
        assert lines[0] == "timestamp,prob_person,decision_person"
        assert len(lines) == 10

    def test_unlabelled_frame_takes_class_count_from_model(self):
        frame = toy_frame({"a": Rng(9).normal(size=(12,)).tolist()})

        class TwoClassModel(ConstantModel):
            class config:
                classes = 2

        track = predict_timeline(TwoClassModel([0.7, 0.2]), frame,
                                 self.scaler_for(frame), length=4)
        assert track.class_names == ("class0", "class1")
        covered = track.decisions[0] != NO_PREDICTION
        assert covered.sum() == 9
        assert np.all(track.decisions[0][covered] == 1)
        assert np.all(track.decisions[1][covered] == 0)


def make_track(decisions_by_class, probs=None):
    decisions = np.asarray(decisions_by_class, dtype=np.int8)
    k, n = decisions.shape
    if probs is None:
        probs = np.where(decisions == NO_PREDICTION, np.nan, decisions * 0.9 + 0.05)
    return PredictionTrack(
        timestamps=np.arange(n, dtype=np.int64) * 120,
        class_names=tuple(f"c{i}" for i in range(k)),
        probabilities=np.asarray(probs, dtype=float),
        decisions=decisions,
        threshold=0.5,
    )


def smooth_oracle(series, width):
    """Independent naive fixpoint with the same left-to-right restart order."""
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
            left, right = runs[j - 1][0], runs[j + 1][0]
            if v in (0, 1) and ln < width and left == right and left in (0, 1):
                for t in range(s, s + ln):
                    d[t] = left
                flipped = True
                break
        if not flipped:
            return d


def _restart_runs(series):
    out = []
    for i, v in enumerate(series):
        if out and out[-1][0] == v:
            out[-1][2] += 1
        else:
            out.append([int(v), i, 1])
    return out


def restart_smooth_series(series, width):
    """The former quadratic ``_smooth_series``: flip the leftmost flippable run, rescan."""
    d = series.copy()
    changed = True
    while changed:
        changed = False
        runs = _restart_runs(d)
        for idx in range(1, len(runs) - 1):
            value, start, length = runs[idx]
            left = runs[idx - 1][0]
            right = runs[idx + 1][0]
            if (value in (0, 1) and length < width
                    and left == right and left in (0, 1)):
                d[start:start + length] = left
                changed = True
                break
    return d


class TestSmooth:
    def test_single_spike_removed(self):
        track = make_track([[0, 0, 1, 0, 0]])
        assert smooth(track, 2).decisions[0].tolist() == [0, 0, 0, 0, 0]

    def test_run_at_width_kept(self):
        track = make_track([[0, 1, 1, 0, 0]])
        assert smooth(track, 2).decisions[0].tolist() == [0, 1, 1, 0, 0]

    def test_fixpoint_example(self):
        track = make_track([[1, 1, 0, 1, 1, 0, 0, 0]])
        assert smooth(track, 2).decisions[0].tolist() == [1, 1, 1, 1, 1, 0, 0, 0]

    def test_width_one_is_identity(self):
        track = make_track([[0, 1, 0, 1, 0]])
        assert smooth(track, 1).decisions[0].tolist() == [0, 1, 0, 1, 0]

    def test_probabilities_untouched(self):
        track = make_track([[0, 0, 1, 0, 0]])
        out = smooth(track, 3)
        assert np.array_equal(out.probabilities, track.probabilities)

    def test_edge_runs_never_flipped(self):
        track = make_track([[1, 0, 0, 0, 1]])
        assert smooth(track, 3).decisions[0].tolist() == [1, 0, 0, 0, 1]

    def test_markers_break_runs(self):
        track = make_track([[0, NO_PREDICTION, 1, NO_PREDICTION, 0]])
        out = smooth(track, 3)
        assert out.decisions[0].tolist() == [0, NO_PREDICTION, 1, NO_PREDICTION, 0]

    def test_invalid_width(self):
        with pytest.raises(ConfigError):
            smooth(make_track([[0, 1]]), 0)

    def test_idempotent_and_no_short_interior_runs_random(self):
        rng = Rng(41)
        for _ in range(300):
            n = 5 + rng.integers(60)
            w = 1 + rng.integers(4)
            series = (rng.uniform(size=(n,)) < 0.5).astype(np.int8)
            track = make_track([series])
            once = smooth(track, w)
            twice = smooth(once, w)
            assert np.array_equal(once.decisions, twice.decisions)
            assert once.decisions[0].tolist() == smooth_oracle(series.tolist(), w)
            # no interior run between agreeing flanks may stay shorter than w
            runs = []
            for v in once.decisions[0]:
                if runs and runs[-1][0] == v:
                    runs[-1][1] += 1
                else:
                    runs.append([int(v), 1])
            for j in range(1, len(runs) - 1):
                if runs[j - 1][0] == runs[j + 1][0]:
                    assert runs[j][1] >= w

    def test_single_pass_matches_restarting_scan(self):
        """10k random tracks: markers, edge runs, widths 1-6, runs of 1-8 rows."""
        rng = Rng(2026)
        for case in range(10_000):
            n_runs = rng.integers(12)
            values = rng.integers(3, size=(n_runs,)) - 1
            if case % 2:
                values = np.where(values < 0, rng.integers(2, size=(n_runs,)), values)
            series = np.repeat(values, 1 + rng.integers(8, size=(n_runs,))).astype(np.int8)
            width = 1 + case % 6
            got = _smooth_series(series, width)
            assert got.dtype == np.int8
            assert got.tolist() == restart_smooth_series(series, width).tolist(), \
                (series.tolist(), width)
