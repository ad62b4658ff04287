import math

import numpy as np
import pytest

from conftest import toy_frame
from roomsense.errors import (
    ConfigError,
    RoomsenseError,
    DegenerateDataError,
    IntegrityError,
    ParseError,
    SchemaError,
)
from roomsense.frames import (
    CorrelationMatrix,
    SensorFrame,
    binarize_person,
    frame_to_csv,
    interpolate_missing,
    missing_report,
    parse_frame,
    pearson_matrix,
    select_features,
)
from roomsense.rng import Rng

CSV_SMALL = b"""timestamp,co2,o2,person,window_open
1700000000,420.0,20.9,0,0
1700000120,430.5,20.8,1,0
1700000240,440.25,20.7,2,1
"""


class TestParseFrame:
    def test_identity_ingestion(self):
        frame = parse_frame(CSV_SMALL)
        assert len(frame) == 3
        assert frame.channel_names == ("co2", "o2")
        assert frame.label_names == ("person", "window_open")
        assert not np.isnan(frame.values).any()
        assert frame.channel("co2")[2] == 440.25
        assert frame.label("person").tolist() == [0, 1, 2]

    def test_empty_cell_becomes_missing(self):
        csv = CSV_SMALL.replace(b"20.8", b"")
        frame = parse_frame(csv)
        report = missing_report(frame)
        assert dict(zip(report.channel_names, report.counts)) == {"co2": 0, "o2": 1}

    def test_out_of_order_rows_sort_like_presorted_input(self):
        lines = CSV_SMALL.decode().strip().split("\n")
        shuffled = "\n".join([lines[0], lines[3], lines[1], lines[2]]).encode()
        a = parse_frame(shuffled)
        b = parse_frame(CSV_SMALL)
        assert np.array_equal(a.timestamps, b.timestamps)
        assert np.array_equal(a.values, b.values)
        assert np.array_equal(a.label_values, b.label_values)

    def test_duplicate_timestamp_rejected(self):
        csv = CSV_SMALL.replace(b"1700000240", b"1700000120")
        with pytest.raises(IntegrityError):
            parse_frame(csv)

    def test_malformed_header(self):
        with pytest.raises(SchemaError):
            parse_frame(b"time,co2\n1,2\n")

    def test_unparseable_cell_is_addressed(self):
        csv = CSV_SMALL.replace(b"430.5", b"oops")
        with pytest.raises(ParseError) as err:
            parse_frame(csv)
        assert err.value.row == 2
        assert err.value.column == "co2"

    def test_iso_timestamps(self):
        csv = (b"timestamp,co2\n2022-07-01T00:00:00+00:00,400\n"
               b"2022-07-01T00:02:00+00:00,410\n")
        frame = parse_frame(csv)
        assert frame.timestamps.tolist() == [1656633600, 1656633720]

    def test_round_trip(self):
        frame = parse_frame(CSV_SMALL)
        again = parse_frame(frame_to_csv(frame))
        assert np.array_equal(frame.timestamps, again.timestamps)
        assert np.array_equal(frame.values, again.values)
        assert np.array_equal(frame.label_values, again.label_values)
        assert frame.channel_names == again.channel_names

    def test_round_trip_with_missing(self):
        frame = toy_frame({"a": [1.0, math.nan, 3.0]})
        again = parse_frame(frame_to_csv(frame))
        assert np.isnan(again.channel("a")[1])
        assert again.channel("a")[0] == 1.0

    def test_no_data_rows_give_an_empty_frame_without_warning(self, recwarn):
        for body in (b"", b"\n", b"\r\n,,\r\n", b' , ,"" \n\n'):
            frame = parse_frame(b"timestamp,co2,person\n" + body)
            assert len(frame) == 0 and frame.values.shape == (1, 0)
            assert frame.label_values.shape == (1, 0)
        assert not recwarn.list

    def test_crlf_and_quoted_cells_parse_as_lf(self):
        quoted = CSV_SMALL.replace(b"430.5", b'" 430.5 "').replace(b",0\n", b',"0"\n')
        frame = parse_frame(quoted.replace(b"\n", b"\r\n"))
        assert frame_to_csv(frame) == frame_to_csv(parse_frame(CSV_SMALL))

    @pytest.mark.parametrize("cell,message", [
        (b"99999999999999999999", "64-bit"), (b"\xff\xfe", "UTF-8"), (b"1.0", "integer"),
        (b"1e3", "integer")])
    def test_label_cell_errors_name_row_and_column(self, cell, message):
        data = CSV_SMALL.replace(b"440.25,20.7,2,1", b"440.25,20.7,2," + cell)
        with pytest.raises(ParseError, match=message) as err:
            parse_frame(data)
        assert (err.value.row, err.value.column) == (3, "window_open")

    def test_timestamp_outside_int64_is_a_parse_error(self):
        data = CSV_SMALL.replace(b"1700000120", b"-9223372036854775809")
        with pytest.raises(ParseError) as err:
            parse_frame(data)
        assert (err.value.row, err.value.column) == (2, "timestamp")

    def test_quoted_line_break_is_refused(self):
        data = CSV_SMALL.replace(b"430.5", b'"430.5\n"')
        with pytest.raises(ParseError) as err:
            parse_frame(data)
        assert (err.value.row, err.value.column) == (2, "co2")

    def test_seeded_byte_mutations_give_a_frame_or_a_typed_error(self):
        base = CSV_SMALL.replace(b"420.0", b"").replace(b"20.8", b'" 20.8"') + \
            b"\n,,,,\n2022-07-01T00:00:00Z,400,20.5,0,0\n"
        alphabet = b',"\r\n #\x00\xff\xc3-+_.eE0123456789\t\x0c'
        rng = np.random.default_rng(20)
        outcomes = {"frame": 0, "error": 0}
        for _ in range(2000):
            data = bytearray(base)
            for _ in range(int(rng.integers(1, 4))):
                at = int(rng.integers(0, len(data)))
                op = rng.integers(4)
                if op == 0:
                    data[at] = alphabet[rng.integers(len(alphabet))]
                elif op == 1:
                    data.insert(at, alphabet[rng.integers(len(alphabet))])
                elif op == 2:
                    del data[at]
                else:
                    data[at:at] = data[at:at + int(rng.integers(1, 12))]
            try:
                assert isinstance(parse_frame(bytes(data)), SensorFrame)
                outcomes["frame"] += 1
            except RoomsenseError:
                outcomes["error"] += 1
        assert min(outcomes.values()) > 200, outcomes


def scan_missing_runs(mask):
    """The former per-cell loop of ``missing_report``."""
    runs = []
    i = 0
    n = mask.shape[0]
    while i < n:
        if mask[i]:
            j = i
            while j < n and mask[j]:
                j += 1
            runs.append((i, j - i))
            i = j
        else:
            i += 1
    return tuple(runs)


class TestMissingReport:
    def test_no_missing(self):
        report = missing_report(toy_frame({"a": [1, 2], "b": [3, 4]}))
        assert report.counts == (0, 0)
        assert report.runs == ((), ())

    def test_single_run(self):
        report = missing_report(toy_frame({"a": [1, math.nan, math.nan, 4]}))
        assert report.counts == (2,)
        assert report.runs == (((1, 2),),)

    def test_random_mask_counts_match_population(self):
        rng = Rng(13)
        series = np.arange(1000, dtype=float)
        mask = rng.uniform(size=(1000,)) < 0.2
        series[mask] = math.nan
        report = missing_report(toy_frame({"a": series.tolist()}))
        assert report.counts[0] == int(mask.sum())
        assert sum(length for _, length in report.runs[0]) == int(mask.sum())

    def test_runs_match_cell_scan(self):
        rng = Rng(17)
        for case in range(300):
            n = 1 + rng.integers(40)
            p = (0.0, 1.0, 0.1, 0.5, 0.9)[case % 5]  # 1.0: an all-missing channel
            values = np.where(rng.uniform(size=(3, n)) < p, math.nan, 1.0)
            values[1, :1 + rng.integers(n)] = math.nan   # leading run
            values[2, n - 1 - rng.integers(n):] = math.nan  # trailing run
            report = missing_report(toy_frame({c: values[i].tolist()
                                               for i, c in enumerate("abc")}))
            for i in range(3):
                mask = np.isnan(values[i])
                assert report.runs[i] == scan_missing_runs(mask)
                assert report.counts[i] == int(mask.sum())
                assert all(type(v) is int for run in report.runs[i] for v in run)


class TestInterpolate:
    def test_midpoint(self):
        frame = interpolate_missing(toy_frame({"a": [1, math.nan, 3]}))
        assert frame.channel("a").tolist() == [1, 2, 3]

    def test_leading_trim_drops_rows_across_channels(self):
        frame = toy_frame({"a": [math.nan, math.nan, 5, 7], "b": [1, 2, 3, 4]})
        out = interpolate_missing(frame, "trim")
        assert out.channel("a").tolist() == [5, 7]
        assert out.channel("b").tolist() == [3, 4]
        assert len(out) == 2

    def test_run_of_two(self):
        out = interpolate_missing(toy_frame({"a": [0, math.nan, math.nan, 9]}))
        assert out.channel("a").tolist() == [0, 3, 6, 9]

    def test_extend_policy(self):
        out = interpolate_missing(
            toy_frame({"a": [math.nan, 5, math.nan, 7, math.nan]}), "extend")
        assert out.channel("a").tolist() == [5, 5, 6, 7, 7]
        assert len(out) == 5

    def test_idempotent(self):
        frame = toy_frame({"a": [math.nan, 1, math.nan, 4, math.nan]})
        once = interpolate_missing(frame, "trim")
        twice = interpolate_missing(once, "trim")
        assert np.array_equal(once.values, twice.values)
        assert np.array_equal(once.timestamps, twice.timestamps)

    def test_present_values_untouched(self):
        vals = [2.5, math.nan, 4.5, math.nan, 0.5]
        out = interpolate_missing(toy_frame({"a": vals}), "extend")
        for i in (0, 2, 4):
            assert out.channel("a")[i] == vals[i]

    def test_all_missing_channel_error(self):
        with pytest.raises(DegenerateDataError):
            interpolate_missing(toy_frame({"a": [math.nan, math.nan]}))

    @pytest.mark.parametrize("policy", ["trim", "extend"])
    @pytest.mark.parametrize("series,row", [
        ([400.0, math.inf, math.nan, -math.inf, 420.0], 1),
        ([400.0, math.nan, -math.inf, 420.0], 2),
        ([math.inf, 400.0, 410.0], 0)])
    def test_infinite_cell_is_refused_naming_channel_and_timestamp(self, series, row, policy):
        """A fill between two infinities would be NaN, and next to one infinite."""
        frame = toy_frame({"o3": [1.0] * len(series), "co2": series})
        with pytest.raises(DegenerateDataError, match="channel 'co2'") as err:
            interpolate_missing(frame, policy)
        assert f"timestamp {frame.timestamps[row]}" in str(err.value)

    def test_labels_trimmed_in_step(self):
        frame = toy_frame({"a": [math.nan, 1, 2]}, {"person": [1, 0, 1]})
        out = interpolate_missing(frame, "trim")
        assert out.label("person").tolist() == [0, 1]


class TestBinarizePerson:
    def test_counts_merge_to_indicator(self):
        frame = toy_frame({"a": [0, 0, 0, 0]}, {"person": [0, 1, 2, 3],
                                                "window_open": [0, 1, 0, 1]})
        out = binarize_person(frame)
        assert out.label("person").tolist() == [0, 1, 1, 1]
        assert out.label("window_open").tolist() == [0, 1, 0, 1]
        assert np.array_equal(out.values, frame.values)

    def test_all_zero(self):
        out = binarize_person(toy_frame({"a": [0, 0]}, {"person": [0, 0]}))
        assert out.label("person").tolist() == [0, 0]

    def test_forced_indicator(self):
        out = binarize_person(toy_frame({"a": [0, 0, 0]}, {"person": [5, 0, 5]}))
        assert out.label("person").tolist() == [1, 0, 1]

    def test_missing_person_label(self):
        with pytest.raises(SchemaError):
            binarize_person(toy_frame({"a": [0.0, 1.0]}, {"window_open": [0, 1]}))


class TestPearson:
    def test_self_correlation(self):
        frame = toy_frame({"x": [1, 2, 4], "y": [0, 1, 0]})
        m = pearson_matrix(frame, ["x", "y"])
        assert m.value("x", "x") == 1.0

    def test_anticorrelation(self):
        frame = toy_frame({"x": [1.0, 2.0, 4.0], "neg": [-1.0, -2.0, -4.0]})
        m = pearson_matrix(frame, ["x", "neg"])
        assert m.value("x", "neg") == pytest.approx(-1.0, abs=1e-12)

    def test_hand_computed_half(self):
        frame = toy_frame({"x": [1, 2, 3], "y": [1, 3, 2]})
        m = pearson_matrix(frame, ["x", "y"])
        assert m.value("x", "y") == pytest.approx(0.5, abs=1e-12)

    def test_symmetric_unit_diagonal(self):
        rng = Rng(5)
        frame = toy_frame({f"c{i}": rng.normal(size=(50,)).tolist() for i in range(4)})
        m = pearson_matrix(frame, list(frame.channel_names))
        assert np.allclose(m.matrix, m.matrix.T, atol=1e-12)
        assert np.allclose(np.diag(m.matrix), 1.0, atol=1e-12)
        assert m.matrix.min() >= -1.0 and m.matrix.max() <= 1.0

    def test_affine_invariance(self):
        rng = Rng(6)
        x = rng.normal(size=(60,))
        y = rng.normal(size=(60,))
        base = pearson_matrix(toy_frame({"x": x.tolist(), "y": y.tolist()}), ["x", "y"])
        scaled = pearson_matrix(
            toy_frame({"x": (3.5 * x + 11.0).tolist(), "y": y.tolist()}), ["x", "y"])
        assert scaled.value("x", "y") == pytest.approx(base.value("x", "y"), abs=1e-12)

    def test_matches_numpy_oracle(self):
        rng = Rng(77)
        data = {f"c{i}": rng.normal(size=(40,)).tolist() for i in range(5)}
        frame = toy_frame(data)
        m = pearson_matrix(frame, list(frame.channel_names))
        oracle = np.corrcoef(np.array([data[f"c{i}"] for i in range(5)]))
        assert np.allclose(m.matrix, oracle, atol=1e-9)

    def test_binary_label_is_numeric(self):
        frame = toy_frame({"x": [1.0, 2.0, 3.0, 4.0]}, {"person": [0, 0, 1, 1]})
        m = pearson_matrix(frame, ["x", "person"])
        oracle = np.corrcoef([1, 2, 3, 4], [0, 0, 1, 1])[0, 1]
        assert m.value("x", "person") == pytest.approx(oracle, abs=1e-12)

    def test_zero_variance_names_variable(self):
        frame = toy_frame({"flat": [2.0, 2.0, 2.0], "x": [1.0, 2.0, 3.0]})
        with pytest.raises(DegenerateDataError, match="flat"):
            pearson_matrix(frame, ["flat", "x"])

    def test_missing_values_rejected(self):
        frame = toy_frame({"x": [1.0, math.nan, 3.0]})
        with pytest.raises(DegenerateDataError):
            pearson_matrix(frame, ["x"])

    def test_json_round_trip(self):
        frame = toy_frame({"x": [1, 2, 3], "y": [1, 3, 2]})
        m = pearson_matrix(frame, ["x", "y"])
        again = CorrelationMatrix.from_json(m.to_json())
        assert again.variable_names == m.variable_names
        assert np.allclose(again.matrix, m.matrix)


def _matrix(names, r):
    return CorrelationMatrix(tuple(names), np.array(r, dtype=float))


class TestSelectFeatures:
    def test_nothing_above_threshold(self):
        m = _matrix(["a", "b", "person"], [[1.0, 0.3, 0.5],
                                           [0.3, 1.0, 0.4],
                                           [0.5, 0.4, 1.0]])
        fs = select_features(m, 0.9, ("person",))
        assert fs.names == ("a", "b")

    def test_duplicated_channel_drops_weaker(self):
        m = _matrix(["a", "b", "person"], [[1.0, 1.0, 0.8],
                                           [1.0, 1.0, 0.2],
                                           [0.8, 0.2, 1.0]])
        fs = select_features(m, 0.9, ("person",))
        assert fs.names == ("a",)
        assert "b" in fs.note

    def test_tie_drops_later_channel(self):
        m = _matrix(["a", "b", "person"], [[1.0, 0.95, 0.5],
                                           [0.95, 1.0, 0.5],
                                           [0.5, 0.5, 1.0]])
        fs = select_features(m, 0.9, ("person",))
        assert fs.names == ("a",)

    def test_threshold_validation(self):
        m = _matrix(["a", "person"], [[1.0, 0.5], [0.5, 1.0]])
        with pytest.raises(ConfigError):
            select_features(m, 1.5, ("person",))
        with pytest.raises(ConfigError):
            select_features(m, 0.0, ("person",))

    def test_missing_class_rejected(self):
        m = _matrix(["a", "b"], [[1.0, 0.2], [0.2, 1.0]])
        with pytest.raises(SchemaError):
            select_features(m, 0.9, ("person",))

    @staticmethod
    def oracle(names, matrix, threshold, classes):
        """Independent naive loop: repeatedly drop from the worst surviving pair."""
        feats = [n for n in names if n not in classes]
        cls_idx = [names.index(c) for c in classes]
        idx = {n: names.index(n) for n in names}
        alive = list(feats)
        while True:
            worst = None
            for i, a in enumerate(alive):
                for b in alive[i + 1:]:
                    r = abs(matrix[idx[a], idx[b]])
                    if r > threshold and (worst is None or r > worst[0]):
                        worst = (r, a, b)
            if worst is None:
                return tuple(alive)
            _, a, b = worst
            sa = max(abs(matrix[idx[a], c]) for c in cls_idx)
            sb = max(abs(matrix[idx[b], c]) for c in cls_idx)
            alive.remove(b if sb <= sa else a)

    def test_matches_bruteforce_on_random_clusters(self):
        rng = Rng(21)
        for _ in range(100):
            d = 5
            names = [f"f{i}" for i in range(d)] + ["person"]
            # random symmetric matrix with exaggerated clusters
            raw = rng.uniform(-1.0, 1.0, size=(d + 1, d + 1))
            sym = np.clip((raw + raw.T) / 2.0, -0.999, 0.999)
            np.fill_diagonal(sym, 1.0)
            m = _matrix(names, sym)
            got = select_features(m, 0.5, ("person",)).names
            want = self.oracle(names, sym, 0.5, ("person",))
            assert got == want

    def test_column_order_invariance_without_ties(self):
        names = ["a", "b", "c", "person"]
        mat = np.array([
            [1.0, 0.95, 0.10, 0.80],
            [0.95, 1.0, 0.20, 0.30],
            [0.10, 0.20, 1.0, 0.60],
            [0.80, 0.30, 0.60, 1.0],
        ])
        kept = select_features(_matrix(names, mat), 0.9, ("person",)).names
        # permute feature order (classes stay), survivors must be the same set
        perm = [2, 0, 1, 3]
        pnames = [names[i] for i in perm]
        pmat = mat[np.ix_(perm, perm)]
        kept_perm = select_features(_matrix(pnames, pmat), 0.9, ("person",)).names
        assert set(kept) == set(kept_perm) == {"a", "c"}
