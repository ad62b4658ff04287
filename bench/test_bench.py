"""Tests of the benchmark itself: every check rejects a corrupted output, and
a tiny run of every workload finishes with every metric BENCHMARK.json lists.

Run with ``python -m pytest bench -q`` from the repository root.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import checks  # noqa: E402
from roomsense.rng import Rng, derive_seed  # noqa: E402
from roomsense.search import TrialResult, lstm_search_space, trials_to_json  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _track(probs: list[list[float]], threshold: float = 0.5) -> dict:
    p = np.array(probs, dtype=float)
    dec = np.where(np.isnan(p), -1, (p >= threshold).astype(np.int64))
    return {"probs": p, "decisions": dec, "threshold": threshold,
            "timestamps": np.arange(p.shape[1]) * 120, "classes": [f"c{k}" for k in range(len(p))]}


def test_track_check_rejects_a_flipped_decision():
    nan = float("nan")
    track = _track([[0.9, 0.2, 0.7, nan], [0.1, 0.6, 0.4, nan]])
    anchored = np.array([True, True, True, False])
    assert checks.check_track(track, anchored) is None
    track["decisions"][1, 2] = 1
    assert "threshold" in checks.check_track(track, anchored)


def test_track_check_rejects_a_prediction_on_an_unanchored_row():
    track = _track([[0.9, 0.2, 0.7, 0.3]])
    assert checks.check_track(track, np.array([True, True, True, False])) is not None


def test_missing_check_rejects_a_decision_on_a_row_with_a_missing_window():
    values = np.ones((2, 10))
    values[1, 6] = np.nan
    missing = checks.windows_with_missing(values, 3)
    assert np.flatnonzero(missing).tolist() == [4, 5, 6]
    probs = [[np.nan if m else 0.8 for m in missing]]
    track = _track(probs)
    assert checks.check_missing_marked(track, missing) is None
    track["decisions"][0, 5] = 0
    assert "missing cell" in checks.check_missing_marked(track, missing)


def _trials_doc(seed: int, trials: int) -> dict:
    space = lstm_search_space()
    results = []
    for i in range(trials):
        trial_seed = derive_seed(seed, i)
        f1 = [0.5 + 0.1 * (i % 3), 0.7]
        results.append(TrialResult(i, space.sample(Rng(trial_seed)), trial_seed, f1,
                                   float(np.mean(f1)), 0.0))
    best = max(results, key=lambda t: (t.f1_mean, -t.index))
    return json.loads(trials_to_json(results, best))


def test_tune_check_rejects_a_wrong_best_trial():
    doc = _trials_doc(seed=77, trials=6)
    grids = lstm_search_space().grids
    assert checks.check_tune(doc, 77, grids, 6) is None
    # trials 2 and 5 tie on the best mean F1; the earlier one must win
    assert doc["best"]["index"] == 2
    doc["best"] = doc["trials"][5]
    assert "best trial" in checks.check_tune(doc, 77, grids, 6)


def test_tune_check_rejects_params_off_the_seed_derivation():
    doc = _trials_doc(seed=77, trials=3)
    doc["trials"][1]["params"]["hidden"] += 2
    assert "params" in checks.check_tune(doc, 77, lstm_search_space().grids, 3)


def test_frozen_check_rejects_a_moved_encoder_weight():
    before = {"enc0.fw.w_ih": np.linspace(-1, 1, 12).reshape(3, 4)}
    after = {k: v.copy() for k, v in before.items()}
    assert checks.check_frozen(before, after) is None
    after["enc0.fw.w_ih"][1, 2] = np.nextafter(after["enc0.fw.w_ih"][1, 2], 2.0)
    assert "moved" in checks.check_frozen(before, after)


def test_f1_check_recounts_and_gates():
    probs = np.array([[0.9, 0.1], [0.2, 0.8], [0.7, 0.6], [0.4, 0.3]])
    labels = np.array([[1, 0], [0, 1], [1, 0], [1, 0]], dtype=float)
    own = checks.f1_per_class(probs, labels)
    assert own == pytest.approx([0.8, 2 / 3])
    assert checks.check_f1("m", own, own, 0.6) is None
    assert "differs" in checks.check_f1("m", own, [0.8, 0.7], 0.0)
    assert "below gate" in checks.check_f1("m", own, own, 0.7)


def test_smoothing_check_rejects_a_surviving_spike_and_a_moved_marker():
    before = _track([[0.9, 0.9, 0.1, 0.9, 0.9, np.nan]])
    after = {**before, "decisions": np.array([[1, 1, 1, 1, 1, -1]])}
    assert checks.check_smoothed(before, after, after["decisions"], 3) is None
    assert "flank-agreeing" in checks.check_smoothed(before, before, before["decisions"], 3)
    moved = {**before, "decisions": np.array([[1, 1, 1, 1, 1, 1]])}
    assert "-1 marker" in checks.check_smoothed(before, moved, moved["decisions"], 3)


def test_pca_check_rejects_a_wrong_component():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(200, 4)) * np.array([3.0, 2.0, 1.0, 0.5])
    centered = x - x.mean(axis=0)
    evals, evecs = np.linalg.eigh(centered.T @ centered / len(x))
    comps = evecs[:, ::-1][:, :2]
    explained = tuple(evals[::-1][:2] / evals.sum())
    assert checks.check_pca(x, comps, explained) is None
    assert checks.check_pca(x, comps[:, ::-1], explained) is not None


def test_no_missing_check_rejects_a_nan_cell():
    frame = {"values": np.ones((3, 5))}
    assert checks.check_no_missing(frame) is None
    frame["values"][2, 1] = np.nan
    assert checks.check_no_missing(frame) is not None


def test_anchored_rows_respect_gaps():
    ts = np.array([0, 120, 240, 360, 1200, 1320, 1440, 1560, 1680])
    assert checks.anchored_rows(ts, 3, 360).astype(int).tolist() == [1, 1, 0, 0, 1, 1, 1, 0, 0]


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", ["0", "1"])
def test_tiny_run_finishes_with_every_metric(workload, trace):
    proc = _run(ROOT, "--workload", workload, "--seed", "3", "--seconds", "0",
                "--trace", trace, "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stderr
    assert result["attempted"] >= 1
    listed = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in listed}
    # deploy's predict on the raw CSV is one of its four operations and fails every round
    assert result["failed"] == (result["attempted"] // 4 if workload == "deploy" else 0)


def test_run_without_the_program_fails_without_a_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _run(tmp_path, "--workload", "deploy", "--seed", "1", "--seconds", "1")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
