import numpy as np
import pytest

from roomsense.errors import ConfigError
from roomsense.evaluation import evaluate
from roomsense.frames import binarize_person
from roomsense.models import FcnConfig, build_fcn
from roomsense.pipeline import build_windows, fit_scaler, split_fraction, transform
from roomsense.rng import Rng, derive_seed
from roomsense.search import (
    SearchSpace,
    TrialResult,
    fcn_search_space,
    lstm_search_space,
    random_search,
    select_best,
)
from roomsense.synth import ScenarioConfig, generate_frame
from roomsense.training import TrainConfig, train_classifier


def tiny_data(seed=19):
    frame = binarize_person(generate_frame(ScenarioConfig(n_samples=900, seed=seed)))
    ws = build_windows(frame, ["co2", "sound", "o3"], length=5, undersample_k=15)
    ws = transform(fit_scaler("standard", ws), ws)
    return split_fraction(ws, 0.75, seed=seed)


def build_tiny_fcn(params, seed):
    return build_fcn(FcnConfig(in_channels=3, filters=(params["filters0"],),
                               kernels=(3,)), seed=seed)


TINY_CFG = TrainConfig(epochs=2, batch_size=32, lr_max=3e-3, seed=0,
                       early_stopping=False)


class TestSpaces:
    def test_fcn_grid_contract(self):
        space = fcn_search_space(blocks=2)
        assert space.grids["filters0"] == [8, 12, 16, 20, 24, 28, 32]
        assert space.grids["filters1"] == [8, 12, 16, 20, 24, 28, 32]

    def test_lstm_grid_contract(self):
        space = lstm_search_space()
        assert space.grids["hidden"] == list(range(10, 31, 2))
        assert space.grids["dropout"] == [0.1, 0.2, 0.3, 0.4, 0.5]

    def test_empty_grid_rejected(self):
        with pytest.raises(ConfigError):
            SearchSpace({"a": []})
        with pytest.raises(ConfigError):
            SearchSpace({})

    def test_sampling_stays_in_grid(self):
        space = lstm_search_space()
        rng = Rng(3)
        for _ in range(200):
            point = space.sample(rng)
            assert point["hidden"] in space.grids["hidden"]
            assert point["dropout"] in space.grids["dropout"]

    def test_points_enumerates_cartesian_grid(self):
        space = SearchSpace({"a": [1, 2], "b": [3, 4, 5]})
        points = space.points()
        assert len(points) == 6
        assert {(p["a"], p["b"]) for p in points} == {(a, b) for a in (1, 2)
                                                      for b in (3, 4, 5)}


class TestSelectBest:
    def make(self, idx, f1):
        return TrialResult(index=idx, params={}, seed=0, f1_per_class=[f1],
                           f1_mean=f1, wall_seconds=0.0)

    def test_max_wins(self):
        trials = [self.make(0, 0.5), self.make(1, 0.9), self.make(2, 0.7)]
        assert select_best(trials).index == 1

    def test_tie_goes_to_earlier(self):
        trials = [self.make(0, 0.5), self.make(1, 0.9), self.make(2, 0.9)]
        assert select_best(trials).index == 1


class TestRandomSearch:
    def test_single_trial_is_best(self):
        train, valid = tiny_data()
        space = SearchSpace({"filters0": [4, 8]})
        trials, best = random_search(space, build_tiny_fcn, train, valid,
                                     TINY_CFG, trials=1, seed=5)
        assert len(trials) == 1
        assert best is trials[0]

    def test_sampled_values_member_of_grid_and_logged(self):
        train, valid = tiny_data()
        space = SearchSpace({"filters0": [4, 6, 8]})
        trials, _ = random_search(space, build_tiny_fcn, train, valid,
                                  TINY_CFG, trials=6, seed=5)
        assert [t.index for t in trials] == list(range(6))
        for t in trials:
            assert t.params["filters0"] in (4, 6, 8)
            assert t.seed == derive_seed(5, t.index)

    def test_best_matches_independent_retraining_oracle(self):
        # retrain every logged trial independently; the reported best must be
        # the max mean F1 (ties to the earlier index)
        train, valid = tiny_data()
        space = SearchSpace({"filters0": [4, 6, 8]})
        trials, best = random_search(space, build_tiny_fcn, train, valid,
                                     TINY_CFG, trials=8, seed=11)
        sampled = {t.params["filters0"] for t in trials}
        assert sampled == {4, 6, 8}  # exhaustive over this grid (seeded)
        oracle_scores = []
        for t in trials:
            model = build_tiny_fcn(t.params, t.seed)
            cfg = TrainConfig(epochs=2, batch_size=32, lr_max=3e-3, seed=t.seed,
                              early_stopping=False)
            model, _ = train_classifier(model, train, valid, cfg)
            metrics, _ = evaluate(model, valid)
            oracle_scores.append(float(np.mean(metrics.f1)))
        assert oracle_scores == [t.f1_mean for t in trials]
        best_oracle = max(range(len(trials)), key=lambda i: (oracle_scores[i], -i))
        assert best.index == best_oracle

    def test_trials_must_be_positive(self):
        train, valid = tiny_data()
        with pytest.raises(ConfigError):
            random_search(SearchSpace({"a": [1]}), build_tiny_fcn, train, valid,
                          TINY_CFG, trials=0, seed=1)
