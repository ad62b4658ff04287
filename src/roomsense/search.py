"""Seeded random hyperparameter search over discrete grids.

Each trial samples one point per grid (with replacement across trials),
derives its own seed with the documented splitmix step, trains through
train_classifier, and scores mean validation F1. Trials run one after another
in trial-index order; each one already keeps the numpy engine busy, so
running several at once on the same cores only makes each slower.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, replace

import numpy as np

from .errors import ConfigError
from .evaluation import evaluate
from .pipeline import WindowSet
from .rng import Rng, derive_seed
from .schema import dump
from .training import TrainConfig, train_classifier


@dataclass(frozen=True)
class SearchSpace:
    """Named discrete parameter grids."""

    grids: dict[str, list]

    def __post_init__(self):
        if not self.grids or any(len(v) == 0 for v in self.grids.values()):
            raise ConfigError("every search grid must be non-empty")

    def sample(self, rng: Rng) -> dict:
        # keys visited in sorted order so sampling is reproducible
        return {k: self.grids[k][rng.integers(len(self.grids[k]))]
                for k in sorted(self.grids)}

    def points(self) -> list[dict]:
        """Full cartesian grid (used by exhaustive oracles)."""
        keys = sorted(self.grids)
        out: list[dict] = [{}]
        for k in keys:
            out = [{**p, k: v} for p in out for v in self.grids[k]]
        return out


def fcn_search_space(blocks: int = 2) -> SearchSpace:
    """Filter counts 8..32 step 4 for each convolutional block."""
    values = list(range(8, 33, 4))
    return SearchSpace({f"filters{i}": values for i in range(blocks)})


def lstm_search_space() -> SearchSpace:
    """Hidden size 10..30 step 2; dropout 0.1..0.5 step 0.1."""
    return SearchSpace({
        "hidden": list(range(10, 31, 2)),
        "dropout": [round(0.1 * i, 1) for i in range(1, 6)],
    })


@dataclass
class TrialResult:
    index: int
    params: dict
    seed: int
    f1_per_class: list[float]
    f1_mean: float
    wall_seconds: float

    def to_doc(self) -> dict:
        return {k: v for k, v in asdict(self).items() if k != "wall_seconds"}


def trials_to_json(trials: list[TrialResult], best: TrialResult) -> str:
    return dump({"trials": [t.to_doc() for t in trials], "best": best.to_doc()})


def random_search(space: SearchSpace, build, train: WindowSet, valid: WindowSet,
                  train_cfg: TrainConfig, trials: int,
                  seed: int) -> tuple[list[TrialResult], TrialResult]:
    """Run seeded trials; best = max mean validation F1, ties to the earlier trial.

    ``build(params, seed)`` must return a fresh model for the sampled params.
    """
    if trials < 1:
        raise ConfigError("need at least one trial")
    results = []
    for i in range(trials):
        trial_seed = derive_seed(seed, i)
        params = space.sample(Rng(trial_seed))
        model = build(params, trial_seed)
        cfg = replace(train_cfg, seed=trial_seed)
        t0 = time.perf_counter()
        model, _ = train_classifier(model, train, valid, cfg)
        metrics, _ = evaluate(model, valid)
        results.append(TrialResult(
            index=i, params=params, seed=trial_seed,
            f1_per_class=[float(f) for f in metrics.f1],
            f1_mean=float(np.mean(metrics.f1)),
            wall_seconds=time.perf_counter() - t0,
        ))
    return results, select_best(results)


def select_best(results: list[TrialResult]) -> TrialResult:
    """Highest mean F1; exact ties go to the earlier trial."""
    best = results[0]
    for t in results[1:]:
        if t.f1_mean > best.f1_mean:
            best = t
    return best
