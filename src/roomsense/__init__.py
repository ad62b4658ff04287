"""Occupancy and open-window detection from multichannel gas-sensor series."""

import os as _os
import sys as _sys

# BLAS gets one thread unless the environment says otherwise. numpy reads
# these once, when it loads, so they are set only while it is not yet loaded.
# Model calls outside training run their chunks on threads of their own
# (``nn.layers.chunked``) only when every one of these reads 1.
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
if "numpy" not in _sys.modules:
    for _var in _BLAS_THREAD_VARS:
        _os.environ.setdefault(_var, "1")

from .frames import (  # noqa: E402  (after the BLAS settings)
    CorrelationMatrix,
    FeatureSet,
    MissingReport,
    STANDARD_CHANNELS,
    STANDARD_LABELS,
    SensorFrame,
    binarize_person,
    frame_to_csv,
    interpolate_missing,
    missing_report,
    parse_frame,
    pearson_matrix,
    select_features,
)
from .pipeline import (
    ScalerParams,
    Segment,
    SplitSpec,
    WindowSet,
    build_windows,
    fit_scaler,
    slide,
    split_fraction,
    split_on_gaps,
    split_random,
    split_time,
    transform,
    undersample,
    window_label,
)
from .evaluation import (
    ClassConfusion,
    Metrics,
    PredictionTrack,
    evaluate,
    predict_timeline,
    smooth,
)
from .pca import PcaModel, pca_fit, pca_project
from .search import SearchSpace, TrialResult, fcn_search_space, lstm_search_space, random_search
from .synth import ScenarioConfig, bundled_scenario, generate_fleet, generate_frame
from .training import History, TrainConfig, train_autoencoder, train_classifier

__version__ = "0.1.0"
