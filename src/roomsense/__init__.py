"""Occupancy and open-window detection from multichannel gas-sensor series."""

from .frames import (
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
