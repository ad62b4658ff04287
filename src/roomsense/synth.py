"""Synthetic sensor frames with ground-truth occupancy and window events.

Schedules are alternating renewals (vacant/occupied, window closed/open) and
the informative channels follow first-order linear dynamics with saturation
clamps: co2 accumulates with people and decays toward ambient at a
ventilation rate that jumps when the window opens; oxygen mirrors co2;
absolute humidity and tvoc/co track occupancy with their own decay rates;
o3 relaxes toward a higher outdoor level while the window is open; sound and
temperature carry direct occupancy offsets. Everything else is ambient plus
noise, deliberately left as chaff for feature selection. All stochastic
terms scale with ``noise_scale`` so a zero-noise run is exactly at its fixed
point, and every draw comes from the frame's seeded generator.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .errors import ConfigError
from .frames import STANDARD_CHANNELS, STANDARD_LABELS, SensorFrame
from .rng import Rng, derive_seed
from .schema import dump, load

_AMBIENT_DEFAULTS: dict[str, float] = {
    "pressure": 1005.0, "temperature": 21.5, "sound": 32.0, "tvoc": 120.0,
    "oxygen": 20.9, "humidity": 45.0, "humidity_abs": 8.0, "co2": 420.0,
    "co": 0.2, "so2": 0.1, "no2": 8.0, "o3": 4.0, "pm2_5": 3.0, "pm10": 5.0,
    "pm1": 2.0, "sound_max": 32.0, "dewpt": 11.0,
}

_NOISE_DEFAULTS: dict[str, float] = {
    "pressure": 0.05, "temperature": 0.05, "sound": 1.5, "tvoc": 4.0,
    "oxygen": 0.01, "humidity": 0.8, "humidity_abs": 0.08, "co2": 8.0,
    "co": 0.01, "so2": 0.02, "no2": 0.5, "o3": 0.3, "pm2_5": 0.4,
    "pm10": 0.6, "pm1": 0.3, "sound_max": 2.0, "dewpt": 0.3,
}


@dataclass(frozen=True)
class ScenarioConfig:
    """Everything needed to regenerate one synthetic corpus."""

    n_samples: int = 5000
    seed: int = 0
    start_epoch: int = 1_656_633_600  # 2022-07-01T00:00:00Z
    period_s: int = 120
    device_id: str = "synth-000"
    # event schedules (durations in samples)
    occupancy_mean: float = 40.0
    vacancy_mean: float = 240.0
    max_people: int = 3
    window_open_prob: float = 0.5
    window_mean: float = 25.0
    idle_window_mean: float = 2500.0
    # dynamics coefficients
    co2_emission: float = 18.0
    co2_decay_closed: float = 0.02
    co2_decay_open: float = 0.25
    o2_coupling: float = 4e-4
    hum_emission: float = 0.05
    hum_decay_closed: float = 0.02
    hum_decay_open: float = 0.25
    hum_abs_outdoor: float = 5.0
    tvoc_emission: float = 6.0
    tvoc_decay_closed: float = 0.03
    tvoc_decay_open: float = 0.3
    co_emission: float = 0.006
    co_decay_closed: float = 0.04
    co_decay_open: float = 0.3
    o3_rate_closed: float = 0.05
    o3_rate_open: float = 0.25
    o3_outdoor: float = 30.0
    sound_occupied: float = 45.0
    sound_per_person: float = 3.0
    temp_per_person: float = 0.3
    # noise and imperfection injection
    noise_scale: float = 1.0
    noise_std: dict[str, float] = field(default_factory=dict)
    ambient: dict[str, float] = field(default_factory=dict)
    missing_runs: int = 0
    missing_run_mean: float = 4.0
    missing_leading: int = 0
    gap_count: int = 0
    gap_mean: float = 60.0

    def __post_init__(self):
        if self.n_samples < 1:
            raise ConfigError("n_samples must be >= 1")
        for name, d in (("co2", self.co2_decay_closed), ("co2", self.co2_decay_open),
                        ("humidity_abs", self.hum_decay_closed),
                        ("humidity_abs", self.hum_decay_open)):
            if not (0.0 < d < 1.0):
                raise ConfigError(f"{name} decay rates must lie in (0, 1), got {d}")
        if self.max_people < 1:
            raise ConfigError("max_people must be >= 1")

    def ambient_of(self, channel: str) -> float:
        return self.ambient.get(channel, _AMBIENT_DEFAULTS[channel])

    def noise_of(self, channel: str) -> float:
        return self.noise_std.get(channel, _NOISE_DEFAULTS[channel]) * self.noise_scale

    def to_json(self) -> str:
        return dump(asdict(self))

    @staticmethod
    def from_json(text: str) -> "ScenarioConfig":
        return load(ScenarioConfig, text, "scenario")


def bundled_scenario() -> ScenarioConfig:
    """The pinned scenario every end-to-end regression runs on."""
    return ScenarioConfig(n_samples=20_000, seed=7)


def _renewal_durations(rng: Rng, mean: float) -> float:
    # exponential renewal, at least one sample
    return max(1, int(round(-mean * math.log(1.0 - rng.uniform()))))


def _occupancy_schedule(cfg: ScenarioConfig, rng: Rng) -> np.ndarray:
    person = np.zeros(cfg.n_samples, dtype=np.int64)
    t = _renewal_durations(rng, cfg.vacancy_mean)  # start vacant
    while t < cfg.n_samples:
        dur = _renewal_durations(rng, cfg.occupancy_mean)
        count = 1 + rng.integers(cfg.max_people)
        person[t:t + dur] = count
        t += dur + _renewal_durations(rng, cfg.vacancy_mean)
    return person


def _window_schedule(cfg: ScenarioConfig, rng: Rng, person: np.ndarray) -> np.ndarray:
    window = np.zeros(cfg.n_samples, dtype=np.int64)
    # airing during/after occupancy
    n = cfg.n_samples
    edges = np.diff(np.concatenate([[0], person > 0, [0]]).astype(int))
    starts, ends = np.flatnonzero(edges == 1), np.flatnonzero(edges == -1)
    for block_start, block_end in zip(starts.tolist(), ends.tolist()):
        if rng.uniform() >= cfg.window_open_prob:
            continue
        offset = rng.integers(max(1, block_end - block_start))
        dur = _renewal_durations(rng, cfg.window_mean)
        s = block_start + offset
        window[s:s + dur] = 1
    # independent airing events, occupied or not
    t = _renewal_durations(rng, cfg.idle_window_mean)
    while t < n:
        dur = _renewal_durations(rng, cfg.window_mean)
        window[t:t + dur] = 1
        t += dur + _renewal_durations(rng, cfg.idle_window_mean)
    return window


def _dynamics(cfg: ScenarioConfig, amb: dict[str, float], person: np.ndarray,
              window: np.ndarray, eps: dict[str, np.ndarray],
              e_temp_drift: np.ndarray) -> tuple[np.ndarray, ...]:
    """The seven first-order recurrences, unclamped: co2, humidity_abs, tvoc,
    co, o3, temperature drift and pressure.

    Each step depends on the one before, so the loop runs on Python floats:
    inputs are read and outputs written through memoryviews of the numpy
    buffers, and every state lives in a local. Python floats round exactly
    like float64, and each update keeps the operations and order of the
    model's equation (no product is hoisted out of the loop), so the series
    are bit-identical to the same updates on numpy scalars.
    """
    n = cfg.n_samples
    outs = tuple(np.empty(n) for _ in range(7))
    co2_out, hum_out, tvoc_out, co_out, o3_out, drift_out, press_out = map(memoryview, outs)
    person_at, window_at = memoryview(person), memoryview(window)
    e_co2, e_hum, e_tvoc, e_co, e_o3, e_press = (
        memoryview(eps[name]) for name in ("co2", "humidity_abs", "tvoc", "co", "o3", "pressure"))
    e_drift = memoryview(e_temp_drift)

    amb_co2, amb_hum, amb_tvoc, amb_co, amb_o3, amb_press = (
        float(amb[name]) for name in ("co2", "humidity_abs", "tvoc", "co", "o3", "pressure"))
    co2_em, hum_em, tvoc_em, co_em = (float(v) for v in (
        cfg.co2_emission, cfg.hum_emission, cfg.tvoc_emission, cfg.co_emission))
    co2_open, co2_closed = float(cfg.co2_decay_open), float(cfg.co2_decay_closed)
    hum_open, hum_closed = float(cfg.hum_decay_open), float(cfg.hum_decay_closed)
    tvoc_open, tvoc_closed = float(cfg.tvoc_decay_open), float(cfg.tvoc_decay_closed)
    co_open, co_closed = float(cfg.co_decay_open), float(cfg.co_decay_closed)
    o3_open, o3_closed = float(cfg.o3_rate_open), float(cfg.o3_rate_closed)
    hum_outdoor, o3_outdoor = float(cfg.hum_abs_outdoor), float(cfg.o3_outdoor)

    x_co2, x_hum, x_tvoc, x_co, x_o3 = amb_co2, amb_hum, amb_tvoc, amb_co, amb_o3
    x_drift, x_press = 0.0, amb_press
    co2_out[0], hum_out[0], tvoc_out[0], co_out[0] = x_co2, x_hum, x_tvoc, x_co
    o3_out[0], drift_out[0], press_out[0] = x_o3, x_drift, x_press
    for t in range(1, n):
        p = person_at[t - 1]
        if window_at[t - 1] > 0:
            d_co2, d_hum, d_tvoc, d_co, o3_rate = co2_open, hum_open, tvoc_open, co_open, o3_open
            hum_target, o3_target = hum_outdoor, o3_outdoor
        else:
            d_co2, d_hum, d_tvoc, d_co = co2_closed, hum_closed, tvoc_closed, co_closed
            o3_rate, hum_target, o3_target = o3_closed, amb_hum, amb_o3
        x_co2 = x_co2 + co2_em * p - d_co2 * (x_co2 - amb_co2) + e_co2[t]
        x_hum = x_hum + hum_em * p - d_hum * (x_hum - hum_target) + e_hum[t]
        x_tvoc = x_tvoc + tvoc_em * p - d_tvoc * (x_tvoc - amb_tvoc) + e_tvoc[t]
        x_co = x_co + co_em * p - d_co * (x_co - amb_co) + e_co[t]
        x_o3 = x_o3 - o3_rate * (x_o3 - o3_target) + e_o3[t]
        x_drift = x_drift - 0.005 * x_drift + e_drift[t]
        x_press = x_press - 0.01 * (x_press - amb_press) + e_press[t]
        co2_out[t] = x_co2
        hum_out[t] = x_hum
        tvoc_out[t] = x_tvoc
        co_out[t] = x_co
        o3_out[t] = x_o3
        drift_out[t] = x_drift
        press_out[t] = x_press
    return outs


def generate_frame(cfg: ScenarioConfig) -> SensorFrame:
    """One labelled synthetic frame over all 17 standard channels."""
    rng = Rng(cfg.seed)
    n = cfg.n_samples
    person = _occupancy_schedule(cfg, rng.spawn(1))
    window = _window_schedule(cfg, rng.spawn(2), person)

    noise_rng = rng.spawn(3)
    eps = {name: noise_rng.normal(0.0, 1.0, size=(n,)) * cfg.noise_of(name)
           for name in STANDARD_CHANNELS}

    amb = {name: cfg.ambient_of(name) for name in STANDARD_CHANNELS}
    e_temp_drift = noise_rng.normal(0.0, 1.0, size=(n,)) * 0.02 * cfg.noise_scale
    co2, hum, tvoc, co, o3, temp_drift, pressure = _dynamics(cfg, amb, person, window,
                                                             eps, e_temp_drift)

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

    return SensorFrame(
        timestamps=timestamps,
        channel_names=STANDARD_CHANNELS,
        values=values,
        label_names=STANDARD_LABELS,
        label_values=labels,
        device_id=cfg.device_id,
    )


def generate_fleet(cfg: ScenarioConfig, devices: int, jitter: float = 0.02) -> list[SensorFrame]:
    """Unlabelled frames from ``devices`` synthetic sensors.

    Each device gets a derived seed and ambient levels jittered by the given
    relative fraction; labels are stripped (autoencoder corpus).
    """
    if devices < 1:
        raise ConfigError("need at least one device")
    frames = []
    for i in range(devices):
        dev_seed = derive_seed(cfg.seed, i + 1)
        jit_rng = Rng(derive_seed(dev_seed, 0xA))
        ambient = {
            name: cfg.ambient_of(name) * (1.0 + jitter * jit_rng.normal() * cfg.noise_scale)
            for name in STANDARD_CHANNELS
        }
        dev_cfg = replace(cfg, seed=dev_seed, device_id=f"synth-{i:03d}", ambient=ambient)
        frames.append(generate_frame(dev_cfg).without_labels())
    return frames
