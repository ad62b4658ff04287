"""Peak memory of the frame CSV reader and of ``clean``, measured by tracemalloc.

numpy reports its array buffers to tracemalloc, so a peak counts arrays as
well as Python objects. The reader works through the body in line-aligned
blocks, so beside its input it holds the frame it returns and one block.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from roomsense.cli import main
from roomsense.frames import frame_to_csv, parse_frame
from roomsense.synth import ScenarioConfig, generate_frame


@pytest.fixture(scope="module")
def raw_csv(tmp_path_factory):
    """A frame CSV of more than 5 MiB with missing runs and gaps."""
    frame = generate_frame(ScenarioConfig(n_samples=16_500, seed=5, missing_runs=40,
                                          gap_count=3))
    path = tmp_path_factory.mktemp("memory") / "raw.csv"
    path.write_bytes(frame_to_csv(frame))
    assert path.stat().st_size > 5 * 2**20
    return path


def traced_peak(fn, *args):
    """``fn(*args)`` and the peak of the memory it allocated, in bytes."""
    tracemalloc.start()
    try:
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_parse_frame_peaks_within_one_and_a_half_times_its_input(raw_csv):
    data = raw_csv.read_bytes()
    frame, peak = traced_peak(parse_frame, data)
    assert np.isnan(frame.values).any()
    assert peak <= 1.5 * len(data), peak / len(data)


def test_clean_peaks_within_three_times_its_input(raw_csv, tmp_path):
    """The input's bytes, the parsed frame, its filled copy and one written block."""
    code, peak = traced_peak(main, ["clean", "--set", f"in={raw_csv}",
                                    "--out", str(tmp_path / "clean")])
    assert code == 0
    assert peak <= 3 * raw_csv.stat().st_size, peak / raw_csv.stat().st_size
