"""Benchmark entry point: one workload, one seed, one run.

    python3 bench/run.py --workload supervised --seed 1 --seconds 10 --trace 0

Prints progress to stderr and, as the last line of stdout, one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``. Run it
from the repository root; it imports roomsense from ``src/`` and exits 2
without a result when that is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("supervised", "semisupervised", "deploy", "tune")
SETUP_REPEATS = 3

# Worker threads x BLAS threads must stay within the cores: tune runs one
# worker per core, so BLAS gets one thread everywhere. Set before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"


def _log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def _tally(rounds) -> tuple[bool, int, int]:
    ops = [op for r in rounds for op in r.ops]
    for op in ops:
        if op.failure:
            _log(f"{op.name}: {'known fault: ' if op.known_fault else ''}{op.failure}")
    correct = all(op.failure is None or op.known_fault for op in ops)
    return correct, len(ops), sum(op.failure is not None for op in ops)


def _end_to_end(ctx, setup, round_fn, seconds: float) -> dict:
    setup_s = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        state = setup(ctx)
        setup_s.append(time.perf_counter() - t0)
    rounds = []
    t0 = time.perf_counter()
    while not rounds or time.perf_counter() - t0 < seconds:
        rounds.append(round_fn(ctx, state))
        rates = ", ".join(f"{k} {v:.1f}" for k, v in rounds[-1].rates.items())
        _log(f"round {len(rounds)}: {rates}")
    _log(f"{len(rounds)} rounds in {time.perf_counter() - t0:.1f} s; set-ups {setup_s}")
    metrics = {
        "setup_s": (statistics.median(setup_s), "s"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }
    for slot in ("stage1", "stage2", "stage3"):
        metrics[f"{slot}_per_s"] = (statistics.median(r.rates[slot] for r in rounds), "1/s")
    metrics["f1_min"] = (statistics.median(r.f1_min for r in rounds), "F1")
    return {"rounds": rounds, "metrics": metrics}


def _merge(a, b):
    spans = {**a[0], **b[0]}
    samples = {k: a[2].get(k, []) + b[2].get(k, []) for k in {*a[2], *b[2]}}
    return spans, a[1] + b[1], samples


def _traced(ctx, setup, round_fn, seconds: float, trace_path: Path) -> dict:
    import probes
    import tracing

    tracer = tracing.Tracer()

    def traced(fn, *args):
        ctx.tracer = tracer
        probes.install(tracer)
        mark = tracer.mark()
        t0 = time.perf_counter()
        try:
            out = fn(*args)
        finally:
            wall = time.perf_counter() - t0
            tracer.close()
            ctx.tracer = None
        return out, wall, tracer.since(mark)

    def setup_stage():
        with tracer.stage("setup"):
            return setup(ctx)

    state, _, setup_seg = traced(setup_stage)
    rounds, plain, walls, per_round, shares = [], [], [], [], []
    t0 = time.perf_counter()
    while not rounds or time.perf_counter() - t0 < seconds:
        t1 = time.perf_counter()
        rounds.append(round_fn(ctx, state))
        plain.append(time.perf_counter() - t1)
        rnd, wall, seg = traced(round_fn, ctx, state)
        rounds.append(rnd)
        walls.append(wall)
        merged = _merge(setup_seg, seg)
        per_round.append(probes.layer_metrics(*merged))
        shares.append(tracing.stage_unattributed(list(merged[0].values())))
    _log(f"{len(walls)} untraced/traced round pairs; untraced {plain}, traced {walls}")

    layers = {name: statistics.median(r[name] for r in per_round) for name in per_round[0]}
    stage_share = {name: statistics.median(s[name] for s in shares) for name in shares[0]}
    layers["trace.overhead_s"] = statistics.median(walls) - statistics.median(plain)
    layers["trace.unattributed_share"] = max(stage_share.values())
    trace_path.write_text(json.dumps({
        "unattributed_share_by_stage": stage_share,
        "per_layer": layers,
        "spans": [[s.name, s.start, s.end, s.parent, s.thread]
                  for s in tracer.spans if s is not None],
    }), encoding="utf-8")
    _log(f"trace written to {trace_path}")
    metrics = {name: (value, probes.unit_of(name)) for name, value in layers.items()}
    return {"rounds": rounds, "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="small inputs and no accuracy gates, for testing the benchmark")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "roomsense" / "__init__.py").is_file():
        _log(f"roomsense sources not found under {ROOT / 'src'}; run from a full checkout")
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
    import workloads

    runs = ROOT / ".bench_runs"
    workdir = runs / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    ctx = workloads.Context(workdir, args.seed, workloads.TINY if args.tiny else workloads.FULL)
    setup, round_fn = workloads.WORKLOADS[args.workload]
    try:
        if args.trace:
            out = _traced(ctx, setup, round_fn, args.seconds,
                          runs / f"trace-{args.workload}-{args.seed}.json")
        else:
            out = _end_to_end(ctx, setup, round_fn, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    correct, attempted, failed = _tally(out["rounds"])
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in out["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
