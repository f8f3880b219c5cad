"""Definitions shared by the orchestrator (run.py) and its workers.

Pure standard library: the orchestrator imports this module without
numpy or the ``repro`` package, so it stays a light supervisor of the
processes that do the work.
"""

from __future__ import annotations

import hashlib
import json
import sys

#: marker prefixing every protocol line a worker writes to stdout
PROTOCOL = "PERFBENCH "

#: The timed workloads.  Each names the registry experiment and the
#: params it runs serial/float, its cells per grid, the model its
#: processes load, and the nominal wall time of one grid (2-core host).
WORKLOADS = {
    # the paper's Fig. 4a protocol (§IV): binary LeNet, bit-flip rates
    # 0..30% in 7 points, 10 repeats, 800 MNIST test images; 7 points x
    # 5 series (conv1, conv2, dense0, dense1, combined) x 10 repeats
    "fig4a-serial": {"experiment": "fig4a", "model": "lenet",
                     "params": {"repeats": 10, "images": 800},
                     "cells_per_repeat": 7 * 5, "nominal_grid_s": 2.8},
    # the Fig. 5b stuck-at axis 0..2% (6 points) on binary AlexNet and
    # 400 synthetic-ImageNet images, 3 repeats
    "fig5b-alexnet": {"experiment": "fig5b", "model": "binary_alexnet",
                      "params": {"models": ["binary_alexnet"], "repeats": 3,
                                 "images": 400},
                      "cells_per_repeat": 6, "nominal_grid_s": 4.6},
}

#: the dispatch probe of the fig4a-serial traced run: the same grid on
#: the shared-memory pool with 3 repeats; its cells are the first
#: columns of the serial grid (cell seeds depend only on grid
#: coordinates)
POOL = {"executor": "shared_memory", "n_jobs": 2, "repeats": 3}

#: the service probe of the fig4a-serial traced run: durable
#: ``fig4a`` ``quick=True`` jobs against ``repro serve --workers 1``,
#: at least this many so that ten samples lie beyond p90, cycling
#: through this many request seeds
SERVICE_JOBS = 100
SERVICE_SEEDS = 8

#: set-up samples per run; the measured grids are split over the same
#: number of fresh processes, one after another, so the samples of a
#: run are spread over its whole length
SET_UPS = 3


def grids_per_process(workload: str, seconds: float) -> int:
    """Grids each measured process runs.

    The amount of work is sized from ``seconds`` by the nominal grid
    time, not by the clock: both commits of a comparison then do the
    same work, and the peak RSS, which grows with every grid until the
    cyclic GC runs, does not follow the speed.
    """
    nominal = WORKLOADS[workload]["nominal_grid_s"]
    return max(1, round(seconds / SET_UPS / nominal))


def grid_cells(workload: str) -> int:
    spec = WORKLOADS[workload]
    return spec["cells_per_repeat"] * spec["params"]["repeats"]


#: end-to-end metrics: name -> (unit, better)
END_TO_END = {
    "setup_s": ("s", "lower"),
    "cells_per_s": ("1/s", "higher"),
    "job_s_p50": ("s", "lower"),
    "job_s_p90": ("s", "lower"),
    "peak_rss_mib": ("MiB", "lower"),
}

#: top-level layers of LeNet (13) and AlexNet (16), auto-named ones
#: numbered per model; names both models share are one metric, read
#: on whichever workload runs
MODEL_LAYERS = ("conv0", "maxpool2d_0", "bn0", "conv1", "maxpool2d_1",
                "bn1", "conv2", "bn2", "flatten_0", "dense0", "bn3",
                "dense1", "bn4", "stem", "batchnorm_0", "batchnorm_1",
                "maxpool2d_2", "batchnorm_2", "conv3", "batchnorm_3",
                "batchnorm_4", "batchnorm_5")
LAYER_KINDS = ("conv", "dense", "maxpool", "batchnorm", "other")


def _per_layer() -> dict[str, tuple[str, str]]:
    metrics = {
        "setup.import_s": ("s", "lower"),
        "setup.dataset_s": ("s", "lower"),
        "setup.weights_s": ("s", "lower"),
        "setup.server_ready_s": ("s", "lower"),
        "plan.ms_per_cell": ("ms", "lower"),
        "inject.ms_per_cell": ("ms", "lower"),
        "evaluate.ms_per_cell": ("ms", "lower"),
        "evaluate.baseline_s": ("s", "lower"),
        "evaluate.input_cache_hit_rate": ("frac", "higher"),
        "evaluate.baseline_reuse_frac": ("frac", "higher"),
    }
    for name in MODEL_LAYERS:
        metrics[f"layer.{name}.ms_per_cell"] = ("ms", "lower")
    for kind in LAYER_KINDS:
        metrics[f"kind.{kind}.ms_per_cell"] = ("ms", "lower")
    for phase in ("plan", "dispatch", "evaluate", "reduce", "api"):
        metrics[f"phase.{phase}_s"] = ("s", "lower")
    metrics.update({
        "dispatch.first_cell_s": ("s", "lower"),
        "dispatch.parallel_efficiency": ("frac", "higher"),
        "dispatch.prefix_plane_bytes": ("bytes", "lower"),
    })
    for counter in ("retries", "timeouts", "workers_lost", "quarantined",
                    "degraded"):
        metrics[f"resilience.{counter}"] = ("count", "lower")
    metrics.update({
        "service.submit_ms": ("ms", "lower"),
        "service.queue_wait_ms": ("ms", "lower"),
        "service.stream_ms": ("ms", "lower"),
        "service.result_ms": ("ms", "lower"),
        "service.sse_lag_frames": ("frames", "lower"),
        "service.server_job_ms": ("ms", "lower"),
        "journal.bytes_per_job": ("bytes", "lower"),
        "obs.telemetry_overhead_pct": ("%", "lower"),
        "bench.trace_overhead_pct": ("%", "lower"),
        "bench.layer_coverage_pct": ("%", "higher"),
    })
    return metrics


#: per-layer metrics of the traced run: name -> (unit, better)
PER_LAYER = _per_layer()


def emit(event: str, **payload) -> None:
    """Write one protocol line (a worker's message to the orchestrator)."""
    payload["event"] = event
    sys.stdout.write(PROTOCOL + json.dumps(payload) + "\n")
    sys.stdout.flush()


def grid_digest(series: dict, baseline: float, columns: int) -> str:
    """Digest of a Fig. 4a grid's accuracies, first ``columns`` repeats.

    ``series`` maps each series label to its accuracy rows (one row per
    sweep point, one float per repeat).  Floats enter as ``float.hex``
    so the digest asserts bit-identity, not closeness.
    """
    canonical = {
        "baseline": float(baseline).hex(),
        "series": {label: [[float(value).hex() for value in row[:columns]]
                           for row in rows]
                   for label, rows in sorted(series.items())},
    }
    text = json.dumps(canonical, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def canonical_digest(payload: dict) -> str:
    """Digest of an already canonicalized report payload."""
    text = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def service_seed(seed: int, index: int) -> int:
    """Request seed of the ``index``-th job of the service probe."""
    return 1000 * seed + index % SERVICE_SEEDS
