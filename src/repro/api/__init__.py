"""repro.api — the one typed entry point over the campaign engine.

Every workload in the repository is a named entry in one
:class:`~repro.api.registry.ExperimentRegistry`: the paper's figure and
table drivers, the ad-hoc sweep, and the scenario zoo.  A run is a
:class:`RunRequest` (experiment + validated params + engine options),
executed through a :class:`RunHandle` that streams typed events
(:class:`CellDone`, :class:`CheckpointDone`, :class:`RunWarning`), and
lands as a :class:`RunReport` (normalized series, tables, meta,
artifact paths):

>>> from repro import api
>>> report = api.run("fig4a", params={"rates": [0.0, 0.2],
...                                   "repeats": 2, "images": 60})
>>> report.get_series("combined").mean
[...]

Streaming consumption::

    handle = api.submit(api.RunRequest("end-of-life",
                                       params={"repeats": 2},
                                       executor="shared_memory", n_jobs=4,
                                       journal="eol.jsonl"))
    handle.subscribe(print)          # CellDone / CheckpointDone / ...
    report = handle.run()

New workloads register with the :func:`experiment` decorator instead of
growing a new module-level API — the CLI (``repro run/list/describe``),
benchmarks, and CI smoke coverage pick them up from the metadata alone.
See ``docs/api.md`` for the schema.
"""

from __future__ import annotations

from .errors import ApiError
from .events import (CellDone, CheckpointDone, ExecutorDegraded,
                     JobQuarantined, JobRetried, JobStateChanged, RunEvent,
                     RunFinished, RunStarted, RunWarning, TelemetrySnapshot,
                     WorkerLost)
from .handle import RunContext, RunHandle
from .registry import (REGISTRY, Experiment, ExperimentRegistry, Param,
                       experiment)
from .report import RunReport, SeriesReport
from .request import EXECUTORS, RunRequest

__all__ = [
    "ApiError",
    "RunEvent", "RunStarted", "CellDone", "CheckpointDone", "RunWarning",
    "JobRetried", "JobQuarantined", "WorkerLost", "ExecutorDegraded",
    "JobStateChanged", "TelemetrySnapshot", "RunFinished",
    "Param", "Experiment", "ExperimentRegistry", "REGISTRY", "experiment",
    "RunRequest", "EXECUTORS",
    "RunReport", "SeriesReport",
    "RunContext", "RunHandle",
    "submit", "run", "experiment_names", "describe",
]

_catalog_loaded = False


def _load_catalog() -> None:
    """Populate :data:`REGISTRY` with the built-in entries on first use
    (deferred: importing :mod:`repro.api` stays light; the experiment
    modules pull in models/datasets)."""
    global _catalog_loaded
    if not _catalog_loaded:
        from . import catalog  # noqa: F401  (registers on import)
        _catalog_loaded = True


def submit(request: RunRequest) -> RunHandle:
    """Validate ``request`` against the registry and return its handle.

    Raises :class:`ApiError` for an unknown experiment, unknown or
    uncoercible params, or a journal on an experiment that does not
    support journaling.  Nothing heavy runs until
    :meth:`RunHandle.run` / :meth:`RunHandle.events`.
    """
    _load_catalog()
    entry = REGISTRY.get(request.experiment)
    params = entry.resolve(request.params, quick=request.quick)
    if request.journal is not None and not entry.supports_journal:
        raise ApiError(f"experiment {entry.name!r} does not support "
                       "journaling; drop the journal option")
    return RunHandle(entry, request, params)


def run(experiment: str, params: dict | None = None, *, on_event=None,
        **options) -> RunReport:
    """One-call convenience: build the request, run it, return the report.

    ``options`` are the :class:`RunRequest` engine fields (``executor``,
    ``n_jobs``, ``cache_bytes``, ``journal``, ``resume``, ``quick``);
    ``on_event`` subscribes a callback before running.
    """
    handle = submit(RunRequest(experiment=experiment,
                               params=dict(params or {}), **options))
    if on_event is not None:
        handle.subscribe(on_event)
    return handle.run()


def experiment_names() -> list[str]:
    """Sorted canonical names of every registered experiment."""
    _load_catalog()
    return REGISTRY.names()


def describe(name: str) -> dict:
    """JSON-able metadata of one experiment (params, defaults, quick)."""
    _load_catalog()
    return REGISTRY.describe(name)
