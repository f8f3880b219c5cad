"""Benchmark worker processes, one role per invocation.

The orchestrator (run.py) starts each role as its own process and reads
``PERFBENCH {json}`` lines from its stdout:

``prime``
    Fill the weight cache (untimed) and describe the host.
``campaign``
    Set up as a fresh user process would (import + catalog, dataset,
    cached weights), report ``ready``, then run ``--grids`` grids of the
    workload through ``repro.api`` (or the traced run with
    ``--trace 1``).

Everything here goes through public entry points: ``repro.api``,
``layer_sweeps``, ``repro serve`` and ``ServiceClient``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
import urllib.request
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import common  # noqa: E402
from common import emit  # noqa: E402


# -- set-up ------------------------------------------------------------------

def set_up(spec: dict) -> dict:
    """What a user process pays before its first cell: import + catalog,
    dataset synthesis, cached weights.  Returns seconds per phase."""
    phases = {}
    start = time.perf_counter()
    from repro import api
    api.experiment_names()  # loads the catalog
    phases["import_s"] = time.perf_counter() - start
    from repro.experiments import common as experiments
    lenet = spec["model"] == "lenet"
    start = time.perf_counter()
    (experiments.get_mnist if lenet else experiments.get_imagenet)()
    phases["dataset_s"] = time.perf_counter() - start
    start = time.perf_counter()
    if lenet:
        experiments.trained_lenet()
    else:
        experiments.trained_zoo_model(spec["model"])
    phases["weights_s"] = time.perf_counter() - start
    return phases


def grid_of(report) -> tuple[dict, float, int]:
    """(series accuracies, baseline, NaN cells) of an in-process report."""
    series = {label: result.accuracies.tolist()
              for label, result in report.raw.items()}
    nan_cells = sum(value != value for rows in series.values()
                    for row in rows for value in row)
    return series, float(report.baseline), nan_cells


def resilience_of(report) -> dict:
    totals: dict[str, int] = {}
    for result in report.raw.values():
        for key, value in result.meta.get("resilience", {}).items():
            if isinstance(value, (int, float)):
                totals[key] = totals.get(key, 0) + int(value)
    return totals


# -- prime -------------------------------------------------------------------

def _blas_threads() -> int | None:
    """Thread count of the loaded OpenBLAS (read, never set)."""
    import ctypes
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    paths = sorted({line.split()[-1] for line in maps.splitlines()
                    if "openblas" in line.lower() and "/" in line})
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            func = getattr(lib, symbol, None)
            if func is not None:
                return int(func())
    return None


def role_prime(args) -> None:
    import platform

    import numpy as np
    from repro.experiments import common as experiments
    np.dot(np.ones((64, 64)), np.ones((64, 64)))  # loads BLAS
    cached = sorted(path.name for path in experiments.cache_dir().iterdir())
    start = time.perf_counter()
    experiments.trained_lenet()
    experiments.trained_zoo_model("binary_alexnet")
    prime_s = time.perf_counter() - start
    trained = sorted(set(path.name for path in
                         experiments.cache_dir().iterdir()) - set(cached))
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        vendor = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        vendor = "unknown"
    env = {key: os.environ[key] for key in sorted(os.environ)
           if key.endswith("_NUM_THREADS")}
    emit("primed", trained=trained, prime_s=prime_s, host={
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": np.__version__, "blas": vendor,
        "blas_threads": _blas_threads(), "thread_env": env,
        "machine": platform.machine()})


# -- campaign ----------------------------------------------------------------

def _run_grid(spec: dict, seed: int, on_event=None, **engine):
    from repro import api
    return api.run(spec["experiment"], dict(spec["params"], seed=seed),
                   on_event=on_event, **engine)


def _grid_record(report, elapsed: float) -> dict:
    series, baseline, nan_cells = grid_of(report)
    telemetry = report.meta.get("telemetry", {})
    repeats = len(next(iter(series.values()))[0])
    return {"elapsed_s": elapsed, "series": series, "baseline": baseline,
            "nan_cells": nan_cells, "repeats": repeats,
            "cells": sum(len(rows) * repeats for rows in series.values()),
            "phases": telemetry.get("phases", {}),
            "resilience": resilience_of(report),
            "meta": _series_meta(report)}


def _series_meta(report) -> dict:
    """Input-cache and prefix-plane bookkeeping summed over series."""
    hits = misses = plane_bytes = 0
    for result in report.raw.values():
        cache = result.meta.get("input_cache", {})
        hits += int(cache.get("hits", 0))
        misses += int(cache.get("misses", 0))
        plane = result.meta.get("prefix_plane") or {}
        plane_bytes = max(plane_bytes, int(plane.get("bytes", 0)))
    return {"cache_hits": hits, "cache_misses": misses,
            "prefix_plane_bytes": plane_bytes}


def _timed_grid(spec: dict, seed: int, scope=None, **engine) -> dict:
    """Run one grid; its record carries the wall time and the arrival of
    the first ``CellDone`` (both from the ``api.run`` call)."""
    first = []
    began = time.perf_counter()

    def on_event(event):
        if not first and type(event).__name__ == "CellDone":
            first.append(time.perf_counter() - began)

    with scope or nullcontext():
        report = _run_grid(spec, seed, on_event, **engine)
    record = _grid_record(report, time.perf_counter() - began)
    record["first_cell_s"] = first[0] if first else None
    return record


def role_campaign(args) -> None:
    spec = common.WORKLOADS[args.workload]
    emit("ready", phases=set_up(spec))
    if args.trace:
        traced_campaign(args, spec)
        return
    emit("window", grids=[_timed_grid(spec, args.seed)
                          for _ in range(args.grids)])


def traced_campaign(args, spec: dict) -> None:
    """Per-layer numbers of one workload's grid.

    Untraced and traced grids alternate (U T U T): the traced ones give
    the layer/inject/plan/evaluate spans, the medians of each arm the
    tracing overhead.  On fig4a-serial three probes follow, each for a
    layer its grid does not exercise:

    * the telemetry overhead of ``repro.obs``: the grid through
      ``layer_sweeps`` with an ``Observability`` active vs under
      ``activated(None)``;
    * dispatch: the same axis on the shared-memory pool
      (``common.POOL``) with nothing wrapped (a wrapped ``forward`` is
      a closure on the model, and the executor pickles the model for
      its workers), plus an untraced serial grid of the same cells for
      the parallel efficiency;
    * service: ``repro serve`` with one closed-loop client.
    """
    from tracing import SpanRecorder, traced_program
    recorder = SpanRecorder()
    kinds: dict[str, str] = {}
    arms = {"untraced": [], "traced": []}
    for arm in ("untraced", "traced", "untraced", "traced"):
        scope = traced_program(recorder, kinds) if arm == "traced" else None
        arms[arm].append(_timed_grid(spec, args.seed, scope))
    probes = {}
    if args.workload == "fig4a-serial":
        probes["obs_overhead_pct"] = _obs_overhead(spec, args.seed)
        pool = dict(spec, params=dict(spec["params"],
                                      repeats=common.POOL["repeats"]))
        probes["pool"] = _timed_grid(pool, args.seed,
                                     executor=common.POOL["executor"],
                                     n_jobs=common.POOL["n_jobs"])
        probes["pool_serial"] = _timed_grid(pool, args.seed)
        probes["service"] = _service_probe(args.seed)
    trace_path = (ROOT / ".perfbench" / "traces"
                  / f"{args.workload}-seed{args.seed}.jsonl")
    recorder.dump(trace_path)
    if "service" in probes:
        # the service probe's per-job client timings and frame arrivals
        with trace_path.open("a", encoding="utf-8") as handle:
            for job in probes["service"]["jobs"]:
                handle.write(json.dumps(dict(job, name="service.job"))
                             + "\n")
    emit("traced", untraced=arms["untraced"], traced=arms["traced"],
         layer_kinds=kinds, trace_file=str(trace_path.relative_to(ROOT)),
         spans={
             "totals": recorder.totals(),
             "cells_traced": recorder.count("evaluate.cell"),
             "fault_free_cells": sum(
                 1 for span in recorder.spans
                 if span["name"] == "evaluate.cell"
                 and span.get("attrs", {}).get("fault_free")),
         }, **probes)


def _obs_overhead(spec: dict, seed: int) -> float:
    """Telemetry overhead (%) of ``repro.obs`` on the fig4a grid:
    instrumented (``Observability`` active) vs ``activated(None)``,
    alternated."""
    from repro import obs
    from repro.core import FaultSpec
    from repro.experiments.common import get_mnist, trained_lenet
    from repro.experiments.fig4 import DEFAULT_RATES, layer_sweeps
    _, test = get_mnist()
    test = test.subset(spec["params"]["images"])
    times = {True: [], False: []}
    for instrumented in (False, True, False, True):
        model = trained_lenet()
        began = time.perf_counter()
        with obs.activated(obs.Observability() if instrumented else None):
            layer_sweeps(model, test, FaultSpec.bitflip, DEFAULT_RATES,
                         spec["params"]["repeats"], seed=seed)
        times[instrumented].append(time.perf_counter() - began)
    return 100.0 * (statistics.median(times[True])
                    / statistics.median(times[False]) - 1.0)


# -- service probe -----------------------------------------------------------

class Server:
    """One ``repro serve --workers 1`` subprocess on an ephemeral port."""

    def __init__(self, directory: Path):
        directory.mkdir(parents=True, exist_ok=True)
        self.directory = directory
        self.port_file = directory / "port"
        self.store = directory / "store"
        self.spawned = time.perf_counter()
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--port-file", str(self.port_file), "--store",
             str(self.store), "--workers", "1"],
            cwd=ROOT, stdout=subprocess.DEVNULL)
        self.ready_s = self._wait_port(timeout=60.0)

    def _wait_port(self, timeout: float) -> float:
        deadline = self.spawned + timeout
        while time.perf_counter() < deadline:
            if self.process.poll() is not None:
                raise RuntimeError("repro serve exited during start-up")
            try:
                text = self.port_file.read_text().strip()
            except OSError:
                text = ""
            if text:
                self.port = int(text)
                return time.perf_counter() - self.spawned
            time.sleep(0.005)
        raise RuntimeError("repro serve did not publish its port")

    def scrape(self) -> dict[str, float]:
        """Unlabelled samples of the Prometheus scrape."""
        url = f"http://127.0.0.1:{self.port}/v1/metrics"
        with urllib.request.urlopen(url, timeout=30) as response:
            text = response.read().decode()
        samples = {}
        for line in text.splitlines():
            if line and not line.startswith("#"):
                name, _, value = line.rpartition(" ")
                try:
                    samples[name] = float(value)
                except ValueError:
                    continue
        return samples

    def journal_bytes(self) -> int:
        journals = self.store / "journals"
        return sum(path.stat().st_size for path in journals.iterdir()
                   ) if journals.is_dir() else 0

    def stop(self) -> int:
        """SIGINT (the server's clean shutdown), then SIGKILL."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        return self.process.returncode


def _service_job(client, seed: int) -> dict:
    """Submit one durable quick fig4a job, follow it over SSE to its
    end frame, fetch the result."""
    from repro.api import RunRequest
    from repro.service import wire
    record = {"seed": seed, "cells": 0}
    began = time.perf_counter()
    job = client.submit(RunRequest("fig4a", params={"seed": seed},
                                   quick=True), durable=True)
    submitted = time.perf_counter()
    running = first_cell = None
    for kind, item in client.stream(job.job_id, timeout=60):
        now = time.perf_counter()
        if kind == "end":
            record["state"] = item.state.value
            break
        name = type(item).__name__
        if name == "JobStateChanged" and item.state == "running":
            running = now
        elif name == "CellDone":
            record["cells"] += 1
            if first_cell is None:
                first_cell = now
    ended = time.perf_counter()
    payload = client.result(job.job_id) if record.get("state") == "done" \
        else None
    fetched = time.perf_counter()
    record.update(job_s=fetched - began, submit_s=submitted - began,
                  stream_s=ended - submitted, result_s=fetched - ended,
                  queue_wait_s=(running - submitted) if running else None,
                  first_cell_s=(first_cell - began) if first_cell else None)
    if payload is not None:
        record["digest"] = common.canonical_digest(
            wire.canonical_result(payload))
        meta = payload.get("meta", {})
        record["phases"] = meta.get("telemetry", {}).get("phases", {})
        record["resilience"] = {
            key: value for key, value in meta.get("resilience", {}).items()
            if isinstance(value, (int, float))}
    return record


def _hwm_kib(pid: int | str) -> int:
    """Peak resident set (VmHWM) of a live process, KiB."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1])
    return 0


def _service_probe(seed: int) -> dict:
    """One ``repro serve`` life: a warm-up job, then
    ``common.SERVICE_JOBS`` back-to-back jobs of one closed-loop client,
    each compared with an in-process ``api.run`` of the same request."""
    from repro import api
    from repro.service import ServiceClient, wire
    digests = {}
    for index in range(common.SERVICE_SEEDS):
        job_seed = common.service_seed(seed, index)
        report = api.run("fig4a", {"seed": job_seed}, quick=True)
        digests[job_seed] = common.canonical_digest(
            wire.canonical_result(wire.encode_report(report)))
    server = Server(ROOT / ".perfbench" / f"store-{os.getpid()}")
    probe = {}
    try:
        client = ServiceClient(port=server.port, client="perfbench",
                               timeout=60)
        probe["warmup"] = _service_job(client, common.service_seed(seed, 0))
        probe.update(setup_s=time.perf_counter() - server.spawned,
                     server_ready_s=server.ready_s, before=server.scrape(),
                     journal_before=server.journal_bytes())
        jobs = [_service_job(client, common.service_seed(seed, index))
                for index in range(common.SERVICE_JOBS)]
        probe.update(jobs=jobs, after=server.scrape(),
                     journal_bytes=server.journal_bytes()
                     - probe["journal_before"],
                     rss_kib=_hwm_kib(server.process.pid))
    finally:
        probe["exit"] = server.stop()
        shutil.rmtree(server.directory, ignore_errors=True)
    for job in [probe["warmup"], *probe["jobs"]]:
        job["matches"] = job.get("digest") == digests[job["seed"]]
    return probe


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("role", choices=("prime", "campaign"))
    parser.add_argument("--workload", default="fig4a-serial",
                        choices=sorted(common.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--grids", type=int, default=1)
    parser.add_argument("--trace", type=int, default=0)
    args = parser.parse_args()
    {"prime": role_prime, "campaign": role_campaign}[args.role](args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
