"""Campaign benchmark: cells/s, set-up, job latency and memory of FLIM.

Usage (from the repository root)::

    python3 perfbench/run.py --workload fig4a-serial --seed 1 \\
        --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` makes the
separate traced run that yields the per-layer metrics.  The last line
of stdout is one JSON object (``correct``, ``attempted``, ``failed``,
``metrics``); tables and the host block come before it.  The exit code
is 0 only when every result matched its reference and nothing failed.

This process only supervises: each step runs in its own process group
(see worker.py) under a wall-clock deadline, is killed if it overruns,
and is checked for leftover processes and ``/dev/shm/psm_*`` blocks.
See perfbench/README.md for the metrics and workloads.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import common  # noqa: E402

#: whole-run budget once the weight cache is primed (the contract is
#: 180 s per run)
RUN_BUDGET_S = 170.0
#: the first run in a fresh checkout trains the cached weights
PRIME_BUDGET_S = 700.0
SHM = Path("/dev/shm")


# -- child processes ----------------------------------------------------------

def _group_members(pgid: int) -> list[int]:
    """Live pids whose process group is ``pgid``."""
    members = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            stat = Path(f"/proc/{entry}/stat").read_text()
        except OSError:
            continue
        fields = stat.rsplit(")", 1)[1].split()
        if fields[0] != "Z" and int(fields[2]) == pgid:
            members.append(int(entry))
    return members


class Child:
    """One worker role run to completion in its own process group.

    The constructor returns once the process has exited or was killed at
    ``deadline``; any group member still alive after that is killed and
    counted in :attr:`leaked`.
    """

    def __init__(self, role: str, args: list[str], deadline: float):
        self.role = role
        self.messages: list[tuple[float, dict]] = []
        self.timed_out = False
        self.leaked = 0
        #: peak resident set of the process itself (wait4), KiB
        self.maxrss_kib = 0
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src")] + ([env["PYTHONPATH"]]
                                   if env.get("PYTHONPATH") else []))
        # the default location, made explicit so the run stays inside
        # its checkout whatever the caller's environment says
        env["REPRO_CACHE_DIR"] = str(ROOT / "artifacts" / "cache")
        self.spawned = time.perf_counter()
        self.process = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py"), role, *args],
            cwd=ROOT, env=env, stdout=subprocess.PIPE,
            start_new_session=True)
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()
        self._finish(deadline)

    def _read(self) -> None:
        for raw in self.process.stdout:
            arrived = time.perf_counter()
            line = raw.decode("utf-8", "replace").rstrip("\n")
            if line.startswith(common.PROTOCOL):
                self.messages.append(
                    (arrived, json.loads(line[len(common.PROTOCOL):])))
            else:
                print(line, file=sys.stderr)

    def _finish(self, deadline: float) -> None:
        # reaped with wait4, which also reports the peak RSS
        while True:
            pid, status, usage = os.wait4(self.process.pid, os.WNOHANG)
            if pid:
                break
            if time.perf_counter() >= deadline and not self.timed_out:
                self.timed_out = True
                self._kill_group()
            time.sleep(0.02)
        self.process.returncode = os.waitstatus_to_exitcode(status)
        self.maxrss_kib = usage.ru_maxrss
        # pool workers, servers or trackers outliving their parent
        settle = time.perf_counter() + 3.0
        while _group_members(self.process.pid) \
                and time.perf_counter() < settle:
            time.sleep(0.05)
        self.leaked = len(_group_members(self.process.pid))
        if self.leaked:
            self._kill_group()
        self._reader.join(timeout=10)

    def _kill_group(self) -> None:
        try:
            os.killpg(self.process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    def first(self, event: str) -> tuple[float, dict] | None:
        for arrived, message in self.messages:
            if message["event"] == event:
                return arrived, message
        return None

    def payload(self, event: str) -> dict | None:
        found = self.first(event)
        return found[1] if found else None

    def ready_after(self) -> float | None:
        """Seconds from spawn to the worker's set-up ``ready`` line."""
        found = self.first("ready")
        return found[0] - self.spawned if found else None


# -- results ------------------------------------------------------------------

def _quantile(values: list[float], q: float) -> float:
    """Linear-interpolated quantile (``q`` in [0, 1]) of ``values``."""
    ordered = sorted(values)
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


class Result:
    """Metrics, failure counts and notes of one workload run."""

    def __init__(self, workload: str):
        self.workload = workload
        self.metrics: dict[str, float] = {}
        self.samples: dict[str, str] = {}
        self.attempted = 0
        self.failed = 0
        self.checked = 0
        self.mismatches = 0
        self.notes: list[str] = []
        self.host: dict = {}
        self.profile: list[str] = []

    def put(self, name: str, value, samples: str = "") -> None:
        if value is None:
            return
        self.metrics[name] = float(value)
        if samples:
            self.samples[name] = samples

    def fail(self, count: int, why: str) -> None:
        if count:
            self.failed += count
            self.notes.append(why)

    def step_failed(self, why: str) -> None:
        """A step that overran, crashed or left something behind counts
        as one failed operation of its own."""
        self.attempted += 1
        self.fail(1, why)

    def check_child(self, child: Child) -> None:
        if child.timed_out:
            self.step_failed(f"{child.role}: hit its deadline and was "
                             "killed")
        elif child.process.returncode != 0:
            self.step_failed(f"{child.role}: exited with "
                             f"{child.process.returncode}")
        if child.leaked:
            self.step_failed(f"{child.role}: left {child.leaked} "
                             "process(es) behind")

    def missing(self, planned: int, completed: int, what: str) -> None:
        """Planned operations that never completed count as failed."""
        self.attempted += planned
        self.fail(planned - completed, f"{planned - completed} of "
                                       f"{planned} {what} never completed")

    @property
    def correct(self) -> bool:
        return self.checked > 0 and self.mismatches == 0


def _prime(result: Result) -> float:
    """Fill the weight cache, untimed; returns the deadline of the rest."""
    child = Child("prime", [], time.perf_counter() + PRIME_BUDGET_S)
    primed = child.payload("primed")
    result.check_child(child)
    if primed is None:
        return time.perf_counter()
    result.host = dict(primed["host"], primed_by_training=primed["trained"],
                       prime_s=primed["prime_s"])
    return time.perf_counter() + RUN_BUDGET_S


def _check_grid(result: Result, grid: dict, reference: dict) -> None:
    """Compare ``grid`` with the reference's matching columns."""
    result.checked += 1
    columns = grid["repeats"]
    expected = common.grid_digest(reference["series"],
                                  reference["baseline"], columns)
    got = common.grid_digest(grid["series"], grid["baseline"], columns)
    if got != expected:
        result.mismatches += 1
        result.fail(grid["cells"], "grid accuracies differ from the "
                                   "serial/float reference")
    result.fail(grid["nan_cells"], "cells quarantined as NaN")


def _campaign(result: Result, workload: str, seed: int, deadline: float,
              grids: int = 1, trace: bool = False) -> Child | None:
    """One campaign process, or None once the deadline has passed."""
    if time.perf_counter() >= deadline:
        return None
    child = Child("campaign", ["--workload", workload, "--seed", str(seed),
                               "--grids", str(grids), "--trace",
                               str(int(trace))], deadline)
    result.check_child(child)
    return child


def run_workload(workload: str, seed: int, seconds: float,
                 trace: bool) -> Result:
    """Three fresh processes, one after another, each setting up and
    running its share of the grids.  The first grid of the first process
    is the serial/float reference every other grid is compared with.
    The traced run follows one untraced (reference) process."""
    result = Result(workload)
    deadline = _prime(result)
    cells = common.grid_cells(workload)
    if trace:
        planned = 5 * cells  # the reference grid, then U T U T
        if workload == "fig4a-serial":
            planned += 2 * cells * common.POOL["repeats"] \
                // common.WORKLOADS[workload]["params"]["repeats"]
        children = [_campaign(result, workload, seed, deadline)]
        children.append(_campaign(result, workload, seed, deadline,
                                  trace=True))
    else:
        per_process = common.grids_per_process(workload, seconds)
        planned = common.SET_UPS * per_process * cells
        children = [_campaign(result, workload, seed, deadline, per_process)
                    for _ in range(common.SET_UPS)]
    children = [child for child in children if child is not None]
    grids = [grid for child in children
             for grid in (child.payload("window") or {}).get("grids", [])]
    payload = children[-1].payload("traced") if trace and children else None
    if payload is not None:
        checked = [*payload["untraced"], *payload["traced"]]
        checked += [payload[key] for key in ("pool", "pool_serial")
                    if key in payload]
        grids += checked
    else:
        checked = grids[1:]
    result.missing(planned, sum(grid["cells"] for grid in grids), "cells")
    if not grids or (trace and payload is None):
        return result
    for grid in checked:
        _check_grid(result, grid, grids[0])
    result.fail(grids[0]["nan_cells"], "cells quarantined as NaN")
    if trace:
        _traced_layers(result, payload,
                       children[-1].payload("ready")["phases"])
        return result
    setups = [child.ready_after() for child in children
              if child.ready_after() is not None]
    elapsed = [grid["elapsed_s"] for grid in grids]
    total = sum(grid["cells"] for grid in grids)
    result.put("setup_s", statistics.median(setups),
               f"median of {len(setups)} set-ups")
    result.put("cells_per_s", total / sum(elapsed),
               f"{total} cells in {len(grids)} grid(s)")
    result.put("job_s_p50", _quantile(elapsed, 0.5),
               f"{len(elapsed)} job(s)")
    result.put("job_s_p90", _quantile(elapsed, 0.9),
               f"{len(elapsed)} job(s)")
    result.put("peak_rss_mib", statistics.median(
        child.maxrss_kib for child in children) / 1024.0,
        f"median of {len(children)} processes")
    return result


def _median_phase(grids: list[dict], phase: str) -> float:
    return statistics.median(grid["phases"].get(phase, 0.0)
                             for grid in grids)


def _put_phases(result: Result, grids: list[dict]) -> None:
    for phase in ("plan", "dispatch", "evaluate", "reduce"):
        result.put(f"phase.{phase}_s", _median_phase(grids, phase),
                   f"median of {len(grids)} job(s)")
    result.put("phase.api_s", statistics.median(
        grid["phases"].get("run", 0.0) - grid["phases"].get("campaign", 0.0)
        for grid in grids), f"median of {len(grids)} job(s)")


def _put_resilience(result: Result, grids: list[dict]) -> None:
    for key in ("retries", "timeouts", "workers_lost", "quarantined",
                "degraded"):
        result.put(f"resilience.{key}", sum(
            grid["resilience"].get(key, 0) for grid in grids),
            f"sum over {len(grids)} job(s)")


def _traced_layers(result: Result, payload: dict,
                   setup_phases: dict) -> None:
    for phase in ("import_s", "dataset_s", "weights_s"):
        result.put(f"setup.{phase}", setup_phases[phase])
    untraced, traced = payload["untraced"], payload["traced"]
    _put_phases(result, untraced)
    _put_resilience(result, [*untraced, *traced,
                             *(payload[key] for key in ("pool", "pool_serial")
                               if key in payload)])
    hits = sum(grid["meta"]["cache_hits"] for grid in untraced)
    lookups = hits + sum(grid["meta"]["cache_misses"] for grid in untraced)
    result.put("evaluate.input_cache_hit_rate", hits / lookups)
    spans = payload["spans"]
    totals = spans["totals"]
    cells = spans["cells_traced"]
    per_cell = 1000.0 / cells
    layer_total = 0.0
    kinds = {kind: 0.0 for kind in common.LAYER_KINDS}
    for name, kind in payload["layer_kinds"].items():
        seconds = totals.get(f"layer.{name}", 0.0)
        layer_total += seconds
        kinds[kind] += seconds
        result.put(f"layer.{name}.ms_per_cell", seconds * per_cell)
    for kind, seconds in kinds.items():
        result.put(f"kind.{kind}.ms_per_cell", seconds * per_cell)
    evaluate_s = sum(grid["phases"].get("evaluate", 0.0) for grid in traced)
    evaluate_ms = totals.get("evaluate.cell", 0.0) * per_cell
    result.put("evaluate.ms_per_cell", evaluate_ms)
    result.put("evaluate.baseline_s",
               totals.get("evaluate.baseline", 0.0) / len(traced),
               "seconds per job")
    result.put("evaluate.baseline_reuse_frac",
               spans["fault_free_cells"] / cells)
    result.put("inject.ms_per_cell", (totals.get("inject.attach", 0.0)
                                      + totals.get("inject.detach", 0.0))
               * per_cell)
    result.put("plan.ms_per_cell",
               totals.get("plan.build_jobs", 0.0) * per_cell)
    coverage = 100.0 * layer_total / evaluate_s
    result.put("bench.layer_coverage_pct", coverage,
               "layer spans / evaluate phase")
    result.put("bench.trace_overhead_pct", 100.0 * (
        statistics.median(grid["elapsed_s"] for grid in traced)
        / statistics.median(grid["elapsed_s"] for grid in untraced) - 1.0),
        "median of 2 vs 2 grids")
    result.profile = [
        f"evaluate {evaluate_ms:.2f} ms/cell over {cells} traced cells; "
        f"layer spans cover {coverage:.1f}% of the evaluate phase"]
    for ms, name in sorted(((totals.get(f"layer.{name}", 0.0) * per_cell,
                             name) for name in payload["layer_kinds"]),
                           reverse=True):
        result.profile.append(f"  {name:<14}{ms:8.3f} ms  "
                              f"({100.0 * ms / evaluate_ms:5.1f}%)")
    result.profile.append("  kinds: " + ", ".join(
        f"{kind} {seconds * per_cell:.2f} ms "
        f"({100.0 * seconds * per_cell / evaluate_ms:.0f}%)"
        for kind, seconds in kinds.items()))
    result.profile.append("  phases per job (untraced): " + ", ".join(
        f"{phase} {_median_phase(untraced, phase):.3f} s"
        for phase in ("plan", "dispatch", "evaluate", "reduce")))
    if "obs_overhead_pct" in payload:
        result.put("obs.telemetry_overhead_pct", payload["obs_overhead_pct"],
                   "median of 2 vs 2 grids")
    if "pool" in payload:
        _dispatch_probe(result, payload["pool"], payload["pool_serial"])
    if "service" in payload:
        _service_probe(result, payload["service"])


def _dispatch_probe(result: Result, pool: dict, serial: dict) -> None:
    n_jobs = common.POOL["n_jobs"]
    note = f"shared_memory pool, {n_jobs} workers, {pool['cells']} cells"
    result.put("dispatch.first_cell_s", pool["first_cell_s"], note)
    result.put("dispatch.prefix_plane_bytes",
               pool["meta"]["prefix_plane_bytes"], note)
    result.put("dispatch.parallel_efficiency",
               serial["phases"].get("evaluate", 0.0)
               / (n_jobs * pool["phases"].get("dispatch", 0.0)),
               f"serial evaluate / ({n_jobs} x pool dispatch)")


def _service_probe(result: Result, probe: dict) -> None:
    """The service and journal layers, from the probe's closed loop."""
    jobs = probe["jobs"]
    n = len(jobs)
    for job in [probe["warmup"], *jobs]:
        result.attempted += 1
        if job.get("state") != "done":
            result.fail(1, f"service job ended {job.get('state')}")
            continue
        result.checked += 1
        if not job["matches"]:
            result.mismatches += 1
            result.fail(1, "service report differs from the in-process "
                           "api.run reference")
    if probe["exit"] not in (0, -signal.SIGINT):
        result.step_failed(f"server exited {probe['exit']}")

    def median_ms(key: str) -> float:
        return 1000.0 * statistics.median(
            job[key] for job in jobs if job.get(key) is not None)

    def delta(name: str) -> float:
        return probe["after"].get(name, 0.0) - probe["before"].get(name, 0.0)

    note = f"median of {n} jobs"
    result.put("setup.server_ready_s", probe["server_ready_s"],
               "spawn to listening")
    for key in ("submit", "queue_wait", "stream", "result"):
        result.put(f"service.{key}_ms", median_ms(f"{key}_s"), note)
    count = delta("repro_job_latency_seconds_count")
    if count:
        result.put("service.server_job_ms",
                   1000.0 * delta("repro_job_latency_seconds_sum") / count,
                   "/v1/metrics job latency")
    batches = delta("repro_sse_lag_frames_count")
    if batches:
        result.put("service.sse_lag_frames",
                   delta("repro_sse_lag_frames_sum") / batches,
                   "/v1/metrics frames per SSE batch")
    result.put("journal.bytes_per_job", probe["journal_bytes"] / n)
    result.profile.append(
        f"  service probe: job {median_ms('job_s'):.1f} ms (median of {n}, "
        f"p90 {1000.0 * _quantile([job['job_s'] for job in jobs], 0.9):.1f}) "
        f"= submit {median_ms('submit_s'):.1f} + stream "
        f"{median_ms('stream_s'):.1f} + result {median_ms('result_s'):.1f} "
        f"ms; server-side run {1000.0 * _median_phase(jobs, 'run'):.1f} ms; "
        f"set-up {probe['setup_s']:.2f} s; server peak RSS "
        f"{probe['rss_kib'] / 1024.0:.0f} MiB")


# -- output -------------------------------------------------------------------

def _fmt(value: float) -> str:
    return f"{value:.6g}"


def print_host(host: dict) -> None:
    print("host: " + ", ".join(f"{key}={value}"
                               for key, value in sorted(host.items())))


def _row(result: Result, name: str, unit: str, width: int) -> str:
    value = result.metrics.get(name)
    shown = _fmt(value) if value is not None else "n/a"
    return (f"{name:<{width}}{shown:>12} {unit:<6} "
            f"{result.samples.get(name, '')}")


def _failed_row(result: Result, width: int) -> str:
    frac = result.failed / max(result.attempted, 1)
    return (f"{'failed_frac':<{width}}{_fmt(frac):>12} {'frac':<6} "
            f"{result.failed}/{result.attempted} operations")


def print_end_to_end(results: list[Result]) -> None:
    print(f"{'workload':<15}{'metric':<14}{'value':>12} {'unit':<6} "
          "samples")
    for result in results:
        for name, (unit, _) in common.END_TO_END.items():
            print(f"{result.workload:<15}{_row(result, name, unit, 14)}")
        print(f"{result.workload:<15}{_failed_row(result, 14)}")


def print_per_layer(result: Result) -> None:
    print(f"per-layer ({result.workload}, traced run):")
    for line in result.profile:
        print(line)
    for name, (unit, _) in common.PER_LAYER.items():
        print("  " + _row(result, name, unit, 34))
    print("  " + _failed_row(result, 34))


def json_metrics(results: list[Result], trace: bool) -> dict:
    catalog = common.PER_LAYER if trace else common.END_TO_END
    metrics = {}
    for result in results:
        prefix = f"{result.workload}." if len(results) > 1 else ""
        for name, (unit, _) in catalog.items():
            # a per-layer metric the workload's traced run does not
            # measure (the probes run on fig4a-serial only, and each
            # model has its own layers) reads 0; the table prints n/a
            metrics[prefix + name] = {
                "value": result.metrics.get(name, 0.0), "unit": unit}
    return metrics


def _check_catalog() -> str | None:
    """Mismatch between BENCHMARK.json and this file's metric catalog."""
    path = ROOT / "BENCHMARK.json"
    if not path.exists():
        return None
    config = json.loads(path.read_text())
    declared = {
        "workloads": [entry["name"] for entry in config["workloads"]],
        "end_to_end": {entry["name"]: (entry["unit"], entry["better"])
                       for entry in config["end_to_end"]},
        "per_layer": {entry["name"]: (entry["unit"], entry["better"])
                      for entry in config["per_layer"]},
    }
    expected = {"workloads": list(common.WORKLOADS),
                "end_to_end": common.END_TO_END,
                "per_layer": common.PER_LAYER}
    for key, value in expected.items():
        if declared[key] != value:
            return f"BENCHMARK.json {key} differ from perfbench/common.py"
    return None


def _shm_blocks() -> set[str]:
    try:
        return {name for name in os.listdir(SHM) if name.startswith("psm_")}
    except OSError:
        return set()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[*common.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "repro" / "__init__.py").exists():
        print(f"perfbench: no program source under {ROOT / 'src'}; run "
              "from a full checkout", file=sys.stderr)
        return 2
    problem = _check_catalog()
    if problem:
        print(f"perfbench: {problem}", file=sys.stderr)
        return 2
    names = (list(common.WORKLOADS) if args.workload == "all"
             else [args.workload])
    trace = bool(args.trace)
    shm_before = _shm_blocks()
    results = []
    for name in names:
        results.append(run_workload(name, args.seed, args.seconds, trace))
    leaked = sorted(_shm_blocks() - shm_before)
    for block in leaked:
        (SHM / block).unlink(missing_ok=True)
    if leaked:
        results[-1].step_failed(f"{len(leaked)} /dev/shm/psm_* block(s) "
                                "left behind (removed)")
    if results[0].host:
        print_host(results[0].host)
    for result in results:
        for note in dict.fromkeys(result.notes):
            print(f"{result.workload}: FAILED: {note}")
        if trace:
            print_per_layer(result)
    if not trace:
        print_end_to_end(results)
    correct = all(result.correct for result in results)
    failed = sum(result.failed for result in results)
    print(json.dumps({
        "correct": correct,
        "attempted": max(sum(result.attempted for result in results), 1),
        "failed": failed,
        "metrics": json_metrics(results, trace)}))
    return 0 if correct and failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
