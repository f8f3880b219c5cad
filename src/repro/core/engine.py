"""Campaign execution engine: the repeat×sweep grid as independent jobs.

The paper's methodology is brute-force statistical — every accuracy curve
is a sweep of fault rates, each point repeated with fresh seeds, each
repetition a full test-set inference (§IV).  This module turns that grid
into a fast, embarrassingly parallel workload.

Job model
---------
A sweep of ``len(xs)`` points × ``repeats`` repetitions flattens into
``len(xs) * repeats`` independent :class:`CampaignJob` values.  Each job
carries its grid coordinates and a *pre-generated* fault plan — the
expensive mask distribution/mapping runs once, up front, in the parent
process (:func:`build_jobs`), never inside the evaluation loop.  Executors
only evaluate: attach the plan, run the test set, detach, report accuracy.

Seeding scheme
--------------
Job plans are drawn from :meth:`FaultGenerator.job_seed`
(``base_seed + 7919*repeat + 104729*point``), a pure function of the grid
coordinates.  Because plans are generated before any executor runs, every
executor is *bit-identical*: same seeds → same plans → same accuracies,
regardless of scheduling order.

Redundant-work elimination
--------------------------
:class:`CampaignEvaluator` owns every cache a campaign can legally share:

* the fault-free **baseline** accuracy is computed once per evaluator;
* jobs whose plan contains no faulty cell (e.g. the rate-0 sweep point)
  reuse the baseline outright — attaching an all-clear plan wires no
  hooks, so the evaluation would be the baseline bit-for-bit anyway;
* the **fault-free prefix** of the model (every layer before the first
  layer a plan can touch) is evaluated once and its activations are
  cached, batch by batch, as read-only arrays; each job then only runs
  the suffix.  For LeNet this skips the unmapped CMOS conv0 + pooling
  stack — roughly half the inference — in every repetition;
* the read-only activation batches are *identically the same objects*
  across jobs, which arms the quantized layers' input-representation
  caches (im2col reuse, see :mod:`repro.binary.layers`);
* under output-level faults (bit-flips, output stuck-at, row/column
  faults) the split layer's GEMM does not depend on the plan: the layer
  memoizes its clean GEMM output per batch in the same cache and applies
  each plan's output hook on top, so a campaign runs that GEMM once per
  batch;
* the suffix is compiled once per split (:mod:`repro.binary.tail`): a
  batch-norm between two mapped layers emits ±1 through one
  integer-threshold compare, and the next layer skips re-quantizing.

The evaluator takes a **defensive snapshot** of the test set at
construction: mutating the caller's arrays afterwards can never desync the
cached prefix activations from the data they were computed on.

Executors
---------
``serial``
    In-process loop.  Shares the caller's evaluator and all its caches.
``shared_memory``
    A process pool (default ``n_jobs=os.cpu_count()``, overridable with
    the ``REPRO_N_JOBS`` environment variable) whose workers share the
    parent's memory copy-on-write.  Before the pool forks, the parent
    warms the caller's evaluator — the baseline, the fault-free prefix
    activation batches and the first suffix layer's im2col matrices —
    and every worker inherits that warm evaluator through its
    initializer: nothing is pickled, published or attached, and no
    worker recomputes the prefix.  Each worker pins its BLAS to one
    thread (the parent is left alone), so ``n_jobs`` workers do not
    oversubscribe the cores.

The pool runs on a :class:`~repro.core.workerpool.WorkerPool` (a
``concurrent.futures.ProcessPoolExecutor`` under the ``fork`` start
method) under a :class:`~repro.core.resilience.PoolSupervisor` and
*streams* results back through :meth:`run_iter` as their futures
complete, so callers can journal/report progress as cells finish.  When
a pool keeps failing, the executor degrades to the in-process loop
(``shared_memory`` → ``serial``).

Batch-level parallelism
-----------------------
When the job grid is smaller than the pool (e.g. a single-point sweep on
a many-core machine), the pool executor splits *within* each evaluation:
test batches are sharded across workers and the per-shard
``(correct, total)`` counts reduced in the parent.  Integer count
reduction keeps the accuracy bit-identical to the unsharded division.
"""

from __future__ import annotations

import hashlib
import math
import os
import weakref
from collections.abc import Callable, Iterator, Sequence
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from ..binary.layers import QuantLayer
from ..binary.tail import compile_tail
from ..nn.model import Sequential
from .faults import FaultSpec
from .generator import FaultGenerator, FaultPlan, mapped_layers
from .injector import FaultInjector
from .resilience import (ExecutorDegraded, PoolSupervisor, RetryPolicy,
                         SupervisorGaveUp, new_stats, note_stats,
                         supervised_serial)

__all__ = [
    "CampaignJob",
    "CampaignEvaluator",
    "SerialExecutor",
    "SharedMemoryExecutor",
    "build_jobs",
    "get_executor",
    "plan_has_faults",
]

#: default byte cap for one evaluator's derived-input-representation
#: cache *per quantized layer* (overridable per campaign:
#: ``FaultCampaign(cache_bytes=...)`` or the CLI ``--cache-cap``).  In
#: practice only the prefix-split layer ever sees cacheable (read-only)
#: inputs, so the per-layer cap is the effective campaign footprint.
DEFAULT_INPUT_CACHE_BYTES = 256 << 20

#: job result: (point index, repeat index, accuracy)
JobResult = tuple[int, int, float]


def fingerprint_data_and_weights(x_test: np.ndarray, y_test: np.ndarray,
                                 model: Sequential) -> "hashlib._Hash":
    """SHA-1 digest of a test-set snapshot + model weights.

    The staleness guard of journal resume
    (:meth:`FaultCampaign._fingerprint`).  Returns the open hash object;
    callers may append context-specific fields before ``hexdigest()``.
    """
    digest = hashlib.sha1()
    for array in (x_test, y_test):
        digest.update(str(array.shape).encode())
        digest.update(str(array.dtype).encode())
        digest.update(np.ascontiguousarray(array).tobytes())
    for key, value in sorted(model.state_dict().items()):
        digest.update(key.encode())
        digest.update(np.ascontiguousarray(value).tobytes())
    return digest


@dataclass(frozen=True)
class CampaignJob:
    """One (sweep point, repetition) cell of the campaign grid."""

    point_index: int
    repeat_index: int
    x_value: float
    seed: int
    plan: FaultPlan


def plan_has_faults(plan: FaultPlan) -> bool:
    """Whether any mask in the plan marks at least one faulty cell."""
    return any(masks.has_faults for masks in plan.values())


def build_jobs(model: Sequential,
               spec_factory: Callable[[float], list[FaultSpec] | FaultSpec],
               xs: Sequence[float], repeats: int, seed: int,
               rows: int, cols: int,
               layers: list[str] | None = None,
               skip: set[tuple[int, int]] | None = None) -> list[CampaignJob]:
    """Flatten the sweep grid into jobs with pre-generated fault plans.

    Mask generation happens here — outside the evaluation loop, before any
    executor starts — so scheduling order can never affect the plans.
    ``skip`` omits (point, repeat) cells (e.g. already-journaled ones)
    without disturbing the remaining cells' plans: each job's seed is a
    pure function of its own grid coordinates.
    """
    jobs: list[CampaignJob] = []
    for i, x_value in enumerate(xs):
        if skip is not None and all((i, j) in skip for j in range(repeats)):
            continue
        specs = spec_factory(x_value)
        for j in range(repeats):
            if skip is not None and (i, j) in skip:
                continue
            job_seed = FaultGenerator.job_seed(seed, i, j)
            generator = FaultGenerator(specs, rows=rows, cols=cols,
                                       seed=job_seed)
            jobs.append(CampaignJob(
                point_index=i, repeat_index=j, x_value=x_value,
                seed=job_seed, plan=generator.generate(model, layers=layers)))
    return jobs


class CampaignEvaluator:
    """Evaluates fault plans on a fixed model + test set, with caching.

    The evaluator snapshots ``x_test``/``y_test`` at construction and
    marks the snapshot read-only, so the layer-level input caches may key
    on identity and later caller-side mutations cannot silently serve
    stale prefix activations.

    Cache invalidation keys on ``model.weights_version``, which training
    steps and ``load_state_dict`` bump.  Code that mutates
    ``layer.params[...]`` directly, bypassing those paths, must bump
    ``model.weights_version`` (or call :meth:`clear_caches`) itself —
    the evaluator cannot observe raw in-place array writes.
    """

    def __init__(self, model: Sequential, x_test: np.ndarray,
                 y_test: np.ndarray, batch_size: int = 256,
                 continue_time_across_layers: bool = True,
                 cache_bytes: int | None = None):
        self.model = model
        self.batch_size = batch_size
        #: per-layer byte cap for this evaluator's share of the derived
        #: input-representation caches (see repro.binary.layers)
        self.cache_bytes = (DEFAULT_INPUT_CACHE_BYTES if cache_bytes is None
                            else cache_bytes)
        self.x_test = np.array(x_test)
        self.x_test.flags.writeable = False
        self.y_test = np.array(y_test)
        self.y_test.flags.writeable = False
        self.injector = FaultInjector(continue_time_across_layers)
        #: the layers whose input-cache owner every evaluation scopes,
        #: collected once instead of once per cell
        self._quant_layers = [layer for layer in model.all_layers()
                              if isinstance(layer, QuantLayer)]
        #: input-cache slots per layer: each test batch may hold an input
        #: representation and a clean GEMM output (plus one slot of
        #: headroom), so neither evicts the other within a campaign
        self._cache_slots = max(
            8, 3 * math.ceil(len(self.x_test) / batch_size))
        self._baseline: float | None = None
        #: split -> compiled suffix steps (see repro.binary.tail)
        self._tails: dict[int, list] = {}
        #: (split, shard, n_shards) -> list of (activation batch, label batch)
        self._suffix_batches: dict[tuple[int, int, int],
                                   list[tuple[np.ndarray, np.ndarray]]] = {}
        self._weights_version = getattr(model, "weights_version", None)
        #: budget/statistics token identifying this evaluator in the
        #: layers' input caches without keeping it alive
        self._cache_token = weakref.ref(self)

    def _check_weights_version(self) -> None:
        """Drop caches when the model's parameters changed in place."""
        version = getattr(self.model, "weights_version", None)
        if version != self._weights_version:
            self.clear_caches()
            self._weights_version = version

    def clear_caches(self) -> None:
        """Release every memoized evaluation artifact: the baseline, the
        prefix activation batches, and the layers' input/kernel caches.

        This is the aggressive, whole-model wipe (other evaluators
        sharing the model lose their cache entries too); use
        :meth:`release_owned` to drop only this evaluator's share.
        """
        self._baseline = None
        self._suffix_batches.clear()
        self._tails.clear()
        for layer in self.model.all_layers():
            # a fresh input cache per layer; training caches are dropped
            if hasattr(layer, "_input_cache"):
                layer._input_cache = type(layer._input_cache)()
            if hasattr(layer, "_cache"):
                layer._cache = None

    def release_owned(self) -> None:
        """Drop this evaluator's own memoized state — the baseline, the
        prefix activation batches, and *its* entries/budget in the
        layers' input caches — without touching other evaluators' cached
        representations."""
        self._baseline = None
        self._suffix_batches.clear()
        self._tails.clear()
        for layer in self._quant_layers:
            layer._input_cache.drop_owner(self._cache_token)

    @contextmanager
    def _evaluation_scope(self):
        """Cache-ownership scope for one evaluation.

        The scope registers this evaluator as the budget owner of every
        layer's input cache, sized to the campaign: enough slots for all
        test batches (instead of the ad-hoc 8-slot default) under the
        ``cache_bytes`` cap.  The previous owners are restored afterwards,
        so interleaved campaigns on one model charge their own budgets and
        never evict each other's entries.
        """
        saved = [(layer, layer._cache_owner) for layer in self._quant_layers]
        for layer in self._quant_layers:
            self._configure_cache(layer._input_cache)
            layer._cache_owner = self._cache_token
        try:
            yield
        finally:
            for layer, owner in saved:
                layer._cache_owner = owner

    def _configure_cache(self, cache) -> None:
        """Register this evaluator's budget in one layer's input cache."""
        cache.configure(self._cache_token, slots=self._cache_slots,
                        max_bytes=self.cache_bytes)

    def input_cache_stats(self, tag: str | None = None) -> dict:
        """Aggregate hit/miss statistics of this evaluator's share of the
        layers' input-representation caches.

        Parameters
        ----------
        tag : str, optional
            Count only one cache tag (e.g. ``"cols"`` or the clean-GEMM
            memo's ``"clean"``).  The default aggregate counts one
            lookup per cached forward pass (see
            :class:`~repro.binary.layers.InputRepCache`).

        Returns
        -------
        dict
            ``{"hits", "misses", "entries", "bytes", "hit_rate"}`` summed
            over all layers; ``hit_rate`` is ``hits / (hits + misses)``
            (0.0 before any lookup).  Only lookups charged to this
            evaluator are counted — concurrent campaigns on the same
            model report independent statistics.
        """
        totals = {"hits": 0, "misses": 0, "entries": 0, "bytes": 0}
        for layer in self._quant_layers:
            for key, value in layer._input_cache.stats(self._cache_token,
                                                       tag).items():
                if key in totals:
                    totals[key] += value
        lookups = totals["hits"] + totals["misses"]
        totals["hit_rate"] = totals["hits"] / lookups if lookups else 0.0
        return totals

    # -- prefix/suffix splitting ----------------------------------------
    def _split_for(self, layer_names) -> int:
        """Index of the first top-level layer whose subtree contains any of
        ``layer_names`` — everything before it is fault-free for sure."""
        names = set(layer_names)
        for index, layer in enumerate(self.model.layers):
            if any(nested.name in names for nested in layer.walk()):
                return index
        return len(self.model.layers)

    def _baseline_split(self) -> int:
        """The deepest fault-free prefix any plan could share: everything
        before the first mapped layer."""
        mapped = [layer.name for layer in mapped_layers(self.model)]
        return self._split_for(mapped) if mapped else 0

    def _batches_for(self, split: int, shard: int = 0, n_shards: int = 1
                     ) -> list[tuple[np.ndarray, np.ndarray]]:
        """Per-batch activations after ``layers[:split]``, computed once.

        Batch boundaries match :meth:`Sequential.evaluate` regardless of
        sharding — a shard takes every ``n_shards``-th *global* batch — so
        suffix evaluation is arithmetic-for-arithmetic the full forward
        pass and shard counts sum to the unsharded counts exactly.

        Cached splits are reused hierarchically before anything runs from
        scratch: a shard view slices the full split's batch list, and a
        deeper split continues forward from the deepest cached shallower
        split (e.g. the baseline split a pool worker inherits) — both are
        the same per-batch arithmetic, so results stay bit-identical.
        """
        key = (split, shard, n_shards)
        cached = self._suffix_batches.get(key)
        if cached is not None:
            return cached
        full = self._suffix_batches.get((split, 0, 1))
        if full is not None:
            # a shard is every n_shards-th global batch of the full list
            batches = full[shard::n_shards]
        else:
            batches = self._compute_batches(split, shard, n_shards)
        self._suffix_batches[key] = batches
        return batches

    def _compute_batches(self, split: int, shard: int, n_shards: int
                         ) -> list[tuple[np.ndarray, np.ndarray]]:
        """Evaluate prefix activations, continuing from the deepest cached
        shallower split when one exists (else from ``x_test``)."""
        base_split, base = -1, None
        for (s, sh, n), value in self._suffix_batches.items():
            if sh == 0 and n == 1 and base_split < s < split:
                base_split, base = s, value
        batches: list[tuple[np.ndarray, np.ndarray]] = []
        if base is not None:
            layers = self.model.layers[base_split:split]
            for index, (z, labels) in enumerate(base):
                if index % n_shards != shard:
                    continue
                for layer in layers:
                    z = layer.forward(z, training=False)
                z = np.ascontiguousarray(z)
                z.flags.writeable = False
                batches.append((z, labels))
            return batches
        prefix = self.model.layers[:split]
        n = len(self.x_test)
        for index, start in enumerate(range(0, n, self.batch_size)):
            if index % n_shards != shard:
                continue
            z = self.x_test[start:start + self.batch_size]
            for layer in prefix:
                z = layer.forward(z, training=False)
            z = np.ascontiguousarray(z)
            z.flags.writeable = False
            batches.append((z, self.y_test[start:start + self.batch_size]))
        return batches

    def _tail_for(self, split: int) -> list[tuple]:
        """``model.layers[split:]`` compiled once per split (and again
        only after the weights change): batch-norms between mapped layers
        binarize through integer thresholds (:mod:`repro.binary.tail`)."""
        steps = self._tails.get(split)
        if steps is None:
            steps = self._tails[split] = compile_tail(self.model.layers[split:])
        return steps

    def _suffix_counts(self, split: int, shard: int = 0, n_shards: int = 1
                       ) -> tuple[int, int]:
        steps = self._tail_for(split)
        correct = 0
        total = 0
        for z, labels in self._batches_for(split, shard, n_shards):
            out = z
            for layer, kwargs in steps:
                out = layer.forward(out, training=False, **kwargs)
            correct += int((out.argmax(axis=-1) == labels).sum())
            total += len(labels)
        return correct, total

    def _evaluate_suffix(self, split: int) -> float:
        correct, total = self._suffix_counts(split)
        return correct / total

    # -- public API ------------------------------------------------------
    def baseline(self) -> float:
        """Fault-free accuracy, computed once per evaluator (and again only
        if the model's weights change in place)."""
        self._check_weights_version()
        if self._baseline is None:
            with self._evaluation_scope():
                self._baseline = self._evaluate_suffix(self._baseline_split())
        return self._baseline

    def evaluate_plan(self, plan: FaultPlan) -> float:
        """Accuracy under ``plan`` — bit-identical to attaching the plan
        and running ``model.evaluate`` on the full test set."""
        if not plan_has_faults(plan):
            # an all-clear plan wires no hooks: the run is the baseline
            return self.baseline()
        self._check_weights_version()
        split = self._split_for(plan.keys())
        with self._evaluation_scope(), \
                self.injector.injecting(self.model, plan):
            return self._evaluate_suffix(split)

    def evaluate_plan_counts(self, plan: FaultPlan, shard: int = 0,
                             n_shards: int = 1) -> tuple[int, int]:
        """``(correct, total)`` under ``plan`` over every ``n_shards``-th
        test batch starting at ``shard``.

        The batch-level splitter reduces these integer counts across
        shards; ``sum(correct)/sum(total)`` equals :meth:`evaluate_plan`
        bit-for-bit because the per-batch arithmetic and the final
        division are unchanged.
        """
        self._check_weights_version()
        if not plan_has_faults(plan):
            with self._evaluation_scope():
                return self._suffix_counts(self._baseline_split(),
                                           shard, n_shards)
        split = self._split_for(plan.keys())
        with self._evaluation_scope(), \
                self.injector.injecting(self.model, plan):
            return self._suffix_counts(split, shard, n_shards)

    def run_job(self, job: CampaignJob) -> JobResult:
        return job.point_index, job.repeat_index, self.evaluate_plan(job.plan)


# -- executors ------------------------------------------------------------

def _task_key(task) -> tuple[int, int]:
    """Grid coordinates of a task — a bare :class:`CampaignJob` or a
    ``(job, shard, n_shards)`` shard tuple."""
    job = task[0] if isinstance(task, tuple) else task
    return job.point_index, job.repeat_index


def _traced_evaluate(call, obs):
    """Wrap a per-task evaluation callable in an ``evaluate`` span.

    Only the in-process paths (serial executor, tiny-grid fallback,
    bottom ladder rung) are traced per cell — pool workers run in other
    processes and stay untraced; the parent's ``dispatch`` span covers
    them in aggregate.  Returns ``call`` unchanged when uninstrumented.
    """
    if obs is None:
        return call

    def traced(task, _call=call, _tracer=obs.tracer):
        point, repeat = _task_key(task)
        with _tracer.span("evaluate", point=point, repeat=repeat):
            return _call(task)
    return traced


class SerialExecutor:
    """In-process job loop; shares the caller's evaluator and caches.

    With a :class:`~repro.core.resilience.RetryPolicy` the loop retries
    failed jobs with backoff and quarantines poison jobs (their cells
    yield NaN) under the same contract as the pool executor; with
    ``policy=None`` (the default) the first failure raises.
    """

    name = "serial"

    def __init__(self, policy: RetryPolicy | None = None):
        self.policy = policy
        #: receives resilience event records (JobRetried/JobQuarantined)
        self.on_event: Callable | None = None
        #: per-run resilience summary (see resilience.new_stats)
        self.resilience: dict = new_stats()
        #: the observing run's repro.obs.Observability (campaigns set
        #: this for the duration of run(); None = uninstrumented)
        self.obs = None

    def _emit(self, record) -> None:
        note_stats(self.resilience, record)
        if self.on_event is not None:
            self.on_event(record)

    def run(self, jobs: Sequence[CampaignJob],
            evaluator: CampaignEvaluator) -> list[JobResult]:
        """All ``(point, repeat, accuracy)`` results, in job order."""
        return list(self.run_iter(jobs, evaluator))

    def run_iter(self, jobs: Sequence[CampaignJob],
                 evaluator: CampaignEvaluator) -> Iterator[JobResult]:
        """Stream ``(point, repeat, accuracy)`` per job as it completes,
        in job order (pre-generated plans make order irrelevant to the
        values — only to the streaming sequence)."""
        self.resilience = new_stats()
        call = _traced_evaluate(evaluator.run_job, self.obs)
        for job, (kind, value) in supervised_serial(
                jobs, call, self.policy, key=_task_key,
                on_event=self._emit):
            if kind == "ok":
                yield value
            else:
                yield job.point_index, job.repeat_index, float("nan")


_WORKER_EVALUATOR: CampaignEvaluator | None = None


def _init_worker(evaluator: CampaignEvaluator) -> None:
    """Pool initializer: adopt the evaluator the worker inherited from
    the parent at fork — with its warm baseline, prefix batches and
    im2col memo — and pin this worker's BLAS to one thread."""
    global _WORKER_EVALUATOR
    from .workerpool import set_blas_threads
    _WORKER_EVALUATOR = evaluator
    set_blas_threads(1)


def _run_worker_job(job: CampaignJob) -> JobResult:
    return _WORKER_EVALUATOR.run_job(job)


def _run_worker_shard(task: tuple[CampaignJob, int, int]
                      ) -> tuple[int, int, int, int]:
    """Evaluate one shard of one job: (point, repeat, correct, total)."""
    job, shard, n_shards = task
    correct, total = _WORKER_EVALUATOR.evaluate_plan_counts(
        job.plan, shard, n_shards)
    return job.point_index, job.repeat_index, correct, total


class SharedMemoryExecutor:
    """Process-pool executor whose workers fork from a warm parent.

    Before the pool starts, the parent computes the caller's baseline,
    fault-free prefix activation batches and the first suffix layer's
    im2col matrices once; the workers fork afterwards and share those
    pages copy-on-write, so nothing is pickled into them and none
    recomputes the prefix.  Jobs only carry their fault plans.  Results
    stream back unordered as they complete.  They are bit-identical to
    the serial executor because plans are pre-generated and the
    per-batch arithmetic is unchanged.

    When the job grid is smaller than the pool, evaluation splits at the
    batch level instead: each worker scores a shard of the test batches
    and the parent reduces the integer ``(correct, total)`` counts.

    With a :class:`~repro.core.resilience.RetryPolicy` the pool runs
    under a :class:`~repro.core.resilience.PoolSupervisor`: failed jobs
    retry with backoff and are quarantined (NaN cells) after
    ``max_attempts``; lost workers trigger a pool rebuild that
    re-dispatches only the in-flight jobs; and when the pool keeps
    failing the executor walks down its :attr:`ladder` to the
    in-process loop, so a campaign always completes with bit-identical
    accuracies for every cell that completes anywhere.
    ``policy=None`` (the default) keeps the legacy semantics: one
    attempt, first failure raises.
    """

    name = "shared_memory"
    #: degradation ladder, first rung first; the final "serial" rung
    #: runs on the caller's evaluator and cannot lose workers
    ladder: tuple[str, ...] = ("shared_memory", "serial")

    def __init__(self, n_jobs: int | None = None,
                 policy: RetryPolicy | None = None):
        if not n_jobs or n_jobs <= 0:
            n_jobs = int(os.environ.get("REPRO_N_JOBS", 0) or 0)
        self.n_jobs = n_jobs if n_jobs > 0 else (os.cpu_count() or 1)
        self.policy = policy
        #: event hook: ``on_warning(message)`` is invoked for non-fatal
        #: conditions a caller should surface (e.g. a grid that cannot
        #: use the pool falling back to the serial loop).  The streaming
        #: API (:mod:`repro.api`) wires this to its typed
        #: ``RunWarning`` events; ``None`` stays silent.
        self.on_warning: Callable[[str], None] | None = None
        #: event hook for typed resilience records (JobRetried,
        #: JobQuarantined, WorkerLost, ExecutorDegraded); campaigns tap
        #: this to journal events, the API mirrors them as run events
        self.on_event: Callable | None = None
        #: per-run resilience summary (see resilience.new_stats)
        self.resilience: dict = new_stats()
        #: the observing run's repro.obs.Observability (campaigns set
        #: this for the duration of run(); None = uninstrumented).
        #: Pool workers never see it — only the parent-side serial
        #: paths trace per-cell evaluate spans.
        self.obs = None

    def _notify(self, message: str) -> None:
        if self.on_warning is not None:
            self.on_warning(message)

    def _emit(self, record) -> None:
        note_stats(self.resilience, record)
        if self.on_event is not None:
            self.on_event(record)

    def _shard_count(self, n_pending: int, n_batches: int) -> int:
        """Shards per job when the grid underfills the pool, else 1."""
        if n_pending == 0 or n_pending >= self.n_jobs or n_batches <= 1:
            return 1
        return min(n_batches, math.ceil(self.n_jobs / n_pending))

    def run(self, jobs: Sequence[CampaignJob],
            evaluator: CampaignEvaluator) -> list[JobResult]:
        """Evaluate ``jobs`` and return all ``(point, repeat, accuracy)``
        results (the materialized form of :meth:`run_iter`)."""
        return list(self.run_iter(jobs, evaluator))

    def run_iter(self, jobs: Sequence[CampaignJob],
                 evaluator: CampaignEvaluator) -> Iterator[JobResult]:
        """Stream ``(point, repeat, accuracy)`` results as cells complete.

        Results arrive *unordered* but are bit-identical to the serial
        executor for every cell: plans are pre-generated and the
        per-batch arithmetic is unchanged — which is also why worker
        loss, retries, and executor degradation can never change a
        value, only where and when it is computed.  Pools of one worker
        (or single-job grids that cannot shard) fall back to the
        in-process serial loop.  Quarantined jobs yield NaN for their
        cell (sharded cells quarantine whole).
        """
        jobs = list(jobs)
        self.resilience = new_stats()
        n_shards = self._shard_count(len(jobs), self._n_batches(evaluator))
        if self.n_jobs == 1 or (len(jobs) <= 1 and n_shards <= 1):
            if self.n_jobs > 1:
                self._notify(
                    f"grid of {len(jobs)} job(s) cannot use the "
                    f"{self.n_jobs}-worker pool; falling back to the "
                    "in-process serial loop")
            yield from self._run_rung_serial(jobs, evaluator, sharded=False,
                                             reduce=self._make_reducer(
                                                 False, 1))
            return
        if n_shards > 1:
            tasks: list = [(job, shard, n_shards)
                           for job in jobs for shard in range(n_shards)]
            sharded = True
        else:
            tasks = jobs
            sharded = False
        # the cross-rung reducer: shard counts accumulated on one rung
        # finish reducing on the next, so degradation mid-cell is exact
        reduce = self._make_reducer(sharded, n_shards)
        modes = list(self.ladder)
        if self.policy is None or not self.policy.degrade:
            modes = modes[:1]
        # warm the caller's evaluator before any worker forks: every
        # worker (and every rebuilt one) inherits the baseline, the
        # baseline split's prefix batches and its im2col memo
        evaluator.baseline()
        remaining = tasks
        for rung, mode in enumerate(modes):
            if mode == "serial":
                yield from self._run_rung_serial(remaining, evaluator,
                                                 sharded=sharded,
                                                 reduce=reduce)
                return
            initializer, initargs = self._initializer(mode, evaluator)
            job_fn, shard_fn = self._pool_functions(mode)

            def pool_factory(initializer=initializer, initargs=initargs):
                from .workerpool import WorkerPool
                return WorkerPool(self.n_jobs, initializer, initargs)

            window = (self.n_jobs
                      if self.policy is not None
                      and self.policy.job_timeout is not None
                      else 2 * self.n_jobs)
            supervisor = PoolSupervisor(
                pool_factory, shard_fn if sharded else job_fn, remaining,
                self.policy, key=_task_key, on_event=self._emit,
                window=window)
            stream = supervisor.run()
            try:
                for task, outcome in stream:
                    yield from reduce(task, outcome)
                return
            except SupervisorGaveUp as failure:
                if rung + 1 >= len(modes):
                    raise
                remaining = supervisor.unfinished()
                self._emit(ExecutorDegraded(from_mode=mode,
                                            to_mode=modes[rung + 1],
                                            reason=str(failure)))
            finally:
                stream.close()

    def _run_rung_serial(self, tasks: Sequence, evaluator: CampaignEvaluator,
                         *, sharded: bool, reduce) -> Iterator[JobResult]:
        """The bottom rung (and the tiny-grid fallback): run the
        remaining tasks on the caller's evaluator under the same
        retry/quarantine contract."""
        if sharded:
            def call(task):
                job, shard, n_shards = task
                correct, total = evaluator.evaluate_plan_counts(
                    job.plan, shard, n_shards)
                return job.point_index, job.repeat_index, correct, total
        else:
            call = evaluator.run_job
        call = _traced_evaluate(call, self.obs)
        for task, outcome in supervised_serial(tasks, call, self.policy,
                                               key=_task_key,
                                               on_event=self._emit):
            yield from reduce(task, outcome)

    @staticmethod
    def _make_reducer(sharded: bool, n_shards: int):
        """``reduce(task, outcome) -> iterator of JobResult``.

        Unsharded: pass results through, NaN for quarantined jobs.
        Sharded: sum integer ``(correct, total)`` per cell and emit the
        cell once complete — ``sum(correct)/sum(total)`` equals the
        unsharded accuracy bit-for-bit; a quarantined shard quarantines
        its whole cell (one NaN, later shards of that cell ignored).
        The reducer's state lives across rungs of the degradation
        ladder, so a cell split between two rungs still reduces exactly.
        """
        if not sharded:
            def reduce(task, outcome):
                kind, value = outcome
                if kind == "ok":
                    yield value
                else:
                    yield task.point_index, task.repeat_index, float("nan")
            return reduce

        cells: dict[tuple[int, int], list[int]] = {}
        dead: set[tuple[int, int]] = set()

        def reduce(task, outcome):
            coord = _task_key(task)
            kind, value = outcome
            if kind != "ok":
                if coord not in dead:
                    dead.add(coord)
                    cells.pop(coord, None)
                    yield coord[0], coord[1], float("nan")
                return
            if coord in dead:
                return  # a straggler shard of a quarantined cell
            entry = cells.setdefault(coord, [0, 0, n_shards])
            entry[0] += value[2]
            entry[1] += value[3]
            entry[2] -= 1
            if entry[2] == 0:
                del cells[coord]
                yield coord[0], coord[1], entry[0] / entry[1]
        return reduce

    def _initializer(self, mode: str, evaluator: CampaignEvaluator
                     ) -> tuple[Callable, tuple]:
        """``(initializer, initargs)`` of one pool rung's workers.  The
        arguments reach the workers by fork, never by pickle; the chaos
        harness wraps them to inject failures without touching dispatch
        logic."""
        return _init_worker, (evaluator,)

    def _pool_functions(self, mode: str) -> tuple[Callable, Callable]:
        """The (job, shard) functions dispatched to pool workers, looked
        up late from the module globals so tests (and the chaos harness)
        can substitute them."""
        return _run_worker_job, _run_worker_shard

    @staticmethod
    def _n_batches(evaluator: CampaignEvaluator) -> int:
        return math.ceil(len(evaluator.x_test) / evaluator.batch_size)


_EXECUTORS = {
    "serial": SerialExecutor,
    "shared_memory": SharedMemoryExecutor,
}


def get_executor(executor, n_jobs: int | None = None,
                 policy: RetryPolicy | None = None):
    """Resolve an executor by name ('serial' / 'shared_memory') or pass
    executor objects through.  ``policy`` (a
    :class:`~repro.core.resilience.RetryPolicy`) arms retries, per-job
    timeouts, and the degradation ladder; ``None`` keeps the legacy
    raise-on-first-failure behavior."""
    if not isinstance(executor, str):
        return executor
    cls = _EXECUTORS.get(executor)
    if cls is None:
        raise ValueError(f"unknown executor {executor!r}; use one of "
                         f"{list(_EXECUTORS)}")
    if cls is SerialExecutor:
        return cls(policy=policy)
    return cls(n_jobs, policy=policy)
