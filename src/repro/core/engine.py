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
  caches (im2col / bit-packing reuse, see :mod:`repro.binary.layers`).

The evaluator takes a **defensive snapshot** of the test set at
construction: mutating the caller's arrays afterwards can never desync the
cached prefix activations from the data they were computed on.

Packed vs float execution
-------------------------
``backend="packed"`` switches the quantized layers to the XNOR/popcount
fast path on packed uint64 words — the integer arithmetic the LIM
crossbar natively performs.  The two backends are bit-identical (±1 sums
are exact in float32); layers fall back to float automatically wherever
packed semantics cannot express the computation (product-level hooks,
non-strictly-binary quantizers, ``same`` padding, training).

Executors
---------
``serial``
    In-process loop.  Shares the caller's evaluator and all its caches.
``multiprocessing``
    A process pool (default ``n_jobs=os.cpu_count()``, overridable with
    the ``REPRO_N_JOBS`` environment variable); each worker builds one
    evaluator in its initializer and reuses it for every job it is
    handed.  The test set is pickled into each worker once.
``shared_memory``
    Same pool, but the test set **and the parent's cached fault-free
    prefix activation batches** (plus the first suffix layer's derived
    im2col/packed input representations) live in
    :mod:`multiprocessing.shared_memory` planes that workers attach
    **zero-copy** — the per-worker payload shrinks to the model plus a
    few block descriptors, independent of dataset size, and no worker
    recomputes the prefix.  Planes are managed by a
    :class:`SharedPlaneRegistry`: fingerprinted against data + weights
    (stale planes are refused like mismatched journals), cached across
    ``run`` calls of one campaign, and unlinked on failure, on
    :meth:`FaultCampaign.close`, or at interpreter exit.

Both pool executors run on a :class:`~repro.core.workerpool.WorkerPool`
(a ``concurrent.futures.ProcessPoolExecutor``) under a
:class:`~repro.core.resilience.PoolSupervisor` and *stream* results back
through :meth:`run_iter` as their futures complete, so callers can
journal/report progress as cells finish, and both preserve the caller's
warm layer caches: the model's transient state is stripped only for the
duration of worker start-up and restored afterwards.

Batch-level parallelism
-----------------------
When the job grid is smaller than the pool (e.g. a single-point sweep on
a many-core machine), the pool executors split *within* each evaluation:
test batches are sharded across workers and the per-shard
``(correct, total)`` counts reduced in the parent.  Integer count
reduction keeps the accuracy bit-identical to the unsharded division.
"""

from __future__ import annotations

import hashlib
import math
import os
import pickle
import warnings
import weakref
from collections.abc import Callable, Iterator, Sequence
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

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
    "MultiprocessingExecutor",
    "SharedMemoryExecutor",
    "SharedPlaneRegistry",
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

    The single source of truth for both staleness guards — journal
    resume (:meth:`FaultCampaign._fingerprint`) and shared-memory plane
    attachment (:meth:`CampaignEvaluator.plane_fingerprint`) — so the
    two checks can never drift apart in what they cover.  Returns the
    open hash object; callers append their context-specific fields
    (grid geometry, backend, timing) before ``hexdigest()``.
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

    The evaluator snapshots ``x_test``/``y_test`` at construction
    (``copy_data=True``, the default) and marks the snapshot read-only, so
    the layer-level input caches may key on identity and later caller-side
    mutations cannot silently serve stale prefix activations.  Workers
    attaching process-private or shared-memory arrays pass
    ``copy_data=False`` to stay zero-copy; such arrays must never be
    written while the evaluator lives.

    Cache invalidation keys on ``model.weights_version``, which training
    steps and ``load_state_dict`` bump.  Code that mutates
    ``layer.params[...]`` directly, bypassing those paths, must bump
    ``model.weights_version`` (or call :meth:`clear_caches`) itself —
    the evaluator cannot observe raw in-place array writes.
    """

    def __init__(self, model: Sequential, x_test: np.ndarray,
                 y_test: np.ndarray, batch_size: int = 256,
                 continue_time_across_layers: bool = True,
                 backend: str = "float", copy_data: bool = True,
                 cache_bytes: int | None = None):
        if backend not in ("float", "packed"):
            raise ValueError(f"unknown execution backend {backend!r}; "
                             "use 'float' or 'packed'")
        self.model = model
        self.batch_size = batch_size
        self.backend = backend
        #: per-layer byte cap for this evaluator's share of the derived
        #: input-representation caches (see repro.binary.layers)
        self.cache_bytes = (DEFAULT_INPUT_CACHE_BYTES if cache_bytes is None
                            else cache_bytes)
        self.x_test = np.array(x_test) if copy_data else x_test.view()
        self.x_test.flags.writeable = False
        self.y_test = np.array(y_test) if copy_data else y_test.view()
        self.y_test.flags.writeable = False
        self.injector = FaultInjector(continue_time_across_layers)
        self._baseline: float | None = None
        #: (split, shard, n_shards) -> list of (activation batch, label batch)
        self._suffix_batches: dict[tuple[int, int, int],
                                   list[tuple[np.ndarray, np.ndarray]]] = {}
        self._weights_version = getattr(model, "weights_version", None)
        #: budget/statistics token identifying this evaluator in the
        #: layers' input caches without keeping it alive
        self._cache_token = weakref.ref(self)
        self._plane_fingerprint: str | None = None
        #: how many times a prefix was evaluated from ``x_test`` from
        #: scratch (0 on workers that adopted published prefix planes)
        self.prefix_computations = 0

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
        self._plane_fingerprint = None
        _strip_transient_state(self.model)

    def release_owned(self) -> None:
        """Drop this evaluator's own memoized state — the baseline, the
        prefix activation batches, and *its* entries/budget in the
        layers' input caches — without touching other evaluators' cached
        representations or the layers' kernel caches."""
        self._baseline = None
        self._suffix_batches.clear()
        self._plane_fingerprint = None
        for layer in self.model.all_layers():
            cache = getattr(layer, "_input_cache", None)
            if hasattr(cache, "drop_owner"):
                cache.drop_owner(self._cache_token)

    @contextmanager
    def _backend_scope(self):
        """Run with this evaluator's backend, restore the previous one after.

        The campaign must not permanently re-mode a shared model — two
        campaigns with different backends on one model would otherwise
        silently override each other.
        """
        previous = [(layer, layer.execution_backend)
                    for layer in self.model.all_layers()
                    if hasattr(layer, "execution_backend")]
        self.model.set_execution_backend(self.backend)
        try:
            yield
        finally:
            for layer, saved in previous:
                layer.execution_backend = saved

    @contextmanager
    def _evaluation_scope(self):
        """Backend + cache-ownership scope for one evaluation.

        Besides selecting the execution backend, the scope registers this
        evaluator as the budget owner of every layer's input cache, sized
        to the campaign: enough slots for all test batches (instead of the
        ad-hoc 8-slot default) under the ``cache_bytes`` cap.  Ownership
        is restored afterwards, so interleaved campaigns on one model
        charge their own budgets and never evict each other's entries.
        """
        n_batches = math.ceil(len(self.x_test) / self.batch_size)
        owned: list[tuple] = []
        for layer in self.model.all_layers():
            cache = getattr(layer, "_input_cache", None)
            if hasattr(cache, "configure"):
                cache.configure(self._cache_token,
                                slots=max(8, 2 * n_batches),
                                max_bytes=self.cache_bytes)
                owned.append((layer, layer._cache_owner))
                layer._cache_owner = self._cache_token
        try:
            with self._backend_scope():
                yield
        finally:
            for layer, saved in owned:
                layer._cache_owner = saved

    def input_cache_stats(self) -> dict:
        """Aggregate hit/miss statistics of this evaluator's share of the
        layers' input-representation caches.

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
        for layer in self.model.all_layers():
            cache = getattr(layer, "_input_cache", None)
            if hasattr(cache, "stats"):
                for key, value in cache.stats(self._cache_token).items():
                    if key in totals:
                        totals[key] += value
        lookups = totals["hits"] + totals["misses"]
        totals["hit_rate"] = totals["hits"] / lookups if lookups else 0.0
        return totals

    def plane_fingerprint(self) -> str:
        """Digest identifying the activation planes this evaluator would
        publish: test-set snapshot, model weights, batch geometry, backend
        and injection timing.  Attaching a plane published under any other
        fingerprint is refused (like resuming a mismatched journal)."""
        self._check_weights_version()
        if self._plane_fingerprint is None:
            digest = fingerprint_data_and_weights(self.x_test, self.y_test,
                                                  self.model)
            digest.update(f"{self.batch_size}|{self.backend}|"
                          f"{self.injector.continue_time_across_layers}"
                          .encode())
            self._plane_fingerprint = digest.hexdigest()
        return self._plane_fingerprint

    # -- prefix/suffix splitting ----------------------------------------
    def _split_for(self, layer_names) -> int:
        """Index of the first top-level layer whose subtree contains any of
        ``layer_names`` — everything before it is fault-free for sure."""
        names = set(layer_names)

        def contains(layer) -> bool:
            if layer.name in names:
                return True
            return any(contains(child) for child in layer.sub_layers())

        for index, layer in enumerate(self.model.layers):
            if contains(layer):
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
        split (e.g. from adopted shared-memory prefix planes) — both are
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
        self.prefix_computations += 1
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

    def adopt_prefix(self, split: int,
                     batches: list[tuple[np.ndarray, np.ndarray]],
                     reps: list[tuple[str, object]] | None = None) -> None:
        """Install externally computed fault-free prefix activations.

        Pool workers call this with activation batches attached from the
        parent's shared-memory planes, eliminating the once-per-worker
        prefix recomputation.

        Parameters
        ----------
        split : int
            Top-level layer index the activations were computed up to
            (the publisher's :meth:`_baseline_split`).
        batches : list of (ndarray, ndarray)
            One ``(activations, labels)`` pair per *global* test batch,
            in batch order; the activation arrays must be read-only.
        reps : list of (str, object), optional
            The derived input representation (``"cols"`` im2col matrix or
            ``"packed"`` uint64 words) of each batch for
            ``model.layers[split]``, pre-seeding that layer's input cache
            so even the one-time im2col/packing cost is shared.

        The caller is responsible for the batches matching this
        evaluator's data and weights — plane publishers enforce that with
        the :meth:`plane_fingerprint` check at attach time.
        """
        self._check_weights_version()
        batches = list(batches)
        self._suffix_batches[(split, 0, 1)] = batches
        if not reps or split >= len(self.model.layers):
            return
        layer = self.model.layers[split]
        cache = getattr(layer, "_input_cache", None)
        if not hasattr(cache, "configure"):
            return
        n_batches = math.ceil(len(self.x_test) / self.batch_size)
        cache.configure(self._cache_token, slots=max(8, 2 * n_batches),
                        max_bytes=self.cache_bytes)
        for (z, _), (tag, value) in zip(batches, reps):
            cache.put(tag, z, value, owner=self._cache_token)

    def _suffix_counts(self, split: int, shard: int = 0, n_shards: int = 1
                       ) -> tuple[int, int]:
        suffix = self.model.layers[split:]
        correct = 0
        total = 0
        for z, labels in self._batches_for(split, shard, n_shards):
            out = z
            for layer in suffix:
                out = layer.forward(out, training=False)
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


# -- shared-memory planes --------------------------------------------------

def _cleanup_warning(warn: Callable[[str], None] | None, message: str) -> None:
    """Surface a shared-memory cleanup failure: through the caller's
    ``on_warning`` hook when one is wired, else as a ResourceWarning —
    never silently (a swallowed unlink failure is a leaked ``psm_*``
    block until reboot)."""
    if warn is not None:
        warn(message)
    else:
        warnings.warn(message, ResourceWarning, stacklevel=3)


def _release_shared_blocks(blocks: list,
                           warn: Callable[[str], None] | None = None) -> None:
    """Close + unlink every owned block (idempotent; finalizer-safe).

    Failures are reported via ``warn``/ResourceWarning but never raised:
    this runs from ``finally`` blocks and weakref finalizers, where an
    exception would mask the original error (or abort interpreter
    shutdown) while still leaking the remaining blocks.
    """
    while blocks:
        shm = blocks.pop()
        try:
            shm.close()
        except Exception as error:
            _cleanup_warning(warn, "failed to close shared-memory block "
                                   f"{shm.name}: {error!r}")
        try:
            shm.unlink()
        except FileNotFoundError:
            pass  # already unlinked (double release, external cleanup)
        except Exception as error:
            _cleanup_warning(warn, "failed to unlink shared-memory block "
                                   f"{shm.name}: {error!r}; it may stay "
                                   "allocated until reboot")


class SharedPlaneRegistry:
    """Lifecycle manager for shared-memory *planes* — read-only ndarrays
    published once by a campaign parent and attached zero-copy by workers.

    Parent side: :meth:`publish` copies an array into a freshly created
    :class:`multiprocessing.shared_memory.SharedMemory` block and returns
    a picklable descriptor.  Planes stay alive across ``run`` calls of the
    same campaign (campaign-aware caching) until :meth:`release` — which a
    ``weakref`` finalizer also invokes at garbage collection or
    interpreter exit, so interrupted campaigns never leak ``psm_*``
    blocks.

    Worker side: :meth:`attach` maps a descriptor zero-copy after checking
    its fingerprint against the registry's expected one.  A plane
    published for different data/weights (a stale registry, a recycled
    descriptor) is refused with :class:`ValueError`, exactly like resuming
    a mismatched journal.
    """

    def __init__(self, fingerprint: str = ""):
        self.fingerprint = fingerprint
        self._owned: list = []      # blocks this registry created
        self._attached: list = []   # blocks this registry merely mapped
        #: cleanup-failure hook (``on_warning(message)``); ``None`` falls
        #: back to a ResourceWarning.  The finalizer below deliberately
        #: keeps the warnings-module default: binding a callback here
        #: would pin the callback's owner (typically the executor) alive.
        self.on_warning: Callable[[str], None] | None = None
        self._finalizer = weakref.finalize(self, _release_shared_blocks,
                                           self._owned)

    @property
    def nbytes(self) -> int:
        """Total bytes of the published (owned) blocks."""
        return sum(shm.size for shm in self._owned)

    @property
    def plane_count(self) -> int:
        return len(self._owned)

    def publish(self, array: np.ndarray, label: str = "") -> dict:
        """Copy ``array`` into a new shared-memory block.

        Returns
        -------
        dict
            Picklable descriptor (``name``, ``shape``, ``dtype``,
            ``fingerprint``, ``label``) for :meth:`attach`.
        """
        array = np.ascontiguousarray(array)
        from multiprocessing import shared_memory
        shm = shared_memory.SharedMemory(create=True,
                                         size=max(1, array.nbytes))
        self._owned.append(shm)
        view = np.ndarray(array.shape, dtype=array.dtype, buffer=shm.buf)
        view[...] = array
        return {"name": shm.name, "shape": tuple(array.shape),
                "dtype": str(array.dtype), "fingerprint": self.fingerprint,
                "label": label}

    def attach(self, descriptor: dict) -> np.ndarray:
        """Attach one published plane zero-copy as a read-only array.

        Raises
        ------
        ValueError
            If the descriptor's fingerprint does not match this
            registry's — the plane belongs to different data/weights.
        """
        if descriptor.get("fingerprint") != self.fingerprint:
            raise ValueError(
                f"stale shared-memory plane {descriptor.get('label') or descriptor.get('name')!r}: "
                f"published for fingerprint {descriptor.get('fingerprint')!r}"
                f" but {self.fingerprint!r} expected; refusing to attach")
        from multiprocessing import shared_memory

        # NOTE: CPython < 3.13 registers attachments with the (fork-shared)
        # resource tracker as if this process owned the block (bpo-39959).
        # That is harmless here — registrations deduplicate and the parent
        # unregisters on unlink — and unregistering per worker would race
        # the parent into a double-unregister.
        shm = shared_memory.SharedMemory(name=descriptor["name"])
        self._attached.append(shm)
        array = np.ndarray(tuple(descriptor["shape"]),
                           dtype=np.dtype(descriptor["dtype"]),
                           buffer=shm.buf)
        array.flags.writeable = False
        return array

    def discard(self, descriptor: dict) -> None:
        """Unlink one published plane early (e.g. a partially built set
        that will never be shipped).  Unknown names are ignored."""
        for shm in list(self._owned):
            if shm.name == descriptor.get("name"):
                self._owned.remove(shm)
                _release_shared_blocks([shm])
                return

    def release(self) -> None:
        """Close every mapping and unlink the owned blocks (idempotent).
        Cleanup failures are surfaced through :attr:`on_warning` (or a
        ResourceWarning), never swallowed and never raised."""
        for shm in self._attached:
            try:
                shm.close()
            except Exception as error:
                _cleanup_warning(self.on_warning,
                                 "failed to close attached shared-memory "
                                 f"block {shm.name}: {error!r}")
        self._attached.clear()
        _release_shared_blocks(self._owned, warn=self.on_warning)


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
    yield NaN) under the same contract as the pool executors; with
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
#: attached shared-memory blocks, kept referenced so the mappings survive
_WORKER_SHM: list = []


def _init_worker(payload: dict) -> None:
    """Pool initializer: build the worker-local evaluator exactly once."""
    global _WORKER_EVALUATOR
    _WORKER_EVALUATOR = CampaignEvaluator(
        payload["model"], payload["x_test"], payload["y_test"],
        batch_size=payload["batch_size"],
        continue_time_across_layers=payload["continue_time"],
        backend=payload["backend"],
        copy_data=False)  # the pickled arrays are already process-private


def _attach_rep(registry: SharedPlaneRegistry, descriptor: dict
                ) -> tuple[str, object]:
    """Rebuild one published input representation from its plane."""
    array = registry.attach(descriptor["array"])
    if descriptor["extra"] is None:
        return descriptor["tag"], array
    return descriptor["tag"], (array, tuple(descriptor["extra"]))


def _init_worker_shm(payload: dict) -> None:
    """Pool initializer for the shared-memory executor: attach, don't copy.

    Besides the test set, the worker attaches the parent's published
    fault-free prefix activation planes (and, when available, the derived
    im2col/packed input representations) and installs them via
    :meth:`CampaignEvaluator.adopt_prefix` — the worker never recomputes
    the prefix.  Every attach verifies the plane fingerprint; a stale
    plane aborts worker start-up instead of silently mixing data.
    """
    global _WORKER_EVALUATOR
    registry = SharedPlaneRegistry(fingerprint=payload["planes_fingerprint"])
    _WORKER_SHM.append(registry)  # keep the mappings alive with the worker
    x_test = registry.attach(payload["x_shm"])
    y_test = registry.attach(payload["y_shm"])
    evaluator = CampaignEvaluator(
        payload["model"], x_test, y_test,
        batch_size=payload["batch_size"],
        continue_time_across_layers=payload["continue_time"],
        backend=payload["backend"],
        copy_data=False)
    prefix = payload.get("prefix")
    if prefix is not None:
        batch_size = payload["batch_size"]
        batches = []
        for index in range(prefix["n_batches"]):
            start = index * batch_size
            if prefix["batches"] is None:
                # split == 0: the "activations" are the test set itself —
                # slice the already-attached plane instead of attaching
                # redundant copies
                z = x_test[start:start + batch_size]
            else:
                z = registry.attach(prefix["batches"][index])
            batches.append((z, y_test[start:start + batch_size]))
        reps = None
        if prefix["reps"] is not None:
            reps = [_attach_rep(registry, descriptor)
                    for descriptor in prefix["reps"]]
        evaluator.adopt_prefix(prefix["split"], batches, reps)
    _WORKER_EVALUATOR = evaluator


def _run_worker_job(job: CampaignJob) -> JobResult:
    return _WORKER_EVALUATOR.run_job(job)


def _run_worker_shard(task: tuple[CampaignJob, int, int]
                      ) -> tuple[int, int, int, int]:
    """Evaluate one shard of one job: (point, repeat, correct, total)."""
    job, shard, n_shards = task
    correct, total = _WORKER_EVALUATOR.evaluate_plan_counts(
        job.plan, shard, n_shards)
    return job.point_index, job.repeat_index, correct, total


def _payload_nbytes(payload: dict) -> int:
    """Serialized size of a worker initializer payload.

    Arrays are counted at ``nbytes`` instead of being pickled: serializing
    a multi-megabyte test set per :meth:`run_iter` call just to measure it
    would dwarf the metric's value (on fork start, nothing is pickled at
    all).  Called inside the transient-state stash so the model component
    reflects what a worker actually receives, not the caller's warm
    caches.
    """
    arrays = sum(value.nbytes for value in payload.values()
                 if isinstance(value, np.ndarray))
    rest = {key: value for key, value in payload.items()
            if not isinstance(value, np.ndarray)}
    return arrays + len(pickle.dumps(rest, protocol=pickle.HIGHEST_PROTOCOL))


@contextmanager
def _transient_state_stashed(model: Sequential):
    """Strip per-layer scratch state for the duration of the block, then
    restore it.

    Worker start-up must not pickle (or fork-inherit) the caller's warm
    im2col/packing caches — but it must not *discard* them either: a
    serial evaluator sharing the model would silently lose its warm state
    every time a pool spins up.
    """
    saved: list[tuple[object, dict]] = []
    for layer in model.all_layers():
        entry = {attr: getattr(layer, attr)
                 for attr in ("_packed_kernel_cache", "_input_cache", "_cache")
                 if hasattr(layer, attr)}
        if entry:
            saved.append((layer, entry))
    _strip_transient_state(model)
    try:
        yield
    finally:
        for layer, entry in saved:
            for attr, value in entry.items():
                setattr(layer, attr, value)


class MultiprocessingExecutor:
    """Process-pool executor with worker-local models.

    The model and test set ship to each worker once (pool initializer);
    jobs only carry their fault plans.  Results stream back unordered as
    they complete.  They are bit-identical to the serial executor because
    plans are pre-generated and the per-batch arithmetic is unchanged.

    When the job grid is smaller than the pool, evaluation splits at the
    batch level instead: each worker scores a shard of the test batches
    and the parent reduces the integer ``(correct, total)`` counts.

    With a :class:`~repro.core.resilience.RetryPolicy` the pool runs
    under a :class:`~repro.core.resilience.PoolSupervisor`: failed jobs
    retry with backoff and are quarantined (NaN cells) after
    ``max_attempts``; lost workers trigger a pool rebuild that
    re-dispatches only the in-flight jobs; and when a rung keeps failing
    the executor walks down its :attr:`ladder` — ultimately running the
    remaining jobs in-process — so a campaign always completes with
    bit-identical accuracies for every cell that completes anywhere.
    ``policy=None`` (the default) keeps the legacy semantics: one
    attempt, first failure raises.
    """

    name = "multiprocessing"
    #: degradation ladder, first rung first; the final "serial" rung
    #: runs on the caller's evaluator and cannot lose workers
    ladder: tuple[str, ...] = ("multiprocessing", "serial")

    def __init__(self, n_jobs: int | None = None,
                 policy: RetryPolicy | None = None):
        if not n_jobs or n_jobs <= 0:
            n_jobs = int(os.environ.get("REPRO_N_JOBS", 0) or 0)
        self.n_jobs = n_jobs if n_jobs > 0 else (os.cpu_count() or 1)
        self.policy = policy
        #: serialized size of the per-worker initializer payload on the
        #: most recent pooled run, arrays counted at ``nbytes`` (0 after a
        #: serial fallback, None before any run) — see _payload_nbytes
        self.payload_bytes: int | None = None
        #: prefix-plane metrics of the most recent pooled run (only the
        #: shared-memory executor populates this)
        self.prefix_plane: dict | None = None
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

    def _make_payload(self, evaluator: CampaignEvaluator
                      ) -> tuple[dict, Callable[[bool], None]]:
        """Build the initializer payload.

        Returns
        -------
        (dict, callable)
            The payload and a ``cleanup(success)`` hook invoked after the
            run — ``success`` is False when the run raised or was
            abandoned, letting subclasses release resources they would
            otherwise keep cached for the next run.
        """
        payload = {
            "model": evaluator.model,
            "x_test": np.asarray(evaluator.x_test),
            "y_test": np.asarray(evaluator.y_test),
            "batch_size": evaluator.batch_size,
            "continue_time": evaluator.injector.continue_time_across_layers,
            "backend": evaluator.backend,
        }
        return payload, lambda success: None

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
            self.payload_bytes = 0
            self.prefix_plane = None  # this run attached no planes
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
        remaining = tasks
        for rung, mode in enumerate(modes):
            if mode == "serial":
                yield from self._run_rung_serial(remaining, evaluator,
                                                 sharded=sharded,
                                                 reduce=reduce)
                return
            try:
                payload, initializer, cleanup = self._payload_for_mode(
                    mode, evaluator)
            except Exception as error:
                if rung + 1 >= len(modes):
                    raise
                self._emit(ExecutorDegraded(
                    from_mode=mode, to_mode=modes[rung + 1],
                    reason=f"worker payload setup failed: {error!r}"))
                continue
            job_fn, shard_fn = self._pool_functions(mode)
            with _transient_state_stashed(evaluator.model):
                self.payload_bytes = _payload_nbytes(payload)

            def pool_factory(payload=payload, initializer=initializer):
                from .workerpool import WorkerPool
                with _transient_state_stashed(evaluator.model):
                    return WorkerPool(self.n_jobs, initializer, (payload,))

            window = (self.n_jobs
                      if self.policy is not None
                      and self.policy.job_timeout is not None
                      else 2 * self.n_jobs)
            supervisor = PoolSupervisor(
                pool_factory, shard_fn if sharded else job_fn, remaining,
                self.policy, key=_task_key, on_event=self._emit,
                window=window)
            stream = supervisor.run()
            rung_done = False
            try:
                for task, outcome in stream:
                    yield from reduce(task, outcome)
                rung_done = True
            except SupervisorGaveUp as failure:
                if rung + 1 >= len(modes):
                    raise
                remaining = supervisor.unfinished()
                self._emit(ExecutorDegraded(from_mode=mode,
                                            to_mode=modes[rung + 1],
                                            reason=str(failure)))
            finally:
                stream.close()
                cleanup(rung_done)
                if not rung_done and mode == "shared_memory":
                    # the planes this run advertised were just released
                    self.prefix_plane = None
            if rung_done:
                return

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

    def _payload_for_mode(self, mode: str, evaluator: CampaignEvaluator
                          ) -> tuple[dict, Callable, Callable[[bool], None]]:
        """``(payload, initializer, cleanup)`` for one ladder rung.

        Subclasses add rungs by handling their mode and delegating the
        rest to ``super()``; the chaos harness wraps the returned pieces
        to inject failures without touching dispatch logic.
        """
        if mode != "multiprocessing":
            raise ValueError(f"unknown executor mode {mode!r}")
        payload, cleanup = MultiprocessingExecutor._make_payload(
            self, evaluator)
        return payload, _init_worker, cleanup

    def _pool_functions(self, mode: str) -> tuple[Callable, Callable]:
        """The (job, shard) functions dispatched to pool workers, looked
        up late from the module globals so tests (and the chaos harness)
        can substitute them."""
        return _run_worker_job, _run_worker_shard

    @staticmethod
    def _n_batches(evaluator: CampaignEvaluator) -> int:
        return math.ceil(len(evaluator.x_test) / evaluator.batch_size)


class SharedMemoryExecutor(MultiprocessingExecutor):
    """Pool executor whose test set *and* prefix activations live in
    shared memory.

    The parent publishes ``x_test``/``y_test`` plus its cached fault-free
    prefix activation batches (and the first suffix layer's derived
    im2col/packed input representations) as planes in a
    :class:`SharedPlaneRegistry`; workers attach everything zero-copy in
    their initializer.  The pickled per-worker payload carries only the
    model and block descriptors — independent of dataset size — and no
    worker ever recomputes the fault-free prefix.

    Planes are fingerprinted against the evaluator's data + weights and
    kept alive across ``run`` calls of the same campaign (e.g. the
    per-layer sweeps of a Fig. 4 grid republish nothing); a fingerprint
    change republishes, a failed or abandoned run releases immediately,
    and a ``weakref`` finalizer unlinks whatever remains when the
    executor is garbage-collected or the interpreter exits.
    """

    name = "shared_memory"
    ladder: tuple[str, ...] = ("shared_memory", "multiprocessing", "serial")

    def __init__(self, n_jobs: int | None = None,
                 policy: RetryPolicy | None = None):
        super().__init__(n_jobs, policy)
        self._registry: SharedPlaneRegistry | None = None
        self._payload: dict | None = None
        self._prefix_info: dict | None = None

    def _payload_for_mode(self, mode: str, evaluator: CampaignEvaluator
                          ) -> tuple[dict, Callable, Callable[[bool], None]]:
        if mode != "shared_memory":
            return super()._payload_for_mode(mode, evaluator)
        payload, cleanup = self._make_payload(evaluator)
        return payload, _init_worker_shm, cleanup

    def release_planes(self) -> None:
        """Unlink every published plane now (idempotent).  Called on
        failed runs, by :meth:`FaultCampaign.close`, and by the registry
        finalizer as a last resort."""
        if self._registry is not None:
            self._registry.release()
        self._registry = None
        self._payload = None
        self._prefix_info = None

    def _publish_prefix(self, evaluator: CampaignEvaluator,
                        registry: SharedPlaneRegistry) -> dict:
        """Publish the evaluator's fault-free prefix activation batches
        (computing them once, in the parent) plus the first suffix
        layer's derived input representations when that layer memoizes
        one (see :mod:`repro.binary.layers`).

        At ``split == 0`` (a fully mapped model: no fault-free prefix)
        the activation batches are byte-for-byte slices of ``x_test``,
        which workers already attach — ``batches`` is ``None`` then and
        workers slice the test-set plane instead of attaching redundant
        copies.
        """
        split = evaluator._baseline_split()
        with evaluator._evaluation_scope():
            batches = evaluator._batches_for(split)
            descriptors = None
            if split > 0:
                descriptors = [registry.publish(z, label=f"prefix{index}")
                               for index, (z, _) in enumerate(batches)]
            reps: list[dict] | None = None
            layers = evaluator.model.layers
            if split < len(layers) and hasattr(layers[split],
                                               "_input_cache"):
                layer = layers[split]
                reps = []
                for z, _ in batches:
                    # one forward memoizes exactly the representation the
                    # workers will look up — shared code path, no drift
                    layer.forward(z, training=False)
                    for tag in ("packed", "cols"):
                        rep = layer._input_cache.peek(tag, z)
                        if rep is not None:
                            reps.append(_publish_rep(registry, tag, rep))
                            break
                    else:
                        # this layer memoizes nothing: drop the partially
                        # published set — nobody will ever attach it
                        for published in reps:
                            registry.discard(published["array"])
                        reps = None
                        break
        return {"split": split, "n_batches": len(batches),
                "batches": descriptors, "reps": reps}

    def _make_payload(self, evaluator: CampaignEvaluator
                      ) -> tuple[dict, Callable[[bool], None]]:
        def cleanup(success: bool) -> None:
            if not success:
                self.release_planes()

        fingerprint = evaluator.plane_fingerprint()
        if (self._registry is not None and self._payload is not None
                and self._registry.fingerprint == fingerprint):
            # campaign-aware caching: same data/weights/geometry — the
            # planes published for the previous run are still exact
            self.prefix_plane = dict(self._prefix_info, reused=True)
            return self._payload, cleanup
        self.release_planes()
        registry = SharedPlaneRegistry(fingerprint=fingerprint)
        registry.on_warning = self.on_warning
        try:
            x_desc = registry.publish(evaluator.x_test, label="x_test")
            y_desc = registry.publish(evaluator.y_test, label="y_test")
            prefix = self._publish_prefix(evaluator, registry)
            payload = {
                "model": evaluator.model,
                "planes_fingerprint": fingerprint,
                "x_shm": x_desc,
                "y_shm": y_desc,
                "prefix": prefix,
                "batch_size": evaluator.batch_size,
                "continue_time":
                    evaluator.injector.continue_time_across_layers,
                "backend": evaluator.backend,
            }
        except Exception:
            registry.release()
            raise
        self._registry = registry
        self._payload = payload
        self._prefix_info = {
            "split": prefix["split"],
            "batches": prefix["n_batches"],
            "rep_planes": len(prefix["reps"] or []),
            "bytes": registry.nbytes,
        }
        self.prefix_plane = dict(self._prefix_info, reused=False)
        return payload, cleanup


def _publish_rep(registry: SharedPlaneRegistry, tag: str, rep) -> dict:
    """Decompose one memoized input representation into a plane descriptor
    (``(array, (oh, ow))`` conv tuples or bare dense word arrays)."""
    if isinstance(rep, tuple):
        array, extra = rep
    else:
        array, extra = rep, None
    return {"tag": tag, "array": registry.publish(array, label=f"rep-{tag}"),
            "extra": extra}


def _strip_transient_state(model: Sequential) -> None:
    """Drop per-layer scratch state (training caches, memoized packings)
    before pickling a model into worker processes."""
    for layer in model.all_layers():
        if hasattr(layer, "_invalidate_caches"):
            layer._invalidate_caches()
        if hasattr(layer, "_input_cache"):
            layer._input_cache = type(layer._input_cache)()
        if hasattr(layer, "_cache"):
            layer._cache = None


_EXECUTORS = {
    "serial": SerialExecutor,
    "multiprocessing": MultiprocessingExecutor,
    "shared_memory": SharedMemoryExecutor,
    "shm": SharedMemoryExecutor,
}


def get_executor(executor, n_jobs: int | None = None,
                 policy: RetryPolicy | None = None):
    """Resolve an executor by name ('serial' / 'multiprocessing' /
    'shared_memory') or pass executor objects through.  ``policy``
    (a :class:`~repro.core.resilience.RetryPolicy`) arms retries,
    per-job timeouts, and the degradation ladder; ``None`` keeps the
    legacy raise-on-first-failure behavior."""
    if not isinstance(executor, str):
        return executor
    cls = _EXECUTORS.get(executor)
    if cls is None:
        raise ValueError(f"unknown executor {executor!r}; use 'serial', "
                         "'multiprocessing' or 'shared_memory'")
    if cls is SerialExecutor:
        return cls(policy=policy)
    return cls(n_jobs, policy=policy)
