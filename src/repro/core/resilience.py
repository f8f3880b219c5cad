"""Fault tolerance for the campaign engine itself.

The paper's premise is that computation must survive device faults; this
module makes the *fault injector* survive its own faults.  A pool worker
SIGKILLed mid-grid, an initializer that raises, a job that hangs — none
of these should cost a running campaign more than the lost cells'
re-evaluation, because every cell's fault plan is a pure function of its
grid coordinates (:mod:`repro.core.engine`): re-running a lost job
yields the bit-identical accuracy, no matter where or when it re-runs.

Three cooperating pieces:

:class:`RetryPolicy`
    Deterministic knobs: attempts per job, exponential backoff, an
    optional per-job wall-clock timeout, a stall watchdog, a pool
    rebuild budget, and whether the executor may *degrade*
    (``shared_memory`` → ``multiprocessing`` → ``serial``) when a pool
    keeps failing.  ``policy=None`` everywhere means the legacy
    semantics: one attempt, first failure raises.
:class:`PoolSupervisor`
    Runs one rung on a :class:`~repro.core.workerpool.WorkerPool` (a
    ``concurrent.futures.ProcessPoolExecutor``): submits tasks under a
    bounded window and waits on their futures with a deadline,
    re-schedules failed tasks with backoff, and quarantines poison tasks
    after ``max_attempts`` failures instead of aborting the grid.  A
    lost worker surfaces as ``BrokenProcessPool``; it, an expired job
    deadline, and a stall all kill the pool's workers, build a new pool,
    and re-dispatch only the in-flight tasks.  Shutdown is graceful on
    success (``shutdown``); ``kill_workers`` is reserved for the
    error/abandon path.
:func:`supervised_serial`
    The same retry/quarantine contract for in-process execution — the
    bottom rung of the degradation ladder and the serial executor.

Events (:class:`JobRetried`, :class:`JobQuarantined`,
:class:`WorkerLost`, :class:`ExecutorDegraded`) are frozen dataclasses
with JSON-able fields; executors forward them through their ``on_event``
hook, campaigns journal them as ``{"kind": "event", ...}`` lines and
summarize them in ``SweepResult.meta["resilience"]``, and
:mod:`repro.api` mirrors them as typed run events.
"""

from __future__ import annotations

import heapq
import itertools
import time
from collections import deque
from collections.abc import Callable, Iterator, Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:
    from concurrent.futures import Future

__all__ = [
    "RetryPolicy",
    "JobRetried",
    "JobQuarantined",
    "WorkerLost",
    "ExecutorDegraded",
    "SupervisorGaveUp",
    "PoolSupervisor",
    "supervised_serial",
    "new_stats",
    "note_stats",
    "stats_to_metrics",
]


@dataclass(frozen=True)
class RetryPolicy:
    """Deterministic fault-tolerance knobs for campaign execution.

    Parameters
    ----------
    max_attempts:
        Evaluations of one job before it is quarantined (1 = no retry).
    backoff / backoff_factor / max_backoff:
        Delay before attempt ``n+1`` after ``n`` failures is
        ``min(max_backoff, backoff * backoff_factor**(n-1))`` seconds —
        a pure function of the attempt number, so schedules are
        reproducible.
    job_timeout:
        Optional wall-clock budget (seconds) per dispatched job.  A
        running task cannot be cancelled, so an expired job kills the
        pool's workers and rebuilds the pool; the expired job is charged
        one failed attempt, the other in-flight jobs are re-dispatched
        unharmed.
    stall_timeout:
        Watchdog: with jobs in flight but no result (and no
        ``BrokenProcessPool``) for this long, the workers are presumed
        wedged; they are killed and the pool rebuilt, as for a lost
        worker.
    max_rebuilds:
        Unattributed pool rebuilds (worker loss, stall) tolerated per
        rung before the supervisor gives up — the signal for the
        degradation ladder to move on.  Timeout rebuilds are bounded by
        per-job attempts instead and do not count here.
    degrade:
        Whether the pool executors may fall down their ladder
        (``shared_memory`` → ``multiprocessing`` → ``serial``) when a
        rung keeps failing.  With ``False`` the first rung's failure
        raises :class:`SupervisorGaveUp`.
    """

    max_attempts: int = 3
    backoff: float = 0.25
    backoff_factor: float = 2.0
    max_backoff: float = 30.0
    job_timeout: float | None = None
    stall_timeout: float = 60.0
    max_rebuilds: int = 2
    degrade: bool = True

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, "
                             f"got {self.max_attempts}")
        if self.backoff < 0 or self.backoff_factor < 1 or self.max_backoff < 0:
            raise ValueError("backoff must be >= 0, backoff_factor >= 1, "
                             "max_backoff >= 0")
        if self.job_timeout is not None and self.job_timeout <= 0:
            raise ValueError(f"job_timeout must be positive or None, "
                             f"got {self.job_timeout}")
        if self.stall_timeout <= 0:
            raise ValueError(f"stall_timeout must be positive, "
                             f"got {self.stall_timeout}")
        if self.max_rebuilds < 0:
            raise ValueError(f"max_rebuilds must be >= 0, "
                             f"got {self.max_rebuilds}")

    def delay_for(self, attempt: int) -> float:
        """Backoff (seconds) before the retry that follows failed
        attempt number ``attempt`` (1-based)."""
        return min(self.max_backoff,
                   self.backoff * self.backoff_factor ** (attempt - 1))


# -- typed resilience events ----------------------------------------------

@dataclass(frozen=True)
class JobRetried:
    """One job attempt failed and the job was re-scheduled.

    ``cause`` is ``"error"`` (the job raised) or ``"timeout"`` (its
    wall-clock budget expired); ``attempt`` is the failed attempt
    number; ``delay`` the backoff before the next one.
    """

    point: int
    repeat: int
    attempt: int
    delay: float
    cause: str
    error: str


@dataclass(frozen=True)
class JobQuarantined:
    """A job failed ``attempts`` times and was set aside (its cell
    reports NaN) instead of aborting the campaign."""

    point: int
    repeat: int
    attempts: int
    error: str


@dataclass(frozen=True)
class WorkerLost:
    """A pool worker died (or the pool wedged); the pool was rebuilt and
    the ``in_flight`` jobs re-dispatched without attempt charges."""

    reason: str
    in_flight: int


@dataclass(frozen=True)
class ExecutorDegraded:
    """One rung of the executor ladder kept failing; execution moved
    from ``from_mode`` to ``to_mode`` for the remaining jobs."""

    from_mode: str
    to_mode: str
    reason: str


class SupervisorGaveUp(RuntimeError):
    """A pool rung exhausted its rebuild budget (or a rebuild itself
    failed).  The degradation ladder catches this to move on; with
    ``degrade=False`` it propagates to the caller."""


def new_stats() -> dict[str, Any]:
    """A fresh per-run resilience summary (mutated by :func:`note_stats`,
    always attached to ``SweepResult.meta["resilience"]`` — zeroed on a
    clean run).  This dict is the backward-compatible *view*; the
    canonical counter store is the run's
    :class:`repro.obs.metrics.MetricsRegistry` (see
    :func:`stats_to_metrics`)."""
    return {"retries": 0, "timeouts": 0, "quarantined": [],
            "workers_lost": 0, "degraded": []}


def note_stats(stats: dict[str, Any], record: object) -> None:
    """Fold one resilience event into a :func:`new_stats` summary."""
    if isinstance(record, JobRetried):
        stats["retries"] += 1
        if record.cause == "timeout":
            stats["timeouts"] += 1
    elif isinstance(record, JobQuarantined):
        coord = (record.point, record.repeat)
        if coord not in stats["quarantined"]:
            stats["quarantined"].append(coord)
    elif isinstance(record, WorkerLost):
        stats["workers_lost"] += 1
    elif isinstance(record, ExecutorDegraded):
        stats["degraded"].append(f"{record.from_mode}->{record.to_mode}")


def stats_to_metrics(stats: dict[str, Any], registry: Any) -> None:
    """Fold one run's :func:`new_stats` summary into a
    :class:`repro.obs.metrics.MetricsRegistry` — the single mapping
    from the legacy dict shape to the canonical telemetry counters
    (``repro_jobs_retried_total`` and friends).  Call once per run with
    the finished summary; the dict itself stays attached to
    ``SweepResult.meta["resilience"]`` as the compatibility view."""
    registry.counter("repro_jobs_retried_total",
                     "job attempts that failed and were "
                     "re-scheduled").inc(int(stats.get("retries", 0)))
    registry.counter("repro_job_timeouts_total",
                     "retries caused by per-job wall-clock "
                     "timeouts").inc(int(stats.get("timeouts", 0)))
    registry.counter("repro_jobs_quarantined_total",
                     "poison jobs set aside after exhausting their "
                     "attempts").inc(len(stats.get("quarantined", ())))
    registry.counter("repro_workers_lost_total",
                     "pool workers that died (or wedged) and forced a "
                     "rebuild").inc(int(stats.get("workers_lost", 0)))
    registry.counter("repro_executor_degraded_total",
                     "rungs the executor ladder fell down "
                     "mid-run").inc(len(stats.get("degraded", ())))


def _default_key(task: object) -> tuple[int, int]:
    job = task[0] if isinstance(task, tuple) else task
    return (getattr(job, "point_index", -1), getattr(job, "repeat_index", -1))


# -- supervised serial execution (bottom rung) -----------------------------

def supervised_serial(tasks: Sequence[Any], call: Callable[[Any], Any],
                      policy: RetryPolicy | None = None, *,
                      key: Callable[[Any], tuple[int, int]] = _default_key,
                      on_event: Callable[[object], None] | None = None,
                      sleep: Callable[[float], None] = time.sleep
                      ) -> Iterator[tuple[Any, tuple[str, Any]]]:
    """Run ``call(task)`` per task with the retry/quarantine contract.

    Yields ``(task, ("ok", value))`` or ``(task, ("quarantined",
    error_repr))`` per task, in task order.  With ``policy=None`` the
    first failure raises (legacy semantics).
    """
    def emit(record: object) -> None:
        if on_event is not None:
            on_event(record)

    for task in tasks:
        attempt = 1
        while True:
            try:
                value = call(task)
            except Exception as error:
                if policy is None:
                    raise
                point, repeat = key(task)
                if attempt >= policy.max_attempts:
                    emit(JobQuarantined(point=point, repeat=repeat,
                                        attempts=attempt, error=repr(error)))
                    yield task, ("quarantined", repr(error))
                    break
                delay = policy.delay_for(attempt)
                emit(JobRetried(point=point, repeat=repeat, attempt=attempt,
                                delay=delay, cause="error",
                                error=repr(error)))
                if delay > 0:
                    sleep(delay)
                attempt += 1
                continue
            yield task, ("ok", value)
            break


# -- pool supervision ------------------------------------------------------

class PoolSupervisor:
    """Fault-tolerant dispatch of one task list onto one process pool.

    Parameters
    ----------
    pool_factory:
        Zero-argument callable returning a fresh
        :class:`~repro.core.workerpool.WorkerPool` (or anything with its
        ``submit``/``shutdown``/``kill_workers`` surface) — also used
        for rebuilds, which re-run the worker initializer.
    func:
        Picklable module-level function applied to each task in a
        worker.
    tasks:
        The task list.  Tasks need not be hashable; identity is by
        index.
    policy:
        :class:`RetryPolicy`, or ``None`` for legacy semantics (single
        attempt, first failure — a lost worker included — raises).
    key:
        ``key(task) -> (point, repeat)`` grid coordinates for event
        reporting.
    on_event:
        Receives :class:`JobRetried` / :class:`JobQuarantined` /
        :class:`WorkerLost` records as they happen.
    window:
        Maximum tasks in flight at once (defaults to the pool size
        passed by the executor); a bounded window keeps dispatch close
        to start so ``job_timeout`` deadlines measure actual work.

    A lost worker (a future failing with ``BrokenProcessPool``), an
    expired job deadline, and a stall share one recovery path: kill the
    pool's workers, build a new pool, and requeue the in-flight tasks at
    unchanged attempt counts (an expired job is charged one attempt).

    :meth:`run` is a generator yielding ``(task, ("ok", value))`` /
    ``(task, ("quarantined", error_repr))`` as results arrive
    (unordered).  After a :class:`SupervisorGaveUp`, :meth:`unfinished`
    lists the tasks that never produced an outcome — the degradation
    ladder hands exactly those to the next rung.
    """

    def __init__(self, pool_factory: Callable[[], Any],
                 func: Callable[[Any], Any],
                 tasks: Sequence[Any], policy: RetryPolicy | None = None, *,
                 key: Callable[[Any], tuple[int, int]] = _default_key,
                 on_event: Callable[[object], None] | None = None,
                 window: int = 8) -> None:
        self._pool_factory = pool_factory
        self._func = func
        self._tasks = list(tasks)
        self.policy = policy
        self._key = key
        self._on_event = on_event
        self._window = max(1, window)
        self._unfinished: set[int] = set(range(len(self._tasks)))

    def unfinished(self) -> list[Any]:
        """Tasks with no outcome yet (for hand-off to the next rung)."""
        return [self._tasks[index] for index in sorted(self._unfinished)]

    def _emit(self, record: object) -> None:
        if self._on_event is not None:
            self._on_event(record)

    def run(self) -> Iterator[tuple[Any, tuple[str, Any]]]:
        # imported here, not at module level: serial campaigns never pay
        # for importing concurrent.futures.process and multiprocessing
        from concurrent import futures
        from concurrent.futures.process import BrokenProcessPool

        policy = self.policy
        todo: deque[tuple[int, int]] = \
            deque((index, 1) for index in range(len(self._tasks)))
        retries: list[tuple[float, int, int, int]] = \
            []                   # heap of (due, tiebreak, task_index, attempt)
        pending: dict[Future[Any], tuple[int, int, float | None]] = \
            {}                   # future -> (task_index, attempt, deadline)
        tiebreak = itertools.count()
        rebuilds = 0
        pool = None
        completed = False
        try:
            pool = self._pool_factory()
            last_progress = time.monotonic()
            while self._unfinished:
                now = time.monotonic()
                while retries and retries[0][0] <= now:
                    _, _, index, attempt = heapq.heappop(retries)
                    todo.append((index, attempt))
                while todo and len(pending) < self._window:
                    index, attempt = todo.popleft()
                    try:
                        future = pool.submit(self._func, self._tasks[index])
                    except BrokenProcessPool as error:  # broke since last wait
                        future = futures.Future()
                        future.set_exception(error)
                    deadline = (now + policy.job_timeout
                                if policy is not None
                                and policy.job_timeout is not None else None)
                    pending[future] = (index, attempt, deadline)
                if not pending:  # only backed-off retries remain
                    time.sleep(max(0.0, retries[0][0] - now))
                    continue
                done, _ = futures.wait(
                    pending, return_when=futures.FIRST_COMPLETED,
                    timeout=self._wait_timeout(pending, retries,
                                               last_progress))
                now = time.monotonic()
                lost = False
                for future in done:
                    error = future.exception()
                    if policy is not None and isinstance(error,
                                                         BrokenProcessPool):
                        lost = True  # stays in flight: the rebuild requeues
                        continue
                    index, attempt, _ = pending.pop(future)
                    last_progress = now
                    if error is None:
                        self._unfinished.discard(index)
                        yield self._tasks[index], ("ok", future.result())
                    elif policy is None:
                        raise error
                    else:
                        outcome = self._attempt_failed(
                            index, attempt, error, retries, tiebreak,
                            cause="error")
                        if outcome is not None:
                            self._unfinished.discard(index)
                            yield self._tasks[index], outcome
                if policy is None:
                    continue
                expired = [future for future, (_, _, deadline)
                           in pending.items()
                           if deadline is not None and deadline <= now]
                if lost:
                    pool, rebuilds = self._worker_loss(
                        pool, pending, todo, rebuilds,
                        "worker process died mid-run")
                elif expired:
                    # a running task cannot be cancelled: charge the
                    # expired job(s) one attempt, rebuild for the rest
                    for future in expired:
                        index, attempt, _ = pending.pop(future)
                        outcome = self._attempt_failed(
                            index, attempt,
                            TimeoutError(f"job exceeded its "
                                         f"{policy.job_timeout:g}s "
                                         "wall-clock budget"),
                            retries, tiebreak, cause="timeout")
                        if outcome is not None:
                            self._unfinished.discard(index)
                            yield self._tasks[index], outcome
                    pool = self._rebuild(pool, pending, todo,
                                         f"{len(expired)} job(s) timed out")
                elif pending and now - last_progress >= policy.stall_timeout:
                    pool, rebuilds = self._worker_loss(
                        pool, pending, todo, rebuilds,
                        f"no results for {policy.stall_timeout:g}s with "
                        f"{len(pending)} job(s) in flight")
                else:
                    continue
                last_progress = time.monotonic()
            completed = True
        finally:
            if pool is not None:
                # success drains gracefully; errors and an abandoned
                # consumer (GeneratorExit) must not wait on stragglers
                if completed:
                    pool.shutdown()
                else:
                    pool.kill_workers()

    def _wait_timeout(self, pending: dict[Future[Any],
                                          tuple[int, int, float | None]],
                      retries: list[tuple[float, int, int, int]],
                      last_progress: float) -> float | None:
        """How long to wait for a result: until the next job deadline,
        retry due time, or stall deadline.  ``None`` (until a future
        settles) only under legacy ``policy=None``."""
        policy = self.policy
        if policy is None:
            return None
        due = [deadline for _, _, deadline in pending.values()
               if deadline is not None]
        if retries:
            due.append(retries[0][0])
        due.append(last_progress + policy.stall_timeout)
        return max(0.0, min(due) - time.monotonic())

    def _attempt_failed(self, index: int, attempt: int, error: object,
                        retries: list[tuple[float, int, int, int]],
                        tiebreak: Iterator[int], *, cause: str
                        ) -> tuple[str, Any] | None:
        """Schedule a retry (returns ``None``) or quarantine (returns
        the terminal outcome) after one failed attempt."""
        policy = self.policy
        assert policy is not None  # callers gate on a configured policy
        point, repeat = self._key(self._tasks[index])
        if attempt >= policy.max_attempts:
            self._emit(JobQuarantined(point=point, repeat=repeat,
                                      attempts=attempt, error=repr(error)))
            return ("quarantined", repr(error))
        delay = policy.delay_for(attempt)
        self._emit(JobRetried(point=point, repeat=repeat, attempt=attempt,
                              delay=delay, cause=cause, error=repr(error)))
        heapq.heappush(retries, (time.monotonic() + delay, next(tiebreak),
                                 index, attempt + 1))
        return None

    def _worker_loss(self, pool: Any,
                     pending: dict[Future[Any], tuple[int, int, float | None]],
                     todo: deque[tuple[int, int]], rebuilds: int,
                     reason: str) -> tuple[Any, int]:
        """Unattributed loss: emit, count against the rebuild budget,
        and rebuild (innocent bystanders pay no attempt)."""
        policy = self.policy
        assert policy is not None  # only a configured policy rebuilds pools
        self._emit(WorkerLost(reason=reason, in_flight=len(pending)))
        rebuilds += 1
        if rebuilds > policy.max_rebuilds:
            raise SupervisorGaveUp(
                f"pool rebuilt {policy.max_rebuilds} time(s) and "
                f"workers kept dying ({reason}); "
                f"{len(self._unfinished)} job(s) unfinished")
        return self._rebuild(pool, pending, todo, reason), rebuilds

    def _rebuild(self, pool: Any,
                 pending: dict[Future[Any], tuple[int, int, float | None]],
                 todo: deque[tuple[int, int]], reason: str) -> Any:
        """Kill the pool's workers and build a new pool, requeueing
        every in-flight task at its current attempt count."""
        pool.kill_workers()
        todo.extend((index, attempt) for index, attempt, _ in pending.values())
        pending.clear()
        try:
            return self._pool_factory()
        except Exception as error:
            raise SupervisorGaveUp(
                f"pool rebuild after {reason!r} failed: {error!r}"
            ) from error
