"""The process pool the pool executor runs on, and its BLAS pinning.

:class:`WorkerPool` is a :class:`concurrent.futures.ProcessPoolExecutor`
that can kill its own workers — what :class:`repro.core.resilience.
PoolSupervisor` needs to reclaim a stuck job or abandon a run.  It lives
apart from :mod:`repro.core.resilience` so that importing the engine (and
running serial campaigns) never imports ``multiprocessing``; the engine
imports this module when it builds its first pool.

:func:`set_blas_threads` / :func:`blas_threads` reach the thread count
of the BLAS numpy loaded: pool workers pin it to one thread, because
``n`` workers each running a multi-threaded GEMM oversubscribe the cores.
"""

from __future__ import annotations

import ctypes
import functools
import multiprocessing
import os
import time
from collections.abc import Callable
from concurrent.futures import Future, ProcessPoolExecutor
from multiprocessing.queues import SimpleQueue
from typing import Any

__all__ = ["WorkerPool", "blas_threads", "set_blas_threads"]

#: (setter, getter) thread-count symbols of the OpenBLAS builds numpy
#: links: the scipy-openblas wheels (64-bit ints), then plain OpenBLAS
_BLAS_SYMBOLS = (
    ("scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),
    ("scipy_openblas_set_num_threads", "scipy_openblas_get_num_threads"),
    ("openblas_set_num_threads64_", "openblas_get_num_threads64_"),
    ("openblas_set_num_threads", "openblas_get_num_threads"),
)

#: how long :meth:`WorkerPool.kill_workers` waits for started workers to
#: report their pids: ``_REPORT_POLLS`` polls ``_REPORT_POLL_S`` apart
_REPORT_POLLS = 500
_REPORT_POLL_S = 0.01


@functools.cache
def _blas_functions() -> tuple[Any, Any] | None:
    """``(set, get)`` thread-count functions of the BLAS this process
    loaded (found through the mapped shared objects), or ``None``."""
    import numpy  # noqa: F401  -- numpy loads the BLAS under inspection
    try:
        with open("/proc/self/maps", encoding="utf-8") as maps:
            paths = sorted({line.split(None, 5)[5].strip() for line in maps
                            if "blas" in line.rsplit("/", 1)[-1].lower()})
    except OSError:
        return None
    for path in paths:
        try:
            library = ctypes.CDLL(path)
        except OSError:
            continue
        for setter, getter in _BLAS_SYMBOLS:
            if hasattr(library, setter) and hasattr(library, getter):
                return getattr(library, setter), getattr(library, getter)
    return None


def blas_threads() -> int | None:
    """Threads the loaded BLAS uses, or ``None`` if it cannot be found."""
    functions = _blas_functions()
    return None if functions is None else int(functions[1]())


def set_blas_threads(count: int) -> None:
    """Set the loaded BLAS's thread count; a no-op when none is found."""
    functions = _blas_functions()
    if functions is not None:
        functions[0](count)


def _report_pid(pids: SimpleQueue[int], initializer: Callable[..., object],
                initargs: tuple[Any, ...]) -> None:
    """Worker initializer wrapper: announce this worker's pid, then run
    the real initializer (a raising initializer still breaks the pool)."""
    pids.put(os.getpid())
    initializer(*initargs)


class WorkerPool(ProcessPoolExecutor):
    """A :class:`~concurrent.futures.ProcessPoolExecutor` that can kill
    its own workers.

    Python 3.11 has no public way to do that (``kill_workers()`` arrives
    in 3.14), so every worker reports its pid through a queue handed to
    its initializer, and :meth:`kill_workers` SIGKILLs the live children
    with those pids, once every started worker has reported.  Workers
    start by ``fork`` (all of them at the first ``submit``), so
    ``initargs`` reach them as inherited memory, never pickled.
    """

    def __init__(self, max_workers: int, initializer: Callable[..., object],
                 initargs: tuple[Any, ...] = ()) -> None:
        context = multiprocessing.get_context("fork")
        self._pid_queue: SimpleQueue[int] = context.SimpleQueue()
        self._n_workers = max_workers
        self._started = False
        self._pids: set[int] = set()
        super().__init__(max_workers, mp_context=context,
                         initializer=_report_pid,
                         initargs=(self._pid_queue, initializer, initargs))

    def submit(self, fn: Callable[..., Any], /, *args: Any,
               **kwargs: Any) -> Future[Any]:
        future = super().submit(fn, *args, **kwargs)
        self._started = True  # the first submit forked every worker
        return future

    def _reported_pids(self) -> set[int]:
        """Pids of the started workers, waiting (for at most ~5 s) for
        those that forked but have not reported yet.  The wait ends early
        once every live child has reported: a worker the executor
        terminated before it could report is not waited for."""
        expected = self._n_workers if self._started else 0
        for _ in range(_REPORT_POLLS):
            while not self._pid_queue.empty():
                self._pids.add(self._pid_queue.get())
            if len(self._pids) >= expected or all(
                    process.pid in self._pids
                    for process in multiprocessing.active_children()):
                break
            time.sleep(_REPORT_POLL_S)
        return self._pids

    def kill_workers(self) -> None:
        """SIGKILL every worker and shut down without waiting: pending
        futures are cancelled, running ones fail with
        :class:`~concurrent.futures.process.BrokenProcessPool`."""
        pids = self._reported_pids()
        killed = [process for process in multiprocessing.active_children()
                  if process.pid in pids]
        for process in killed:
            process.kill()
        # reap them before returning: the executor's manager thread fails
        # the running futures first and joins its workers only later, so
        # a caller woken by BrokenProcessPool could still see them alive
        for process in killed:
            process.join(timeout=5)
        self.shutdown(wait=False, cancel_futures=True)
