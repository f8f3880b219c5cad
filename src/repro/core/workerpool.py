"""The process pool both pool executors run on.

:class:`WorkerPool` is a :class:`concurrent.futures.ProcessPoolExecutor`
that can kill its own workers — what :class:`repro.core.resilience.
PoolSupervisor` needs to reclaim a stuck job or abandon a run.  It lives
apart from :mod:`repro.core.resilience` so that importing the engine (and
running serial campaigns) never imports ``multiprocessing``; the engine
imports this module when it builds its first pool.
"""

from __future__ import annotations

import multiprocessing
import os
from collections.abc import Callable
from concurrent.futures import ProcessPoolExecutor
from multiprocessing.queues import SimpleQueue
from typing import Any

__all__ = ["WorkerPool"]


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
    with those pids.  The workers fork in the constructor rather than at
    the first ``submit`` (3.11's default), so a caller controls what they
    inherit by controlling when the pool is built.
    """

    def __init__(self, max_workers: int, initializer: Callable[..., object],
                 initargs: tuple[Any, ...] = ()) -> None:
        self._pid_queue: SimpleQueue[int] = multiprocessing.SimpleQueue()
        super().__init__(max_workers, initializer=_report_pid,
                         initargs=(self._pid_queue, initializer, initargs))
        self.submit(os.getpid)  # the first submit forks the workers

    def kill_workers(self) -> None:
        """SIGKILL every worker and shut down without waiting: pending
        futures are cancelled, running ones fail with
        :class:`~concurrent.futures.process.BrokenProcessPool`."""
        pids: set[int] = set()
        while not self._pid_queue.empty():
            pids.add(self._pid_queue.get())
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
