"""The pool's shared state: workers fork from a warm parent evaluator,
never recompute the fault-free prefix, publish nothing to ``/dev/shm``,
and leave no worker behind when a run fails or is abandoned."""

import multiprocessing
import os
import time
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest

from repro import nn
from repro.binary import QuantConv2D, QuantDense
from repro.core import (CampaignEvaluator, FaultCampaign, FaultSpec,
                        SharedMemoryExecutor, build_jobs)
from repro.core import engine as engine_mod


@pytest.fixture(scope="module")
def trained_setup():
    """A tiny trained BNN with enough test data for 12 batches of 25."""
    rng = np.random.default_rng(0)
    n = 600
    x = rng.choice([-1.0, 1.0], size=(n, 16)).astype(np.float32)
    y = (x[:, :8].sum(axis=1) > 0).astype(int)
    model = nn.Sequential([
        QuantDense(32, input_quantizer="ste_sign", kernel_quantizer="ste_sign"),
        nn.BatchNorm(),
        nn.Sign(),
        QuantDense(2, input_quantizer="ste_sign", kernel_quantizer="ste_sign"),
        nn.BatchNorm(),
    ]).build((16,), seed=0)
    trainer = nn.Trainer(nn.Adam(0.01), seed=0)
    trainer.fit(model, x[:300], y[:300], epochs=15, batch_size=32)
    return model, x[300:], y[300:]


def _recording(monkeypatch, name: str, log):
    """Patch ``CampaignEvaluator.<name>`` to append the calling pid to
    ``log``; workers fork after the patch, so they inherit it."""
    original = getattr(CampaignEvaluator, name)

    def recorded(self, *args, **kwargs):
        with open(log, "a", encoding="utf-8") as handle:
            handle.write(f"{os.getpid()}\n")
        return original(self, *args, **kwargs)
    monkeypatch.setattr(CampaignEvaluator, name, recorded)


def _pids(log) -> set[int]:
    return {int(line) for line in log.read_text().split()} \
        if log.exists() else set()


@pytest.mark.parametrize("xs, repeats", [([0.0, 0.3, 0.45], 2),  # per job
                                         ([0.3], 1)],            # sharded
                         ids=["jobs", "shards"])
def test_pool_workers_never_recompute_the_prefix(trained_setup, tmp_path,
                                                 monkeypatch, xs, repeats):
    model, x, y = trained_setup
    kwargs = dict(xs=xs, repeats=repeats, seed=3)
    serial = FaultCampaign(model, x, y, rows=8, cols=4,
                           batch_size=25).run(FaultSpec.bitflip, **kwargs)
    prefix_log, suffix_log = tmp_path / "prefix", tmp_path / "suffix"
    _recording(monkeypatch, "_compute_batches", prefix_log)
    _recording(monkeypatch, "_suffix_counts", suffix_log)
    with FaultCampaign(model, x, y, rows=8, cols=4, batch_size=25,
                       executor="shared_memory", n_jobs=2) as campaign:
        result = campaign.run(FaultSpec.bitflip, **kwargs)
    np.testing.assert_array_equal(result.accuracies, serial.accuracies)
    # the cells ran in workers, and only the parent computed a prefix
    assert _pids(suffix_log) - {os.getpid()}
    assert _pids(prefix_log) == {os.getpid()}


def _psm_blocks() -> set[str]:
    return {name for name in os.listdir("/dev/shm")
            if name.startswith("psm_")}


def _worker_hit_rate(job):
    """Pool probe: run ``job`` on the worker's inherited evaluator and
    return the hit rate of the lookups that evaluation made itself."""
    evaluator = engine_mod._WORKER_EVALUATOR
    before = evaluator.input_cache_stats()
    evaluator.run_job(job)
    after = evaluator.input_cache_stats()
    hits = after["hits"] - before["hits"]
    misses = after["misses"] - before["misses"]
    return job.point_index, job.repeat_index, \
        hits / (hits + misses) if hits + misses else 0.0


class _HitRateProbeExecutor(SharedMemoryExecutor):
    def _pool_functions(self, mode):
        return _worker_hit_rate, _worker_hit_rate


def test_cols_rep_planes_published():
    """A conv split layer's im2col (``"cols"``) matrices reach the
    workers with the parent's warm evaluator: every lookup a worker's
    first evaluation makes is already a hit."""
    rng = np.random.default_rng(0)
    x = rng.choice([-1.0, 1.0], size=(300, 6, 6, 2)).astype(np.float32)
    y = rng.integers(0, 2, size=300)
    model = nn.Sequential([
        QuantConv2D(4, 3, input_quantizer="ste_sign",
                    kernel_quantizer="ste_sign"),
        nn.Flatten(),
        QuantDense(2, input_quantizer="ste_sign", kernel_quantizer="ste_sign"),
    ]).build((6, 6, 2), seed=0)
    evaluator = CampaignEvaluator(model, x, y, batch_size=25)
    jobs = build_jobs(model, FaultSpec.bitflip, [0.3], 2, 0, 8, 4)
    results = _HitRateProbeExecutor(n_jobs=2).run(jobs, evaluator)
    cols = [entry for entry in model.layers[0]._input_cache.entries()
            if entry[1] == "cols"]
    assert len(cols) == 12  # one per test batch, warmed by the parent
    assert [rate for _, _, rate in results] == [1.0, 1.0]


@pytest.mark.skipif(not os.path.isdir("/dev/shm"), reason="no /dev/shm")
def test_pool_run_creates_no_shm_blocks(trained_setup):
    """Workers inherit the parent's memory by fork: a pool run creates no
    ``multiprocessing.shared_memory`` block, mid-run or after."""
    model, x, y = trained_setup
    before = _psm_blocks()
    evaluator = CampaignEvaluator(model, x, y, batch_size=25)
    jobs = build_jobs(model, FaultSpec.bitflip, [0.3, 0.4], 3, 0, 8, 4)
    stream = SharedMemoryExecutor(n_jobs=2).run_iter(jobs, evaluator)
    results = [next(stream)]
    assert _psm_blocks() - before == set()
    results.extend(stream)
    assert len(results) == len(jobs)
    assert _psm_blocks() - before == set()


def _crash(job):  # module-level: must pickle by reference into workers
    raise RuntimeError("worker died")


def _running(pid: int) -> bool:
    """Whether ``pid`` runs (neither exited nor a zombie), asked of the
    kernel: a ``Process`` object can still report a child alive after
    the executor's own thread reaped it."""
    try:
        with open(f"/proc/{pid}/stat", encoding="utf-8") as stat:
            return stat.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


def _worker_pids() -> set[int]:
    return {child.pid for child in multiprocessing.active_children()
            if _running(child.pid)}


def _left_behind(before: set[int]) -> set[int]:
    """Workers started since ``before`` still running ~10 s on (a pool
    shut down without ``kill_workers`` lets its workers exit on their
    own, a moment later)."""
    for _ in range(200):
        left = _worker_pids() - before
        if not left:
            break
        time.sleep(0.05)
    return left


@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="no /proc")
def test_worker_error_aborts_pool_run(trained_setup, monkeypatch):
    """Without a retry policy a failing job aborts the run, and the run
    leaves no worker behind."""
    model, x, y = trained_setup
    monkeypatch.setattr(engine_mod, "_run_worker_job", _crash)
    evaluator = CampaignEvaluator(model, x, y, batch_size=25)
    jobs = build_jobs(model, FaultSpec.bitflip, [0.3, 0.4], 2, 0, 8, 4)
    before = _worker_pids()
    with pytest.raises(RuntimeError, match="worker died"):
        SharedMemoryExecutor(n_jobs=2).run(jobs, evaluator)
    assert _left_behind(before) == set()


@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="no /proc")
def test_abandoned_pool_run_leaves_no_workers(trained_setup):
    """Abandoning the streaming iterator mid-run (the KeyboardInterrupt /
    generator-close path) kills the pool's workers."""
    model, x, y = trained_setup
    evaluator = CampaignEvaluator(model, x, y, batch_size=25)
    jobs = build_jobs(model, FaultSpec.bitflip, [0.3, 0.4], 3, 0, 8, 4)
    before = _worker_pids()
    stream = SharedMemoryExecutor(n_jobs=2).run_iter(jobs, evaluator)
    next(stream)
    assert _worker_pids() - before
    stream.close()  # what an interrupt's stack unwind does to the generator
    assert _left_behind(before) == set()


@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="no /proc")
def test_kill_workers_kills_workers_still_starting_up(monkeypatch):
    """A worker that forked but has not reported its pid yet is killed
    too: ``kill_workers`` waits for every started worker's report."""
    from repro.core import workerpool

    report = workerpool._report_pid

    def slow_report(pids, initializer, initargs):
        time.sleep(1.0)
        report(pids, initializer, initargs)

    # workers fork after the patch, so they inherit it
    monkeypatch.setattr(workerpool, "_report_pid", slow_report)
    before = _worker_pids()
    pool = workerpool.WorkerPool(2, abs, (0,))
    pool.submit(abs, 0)
    workers = _worker_pids() - before
    assert len(workers) == 2
    pool.kill_workers()
    assert not [pid for pid in workers if _running(pid)]


def test_kill_workers_does_not_wait_for_workers_that_died_unreported(
        monkeypatch):
    """Workers that exit before reporting their pid (as the executor
    terminates a breaking pool's workers) do not hold ``kill_workers``
    up for its whole report deadline."""
    from repro.core import workerpool

    def die(pids, initializer, initargs):
        os._exit(1)

    monkeypatch.setattr(workerpool, "_report_pid", die)
    pool = workerpool.WorkerPool(2, abs, (0,))
    with pytest.raises(BrokenProcessPool):
        pool.submit(abs, 0).result(timeout=30)
    start = time.perf_counter()
    pool.kill_workers()
    assert time.perf_counter() - start < 2.5


# -- derived prefix batches -----------------------------------------------

def test_sharded_batches_are_views_of_the_full_split(trained_setup):
    model, x, y = trained_setup
    evaluator = CampaignEvaluator(model, x, y, batch_size=25)
    full = evaluator._batches_for(0)
    shard = evaluator._batches_for(0, shard=1, n_shards=2)
    assert all(a is b for (a, _), (b, _) in zip(shard, full[1::2]))


def test_deeper_split_derived_from_cached_base_is_identical(trained_setup):
    model, x, y = trained_setup
    warm = CampaignEvaluator(model, x, y, batch_size=25)
    warm._batches_for(0)  # e.g. the baseline split a worker inherits
    derived = warm._batches_for(3)
    cold = CampaignEvaluator(model, x, y, batch_size=25)
    scratch = cold._batches_for(3)
    assert len(derived) == len(scratch)
    for (a, la), (b, lb) in zip(derived, scratch):
        assert np.array_equal(a, b)
        assert np.array_equal(la, lb)
