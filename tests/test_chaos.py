"""Chaos suite: every engine recovery path converges to the serial
ground truth.

The chaos executors (repro.testing.chaos) SIGKILL workers, poison jobs,
break initializers, and stall cells at chosen grid coordinates; these
tests assert the campaigns still complete — bit-identical to the serial
executor wherever a cell completes at all — and that the supervision
layer reports what happened through typed events and result meta.
"""

from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest

from repro import nn
from repro.binary import QuantDense
from repro.core import (FaultCampaign, FaultSpec, RetryPolicy,
                        SupervisorGaveUp)
from repro.testing import (ChaosMultiprocessingExecutor,
                           ChaosSharedMemoryExecutor, ChaosSpec)


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


KWARGS = dict(xs=[0.0, 0.3, 0.45], repeats=2, seed=7)


@pytest.fixture(scope="module")
def reference(trained_setup):
    """Serial ground truth for the 3x2 grid every chaos run must match."""
    model, x, y = trained_setup
    return FaultCampaign(model, x, y, rows=8, cols=4, batch_size=25).run(
        FaultSpec.bitflip, **KWARGS)


def _policy(**overrides):
    """Fast-converging test policy (no backoff, short watchdog)."""
    kwargs = dict(max_attempts=3, backoff=0.0, stall_timeout=1.0,
                  max_rebuilds=1)
    kwargs.update(overrides)
    return RetryPolicy(**kwargs)


def _campaign(trained_setup, executor):
    model, x, y = trained_setup
    return FaultCampaign(model, x, y, rows=8, cols=4, batch_size=25,
                         executor=executor)


def _attachable(name: str) -> bool:
    from multiprocessing import shared_memory
    try:
        shm = shared_memory.SharedMemory(name=name)
    except FileNotFoundError:
        return False
    shm.close()
    return True


# -- acceptance: SIGKILL mid-grid, no manual resume ------------------------

def test_sigkill_mid_grid_completes_bit_identical(trained_setup, reference,
                                                  tmp_path):
    chaos = ChaosSpec(scratch=str(tmp_path), kill_job=(1, 0))
    executor = ChaosMultiprocessingExecutor(n_jobs=2, policy=_policy(),
                                            chaos=chaos)
    result = _campaign(trained_setup, executor).run(FaultSpec.bitflip,
                                                    **KWARGS)
    np.testing.assert_array_equal(result.accuracies, reference.accuracies)
    assert executor.resilience["workers_lost"] >= 1
    assert result.meta["resilience"]["workers_lost"] >= 1
    assert result.meta["resilience"]["quarantined"] == []


def test_sigkill_under_shared_memory_releases_planes(trained_setup,
                                                     reference, tmp_path):
    chaos = ChaosSpec(scratch=str(tmp_path), kill_job=(2, 1))
    executor = ChaosSharedMemoryExecutor(n_jobs=2, policy=_policy(),
                                         chaos=chaos)
    campaign = _campaign(trained_setup, executor)
    result = campaign.run(FaultSpec.bitflip, **KWARGS)
    np.testing.assert_array_equal(result.accuracies, reference.accuracies)
    assert executor.resilience["workers_lost"] >= 1
    names = [shm.name for shm in executor._registry._owned]
    assert names and all(_attachable(name) for name in names)
    campaign.close()
    assert not any(_attachable(name) for name in names)


def test_sigkill_without_policy_raises_instead_of_hanging(trained_setup,
                                                          tmp_path):
    """Legacy ``policy=None``: the first failure raises, and a lost
    worker is a failure — the run must not wait for a result the dead
    worker will never send."""
    chaos = ChaosSpec(scratch=str(tmp_path), kill_job=(1, 0))
    executor = ChaosMultiprocessingExecutor(n_jobs=2, policy=None,
                                            chaos=chaos)
    with pytest.raises(BrokenProcessPool):
        _campaign(trained_setup, executor).run(FaultSpec.bitflip, **KWARGS)


# -- acceptance: poison job quarantined, not fatal -------------------------

def test_poison_job_quarantined_with_typed_events(trained_setup, reference,
                                                  tmp_path):
    chaos = ChaosSpec(scratch=str(tmp_path), poison_job=(2, 0))
    executor = ChaosMultiprocessingExecutor(n_jobs=2, policy=_policy(),
                                            chaos=chaos)
    events = []
    executor.on_event = events.append
    result = _campaign(trained_setup, executor).run(FaultSpec.bitflip,
                                                    **KWARGS)
    assert np.isnan(result.accuracies[2, 0])
    mask = ~np.isnan(result.accuracies)
    np.testing.assert_array_equal(result.accuracies[mask],
                                  reference.accuracies[mask])
    assert result.meta["resilience"]["quarantined"] == [(2, 0)]
    kinds = [type(e).__name__ for e in events]
    assert kinds.count("JobRetried") == 2  # attempts 1 and 2 failed
    assert "JobQuarantined" in kinds


def test_transient_failure_retried_without_quarantine(trained_setup,
                                                      reference, tmp_path):
    chaos = ChaosSpec(scratch=str(tmp_path), fail_job=(1, 1))
    executor = ChaosMultiprocessingExecutor(n_jobs=2, policy=_policy(),
                                            chaos=chaos)
    result = _campaign(trained_setup, executor).run(FaultSpec.bitflip,
                                                    **KWARGS)
    np.testing.assert_array_equal(result.accuracies, reference.accuracies)
    assert executor.resilience["retries"] == 1
    assert executor.resilience["quarantined"] == []


# -- per-job wall-clock timeouts ------------------------------------------

def test_stuck_job_times_out_and_retries(trained_setup, reference,
                                         tmp_path):
    chaos = ChaosSpec(scratch=str(tmp_path), slow_job=(0, 1),
                      slow_seconds=30.0)
    executor = ChaosMultiprocessingExecutor(
        n_jobs=2, policy=_policy(job_timeout=1.0, stall_timeout=5.0),
        chaos=chaos)
    result = _campaign(trained_setup, executor).run(FaultSpec.bitflip,
                                                    **KWARGS)
    np.testing.assert_array_equal(result.accuracies, reference.accuracies)
    assert executor.resilience["timeouts"] >= 1
    assert executor.resilience["quarantined"] == []


# -- the degradation ladder -----------------------------------------------

def test_broken_shm_initializer_degrades_to_multiprocessing(
        trained_setup, reference, tmp_path):
    chaos = ChaosSpec(scratch=str(tmp_path),
                      fail_init_modes=("shared_memory",))
    executor = ChaosSharedMemoryExecutor(n_jobs=2, policy=_policy(),
                                         chaos=chaos)
    result = _campaign(trained_setup, executor).run(FaultSpec.bitflip,
                                                    **KWARGS)
    np.testing.assert_array_equal(result.accuracies, reference.accuracies)
    assert result.meta["resilience"]["degraded"] == \
        ["shared_memory->multiprocessing"]
    assert executor._registry is None  # the failed rung's planes released


def test_unlinked_plane_mid_run_degrades_and_completes(trained_setup,
                                                       reference, tmp_path):
    """Someone unlinks a shared plane mid-run; the killed worker's
    respawn can't re-attach, the rung gives up, the run still
    converges.  The kill targets the last cell: it is dispatched only
    after this test resumes the stream, i.e. strictly post-unlink."""
    chaos = ChaosSpec(scratch=str(tmp_path), kill_job=(2, 1))
    executor = ChaosSharedMemoryExecutor(n_jobs=2, policy=_policy(),
                                         chaos=chaos)
    campaign = _campaign(trained_setup, executor)
    evaluator = campaign._evaluator
    from repro.core import build_jobs
    jobs = build_jobs(campaign.model, FaultSpec.bitflip, KWARGS["xs"],
                      KWARGS["repeats"], KWARGS["seed"], 8, 4)
    stream = executor.run_iter(jobs, evaluator)
    results = [next(stream)]
    # rip a plane out from under the campaign (not via the registry)
    executor._registry._owned[0].unlink()
    results.extend(stream)
    assert len(results) == len(jobs)
    by_coord = {(i, j): a for i, j, a in results}
    for i in range(3):
        for j in range(2):
            assert by_coord[(i, j)] == reference.accuracies[i, j]
    assert any(d.startswith("shared_memory->")
               for d in executor.resilience["degraded"])


def test_no_degrade_raises_supervisor_gave_up(trained_setup, tmp_path):
    import os

    chaos = ChaosSpec(scratch=str(tmp_path),
                      fail_init_modes=("shared_memory",))
    executor = ChaosSharedMemoryExecutor(
        n_jobs=2, policy=_policy(degrade=False), chaos=chaos)
    campaign = _campaign(trained_setup, executor)
    # compare against pre-existing blocks: other processes own /dev/shm
    # entries too, so only *new* leftovers count as leaks
    shm_dir = "/dev/shm"
    before = set(os.listdir(shm_dir)) if os.path.isdir(shm_dir) else None
    with pytest.raises(SupervisorGaveUp):
        campaign.run(FaultSpec.bitflip, **KWARGS)
    assert executor._registry is None  # no leak on the failure path
    if before is not None:
        assert set(os.listdir(shm_dir)) - before == set()
    # nothing stale survives the crash: the next run republishes planes
    # from scratch rather than reusing the dead run's fingerprint
    payload, cleanup = executor._make_payload(campaign._evaluator)
    try:
        assert executor.prefix_plane["reused"] is False
    finally:
        cleanup(False)


# -- journaled chaos runs -------------------------------------------------

def test_journaled_chaos_run_records_events_and_resumes(trained_setup,
                                                        reference, tmp_path):
    import json

    from repro.testing import truncate_last_line

    chaos = ChaosSpec(scratch=str(tmp_path / "scratch"), kill_job=(0, 0))
    (tmp_path / "scratch").mkdir()
    journal = tmp_path / "sweep.jsonl"
    executor = ChaosMultiprocessingExecutor(n_jobs=2, policy=_policy(),
                                            chaos=chaos)
    model, x, y = trained_setup
    campaign = FaultCampaign(model, x, y, rows=8, cols=4, batch_size=25,
                             executor=executor)
    result = campaign.run(FaultSpec.bitflip, journal=journal, **KWARGS)
    np.testing.assert_array_equal(result.accuracies, reference.accuracies)
    lines = [json.loads(line) for line in journal.read_text().splitlines()]
    events = [line for line in lines if line.get("kind") == "event"]
    assert any(line["event"] == "WorkerLost" for line in events)

    # tear the journal's tail (kill -9 mid-append) and resume serially
    truncate_last_line(journal)
    resumed = FaultCampaign(model, x, y, rows=8, cols=4, batch_size=25).run(
        FaultSpec.bitflip, journal=journal, **KWARGS)
    assert resumed.meta["resumed_cells"] == 6 - 1
    np.testing.assert_array_equal(resumed.accuracies, reference.accuracies)


# -- request/CLI knob plumbing --------------------------------------------

def test_cli_flags_arm_the_retry_policy():
    from repro.api import RunRequest
    from repro.cli import build_parser

    args = build_parser().parse_args(
        ["run", "sweep", "--retries", "1", "--job-timeout", "2.5",
         "--no-degrade"])
    assert (args.retries, args.job_timeout, args.no_degrade) == \
        (1, 2.5, True)
    request = RunRequest("sweep", retries=args.retries,
                         job_timeout=args.job_timeout,
                         degrade=not args.no_degrade)
    policy = request.retry_policy()
    assert policy.max_attempts == 2
    assert policy.job_timeout == 2.5
    assert policy.degrade is False
    assert request.engine()["retries"] == 1


def test_request_rejects_bad_resilience_knobs():
    from repro.api import ApiError, RunRequest

    with pytest.raises(ApiError, match="retries"):
        RunRequest("sweep", retries=-1)
    with pytest.raises(ApiError, match="job_timeout"):
        RunRequest("sweep", job_timeout=0)
