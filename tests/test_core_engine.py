"""Tests for the job-based campaign engine (executors, caching, seeding)."""

import numpy as np
import pytest

from repro import nn
from repro.binary import QuantDense
from repro.core import (CampaignEvaluator, FaultCampaign, FaultGenerator,
                        FaultInjector, FaultSpec, MultiprocessingExecutor,
                        SerialExecutor, SharedMemoryExecutor, build_jobs,
                        get_executor, plan_has_faults)


@pytest.fixture(scope="module")
def trained_setup():
    """A tiny trained BNN on a separable task, with held-out data."""
    rng = np.random.default_rng(0)
    n = 400
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
    trainer.fit(model, x[:300], y[:300], epochs=25, batch_size=32)
    return model, x[300:], y[300:]


def test_build_jobs_flattens_grid_with_plans(trained_setup):
    model, _, _ = trained_setup
    xs = [0.0, 0.25, 0.5]
    jobs = build_jobs(model, FaultSpec.bitflip, xs, repeats=4, seed=7,
                      rows=8, cols=4)
    assert len(jobs) == len(xs) * 4
    coords = {(job.point_index, job.repeat_index) for job in jobs}
    assert coords == {(i, j) for i in range(3) for j in range(4)}
    for job in jobs:
        assert job.seed == FaultGenerator.job_seed(7, job.point_index,
                                                   job.repeat_index)
        assert job.x_value == xs[job.point_index]
        # plans are pre-generated, one mask set per mapped layer
        assert set(job.plan) == {layer.name for layer in model.layers
                                 if isinstance(layer, QuantDense)}


def test_job_seed_matches_seed_engine_formula():
    assert FaultGenerator.job_seed(3, 2, 5) == 3 + 7919 * 5 + 104729 * 2


def test_plan_has_faults(trained_setup):
    model, _, _ = trained_setup
    empty = build_jobs(model, FaultSpec.bitflip, [0.0], 1, 0, 8, 4)[0].plan
    faulty = build_jobs(model, FaultSpec.bitflip, [0.5], 1, 0, 8, 4)[0].plan
    assert not plan_has_faults(empty)
    assert plan_has_faults(faulty)


def test_engine_matches_legacy_triple_loop(trained_setup):
    """The job engine must reproduce the seed engine's loop bit-for-bit."""
    model, x, y = trained_setup
    xs = [0.0, 0.3]
    repeats = 3
    injector = FaultInjector(True)
    legacy = np.zeros((len(xs), repeats))
    for i, x_value in enumerate(xs):
        for j in range(repeats):
            generator = FaultGenerator(FaultSpec.bitflip(x_value), rows=8,
                                       cols=4, seed=7919 * j + 104729 * i)
            with injector.injecting(model, generator.generate(model)):
                legacy[i, j] = model.evaluate(x, y)
    campaign = FaultCampaign(model, x, y, rows=8, cols=4)
    result = campaign.run(FaultSpec.bitflip, xs=xs, repeats=repeats, seed=0)
    np.testing.assert_array_equal(result.accuracies, legacy)


def test_serial_and_multiprocessing_bit_identical(trained_setup):
    model, x, y = trained_setup
    kwargs = dict(xs=[0.0, 0.2, 0.4], repeats=3, seed=11)
    serial = FaultCampaign(model, x, y, rows=8, cols=4,
                           executor="serial").run(FaultSpec.bitflip, **kwargs)
    parallel = FaultCampaign(model, x, y, rows=8, cols=4,
                             executor="multiprocessing",
                             n_jobs=2).run(FaultSpec.bitflip, **kwargs)
    np.testing.assert_array_equal(serial.accuracies, parallel.accuracies)
    assert serial.baseline == parallel.baseline
    assert parallel.meta["executor"] == "multiprocessing"


def test_shared_memory_bit_identical_to_serial(trained_setup):
    """The zero-copy shm executor must match serial on both backends."""
    model, x, y = trained_setup
    kwargs = dict(xs=[0.0, 0.2, 0.4], repeats=3, seed=11)
    serial = FaultCampaign(model, x, y, rows=8, cols=4,
                           executor="serial").run(FaultSpec.bitflip, **kwargs)
    for backend in ("float", "packed"):
        campaign = FaultCampaign(model, x, y, rows=8, cols=4,
                                 executor="shared_memory", n_jobs=2,
                                 backend=backend)
        result = campaign.run(FaultSpec.bitflip, **kwargs)
        np.testing.assert_array_equal(serial.accuracies, result.accuracies)
        assert serial.baseline == result.baseline
        assert result.meta["executor"] == "shared_memory"


def test_shared_memory_payload_smaller_than_pickled(trained_setup):
    """The shm payload must not scale with the test set: it ships block
    descriptors, not arrays."""
    model, x, y = trained_setup
    kwargs = dict(xs=[0.0, 0.3], repeats=2, seed=1)
    sizes = {}
    for executor in ("multiprocessing", "shared_memory"):
        campaign = FaultCampaign(model, x, y, rows=8, cols=4,
                                 executor=executor, n_jobs=2)
        campaign.run(FaultSpec.bitflip, **kwargs)
        sizes[executor] = campaign._executor.payload_bytes
    assert sizes["shared_memory"] < sizes["multiprocessing"]
    # the gap is at least the test-set arrays themselves
    assert sizes["multiprocessing"] - sizes["shared_memory"] > x.nbytes // 2


def test_batch_level_split_when_grid_underfills_pool(trained_setup):
    """A single-job grid on a 2-worker pool must shard test batches and
    reduce integer counts to the exact unsharded accuracy."""
    model, x, y = trained_setup
    kwargs = dict(xs=[0.35], repeats=1, seed=11)
    serial = FaultCampaign(model, x, y, rows=8, cols=4,
                           batch_size=16).run(FaultSpec.bitflip, **kwargs)
    for executor in ("multiprocessing", "shared_memory"):
        campaign = FaultCampaign(model, x, y, rows=8, cols=4, batch_size=16,
                                 executor=executor, n_jobs=2)
        assert campaign._executor._shard_count(1, 7) == 2
        result = campaign.run(FaultSpec.bitflip, **kwargs)
        np.testing.assert_array_equal(serial.accuracies, result.accuracies)
        # the sharded path really ran through the pool, not the fallback
        assert campaign._executor.payload_bytes > 0


def test_shard_counts_sum_to_full_evaluation(trained_setup):
    """evaluate_plan_counts shards partition the batches exactly."""
    model, x, y = trained_setup
    evaluator = CampaignEvaluator(model, x, y, batch_size=16)
    plan = build_jobs(model, FaultSpec.bitflip, [0.4], 1, 3, 8, 4)[0].plan
    full_correct, full_total = evaluator.evaluate_plan_counts(plan)
    assert full_total == len(x)
    assert full_correct / full_total == evaluator.evaluate_plan(plan)
    for n_shards in (2, 3):
        parts = [evaluator.evaluate_plan_counts(plan, shard, n_shards)
                 for shard in range(n_shards)]
        assert sum(c for c, _ in parts) == full_correct
        assert sum(t for _, t in parts) == full_total


def test_shard_count_policy():
    executor = MultiprocessingExecutor(n_jobs=4)
    assert executor._shard_count(0, 10) == 1   # nothing to run
    assert executor._shard_count(8, 10) == 1   # grid already fills the pool
    assert executor._shard_count(1, 1) == 1    # a single batch cannot split
    assert executor._shard_count(1, 10) == 4   # 1 job on 4 workers
    assert executor._shard_count(3, 10) == 2   # 3 jobs on 4 workers
    assert executor._shard_count(1, 3) == 3    # capped by batch count


def test_multiprocessing_preserves_caller_caches(trained_setup):
    """Spinning up a pool must not discard the caller's warm layer caches
    (mixed serial/parallel use would otherwise thrash them)."""
    model, x, y = trained_setup
    # packed backend: dense layers memoize their packed input words (the
    # float dense path derives nothing cacheable)
    evaluator = CampaignEvaluator(model, x, y, backend="packed")
    evaluator.baseline()  # warm prefix activations + layer input caches
    jobs = build_jobs(model, FaultSpec.bitflip, [0.3], 2, 0, 8, 4)
    evaluator.evaluate_plan(jobs[0].plan)  # warm packed-kernel caches too
    warm_inputs = {layer.name: layer._input_cache.entries()
                   for layer in model.layers_of_type(QuantDense)}
    assert any(warm_inputs.values()), "test premise: caches must be warm"
    MultiprocessingExecutor(n_jobs=2).run(jobs, evaluator)
    for layer in model.layers_of_type(QuantDense):
        assert layer._input_cache.entries() == warm_inputs[layer.name]


def _worker_cache_entries(job):
    """Pool probe in place of an evaluation: the input-cache entries the
    worker's model holds before it has evaluated anything itself."""
    from repro.core import engine
    entries = sum(len(layer._input_cache.entries()) for layer in
                  engine._WORKER_EVALUATOR.model.layers_of_type(QuantDense))
    return job.point_index, job.repeat_index, float(entries)


class _CacheProbeExecutor(MultiprocessingExecutor):
    def _pool_functions(self, mode):
        return _worker_cache_entries, _worker_cache_entries


def test_pool_workers_do_not_inherit_caller_caches(trained_setup):
    """Workers fork while the caller's warm caches are stashed away, not
    at the first job dispatch after they are restored."""
    model, x, y = trained_setup
    evaluator = CampaignEvaluator(model, x, y, backend="packed")
    evaluator.baseline()  # warm the caller's layer input caches
    assert any(layer._input_cache.entries()
               for layer in model.layers_of_type(QuantDense))
    jobs = build_jobs(model, FaultSpec.bitflip, [0.3], 2, 0, 8, 4)
    results = _CacheProbeExecutor(n_jobs=2).run(jobs, evaluator)
    assert [entries for _, _, entries in results] == [0.0, 0.0]


def test_evaluator_snapshot_immune_to_caller_mutation(trained_setup):
    """Mutating the caller's arrays after construction must not desync the
    evaluator's cached prefix activations from its labels/data."""
    model, x, y = trained_setup
    x_arg, y_arg = x.copy(), y.copy()
    evaluator = CampaignEvaluator(model, x_arg, y_arg)
    before = evaluator.baseline()
    rng = np.random.default_rng(99)
    x_arg[:] = rng.choice([-1.0, 1.0], size=x_arg.shape)
    y_arg[:] = 1 - y_arg
    evaluator.clear_caches()  # even recomputation must use the snapshot
    assert evaluator.baseline() == before
    plan = build_jobs(model, FaultSpec.bitflip, [0.3], 1, 5, 8, 4)[0].plan
    fresh = CampaignEvaluator(model, x.copy(), y.copy())
    assert evaluator.evaluate_plan(plan) == fresh.evaluate_plan(plan)


def test_repro_n_jobs_env_default(monkeypatch):
    monkeypatch.setenv("REPRO_N_JOBS", "2")
    assert MultiprocessingExecutor().n_jobs == 2
    assert SharedMemoryExecutor().n_jobs == 2
    monkeypatch.delenv("REPRO_N_JOBS")
    assert MultiprocessingExecutor(3).n_jobs == 3


def test_executors_stream_results(trained_setup):
    """run_iter yields (point, repeat, accuracy) cells incrementally."""
    model, x, y = trained_setup
    jobs = build_jobs(model, FaultSpec.bitflip, [0.0, 0.3], 2, 0, 8, 4)
    evaluator = CampaignEvaluator(model, x, y)
    expected = {(job.point_index, job.repeat_index) for job in jobs}
    for executor in (SerialExecutor(), SharedMemoryExecutor(n_jobs=2)):
        seen = {(i, j): acc for i, j, acc in
                executor.run_iter(jobs, evaluator)}
        assert set(seen) == expected


def test_float_and_packed_campaigns_bit_identical(trained_setup):
    model, x, y = trained_setup
    kwargs = dict(xs=[0.0, 0.3], repeats=3, seed=5)
    float_result = FaultCampaign(model, x, y, rows=8, cols=4,
                                 backend="float").run(FaultSpec.bitflip,
                                                      **kwargs)
    packed_result = FaultCampaign(model, x, y, rows=8, cols=4,
                                  backend="packed").run(FaultSpec.bitflip,
                                                        **kwargs)
    np.testing.assert_array_equal(float_result.accuracies,
                                  packed_result.accuracies)
    assert float_result.baseline == packed_result.baseline


def test_campaign_restores_model_backend(trained_setup):
    """Campaigns may not permanently re-mode a shared model."""
    model, x, y = trained_setup
    campaign = FaultCampaign(model, x, y, rows=8, cols=4, backend="packed")
    campaign.run(FaultSpec.bitflip, xs=[0.3], repeats=2)
    for layer in model.layers_of_type(QuantDense):
        assert layer.execution_backend == "float"


def test_stale_caches_dropped_after_weight_change(trained_setup):
    """In-place weight updates must invalidate baseline/prefix caches."""
    model, x, y = trained_setup
    state = {key: value.copy() for key, value in model.state_dict().items()}
    try:
        campaign = FaultCampaign(model, x, y, rows=8, cols=4)
        before = campaign.baseline_accuracy()
        assert before == model.evaluate(x, y)
        trainer = nn.Trainer(nn.Adam(0.05), seed=1)
        trainer.fit(model, x, (1 - y), epochs=3, batch_size=32)  # unlearn
        after = campaign.baseline_accuracy()
        assert after == model.evaluate(x, y)
        assert after != before
    finally:
        model.load_state_dict(state)


def test_baseline_computed_once_and_reused(trained_setup, monkeypatch):
    model, x, y = trained_setup
    campaign = FaultCampaign(model, x, y, rows=8, cols=4)
    calls = {"n": 0}
    original = CampaignEvaluator._evaluate_suffix

    def counting(self, split):
        calls["n"] += 1
        return original(self, split)

    monkeypatch.setattr(CampaignEvaluator, "_evaluate_suffix", counting)
    first = campaign.baseline_accuracy()
    assert calls["n"] == 1
    assert campaign.baseline_accuracy() == first
    assert calls["n"] == 1  # cached, not recomputed
    # a run() with only fault-free points adds no further evaluations
    result = campaign.run(FaultSpec.bitflip, xs=[0.0], repeats=4)
    assert calls["n"] == 1
    np.testing.assert_allclose(result.accuracies, first)


def test_rate_zero_point_reuses_baseline_bitwise(trained_setup):
    model, x, y = trained_setup
    campaign = FaultCampaign(model, x, y, rows=8, cols=4)
    result = campaign.run(FaultSpec.bitflip, xs=[0.0, 0.4], repeats=3)
    assert (result.accuracies[0] == result.baseline).all()


def test_evaluator_prefix_cache_is_read_only(trained_setup):
    model, x, y = trained_setup
    evaluator = CampaignEvaluator(model, x, y)
    batches = evaluator._batches_for(0)
    assert all(not z.flags.writeable for z, _ in batches)
    # cached: same objects on the second request
    assert evaluator._batches_for(0)[0][0] is batches[0][0]


def test_get_executor_resolution():
    assert isinstance(get_executor("serial"), SerialExecutor)
    executor = get_executor("multiprocessing", n_jobs=3)
    assert isinstance(executor, MultiprocessingExecutor)
    assert executor.n_jobs == 3
    passthrough = SerialExecutor()
    assert get_executor(passthrough) is passthrough
    with pytest.raises(ValueError):
        get_executor("threads")


def test_unknown_backend_rejected(trained_setup):
    model, x, y = trained_setup
    with pytest.raises(ValueError):
        FaultCampaign(model, x, y, backend="quantum")


def test_campaign_leaves_model_unfaulted(trained_setup):
    model, x, y = trained_setup
    campaign = FaultCampaign(model, x, y, rows=8, cols=4, backend="packed")
    campaign.run(FaultSpec.bitflip, xs=[0.4], repeats=2)
    for layer in model.layers_of_type(QuantDense):
        assert layer.output_fault_hook is None
        assert layer.kernel_fault_hook is None


def test_clear_caches_releases_memoized_state(trained_setup):
    model, x, y = trained_setup
    campaign = FaultCampaign(model, x, y, rows=8, cols=4)
    campaign.run(FaultSpec.bitflip, xs=[0.0, 0.3], repeats=2)
    assert campaign._evaluator._suffix_batches
    campaign.clear_caches()
    assert not campaign._evaluator._suffix_batches
    assert campaign._evaluator._baseline is None
    for layer in model.layers_of_type(QuantDense):
        assert len(layer._input_cache) == 0
