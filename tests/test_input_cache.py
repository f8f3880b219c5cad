"""Campaign-aware input-representation cache (repro.binary.layers)."""

import weakref

import numpy as np
import pytest

from repro import nn
from repro.binary import QuantConv2D, QuantDense
from repro.binary.layers import _INPUT_CACHE_SLOTS, CLEAN_TAG, InputRepCache
from repro.core import (FaultCampaign, FaultGenerator, FaultInjector,
                        FaultSpec, Semantics)
from repro.core.engine import build_jobs


def _frozen(shape=(4,), seed=0):
    array = np.random.default_rng(seed).standard_normal(shape)
    array = array.astype(np.float32)
    array.flags.writeable = False
    return array


class _Owner:
    """Stand-in for an evaluator: something a weakref can point at."""


def test_default_budget_keeps_legacy_fifo_bound():
    cache = InputRepCache()
    arrays = [_frozen(seed=i) for i in range(12)]
    for array in arrays:
        cache.put("cols", array, array * 2)
    assert len(cache) == _INPUT_CACHE_SLOTS
    # oldest entries evicted first
    assert cache.peek("cols", arrays[0]) is None
    assert cache.peek("cols", arrays[-1]) is not None


def test_configured_owner_holds_more_than_the_legacy_bound():
    cache = InputRepCache()
    anchor = _Owner()  # the owner must outlive the test body
    owner = weakref.ref(anchor)
    cache.configure(owner, slots=32)
    arrays = [_frozen(seed=i) for i in range(20)]
    for array in arrays:
        cache.put("cols", array, array * 2, owner=owner)
    assert len(cache) == 20
    assert all(cache.peek("cols", array) is not None for array in arrays)


def test_byte_cap_evicts_lru_first():
    cache = InputRepCache()
    anchor = _Owner()
    owner = weakref.ref(anchor)
    value = np.zeros(256, dtype=np.float32)  # 1 KiB per entry
    cache.configure(owner, slots=100, max_bytes=3 * value.nbytes)
    arrays = [_frozen(seed=i) for i in range(5)]
    for array in arrays:
        cache.put("cols", array, value.copy(), owner=owner)
    assert len(cache) == 3
    assert cache.peek("cols", arrays[0]) is None
    assert cache.peek("cols", arrays[-1]) is not None
    assert cache.stats(owner)["bytes"] <= 3 * value.nbytes


def test_owners_do_not_evict_each_other():
    cache = InputRepCache()
    anchors = (_Owner(), _Owner())
    a, b = weakref.ref(anchors[0]), weakref.ref(anchors[1])
    cache.configure(a, slots=4)
    cache.configure(b, slots=4)
    a_arrays = [_frozen(seed=i) for i in range(4)]
    for array in a_arrays:
        cache.put("cols", array, array, owner=a)
    # b floods its own budget far beyond a's capacity
    for i in range(20):
        cache.put("cols", _frozen(seed=100 + i), i, owner=b)
    assert all(cache.peek("cols", array) is not None for array in a_arrays)
    assert cache.stats(b)["entries"] == 4


def test_hit_and_miss_accounting_per_owner():
    cache = InputRepCache()
    anchor = _Owner()
    owner = weakref.ref(anchor)
    cache.configure(owner, slots=8)
    array = _frozen()
    assert cache.get("cols", array, owner=owner) is None      # miss
    cache.put("cols", array, "rep", owner=owner)
    assert cache.get("cols", array, owner=owner) == "rep"     # hit
    cache.peek("cols", array)                                  # not counted
    stats = cache.stats(owner)
    assert (stats["hits"], stats["misses"]) == (1, 1)
    assert stats["hit_rate"] == 0.5
    assert cache.stats(None) == {"hits": 0, "misses": 0, "entries": 0,
                                 "bytes": 0, "hit_rate": 0.0}


def test_writeable_arrays_never_cached_nor_counted():
    cache = InputRepCache()
    writable = np.zeros(4, dtype=np.float32)
    assert cache.get("cols", writable) is None
    cache.put("cols", writable, "rep")
    assert len(cache) == 0
    assert cache.stats(None)["misses"] == 0


def test_dead_owner_entries_purged():
    cache = InputRepCache()
    anchor = _Owner()
    owner = weakref.ref(anchor)
    cache.configure(owner, slots=8)
    cache.put("cols", _frozen(), "rep", owner=owner)
    assert len(cache) == 1
    del anchor  # the owning evaluator is garbage-collected
    cache.put("cols", _frozen(seed=1), "rep2")  # any put triggers the purge
    assert all(not isinstance(entry[0], weakref.ref) or entry[0]() is not None
               for entry in cache.entries())
    assert cache.stats(owner)["entries"] == 0


# -- end-to-end: a >8-batch campaign actually hits ------------------------

@pytest.fixture(scope="module")
def trained_setup():
    rng = np.random.default_rng(0)
    n = 700
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


def test_campaign_cache_hits_on_more_batches_than_legacy_slots(trained_setup):
    """16 batches > the 8 legacy slots: the fixed FIFO cycled at 0% here;
    the campaign-sized cache must hit on every repetition after the first."""
    model, x, y = trained_setup
    campaign = FaultCampaign(model, x, y, rows=8, cols=4, batch_size=25)
    result = campaign.run(FaultSpec.bitflip, xs=[0.2, 0.4], repeats=3)
    stats = result.meta["input_cache"]
    assert stats["misses"] == 16   # one cold pass over the 16 batches
    assert stats["hits"] > 0
    assert stats["hit_rate"] > 0.5


def test_campaign_respects_cache_byte_cap(trained_setup):
    """A cap smaller than one batch's representation disables retention
    without corrupting results."""
    model, x, y = trained_setup
    capped = FaultCampaign(model, x, y, rows=8, cols=4, batch_size=25,
                           cache_bytes=8)
    free = FaultCampaign(model, x, y, rows=8, cols=4, batch_size=25)
    r_capped = capped.run(FaultSpec.bitflip, xs=[0.2, 0.4], repeats=2)
    r_free = free.run(FaultSpec.bitflip, xs=[0.2, 0.4], repeats=2)
    assert np.array_equal(r_capped.accuracies, r_free.accuracies)
    assert r_capped.meta["input_cache"]["hits"] == 0
    assert r_capped.meta["input_cache"]["bytes"] <= 8


def test_interleaved_campaigns_keep_their_hit_rates(trained_setup):
    model, x, y = trained_setup
    c1 = FaultCampaign(model, x, y, rows=8, cols=4, batch_size=25)
    c2 = FaultCampaign(model, x[:400], y[:400], rows=8, cols=4,
                       batch_size=25)
    for _ in range(2):
        c1.run(FaultSpec.bitflip, xs=[0.3], repeats=2)
        c2.run(FaultSpec.bitflip, xs=[0.3], repeats=2)
    # each campaign pays its cold pass once; interleaving evicts nothing
    assert c1.input_cache_stats()["misses"] == 16
    assert c2.input_cache_stats()["misses"] == 16
    assert c1.input_cache_stats()["hit_rate"] > 0.5
    assert c2.input_cache_stats()["hit_rate"] > 0.5
    # closing one campaign releases only its own entries: the survivor's
    # next run is pure hits, no fresh cold pass
    c1.close()
    assert c1.input_cache_stats()["entries"] == 0
    before = c2.input_cache_stats()["misses"]
    c2.run(FaultSpec.bitflip, xs=[0.3], repeats=2)
    assert c2.input_cache_stats()["misses"] == before


# -- the clean-GEMM memo under output-level faults --------------------------

ROWS, COLS = 8, 4

#: output-level plans: the only fault hook they attach is the output hook
OUTPUT_SPECS = {
    "bitflip": FaultSpec.bitflip(0.3),
    "stuck_at": FaultSpec.stuck_at(0.2),
    "dynamic": FaultSpec.bitflip(0.4, period=3),
    "rows": FaultSpec.faulty_rows(2),
    "columns": FaultSpec.faulty_columns(1),
}

OUTPUT_SWEEPS = {
    "bitflip": FaultSpec.bitflip,
    "stuck_at": FaultSpec.stuck_at,
    "dynamic": lambda rate: FaultSpec.bitflip(rate, period=3),
    "rows": lambda count: FaultSpec.faulty_rows(int(count)),
}


def one_conv_model(seed=0):
    model = nn.Sequential([
        QuantConv2D(6, 3, use_bias=True, input_quantizer="ste_sign",
                    kernel_quantizer="ste_sign", name="memo_conv"),
    ], name="memo_conv_model")
    model.build((6, 6, 2), seed=seed)
    model.layers[0].params["bias"][...] = np.linspace(-1, 1, 6)
    return model


def one_dense_model(seed=0):
    model = nn.Sequential([
        QuantDense(32, use_bias=True, input_quantizer="ste_sign",
                   kernel_quantizer="ste_sign", name="memo_dense"),
    ], name="memo_dense_model")
    model.build((18,), seed=seed)
    model.layers[0].params["bias"][...] = np.linspace(-1, 1, 32)
    return model


def _inputs(model, seed=0, n=5):
    x = np.random.default_rng(seed).standard_normal(
        (n,) + tuple(model.input_shape)).astype(np.float32)
    frozen = x.copy()
    frozen.flags.writeable = False
    return x, frozen


def _assert_bit_identical(got, want):
    np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(np.signbit(got), np.signbit(want))


def _clean_entries(model, owner=None) -> int:
    return sum(layer._input_cache.stats(owner, CLEAN_TAG)["entries"]
               for layer in model.all_layers()
               if hasattr(layer, "_input_cache"))


@pytest.mark.parametrize("make_model", [one_conv_model, one_dense_model])
@pytest.mark.parametrize("spec", OUTPUT_SPECS.values(), ids=OUTPUT_SPECS)
def test_clean_gemm_memo_is_exact(make_model, spec):
    """A read-only input under an output-level plan runs its GEMM once;
    the cold and the memoized forward both equal the same plan on a
    writeable copy of the input (which bypasses the memo)."""
    model = make_model()
    layer = model.layers[0]
    x, frozen = _inputs(model)
    clean = model.forward(frozen)
    assert _clean_entries(model) == 0  # hook-free passes memoize nothing
    plan = FaultGenerator(spec, rows=ROWS, cols=COLS, seed=4).generate(model)
    with FaultInjector().injecting(model, plan):
        assert layer.output_fault_hook is not None
        assert layer.kernel_fault_hook is None
        cold = model.forward(frozen)
        warm = model.forward(frozen)
        reference = model.forward(x)
    stats = layer._input_cache.stats(None, CLEAN_TAG)
    assert (stats["hits"], stats["misses"], stats["entries"]) == (1, 1, 1)
    _assert_bit_identical(cold, reference)
    _assert_bit_identical(warm, reference)
    assert not np.array_equal(reference, clean)  # the faults did land


def _unmemoized_accuracies(model, x, y, factory, xs, repeats, seed):
    """The grid evaluated plan by plan on writeable data: the memo (and
    every other input cache) never engages."""
    writeable = np.array(x)
    accuracies = np.zeros((len(xs), repeats))
    injector = FaultInjector()
    for job in build_jobs(model, factory, xs, repeats, seed, ROWS, COLS):
        with injector.injecting(model, job.plan):
            accuracies[job.point_index, job.repeat_index] = (
                model.evaluate(writeable, y, batch_size=25))
    return accuracies


@pytest.mark.parametrize("executor", ["serial", "shared_memory"])
def test_campaign_memo_matches_unmemoized_reference(trained_setup, executor):
    model, x, y = trained_setup
    x, y = x[:100], y[:100]
    fallbacks = []
    with FaultCampaign(model, x, y, rows=ROWS, cols=COLS, batch_size=25,
                       executor=executor, n_jobs=2) as campaign:
        campaign._executor.on_warning = fallbacks.append
        for name, factory in OUTPUT_SWEEPS.items():
            xs = [0.0, 2.0] if name == "rows" else [0.0, 0.3]
            result = campaign.run(factory, xs=xs, repeats=2, seed=5)
            want = _unmemoized_accuracies(model, x, y, factory, xs, 2, 5)
            np.testing.assert_array_equal(result.accuracies, want,
                                          err_msg=name)
    assert fallbacks == []  # the pool ran, not a fallback


def test_split_layer_runs_its_gemm_once_per_batch(trained_setup,
                                                  monkeypatch):
    """One clean GEMM per (split layer, batch) per campaign: the first
    faulty cell misses, every later cell — in any later run of any
    output-level sweep — hits."""
    model, x, y = trained_setup
    split = model.layers[0]
    gemms = []
    forward_float = split._forward_float
    monkeypatch.setattr(split, "_forward_float",
                        lambda *a: gemms.append(1) or forward_float(*a))
    n_batches = 16
    campaign = FaultCampaign(model, x, y, rows=ROWS, cols=COLS,
                             batch_size=25)
    campaign.run(FaultSpec.bitflip, xs=[0.3, 0.5], repeats=3)
    stats = campaign._evaluator.input_cache_stats(tag=CLEAN_TAG)
    assert (stats["misses"], stats["hits"]) == (n_batches, 5 * n_batches)
    assert stats["entries"] == n_batches
    # the hook-free baseline pass plus the first faulty cell
    assert len(gemms) == 2 * n_batches
    campaign.run(FaultSpec.stuck_at, xs=[0.2], repeats=2)
    stats = campaign._evaluator.input_cache_stats(tag=CLEAN_TAG)
    assert (stats["misses"], stats["hits"]) == (n_batches, 7 * n_batches)
    assert len(gemms) == 2 * n_batches
    # suffix layers see fresh writeable activations: nothing memoized
    assert _clean_entries(model, campaign._evaluator._cache_token) == n_batches
    campaign.close()


@pytest.mark.parametrize("factory", [
    lambda rate: FaultSpec.stuck_at(rate, semantics=Semantics.WEIGHT),
    lambda rate: FaultSpec.bitflip(rate, semantics=Semantics.PRODUCT),
    # an output hook next to a kernel/product hook: the GEMM itself is
    # faulty, so it must not be memoized either
    lambda rate: [FaultSpec.stuck_at(rate, semantics=Semantics.WEIGHT),
                  FaultSpec.bitflip(rate)],
    lambda rate: [FaultSpec.stuck_at(rate, semantics=Semantics.PRODUCT),
                  FaultSpec.bitflip(rate)],
    None,
], ids=["weight", "product", "weight+output", "product+output", "baseline"])
def test_no_clean_entry_without_an_output_only_plan(trained_setup, factory):
    model, x, y = trained_setup
    x, y = x[:100], y[:100]
    campaign = FaultCampaign(model, x, y, rows=ROWS, cols=COLS, batch_size=25)
    if factory is None:
        campaign.baseline_accuracy()
    else:
        result = campaign.run(factory, xs=[0.3], repeats=2)
        want = _unmemoized_accuracies(model, x, y, factory, [0.3], 2, 0)
        np.testing.assert_array_equal(result.accuracies, want)
    token = campaign._evaluator._cache_token
    assert _clean_entries(model, token) == 0
    stats = campaign._evaluator.input_cache_stats(tag=CLEAN_TAG)
    assert stats["hits"] == stats["misses"] == 0
    campaign.close()


# -- invalidation and safety ---------------------------------------------------

def _bitflip_plan(model):
    return FaultGenerator(FaultSpec.bitflip(0.3), rows=ROWS, cols=COLS,
                          seed=2).generate(model)


def test_memo_follows_load_state_dict():
    model = one_conv_model(seed=0)
    x, frozen = _inputs(model)
    with FaultInjector().injecting(model, _bitflip_plan(model)):
        stale = model.forward(frozen)
        model.load_state_dict(one_conv_model(seed=1).state_dict())
        fresh = model.forward(frozen)
        reference = model.forward(x)
    _assert_bit_identical(fresh, reference)
    assert not np.array_equal(fresh, stale)


def test_memo_follows_a_training_step():
    model = one_conv_model()
    x, frozen = _inputs(model)
    plan = _bitflip_plan(model)
    injector = FaultInjector()
    with injector.injecting(model, plan):
        stale = model.forward(frozen)
    logits = model.forward(x, training=True)
    model.backward(np.ones_like(logits))
    nn.SGD(0.5).step(model.all_layers())
    with injector.injecting(model, plan):
        fresh = model.forward(frozen)
        reference = model.forward(x)
    _assert_bit_identical(fresh, reference)
    assert not np.array_equal(fresh, stale)


def test_in_place_output_hook_raises_instead_of_corrupting_the_memo():
    model = one_conv_model()
    layer = model.layers[0]
    x, frozen = _inputs(model)

    def negate_in_place(out, _layer):
        out *= -1
        return out

    layer.output_fault_hook = negate_in_place
    with pytest.raises(ValueError, match="read-only"):
        model.forward(frozen)
    layer.output_fault_hook = lambda out, _layer: out + 0
    try:
        _assert_bit_identical(model.forward(frozen), model.forward(x))
    finally:
        layer.clear_fault_hooks()
