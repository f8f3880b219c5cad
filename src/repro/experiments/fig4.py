"""Experiment runners for the paper's Fig. 4 (layer resilience + runtime).

Every runner returns the series the corresponding sub-figure plots;
the benchmarks print them and write CSVs under ``artifacts/``.

The paper's protocol: binary LeNet on MNIST, "each layer is mapped onto a
single crossbar while sweeping the injection rate", every experiment
repeated with fresh seeds; the row/column study instantiates a 40×10
crossbar per layer.
"""

from __future__ import annotations

from ..analysis.runtime import RuntimeSample, extrapolate, measure, speedup_table
from ..core import FaultCampaign, FaultInjector, FaultGenerator, FaultSpec, SweepResult
from ..data import Dataset
from ..lim import CrossbarConfig, XFaultSimulator
from ..models.lenet import LENET_MAPPED_LAYERS
from ..nn.model import Sequential

__all__ = ["DEFAULT_RATES", "layer_sweeps", "run_fig4a", "run_fig4b",
           "run_fig4c", "run_fig4d", "run_fig4e", "run_fig4f"]

#: the paper sweeps 0..30% injection rate in Fig. 4a/4b
DEFAULT_RATES = (0.0, 0.05, 0.10, 0.15, 0.20, 0.25, 0.30)


def _campaign(model: Sequential, test: Dataset, rows: int, cols: int,
              executor: str | object = "serial", n_jobs: int | None = None,
              cache_bytes: int | None = None) -> FaultCampaign:
    return FaultCampaign(model, test.x, test.y, rows=rows, cols=cols,
                         executor=executor, n_jobs=n_jobs,
                         cache_bytes=cache_bytes)


def _series_hooks(progress, journal_for, name):
    """Per-series campaign hooks from the driver-level ones.

    ``progress(series, done, total, cell)`` narrows to the engine's
    ``progress(done, total, cell)`` for one series; ``journal_for(name)``
    yields that series' own journal path (each series is its own grid,
    so each needs its own fingerprinted journal).
    """
    campaign_progress = None
    if progress is not None:
        def campaign_progress(done, total, cell, _name=name):
            progress(_name, done, total, cell)
    journal = journal_for(name) if journal_for is not None else None
    return campaign_progress, journal


def layer_sweeps(model: Sequential, test: Dataset, spec_factory,
                 xs, repeats: int, rows: int = 40, cols: int = 10,
                 layer_names=LENET_MAPPED_LAYERS, seed: int = 0,
                 executor: str | object = "serial", n_jobs: int | None = None,
                 cache_bytes: int | None = None,
                 progress=None, journal_for=None) -> dict[str, SweepResult]:
    """Per-layer sweeps plus the 'combined' all-layer sweep (Fig. 4a/b).

    The campaign engine options (``executor``/``n_jobs``/``cache_bytes``)
    pass straight through, so every Fig. 4 scenario can run on the pool
    executors — all bit-identical to serial.  ``progress(series, done, total, cell)`` and
    ``journal_for(series) -> path`` are the streaming hooks of the
    :mod:`repro.api` layer: one callback / journal per series curve.
    """
    campaign = _campaign(model, test, rows, cols, executor, n_jobs,
                         cache_bytes)
    results: dict[str, SweepResult] = {}
    for name in (*layer_names, "combined"):
        campaign_progress, journal = _series_hooks(progress, journal_for,
                                                   name)
        results[name] = campaign.run(
            spec_factory, xs, repeats=repeats, seed=seed,
            layers=None if name == "combined" else [name], label=name,
            journal=journal, progress=campaign_progress)
    return results


def run_fig4a(model: Sequential, test: Dataset, rates=DEFAULT_RATES,
              repeats: int = 10, rows: int = 40, cols: int = 10,
              seed: int = 0, **engine) -> dict[str, SweepResult]:
    """Fig. 4a: bit-flip injection rate vs accuracy, per layer."""
    return layer_sweeps(model, test, FaultSpec.bitflip, rates, repeats,
                        rows, cols, seed=seed, **engine)


def run_fig4b(model: Sequential, test: Dataset, rates=DEFAULT_RATES,
              repeats: int = 10, rows: int = 40, cols: int = 10,
              seed: int = 0, **engine) -> dict[str, SweepResult]:
    """Fig. 4b: stuck-at injection rate vs accuracy, per layer."""
    return layer_sweeps(model, test, FaultSpec.stuck_at, rates, repeats,
                        rows, cols, seed=seed, **engine)


def run_fig4c(model: Sequential, test: Dataset, periods=(0, 1, 2, 3, 4),
              rate: float = 0.10, repeats: int = 10, rows: int = 40,
              cols: int = 10, seed: int = 0, executor: str | object = "serial",
              n_jobs: int | None = None,
              cache_bytes: int | None = None, journal=None,
              progress=None) -> SweepResult:
    """Fig. 4c: dynamic faults — sensitization period vs accuracy.

    ``period`` counts the XNOR operations needed to sensitize the fault;
    0/1 fire on every operation (the static case).  ``journal`` /
    ``progress`` forward to :meth:`FaultCampaign.run` unchanged (one
    grid, one journal).
    """
    campaign = _campaign(model, test, rows, cols, executor, n_jobs,
                         cache_bytes)
    return campaign.run(
        lambda n: FaultSpec.bitflip(rate, period=int(n)),
        xs=list(periods), repeats=repeats, seed=seed, label="dynamic",
        journal=journal, progress=progress)


def _line_sweeps(model, test, spec_for_count, counts, repeats, rows, cols,
                 seed, layer_names, executor, n_jobs, cache_bytes,
                 progress, journal_for) -> dict[str, SweepResult]:
    """Shared faulty-line driver (Fig. 4d columns / Fig. 4e rows)."""
    campaign = _campaign(model, test, rows, cols, executor, n_jobs,
                         cache_bytes)
    results = {}
    for name in layer_names:
        campaign_progress, journal = _series_hooks(progress, journal_for,
                                                   name)
        results[name] = campaign.run(
            spec_for_count, xs=list(counts), repeats=repeats, seed=seed,
            layers=[name], label=name, journal=journal,
            progress=campaign_progress)
    return results


def run_fig4d(model: Sequential, test: Dataset, counts=(0, 1, 2, 3, 4),
              repeats: int = 10, rows: int = 40, cols: int = 10,
              seed: int = 0, layer_names=LENET_MAPPED_LAYERS,
              executor: str | object = "serial", n_jobs: int | None = None,
              cache_bytes: int | None = None,
              progress=None, journal_for=None) -> dict[str, SweepResult]:
    """Fig. 4d: number of faulty crossbar columns vs accuracy, per layer."""
    return _line_sweeps(model, test,
                        lambda c: FaultSpec.faulty_columns(int(c)),
                        counts, repeats, rows, cols, seed, layer_names,
                        executor, n_jobs, cache_bytes,
                        progress, journal_for)


def run_fig4e(model: Sequential, test: Dataset,
              counts=(0, 2, 4, 6, 8, 10, 12, 14, 16, 18, 20),
              repeats: int = 10, rows: int = 40, cols: int = 10,
              seed: int = 0, layer_names=LENET_MAPPED_LAYERS,
              executor: str | object = "serial", n_jobs: int | None = None,
              cache_bytes: int | None = None,
              progress=None, journal_for=None) -> dict[str, SweepResult]:
    """Fig. 4e: number of faulty crossbar rows vs accuracy, per layer."""
    return _line_sweeps(model, test,
                        lambda r: FaultSpec.faulty_rows(int(r)),
                        counts, repeats, rows, cols, seed, layer_names,
                        executor, n_jobs, cache_bytes,
                        progress, journal_for)


def run_fig4f(model: Sequential, test: Dataset, passes: int = 3,
              xfault_images: int = 2, serial_images: int = 1,
              rows: int = 40, cols: int = 10,
              gate_family: str = "imply", seed: int = 0
              ) -> dict[str, object]:
    """Fig. 4f: runtime of X-Fault vs FLIM vs vanilla on the test set.

    Protocol mirrors the paper: vanilla and FLIM run ``passes`` full
    passes over the test set (the paper uses fifty); the device-level
    baselines are measured on a handful of images and extrapolated to the
    full workload ("we estimate the total run time of X-Fault based on
    five images").  Two device baselines are reported:

    * ``X-Fault`` — gate-serial evaluation, X-Fault's per-memristor cost
      model (the paper's comparison point);
    * ``device-tile`` — our tile-vectorized device simulator, a faster
      but still device-granular execution.

    During the FLIM measurement the injection mechanism maps the
    operations but injects no actual faults.
    """
    images = len(test.x) * passes

    def run_vanilla():
        for _ in range(passes):
            model.predict(test.x)

    vanilla = measure("vanilla", run_vanilla, images)

    generator = FaultGenerator(FaultSpec.bitflip(0.0), rows=rows, cols=cols,
                               seed=seed)
    plan = generator.generate(model)
    injector = FaultInjector(force_hooks=True)
    with injector.injecting(model, plan):
        flim = measure("FLIM", run_vanilla, images)

    config = CrossbarConfig(rows=rows, cols=cols, gate_family=gate_family,
                            seed=seed)
    tile_sim = XFaultSimulator(model, config)
    x_tile = test.x[:xfault_images]
    tile_sample = measure("device-tile", lambda: tile_sim.run(x_tile),
                          xfault_images)
    device_tile = extrapolate(tile_sample, images)

    serial_sim = XFaultSimulator(model, config, gate_serial=True)
    x_serial = test.x[:serial_images]
    serial_sample = measure("X-Fault", lambda: serial_sim.run(x_serial),
                            serial_images)
    xfault = extrapolate(serial_sample, images)

    samples: list[RuntimeSample] = [xfault, device_tile, flim, vanilla]
    return {
        "samples": samples,
        "table": speedup_table(samples, reference="X-Fault"),
        "images": images,
    }
