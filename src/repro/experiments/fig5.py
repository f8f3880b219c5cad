"""Experiment runners for the paper's Fig. 5 (model resilience).

Nine BNN architectures, faults injected into every mapped layer, hundred
repetitions in the paper (configurable here).  The sweep ranges follow the
paper's axes: bit-flips 0-20%, stuck-at 0-2%, dynamic periods 0-5.
"""

from __future__ import annotations

from ..core import FaultCampaign, FaultSpec, SweepResult
from ..data import Dataset
from ..models.zoo import model_names
from .common import get_imagenet, trained_zoo_model

__all__ = ["BITFLIP_RATES", "STUCKAT_RATES", "DYNAMIC_PERIODS",
           "model_sweep", "run_fig5a", "run_fig5b", "run_fig5c"]

#: Fig. 5a sweeps bit-flips over 0-20%
BITFLIP_RATES = (0.0, 0.025, 0.05, 0.10, 0.15, 0.20)
#: Fig. 5b sweeps stuck-at over 0-2% — an order of magnitude tighter
STUCKAT_RATES = (0.0, 0.0025, 0.005, 0.01, 0.015, 0.02)
#: Fig. 5c sweeps the dynamic sensitization period 0-5
DYNAMIC_PERIODS = (0, 1, 2, 3, 4, 5)


def model_sweep(spec_factory, xs, models: list[str] | None = None,
                repeats: int = 5, rows: int = 40, cols: int = 10,
                seed: int = 0, test: Dataset | None = None,
                executor: str | object = "serial", n_jobs: int | None = None,
                cache_bytes: int | None = None,
                progress=None, journal_for=None) -> dict[str, SweepResult]:
    """Run one sweep on every zoo model; returns label -> SweepResult.

    The campaign engine options (``executor``/``n_jobs``/``cache_bytes``)
    pass straight through, so the nine-architecture grids can run on the
    worker pool — bit-identical to serial.  ``progress(series,
    done, total, cell)`` and ``journal_for(series) -> path`` stream/journal one model
    curve at a time (each model is its own campaign grid).
    """
    if models is None:
        models = model_names()
    if test is None:
        _, test = get_imagenet()
    results: dict[str, SweepResult] = {}
    for name in models:
        model = trained_zoo_model(name)
        campaign = FaultCampaign(model, test.x, test.y, rows=rows, cols=cols,
                                 executor=executor, n_jobs=n_jobs,
                                 cache_bytes=cache_bytes)
        campaign_progress = None
        if progress is not None:
            def campaign_progress(done, total, cell, _name=name):
                progress(_name, done, total, cell)
        journal = journal_for(name) if journal_for is not None else None
        results[name] = campaign.run(spec_factory, xs, repeats=repeats,
                                     seed=seed, label=name, journal=journal,
                                     progress=campaign_progress)
    return results


def run_fig5a(models: list[str] | None = None, rates=BITFLIP_RATES,
              repeats: int = 5, seed: int = 0, **kwargs) -> dict[str, SweepResult]:
    """Fig. 5a: bit-flip rate vs accuracy across architectures."""
    return model_sweep(FaultSpec.bitflip, list(rates), models=models,
                       repeats=repeats, seed=seed, **kwargs)


def run_fig5b(models: list[str] | None = None, rates=STUCKAT_RATES,
              repeats: int = 5, seed: int = 0, **kwargs) -> dict[str, SweepResult]:
    """Fig. 5b: stuck-at rate vs accuracy across architectures."""
    return model_sweep(FaultSpec.stuck_at, list(rates), models=models,
                       repeats=repeats, seed=seed, **kwargs)


def run_fig5c(models: list[str] | None = None, periods=DYNAMIC_PERIODS,
              rate: float = 0.10, repeats: int = 5, seed: int = 0,
              **kwargs) -> dict[str, SweepResult]:
    """Fig. 5c: dynamic-fault period vs accuracy across architectures."""
    return model_sweep(lambda n: FaultSpec.bitflip(rate, period=int(n)),
                       list(periods), models=models, repeats=repeats,
                       seed=seed, **kwargs)
