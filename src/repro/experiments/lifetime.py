"""Lifetime-trajectory experiment driver (the scenario-platform figure).

Where :mod:`repro.experiments.fig4` reproduces the paper's single-axis
sweeps, this driver runs a declarative scenario
(:mod:`repro.scenarios`) and returns the accuracy-over-device-age
trajectory — the figure an operator reads to schedule replacement or
mitigation.  Engine options (executor / n_jobs / cache_bytes),
journaling, and streaming progress pass straight through and stay
bit-identical under fixed seeds.  The :mod:`repro.api`
registry runs every zoo story through this driver.
"""

from __future__ import annotations

from ..data import Dataset
from ..nn.model import Sequential
from ..scenarios import ScenarioResult, run_scenario

__all__ = ["run_lifetime_trajectory", "trajectory_series"]


def run_lifetime_trajectory(model: Sequential, test: Dataset,
                            scenario: str | object = "end-of-life",
                            repeats: int = 3, rows: int = 40, cols: int = 10,
                            seed: int = 0,
                            executor: str | object = "serial",
                            n_jobs: int | None = None,
                            cache_bytes: int | None = None,
                            journal=None, progress=None,
                            grid=None) -> ScenarioResult:
    """Run ``scenario`` (zoo name, spec path, or Scenario) on a model.

    Returns the full :class:`~repro.scenarios.ScenarioResult`; use
    :func:`trajectory_series` for the plottable (ages, accuracies)
    series per environment.  ``journal``/``progress``/``grid`` forward
    to :func:`repro.scenarios.run_scenario` unchanged (one compiled
    grid is one campaign).
    """
    return run_scenario(
        scenario, model, test.x, test.y, repeats=repeats,
        seed=seed, rows=rows, cols=cols, executor=executor,
        n_jobs=n_jobs, cache_bytes=cache_bytes,
        journal=journal, progress=progress, grid=grid)


def trajectory_series(result: ScenarioResult
                      ) -> dict[str, tuple[list[float], list[float]]]:
    """Per-environment ``(ages, accuracy%)`` series for plotting, plus a
    duty-weighted ``"blended"`` series when several environments exist."""
    series: dict[str, tuple[list[float], list[float]]] = {}
    for episode in result.episodes:
        series[episode] = (list(result.ages),
                           [100 * a for a in result.trajectory(episode)])
    if len(result.episodes) > 1:
        series["blended"] = (list(result.ages),
                             [100 * a for a in result.blended_trajectory()])
    return series
