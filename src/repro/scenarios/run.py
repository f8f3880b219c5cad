"""Scenario execution: compiled grids through the campaign engine.

:func:`run_scenario` is the one-call API: scenario (object, zoo name, or
spec file) + model + test set → a :class:`ScenarioResult` holding the
per-checkpoint, per-episode accuracy trajectory.  Under the hood it is a
plain :meth:`repro.core.FaultCampaign.run` over the compiled grid, so
every engine feature — the worker pool, JSONL journals with resume,
cached prefix activations — applies unchanged, and results are
bit-identical across executors under a fixed seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ..core.campaign import FaultCampaign, SweepResult
from .compile import CompiledGrid, compile_scenario
from .spec import Scenario, ScenarioError

__all__ = ["ScenarioResult", "run_scenario", "resolve_scenario"]


def resolve_scenario(scenario) -> Scenario:
    """Accept a :class:`Scenario`, a zoo name, or a spec-file path."""
    if isinstance(scenario, Scenario):
        return scenario
    if isinstance(scenario, str):
        from .zoo import get_scenario, scenario_names
        if scenario in scenario_names():
            return get_scenario(scenario)
        if scenario.endswith((".yaml", ".yml", ".json")):
            return Scenario.from_file(scenario)
        raise ScenarioError(
            f"unknown scenario {scenario!r}; zoo scenarios: "
            f"{scenario_names()} (or pass a .yaml/.json spec file)")
    raise ScenarioError(f"cannot resolve a scenario from {scenario!r}")


@dataclass
class ScenarioResult:
    """Accuracy trajectory of one scenario run.

    ``accuracies[i, j, k]`` is the accuracy at timeline checkpoint ``i``
    under environment ``episodes[j]`` in repetition ``k``.  ``sweep`` is
    the underlying flat :class:`~repro.core.campaign.SweepResult` (cells
    in checkpoint-major order) with its usual ``meta`` bookkeeping.
    """

    scenario: Scenario
    grid: CompiledGrid
    sweep: SweepResult
    accuracies: np.ndarray
    baseline: float = float("nan")
    meta: dict = field(default_factory=dict)

    @property
    def ages(self) -> list[float]:
        return self.grid.ages

    @property
    def episodes(self) -> list[str]:
        return self.grid.episodes

    def trajectory(self, episode: str | None = None) -> np.ndarray:
        """Mean accuracy per checkpoint for one environment column
        (default: the first — nominal when included)."""
        column = 0 if episode is None else self._column(episode)
        return self.accuracies[:, column, :].mean(axis=1)

    def std(self, episode: str | None = None) -> np.ndarray:
        """Per-checkpoint sample std (ddof=1, matching
        :meth:`SweepResult.std`); 0 for a single repetition."""
        column = 0 if episode is None else self._column(episode)
        samples = self.accuracies[:, column, :]
        if samples.shape[1] <= 1:
            return np.zeros(samples.shape[0])
        return samples.std(axis=1, ddof=1)

    def blended_trajectory(self) -> np.ndarray:
        """Duty-weighted mean accuracy per checkpoint: the expected
        accuracy of a workload spending each environment's ``duty``
        fraction of inferences in it."""
        duties = np.asarray(self.grid.duties, dtype=np.float64)
        total = duties.sum()
        if total <= 0:
            return self.trajectory()
        weights = duties / total
        per_episode = self.accuracies.mean(axis=2)  # (checkpoints, episodes)
        return per_episode @ weights

    def as_rows(self) -> list[dict]:
        """One record per checkpoint: age, lifetime rates, per-episode
        mean/std accuracy, and the blended value."""
        blended = self.blended_trajectory()
        rows = []
        for i, age in enumerate(self.ages):
            cell = self.grid.cells[i * self.grid.n_episodes]
            record = {"checkpoint": i, "age": age,
                      "stuck_rate": cell.stuck_rate,
                      "upset_rate": cell.upset_rate,
                      "blended": float(blended[i]), "episodes": {}}
            for j, episode in enumerate(self.episodes):
                samples = self.accuracies[i, j, :]
                std = (0.0 if samples.size <= 1
                       else float(samples.std(ddof=1)))
                record["episodes"][episode] = {
                    "mean": float(samples.mean()), "std": std}
            rows.append(record)
        return rows

    def _column(self, episode: str) -> int:
        try:
            return self.episodes.index(episode)
        except ValueError:
            raise ScenarioError(f"unknown episode {episode!r}; "
                                f"have {self.episodes}") from None

    def __repr__(self):
        points = ", ".join(
            f"{age:g}:{m:.3f}"
            for age, m in zip(self.ages, self.blended_trajectory()))
        return (f"<ScenarioResult {self.scenario.name} "
                f"[{points}] x{self.grid.n_episodes} episodes>")


def run_scenario(scenario, model, x_test, y_test, *,
                 repeats: int = 3, seed: int = 0,
                 rows: int = 40, cols: int = 10, batch_size: int = 256,
                 executor: str | object = "serial",
                 n_jobs: int | None = None,
                 cache_bytes: int | None = None, policy=None, layers=None,
                 journal=None,
                 progress: Callable[[int, int, tuple], None] | None = None,
                 grid: CompiledGrid | None = None) -> ScenarioResult:
    """Compile ``scenario`` and run it as one fault campaign.

    Parameters mirror :class:`~repro.core.FaultCampaign` /
    :meth:`~repro.core.FaultCampaign.run`; ``scenario`` may be a
    :class:`Scenario`, a zoo name (``"end-of-life"``), or a
    ``.yaml``/``.json`` spec path.  ``layers`` optionally restricts the
    whole scenario to a mapped-layer subset on top of any per-clause
    targeting.  ``grid`` accepts an already compiled grid (compilation
    is deterministic, so a caller that compiled for introspection —
    e.g. the :mod:`repro.api` checkpoint-event wrapper — need not pay
    it twice).  Each cell's fault plans are pre-generated from seeds
    that are pure functions of the grid coordinates, so the returned
    trajectory is bit-identical across executors.
    """
    scenario = resolve_scenario(scenario)
    if grid is None:
        grid = compile_scenario(scenario, model, rows=rows, cols=cols)
    with FaultCampaign(model, x_test, y_test, rows=rows, cols=cols,
                       batch_size=batch_size, executor=executor,
                       n_jobs=n_jobs, cache_bytes=cache_bytes,
                       policy=policy) as campaign:
        sweep = campaign.run(grid.spec_factory, xs=grid.xs, repeats=repeats,
                             seed=seed, layers=layers, label=scenario.name,
                             journal=journal, progress=progress)
    accuracies = sweep.accuracies.reshape(
        grid.n_checkpoints, grid.n_episodes, repeats)
    meta = dict(sweep.meta, scenario=scenario.name,
                checkpoints=grid.n_checkpoints, episodes=grid.episodes)
    return ScenarioResult(scenario=scenario, grid=grid, sweep=sweep,
                          accuracies=accuracies, baseline=sweep.baseline,
                          meta=meta)
