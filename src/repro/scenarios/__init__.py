"""repro.scenarios — declarative lifetime/environment fault scenarios.

The scenario subsystem turns the engine from a figure-reproducer into a
platform: a declarative spec layer (:mod:`.spec`) describes *stories* —
fault clauses driven by lifetime endurance curves, spatially-correlated
placement, environment episodes — a compiler (:mod:`.compile`) lowers
them onto the existing campaign grid, and a zoo (:mod:`.zoo`) ships six
named stories runnable from the CLI (``repro run <name>``; the zoo is
listed by ``repro scenarios list``) or the :func:`run_scenario` API.
"""

from .compile import CompiledCell, CompiledGrid, compile_scenario
from .run import ScenarioResult, resolve_scenario, run_scenario
from .spec import (NOMINAL_EPISODE, Episode, FaultClause, Scenario,
                   ScenarioError, Timeline)
from .zoo import SCENARIO_BUILDERS, get_scenario, scenario_names

__all__ = [
    "FaultClause", "Episode", "Timeline", "Scenario", "ScenarioError",
    "NOMINAL_EPISODE",
    "CompiledCell", "CompiledGrid", "compile_scenario",
    "ScenarioResult", "run_scenario", "resolve_scenario",
    "SCENARIO_BUILDERS", "get_scenario", "scenario_names",
]
