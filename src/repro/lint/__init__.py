"""``repro.lint`` — AST-based invariant checker for this repository.

Mechanically enforces the contracts the reproduction's trustworthiness
rests on: seeded-RNG determinism, typed failure routing, frozen
protocol records, and event-protocol exhaustiveness.  The determinism
and ordering rules are *flow-sensitive*: they reason over
intraprocedural CFGs (:mod:`repro.lint.cfg`) with reaching definitions
and taint propagation (:mod:`repro.lint.flow`), so a violation is a
provable path, not a missing keyword nearby.
See ``docs/static-analysis.md`` for the rule catalog, the
``# repro: allow[rule-id]`` suppression syntax, and the baseline
workflow; run it as ``repro lint`` or ``python -m repro.lint``.

The package deliberately has no numpy/engine dependencies — it parses
the tree with :mod:`ast` and never imports the code under check.
"""

from __future__ import annotations

from .baseline import Baseline, BaselineEntry, load_baseline, write_baseline
from .cfg import CFG, CFGNode, build_cfg, iter_scopes
from .findings import Finding, Rule
from .flow import propagate_taint, reaching_definitions, use_def
from .project import (LintUsageError, Module, ParseFailure, Project,
                      load_project)
from .rules import (DEFAULT_RULES, EventExhaustiveness, FrozenRecords,
                    JournalOrder, NoGlobalRng, NoSilentExcept,
                    NoUnpicklableSubmit, NoWallClock, ObsPickleBoundary,
                    ProtocolDrift, RngTaint, UnboundedQueue)
from .runner import LintResult, changed_files, lint_command, main, run_lint

__all__ = [
    "Baseline",
    "BaselineEntry",
    "CFG",
    "CFGNode",
    "DEFAULT_RULES",
    "EventExhaustiveness",
    "Finding",
    "FrozenRecords",
    "JournalOrder",
    "LintResult",
    "LintUsageError",
    "Module",
    "NoGlobalRng",
    "NoSilentExcept",
    "NoUnpicklableSubmit",
    "NoWallClock",
    "ObsPickleBoundary",
    "ParseFailure",
    "Project",
    "ProtocolDrift",
    "RngTaint",
    "Rule",
    "UnboundedQueue",
    "build_cfg",
    "changed_files",
    "iter_scopes",
    "lint_command",
    "load_baseline",
    "load_project",
    "main",
    "propagate_taint",
    "reaching_definitions",
    "run_lint",
    "use_def",
    "write_baseline",
]
