"""Tests for the `repro lint` AST invariant checker.

Each rule gets one known-good and one known-bad snippet, checked in
isolation against a synthetic tree; the cross-module/cross-layer rules
(event-exhaustiveness, protocol-drift) are additionally exercised
against a copy of the *real* protocol modules (the acceptance scenario:
a new event dataclass with no wire entry or renderer branch must fail
the gate).  A self-check pins the shipped tree to zero findings with an
empty baseline.  Flow-rule path semantics (CFG, taint, dominance) live
in ``tests/test_lint_flow.py``.
"""

import io
import json
import subprocess
import sys
import textwrap
from pathlib import Path

from repro.lint import (Baseline, BaselineEntry, EventExhaustiveness,
                        FrozenRecords, LintUsageError, NoGlobalRng,
                        NoSilentExcept, NoUnpicklableSubmit, NoWallClock,
                        ProtocolDrift, RngTaint, UnboundedQueue,
                        load_baseline, run_lint)
from repro.lint.runner import lint_command
from repro.lint.runner import main as lint_main

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]

#: the code modules the event protocol spans (events, wire codec, CLI
#: renderer, engine relay, supervision layer)
PROTOCOL_FILES = (
    "src/repro/api/events.py",
    "src/repro/cli.py",
    "src/repro/api/handle.py",
    "src/repro/core/resilience.py",
    "src/repro/service/wire.py",
)


def lint_tree(tmp_path, files, rules):
    """Write ``files`` (relpath -> source) under ``tmp_path`` and lint."""
    for relpath, source in files.items():
        path = tmp_path / relpath
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source))
    return run_lint([tmp_path], root=tmp_path, rules=rules).findings


def rule_ids(findings):
    return [f.rule for f in findings]


# -- no-global-rng ---------------------------------------------------------

def test_global_rng_bad_stdlib_and_module_state(tmp_path):
    findings = lint_tree(tmp_path, {
        "src/a.py": """\
            import random
            import numpy as np

            def roll():
                return random.random() + np.random.rand()
            """,
    }, rules=[NoGlobalRng()])
    assert rule_ids(findings) == ["no-global-rng", "no-global-rng"]


def test_global_rng_bad_argless_default_rng(tmp_path):
    findings = lint_tree(tmp_path, {
        "src/a.py": """\
            import numpy as np

            rng = np.random.default_rng()
            """,
    }, rules=[NoGlobalRng()])
    assert rule_ids(findings) == ["no-global-rng"]


def test_global_rng_good_seeded_constructors(tmp_path):
    findings = lint_tree(tmp_path, {
        "src/a.py": """\
            import numpy as np
            from numpy.random import default_rng

            def sample(seed):
                rng = default_rng(seed)
                ss = np.random.SeedSequence(seed)
                return rng.normal(), ss
            """,
    }, rules=[NoGlobalRng()])
    assert findings == []


def test_global_rng_local_variable_never_false_positives(tmp_path):
    # a local named `random` has no import alias, so it cannot resolve
    findings = lint_tree(tmp_path, {
        "src/a.py": """\
            def pick(random):
                return random.random()
            """,
    }, rules=[NoGlobalRng()])
    assert findings == []


def test_global_rng_conftest_allow_listed(tmp_path):
    findings = lint_tree(tmp_path, {
        "tests/conftest.py": """\
            import random

            def entropy():
                return random.random()
            """,
    }, rules=[NoGlobalRng()])
    assert findings == []


# -- no-wall-clock ---------------------------------------------------------

def test_wall_clock_bad_time_and_datetime(tmp_path):
    findings = lint_tree(tmp_path, {
        "src/a.py": """\
            import time
            from datetime import datetime

            def stamp():
                return time.time(), datetime.now()
            """,
    }, rules=[NoWallClock()])
    assert rule_ids(findings) == ["no-wall-clock", "no-wall-clock"]


def test_wall_clock_monotonic_only_in_resilience(tmp_path):
    files = {
        "src/repro/core/resilience.py": """\
            import time

            def deadline(budget):
                return time.monotonic() + budget
            """,
        "src/repro/core/engine.py": """\
            import time

            def deadline(budget):
                return time.monotonic() + budget
            """,
    }
    findings = lint_tree(tmp_path, files, rules=[NoWallClock()])
    assert [(f.path, f.rule) for f in findings] == [
        ("src/repro/core/engine.py", "no-wall-clock")]


def test_wall_clock_monotonic_legal_in_obs_clock(tmp_path):
    findings = lint_tree(tmp_path, {
        "src/repro/obs/clock.py": """\
            import time

            class SystemClock:
                def now(self):
                    return time.monotonic()
            """,
    }, rules=[NoWallClock()])
    assert findings == []


def test_wall_clock_monotonic_banned_elsewhere_in_obs(tmp_path):
    # only the clock module holds the allowance — the rest of the
    # telemetry package must go through the Clock abstraction
    findings = lint_tree(tmp_path, {
        "src/repro/obs/spans.py": """\
            import time

            def stamp():
                return time.monotonic()
            """,
    }, rules=[NoWallClock()])
    assert rule_ids(findings) == ["no-wall-clock"]


# -- no-silent-except ------------------------------------------------------

def test_silent_except_bad(tmp_path):
    findings = lint_tree(tmp_path, {
        "src/a.py": """\
            def swallow(work):
                try:
                    work()
                except Exception:
                    pass
                try:
                    work()
                except:
                    pass
            """,
    }, rules=[NoSilentExcept()])
    assert rule_ids(findings) == ["no-silent-except", "no-silent-except"]


def test_silent_except_good_narrow_or_handled(tmp_path):
    findings = lint_tree(tmp_path, {
        "src/a.py": """\
            def tolerate(work, on_warning):
                try:
                    work()
                except OSError:
                    pass
                try:
                    work()
                except Exception as error:
                    on_warning(str(error))
            """,
    }, rules=[NoSilentExcept()])
    assert findings == []


# -- frozen-records --------------------------------------------------------

def test_frozen_records_bad_mutable_event(tmp_path):
    findings = lint_tree(tmp_path, {
        "src/repro/api/events.py": """\
            from dataclasses import dataclass

            @dataclass
            class CellDone:
                index: int = 0
            """,
    }, rules=[FrozenRecords()])
    assert rule_ids(findings) == ["frozen-records"]
    assert "CellDone" in findings[0].message


def test_frozen_records_good_frozen_and_out_of_scope(tmp_path):
    findings = lint_tree(tmp_path, {
        "src/repro/api/events.py": """\
            from dataclasses import dataclass

            @dataclass(frozen=True)
            class CellDone:
                index: int = 0
            """,
        # mutable dataclasses outside the record modules are fine
        "src/repro/core/engine.py": """\
            from dataclasses import dataclass

            @dataclass
            class Accumulator:
                total: float = 0.0
            """,
    }, rules=[FrozenRecords()])
    assert findings == []


def test_frozen_records_covers_obs_spans(tmp_path):
    findings = lint_tree(tmp_path, {
        "src/repro/obs/spans.py": """\
            from dataclasses import dataclass

            @dataclass
            class SpanRecord:
                name: str = ""
            """,
    }, rules=[FrozenRecords()])
    assert rule_ids(findings) == ["frozen-records"]
    assert "SpanRecord" in findings[0].message


# -- event-exhaustiveness --------------------------------------------------

def copy_protocol_tree(tmp_path):
    for rel in PROTOCOL_FILES:
        dest = tmp_path / rel
        dest.parent.mkdir(parents=True, exist_ok=True)
        dest.write_text((REPO_ROOT / rel).read_text(encoding="utf-8"))


def test_event_exhaustiveness_real_tree_is_clean(tmp_path):
    copy_protocol_tree(tmp_path)
    findings = run_lint([tmp_path], root=tmp_path,
                        rules=[EventExhaustiveness()]).findings
    assert findings == []


def test_new_event_without_consumers_fails_every_layer(tmp_path):
    """The acceptance scenario: add an event dataclass to api/events.py
    with no wire.py EVENT_TYPES entry, no cli.py isinstance branch, and
    no docs catalog row — the drift checker must report each layer."""
    copy_protocol_tree(tmp_path)
    for doc in ("docs/api.md", "docs/static-analysis.md"):
        dest = tmp_path / doc
        dest.parent.mkdir(parents=True, exist_ok=True)
        dest.write_text((REPO_ROOT / doc).read_text(encoding="utf-8"))
    events = tmp_path / "src/repro/api/events.py"
    events.write_text(events.read_text(encoding="utf-8") + textwrap.dedent(
        '''

        @dataclass(frozen=True)
        class PlaneEvicted(RunEvent):
            """A shared activation plane was dropped from the cache."""

            plane: str = ""
        '''))
    findings = run_lint([tmp_path], root=tmp_path,
                        rules=[ProtocolDrift()]).findings
    assert rule_ids(findings) == ["protocol-drift"] * 3
    assert all("PlaneEvicted" in f.message for f in findings)
    layers = " ".join(f.message for f in findings)
    assert "EVENT_TYPES" in layers
    assert "isinstance" in layers
    assert "docs/api.md" in layers
    assert all(f.waivable is False for f in findings)
    # ...and the baseline can never absorb them
    baseline = Baseline(entries=[BaselineEntry(
        rule="protocol-drift", path="src/repro/api/events.py",
        count=5)])
    active, waived, _ = baseline.apply(findings)
    assert len(active) == 3 and waived == []


def test_protocol_drift_clean_tree_and_stale_wire_entry(tmp_path):
    copy_protocol_tree(tmp_path)
    # without docs in the fixture tree the docs layers are skipped
    findings = run_lint([tmp_path], root=tmp_path,
                        rules=[ProtocolDrift()]).findings
    assert findings == []
    # reverse drift: the wire registers a ghost, and the event it
    # displaced goes missing — both directions must be reported
    wire = tmp_path / "src/repro/service/wire.py"
    wire.write_text(wire.read_text(encoding="utf-8").replace(
        "api_events.RunWarning", "api_events.GhostEvent"))
    findings = run_lint([tmp_path], root=tmp_path,
                        rules=[ProtocolDrift()]).findings
    assert rule_ids(findings) == ["protocol-drift"] * 2
    messages = " ".join(f.message for f in findings)
    assert "GhostEvent" in messages and "RunWarning" in messages


def test_engine_record_without_mirror_or_relay_fails(tmp_path):
    findings = lint_tree(tmp_path, {
        "src/repro/api/events.py": """\
            from dataclasses import dataclass

            class RunEvent:
                pass

            @dataclass(frozen=True)
            class JobRetried(RunEvent):
                job: int = 0
            """,
        "src/repro/cli.py": """\
            from repro.api.events import JobRetried

            def render(event, out):
                if isinstance(event, JobRetried):
                    print(event.job, file=out)
            """,
        "src/repro/api/handle.py": """\
            from repro.core import resilience

            _ENGINE_EVENTS = {resilience.JobRetried: "JobRetried"}
            """,
        "src/repro/core/resilience.py": """\
            from dataclasses import dataclass

            @dataclass(frozen=True)
            class JobRetried:
                job: int = 0

            @dataclass(frozen=True)
            class WorkerLost:
                pid: int = 0

            def run(emit):
                emit(JobRetried(job=1))
                emit(WorkerLost(pid=2))
            """,
    }, rules=[EventExhaustiveness()])
    # WorkerLost is emitted but has no mirror api event and no relay entry
    assert rule_ids(findings) == ["event-exhaustiveness"] * 2
    assert all("WorkerLost" in f.message for f in findings)


# -- no-unpicklable-submit -------------------------------------------------

def test_unpicklable_submit_bad_lambda_and_nested(tmp_path):
    findings = lint_tree(tmp_path, {
        "src/a.py": """\
            def run(pool, xs):
                def task(x):
                    return x + 1
                pool.apply_async(lambda: 1)
                return pool.imap(task, xs)
            """,
    }, rules=[NoUnpicklableSubmit()])
    assert rule_ids(findings) == ["no-unpicklable-submit"] * 2


def test_unpicklable_submit_good_module_level_and_callbacks(tmp_path):
    findings = lint_tree(tmp_path, {
        "src/a.py": """\
            def work(x):
                return x + 1

            def run(pool, done):
                # parent-side callbacks may be closures
                return pool.apply_async(work, (1,),
                                        callback=lambda r: done(r))
            """,
    }, rules=[NoUnpicklableSubmit()])
    assert findings == []


# -- rng-taint -------------------------------------------------------------
# (taint-through-assignment and kill semantics are covered in
# tests/test_lint_flow.py; here: the rule's basic good/bad contract)

def test_rng_taint_bad_rng_param_ignored(tmp_path):
    findings = lint_tree(tmp_path, {
        "src/a.py": """\
            import numpy as np

            def sample(rng, n):
                fresh = np.random.default_rng(0)
                return fresh.normal(size=n)
            """,
    }, rules=[RngTaint()])
    assert rule_ids(findings) == ["rng-taint"]


def test_rng_taint_bad_seed_not_threaded(tmp_path):
    findings = lint_tree(tmp_path, {
        "src/a.py": """\
            import numpy as np

            def load(seed):
                return np.random.default_rng(12).normal()
            """,
    }, rules=[RngTaint()])
    assert rule_ids(findings) == ["rng-taint"]


def test_rng_taint_good_threaded_and_tests_exempt(tmp_path):
    findings = lint_tree(tmp_path, {
        "src/a.py": """\
            import numpy as np

            def load(seed):
                return np.random.default_rng(seed).normal()
            """,
        # tests legitimately build generators to compare seeds
        "tests/test_a.py": """\
            import numpy as np

            def check(rng):
                a = np.random.default_rng(0)
                b = np.random.default_rng(1)
                return a, b
            """,
    }, rules=[RngTaint()])
    assert findings == []


# -- no-unbounded-queue ----------------------------------------------------

def test_unbounded_queue_bad_in_service_package(tmp_path):
    findings = lint_tree(tmp_path, {
        "src/repro/service/a.py": """\
            import asyncio
            import queue

            def build():
                jobs = asyncio.Queue()
                backlog = queue.Queue()
                infinite = asyncio.Queue(maxsize=0)
                return jobs, backlog, infinite
            """,
    }, rules=[UnboundedQueue()])
    assert rule_ids(findings) == ["no-unbounded-queue"] * 3
    assert [f.line for f in findings] == [5, 6, 7]


def test_unbounded_queue_good_bounded_and_outside_service(tmp_path):
    findings = lint_tree(tmp_path, {
        "src/repro/service/a.py": """\
            import asyncio
            from queue import Queue

            def build(size):
                jobs = asyncio.Queue(maxsize=size)
                backlog = Queue(16)
                return jobs, backlog
            """,
        # unbounded queues outside the service package are exempt:
        # the api relay drains a finite, known number of events
        "src/repro/api/b.py": """\
            import queue

            relay = queue.Queue()
            """,
    }, rules=[UnboundedQueue()])
    assert findings == []


# -- suppressions ----------------------------------------------------------

def test_inline_suppression_same_line_and_line_above(tmp_path):
    findings = lint_tree(tmp_path, {
        "src/a.py": """\
            import random

            def a():
                return random.random()  # repro: allow[no-global-rng]

            def b():
                # repro: allow[no-global-rng, no-wall-clock]
                return random.random()

            def c():
                return random.random()
            """,
    }, rules=[NoGlobalRng()])
    # only the unsuppressed call in c() survives
    assert [(f.rule, f.line) for f in findings] == [("no-global-rng", 11)]


def test_suppression_star_allows_every_rule(tmp_path):
    findings = lint_tree(tmp_path, {
        "src/a.py": """\
            import random

            value = random.random()  # repro: allow[*]
            """,
    }, rules=[NoGlobalRng()])
    assert findings == []


# -- baseline --------------------------------------------------------------

def test_baseline_waives_by_rule_path_count(tmp_path):
    files = {
        "src/a.py": """\
            import random

            x = random.random()
            y = random.random()
            """,
    }
    baseline = Baseline(entries=[BaselineEntry(
        rule="no-global-rng", path="src/a.py", count=1)])
    for relpath, source in files.items():
        path = tmp_path / relpath
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source))
    result = run_lint([tmp_path], root=tmp_path, rules=[NoGlobalRng()],
                      baseline=baseline)
    # budget of 1 absorbs one finding; the second stays active
    assert len(result.waived) == 1
    assert len(result.findings) == 1
    assert result.stale_entries == []


def test_baseline_reports_stale_entries(tmp_path):
    (tmp_path / "src").mkdir(parents=True)
    (tmp_path / "src/a.py").write_text("x = 1\n")
    baseline = Baseline(entries=[BaselineEntry(
        rule="no-global-rng", path="src/gone.py")])
    result = run_lint([tmp_path], root=tmp_path, rules=[NoGlobalRng()],
                      baseline=baseline)
    assert result.ok
    assert [e.path for e in result.stale_entries] == ["src/gone.py"]


def test_baseline_count_decrease_is_reported_as_slack(tmp_path):
    """An entry matching fewer findings than its count must be flagged
    so the baseline gets tightened — otherwise the unused budget could
    silently absorb a future regression."""
    (tmp_path / "src").mkdir(parents=True)
    (tmp_path / "src/a.py").write_text(
        "import random\nx = random.random()\n")
    baseline = Baseline(entries=[BaselineEntry(
        rule="no-global-rng", path="src/a.py", count=3)])
    result = run_lint([tmp_path], root=tmp_path, rules=[NoGlobalRng()],
                      baseline=baseline)
    assert result.ok and len(result.waived) == 1
    assert [(e.rule, e.count) for e in result.stale_entries] == [
        ("no-global-rng", 3)]
    # the CLI note names the slack explicitly
    out = io.StringIO()
    path = tmp_path / "lint-baseline.json"
    path.write_text(json.dumps({"version": 1, "entries": [
        {"rule": "no-global-rng", "path": "src/a.py", "count": 3}]}))
    assert lint_command([], root=tmp_path, stdout=out) == 0
    assert "allows 3 but matched 1" in out.getvalue()


def test_write_baseline_is_idempotent_and_tightens(tmp_path):
    """Regenerating twice produces byte-identical output, and after a
    violation is fixed the regenerated file drops the slack."""
    (tmp_path / "src").mkdir(parents=True)
    (tmp_path / "src/a.py").write_text(
        "import random\nx = random.random()\ny = random.random()\n")
    base = tmp_path / "lint-baseline.json"
    assert lint_command([], root=tmp_path, update_baseline=True,
                        stdout=io.StringIO()) == 0
    first = base.read_text(encoding="utf-8")
    assert json.loads(first)["entries"] == [
        {"rule": "no-global-rng", "path": "src/a.py", "count": 2}]
    assert lint_command([], root=tmp_path, update_baseline=True,
                        stdout=io.StringIO()) == 0
    assert base.read_text(encoding="utf-8") == first
    # burn one violation down: the count must decrease, not linger
    (tmp_path / "src/a.py").write_text(
        "import random\nx = random.random()\n")
    assert lint_command([], root=tmp_path, update_baseline=True,
                        stdout=io.StringIO()) == 0
    assert json.loads(base.read_text(encoding="utf-8"))["entries"] == [
        {"rule": "no-global-rng", "path": "src/a.py", "count": 1}]


def test_load_baseline_missing_is_empty_and_malformed_raises(tmp_path):
    assert load_baseline(tmp_path / "absent.json").entries == []
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(LintUsageError):
        load_baseline(bad)
    wrong = tmp_path / "wrong.json"
    wrong.write_text(json.dumps({"version": 99, "entries": []}))
    with pytest.raises(LintUsageError):
        load_baseline(wrong)


# -- CLI / exit codes ------------------------------------------------------

def test_shipped_tree_is_clean_with_empty_baseline():
    """The acceptance self-check: `repro lint` exits 0 on the shipped
    tree and the committed baseline waives nothing in src/repro."""
    shipped = json.loads(
        (REPO_ROOT / "lint-baseline.json").read_text(encoding="utf-8"))
    assert shipped["entries"] == []
    out = io.StringIO()
    assert lint_command([], root=REPO_ROOT, stdout=out) == 0
    assert "OK" in out.getvalue()


def test_cli_exit_one_on_violation(tmp_path):
    bad = tmp_path / "src" / "bad.py"
    bad.parent.mkdir(parents=True)
    bad.write_text("import random\nx = random.random()\n")
    assert lint_main([str(tmp_path), "--root", str(tmp_path)]) == 1


def test_cli_exit_two_on_missing_path(tmp_path, capsys):
    assert lint_main([str(tmp_path / "nope.py")]) == 2
    assert "no such file" in capsys.readouterr().err


def test_cli_exit_two_on_unparsable_file(tmp_path, capsys):
    """A SyntaxError in a checked file is a *finding* plus exit 2 —
    never a silent skip of the file."""
    broken = tmp_path / "broken.py"
    broken.write_text("def oops(:\n")
    assert lint_main([str(broken), "--root", str(tmp_path)]) == 2
    out = capsys.readouterr().out
    assert "broken.py:1: [syntax-error]" in out


def test_unparsable_file_beside_healthy_ones_still_checked(tmp_path):
    """Other files still get the full rule pass; the broken one is
    reported, unwaivable, and forces exit 2 over exit 1."""
    (tmp_path / "src").mkdir()
    (tmp_path / "src/bad.py").write_text(
        "import random\nx = random.random()\n")
    (tmp_path / "src/broken.py").write_text("def oops(:\n")
    out = io.StringIO()
    code = lint_command([], root=tmp_path, stdout=out)
    assert code == 2
    text = out.getvalue()
    assert "[syntax-error]" in text and "[no-global-rng]" in text
    # the baseline cannot absorb a syntax error
    result = run_lint([tmp_path / "src"], root=tmp_path,
                      baseline=Baseline(entries=[BaselineEntry(
                          rule="syntax-error", path="src/broken.py")]))
    assert "syntax-error" in rule_ids(result.findings)


def test_cli_exit_two_on_malformed_baseline(tmp_path, capsys):
    (tmp_path / "src").mkdir()
    (tmp_path / "src/ok.py").write_text("x = 1\n")
    bad = tmp_path / "base.json"
    bad.write_text("[]")
    assert lint_main(["--root", str(tmp_path),
                      "--baseline", str(bad)]) == 2


def test_cli_list_rules_prints_catalog():
    out = io.StringIO()
    assert lint_command([], list_rules=True, stdout=out) == 0
    text = out.getvalue()
    for rule_id in ("no-global-rng", "no-wall-clock", "no-silent-except",
                    "frozen-records", "event-exhaustiveness", "protocol-drift",
                    "no-unpicklable-submit", "no-unbounded-queue",
                    "rng-taint", "obs-pickle-boundary", "journal-order"):
        assert rule_id in text


def test_cli_json_output(tmp_path):
    bad = tmp_path / "src" / "bad.py"
    bad.parent.mkdir(parents=True)
    bad.write_text("import random\nx = random.random()\n")
    out = io.StringIO()
    code = lint_command([str(tmp_path)], root=tmp_path, json_output=True,
                        stdout=out)
    payload = json.loads(out.getvalue())
    assert code == 1
    assert payload["findings"][0]["rule"] == "no-global-rng"
    assert payload["findings"][0]["path"] == "src/bad.py"


def test_cli_write_baseline_then_clean(tmp_path):
    bad = tmp_path / "src" / "bad.py"
    bad.parent.mkdir(parents=True)
    bad.write_text("import random\nx = random.random()\n")
    out = io.StringIO()
    assert lint_command([], root=tmp_path, update_baseline=True,
                        stdout=out) == 0
    written = json.loads(
        (tmp_path / "lint-baseline.json").read_text(encoding="utf-8"))
    assert written["entries"] == [
        {"rule": "no-global-rng", "path": "src/bad.py", "count": 1}]
    # with the regenerated baseline the gate passes again
    assert lint_command([], root=tmp_path, stdout=io.StringIO()) == 0


def _git(tmp_path, *args):
    subprocess.run(
        ["git", "-c", "user.email=t@t", "-c", "user.name=t", *args],
        cwd=tmp_path, check=True, capture_output=True)


def test_changed_scope_lints_only_modified_files(tmp_path):
    """--changed lints git-modified + untracked python files only; the
    violation in the untouched file stays out of scope."""
    (tmp_path / "src").mkdir()
    (tmp_path / "src/old.py").write_text(
        "import random\nx = random.random()\n")
    _git(tmp_path, "init", "-q")
    _git(tmp_path, "add", "-A")
    _git(tmp_path, "commit", "-qm", "seed")
    out = io.StringIO()
    assert lint_command([], root=tmp_path, changed="HEAD", stdout=out) == 0
    assert "no python files changed" in out.getvalue()
    # an untracked bad file enters the scope; old.py stays outside it
    (tmp_path / "src/new.py").write_text(
        "import random\ny = random.random()\n")
    out = io.StringIO()
    assert lint_command([], root=tmp_path, changed="HEAD", stdout=out) == 1
    text = out.getvalue()
    assert "src/new.py" in text and "old.py" not in text
    # a tracked modification enters too
    (tmp_path / "src/old.py").write_text(
        "import random\nx = random.random()\nz = random.random()\n")
    out = io.StringIO()
    assert lint_command([], root=tmp_path, changed="HEAD", stdout=out) == 1
    assert "src/old.py" in out.getvalue()


def test_changed_rejects_explicit_paths_and_non_git_roots(tmp_path):
    with pytest.raises(LintUsageError, match="cannot be combined"):
        lint_command(["src"], root=tmp_path, changed="HEAD",
                     stdout=io.StringIO())
    with pytest.raises(LintUsageError, match="git"):
        lint_command([], root=tmp_path, changed="HEAD",
                     stdout=io.StringIO())


def test_repro_cli_subcommand_wiring(capsys):
    """`repro lint` must work without touching the experiment registry."""
    from repro.cli import main as cli_main

    assert cli_main(["lint", "--list-rules"]) == 0
    assert "rng-taint" in capsys.readouterr().out
    # LintUsageError maps to the repo-wide validation exit code
    assert cli_main(["lint", "definitely-not-here.py"]) == 2


def test_python_dash_m_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "repro.lint", "--list-rules"],
        capture_output=True, text=True, cwd=REPO_ROOT,
        env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"})
    assert proc.returncode == 0
    assert "event-exhaustiveness" in proc.stdout
