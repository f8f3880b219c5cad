"""Outside-in tracing: spans recorded around calls into public functions.

Nothing in the program changes.  The traced run replaces a few public
callables for its own duration and restores them afterwards:

* every top-level layer's ``forward`` on each model the run builds
  (hooked where ``trained_lenet`` and ``trained_zoo_model`` return it
  to the Fig. 4 and Fig. 5 drivers);
* ``FaultInjector.attach`` / ``detach``;
* ``build_jobs`` as the campaign module calls it;
* ``CampaignEvaluator.run_job`` (one evaluate span per cell) and
  ``CampaignEvaluator.baseline``.

Spans stay in memory and are written out as JSON lines at the end.
Wrapped ``forward`` closures live on the model object, which a pool
executor would pickle for its workers, so a traced run must only ever
wrap in-process (serial) runs.
"""

from __future__ import annotations

import json
import re
import time
from contextlib import ExitStack, contextmanager
from pathlib import Path

_AUTO_NAME = re.compile(r"^([a-z0-9]+)_\d+$")


class SpanRecorder:
    """In-memory spans: name, start, end, parent index, attributes."""

    def __init__(self):
        self.spans: list[dict] = []
        #: indices of the open spans; a serial run calls in one thread
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, **attrs):
        stack = self._open
        record = {"name": name, "parent": stack[-1] if stack else None,
                  "start": time.perf_counter(), "end": None}
        if attrs:
            record["attrs"] = attrs
        self.spans.append(record)
        stack.append(len(self.spans) - 1)
        try:
            yield record
        finally:
            stack.pop()
            record["end"] = time.perf_counter()

    def wrap(self, func, name: str):
        """``func`` recording one ``name`` span per call."""
        def traced(*args, **kwargs):
            with self.span(name):
                return func(*args, **kwargs)
        traced.__wrapped__ = func
        return traced

    def totals(self) -> dict[str, float]:
        """Summed duration (s) per span name."""
        out: dict[str, float] = {}
        for span in self.spans:
            if span["end"] is not None:
                out[span["name"]] = (out.get(span["name"], 0.0)
                                     + span["end"] - span["start"])
        return out

    def count(self, name: str) -> int:
        return sum(1 for span in self.spans if span["name"] == name)

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as handle:
            for index, span in enumerate(self.spans):
                handle.write(json.dumps(dict(span, id=index)) + "\n")


def canonical_layer_names(model) -> list[str]:
    """Stable names for ``model.layers``.

    Explicit names are kept.  Auto-generated ones (``maxpool2d_7``)
    carry a process-wide counter, so they are renumbered by their
    ordinal among layers of the same kind in this model.
    """
    seen: dict[str, int] = {}
    names = []
    for layer in model.layers:
        match = _AUTO_NAME.match(layer.name)
        base = type(layer).__name__.lower()
        if match and match.group(1) == base:
            index = seen.get(base, 0)
            seen[base] = index + 1
            names.append(f"{base}_{index}")
        else:
            names.append(layer.name)
    return names


def layer_kind(layer) -> str:
    name = type(layer).__name__.lower()
    for kind in ("conv", "dense", "maxpool", "batchnorm"):
        if kind in name:
            return kind
    return "other"


@contextmanager
def _replaced(owner, attr: str, value):
    saved = getattr(owner, attr)
    setattr(owner, attr, value)
    try:
        yield
    finally:
        setattr(owner, attr, saved)


@contextmanager
def traced_program(recorder: SpanRecorder, layer_kinds: dict[str, str]):
    """Wrap the program's public layer boundaries for the block.

    ``layer_kinds`` is filled with canonical layer name -> kind for every
    model the block builds.
    """
    from repro.core import campaign, engine, injector
    from repro.experiments import common, fig5

    def instrumented(build):
        def build_traced(*args, **kwargs):
            model = build(*args, **kwargs)
            for layer, name in zip(model.layers,
                                   canonical_layer_names(model)):
                layer_kinds[name] = layer_kind(layer)
                # an instance attribute shadows the class method for
                # this model only; the model is discarded after its run
                layer.forward = recorder.wrap(layer.forward,
                                              f"layer.{name}")
            return model
        return build_traced

    evaluator = engine.CampaignEvaluator
    faults = injector.FaultInjector
    with ExitStack() as stack:
        stack.enter_context(_replaced(
            common, "trained_lenet", instrumented(common.trained_lenet)))
        stack.enter_context(_replaced(
            fig5, "trained_zoo_model", instrumented(fig5.trained_zoo_model)))
        stack.enter_context(_replaced(
            campaign, "build_jobs",
            recorder.wrap(campaign.build_jobs, "plan.build_jobs")))
        for attr in ("attach", "detach"):
            stack.enter_context(_replaced(
                faults, attr,
                recorder.wrap(getattr(faults, attr), f"inject.{attr}")))
        stack.enter_context(_replaced(
            evaluator, "baseline",
            recorder.wrap(evaluator.baseline, "evaluate.baseline")))

        run_job = evaluator.run_job

        def traced_run_job(self, job):
            fault_free = not engine.plan_has_faults(job.plan)
            with recorder.span("evaluate.cell", fault_free=fault_free):
                return run_job(self, job)

        stack.enter_context(_replaced(evaluator, "run_job", traced_run_job))
        yield
