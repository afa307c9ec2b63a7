"""Spans recorded from outside the library, around calls into its layers.

A span holds its name, start and end (``time.perf_counter`` seconds), the
index of the span that encloses it, and the job it belongs to. Spans stay in
memory; run.py writes them as JSONL when the run ends.
"""

from __future__ import annotations

import time
from collections import Counter
from contextlib import contextmanager, nullcontext


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.counts: dict[str, Counter] = {}
        self.job: str | None = None
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        rec = {"name": name, "job": self.job,
               "parent": self._open[-1] if self._open else None}
        self._open.append(len(self.spans))
        self.spans.append(rec)
        rec["start"] = time.perf_counter()
        try:
            yield
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()

    def count(self, name: str, n: int) -> None:
        self.counts.setdefault(self.job, Counter())[name] += n


class NullTracer:
    """Stands in for a Tracer in untraced runs; records nothing."""

    job = None

    def span(self, name: str):
        return nullcontext()


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    child = [0.0] * len(spans)
    for rec in spans:
        if rec["parent"] is not None:
            child[rec["parent"]] += rec["end"] - rec["start"]
    return [rec["end"] - rec["start"] - c for rec, c in zip(spans, child)]


@contextmanager
def traced_models(tr: Tracer):
    """Time each per-pattern model that ``assemble_relaxation`` builds.

    ``assemble_relaxation`` calls ``model_for_pattern`` through its module's
    namespace, so the wrapper is installed there for the traced run only.
    """
    import patternrelax.assemble as assemble_mod

    build = assemble_mod.model_for_pattern

    def wrapped(P, box, policy):
        with tr.span("models.build"):
            model = build(P, box, policy)
        tr.count("models.rows", len(model.rows))
        tr.count("models.lmis", len(model.lmis))
        return model

    assemble_mod.model_for_pattern = wrapped
    try:
        yield
    finally:
        assemble_mod.model_for_pattern = build
