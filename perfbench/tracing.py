"""Spans and call counts, recorded from outside the program.

Both instruments wrap calls into the layers' public functions. While one is
installed, the names that ``adiab.runner`` looks up are replaced by
wrappers, so that the layer calls made inside ``run_scenario`` nest under
its span or its count.
"""

from __future__ import annotations

import cProfile
import os
import pstats
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

import adiab.runner
from adiab.tracking import DegeneracyError, LevelCrossingError

RUNNER_NAMES = ("run_pipeline", "track", "evolve", "run_diagnostics", "marzlin_sanders_model")


@contextmanager
def installed(inst):
    """Route the runner's layer calls through ``inst.wrap`` for the duration."""
    saved = {name: getattr(adiab.runner, name) for name in RUNNER_NAMES}
    for name, fn in saved.items():
        setattr(adiab.runner, name, inst.wrap(name, fn))
    try:
        yield inst
    finally:
        for name, fn in saved.items():
            setattr(adiab.runner, name, fn)


class Tracer:
    """Spans with a name, start, end, parent span and run id, kept in memory."""

    def __init__(self):
        self.spans: list = []
        self.run_id = 0
        self._open: list = []

    def wrap(self, name, fn):
        def traced(*args, **kwargs):
            span = {
                "id": len(self.spans),
                "name": name,
                "parent": self._open[-1] if self._open else None,
                "run": self.run_id,
                "start": time.perf_counter(),
                "end": None,
                "error": None,
            }
            self.spans.append(span)
            self._open.append(span["id"])
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                span["error"] = type(exc).__name__
                raise
            finally:
                span["end"] = time.perf_counter()
                self._open.pop()

        return traced

    def total(self, name: str) -> float:
        return sum(s["end"] - s["start"] for s in self.spans if s["name"] == name)

    def self_time(self, name: str) -> float:
        """Duration of the named spans minus the part their child spans cover."""
        covered = defaultdict(float)
        for s in self.spans:
            if s["parent"] is not None:
                covered[s["parent"]] += s["end"] - s["start"]
        return sum(
            s["end"] - s["start"] - covered[s["id"]] for s in self.spans if s["name"] == name
        )

    def errors(self, name: str) -> int:
        tracking_errors = (DegeneracyError.__name__, LevelCrossingError.__name__)
        return sum(1 for s in self.spans if s["name"] == name and s["error"] in tracking_errors)

    def check_nesting(self) -> list:
        """Problems with the span tree: children must lie inside their parent, one after another."""
        problems = []
        children = defaultdict(list)
        for s in self.spans:
            if s["parent"] is not None:
                children[s["parent"]].append(s)
        for parent_id, kids in children.items():
            parent = self.spans[parent_id]
            last_end = parent["start"]
            for s in sorted(kids, key=lambda s: s["start"]):
                if s["run"] != parent["run"] or s["start"] < last_end or s["end"] > parent["end"]:
                    problems.append(f"span {s['id']} ({s['name']}) escapes parent {parent_id}")
                last_end = s["end"]
        return problems


class CallCounter:
    """Per-layer call counts from cProfile, one profiler per open layer call.

    A layer's inclusive count is every call made while it was open, the
    calls of nested layers included. ``functions`` counts calls by
    (file name, function name) over everything profiled.
    """

    def __init__(self):
        self.inclusive: Counter = Counter()
        self.functions: Counter = Counter()
        self.results = defaultdict(list)
        self._open: list = []  # [profiler, calls of closed child layers]

    def wrap(self, name, fn):
        def counted(*args, **kwargs):
            if self._open:
                self._open[-1][0].disable()
            frame = [cProfile.Profile(), 0]
            self._open.append(frame)
            frame[0].enable()
            try:
                result = fn(*args, **kwargs)
            finally:
                frame[0].disable()
                self._open.pop()
                calls = self._absorb(frame[0]) + frame[1]
                self.inclusive[name] += calls
                if self._open:
                    self._open[-1][1] += calls
                    self._open[-1][0].enable()
            self.results[name].append(result)
            return result

        return counted

    def _absorb(self, profiler) -> int:
        own = 0
        for (path, _, func), (_, calls, *_) in pstats.Stats(profiler).stats.items():
            self.functions[(os.path.basename(path), func)] += calls
            own += calls
        return own
