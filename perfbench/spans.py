"""Spans the benchmark records around its calls into the program's layers.

A span has a name, a start and end (``perf_counter`` seconds), the span
that caused it, and the query it belongs to.  Spans stay in memory and
are written out when the run ends.  A span's *self time* is its duration
minus the time its child spans cover; children of one span never
overlap (the benchmark is single-threaded), so that is the duration
minus the children's summed durations.

:func:`instrument` wraps the layer entry points that the benchmark does
not call itself (``run_protocol`` calls ``prepare_protocol_run``,
``Topology.to_network`` and ``Simulator.run``; a service session calls
``prepare_protocol_run`` at launch) for the duration of a traced pass.
A ``Simulator.run`` span is named after the lane that ran it:
``simulation.run`` for the python drain, ``sharded.run`` when the run
was handed to the sharded lane.
"""

from __future__ import annotations

import contextlib
import functools
import time
from collections import defaultdict
from typing import Any, Dict, Iterator, List


class SpanRecorder:
    """In-memory span tree for one traced pass."""

    traced = True

    def __init__(self) -> None:
        self.spans: List[Dict[str, Any]] = []
        self._stack: List[int] = []

    @contextlib.contextmanager
    def span(self, name: str, query: Any = None) -> Iterator[Dict[str, Any]]:
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "query": query,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def self_times(self) -> List[float]:
        """Self time of every span, indexed like :attr:`spans`."""
        covered = [0.0] * len(self.spans)
        for record in self.spans:
            if record["parent"] is not None:
                covered[record["parent"]] += record["end"] - record["start"]
        return [record["end"] - record["start"] - covered[record["id"]]
                for record in self.spans]

    def totals(self, name: str) -> float:
        """Summed duration of every span called ``name``."""
        return sum(r["end"] - r["start"] for r in self.spans
                   if r["name"] == name)

    def count(self, name: str) -> int:
        return sum(1 for r in self.spans if r["name"] == name)

    def self_by_name(self) -> Dict[str, float]:
        totals: Dict[str, float] = defaultdict(float)
        for record, own in zip(self.spans, self.self_times()):
            totals[record["name"]] += own
        return dict(totals)

    def export(self, origin: float) -> List[Dict[str, Any]]:
        """The spans as plain data, times relative to ``origin``."""
        return [
            {**record, "start": record["start"] - origin,
             "end": record["end"] - origin, "self": own}
            for record, own in zip(self.spans, self.self_times())
        ]


class NullRecorder:
    """The untraced pass: same interface, records nothing."""

    traced = False
    _null = contextlib.nullcontext()

    def span(self, name: str, query: Any = None):
        return self._null


def _wrap(recorder: SpanRecorder, name: str, func):
    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        with recorder.span(name):
            return func(*args, **kwargs)
    return wrapper


def _wrap_simulator_run(recorder: SpanRecorder, func):
    @functools.wraps(func)
    def wrapper(simulator, *args, **kwargs):
        with recorder.span("simulation.run") as record:
            result = func(simulator, *args, **kwargs)
            if simulator.lane_used == "sharded":
                record["name"] = "sharded.run"
            return result
    return wrapper


@contextlib.contextmanager
def instrument(recorder: SpanRecorder):
    """Record spans around the inner layer entry points while active."""
    import repro.protocols.base as protocols_base
    import repro.service.session as service_session
    from repro.simulation.engine import Simulator
    from repro.topology.base import Topology

    targets = [
        (protocols_base, "prepare_protocol_run", "protocols.prepare"),
        (service_session, "prepare_protocol_run", "protocols.prepare"),
        (Topology, "to_network", "simulation.network_build"),
    ]
    saved = [(owner, attr, owner.__dict__[attr])
             for owner, attr, _ in targets]
    saved.append((Simulator, "run", Simulator.__dict__["run"]))
    try:
        for owner, attr, name in targets:
            setattr(owner, attr, _wrap(recorder, name, getattr(owner, attr)))
        Simulator.run = _wrap_simulator_run(recorder, Simulator.run)
        yield
    finally:
        for owner, attr, original in saved:
            setattr(owner, attr, original)
