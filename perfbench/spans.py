"""Spans and counts around the public entry points of each layer.

The traced run wraps, from outside the program, the methods and
functions each layer exposes to the one above it (``SPAN_TARGETS``),
plus a few count-only hooks (``COUNT_TARGETS``) on calls too frequent
or too small to time.  A span is (name, start, end, parent, item): the
parent is the span that was open when it started, and every span of one
item (a grid cell, a replayed capture, a linted file) carries that
item's id.  Spans stay in memory, in flat arrays, until the run ends.

Cells that run in forked pool workers record into the worker's copy of
the tracer; after each cell the worker spills its spans to a spool file
that the parent merges once ``run_grid`` returns.

A layer's time is *self* time: a span's duration minus the durations of
its direct child spans, summed per span name.  End-to-end metrics never
come from a traced pass.
"""

from __future__ import annotations

import importlib
import json
import os
import pickle
from array import array
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Tuple

import numpy as np

import clock

#: Root span of one item.
ITEM_SPAN = "item"

#: (module, attribute, span name).  ``Class.method`` or a module-level
#: function; the benchmark calls module-level functions through their
#: module so the patched attribute is the one it reaches.
SPAN_TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.simnet.engine", "Simulator.run", "simnet.run"),
    ("repro.simnet.link", "Link.send", "simnet.link_send"),
    ("repro.simnet.trace", "TraceRecorder.__call__", "simnet.capture"),
    ("repro.simnet.trace", "TraceRecorder.completed_records",
     "simnet.trace_query"),
    ("repro.simnet.export", "load_trace", "simnet.export_load"),
    ("repro.tcp.connection", "TcpStack.handle_packet", "tcp.handle_packet"),
    ("repro.tcp.connection", "TcpConnection.handle_segment",
     "tcp.handle_segment"),
    ("repro.tls.session", "TlsSession.send_application", "tls.send"),
    ("repro.http2.connection", "Http2Connection.send_frame", "http2.frame"),
    ("repro.http2.server", "ServerConnection.pump", "http2.frame"),
    ("repro.core.observer", "TrafficMonitor.__call__", "core.tap"),
    ("repro.core.adversary", "Http2SerializationAttack.report",
     "core.report"),
    ("repro.core.estimator", "SizeEstimator.estimate_from_trace",
     "core.estimate"),
    ("repro.core.deinterleave", "PartialMultiplexAnalyzer.analyze",
     "core.deinterleave"),
    ("repro.core.predictor", "ObjectPredictor.predict", "core.predict"),
    ("repro.core.predictor", "ObjectPredictor.predict_burst", "core.predict"),
    ("repro.analysis.features", "TraceFeatureExtractor.extract",
     "analysis.features"),
    ("repro.analysis.knn", "KNeighborsClassifier.fit", "analysis.fit"),
    ("repro.analysis.knn", "KNeighborsClassifier.predict",
     "analysis.predict"),
    ("repro.analysis.nbayes", "GaussianNBClassifier.fit", "analysis.fit"),
    ("repro.analysis.nbayes", "GaussianNBClassifier.predict",
     "analysis.predict"),
    ("repro.analysis.forest", "RandomForestClassifier.fit", "analysis.fit"),
    ("repro.analysis.forest", "RandomForestClassifier.predict",
     "analysis.predict"),
    ("repro.experiments.runner", "RunCache.put", "experiments.cache_put"),
    ("repro.lint.engine", "load_contexts", "lint.parse"),
    ("repro.lint.engine", "build_project", "lint.project"),
    ("repro.lint.families", "check_module_all", "lint.module_rules"),
    ("repro.lint.families", "check_window_paths", "lint.project_rules"),
    ("repro.lint.typestate", "check_lifecycles", "lint.project_rules"),
    ("repro.lint.families", "check_dos_paths", "lint.project_rules"),
    ("repro.lint.families", "check_taint", "lint.taint"),
)

#: Classes whose own ``handle_*`` frame handlers are timed as
#: ``http2.frame``, and the base class whose subclasses' ``process``
#: is timed as ``simnet.policy``.
FRAME_HANDLER_CLASSES = (
    ("repro.http2.connection", "Http2Connection"),
    ("repro.http2.server", "ServerConnection"),
    ("repro.http2.client", "ClientConnection"),
)
POLICY_BASE = ("repro.simnet.middlebox", "Policy")


def _one(_args: tuple) -> int:
    return 1


def _frames(args: tuple) -> int:
    return len(args[1])


#: (module, attribute, counter, weight of one call).
COUNT_TARGETS: Tuple[Tuple[str, str, str, Callable[[tuple], int]], ...] = (
    ("repro.simnet.engine", "Simulator.schedule_at", "simnet.scheduled",
     _one),
    ("repro.simnet.engine", "EventHandle.cancel", "simnet.cancelled", _one),
    ("repro.http2.connection", "Http2Connection._send_record",
     "http2.frames_sent", _frames),
)

#: Experiment modules whose cells call ``run_session``; the traced run
#: reads each finished session's model counters there.
CELL_MODULES = ("repro.experiments.table1", "repro.experiments.table2",
                "repro.experiments.figure5", "repro.experiments.drops")


class Tracer:
    """In-memory span table and counters of one process."""

    def __init__(self, spool: Path):
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name = array("H")
        self.parent = array("i")
        self.item = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: Dict[str, float] = {}
        self._stack = [-1]
        self.current_item = -1
        #: RunSpec -> item id, set by the pass before it runs a grid.
        self.item_ids: Dict[object, int] = {}
        #: The process that merges the spool; ``_owner`` is the one whose
        #: spans the arrays hold (a forked worker starts with a copy of
        #: its parent's).
        self.pid = self._owner = os.getpid()
        self.spool = spool

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, nid: int) -> int:
        index = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.item.append(self.current_item)
        self.start.append(clock.now())
        self.end.append(0.0)
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.end[index] = clock.now()
        self._stack.pop()

    def add(self, counter: str, amount: float = 1) -> None:
        self.counts[counter] = self.counts.get(counter, 0) + amount

    @contextmanager
    def item_span(self, item: int) -> Iterator[None]:
        """Root span of one item run by the benchmark itself."""
        self.current_item = item
        index = self.open(self.name_id(ITEM_SPAN))
        try:
            yield
        finally:
            self.close(index)
            self.current_item = -1

    # -- forked workers ------------------------------------------------------

    @property
    def in_worker(self) -> bool:
        return os.getpid() != self.pid

    def adopt_process(self) -> None:
        """Drop spans inherited through fork from another process."""
        if self._owner != os.getpid():
            self._clear()
            self._owner = os.getpid()

    def _clear(self) -> None:
        for column in (self.name, self.parent, self.item, self.start,
                       self.end):
            del column[:]
        self.counts = {}
        self._stack = [-1]

    def spill(self) -> None:
        """Worker side: append this process's spans to its spool file."""
        path = self.spool / f"{os.getpid()}.pkl"
        with path.open("ab") as handle:
            pickle.dump((self.names, self.name, self.parent, self.item,
                         self.start, self.end, self.counts), handle)
        self._clear()

    def absorb_spool(self) -> None:
        """Parent side: merge and delete every worker spool file."""
        for path in sorted(self.spool.glob("*.pkl")):
            with path.open("rb") as handle:
                while True:
                    try:
                        chunk = pickle.load(handle)
                    except EOFError:
                        break
                    self._merge(*chunk)
            path.unlink()

    def _merge(self, names, name, parent, item, start, end, counts) -> None:
        offset = len(self.start)
        remap = np.array([self.name_id(n) for n in names], dtype=np.uint16)
        self.name.frombytes(
            remap[np.frombuffer(name, dtype=np.uint16)].tobytes())
        parents = np.frombuffer(parent, dtype=np.int32)
        self.parent.frombytes(
            np.where(parents >= 0, parents + offset, -1).astype(
                np.int32).tobytes())
        self.item.extend(item)
        self.start.extend(start)
        self.end.extend(end)
        for counter, amount in counts.items():
            self.add(counter, amount)

    # -- results ---------------------------------------------------------------

    def per_name(self) -> Dict[str, Tuple[float, int]]:
        """span name -> (total self seconds, span count)."""
        n = len(self.start)
        if n == 0:
            return {}
        start = np.frombuffer(self.start, dtype=np.float64)
        end = np.frombuffer(self.end, dtype=np.float64)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        name = np.frombuffer(self.name, dtype=np.uint16)
        duration = end - start
        nested = parent >= 0
        children = np.bincount(parent[nested], weights=duration[nested],
                               minlength=n)
        own = duration - children
        selfs = np.bincount(name, weights=own, minlength=len(self.names))
        counts = np.bincount(name, minlength=len(self.names))
        return {label: (float(selfs[i]), int(counts[i]))
                for i, label in enumerate(self.names)}

    def write(self, path: Path) -> None:
        """Write the span table (``.npz``) and the counters (``.json``)."""
        np.savez_compressed(
            path.with_suffix(".npz"), names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.uint16),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            item=np.frombuffer(self.item, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64))
        path.with_suffix(".json").write_text(
            json.dumps({"counts": self.counts, "spans": len(self.start)},
                       indent=1, sort_keys=True) + "\n")


# -- installing the wrappers ---------------------------------------------------

def _span_wrapper(tracer: Tracer, fn: Callable, nid: int) -> Callable:
    def traced(*args, **kwargs):
        index = tracer.open(nid)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.close(index)
    return traced


def _count_wrapper(tracer: Tracer, fn: Callable, counter: str,
                   weight: Callable[[tuple], int]) -> Callable:
    def counted(*args, **kwargs):
        tracer.add(counter, weight(args))
        return fn(*args, **kwargs)
    return counted


def _cell_wrapper(tracer: Tracer, fn: Callable) -> Callable:
    """``execute_spec``: the root span of one grid cell."""
    nid = tracer.name_id(ITEM_SPAN)

    def traced_cell(spec):
        tracer.adopt_process()
        tracer.current_item = tracer.item_ids.get(spec, -1)
        index = tracer.open(nid)
        try:
            return fn(spec)
        finally:
            tracer.close(index)
            tracer.current_item = -1
            if tracer.in_worker:
                tracer.spill()
    return traced_cell


def _session_wrapper(tracer: Tracer, fn: Callable) -> Callable:
    """``run_session``: read the finished session's model counters."""
    def traced_session(config):
        result = fn(config)
        if result.load is not None:
            tracer.add("browser.requests", len(result.load.requests))
            tracer.add("browser.resets", result.load.resets)
        tracer.add("tcp.retransmits", result.retransmissions)
        connections = result.server.connections
        tracer.add("http2.duplicate_serves",
                   sum(c.duplicate_requests_served for c in connections))
        tracer.add("http2.resets_received",
                   sum(c.resets_received for c in connections))
        if result.report is not None:
            tracer.add("core.reports")
            tracer.add("core.html_identified",
                       "html" in result.report.predicted_labels)
        return result
    return traced_session


Patch = Tuple[object, str, object]


def _resolve(module: str, attribute: str) -> Tuple[object, str]:
    owner = importlib.import_module(module)
    *path, leaf = attribute.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, leaf


def _subclasses(cls: type) -> List[type]:
    found = []
    for sub in cls.__subclasses__():
        found.append(sub)
        found.extend(_subclasses(sub))
    return found


def instrument(tracer: Tracer) -> List[Patch]:
    """Install every wrapper; returns what :func:`restore` undoes."""
    patches: List[Patch] = []

    def patch(owner, leaf: str, wrapper: Callable) -> None:
        patches.append((owner, leaf, owner.__dict__[leaf]))
        setattr(owner, leaf, wrapper)

    targets = list(SPAN_TARGETS)
    for module, cls_name in FRAME_HANDLER_CLASSES:
        cls = getattr(importlib.import_module(module), cls_name)
        targets += [(module, f"{cls_name}.{attr}", "http2.frame")
                    for attr in sorted(vars(cls))
                    if attr.startswith("handle_")]
    policy = getattr(importlib.import_module(POLICY_BASE[0]), POLICY_BASE[1])
    policy_classes = sorted(
        {cls for cls in _subclasses(policy) if "process" in vars(cls)},
        key=lambda cls: (cls.__module__, cls.__qualname__))
    for module, attribute, span in targets:
        owner, leaf = _resolve(module, attribute)
        patch(owner, leaf, _span_wrapper(tracer, getattr(owner, leaf),
                                         tracer.name_id(span)))
    for cls in policy_classes:
        patch(cls, "process", _span_wrapper(tracer, cls.__dict__["process"],
                                            tracer.name_id("simnet.policy")))
    for module, attribute, counter, weight in COUNT_TARGETS:
        owner, leaf = _resolve(module, attribute)
        patch(owner, leaf,
              _count_wrapper(tracer, getattr(owner, leaf), counter, weight))
    # The serial runner and the pool worker each look execute_spec up in
    # their own module.
    for module in ("repro.experiments.runner", "repro.experiments.workers"):
        owner = importlib.import_module(module)
        patch(owner, "execute_spec",
              _cell_wrapper(tracer, owner.__dict__["execute_spec"]))
    for module in CELL_MODULES:
        owner = importlib.import_module(module)
        patch(owner, "run_session",
              _session_wrapper(tracer, owner.__dict__["run_session"]))
    return patches


def restore(patches: List[Patch]) -> None:
    """Put back every original attribute, newest patch first."""
    for owner, leaf, original in reversed(patches):
        setattr(owner, leaf, original)
