"""Trace generation: spans and counts recorded around the validator's layers.

The tracer wraps public functions and methods of the validator from the
outside; nothing in ``src/`` knows it exists.  A function is wrapped at
every module that binds it (``from x import f`` makes one binding per
importing module), so the wrapper sits where the function is looked up.
Methods are wrapped on the class that defines them.

Event schema (fixed; :mod:`analyze` reads only this)::

    span  = [id, parent, name, function, start_ns, end_ns]
    trace = {"schema": SCHEMA, "fields": SPAN_FIELDS,
             "spans": [span, ...], "counts": {phase: {name: int}}}

``id`` is the span's index, ``parent`` the enclosing span's id (-1 at the
top), ``function`` the id of the function under validation shared by all
its spans (``""`` outside one), and times come from
``time.perf_counter_ns``.  Spans stay in memory and are written once, by
:meth:`Tracer.write`.  Counts are taken at the same boundaries: rows a
store upsert wrote, nodes a graph build added, ``ValueGraph.make`` calls
made while a graph build is on the stack, and the work counters of the
stats every normalize run returns.  Counts are kept per phase
(:meth:`Tracer.phase`), so set-up work never mixes with the sweep's.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

SCHEMA = 1
SPAN_FIELDS = ("id", "parent", "name", "function", "start_ns", "end_ns")

#: ``(defining module, function, span name)``: wrapped at every binding.
FUNCTION_SPANS = (
    ("repro.bench.corpus", "mem2reg", "bench.mem2reg"),
    ("repro.ir.cloning", "clone_function", "ir.clone"),
    ("repro.analysis.manager", "function_fingerprint", "analysis.fingerprint"),
    ("repro.analysis.manager", "compute_function_analyses", "analysis.compute"),
    ("repro.vgraph.builder", "build_function_graph", "vgraph.build"),
    ("repro.validator.validate", "validate", "validator.validate"),
    ("repro.validator.validate", "validate_chain", "validator.validate_chain"),
    ("repro.validator.driver", "validate_function_pipeline", "validator.pipeline"),
    ("repro.validator.driver", "validate_module_batch", "validator.batch"),
    ("repro.validator.scheduler.plan", "build_plan", "scheduler.plan"),
    ("repro.validator.scheduler.settle", "settle_plan", "scheduler.settle"),
)

#: ``(module, class, method, span name)``: wrapped on the defining class.
METHOD_SPANS = (
    ("repro.bench.generator", "ProgramGenerator", "generate_module", "bench.generate"),
    ("repro.transforms.pass_manager", "PassManager", "run_with_snapshots", "transforms.opt"),
    ("repro.transforms.pass_manager", "PassManager", "run_on_function", "transforms.opt"),
    ("repro.gated.gates", "GateAnalysis", "path_condition", "gated.path_condition"),
    ("repro.vgraph.normalize", "Normalizer", "normalize_until_equal", "vgraph.normalize"),
    ("repro.vgraph.normalize", "Normalizer", "normalize", "vgraph.normalize"),
    ("repro.validator.cache", "ValidationCache", "get", "cache.lookup"),
    ("repro.validator.cache", "ValidationCache", "peek", "cache.lookup"),
    ("repro.validator.cache", "ValidationCache", "put", "cache.lookup"),
    ("repro.validator.cache", "ValidationCache", "prefetch", "cache.lookup"),
    ("repro.validator.cache", "ValidationCache", "save", "cache.save"),
    ("repro.validator.cache", "SqliteStore", "fetch", "cache.store_fetch"),
    ("repro.validator.cache", "SqliteStore", "upsert", "cache.store_upsert"),
)

#: Every executor class's own ``execute`` is wrapped under this name.
EXECUTORS_MODULE = "repro.validator.scheduler.executors"
EXECUTE_SPAN = "scheduler.execute"


def _repro_modules():
    """Every loaded module of the validator package."""
    return [module for name, module in list(sys.modules.items())
            if (name == "repro" or name.startswith("repro.")) and module is not None]


class Tracer:
    """Records spans and counts while installed."""

    def __init__(self) -> None:
        self.spans: List[Optional[list]] = []
        self.counts: Dict[str, int] = {}
        #: Counts taken inside each phase, by phase name.
        self.phase_counts: Dict[str, Dict[str, int]] = {}
        #: Set by the sweep before each function's validation.
        self.function_id = ""
        self._stack: List[int] = []
        self._build_depth = 0
        self._make_calls = 0
        self._undo: List[Tuple[object, str, object]] = []
        #: ``id(wrapper) -> (wrapper, original)``, to undo bindings made
        #: by modules first imported while installed.
        self._originals: Dict[int, Tuple[Callable, Callable]] = {}

    # -- recording ---------------------------------------------------------
    def count(self, name: str, amount: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def _wrap(self, name: str, target: Callable,
              on_exit: Optional[Callable] = None) -> Callable:
        spans, stack = self.spans, self._stack
        clock = time.perf_counter_ns

        @functools.wraps(target)
        def traced(*args, **kwargs):
            span_id = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(span_id)
            function_id = self.function_id
            start = clock()
            try:
                result = target(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[span_id] = [span_id, parent, name, function_id, start, end]
            if on_exit is not None:
                on_exit(result)
            return result

        return traced

    @contextlib.contextmanager
    def phase(self, name: str):
        """A benchmark-level span (``phase.<name>``) that scopes the analysis.

        Counts taken inside the phase are kept apart, under its name.
        """
        span_id = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(span_id)
        outer, self.counts, self._make_calls = self.counts, {}, 0
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            self.spans[span_id] = [span_id, parent, f"phase.{name}", "", start, end]
            self.count("vgraph.make_calls", self._make_calls)
            self.phase_counts[name], self.counts = self.counts, outer

    # -- installation ------------------------------------------------------
    def _patch(self, owner, attribute: str, replacement) -> None:
        self._undo.append((owner, attribute, owner.__dict__[attribute]))
        setattr(owner, attribute, replacement)

    def install(self) -> None:
        """Wrap every traced function and method."""
        for module_name, attribute, span in FUNCTION_SPANS:
            target = getattr(importlib.import_module(module_name), attribute)
            wrapper = self._wrap(span, target, self._exit_hook(span))
            if span == "vgraph.build":
                wrapper = self._build_wrapper(wrapper)
            self._originals[id(wrapper)] = (wrapper, target)
            for module in _repro_modules():
                if module.__dict__.get(attribute) is target:
                    self._patch(module, attribute, wrapper)
        for module_name, class_name, method, span in METHOD_SPANS:
            owner = getattr(importlib.import_module(module_name), class_name)
            self._patch(owner, method,
                        self._wrap(span, owner.__dict__[method], self._exit_hook(span)))
        executors = importlib.import_module(EXECUTORS_MODULE)
        for value in list(vars(executors).values()):
            if isinstance(value, type) and issubclass(value, executors.Executor) \
                    and "execute" in value.__dict__:
                self._patch(value, "execute", self._wrap(EXECUTE_SPAN, value.__dict__["execute"]))
        graph_class = importlib.import_module("repro.vgraph.graph").ValueGraph
        self._patch(graph_class, "make", self._make_counter(graph_class.__dict__["make"]))

    def uninstall(self) -> None:
        """Restore every original binding (reverse order of patching)."""
        while self._undo:
            owner, attribute, original = self._undo.pop()
            setattr(owner, attribute, original)
        for module in _repro_modules():
            for attribute, value in list(vars(module).items()):
                wrapper, original = self._originals.get(id(value), (None, None))
                if wrapper is value:
                    setattr(module, attribute, original)
        self._originals.clear()

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def _exit_hook(self, span: str) -> Optional[Callable]:
        if span == "cache.store_upsert":
            return lambda written: self.count("cache.rows_upserted", written)
        if span == "vgraph.normalize":
            return self._count_normalization
        return None

    def _count_normalization(self, result) -> None:
        """Work of one normalize run, from the stats it returns."""
        stats = result[1] if isinstance(result, tuple) else result
        self.count("vgraph.normalize_runs")
        self.count("vgraph.rule_invocations", stats.rule_invocations)
        self.count("vgraph.rewrites", stats.rewrites)
        self.count("vgraph.worklist_pushes", stats.worklist_pushes)

    def _build_wrapper(self, traced: Callable) -> Callable:
        """Count nodes a graph build adds and the ``make`` calls it makes."""
        @functools.wraps(traced)
        def build(graph, *args, **kwargs):
            before = graph.next_id
            self._build_depth += 1
            try:
                return traced(graph, *args, **kwargs)
            finally:
                self._build_depth -= 1
                self.count("vgraph.nodes_built", graph.next_id - before)
        return build

    def _make_counter(self, make: Callable) -> Callable:
        @functools.wraps(make)
        def counted(graph, *args, **kwargs):
            if self._build_depth:
                self._make_calls += 1
            return make(graph, *args, **kwargs)
        return counted

    # -- output ------------------------------------------------------------
    def write(self, path: Path) -> None:
        """Write the whole trace once, as one JSON document."""
        trace = {"schema": SCHEMA, "fields": list(SPAN_FIELDS),
                 "spans": [span for span in self.spans if span is not None],
                 "counts": self.phase_counts}
        path.write_text(json.dumps(trace, separators=(",", ":")))
