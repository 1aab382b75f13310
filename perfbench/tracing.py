"""In-memory span recording around the public functions of each layer.

A :class:`SpanRecorder` wraps functions and methods on the benchmark's
run path for the duration of one traced pass (or one traced build) and
restores the originals afterwards, so untraced passes run the program
exactly as shipped.  Nothing under ``src/`` is edited: every probe is a
wrapper installed from here.

Module-level functions are patched *where their callers look them up*:
``pap.py`` binds ``choose_partition_symbol`` and friends by name,
``backend.py`` binds ``compose_segment``, ``runner.py`` binds
``run_sequential``, and ``ranges.py`` calls ``enumeration_range``
through its own module global.  Rather than listing those bindings by
hand, :meth:`SpanRecorder.install` walks every loaded ``repro.*``
module and replaces each attribute that *is* the original function
object.  Methods are patched once on the class that defines them.

A span is ``(id, name, start_ns, end_ns, parent, pass_id, size)``:
``parent`` is the innermost enclosing span (spans nest strictly because
the parent process is single-threaded on the probed paths), ``pass_id``
tags every span of one pass or build, and ``size`` carries an optional
work count (symbols of a segment, transitions of the baseline).
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import json
import sys
import time
from pathlib import Path
from typing import Any, Callable

SizeFn = Callable[[tuple, dict, Any], "int | None"]


def _segment_symbols(args: tuple, kwargs: dict, result: Any) -> int:
    # SegmentScheduler.run_segment(self, data, plan, ...)
    plan = args[2] if len(args) > 2 else kwargs["plan"]
    return plan.segment.length


def _baseline_transitions(args: tuple, kwargs: dict, result: Any) -> int:
    return result.transitions


#: (defining module, function) -> span name.  Patched in every loaded
#: ``repro.*`` module that binds the same function object.
FUNCTION_PROBES: dict[tuple[str, str], str] = {
    ("repro.automata.builder", "merge_all"): "automata.merge",
    ("repro.regex.ruleset", "compile_ruleset"): "regex.compile",
    ("repro.lint.runner", "lint_gate"): "lint.gate",
    ("repro.core.ranges", "choose_partition_symbol"): "core.choose_symbol",
    ("repro.core.ranges", "enumeration_range"): "core.enumeration_range",
    ("repro.core.partitioning", "partition_input"): "core.partition",
    ("repro.core.enumeration", "build_units"): "core.build_units",
    ("repro.core.merging", "pack_flows"): "core.pack_flows",
    ("repro.ap.sequential", "run_sequential"): "ap.sequential",
    ("repro.core.composition", "compose_segment"): "core.compose",
}

#: (module, class, method) -> span name.  Patched on the defining class;
#: subclasses that inherit the method (VectorBackend) are covered by it.
METHOD_PROBES: dict[tuple[str, str, str], str] = {
    ("repro.automata.anml", "Automaton", "union"): "automata.union",
    ("repro.automata.execution", "CompiledAutomaton", "__init__"): (
        "automata.compile"
    ),
    ("repro.automata.vector", "VectorTables", "__init__"): (
        "automata.vector_tables"
    ),
    ("repro.core.pap", "ParallelAutomataProcessor", "__init__"): (
        "core.processor_init"
    ),
    ("repro.core.pap", "ParallelAutomataProcessor", "plan"): "core.plan",
    ("repro.core.scheduler", "SegmentScheduler", "run_segment"): (
        "core.segment"
    ),
    ("repro.exec.backend", "SerialBackend", "execute"): "exec.execute",
    ("repro.exec.backend", "ProcessPoolBackend", "execute"): "exec.execute",
}

SIZES: dict[str, SizeFn] = {
    "core.segment": _segment_symbols,
    "ap.sequential": _baseline_transitions,
}


@dataclasses.dataclass(frozen=True)
class Span:
    id: int
    name: str
    start_ns: int
    end_ns: int
    parent: int | None
    pass_id: str
    size: int | None = None

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns


class SpanRecorder:
    """Collects spans in memory; :meth:`dump` writes them at run end."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._next_id = 0
        self._stack: list[int] = []
        self._pass_id = ""
        self._patched: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def call(
        self,
        name: str,
        fn: Callable[..., Any],
        args: tuple,
        kwargs: dict,
    ) -> Any:
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(span_id)
        start = time.perf_counter_ns()
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            size_fn = SIZES.get(name)
            size = (
                size_fn(args, kwargs, result)
                if size_fn is not None and result is not None
                else None
            )
            self.spans.append(
                Span(span_id, name, start, end, parent, self._pass_id, size)
            )

    def wrap(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            return self.call(name, fn, args, kwargs)

        return traced

    # -- patching ----------------------------------------------------------

    def install(
        self,
        pass_id: str,
        extra: tuple[tuple[object, str, str], ...] = (),
    ) -> None:
        """Patch every probe point; spans recorded now carry ``pass_id``.

        ``extra`` names further ``(owner, attribute, span name)`` probes,
        such as a benchmark instance's ``trace`` factory.
        """
        if self._patched:
            raise RuntimeError("probes are already installed")
        self._pass_id = pass_id
        originals: dict[int, Callable[..., Any]] = {}
        for (module_name, attr), name in FUNCTION_PROBES.items():
            original = getattr(importlib.import_module(module_name), attr)
            originals[id(original)] = self.wrap(name, original)
        for module_name, module in list(sys.modules.items()):
            if module is None or not (
                module_name == "repro" or module_name.startswith("repro.")
            ):
                continue
            for attr, value in list(vars(module).items()):
                wrapped = originals.get(id(value))
                if wrapped is not None:
                    self._patch(module, attr, wrapped)
        for (module_name, cls_name, attr), name in METHOD_PROBES.items():
            cls = getattr(importlib.import_module(module_name), cls_name)
            self._patch(cls, attr, self.wrap(name, vars(cls)[attr]))
        for owner, attr, name in extra:
            self._patch(owner, attr, self.wrap(name, getattr(owner, attr)))

    def _patch(self, owner: object, attr: str, value: object) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)
        self._pass_id = ""

    def traced(
        self,
        pass_id: str,
        name: str,
        fn: Callable[..., Any],
        *args: Any,
        extra: tuple[tuple[object, str, str], ...] = (),
        **kwargs: Any,
    ) -> Any:
        """Run ``fn`` as the root span ``name`` with every probe installed."""
        self.install(pass_id, extra)
        try:
            return self.call(name, fn, args, kwargs)
        finally:
            self.uninstall()

    # -- output ------------------------------------------------------------

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        rows = [dataclasses.asdict(span) for span in self.spans]
        path.write_text(json.dumps({"spans": rows}) + "\n")


def self_times(spans: list[Span]) -> dict[int, int]:
    """Each span's duration minus the part its direct children cover."""
    child_ns: dict[int, int] = {}
    for span in spans:
        if span.parent is not None:
            child_ns[span.parent] = (
                child_ns.get(span.parent, 0) + span.duration_ns
            )
    return {
        span.id: span.duration_ns - child_ns.get(span.id, 0) for span in spans
    }
