"""Cycle-domain + wall-clock span/event tracing.

The paper's evaluation is a story about *dynamic* behaviour — flows
dying over time, segments converging, decode costs chaining — so the
tracer records every span and instant in **two time domains** at once:

* **cycles** — simulated symbol cycles, the domain every figure of the
  paper lives in.  Cycle timestamps are supplied explicitly by the
  instrumented code (the simulator knows its own clock).
* **wall** — host ``perf_counter_ns`` time, captured automatically on
  every record.  This is the domain for profiling the *simulator
  itself* (which hot path is slow on the host).

Three record kinds cover the architecture's dynamics:

* *spans* (``begin_span``/``end_span``, or ``complete_span`` for
  retroactive cycle intervals) — segment executions, host decodes;
* *instants* — flow spawn/deactivate/converge, FIV arrival,
  golden-fallback;
* *counter samples* — TDM slice occupancy, cache fill.

:class:`Observer` is the **null object**: the base class's hooks are
all no-ops and ``enabled`` is ``False``, so production code threads an
observer unconditionally and pays (nearly) nothing when tracing is
off.  :class:`Tracer` is the recording subclass and the only recorder
in :mod:`repro.obs`; every view derives from its event list: the
Chrome trace-event exporter (:mod:`repro.obs.chrome`), the text
profiler (:mod:`repro.obs.profile`), the phase profile's wall half
(:mod:`repro.obs.phases` reads ``segment[i]`` span args and
``compose[i]`` span durations), and the flight-recorder ledger
(:mod:`repro.obs.telemetry` overrides the one record hook, ``_record``,
that every recording hook calls).
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

from repro.obs.metrics import (
    MetricsRegistry,
    NULL_REGISTRY,
    NullMetricsRegistry,
)

TRACK_RUN = "run"
TRACK_HOST = "host"

SPAN = "span"
INSTANT = "instant"
COUNTER = "counter"


@dataclass
class TraceEvent:
    """One recorded span, instant, or counter sample.

    ``wall_*`` fields are host nanoseconds (always present);
    ``cycle_*`` fields are simulated symbol cycles (present when the
    instrumented site supplied them).  ``depth`` is the span-nesting
    depth within the event's track at record time.
    """

    kind: str
    name: str
    track: str
    wall_start_ns: int
    wall_end_ns: int | None = None
    cycle_start: int | None = None
    cycle_end: int | None = None
    value: float | None = None
    args: dict[str, Any] | None = None
    depth: int = 0

    @property
    def wall_duration_ns(self) -> int | None:
        if self.wall_end_ns is None:
            return None
        return self.wall_end_ns - self.wall_start_ns

    @property
    def cycle_duration(self) -> int | None:
        if self.cycle_start is None or self.cycle_end is None:
            return None
        return self.cycle_end - self.cycle_start


class Observer:
    """The disabled (null) observer: every hook is a no-op.

    Hot paths guard expensive argument construction with
    ``if observer.enabled:`` — the hooks themselves are safe to call
    unconditionally.
    """

    enabled: bool = False
    metrics: MetricsRegistry = NULL_REGISTRY
    #: Correlation id threaded into dispatch spans and health records;
    #: only the flight recorder (:mod:`repro.obs.telemetry`) sets one.
    run_id: str | None = None

    def begin_span(
        self,
        name: str,
        *,
        track: str = TRACK_RUN,
        cycle: int | None = None,
        args: dict[str, Any] | None = None,
    ) -> int:
        """Open a span; returns a handle for :meth:`end_span`."""
        return -1

    def end_span(
        self,
        handle: int,
        *,
        cycle: int | None = None,
        args: dict[str, Any] | None = None,
    ) -> None:
        """Close the span identified by ``handle``."""

    def complete_span(
        self,
        name: str,
        *,
        track: str = TRACK_RUN,
        cycle_start: int | None = None,
        cycle_end: int | None = None,
        args: dict[str, Any] | None = None,
    ) -> None:
        """Record a span whose cycle interval is known after the fact
        (e.g. the host decode chain, computed once all segments ran)."""

    def instant(
        self,
        name: str,
        *,
        track: str = TRACK_RUN,
        cycle: int | None = None,
        args: dict[str, Any] | None = None,
    ) -> None:
        """Record a point event (flow death, FIV arrival, ...)."""

    def counter(
        self,
        name: str,
        value: float,
        *,
        track: str = TRACK_RUN,
        cycle: int | None = None,
    ) -> None:
        """Record one sample of a time-varying quantity."""

    def run_failed(
        self,
        error: BaseException,
        *,
        health: Any | None = None,
    ) -> None:
        """Hook fired when a run is about to re-raise ``error``.

        ``health`` is the run's :class:`~repro.exec.resilience.RunHealth`
        if one was being kept.  The flight recorder overrides this to
        write a crash bundle; the base observer ignores failures.
        """

    def ingest_worker_batch(
        self,
        batch: Any,
        *,
        span: int = -1,
        segment: int | None = None,
    ) -> None:
        """Merge a worker-shipped :class:`~repro.obs.remote.RecordBatch`
        into this observer's timeline and metrics.

        ``span`` is the handle of the parent ``dispatch[i]`` span the
        batch is parented under; ``segment`` the segment index it ran.
        The null observer discards batches (workers only capture when
        the parent observer is enabled, so this is the cold path).
        """

    @contextmanager
    def span(
        self,
        name: str,
        *,
        track: str = TRACK_RUN,
        cycle: int | None = None,
        args: dict[str, Any] | None = None,
    ) -> Iterator[int]:
        """Context-manager sugar over ``begin_span``/``end_span``.

        The exit cycle is not knowable here; callers needing a
        cycle-domain end use the explicit pair instead.
        """
        handle = self.begin_span(name, track=track, cycle=cycle, args=args)
        try:
            yield handle
        finally:
            self.end_span(handle)


NULL_OBSERVER = Observer()


class Tracer(Observer):
    """The recording observer.

    Parameters
    ----------
    clock:
        Wall-clock source in nanoseconds.  Injectable so tests can pin
        deterministic wall timestamps; defaults to
        :func:`time.perf_counter_ns`.
    """

    enabled = True

    def __init__(self, *, clock: Callable[[], int] | None = None) -> None:
        self.clock = clock if clock is not None else time.perf_counter_ns
        self.events: list[TraceEvent] = []
        self.metrics = MetricsRegistry()
        self._open_stacks: dict[str, list[int]] = {}

    # -- recording hooks -------------------------------------------------

    def begin_span(
        self,
        name: str,
        *,
        track: str = TRACK_RUN,
        cycle: int | None = None,
        args: dict[str, Any] | None = None,
    ) -> int:
        stack = self._open_stacks.setdefault(track, [])
        event = TraceEvent(
            kind=SPAN,
            name=name,
            track=track,
            wall_start_ns=self.clock(),
            cycle_start=cycle,
            args=dict(args) if args else None,
            depth=len(stack),
        )
        handle = len(self.events)
        self.events.append(event)
        stack.append(handle)
        self._record(
            "span-begin", name, track=track, cycle=cycle, args=args,
            span=handle,
        )
        return handle

    def end_span(
        self,
        handle: int,
        *,
        cycle: int | None = None,
        args: dict[str, Any] | None = None,
    ) -> None:
        if handle < 0 or handle >= len(self.events):
            return
        event = self.events[handle]
        if event.kind != SPAN or event.wall_end_ns is not None:
            return
        event.wall_end_ns = self.clock()
        if cycle is not None:
            event.cycle_end = cycle
        if args:
            event.args = {**(event.args or {}), **args}
        stack = self._open_stacks.get(event.track)
        if stack and handle in stack:
            # LIFO in the common case; tolerate out-of-order closes.
            stack.remove(handle)
        self._record(
            "span-end", event.name, track=event.track, cycle=cycle,
            args=args, span=handle,
        )

    def complete_span(
        self,
        name: str,
        *,
        track: str = TRACK_RUN,
        cycle_start: int | None = None,
        cycle_end: int | None = None,
        args: dict[str, Any] | None = None,
    ) -> None:
        now = self.clock()
        self.events.append(
            TraceEvent(
                kind=SPAN,
                name=name,
                track=track,
                wall_start_ns=now,
                wall_end_ns=now,
                cycle_start=cycle_start,
                cycle_end=cycle_end,
                args=dict(args) if args else None,
                depth=len(self._open_stacks.get(track, ())),
            )
        )
        merged = dict(args) if args else {}
        if cycle_end is not None:
            merged["cycle_end"] = cycle_end
        self._record(
            "span", name, track=track, cycle=cycle_start,
            args=merged or None,
        )

    def instant(
        self,
        name: str,
        *,
        track: str = TRACK_RUN,
        cycle: int | None = None,
        args: dict[str, Any] | None = None,
    ) -> None:
        self.events.append(
            TraceEvent(
                kind=INSTANT,
                name=name,
                track=track,
                wall_start_ns=self.clock(),
                cycle_start=cycle,
                args=dict(args) if args else None,
                depth=len(self._open_stacks.get(track, ())),
            )
        )
        self._record("instant", name, track=track, cycle=cycle, args=args)

    def counter(
        self,
        name: str,
        value: float,
        *,
        track: str = TRACK_RUN,
        cycle: int | None = None,
    ) -> None:
        self.events.append(
            TraceEvent(
                kind=COUNTER,
                name=name,
                track=track,
                wall_start_ns=self.clock(),
                cycle_start=cycle,
                value=value,
            )
        )
        self._record("counter", name, track=track, cycle=cycle, value=value)

    def _record(
        self,
        kind: str,
        name: str,
        *,
        track: str = TRACK_RUN,
        cycle: int | None = None,
        value: float | None = None,
        args: dict[str, Any] | None = None,
        span: int | None = None,
    ) -> None:
        """One ledger line per recorded event; a no-op here.

        Every recording hook calls it after storing its event, with the
        line's record kind (``span-begin`` / ``span-end`` / ``span`` /
        ``instant`` / ``counter``).  The flight recorder
        (:mod:`repro.obs.telemetry`) overrides it to stamp and stream
        the line.
        """

    # -- worker-batch ingestion ------------------------------------------

    def ingest_worker_batch(
        self,
        batch: Any,
        *,
        span: int = -1,
        segment: int | None = None,
    ) -> None:
        """Merge a worker's shipped records into this tracer.

        Worker events land on per-pid tracks (``pid{pid}:{track}``)
        with wall timestamps re-based into the parent's clock domain,
        parented under the dispatch span ``span``; worker metrics fold
        into the registry prefixed ``worker.``.  Implemented in
        :mod:`repro.obs.remote` (imported lazily — only process-backend
        runs pay for it).
        """
        from repro.obs.remote import merge_batch

        merge_batch(self, batch, span=span, segment=segment)

    def _ingest_event(self, event: TraceEvent) -> None:
        """Append one re-based worker event and record its ledger line.

        Worker spans arrive already complete (the worker sealed its
        batch after the segment finished), so they map onto the
        ``span`` record kind — the one :meth:`complete_span` uses —
        with the cycle end and the span's wall duration as args;
        instants and counters keep their own kinds.  The
        event's args already carry the worker lineage (``pid``,
        ``parent_span``, ``run``) added by
        :func:`repro.obs.remote.merge_batch`.
        """
        self.events.append(event)
        args = dict(event.args) if event.args else {}
        if event.kind == SPAN:
            if event.cycle_end is not None:
                args["cycle_end"] = event.cycle_end
            if event.wall_duration_ns is not None:
                args["wall_ns"] = event.wall_duration_ns
        self._record(
            event.kind, event.name, track=event.track,
            cycle=event.cycle_start, value=event.value, args=args or None,
        )

    # -- introspection & export ------------------------------------------

    def open_spans(self) -> tuple[int, ...]:
        """Handles of spans begun but not yet ended (debugging aid)."""
        return tuple(
            handle
            for stack in self._open_stacks.values()
            for handle in stack
        )

    def tracks(self) -> tuple[str, ...]:
        """Track names in first-appearance order."""
        seen: dict[str, None] = {}
        for event in self.events:
            seen.setdefault(event.track, None)
        return tuple(seen)

    def to_chrome(self, *, domain: str = "cycles") -> dict:
        """Chrome trace-event JSON object (see :mod:`repro.obs.chrome`)."""
        from repro.obs.chrome import export_chrome_trace

        return export_chrome_trace(
            self.events, domain=domain, metrics=self.metrics.snapshot()
        )

    def write_chrome(self, path: str, *, domain: str = "cycles") -> None:
        """Serialize :meth:`to_chrome` to ``path``."""
        import json

        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.to_chrome(domain=domain), handle)

    def text_profile(self) -> str:
        """Human-readable aggregate profile (see :mod:`repro.obs.profile`)."""
        from repro.obs.profile import render_profile

        return render_profile(self)


@dataclass
class CountingObserver(Observer):
    """Counts hook invocations without recording anything.

    Used by the overhead benchmark to estimate how many observer calls
    a run makes, so the cost of the *null* observer can be bounded as
    ``calls x per-call-cost``.
    """

    enabled: bool = True
    calls: int = 0
    metrics: MetricsRegistry = field(default_factory=NullMetricsRegistry)

    def begin_span(self, name, *, track=TRACK_RUN, cycle=None, args=None):
        self.calls += 1
        return -1

    def end_span(self, handle, *, cycle=None, args=None):
        self.calls += 1

    def complete_span(
        self, name, *, track=TRACK_RUN, cycle_start=None, cycle_end=None,
        args=None,
    ):
        self.calls += 1

    def instant(self, name, *, track=TRACK_RUN, cycle=None, args=None):
        self.calls += 1

    def counter(self, name, value, *, track=TRACK_RUN, cycle=None):
        self.calls += 1
