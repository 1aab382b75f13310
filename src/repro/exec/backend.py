"""Pluggable execution backends: where segments actually run.

:class:`ParallelAutomataProcessor.run` models the paper's cycle domain;
*how the host drives the simulation* is a separate concern, extracted
behind :class:`ExecutionBackend`.  Every backend runs the same segment
loop, which takes the plans in index order along the Section 3.4
availability chain.  For each segment it

1. derives the flow-invalidation inputs (``unit_truth``, ``fiv_time``)
   from the composed predecessor;
2. loads the segment's result from the run's checkpoint when there is
   one, and otherwise executes it one *attempt* at a time under the
   run's :class:`~repro.exec.resilience.RetryPolicy`, writing the
   result through;
3. composes the result on the host and advances the FIV chain.

A backend supplies only the attempt, ``attempt(plan, truth, fiv_time)``:

``SerialBackend`` / ``VectorBackend``
    Attempts run in process on one :class:`SegmentScheduler`, stepping
    flows by set walk or by bit-parallel vector lookups.

``ProcessPoolBackend``
    Attempts run on a worker of a
    :class:`concurrent.futures.ProcessPoolExecutor` (spawn-safe, see
    :mod:`repro.exec.worker`).  With ``use_fiv=True`` a segment needs
    its predecessor's composed result, so it is dispatched when the
    loop reaches it.  With ``use_fiv=False`` no segment's *execution*
    depends on another's (truth only matters at composition), so a
    *dispatch-ahead window* of first attempts is filled before the loop
    (bounded by the admission guard's ``max_inflight``, skipping
    checkpointed segments) and topped up after each success; the loop
    collects each dispatch when it reaches that segment.

Recovery: a failed attempt (worker crash, dispatch timeout, transient
error, injected or real) is retried with the same composed-predecessor
inputs, so recovery is bit-exact.  On the process backend one
degradation ladder (:class:`_Ladder`) handles repeated failures: retry
on a rebuilt full-width pool, then downgrade the rest of the run to
in-process attempts (after ``downgrade_after`` consecutive failures or
when the optional circuit breaker opens), then fast-fail later runs to
in-process execution while the breaker stays open.

**Bit-exactness contract**: for any automaton, input, and configuration,
every backend — including any recovered or degraded run — produces
identical cycle-domain ``SegmentResult`` metrics, identical composition
outcomes, and identical report sets.  Backends change *host wall-clock*
only; the property-based equivalence tests in ``tests/exec/`` pin this.

Host-side composition (truth decisions, ``T_cpu`` decode accounting)
always runs in the parent process — it is the host's job in the paper,
and it is what produces each segment's ``previous_matched`` dependency.
"""

from __future__ import annotations

import functools
import multiprocessing
import os
import time
from concurrent.futures import (
    FIRST_COMPLETED,
    CancelledError,
    Future,
    ProcessPoolExecutor,
    wait,
)
from concurrent.futures import TimeoutError as FuturesTimeoutError
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from time import perf_counter_ns
from typing import Callable

from repro.automata.analysis import AutomatonAnalysis
from repro.automata.anml import Automaton
from repro.automata.execution import CompiledAutomaton
from repro.core.composition import (
    ComposedSegment,
    compose_segment,
    unit_truth_map,
)
from repro.core.config import PAPConfig
from repro.core.scheduler import SegmentPlan, SegmentResult, SegmentScheduler
from repro.errors import (
    ConfigurationError,
    ExecutionError,
    RETRYABLE_ERRORS,
    ReproError,
    SegmentTimeoutError,
    WorkerCrashError,
)
from repro.exec.durability import (
    CheckpointRun,
    CircuitBreaker,
    HedgePolicy,
)
from repro.exec.faults import (
    HANG,
    HOST_KINDS,
    STRAGGLER,
    FaultInjector,
    raise_fault,
)
from repro.exec.resilience import (
    DEFAULT_RETRY_POLICY,
    RetryPolicy,
    RunHealth,
    TRACK_EXEC,
    exec_event,
    run_with_retry,
)
from repro.exec.worker import RunPayload, run_segment_task, warm_up
from repro.host.decode import false_path_decode_cycles
from repro.obs.tracer import NULL_OBSERVER, TRACK_HOST, Observer

#: The spellable backend names accepted by :func:`resolve_backend` (and
#: the CLI's ``--backend`` flag).
BACKEND_NAMES = ("serial", "process", "vector")

#: One execution attempt of a segment: ``attempt(plan, unit_truth,
#: fiv_time)`` returns its result or raises.
Attempt = Callable[[SegmentPlan, dict[int, bool], "int | None"], SegmentResult]


@dataclass(frozen=True)
class ExecutionContext:
    """Everything a backend needs to execute one planned input."""

    automaton: Automaton
    compiled: CompiledAutomaton
    analysis: AutomatonAnalysis
    config: PAPConfig
    path_independent: frozenset[int]
    observer: Observer = NULL_OBSERVER
    retry: RetryPolicy = DEFAULT_RETRY_POLICY
    injector: FaultInjector | None = None
    health: RunHealth = field(default_factory=RunHealth)
    checkpoint: CheckpointRun | None = None
    """Durable segment-result store for this run (``None`` = no
    checkpointing).  The segment loop consults it before executing a
    segment and writes through after each success (see
    :mod:`repro.exec.durability`)."""
    max_inflight: int | None = None
    """Admission-guard bound on concurrently in-flight segment
    dispatches (``None`` = unbounded).  Caps the process backend's
    dispatch-ahead window (no-FIV runs); serial execution is inherently
    one segment at a time."""


@dataclass(frozen=True)
class SegmentOutcome:
    """One segment's execution result plus its host-side composition."""

    result: SegmentResult
    composed: ComposedSegment
    decode_cycles: int
    """``T_cpu`` for this segment (Figure 11), charged on the
    availability chain by the orchestrator when actually consumed."""


def _draw_fault(
    ctx: ExecutionContext, index: int, *, infrastructure: bool = True
) -> str | None:
    """One fault draw for this segment's next attempt (None = clean)."""
    if ctx.injector is None:
        return None
    kind = ctx.injector.draw(index, infrastructure=infrastructure)
    if kind is not None:
        exec_event(
            ctx.observer,
            "exec.faults_injected",
            "fault-injected",
            {"segment": index, "kind": kind},
        )
    return kind


class ExecutionBackend:
    """Strategy interface: run all segments of one planned input.

    Subclasses implement :meth:`execute` by handing :meth:`_run` an
    attempt function; the loop keeps the host-side dependency chain
    (unit truth, FIV timing, checkpoints, composition) identical across
    backends, which is what makes the bit-exactness contract cheap to
    uphold.
    """

    name = "abstract"
    #: Flow-stepping strategy of in-process attempts (see
    #: :data:`repro.core.scheduler.STRATEGY_NAMES`).
    strategy = "set"

    def execute(
        self,
        ctx: ExecutionContext,
        data: bytes,
        plans: tuple[SegmentPlan, ...],
    ) -> list[SegmentOutcome]:
        """Run every segment and compose each result, in index order."""
        raise NotImplementedError

    def close(self) -> None:
        """Release backend resources (worker pools).  Idempotent."""

    def __enter__(self) -> "ExecutionBackend":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- the segment loop -------------------------------------------------

    def _run(
        self,
        ctx: ExecutionContext,
        plans: tuple[SegmentPlan, ...],
        attempt: Attempt,
        *,
        on_success: Callable[[], None] | None = None,
    ) -> list[SegmentOutcome]:
        """Walk the availability chain: inputs, result, composition.

        A segment with a checkpointed result is never attempted;
        otherwise ``attempt`` runs under the retry policy, the result is
        written through, and ``on_success`` fires.
        """
        outcomes: list[SegmentOutcome] = []
        previous_matched: frozenset[int] = frozenset()
        fiv_chain = 0
        for plan in plans:
            truth, fiv_time = self._segment_inputs(
                ctx, plan, previous_matched, fiv_chain
            )
            result = self._checkpoint_load(ctx, plan)
            if result is None:
                result = run_with_retry(
                    ctx.retry,
                    ctx.health,
                    ctx.observer,
                    plan.segment.index,
                    lambda: attempt(plan, truth, fiv_time),
                )
                self._checkpoint_store(ctx, plan, result)
                if on_success is not None:
                    on_success()
            outcome = self._compose(ctx, result, truth)
            fiv_chain = (
                max(fiv_chain, result.metrics.finish_cycles)
                + outcome.decode_cycles
            )
            previous_matched = outcome.composed.final_matched
            outcomes.append(outcome)
        return outcomes

    def _inline(
        self,
        ctx: ExecutionContext,
        data: bytes,
        *,
        infrastructure: bool = True,
    ) -> Attempt:
        """The in-process attempt, on one scheduler of this strategy.

        A single process can only *model* worker faults: crash and hang
        raise their matching errors (``infrastructure=False``, after a
        process-backend downgrade, suppresses them: no workers are
        left), a straggler delays and then executes normally, and every
        other kind raises its transient error.
        """
        scheduler = SegmentScheduler(
            ctx.compiled,
            ctx.analysis,
            ctx.config,
            ctx.path_independent,
            observer=ctx.observer,
            strategy=self.strategy,
        )

        def attempt(
            plan: SegmentPlan, truth: dict[int, bool], fiv_time: int | None
        ) -> SegmentResult:
            index = plan.segment.index
            fault = _draw_fault(ctx, index, infrastructure=infrastructure)
            if fault == STRAGGLER:
                assert ctx.injector is not None
                time.sleep(ctx.injector.plan.straggler_s)
            elif fault is not None:
                raise_fault(fault, index)
            ctx.observer.metrics.counter("exec.dispatches").inc()
            return scheduler.run_segment(
                data, plan, unit_truth=truth, fiv_time=fiv_time
            )

        return attempt

    # -- shared host-side steps -------------------------------------------

    @staticmethod
    def _segment_inputs(
        ctx: ExecutionContext,
        plan: SegmentPlan,
        previous_matched: frozenset[int],
        fiv_chain: int,
    ) -> tuple[dict[int, bool], int | None]:
        """A segment's FIV inputs, resolved from its predecessor."""
        if plan.is_golden:
            return {}, None
        truth = unit_truth_map(plan.flows, previous_matched)
        fiv_time = (
            fiv_chain + ctx.config.timing.fiv_transfer_cycles
            if ctx.config.use_fiv
            else None
        )
        return truth, fiv_time

    @staticmethod
    def _compose(
        ctx: ExecutionContext,
        result: SegmentResult,
        truth: dict[int, bool],
    ) -> SegmentOutcome:
        """Host composition of one finished segment (always in-process)."""
        obs = ctx.observer
        span = obs.begin_span(
            f"compose[{result.plan.segment.index}]", track=TRACK_HOST
        )
        # The span's wall duration is the segment's compose phase.
        composed = compose_segment(result, truth, ctx.analysis)
        obs.end_span(
            span,
            args={
                "true_events": composed.true_events,
                "raw_events": composed.raw_events,
            },
        )
        decode = false_path_decode_cycles(
            max(1, result.metrics.flows_at_end), timing=ctx.config.timing
        )
        return SegmentOutcome(
            result=result, composed=composed, decode_cycles=decode
        )

    # -- durability (shared write-through checkpoint plumbing) ------------

    @staticmethod
    def _checkpoint_load(
        ctx: ExecutionContext, plan: SegmentPlan
    ) -> SegmentResult | None:
        """This segment's proven result, when the run has one on disk."""
        if ctx.checkpoint is None:
            return None
        result = ctx.checkpoint.load(plan)
        if result is not None:
            exec_event(
                ctx.observer,
                "exec.checkpoint.hits",
                "checkpoint-hit",
                {"segment": plan.segment.index},
            )
        return result

    @staticmethod
    def _checkpoint_store(
        ctx: ExecutionContext, plan: SegmentPlan, result: SegmentResult
    ) -> None:
        """Write one completed segment through to the checkpoint file."""
        if ctx.checkpoint is None:
            return
        corrupt = (
            ctx.injector.draw_checkpoint(plan.segment.index)
            if ctx.injector is not None
            else False
        )
        ctx.checkpoint.record(plan, result, corrupt=corrupt)
        exec_event(
            ctx.observer,
            "exec.checkpoint.writes",
            "checkpoint-write",
            {"segment": plan.segment.index, "corrupt": corrupt},
        )


class SerialBackend(ExecutionBackend):
    """The original in-process behaviour: one scheduler, segments
    executed in index order, composition interleaved segment to segment.

    Recovery: retryable failures (which in-process means injected
    faults modeled as their matching errors) re-execute the segment
    under the run's :class:`~repro.exec.resilience.RetryPolicy`.
    Re-execution is deterministic, so a recovered run is bit-exact.
    """

    name = "serial"

    def execute(
        self,
        ctx: ExecutionContext,
        data: bytes,
        plans: tuple[SegmentPlan, ...],
    ) -> list[SegmentOutcome]:
        obs = ctx.observer
        if obs.enabled and plans:
            obs.metrics.gauge("exec.workers").set(1)
        return self._run(ctx, plans, self._inline(ctx, data))


class VectorBackend(SerialBackend):
    """In-process execution on the bit-parallel vector strategy.

    Identical host topology to :class:`SerialBackend` — one scheduler,
    segments in index order — but every flow steps through
    :class:`repro.automata.vector.VectorFlowExecution`: packed-bitset
    state vectors advanced by precompiled per-symbol-class transition
    tables instead of per-state set walks.  Cycle-domain results are
    bit-exact with the serial backend (the ``tests/exec`` property
    corpus pins fingerprints and BENCH cycle metrics); only host
    wall-clock changes.  The win is largest on transition-bound
    automata with wide active sets (Levenshtein, Hamming) and can
    invert on large sparse-active automata — see the crossover notes in
    :mod:`repro.automata.vector`.
    """

    name = "vector"
    strategy = "vector"


class _Ladder:
    """One process-backend run's degradation ladder.

    The rungs, in order:

    1. retry a failed attempt on a rebuilt full-width pool (the run's
       :class:`~repro.exec.resilience.RetryPolicy`; a failure tears the
       pool down and the next dispatch rebuilds it);
    2. downgrade the rest of the run to in-process attempts, after
       ``downgrade_after`` consecutive failures or when the backend's
       circuit breaker opens;
    3. fast-fail later runs straight to rung 2 while the breaker is
       open, before any dispatch.

    This is the only code that drives the breaker and writes the
    downgrade and breaker fields of ``RunHealth``.  Only attempts that
    ran on the pool reach it, so in-process successes after a
    downgrade never reset the breaker's count.  A dispatch-ahead window
    entry collected after a downgrade is still a pool attempt: its
    success counts, but its failure does not, because the downgrade
    tore its pool down (a cancelled or lost dispatch says nothing new
    about the pool).
    """

    def __init__(
        self,
        backend: "ProcessPoolBackend",
        ctx: ExecutionContext,
        first: SegmentPlan,
    ) -> None:
        self.backend = backend
        self.ctx = ctx
        self.consecutive = 0
        self.downgraded = False
        breaker = backend.breaker
        if breaker is not None and not breaker.allow():
            # Rung 3: no pool build, no per-segment failure churn.
            ctx.observer.metrics.counter("breaker.fastfails").inc()
            self._downgrade(first, f"breaker open: {breaker.reason}")
            self._note_breaker(first, opened=False)

    def failure(self, plan: SegmentPlan, error: BaseException) -> None:
        """Record one failed pool attempt; climb the ladder if due."""
        if self.downgraded:
            return
        self.consecutive += 1
        breaker = self.backend.breaker
        if breaker is not None and isinstance(
            error, (WorkerCrashError, SegmentTimeoutError)
        ):
            opened = breaker.record_failure(error)
            self._note_breaker(plan, opened=opened)
            if opened:
                self._downgrade(plan, f"breaker open: {breaker.reason}", error)
                return
        limit = self.ctx.retry.downgrade_after
        if limit is not None and self.consecutive >= limit:
            self._downgrade(
                plan,
                f"{self.consecutive} consecutive process-backend failures "
                f"(last: {type(error).__name__})",
                error,
            )

    def success(self) -> None:
        """Record one successful pool attempt."""
        self.consecutive = 0
        breaker = self.backend.breaker
        if breaker is not None:
            was = breaker.state
            breaker.record_success()
            if was != breaker.state:
                self._note_breaker(None, opened=False)

    def _downgrade(
        self,
        plan: SegmentPlan,
        reason: str,
        error: BaseException | None = None,
    ) -> None:
        """Rung 2: switch the rest of the run to in-process attempts."""
        self.downgraded = True
        ctx = self.ctx
        health = ctx.health
        health.downgraded = True
        health.downgraded_at_segment = plan.segment.index
        health.downgrade_reason = reason
        args: dict[str, object] = {
            "segment": plan.segment.index,
            "consecutive_failures": self.consecutive,
        }
        if error is not None:
            args["error"] = type(error).__name__
        args["reason"] = reason
        exec_event(ctx.observer, "exec.downgrades", "backend-downgrade", args)
        ctx.observer.metrics.gauge("exec.workers").set(1)
        # Workers are no longer needed; reclaim them without waiting on
        # whatever broke them.
        self.backend._teardown(wait=False)

    def _note_breaker(self, plan: SegmentPlan | None, *, opened: bool) -> None:
        """Mirror the breaker's state into health, metrics, and ledger."""
        breaker = self.backend.breaker
        assert breaker is not None
        health = self.ctx.health
        health.breaker_state = breaker.state
        health.breaker_reason = breaker.reason
        obs = self.ctx.observer
        obs.metrics.gauge("breaker.state").set(breaker.state_code)
        args: dict[str, object] = {"state": breaker.state}
        if plan is not None:
            args["segment"] = plan.segment.index
        if breaker.reason is not None:
            args["reason"] = breaker.reason
        exec_event(
            obs,
            "breaker.opens" if opened else None,
            "breaker-open" if opened else "breaker-state",
            args,
        )


class ProcessPoolBackend(ExecutionBackend):
    """Host-parallel segment execution on a process pool.

    Parameters
    ----------
    workers:
        Worker process count; defaults to the host CPU count.
    mp_context:
        ``multiprocessing`` start method.  Defaults to ``"spawn"`` — the
        only method safe on every platform, and the one the payload
        serialization is designed for.  ``"fork"`` works on POSIX and
        skips child interpreter start-up.

    The pool is created lazily on first use and *reused across runs* (a
    warmup pass through :func:`repro.perf.measure.measure_wall` therefore
    also warms the pool), so callers owning a backend instance should
    :meth:`close` it — or use it as a context manager — when done.  A
    freshly built pool runs one no-op task before its first dispatch, so
    worker start-up is recorded as ``exec.pool_cold_start_ms`` rather
    than charged against a segment's dispatch timeout.

    Recovery: a broken pool (worker crash) or a tripped per-segment
    dispatch timeout tears the executor down *without waiting* (a hung
    worker cannot be joined) and the next dispatch — a retry of the
    failed segment or a later run on the same backend instance —
    lazily rebuilds a fresh full-width pool.  Repeated failures climb
    the run's degradation ladder (see :class:`_Ladder`).

    Durability (see :mod:`repro.exec.durability`): ``hedge`` enables
    straggler hedging — a dispatch outstanding past a MAD-based
    multiple of this run's completed dispatch walls is speculatively
    re-dispatched and the first result wins.  ``breaker`` attaches a
    circuit breaker over infrastructure failures — open, it fast-fails
    runs to in-process execution (with a RunHealth reason code)
    instead of rebuilding the pool per failure, until its cooldown
    admits a probe.  Both are bit-exactness-preserving: a hedge
    duplicate computes the identical pure function, and downgraded
    execution is the serial backend's.
    """

    name = "process"

    def __init__(
        self,
        workers: int | None = None,
        *,
        mp_context: str = "spawn",
        hedge: HedgePolicy | None = None,
        breaker: CircuitBreaker | None = None,
    ) -> None:
        if workers is not None and workers < 1:
            raise ConfigurationError("process backend needs >= 1 worker")
        self.workers = workers if workers is not None else os.cpu_count() or 1
        self.hedge = hedge
        self.breaker = breaker
        self._mp_context = mp_context
        self._executor: ProcessPoolExecutor | None = None
        self._run_counter = 0

    # -- pool lifecycle ---------------------------------------------------

    def _pool(self, obs: Observer) -> ProcessPoolExecutor:
        """The live executor, built and warmed on first use.

        A spawned worker's first task pays interpreter start-up and the
        import of :mod:`repro.exec.worker`.  Waiting out one no-op task
        here keeps that cold start out of the first dispatch's timeout
        and hedging samples.
        """
        if self._executor is None:
            start = perf_counter_ns()
            self._executor = ProcessPoolExecutor(
                max_workers=self.workers,
                mp_context=multiprocessing.get_context(self._mp_context),
            )
            self._executor.submit(warm_up).result()
            exec_event(
                obs,
                "exec.pool_cold_start_ms",
                observe=(perf_counter_ns() - start) / 1e6,
            )
        return self._executor

    def _teardown(self, *, wait: bool) -> None:
        """Discard the executor; the next :meth:`_pool` call rebuilds it.

        ``wait=False`` is mandatory on breakage/timeout paths: a broken
        or hung pool may never join, and a blocking shutdown would turn
        one lost worker into a lost run.
        """
        if self._executor is not None:
            self._executor.shutdown(wait=wait, cancel_futures=True)
            self._executor = None

    def close(self) -> None:
        self._teardown(wait=True)

    # -- dispatch ---------------------------------------------------------

    def _submit(
        self,
        ctx: ExecutionContext,
        token: object,
        payload: RunPayload,
        plan: SegmentPlan,
        truth: dict[int, bool] | None,
        fiv_time: int | None,
    ) -> tuple[Future, int]:
        """Draw this attempt's fault and ship the segment to a worker."""
        index = plan.segment.index
        fault = _draw_fault(ctx, index)
        if fault in HOST_KINDS:
            # Host-side faults (FIV-write failure) happen before any
            # dispatch: the FIV never reaches the segment.
            raise_fault(fault, index)
        obs = ctx.observer
        obs.metrics.counter("exec.dispatches").inc()
        worker_fault = None
        if fault is not None and ctx.injector is not None:
            # hang and straggler both ship a sleep; only its magnitude
            # (relative to timeout/hedge thresholds) differs.
            plan_faults = ctx.injector.plan
            delay = (
                plan_faults.hang_s
                if fault == HANG
                else plan_faults.straggler_s
            )
            worker_fault = (fault, delay)
        try:
            pool = self._pool(obs)
            span_args = {
                "kind": "golden" if plan.is_golden else "enumerated",
                "flows": len(plan.flows),
            }
            if obs.run_id is not None:
                # Correlate worker events with the run's ledger: every
                # dispatch span names the flight recorder's run id.
                span_args["run"] = obs.run_id
            span = obs.begin_span(
                f"dispatch[{index}]", track=TRACK_EXEC, args=span_args
            )
            future = pool.submit(
                run_segment_task,
                token,
                payload,
                plan,
                truth,
                fiv_time,
                worker_fault,
                # Capture worker-side telemetry only when someone is
                # listening; un-observed runs ship no extra pickles.
                obs.enabled,
            )
        except BrokenProcessPool as error:
            self._teardown(wait=False)
            raise WorkerCrashError(
                f"process backend could not dispatch segment {index}: "
                f"worker pool is broken ({error})"
            ) from error
        return future, span

    def _collect(
        self,
        ctx: ExecutionContext,
        samples: list[float],
        plan: SegmentPlan,
        dispatch: tuple[Future, int],
        redispatch: Callable[[], tuple[Future, int]],
    ) -> SegmentResult:
        """Wait out one dispatch, hedging it if it straggles.

        With a :class:`HedgePolicy` attached, a dispatch still
        outstanding past the MAD-based threshold over this run's
        completed dispatch walls is speculatively re-submitted through
        ``redispatch``; whichever copy finishes first wins and the loser
        is cancelled.  Both copies compute the same pure function of the
        same inputs, so first-winner selection cannot change the cycle
        domain.  The per-segment dispatch timeout, when set, still
        bounds the *total* wait including the hedge.  Each completed
        dispatch's wall is appended to ``samples``.
        """
        obs = ctx.observer
        index = plan.segment.index
        timeout = ctx.retry.segment_timeout_s
        policy = self.hedge
        start = time.monotonic()
        threshold = (
            policy.threshold_s(samples) if policy is not None else None
        )
        future, span = dispatch
        outstanding: dict[Future, int] = {future: span}
        hedged = False
        task_result = None
        winner_span = span
        hedge_won = False
        try:
            while task_result is None:
                elapsed = time.monotonic() - start
                if timeout is not None and elapsed >= timeout:
                    raise FuturesTimeoutError()
                # Sleep until a copy finishes, the deadline passes, or the
                # hedge threshold comes due, whichever is first.
                wakes = [
                    limit - elapsed
                    for limit in (timeout, None if hedged else threshold)
                    if limit is not None
                ]
                quantum = max(min(wakes), 0.0) if wakes else None
                done, _ = wait(
                    outstanding, timeout=quantum, return_when=FIRST_COMPLETED
                )
                if not done:
                    if (
                        threshold is not None
                        and not hedged
                        and time.monotonic() - start >= threshold
                    ):
                        hedged = True
                        hedge_future, hedge_span = redispatch()
                        outstanding[hedge_future] = hedge_span
                        ctx.health.hedges += 1
                        exec_event(
                            obs,
                            "exec.hedges",
                            "segment-hedged",
                            {
                                "segment": index,
                                "threshold_ms": threshold * 1e3,
                            },
                        )
                    continue
                # Prefer the primary when both land in the same wait
                # slice; either result is bit-exact.
                finished = future if future in done else next(iter(done))
                finished_span = outstanding.pop(finished)
                try:
                    task_result = finished.result()
                    winner_span = finished_span
                    hedge_won = finished is not future
                except (BrokenProcessPool, CancelledError) as error:
                    # A broken pool takes every outstanding copy with
                    # it; a lone cancellation only loses one.
                    if (
                        isinstance(error, CancelledError)
                        and outstanding
                    ):
                        obs.end_span(
                            finished_span, args={"outcome": "cancelled"}
                        )
                        continue
                    self._teardown(wait=False)
                    raise WorkerCrashError(
                        f"process backend worker died while executing "
                        f"segment {index} (pool broken: {error})"
                    ) from error
                except ReproError as error:
                    # With a healthy hedge still out, its result may
                    # yet land — keep waiting instead of failing the
                    # attempt.
                    if outstanding:
                        obs.end_span(
                            finished_span,
                            args={"outcome": type(error).__name__},
                        )
                        continue
                    raise
                except Exception as error:  # noqa: BLE001 — worker errors vary
                    self.close()
                    raise ExecutionError(
                        f"segment {index} failed in worker process: {error!r}"
                    ) from error
        except FuturesTimeoutError as error:
            # The worker may be genuinely hung; it cannot be reclaimed,
            # so recycle the whole pool and let any retry start fresh.
            for pending in outstanding:
                pending.cancel()
            self._teardown(wait=False)
            raise SegmentTimeoutError(
                f"segment {index} exceeded the {timeout:g}s dispatch "
                "timeout; worker pool recycled"
            ) from error
        for loser, loser_span in outstanding.items():
            loser.cancel()
            obs.end_span(loser_span, args={"outcome": "hedge-loser"})
        if hedge_won:
            waited_ms = (time.monotonic() - start) * 1e3
            ctx.health.hedge_wins.append(
                {"segment": index, "waited_ms": waited_ms}
            )
            exec_event(
                obs,
                "exec.hedge_wins",
                "hedge-win",
                {"segment": index, "waited_ms": waited_ms},
            )
        samples.append(time.monotonic() - start)
        obs.end_span(
            winner_span,
            args={
                "pid": task_result.pid,
                "worker_wall_ms": task_result.wall_ns / 1e6,
            },
        )
        if task_result.batch is not None:
            # Merge the worker's shipped records under this dispatch
            # span: per-pid tracks, re-based timestamps, worker.*
            # metrics (see repro.obs.remote).
            obs.ingest_worker_batch(
                task_result.batch, span=winner_span, segment=index
            )
        return task_result.result

    def execute(
        self,
        ctx: ExecutionContext,
        data: bytes,
        plans: tuple[SegmentPlan, ...],
    ) -> list[SegmentOutcome]:
        if not plans:
            return []
        if ctx.observer.enabled:
            ctx.observer.metrics.gauge("exec.workers").set(self.workers)
        self._run_counter += 1
        token = (id(self), self._run_counter)
        payload = RunPayload(
            automaton=ctx.automaton,
            config=ctx.config,
            path_independent=ctx.path_independent,
            data=data,
        )
        ladder = _Ladder(self, ctx, plans[0])
        samples: list[float] = []  # completed dispatch walls, for hedging

        submit = functools.partial(self._submit, ctx, token, payload)
        # Dispatch-ahead window (no-FIV only): first attempts already in
        # flight, keyed by segment index.  A dispatch that failed on the
        # host is kept as its error and surfaces as that segment's first
        # failed attempt when the loop reaches it.
        window: dict[int, tuple[Future, int] | BaseException] = {}
        limit = ctx.max_inflight if (ctx.max_inflight or 0) > 0 else None
        ahead = iter(
            ()
            if ctx.config.use_fiv
            else [
                plan
                for plan in plans
                if ctx.checkpoint is None or not ctx.checkpoint.has(plan)
            ]
        )

        def top_up() -> None:
            while not ladder.downgraded and (
                limit is None or len(window) < limit
            ):
                plan = next(ahead, None)
                if plan is None:
                    return
                try:
                    window[plan.segment.index] = submit(plan, None, None)
                except RETRYABLE_ERRORS as error:
                    window[plan.segment.index] = error

        inline = self._inline(ctx, data, infrastructure=False)

        def attempt(
            plan: SegmentPlan, truth: dict[int, bool], fiv_time: int | None
        ) -> SegmentResult:
            entry = window.pop(plan.segment.index, None)
            if entry is None and ladder.downgraded:
                return inline(plan, truth, fiv_time)
            try:
                if isinstance(entry, BaseException):
                    raise entry
                result = self._collect(
                    ctx,
                    samples,
                    plan,
                    entry or submit(plan, truth, fiv_time),
                    # A hedge is a fresh attempt to the injector: seeded
                    # first-attempt faults do not re-fire on the
                    # speculative copy.
                    lambda: submit(plan, truth, fiv_time),
                )
            except RETRYABLE_ERRORS as error:
                ladder.failure(plan, error)
                raise
            ladder.success()
            return result

        top_up()
        return self._run(ctx, plans, attempt, on_success=top_up)


def resolve_backend(
    backend: "ExecutionBackend | str | None",
    *,
    workers: int | None = None,
    hedge: HedgePolicy | None = None,
    breaker: CircuitBreaker | None = None,
) -> ExecutionBackend:
    """Turn a backend spec (instance, name, or ``None``) into an instance.

    ``None`` and ``"serial"`` yield a fresh :class:`SerialBackend`;
    ``"process"`` yields a :class:`ProcessPoolBackend` with ``workers``
    (plus the optional ``hedge`` policy and circuit ``breaker``);
    ``"vector"`` yields a :class:`VectorBackend` (in-process, so
    ``workers`` is ignored exactly as for ``"serial"``).  An existing
    instance passes through untouched (``workers``, ``hedge``, and
    ``breaker`` must then be ``None`` — the instance already owns its
    pool and policies).  ``hedge``/``breaker`` on an in-process backend
    name is a configuration error: there are no dispatches to hedge and
    no pool to protect.
    """
    if isinstance(backend, ExecutionBackend):
        if workers is not None:
            raise ConfigurationError(
                "workers cannot be overridden on an existing backend "
                "instance; construct the backend with the desired count"
            )
        if hedge is not None or breaker is not None:
            raise ConfigurationError(
                "hedge/breaker cannot be overridden on an existing "
                "backend instance; construct the backend with them"
            )
        return backend
    if backend == "process":
        return ProcessPoolBackend(workers=workers, hedge=hedge, breaker=breaker)
    if hedge is not None or breaker is not None:
        raise ConfigurationError(
            "straggler hedging and circuit breakers need the process "
            "backend (in-process execution has no dispatches to hedge)"
        )
    if backend is None or backend == "serial":
        return SerialBackend()
    if backend == "vector":
        return VectorBackend()
    raise ConfigurationError(
        f"unknown execution backend {backend!r} "
        f"(expected one of {', '.join(BACKEND_NAMES)})"
    )
