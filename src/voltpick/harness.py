"""Metered micro-benchmark execution with warmup discard and time threshold.

Run discipline: every (implementation, operation, scenario) cell executes N
independent runs.  Each run re-creates the structure from the seeded
workload generator, then meters only the operation body.  Summaries drop
the first W warmup runs and average the rest (defaults N=10, W=3, so means
cover the seven remaining executions).  Per operation, any implementation
whose mean time exceeds ``factor`` times the fastest alternative's mean
time is re-marked discarded (default factor 100, i.e. two orders of
magnitude), and the fastest alternative itself can never be discarded.

All metered execution is strictly serial within one process: starting a
second metered series while one is running raises HarnessBusy.  A
best-effort allocator quiescence step (gc.collect) runs between runs,
outside the spans.
"""

from __future__ import annotations

import gc
import threading
from dataclasses import dataclass, field
from statistics import fmean
from typing import Callable, Sequence

from .errors import (
    BackendUnavailable,
    EmptyGroup,
    HarnessBusy,
    InvalidConfig,
    MeterFailure,
    NotMeasured,
    ReadFailure,
)
from .groups import ConstructGroup, ImplementationAdapter, OperationSpec, Workload, derive_seed
from .meter import Meter

STATUS_MEASURED = "measured"
STATUS_DISCARDED = "discarded-threshold"
STATUS_UNSUPPORTED = "unsupported"

ProgressFn = Callable[[dict], None]

_METER_GUARD = threading.Lock()


@dataclass(frozen=True)
class Scenario:
    """Workload-intensity preset: structure size and repetitions per run."""

    scenario_id: str
    element_count: int
    op_repetitions: int

    def __post_init__(self):
        if self.element_count < 1:
            raise InvalidConfig(
                f"scenario {self.scenario_id!r} has {self.element_count} elements; "
                "profiling needs at least 1"
            )
        if self.op_repetitions < 1:
            raise ValueError("op_repetitions must be >= 1")


#: small/medium/big usage-intensity presets; sizes strictly increase.
SCENARIOS = {
    "small": Scenario("small", 1_000, 1_000),
    "medium": Scenario("medium", 100_000, 1_000),
    "big": Scenario("big", 1_000_000, 100),
}


def scenario_preset(scenario_id: str, element_count: int | None = None,
                    op_repetitions: int | None = None) -> Scenario:
    """Look up a preset, optionally overriding its sizes (expert knob)."""
    base = SCENARIOS[scenario_id]
    if element_count is None and op_repetitions is None:
        return base
    return Scenario(
        base.scenario_id,
        base.element_count if element_count is None else element_count,
        base.op_repetitions if op_repetitions is None else op_repetitions,
    )


@dataclass(frozen=True)
class RunPlan:
    """How many runs, how many warmups to drop, discard factor, seed."""

    total_runs: int = 10
    warmup_discard: int = 3
    time_threshold_factor: float = 100.0
    rng_seed: int = 0

    def __post_init__(self):
        if self.total_runs < 1:
            raise ValueError("total_runs must be >= 1")
        if not 0 <= self.warmup_discard < self.total_runs:
            raise ValueError("warmup_discard must satisfy 0 <= W < N")
        if self.time_threshold_factor <= 1:
            raise ValueError("time_threshold_factor must be > 1")

    @classmethod
    def quick(cls, rng_seed: int = 0) -> "RunPlan":
        """Short screening preset (3 runs, no warmup discard)."""
        return cls(total_runs=3, warmup_discard=0, rng_seed=rng_seed)


@dataclass
class MeasurementSeries:
    """Ordered per-run (joules, seconds) pairs for one benchmark cell."""

    impl_id: str
    op_id: str
    scenario_id: str
    runs: list[tuple[float, float]] = field(default_factory=list)
    status: str = STATUS_MEASURED


@dataclass
class OpSummary:
    """A summarized series, the unit the threshold rule operates on."""

    impl_id: str
    op_id: str
    status: str
    mean_joules: float | None = None
    mean_seconds: float | None = None


def run_operation(adapter: ImplementationAdapter, op: OperationSpec,
                  scenario: Scenario, meter: Meter, plan: RunPlan,
                  progress: ProgressFn | None = None) -> MeasurementSeries:
    """Execute one benchmark cell: N runs of op on a fresh structure each.

    Implementations that do not support the operation yield a series with
    status "unsupported" and no runs (and no meter reads).
    """
    series = MeasurementSeries(adapter.impl_id, op.op_id, scenario.scenario_id)
    if not adapter.supports(op.op_id):
        series.status = STATUS_UNSUPPORTED
        if progress:
            progress({"event": "series", "impl": adapter.impl_id,
                      "op": op.op_id, "status": STATUS_UNSUPPORTED})
        return series

    seed = derive_seed(plan.rng_seed, adapter.impl_id, op.op_id,
                       scenario.scenario_id)
    workload = Workload.generate(seed, scenario.element_count,
                                 scenario.op_repetitions, op)
    body = adapter.ops[op.op_id]

    if not _METER_GUARD.acquire(blocking=False):
        raise HarnessBusy("another metered series is already running")
    try:
        for _ in range(plan.total_runs):
            structure = adapter.factory(workload.contents)
            gc.collect()
            try:
                token = meter.span_begin()
                body(structure, workload)
                reading = meter.span_end(token)
            except (ReadFailure, BackendUnavailable) as exc:
                raise MeterFailure(str(exc)) from exc
            series.runs.append((reading.joules, reading.elapsed_seconds))
            del structure
    finally:
        _METER_GUARD.release()

    if progress:
        progress({"event": "series", "impl": adapter.impl_id, "op": op.op_id,
                  "status": STATUS_MEASURED, "runs": len(series.runs)})
    return series


def summarize(series: MeasurementSeries, warmup_discard: int) -> tuple[float, float]:
    """Mean (joules, seconds) over the runs after the first W warmups."""
    if series.status != STATUS_MEASURED:
        raise NotMeasured(
            f"series {series.impl_id}/{series.op_id} has status {series.status}"
        )
    if not 0 <= warmup_discard < len(series.runs):
        raise ValueError("warmup_discard must satisfy 0 <= W < len(runs)")
    tail = series.runs[warmup_discard:]
    return fmean(j for j, _ in tail), fmean(s for _, s in tail)


def apply_time_threshold(summaries: Sequence[OpSummary],
                         factor: float) -> list[OpSummary]:
    """Re-mark summaries whose mean time exceeds factor x the fastest.

    Operates on the summaries of one (operation, scenario) across the
    implementation pool.  The comparison is strictly greater-than, so the
    boundary case of exactly factor x the fastest is kept; the fastest
    implementation itself is never discarded.
    """
    measured = [s for s in summaries if s.status == STATUS_MEASURED]
    if not measured:
        raise EmptyGroup("no measured series to apply the time threshold to")
    t_min = min(s.mean_seconds for s in measured)
    out = []
    for s in summaries:
        if s.status == STATUS_MEASURED and s.mean_seconds > factor * t_min:
            out.append(OpSummary(s.impl_id, s.op_id, STATUS_DISCARDED))
        else:
            out.append(s)
    return out


def summarize_group(group_series: Sequence[MeasurementSeries], plan: RunPlan,
                    progress: ProgressFn | None = None) -> list[OpSummary]:
    """Summarize one operation's series across the pool and apply the threshold."""
    summaries = []
    for series in group_series:
        if series.status == STATUS_MEASURED:
            mean_j, mean_s = summarize(series, plan.warmup_discard)
            summaries.append(OpSummary(series.impl_id, series.op_id,
                                       STATUS_MEASURED, mean_j, mean_s))
        else:
            summaries.append(OpSummary(series.impl_id, series.op_id,
                                       series.status))
    if any(s.status == STATUS_MEASURED for s in summaries):
        thresholded = apply_time_threshold(summaries, plan.time_threshold_factor)
    else:
        thresholded = summaries
    if progress:
        for before, after in zip(summaries, thresholded):
            if before.status != after.status:
                progress({"event": "discard", "impl": after.impl_id,
                          "op": after.op_id, "mean_seconds": before.mean_seconds,
                          "factor": plan.time_threshold_factor})
    return thresholded


def measurement_grid(groups: Sequence[ConstructGroup]):
    """Deterministic benchmark order: groups as given, impls sorted, ops declared.

    Yields (group, adapter, op) triples; the profile builder executes them
    in exactly this order, which scripted meters can rely on.
    """
    for group in groups:
        adapters = sorted(group.implementations, key=lambda a: a.impl_id)
        for op in group.operations:
            for adapter in adapters:
                yield group, adapter, op
