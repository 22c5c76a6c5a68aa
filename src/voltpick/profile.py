"""Energy profiles: building, persistence, and dominance pruning.

A profile entry is a pair of numbers, mean joules and mean seconds, for one
(implementation, operation) cell under one scenario.  The numbers are
profile-relative scores for comparing alternatives measured on the same
device, not predictions of real-world consumption.

Implementation A dominates implementation B when, for every operation of
their shared API kind, both cells are measured and A's mean energy is
strictly lower than B's.  Dominated implementations are never recommended,
so they can be pruned from the candidate pool up front.  An implementation
with any unsupported or discarded cell can neither dominate nor be
dominated; it stays a candidate for sites whose operations it has measured.

Profiles are scenario-scoped files.  Cross-scenario comparison happens in
the recommender; profile files are never merged.
"""

from __future__ import annotations

import os
import platform
from dataclasses import dataclass, field
from datetime import datetime, timezone
from typing import Sequence

from . import jsonio
from .errors import (
    ApiKindMismatch,
    EmptyGroup,
    InvalidConfig,
    MalformedProfile,
    SchemaVersionMismatch,
    UnknownApiKind,
    UnknownImplementation,
)
from .groups import ConstructGroup
from .harness import (
    STATUS_MEASURED,
    STATUS_UNSUPPORTED,
    MeasurementSeries,
    OpSummary,
    ProgressFn,
    RunPlan,
    Scenario,
    measurement_grid,
    run_operation,
    summarize_group,
)
from .meter import Meter

SCHEMA_VERSION = 1

_STATUSES = (STATUS_MEASURED, "discarded-threshold", STATUS_UNSUPPORTED)


@dataclass
class ProfileEntry:
    """Scores for one (implementation, operation) cell; absent unless measured."""

    status: str
    mean_joules: float | None = None
    mean_seconds: float | None = None


@dataclass
class EnergyProfile:
    """The full implementation x operation grid for one scenario on one device."""

    schema_version: int
    device_fingerprint: str
    scenario: Scenario
    created_at: str
    entries: dict[tuple[str, str], ProfileEntry]
    api_kinds: dict[str, str]  # impl_id -> api_kind

    def impls_for_kind(self, api_kind: str) -> list[str]:
        impls = sorted(i for i, k in self.api_kinds.items() if k == api_kind)
        if not impls:
            raise UnknownApiKind(f"profile has no implementations of kind {api_kind!r}")
        return impls

    def ops_for_kind(self, api_kind: str) -> list[str]:
        kinds = self.api_kinds
        return sorted({op for (impl, op) in self.entries if kinds[impl] == api_kind})

    def kinds(self) -> set[str]:
        return set(self.api_kinds.values())

    def entry(self, impl_id: str, op_id: str) -> ProfileEntry | None:
        return self.entries.get((impl_id, op_id))

    def measured_entry(self, impl_id: str, op_id: str) -> ProfileEntry | None:
        e = self.entries.get((impl_id, op_id))
        return e if e is not None and e.status == STATUS_MEASURED else None

    def validate(self) -> None:
        for (impl, op), entry in self.entries.items():
            if impl not in self.api_kinds:
                raise MalformedProfile(f"entry for unregistered impl {impl!r}")
            if entry.status not in _STATUSES:
                raise MalformedProfile(
                    f"entry {impl}/{op} has unknown status {entry.status!r}"
                )
            if entry.status == STATUS_MEASURED:
                if entry.mean_joules is None or entry.mean_seconds is None:
                    raise MalformedProfile(f"measured entry {impl}/{op} lacks scores")
                if not (entry.mean_joules > 0 and entry.mean_seconds > 0):
                    raise MalformedProfile(
                        f"measured entry {impl}/{op} must have positive scores, "
                        f"got {entry.mean_joules} J / {entry.mean_seconds} s"
                    )
            elif entry.mean_joules is not None or entry.mean_seconds is not None:
                raise MalformedProfile(
                    f"{entry.status} entry {impl}/{op} must not carry scores"
                )


def host_fingerprint(meter_label: str | None = None, note: str = "") -> str:
    """Free-form host descriptor recorded in every profile.

    Informative only: the recommender warns, never errors, when it differs
    from the analysis host.  CPU frequency pinning is not attempted; the
    note field is the place to record the environment instead.
    """
    parts = [
        platform.node() or "unknown-host",
        platform.machine() or "unknown-arch",
        f"{platform.system()}-{platform.release()}",
        f"python-{platform.python_version()}",
    ]
    if meter_label:
        parts.append(f"meter={meter_label}")
    if note:
        parts.append(f"note={note}")
    return ";".join(parts)


def _now_rfc3339() -> str:
    """Current UTC time; honors SOURCE_DATE_EPOCH for reproducible output."""
    epoch = os.environ.get("SOURCE_DATE_EPOCH")
    if epoch is not None:
        moment = datetime.fromtimestamp(int(epoch), tz=timezone.utc)
    else:
        moment = datetime.now(tz=timezone.utc)
    return moment.strftime("%Y-%m-%dT%H:%M:%SZ")


def build_profile(groups: Sequence[ConstructGroup], scenario: Scenario,
                  meter: Meter, plan: RunPlan,
                  progress: ProgressFn | None = None,
                  environment_note: str = "") -> EnergyProfile:
    """Benchmark the full grid, summarize, threshold, and assemble a profile."""
    groups = list(groups)
    if not groups:
        raise EmptyGroup("no construct groups to profile")

    api_kinds: dict[str, str] = {}
    for group in groups:
        for desc in group.descriptors():
            api_kinds[desc.impl_id] = desc.api_kind

    # benchmark in grid order, then threshold per (operation, scenario)
    series_by_op: dict[tuple[str, str], list[MeasurementSeries]] = {}
    for group, adapter, op in measurement_grid(groups):
        series = run_operation(adapter, op, scenario, meter, plan, progress)
        series_by_op.setdefault((group.api_kind, op.op_id), []).append(series)

    entries: dict[tuple[str, str], ProfileEntry] = {}
    for (_kind, _op), series_list in series_by_op.items():
        for summary in summarize_group(series_list, plan, progress):
            entries[(summary.impl_id, summary.op_id)] = ProfileEntry(
                summary.status, summary.mean_joules, summary.mean_seconds
            )

    profile = EnergyProfile(
        schema_version=SCHEMA_VERSION,
        device_fingerprint=host_fingerprint(meter.backend_id, environment_note),
        scenario=scenario,
        created_at=_now_rfc3339(),
        entries=entries,
        api_kinds=api_kinds,
    )
    profile.validate()
    return profile


# --- dominance ----------------------------------------------------------------

def dominates(profile: EnergyProfile, a: str, b: str) -> bool:
    """True iff a's mean energy is strictly below b's for every operation.

    Both cells must be measured for every operation of the kind; a missing,
    unsupported, or discarded cell on either side makes the pair
    incomparable (never dominant).  Ties on any operation also break
    dominance: strict inequality is required throughout.
    """
    for impl in (a, b):
        if impl not in profile.api_kinds:
            raise UnknownImplementation(f"{impl!r} is not in this profile")
    kind_a, kind_b = profile.api_kinds[a], profile.api_kinds[b]
    if kind_a != kind_b:
        raise ApiKindMismatch(f"{a} is {kind_a}, {b} is {kind_b}")
    if a == b:
        return False
    ops = profile.ops_for_kind(kind_a)
    if not ops:
        return False
    for op in ops:
        ea = profile.measured_entry(a, op)
        eb = profile.measured_entry(b, op)
        if ea is None or eb is None or not ea.mean_joules < eb.mean_joules:
            return False
    return True


def prune_dominated(profile: EnergyProfile, api_kind: str) -> list[str]:
    """Implementations of the kind not dominated by any other, sorted by id."""
    impls = profile.impls_for_kind(api_kind)
    return [
        x for x in impls
        if not any(dominates(profile, y, x) for y in impls if y != x)
    ]


def dominance_pairs(profile: EnergyProfile, api_kind: str) -> list[tuple[str, str]]:
    impls = profile.impls_for_kind(api_kind)
    return [(a, b) for a in impls for b in impls
            if a != b and dominates(profile, a, b)]


def scale_profile(profile: EnergyProfile, k: float) -> EnergyProfile:
    """Copy with every measured mean_joules multiplied by k > 0.

    Dominance and recommendation choices are invariant under this scaling;
    it exists for sensitivity checks and tests.
    """
    if k <= 0:
        raise ValueError("scale factor must be > 0")
    scaled = {
        key: ProfileEntry(
            e.status,
            e.mean_joules * k if e.mean_joules is not None else None,
            e.mean_seconds,
        )
        for key, e in profile.entries.items()
    }
    return EnergyProfile(profile.schema_version, profile.device_fingerprint,
                         profile.scenario, profile.created_at, scaled,
                         dict(profile.api_kinds))


# --- persistence ----------------------------------------------------------------

_TOP_FIELDS = {"schema_version", "device_fingerprint", "scenario", "created_at", "entries"}
_SCENARIO_FIELDS = {"scenario_id", "element_count", "op_repetitions"}
_ENTRY_FIELDS = {"impl", "op", "api_kind", "status", "mean_joules", "mean_seconds"}


def profile_to_dict(profile: EnergyProfile) -> dict:
    entries = []
    for (impl, op) in sorted(profile.entries):
        e = profile.entries[(impl, op)]
        row = {
            "impl": impl,
            "op": op,
            "api_kind": profile.api_kinds[impl],
            "status": e.status,
        }
        if e.status == STATUS_MEASURED:
            row["mean_joules"] = jsonio.canonical_number(e.mean_joules)
            row["mean_seconds"] = jsonio.canonical_number(e.mean_seconds)
        entries.append(row)
    return {
        "schema_version": profile.schema_version,
        "device_fingerprint": profile.device_fingerprint,
        "scenario": {
            "scenario_id": profile.scenario.scenario_id,
            "element_count": profile.scenario.element_count,
            "op_repetitions": profile.scenario.op_repetitions,
        },
        "created_at": profile.created_at,
        "entries": entries,
    }


def save_profile(profile: EnergyProfile, path) -> None:
    profile.validate()
    jsonio.write(path, profile_to_dict(profile))


def profile_from_dict(doc) -> EnergyProfile:
    if not isinstance(doc, dict):
        raise MalformedProfile("profile document must be a JSON object")
    version = doc.get("schema_version")
    if version != SCHEMA_VERSION:
        raise SchemaVersionMismatch(
            f"profile schema_version {version!r}; this build speaks {SCHEMA_VERSION}"
        )
    unknown = set(doc) - _TOP_FIELDS
    if unknown:
        raise MalformedProfile(f"unknown top-level fields: {sorted(unknown)}")
    missing = _TOP_FIELDS - set(doc)
    if missing:
        raise MalformedProfile(f"missing fields: {sorted(missing)}")

    sc = doc["scenario"]
    if not isinstance(sc, dict) or set(sc) != _SCENARIO_FIELDS:
        raise MalformedProfile("scenario must carry exactly "
                               f"{sorted(_SCENARIO_FIELDS)}")
    try:
        scenario = Scenario(str(sc["scenario_id"]), int(sc["element_count"]),
                            int(sc["op_repetitions"]))
    except (TypeError, ValueError, InvalidConfig) as exc:
        raise MalformedProfile(f"bad scenario: {exc}") from exc

    if not isinstance(doc["entries"], list):
        raise MalformedProfile("entries must be a list")
    entries: dict[tuple[str, str], ProfileEntry] = {}
    api_kinds: dict[str, str] = {}
    for row in doc["entries"]:
        if not isinstance(row, dict):
            raise MalformedProfile("each entry must be an object")
        unknown = set(row) - _ENTRY_FIELDS
        if unknown:
            raise MalformedProfile(f"unknown entry fields: {sorted(unknown)}")
        try:
            impl, op = str(row["impl"]), str(row["op"])
            kind, status = str(row["api_kind"]), str(row["status"])
        except KeyError as exc:
            raise MalformedProfile(f"entry missing field {exc}") from exc
        if (impl, op) in entries:
            raise MalformedProfile(f"duplicate entry for {impl}/{op}")
        if impl in api_kinds and api_kinds[impl] != kind:
            raise MalformedProfile(f"{impl} appears under two api_kinds")
        api_kinds[impl] = kind
        mj, ms = row.get("mean_joules"), row.get("mean_seconds")
        entries[(impl, op)] = ProfileEntry(
            status,
            float(mj) if mj is not None else None,
            float(ms) if ms is not None else None,
        )

    profile = EnergyProfile(
        schema_version=SCHEMA_VERSION,
        device_fingerprint=str(doc["device_fingerprint"]),
        scenario=scenario,
        created_at=str(doc["created_at"]),
        entries=entries,
        api_kinds=api_kinds,
    )
    profile.validate()
    return profile


def load_profile(path) -> EnergyProfile:
    """Parse and validate a profile file; lossless inverse of save_profile."""
    try:
        doc = jsonio.read(path)
    except ValueError as exc:
        raise MalformedProfile(f"cannot parse {path}: {exc}") from exc
    return profile_from_dict(doc)
