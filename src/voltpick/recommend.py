"""Choosing implementations: the linear estimation model over a profile.

A site's score for an implementation is the sum over the operations the
site uses of count(op) * mean_joules(impl, op).  One operation counted 100
times against a 10 J entry scores 1000.  Scores are profile-relative: they
rank alternatives measured on the same device, they do not predict real
consumption.

Candidates for a site are the dominance-pruned implementations of the
site's API kind, minus any implementation lacking a measured entry for an
operation the site actually uses (incomparable implementations are
excluded, never imputed).  When the current implementation is thread-safe
and the constraint is on, only thread-safe candidates remain: replacing a
safe implementation with an unsafe one changes program semantics, while
the opposite direction is allowed and wins only on merit.

A change is recommended only when its score is strictly below the current
implementation's; ties keep the current implementation (zero churn), and
ties among other candidates resolve to the lexicographically smallest id.
Scaling every profile energy by a positive constant therefore never
changes a choice.
"""

from __future__ import annotations

from contextvars import ContextVar
from dataclasses import dataclass, field
from typing import Sequence

from .analyzer import UsageReport, UsageSite
from .errors import (
    ApiCoverageError,
    ApiKindMismatch,
    Incomparable,
    NoCandidates,
    SchemaVersionMismatch,
    MalformedReport,
    UnknownIdentifier,
    UnknownImplementation,
)
from .groups import (
    ConstructGroup,
    ImplementationDescriptor,
    builtin_groups,
    descriptor_index,
)
from .profile import EnergyProfile, host_fingerprint, prune_dominated

RECOMMENDATION_SCHEMA_VERSION = 1


@dataclass
class Recommendation:
    """Per-site choice with the scores that justify it."""

    site_id: str
    current_impl: str
    recommended_impl: str
    estimated_current_joules: float
    estimated_recommended_joules: float
    savings_fraction: float
    rationale: list[str] = field(default_factory=list)
    current_estimate_partial: bool = False

    @property
    def is_change(self) -> bool:
        return self.recommended_impl != self.current_impl


@dataclass
class RecommendationSet:
    profile_fingerprint: str
    scenario_id: str
    recommendations: list[Recommendation] = field(default_factory=list)
    aggregate_current_joules: float = 0.0
    aggregate_recommended_joules: float = 0.0
    diagnostics: list[str] = field(default_factory=list)

    @property
    def aggregate_savings_fraction(self) -> float:
        if self.aggregate_current_joules == 0:
            return 0.0
        return 1.0 - self.aggregate_recommended_joules / self.aggregate_current_joules


def _score(site: UsageSite, impl_id: str, profile: EnergyProfile) -> tuple[float, str | None]:
    """Sum of count(op) * mean_joules(impl, op) over the site's measured used ops.

    Also returns the first used operation (positive count) with no measured
    entry for the implementation, or None when every used op is measured.
    """
    kind = profile.api_kinds.get(impl_id)
    if kind is None:
        raise UnknownImplementation(f"{impl_id!r} is not in this profile")
    if kind != site.api_kind:
        raise ApiKindMismatch(
            f"site {site.site_id} is {site.api_kind}, {impl_id} is {kind}"
        )
    total = 0.0
    unmeasured = None
    for op, count in site.op_counts.items():
        if count <= 0:
            continue
        entry = profile.measured_entry(impl_id, op)
        if entry is None:
            if unmeasured is None:
                unmeasured = op
        else:
            total += count * entry.mean_joules
    return total, unmeasured


def estimate_site(site: UsageSite, impl_id: str, profile: EnergyProfile) -> float:
    """Sum of count(op) * mean_joules(impl, op) over the site's used ops.

    Raises Incomparable when any operation with a positive count has no
    measured entry for the implementation (unsupported, discarded, or
    simply absent): such an implementation cannot be ranked at this site.
    """
    total, unmeasured = _score(site, impl_id, profile)
    if unmeasured is not None:
        raise Incomparable(impl_id, unmeasured)
    return total


def _rationale(site: UsageSite, current: str, chosen: str,
               profile: EnergyProfile) -> list[str]:
    lines = []
    for op, count in sorted(site.op_counts.items()):
        if count <= 0:
            continue
        parts = []
        for impl in (current, chosen) if chosen != current else (current,):
            entry = profile.measured_entry(impl, op)
            if entry is None:
                parts.append(f"{impl}: unmeasured")
            else:
                n = f"{count:g}"
                parts.append(f"{impl}: {n} x {entry.mean_joules:g} J = "
                             f"{count * entry.mean_joules:g}")
        lines.append(f"{op}: " + " | ".join(parts))
    return lines


@dataclass
class _Pools:
    """The descriptor index and the pruned pool per kind for one profile."""

    profile: EnergyProfile
    groups: Sequence[ConstructGroup] | None
    descriptors: dict[str, ImplementationDescriptor]
    by_kind: dict[str, list[str]] = field(default_factory=dict)

    def pool(self, kind: str) -> list[str]:
        if kind not in self.by_kind:
            self.by_kind[kind] = prune_dominated(self.profile, kind)
        return self.by_kind[kind]


# Set while recommend_program runs, so that its per-site recommend_site calls
# share one descriptor index and one pruned pool per kind.
_PROGRAM_POOLS: ContextVar[_Pools | None] = ContextVar("_PROGRAM_POOLS", default=None)


def recommend_site(site: UsageSite, profile: EnergyProfile,
                   respect_thread_safety: bool = True,
                   groups: Sequence[ConstructGroup] | None = None) -> Recommendation:
    """Pick the cheapest comparable candidate for one site."""
    pools = _PROGRAM_POOLS.get()
    if pools is None or pools.profile is not profile or pools.groups is not groups:
        pools = _Pools(profile, groups,
                       descriptor_index(groups if groups is not None else builtin_groups()))
    pool = pools.pool(site.api_kind)
    descriptors = pools.descriptors

    current = site.current_impl
    current_desc = descriptors.get(current)
    if respect_thread_safety and current_desc is not None and current_desc.thread_safe:
        pool = [impl for impl in pool
                if descriptors.get(impl) is not None and descriptors[impl].thread_safe]

    estimates: dict[str, float] = {}
    for impl in pool:
        estimate, unmeasured = _score(site, impl, profile)
        if unmeasured is None:
            estimates[impl] = estimate

    # an incomparable current implementation is scored on its measured subset
    current_estimate, unmeasured = _score(site, current, profile)
    partial = unmeasured is not None

    if not estimates:
        if partial:
            raise NoCandidates(
                f"site {site.site_id}: every implementation is incomparable"
            )
        chosen = current  # nothing else rankable; keeping current is the choice
    else:
        best_estimate = min(estimates.values())
        tied = sorted(impl for impl, e in estimates.items() if e == best_estimate)
        if partial or best_estimate < current_estimate:
            chosen = current if current in tied else tied[0]
        else:
            chosen = current

    chosen_estimate = (estimates[chosen] if chosen in estimates
                       else current_estimate)
    if current_estimate > 0:
        savings = 1.0 - chosen_estimate / current_estimate
    else:
        savings = 0.0

    return Recommendation(
        site_id=site.site_id,
        current_impl=current,
        recommended_impl=chosen,
        estimated_current_joules=current_estimate,
        estimated_recommended_joules=chosen_estimate,
        savings_fraction=savings,
        rationale=_rationale(site, current, chosen, profile),
        current_estimate_partial=partial,
    )


def _validate_report(report: UsageReport, groups: Sequence[ConstructGroup]) -> None:
    impl_kinds: dict[str, str] = {}
    ops_by_kind: dict[str, set[str]] = {}
    for group in groups:
        ops_by_kind[group.api_kind] = {o.op_id for o in group.operations}
        for desc in group.descriptors():
            impl_kinds[desc.impl_id] = desc.api_kind
    for site in report.sites:
        if site.current_impl not in impl_kinds:
            raise UnknownIdentifier(
                f"site {site.site_id}: unknown impl {site.current_impl!r}"
            )
        for op in site.op_counts:
            if op not in ops_by_kind.get(site.api_kind, ()):
                raise UnknownIdentifier(
                    f"site {site.site_id}: unknown {site.api_kind} op {op!r}"
                )


def recommend_program(report: UsageReport, profile: EnergyProfile,
                      respect_thread_safety: bool = True,
                      groups: Sequence[ConstructGroup] | None = None) -> RecommendationSet:
    """Per-site recommendations plus whole-program aggregates.

    Sites where every candidate is incomparable are listed in diagnostics
    and excluded from the aggregates.
    """
    groups = list(groups) if groups is not None else builtin_groups()
    _validate_report(report, groups)

    needed_kinds = {site.api_kind for site in report.sites}
    covered = profile.kinds()
    missing = needed_kinds - covered
    if missing:
        raise ApiCoverageError(
            f"profile lacks api kinds used by the report: {sorted(missing)}"
        )

    out = RecommendationSet(
        profile_fingerprint=profile.device_fingerprint,
        scenario_id=profile.scenario.scenario_id,
    )
    analysis_host = host_fingerprint().split(";")[0]
    profile_host = profile.device_fingerprint.split(";")[0]
    if analysis_host != profile_host:
        out.diagnostics.append(
            f"profile was built on {profile_host!r} but this host is "
            f"{analysis_host!r}; scores may not transfer"
        )

    # the pruned pool depends only on (profile, kind): build it once per kind
    token = _PROGRAM_POOLS.set(_Pools(profile, groups, descriptor_index(groups)))
    try:
        for site in report.sites:
            try:
                rec = recommend_site(site, profile, respect_thread_safety, groups)
            except NoCandidates as exc:
                out.diagnostics.append(str(exc))
                continue
            out.recommendations.append(rec)
            out.aggregate_current_joules += rec.estimated_current_joules
            out.aggregate_recommended_joules += rec.estimated_recommended_joules
    finally:
        _PROGRAM_POOLS.reset(token)
    return out


@dataclass
class ProfileComparison:
    sets: list[RecommendationSet]
    differing_sites: dict[str, list[str]]  # site_id -> chosen impl per profile


def compare_profiles(report: UsageReport, profiles: Sequence[EnergyProfile],
                     respect_thread_safety: bool = True,
                     groups: Sequence[ConstructGroup] | None = None) -> ProfileComparison:
    """Recommend under each profile and tabulate sites whose choice differs."""
    if len(profiles) < 2:
        raise ValueError("compare_profiles needs at least two profiles")
    sets = [recommend_program(report, p, respect_thread_safety, groups)
            for p in profiles]
    by_site: dict[str, list[str]] = {}
    for rec_set in sets:
        chosen = {r.site_id: r.recommended_impl for r in rec_set.recommendations}
        for site in report.sites:
            by_site.setdefault(site.site_id, []).append(chosen.get(site.site_id, "-"))
    differing = {site_id: picks for site_id, picks in by_site.items()
                 if len(set(picks)) > 1}
    return ProfileComparison(sets, differing)


# --- persistence ------------------------------------------------------------------

def recommendation_set_to_dict(rec_set: RecommendationSet) -> dict:
    from . import jsonio

    return {
        "schema_version": RECOMMENDATION_SCHEMA_VERSION,
        "profile_fingerprint": rec_set.profile_fingerprint,
        "scenario": rec_set.scenario_id,
        "aggregate_current_joules": jsonio.canonical_number(
            rec_set.aggregate_current_joules),
        "aggregate_recommended_joules": jsonio.canonical_number(
            rec_set.aggregate_recommended_joules),
        "diagnostics": list(rec_set.diagnostics),
        "recommendations": [
            {
                "site_id": r.site_id,
                "current_impl": r.current_impl,
                "recommended_impl": r.recommended_impl,
                "estimated_current_joules": jsonio.canonical_number(
                    r.estimated_current_joules),
                "estimated_recommended_joules": jsonio.canonical_number(
                    r.estimated_recommended_joules),
                "savings_fraction": jsonio.canonical_number(r.savings_fraction),
                "current_estimate_partial": r.current_estimate_partial,
                "rationale": list(r.rationale),
            }
            for r in rec_set.recommendations
        ],
    }


def recommendation_set_from_dict(doc) -> RecommendationSet:
    if not isinstance(doc, dict):
        raise MalformedReport("recommendation document must be a JSON object")
    if doc.get("schema_version") != RECOMMENDATION_SCHEMA_VERSION:
        raise SchemaVersionMismatch(
            f"recommendation schema_version {doc.get('schema_version')!r}"
        )
    out = RecommendationSet(
        profile_fingerprint=str(doc["profile_fingerprint"]),
        scenario_id=str(doc["scenario"]),
        aggregate_current_joules=float(doc["aggregate_current_joules"]),
        aggregate_recommended_joules=float(doc["aggregate_recommended_joules"]),
        diagnostics=[str(d) for d in doc.get("diagnostics", [])],
    )
    for row in doc.get("recommendations", []):
        out.recommendations.append(Recommendation(
            site_id=str(row["site_id"]),
            current_impl=str(row["current_impl"]),
            recommended_impl=str(row["recommended_impl"]),
            estimated_current_joules=float(row["estimated_current_joules"]),
            estimated_recommended_joules=float(row["estimated_recommended_joules"]),
            savings_fraction=float(row["savings_fraction"]),
            rationale=[str(line) for line in row.get("rationale", [])],
            current_estimate_partial=bool(row.get("current_estimate_partial", False)),
        ))
    return out
