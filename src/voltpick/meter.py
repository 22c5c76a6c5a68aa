"""Span-based energy measurement over pluggable backends.

A span is a begin/end bracket around a block of work.  Its energy is the
wraparound-corrected difference between two counter snapshots, and its
duration comes from a monotonic clock (never the wall clock).  Three
backends exist:

``rapl-powercap``
    Reads unsigned decimal microjoule counters from the host's powercap
    counter tree (``/sys/class/powercap`` by default, overridable via the
    ``VOLTPICK_RAPL_ROOT`` environment variable).  The counter modulus is
    taken from the adjacent ``max_energy_range_uj`` entry when present,
    else from the config.

``time-power``
    Estimates energy as ``assumed_power_watts * elapsed_seconds``.  It is
    an estimator, not a measurement; its backend id says so.  It exists so
    the full pipeline runs on any host.

``synthetic``
    Replays a scripted sequence of raw counter values and reports a fully
    deterministic virtual duration (the synthetic device dissipates a
    constant virtual 1 W, so a span that reads E joules also lasted E
    virtual seconds).  Identical script + call sequence means identical
    readings, which the test suite and the reproducibility checks rely on.

Raw counters are microjoules (the powercap convention); all public values
are joules.  A single wraparound per span is assumed: spans are expected
to be short relative to the counter period, so the correction is a pure
modular subtraction.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

from .errors import BackendUnavailable, InvalidConfig, ReadFailure, TokenReuse

BACKEND_RAPL = "rapl-powercap"
BACKEND_TIME_POWER = "time-power"
BACKEND_SYNTHETIC = "synthetic"
BACKEND_KINDS = (BACKEND_RAPL, BACKEND_TIME_POWER, BACKEND_SYNTHETIC)

ENV_RAPL_ROOT = "VOLTPICK_RAPL_ROOT"
ENV_BACKEND = "VOLTPICK_BACKEND"
DEFAULT_POWERCAP_ROOT = "/sys/class/powercap"

# Effectively "no wrap" for scripts that never configure a modulus.
DEFAULT_COUNTER_MAX_UJ = 2**63

MICROJOULES_PER_JOULE = 1_000_000


def correct_wraparound(prev_raw: int, cur_raw: int, counter_max: int) -> int:
    """Microjoule delta between two counter snapshots, modulo counter width.

    Returns ``(cur_raw - prev_raw) mod counter_max``, which handles at most
    one wraparound between the snapshots.
    """
    if counter_max <= 0:
        raise InvalidConfig(f"counter_max must be > 0, got {counter_max}")
    if not (0 <= prev_raw < counter_max) or not (0 <= cur_raw < counter_max):
        raise ValueError(
            f"raw counter values must lie in [0, {counter_max}): "
            f"got {prev_raw}, {cur_raw}"
        )
    return (cur_raw - prev_raw) % counter_max


@dataclass(frozen=True)
class EnergyReading:
    """One measured span: energy in joules plus provenance."""

    joules: float
    elapsed_seconds: float
    backend_id: str
    domain: str

    def __post_init__(self):
        if self.joules < 0:
            raise ValueError(f"joules must be >= 0, got {self.joules}")
        if self.elapsed_seconds < 0:
            raise ValueError(
                f"elapsed_seconds must be >= 0, got {self.elapsed_seconds}"
            )


@dataclass
class MeterConfig:
    """Backend selection plus the knobs each backend needs.

    assumed_power_watts is required (> 0) by the time-power backend.
    counter_max_microjoules is the wraparound modulus for counter-based
    backends; script is the ordered list of raw microjoule values for the
    synthetic backend (repeat_script makes it tile forever).
    """

    backend_kind: str
    assumed_power_watts: float | None = None
    counter_max_microjoules: int | None = None
    script: Sequence[int] | None = None
    repeat_script: bool = False

    def validate(self) -> None:
        if self.backend_kind not in BACKEND_KINDS:
            raise InvalidConfig(
                f"unknown backend {self.backend_kind!r}; expected one of {BACKEND_KINDS}"
            )
        if self.counter_max_microjoules is not None and self.counter_max_microjoules <= 0:
            raise InvalidConfig("counter_max_microjoules must be > 0 when given")
        if self.backend_kind == BACKEND_TIME_POWER:
            if self.assumed_power_watts is None or self.assumed_power_watts <= 0:
                raise InvalidConfig("time-power backend requires assumed_power_watts > 0")
        if self.backend_kind == BACKEND_SYNTHETIC:
            if not self.script:
                raise InvalidConfig("synthetic backend requires a non-empty script")
            limit = self.counter_max_microjoules or DEFAULT_COUNTER_MAX_UJ
            for value in self.script:
                if not isinstance(value, int) or not (0 <= value < limit):
                    raise InvalidConfig(
                        f"script values must be integers in [0, {limit}), got {value!r}"
                    )


@dataclass
class SpanToken:
    """Snapshot taken at span begin; consumed exactly once by span_end."""

    raw_start_microjoules: int
    start_instant: float
    _meter: "Meter | None" = field(repr=False, compare=False, default=None)
    _consumed: bool = field(repr=False, compare=False, default=False)


class Meter:
    """A handle bound to one backend.  Create via open_meter().

    A meter is single-owner: spans on one meter must not interleave across
    threads.  The benchmark harness additionally serializes all metered
    work process-wide.
    """

    def __init__(self, config: MeterConfig):
        config.validate()
        self.config = config
        self.backend_id = config.backend_kind
        self.domain = "whole-device"
        self._clock = time.perf_counter  # monotonic; injectable in tests
        self._counter_max = config.counter_max_microjoules or DEFAULT_COUNTER_MAX_UJ
        # synthetic state: script cursor plus a virtual clock that only
        # advances by completed span durations
        self._script_index = 0
        self._virtual_seconds = 0.0
        # rapl state
        self._energy_path: Path | None = None

        if config.backend_kind == BACKEND_TIME_POWER:
            self.backend_id = "time-power-estimator"
        elif config.backend_kind == BACKEND_RAPL:
            self._attach_powercap()

    # -- backend plumbing ---------------------------------------------------

    def _attach_powercap(self) -> None:
        root = Path(os.environ.get(ENV_RAPL_ROOT, DEFAULT_POWERCAP_ROOT))
        if not root.is_dir():
            raise BackendUnavailable(f"powercap counter tree not found at {root}")
        zones = sorted(root.glob("intel-rapl:*"))
        if not zones:
            raise BackendUnavailable(f"no RAPL zones under {root}")

        chosen = None
        for zone in zones:
            name = self._read_optional(zone / "name")
            if name and name.startswith("package"):
                chosen = zone
                break
        picked = [chosen] if chosen else []
        for zone in picked + [z for z in zones if z is not chosen]:
            energy = zone / "energy_uj"
            try:
                int(energy.read_text().strip())
            except (OSError, ValueError):
                continue
            self._energy_path = energy
            name = self._read_optional(zone / "name") or "package"
            self.domain = self._domain_from_zone_name(name)
            max_text = self._read_optional(zone / "max_energy_range_uj")
            if max_text is not None:
                self._counter_max = int(max_text)
            elif self.config.counter_max_microjoules is None:
                raise InvalidConfig(
                    f"{zone} has no max_energy_range_uj and no "
                    "counter_max_microjoules was configured"
                )
            return
        raise BackendUnavailable(
            f"no readable energy_uj counter under {root} "
            "(unsupported host or insufficient privilege)"
        )

    @staticmethod
    def _read_optional(path: Path) -> str | None:
        try:
            return path.read_text().strip()
        except OSError:
            return None

    @staticmethod
    def _domain_from_zone_name(name: str) -> str:
        for label in ("package", "core", "uncore", "dram"):
            if name.startswith(label):
                return label
        return "package"

    def _read_raw(self) -> int:
        kind = self.config.backend_kind
        if kind == BACKEND_SYNTHETIC:
            script = self.config.script
            idx = self._script_index
            if self.config.repeat_script:
                idx %= len(script)
            elif idx >= len(script):
                raise ReadFailure(
                    f"synthetic script exhausted after {len(script)} reads"
                )
            self._script_index += 1
            return script[idx]
        if kind == BACKEND_RAPL:
            try:
                return int(self._energy_path.read_text().strip())
            except (OSError, ValueError) as exc:
                raise ReadFailure(f"cannot read {self._energy_path}: {exc}") from exc
        return 0  # time-power derives energy from elapsed time only

    # -- spans ----------------------------------------------------------------

    def span_begin(self) -> SpanToken:
        """Capture the current raw counter and monotonic instant."""
        raw = self._read_raw()
        if self.config.backend_kind == BACKEND_SYNTHETIC:
            return SpanToken(raw, self._virtual_seconds, _meter=self)
        return SpanToken(raw, self._clock(), _meter=self)

    def span_end(self, token: SpanToken) -> EnergyReading:
        """Close a span and return its reading.

        Counter backends report the wraparound-corrected counter delta;
        time-power reports assumed_power_watts * elapsed.  The synthetic
        backend derives the duration from the scripted delta itself so the
        reading is a pure function of the script.
        """
        if token._meter is not self:
            raise ValueError("token was produced by a different meter")
        if token._consumed:
            raise TokenReuse("span token already consumed")
        token._consumed = True

        kind = self.config.backend_kind
        if kind == BACKEND_TIME_POWER:
            elapsed = self._clock() - token.start_instant
            joules = self.config.assumed_power_watts * elapsed
            return EnergyReading(joules, elapsed, self.backend_id, self.domain)

        raw_end = self._read_raw()
        delta_uj = correct_wraparound(
            token.raw_start_microjoules, raw_end, self._counter_max
        )
        joules = delta_uj / MICROJOULES_PER_JOULE
        if kind == BACKEND_SYNTHETIC:
            elapsed = joules  # constant virtual 1 W
            self._virtual_seconds += elapsed
        else:
            elapsed = self._clock() - token.start_instant
        return EnergyReading(joules, elapsed, self.backend_id, self.domain)


def open_meter(config: MeterConfig) -> Meter:
    """Open a meter bound to one backend.

    For the rapl-powercap backend this verifies that a counter source is
    actually readable and raises BackendUnavailable otherwise.
    """
    return Meter(config)


def synthetic_script_for_spans(joules_per_span: Sequence[float]) -> list[int]:
    """Build a script where span i reads joules_per_span[i].

    Each span consumes two reads; the begin read is pinned at zero so the
    end read is the microjoule value directly.
    """
    script: list[int] = []
    for joules in joules_per_span:
        script.extend((0, round(joules * MICROJOULES_PER_JOULE)))
    return script
