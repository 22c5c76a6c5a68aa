"""Canonical JSON encoding shared by every persisted artifact.

One encoder (sorted keys, two-space indent, trailing newline, integral
floats written as ints) so that identical in-memory objects always
serialize to identical bytes.  Both directions are strict JSON: NaN and the
infinities are neither written nor read.
"""

from __future__ import annotations

import json
from pathlib import Path


def canonical_number(value):
    """Collapse float-typed integers to ints for stable, tidy output."""
    if isinstance(value, float) and value.is_integer() and abs(value) < 2**53:
        return int(value)
    return value


def dumps(obj) -> str:
    """Canonical text; raises ValueError on NaN or an infinity."""
    return json.dumps(obj, indent=2, sort_keys=True, ensure_ascii=False,
                      allow_nan=False) + "\n"


def write(path, obj) -> None:
    Path(path).write_text(dumps(obj), encoding="utf-8")


def _reject_constant(name: str):
    raise ValueError(f"non-standard JSON constant {name}")


def read(path):
    """Parse strict JSON; NaN, Infinity and -Infinity raise ValueError."""
    return json.loads(Path(path).read_text(encoding="utf-8"),
                      parse_constant=_reject_constant)
