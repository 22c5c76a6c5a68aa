"""Deterministic synthetic energy profiles for the corpus workloads.

A profile here is the documented version-1 profile document, written by
the benchmark itself.  Every measured cell obeys the time-power estimator
at 5 W (mean_joules = 5 x mean_seconds).  The grid has the real pool's
unsupported cells and two discarded-threshold cells, so incomparable
implementations reach the recommender as they do with a real profile.
Each thread-safe wrapper costs its unsafe twin times 1.1-1.6 on every
operation, so the twin dominates it and dominance pruning has work to do.
"""

from __future__ import annotations

import random

from vocab import CELLS, IMPL_KIND, KIND_IMPLS, KIND_OPS, POWER_WATTS, UNSUPPORTED

DISCARDED = frozenset({("cow_list", "insert(start)"),
                       ("avl_tree_map", "iteration(entries)")})
_TWINS = {"sync_list": "array_list", "sync_hash_map": "hash_map",
          "sync_hash_set": "hash_set"}


def base_cells(seed: int) -> dict:
    """(impl, op) -> mean seconds, or None when unsupported or discarded."""
    rng = random.Random(f"profile:{seed}")
    cells = {}
    for kind, impls in KIND_IMPLS.items():
        op_base = {op: 10 ** rng.uniform(-5.5, -4.0) for op in KIND_OPS[kind]}
        for impl in sorted(impls, key=lambda i: i in _TWINS):
            factor = 10 ** rng.uniform(-0.3, 0.3)
            for op in KIND_OPS[kind]:
                if (impl, op) in UNSUPPORTED or (impl, op) in DISCARDED:
                    cells[(impl, op)] = None
                elif impl in _TWINS:
                    cells[(impl, op)] = cells[(_TWINS[impl], op)] * rng.uniform(1.1, 1.6)
                else:
                    cells[(impl, op)] = op_base[op] * factor * rng.lognormvariate(0.0, 0.5)
    return cells


def perturbed(cells: dict, seed: int) -> dict:
    """Every measured cell times an independent factor in [0.95, 1.05].

    5% matches the median per-cell spread (max/min 1.05) seen between
    repeated builds of one profile with one seed on one host.
    """
    rng = random.Random(f"perturb:{seed}")
    return {cell: None if s is None else s * rng.uniform(0.95, 1.05)
            for cell, s in sorted(cells.items())}


def joules(cells: dict) -> dict:
    """cell -> mean joules under the 5 W estimator, None when not measured."""
    return {cell: None if s is None else POWER_WATTS * s for cell, s in cells.items()}


def profile_doc(cells: dict) -> dict:
    entries = []
    for impl, op in sorted(CELLS):
        row = {"impl": impl, "op": op, "api_kind": IMPL_KIND[impl]}
        seconds = cells[(impl, op)]
        if seconds is not None:
            row.update(status="measured", mean_seconds=seconds,
                       mean_joules=POWER_WATTS * seconds)
        elif (impl, op) in UNSUPPORTED:
            row["status"] = "unsupported"
        else:
            row["status"] = "discarded-threshold"
        entries.append(row)
    return {
        "schema_version": 1,
        "device_fingerprint": "bench-synthetic;time-power-estimator;5W",
        "scenario": {"scenario_id": "small", "element_count": 1000,
                     "op_repetitions": 1000},
        "created_at": "1970-01-01T00:00:00Z",
        "entries": entries,
    }
