"""Tests of the benchmark's own reference, ground truth and checks.

Run from the repository root:  python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "bench"), str(ROOT / "src"), str(ROOT / "tests")]

import fixture_profile  # noqa: E402
from corpus import generate_file  # noqa: E402
from profiles import base_cells, profile_doc  # noqa: E402
from reference import Reference  # noqa: E402
from spans import Tracer  # noqa: E402
from vocab import CELLS, KIND_IMPLS  # noqa: E402
from workloads import CorpusLargeFiles, CorpusManyFiles, ProfileSmall  # noqa: E402

FIXTURE = ROOT / "tests" / "fixtures" / "minilang"


class SmallLarge(CorpusLargeFiles):
    site_counts = [10, 20, 40]


class SmallMany(CorpusManyFiles):
    site_counts = [6] * 8


def _run(workload, corrupt=None, tracer=None):
    workload.setup(7)
    workload.prepare()
    if corrupt:
        corrupt(workload)
    _, layers = workload.iterate(tracer)
    workload.finish()
    return layers


def test_reference_matches_hand_tallied_fixture():
    joules = {cell: fixture_profile.cell_joules(*cell) for cell in CELLS}
    ref = Reference(joules)
    oracle = json.loads((FIXTURE / "expected_sites.json").read_text())
    changes, keeps = {}, {}
    for site in oracle["sites"]:
        choice = ref.choose(site["api_kind"], site["impl"], site["raw_counts"])
        if choice == site["impl"]:
            keeps[site["site_id"]] = choice
        else:
            changes[site["site_id"]] = (site["impl"], choice)
    assert changes == fixture_profile.EXPECTED_CHANGES
    assert keeps == fixture_profile.EXPECTED_KEEPS


def test_reference_keeps_current_on_tie_and_filters_unsafe():
    joules = {cell: 1.0 for cell in CELLS}
    ref = Reference(joules)
    # every list implementation ties, so the current one stays
    assert ref.choose("list", "sync_list", {"insert(end)": 3}) == "sync_list"
    assert ref.choose("list", "linked_list", {"insert(end)": 3}) == "linked_list"
    joules[("array_list", "insert(end)")] = 0.5
    ref = Reference(joules)
    assert ref.choose("list", "linked_list", {"insert(end)": 3}) == "array_list"
    # a thread-safe site never moves to an unsafe implementation
    assert ref.choose("list", "sync_list", {"insert(end)": 3}) == "sync_list"


def test_generator_is_deterministic_per_seed():
    one = generate_file("clike", "a.c", 30, 5, 2.0)
    two = generate_file("clike", "a.c", 30, 5, 2.0)
    other = generate_file("clike", "a.c", 30, 6, 2.0)
    assert one.text == two.text and one.sites == two.sites
    assert one.text != other.text
    assert profile_doc(base_cells(5)) == profile_doc(base_cells(5))
    assert profile_doc(base_cells(5)) != profile_doc(base_cells(6))


def test_synthetic_profile_covers_unsupported_and_discarded_cells():
    statuses = {(e["impl"], e["op"]): e["status"] for e in profile_doc(base_cells(1))["entries"]}
    assert set(statuses) == set(CELLS)
    assert statuses[("linked_list", "get(random-index)")] == "unsupported"
    assert statuses[("linked_list", "iteration(random)")] == "unsupported"
    assert statuses[("block_deque", "iteration(random)")] == "unsupported"
    assert "discarded-threshold" in statuses.values()


@pytest.mark.parametrize("kind", [SmallLarge, SmallMany])
def test_corpus_workload_passes_its_checks(kind, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    workload = kind()
    _run(workload)
    assert workload.attempted > 0
    assert workload.failed == 0


def _corrupt_ground_truth(w):
    site = next(s for s in w.sites.values() if s.raw_counts)
    op = next(iter(site.raw_counts))
    site.raw_counts[op] += 1


def _corrupt_reference(w):
    sid, choice = next((sid, c) for sid, c in w.choices[0].items() if c is not None)
    kind = w.sites[sid].kind
    w.choices[0][sid] = next(i for i in KIND_IMPLS[kind] if i != choice)


def _corrupt_patch(w):
    path = next(iter(w.patched))
    w.patched[path] = w.patched[path] + b"\n"


@pytest.mark.parametrize("corrupt", [_corrupt_ground_truth, _corrupt_reference, _corrupt_patch])
@pytest.mark.parametrize("kind", [SmallLarge, SmallMany])
def test_corrupted_expectation_counts_as_failure(kind, corrupt, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    workload = kind()
    _run(workload, corrupt)
    assert workload.failed > 0


def test_traced_iteration_reports_layers_and_restores_the_package(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    workload = SmallMany()
    tracer = Tracer()
    layers = _run(workload, tracer=tracer)
    vp = workload.vp
    per_layer = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    assert set(layers) <= {metric["name"] for metric in per_layer}
    assert layers["analyzer.sites"] == len(workload.sites)
    assert layers["recommend.sites"] == 3 * len(workload.sites)
    assert layers["recommend.dominates_calls"] > 0
    assert layers["patcher.files_written"] > 0
    assert all(end is not None for _, _, end, _ in tracer.spans)
    assert vp.analyzer.scan_file.__module__ == "voltpick.analyzer"
    assert vp.profile.dominates.__module__ == "voltpick.profile"


def test_traced_profile_build_touches_no_corpus_layer():
    workload = ProfileSmall()
    workload.setup(1)
    vp = workload.vp
    workload.scenario = vp.Scenario("tiny", 20, 5)
    workload.plan = vp.RunPlan(total_runs=3, warmup_discard=1, rng_seed=1)
    _, layers = workload.iterate(Tracer())
    assert workload.failed == 0
    assert layers["harness.cells_unsupported"] == 3
    assert layers["meter.spans"] == layers["groups.factory_calls"] == 3 * 94
    assert layers["groups.workload_gen_calls"] == 94
    assert layers["analyzer.files"] == layers["recommend.sites"] == 0
    assert layers["recommend.dominates_calls"] == 0
    assert isinstance(vars(vp.groups.Workload)["generate"], classmethod)
    assert "span_end" not in vars(workload.meter)


def test_profile_check_flags_wrong_cells():
    workload = ProfileSmall()
    workload.setup(1)
    vp = workload.vp
    profile = vp.profile.profile_from_dict(profile_doc(base_cells(1)))
    workload.check(profile)
    assert (workload.attempted, workload.failed) == (len(CELLS), 0)
    profile.entries[("array_list", "insert(end)")].mean_joules *= 2
    profile.entries[("linked_list", "get(random-index)")] = vp.ProfileEntry("measured", 1.0, 0.2)
    workload.check(profile)
    assert workload.failed == 2
