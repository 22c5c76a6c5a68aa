import random

import pytest
from hypothesis import given, settings, strategies as st

import voltpick as vp
from voltpick.errors import (
    ApiKindMismatch,
    EmptyGroup,
    MalformedProfile,
    SchemaVersionMismatch,
    UnknownApiKind,
    UnknownImplementation,
)
from voltpick.harness import STATUS_DISCARDED, STATUS_MEASURED, STATUS_UNSUPPORTED
from voltpick.meter import MeterConfig, open_meter, synthetic_script_for_spans
from voltpick.profile import (
    EnergyProfile,
    ProfileEntry,
    build_profile,
    dominance_pairs,
    dominates,
    load_profile,
    profile_from_dict,
    profile_to_dict,
    prune_dominated,
    save_profile,
    scale_profile,
)

SCENARIO = vp.Scenario("small", 16, 8)


def make_profile(values, kind="list", statuses=None):
    """values: {impl: {op: joules}}; statuses overrides per (impl, op)."""
    entries = {}
    kinds = {}
    for impl, ops in values.items():
        kinds[impl] = kind
        for op, joules in ops.items():
            status = (statuses or {}).get((impl, op), STATUS_MEASURED)
            if status == STATUS_MEASURED:
                entries[(impl, op)] = ProfileEntry(status, float(joules),
                                                   float(joules))
            else:
                entries[(impl, op)] = ProfileEntry(status)
    return EnergyProfile(1, "test-host;meter=synthetic", SCENARIO,
                         "2024-01-01T00:00:00Z", entries, kinds)


class TestBuildProfile:
    def test_constant_script_gives_constant_entries(self):
        groups = vp.builtin_groups(["set"])
        meter = open_meter(MeterConfig(
            "synthetic", script=synthetic_script_for_spans([2.0]),
            repeat_script=True))
        plan = vp.RunPlan(total_runs=4, warmup_discard=1, rng_seed=3)
        profile = build_profile(groups, SCENARIO, meter, plan)
        measured = [e for e in profile.entries.values()
                    if e.status == STATUS_MEASURED]
        assert len(profile.entries) == 3 * 3
        assert all(e.mean_joules == 2.0 for e in measured)

    def test_grid_is_fully_covered(self):
        groups = vp.builtin_groups(["list"])
        meter = open_meter(MeterConfig(
            "synthetic", script=[0, 1_000_000], repeat_script=True))
        plan = vp.RunPlan(total_runs=2, warmup_discard=0, rng_seed=3)
        profile = build_profile(groups, SCENARIO, meter, plan)
        impls = {a.impl_id for a in groups[0].implementations}
        ops = {o.op_id for o in groups[0].operations}
        assert set(profile.entries) == {(i, o) for i in impls for o in ops}
        unsupported = {(i, o) for (i, o), e in profile.entries.items()
                       if e.status == STATUS_UNSUPPORTED}
        assert unsupported == {("linked_list", "get(random-index)"),
                               ("linked_list", "iteration(random)"),
                               ("block_deque", "iteration(random)")}

    def test_empty_groups_rejected(self):
        meter = open_meter(MeterConfig("synthetic", script=[0, 1]))
        with pytest.raises(EmptyGroup):
            build_profile([], SCENARIO, meter, vp.RunPlan())

    def test_two_impls_three_ops_gives_six_entries(self):
        group = vp.builtin_group("set")
        group.implementations = group.implementations[:2]
        meter = open_meter(MeterConfig(
            "synthetic", script=[0, 1_000_000], repeat_script=True))
        plan = vp.RunPlan(total_runs=2, warmup_discard=0, rng_seed=1)
        profile = build_profile([group], SCENARIO, meter, plan)
        assert len(profile.entries) == 6

    def test_threshold_discard_lands_in_profile_without_scores(self):
        # per-cell script: avl_tree_set add costs 500 virtual seconds while
        # the others cost 1, exceeding 100x the fastest mean time
        group = vp.builtin_group("set")
        script = []
        from voltpick.harness import measurement_grid
        for _g, adapter, op in measurement_grid([group]):
            joules = 500 if (adapter.impl_id, op.op_id) == ("avl_tree_set", "add") else 1
            script.extend([0, joules * 1_000_000] * 2)
        meter = open_meter(MeterConfig("synthetic", script=script))
        plan = vp.RunPlan(total_runs=2, warmup_discard=0, rng_seed=1)
        profile = build_profile([group], SCENARIO, meter, plan)
        entry = profile.entry("avl_tree_set", "add")
        assert entry.status == STATUS_DISCARDED
        assert entry.mean_joules is None and entry.mean_seconds is None
        assert profile.entry("hash_set", "add").status == STATUS_MEASURED


class TestDominance:
    def test_strict_per_op_dominance(self):
        profile = make_profile({"A": {"x": 1, "y": 2, "z": 3},
                                "B": {"x": 2, "y": 3, "z": 4}})
        assert dominates(profile, "A", "B") is True
        assert dominates(profile, "B", "A") is False

    def test_incomparable_orderings(self):
        profile = make_profile({"A": {"x": 1, "y": 5},
                                "B": {"x": 2, "y": 3}})
        assert not dominates(profile, "A", "B")
        assert not dominates(profile, "B", "A")

    def test_ties_break_dominance(self):
        profile = make_profile({"A": {"x": 1, "y": 2},
                                "B": {"x": 1, "y": 3}})
        assert not dominates(profile, "A", "B")

    def test_unmeasured_entry_blocks_dominance_both_ways(self):
        statuses = {("B", "y"): STATUS_DISCARDED}
        profile = make_profile({"A": {"x": 1, "y": 1},
                                "B": {"x": 2, "y": 2}}, statuses=statuses)
        assert not dominates(profile, "A", "B")
        assert not dominates(profile, "B", "A")

    def test_errors(self):
        profile = make_profile({"A": {"x": 1}})
        with pytest.raises(UnknownImplementation):
            dominates(profile, "A", "nope")
        two_kinds = make_profile({"A": {"x": 1}})
        two_kinds.api_kinds["B"] = "map"
        two_kinds.entries[("B", "put")] = ProfileEntry(STATUS_MEASURED, 1.0, 1.0)
        with pytest.raises(ApiKindMismatch):
            dominates(two_kinds, "A", "B")

    def test_irreflexive(self):
        profile = make_profile({"A": {"x": 1}})
        assert dominates(profile, "A", "A") is False


def random_profile(rng, max_impls=8, max_ops=6, sparse=False):
    impls = [f"i{k}" for k in range(rng.randint(2, max_impls))]
    ops = [f"op{k}" for k in range(rng.randint(1, max_ops))]
    values, statuses = {}, {}
    for impl in impls:
        values[impl] = {}
        for op in ops:
            values[impl][op] = rng.randint(1, 12)
            if sparse and rng.random() < 0.15:
                statuses[(impl, op)] = rng.choice(
                    [STATUS_DISCARDED, STATUS_UNSUPPORTED])
    return make_profile(values, statuses=statuses)


def oracle_dominates(profile, a, b):
    """Independent re-statement: strict < on every op, all cells measured."""
    ops = profile.ops_for_kind("list")
    if a == b:
        return False
    for op in ops:
        ea, eb = profile.entry(a, op), profile.entry(b, op)
        if ea is None or eb is None:
            return False
        if ea.status != "measured" or eb.status != "measured":
            return False
        if not (ea.mean_joules < eb.mean_joules):
            return False
    return True


class TestPruneDominated:
    def test_dominated_removed(self):
        profile = make_profile({"A": {"x": 1, "y": 1}, "B": {"x": 2, "y": 2}})
        assert prune_dominated(profile, "list") == ["A"]

    def test_incomparable_pool_kept_whole(self):
        profile = make_profile({"A": {"x": 1, "y": 5}, "B": {"x": 5, "y": 1}})
        assert prune_dominated(profile, "list") == ["A", "B"]

    def test_unknown_kind(self):
        with pytest.raises(UnknownApiKind):
            prune_dominated(make_profile({"A": {"x": 1}}), "map")

    def test_matches_bruteforce_oracle_on_random_pools(self):
        rng = random.Random(2024)
        for _ in range(300):
            profile = random_profile(rng, sparse=True)
            impls = profile.impls_for_kind("list")
            expected = [x for x in impls
                        if not any(oracle_dominates(profile, y, x)
                                   for y in impls if y != x)]
            assert prune_dominated(profile, "list") == expected

    def test_pruned_set_nonempty_with_a_fully_measured_impl(self):
        rng = random.Random(99)
        for _ in range(200):
            profile = random_profile(rng, sparse=True)
            impls = profile.impls_for_kind("list")
            ops = profile.ops_for_kind("list")
            fully = [i for i in impls
                     if all(profile.measured_entry(i, o) for o in ops)]
            if fully:
                assert prune_dominated(profile, "list")

    def test_scaling_invariance(self):
        rng = random.Random(5)
        for _ in range(50):
            profile = random_profile(rng, sparse=True)
            for k in (0.5, 3.0, 1e6):
                scaled = scale_profile(profile, k)
                assert (prune_dominated(profile, "list")
                        == prune_dominated(scaled, "list"))


@st.composite
def profiles(draw):
    n_impls = draw(st.integers(min_value=2, max_value=6))
    n_ops = draw(st.integers(min_value=1, max_value=5))
    values = {
        f"i{i}": {f"op{o}": draw(st.integers(min_value=1, max_value=9))
                  for o in range(n_ops)}
        for i in range(n_impls)
    }
    return make_profile(values)


class TestDominanceProperties:
    @given(profiles())
    @settings(max_examples=60)
    def test_irreflexive_and_asymmetric(self, profile):
        impls = profile.impls_for_kind("list")
        for a in impls:
            assert not dominates(profile, a, a)
            for b in impls:
                if a != b and dominates(profile, a, b):
                    assert not dominates(profile, b, a)

    @given(profiles())
    @settings(max_examples=60)
    def test_transitive_on_fully_measured(self, profile):
        impls = profile.impls_for_kind("list")
        for a in impls:
            for b in impls:
                for c in impls:
                    if (dominates(profile, a, b) and dominates(profile, b, c)):
                        assert dominates(profile, a, c)


class TestPersistence:
    def build_small_profile(self):
        groups = vp.builtin_groups(["set"])
        meter = open_meter(MeterConfig(
            "synthetic", script=[0, 3_000_000], repeat_script=True))
        plan = vp.RunPlan(total_runs=3, warmup_discard=1, rng_seed=1)
        return build_profile(groups, SCENARIO, meter, plan)

    def test_round_trip_structural_equality(self, tmp_path):
        profile = self.build_small_profile()
        path = tmp_path / "profile.json"
        save_profile(profile, path)
        loaded = load_profile(path)
        assert loaded == profile

    def test_round_trip_bytes_stable(self, tmp_path):
        profile = self.build_small_profile()
        first, second = tmp_path / "a.json", tmp_path / "b.json"
        save_profile(profile, first)
        save_profile(load_profile(first), second)
        assert first.read_bytes() == second.read_bytes()

    def test_unknown_schema_version(self, tmp_path):
        profile = self.build_small_profile()
        doc = profile_to_dict(profile)
        doc["schema_version"] = 2
        with pytest.raises(SchemaVersionMismatch):
            profile_from_dict(doc)

    def test_unknown_fields_rejected(self):
        doc = profile_to_dict(self.build_small_profile())
        doc["vendor_extension"] = True
        with pytest.raises(MalformedProfile):
            profile_from_dict(doc)
        doc = profile_to_dict(self.build_small_profile())
        doc["entries"][0]["comment"] = "?"
        with pytest.raises(MalformedProfile):
            profile_from_dict(doc)

    def test_truncated_file(self, tmp_path):
        path = tmp_path / "broken.json"
        save_profile(self.build_small_profile(), path)
        path.write_text(path.read_text()[: 40])
        with pytest.raises(MalformedProfile):
            load_profile(path)

    @pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_score_rejected_on_load(self, tmp_path, constant):
        path = tmp_path / "profile.json"
        save_profile(self.build_small_profile(), path)
        text = path.read_text()
        start = text.index('"mean_joules": ') + len('"mean_joules": ')
        end = text.index(",", start)
        path.write_text(text[:start] + constant + text[end:])
        with pytest.raises(MalformedProfile, match=constant):
            load_profile(path)

    def test_zero_element_scenario_rejected_on_load(self):
        doc = profile_to_dict(self.build_small_profile())
        doc["scenario"]["element_count"] = 0
        with pytest.raises(MalformedProfile, match="0 elements"):
            profile_from_dict(doc)

    def test_measured_entry_requires_positive_scores(self):
        doc = profile_to_dict(self.build_small_profile())
        doc["entries"][0]["mean_joules"] = 0
        with pytest.raises(MalformedProfile):
            profile_from_dict(doc)

    def test_scores_forbidden_off_status(self):
        doc = profile_to_dict(self.build_small_profile())
        doc["entries"][0]["status"] = "unsupported"
        with pytest.raises(MalformedProfile):
            profile_from_dict(doc)


def test_dominance_pairs_listing():
    profile = make_profile({"A": {"x": 1, "y": 1},
                            "B": {"x": 2, "y": 2},
                            "C": {"x": 3, "y": 0.5}})
    assert dominance_pairs(profile, "list") == [("A", "B")]
