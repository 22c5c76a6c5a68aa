import random
import threading

import pytest
from hypothesis import given, strategies as st

import voltpick as vp
from voltpick.errors import EmptyGroup, HarnessBusy, InvalidConfig, MeterFailure, NotMeasured
from voltpick.harness import (
    SCENARIOS,
    STATUS_DISCARDED,
    STATUS_MEASURED,
    STATUS_UNSUPPORTED,
    MeasurementSeries,
    OpSummary,
    apply_time_threshold,
    measurement_grid,
    run_operation,
    summarize,
)
from voltpick.groups import Workload, builtin_group, derive_seed
from voltpick.meter import MeterConfig, open_meter, synthetic_script_for_spans

TINY = vp.Scenario("small", 24, 12)


def synthetic_meter(joules_per_span, repeat=False):
    script = synthetic_script_for_spans(joules_per_span)
    return open_meter(MeterConfig("synthetic", script=script, repeat_script=repeat))


def list_adapter(impl_id):
    return builtin_group("list").adapter(impl_id)


def list_op(op_id):
    group = builtin_group("list")
    return next(o for o in group.operations if o.op_id == op_id)


class TestRunOperation:
    def test_scripted_constant_runs(self):
        meter = synthetic_meter([2.0], repeat=True)
        plan = vp.RunPlan(total_runs=10, warmup_discard=3, rng_seed=1)
        series = run_operation(list_adapter("array_list"), list_op("insert(end)"),
                               TINY, meter, plan)
        assert series.status == STATUS_MEASURED
        assert len(series.runs) == 10
        assert all(j == 2.0 for j, _ in series.runs)

    def test_unsupported_capability(self):
        meter = synthetic_meter([2.0], repeat=True)
        plan = vp.RunPlan(rng_seed=1)
        series = run_operation(list_adapter("linked_list"),
                               list_op("get(random-index)"), TINY, meter, plan)
        assert series.status == STATUS_UNSUPPORTED
        assert series.runs == []
        # unsupported cells consume no meter reads
        assert meter._script_index == 0

    def test_workload_determinism(self):
        op = list_op("insert(value)")
        seed = derive_seed(9, "x", "y")
        a = Workload.generate(seed, 50, 20, op)
        b = Workload.generate(seed, 50, 20, op)
        assert a == b

    def test_destructive_repetitions_capped(self):
        op = list_op("remove(start)")
        w = Workload.generate(3, 5, 100, op)
        assert w.repetitions == 5

    def test_meter_failure_wraps_read_failure(self):
        meter = synthetic_meter([1.0])  # script too short for 10 runs
        plan = vp.RunPlan(rng_seed=1)
        with pytest.raises(MeterFailure):
            run_operation(list_adapter("array_list"), list_op("insert(end)"),
                          TINY, meter, plan)

    def test_refuses_concurrent_metering(self):
        adapter = list_adapter("array_list")
        op = list_op("iteration(iterator)")
        scenario = vp.Scenario("small", 2_000, 40)
        plan = vp.RunPlan(total_runs=4, warmup_discard=0, rng_seed=1)
        errors = []

        def worker():
            meter = synthetic_meter([1.0], repeat=True)
            try:
                run_operation(adapter, op, scenario, meter, plan)
            except HarnessBusy as exc:
                errors.append(exc)

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors, "overlapping metered series should raise HarnessBusy"

    def test_every_builtin_cell_runs(self):
        # exercise each adapter op once at a tiny scale: no crashes, all runs
        plan = vp.RunPlan(total_runs=2, warmup_discard=0, rng_seed=5)
        scenario = vp.Scenario("small", 12, 6)
        for _group, adapter, op in measurement_grid(vp.builtin_groups()):
            meter = synthetic_meter([1.0], repeat=True)
            series = run_operation(adapter, op, scenario, meter, plan)
            expected = STATUS_MEASURED if adapter.supports(op.op_id) else STATUS_UNSUPPORTED
            assert series.status == expected


class TestSummarize:
    def make_series(self, joules):
        runs = [(j, j / 10) for j in joules]
        return MeasurementSeries("impl", "op", "small", runs, STATUS_MEASURED)

    def test_warmups_excluded(self):
        series = self.make_series([9, 8, 7, 5, 5, 5, 5, 5, 5, 5])
        mean_j, mean_s = summarize(series, 3)
        assert mean_j == 5.0
        assert mean_s == 0.5

    def test_zero_warmups(self):
        mean_j, mean_s = summarize(self.make_series([2, 4]), 0)
        assert mean_j == 3.0
        assert mean_s == pytest.approx(0.3)

    def test_divisor_is_remaining_runs(self):
        series = self.make_series([0.0] * 3 + [7.0] * 7)
        mean_j, _ = summarize(series, 3)
        assert mean_j == 7.0

    def test_not_measured(self):
        series = MeasurementSeries("impl", "op", "small", [], STATUS_UNSUPPORTED)
        with pytest.raises(NotMeasured):
            summarize(series, 0)

    @given(st.lists(st.floats(min_value=0, max_value=1e6), min_size=4, max_size=12),
           st.integers(min_value=0, max_value=3), st.randoms())
    def test_tail_permutation_invariant(self, joules, warmups, rng):
        series = self.make_series(joules)
        base = summarize(series, warmups)
        tail = series.runs[warmups:]
        rng.shuffle(tail)
        shuffled = MeasurementSeries("impl", "op", "small",
                                     series.runs[:warmups] + tail, STATUS_MEASURED)
        got = summarize(shuffled, warmups)
        assert got[0] == pytest.approx(base[0], rel=1e-12, abs=1e-12)
        assert got[1] == pytest.approx(base[1], rel=1e-12, abs=1e-12)

    def test_swapping_a_warmup_into_the_tail_can_change_means(self):
        series = self.make_series([9, 8, 7, 5, 5, 5, 5, 5, 5, 5])
        swapped = self.make_series([5, 8, 7, 9, 5, 5, 5, 5, 5, 5])
        assert summarize(series, 3)[0] == 5.0
        assert summarize(swapped, 3)[0] != 5.0


class TestTimeThreshold:
    def summaries(self, seconds_by_impl):
        return [OpSummary(impl, "op", STATUS_MEASURED, 1.0, s)
                for impl, s in seconds_by_impl.items()]

    def test_discards_only_beyond_factor(self):
        out = apply_time_threshold(
            self.summaries({"a": 0.001, "b": 0.050, "c": 0.150}), 100)
        statuses = {s.impl_id: s.status for s in out}
        assert statuses == {"a": STATUS_MEASURED, "b": STATUS_MEASURED,
                            "c": STATUS_DISCARDED}

    def test_single_implementation_never_discarded(self):
        out = apply_time_threshold(self.summaries({"only": 3.0}), 100)
        assert out[0].status == STATUS_MEASURED

    def test_boundary_is_strictly_greater(self):
        out = apply_time_threshold(self.summaries({"a": 1.0, "b": 100.0}), 100)
        assert all(s.status == STATUS_MEASURED for s in out)

    def test_discarded_lose_scores(self):
        out = apply_time_threshold(self.summaries({"a": 1.0, "b": 500.0}), 100)
        discarded = next(s for s in out if s.impl_id == "b")
        assert discarded.mean_joules is None and discarded.mean_seconds is None

    def test_unmeasured_passthrough(self):
        mixed = self.summaries({"a": 1.0}) + [
            OpSummary("u", "op", STATUS_UNSUPPORTED)]
        out = apply_time_threshold(mixed, 100)
        assert out[1].status == STATUS_UNSUPPORTED

    def test_empty_group(self):
        with pytest.raises(EmptyGroup):
            apply_time_threshold([], 100)
        with pytest.raises(EmptyGroup):
            apply_time_threshold([OpSummary("u", "op", STATUS_UNSUPPORTED)], 100)

    @given(st.dictionaries(st.sampled_from("abcdefgh"),
                           st.floats(min_value=1e-6, max_value=1e3),
                           min_size=1, max_size=8),
           st.floats(min_value=1.5, max_value=50),
           st.floats(min_value=1.0, max_value=200))
    def test_monotone_in_factor_and_keeps_fastest(self, seconds, f1, delta):
        f2 = f1 + delta
        base = self.summaries(seconds)
        fastest = min(seconds, key=seconds.get)
        low = {s.impl_id for s in apply_time_threshold(base, f1)
               if s.status == STATUS_DISCARDED}
        high = {s.impl_id for s in apply_time_threshold(base, f2)
                if s.status == STATUS_DISCARDED}
        assert high <= low
        assert fastest not in low


def test_scenario_presets_strictly_increase():
    assert (SCENARIOS["small"].element_count
            < SCENARIOS["medium"].element_count
            < SCENARIOS["big"].element_count)
    for scenario in SCENARIOS.values():
        assert scenario.op_repetitions >= 1


def test_scenario_needs_an_element():
    with pytest.raises(InvalidConfig, match="profiling needs at least 1"):
        vp.Scenario("small", 0, 8)
    assert vp.Scenario("small", 1, 8).element_count == 1


def test_run_plan_validation():
    with pytest.raises(ValueError):
        vp.RunPlan(total_runs=3, warmup_discard=3)
    with pytest.raises(ValueError):
        vp.RunPlan(time_threshold_factor=1.0)
    quick = vp.RunPlan.quick()
    assert quick.total_runs == 3 and quick.warmup_discard == 0


def test_full_harness_is_pure_function_of_inputs():
    def run_once():
        meter = synthetic_meter([1.5], repeat=True)
        plan = vp.RunPlan(total_runs=3, warmup_discard=1, rng_seed=11)
        out = []
        for _g, adapter, op in measurement_grid([builtin_group("set")]):
            series = run_operation(adapter, op, vp.Scenario("small", 16, 8),
                                   meter, plan)
            out.append((series.impl_id, series.op_id, series.status,
                        tuple(series.runs)))
        return out

    assert run_once() == run_once()
