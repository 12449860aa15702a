"""Tests for the benchmark's own logic (no program run needed).

Run from the repository root: ``python -m pytest perfbench``.
"""

from __future__ import annotations

import pathlib
import sys

import numpy as np
import pytest

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))

import stats  # noqa: E402
from tracer import Tracer  # noqa: E402


class TestPercentiles:
    def test_nearest_rank_takes_the_ceiling_rank(self):
        values = list(range(1, 101))  # 1..100
        assert stats.nearest_rank(values, 0.5) == 50
        assert stats.nearest_rank(values, 0.9) == 90
        assert stats.nearest_rank(values, 0.99) == 99
        assert stats.nearest_rank([3.0, 1.0, 2.0], 0.5) == 2.0

    def test_nearest_rank_never_interpolates(self):
        assert stats.nearest_rank([1.0, 10.0], 0.5) == 1.0
        assert stats.nearest_rank([1.0, 10.0], 0.51) == 10.0

    def test_tail_needs_ten_samples_beyond(self):
        assert stats.samples_beyond(100, 0.9) == 10
        assert stats.tail(list(range(100)), 0.9) == 89
        with pytest.raises(ValueError, match="only 9 beyond"):
            stats.tail(list(range(99)), 0.9)
        with pytest.raises(ValueError):
            stats.tail(list(range(500)), 0.99)  # 5 beyond
        assert stats.min_samples_for(0.9) == 100
        assert stats.min_samples_for(0.99) == 1000

    def test_median_of_few_samples_is_allowed(self):
        assert stats.median([5.0]) == 5.0
        assert stats.median([4.0, 1.0, 3.0, 2.0]) == 2.0

    def test_rejects_empty_and_bad_quantiles(self):
        with pytest.raises(ValueError):
            stats.nearest_rank([], 0.5)
        with pytest.raises(ValueError):
            stats.nearest_rank([1.0], 0.0)


class TestPoissonSchedule:
    def test_same_seed_same_schedule(self):
        a = stats.poisson_schedule(60.0, 5.0, 0.5, [7, 1])
        b = stats.poisson_schedule(60.0, 5.0, 0.5, [7, 1])
        assert a == b

    def test_other_seed_other_schedule(self):
        a = stats.poisson_schedule(60.0, 5.0, 0.5, [7, 1])
        b = stats.poisson_schedule(60.0, 5.0, 0.5, [8, 1])
        assert [x.at for x in a] != [x.at for x in b]

    def test_count_sorted_window_and_mix(self):
        schedule = stats.poisson_schedule(60.0, 5.0, 0.5, [1])
        times = [a.at for a in schedule]
        assert len(schedule) == 300
        assert times == sorted(times)
        assert 0.0 <= times[0] and times[-1] < 5.0
        assert sum(a.kind == "event" for a in schedule) == 150

    def test_gaps_look_exponential(self):
        times = np.array([a.at for a in stats.poisson_schedule(100.0, 200.0, 0.5, [3])])
        gaps = np.diff(times)
        # exponential gaps: mean 1/rate and coefficient of variation 1
        assert gaps.mean() == pytest.approx(0.01, rel=0.05)
        assert gaps.std() / gaps.mean() == pytest.approx(1.0, rel=0.1)


def _rate(offered, p90, late=0.5, growing=False):
    return stats.RateResult(
        offered_rps=offered,
        achieved_rps=offered * 0.99,
        p90_ms=p90,
        late_p90_ms=late,
        max_backlog=3,
        backlog_growth=50.0 if growing else 1.0,
        growth_limit=stats.growth_limit(offered, 100.0),
    )


class TestMaxRps:
    def test_highest_rate_meeting_the_limit(self):
        results = [_rate(30, 10), _rate(60, 20), _rate(120, 150)]
        assert stats.max_rps(results, 100.0) == pytest.approx(60 * 0.99)

    def test_all_pass_takes_the_top_rate(self):
        results = [_rate(30, 10), _rate(60, 20), _rate(120, 40)]
        assert stats.max_rps(results, 100.0) == pytest.approx(120 * 0.99)

    def test_invalid_rates_never_count(self):
        late = [_rate(30, 10), _rate(60, 20), _rate(120, 40, late=50.0)]
        assert stats.max_rps(late, 100.0) == pytest.approx(60 * 0.99)
        growing = [_rate(30, 10), _rate(60, 20, growing=True), _rate(120, 150)]
        assert stats.max_rps(growing, 100.0) == pytest.approx(30 * 0.99)

    def test_failures_miss_the_limit(self):
        results = [_rate(30, 10), _rate(60, float("inf"))]
        assert stats.max_rps(results, 100.0) == pytest.approx(30 * 0.99)

    def test_nothing_passes(self):
        assert stats.max_rps([_rate(30, 500)], 100.0) == 0.0

    def test_backlog_growth(self):
        times = [i * 0.01 for i in range(300)]
        flat = [i % 3 for i in range(300)]
        assert abs(stats.backlog_growth(times, flat)) < 1.0
        # overloaded: 20 req/s more offered than served over 3 s -> ~60
        growing = [int(20 * t) for t in times]
        assert stats.backlog_growth(times, growing) == pytest.approx(60, abs=2)
        assert stats.backlog_growth(times, growing) > stats.growth_limit(120, 100.0)

    def test_one_stall_is_not_growth(self):
        times = [i * 0.01 for i in range(300)]
        stall = [12 if 140 <= i < 150 else 1 for i in range(300)]
        assert stats.backlog_growth(times, stall) < stats.growth_limit(120, 100.0)


class TestServeWindows:
    @pytest.mark.parametrize("seconds", [1.0, 8.0, 40.0])
    def test_middle_rate_pools_enough_of_each_kind(self, seconds):
        import run
        import serve_phase

        windows = run.serve_windows(seconds)
        middle = [w for w in windows if w[0] == run.MIDDLE_RATE]
        assert len(middle) == run.MIDDLE_WINDOWS
        assert sorted(w for w in windows if w[0] != run.MIDDLE_RATE) == sorted(
            (rate, seconds * share) for rate, share in run.OTHER_WINDOWS
        )
        arrivals = [
            a
            for k, (rate, window_s) in enumerate(middle)
            for a in stats.poisson_schedule(rate, window_s, serve_phase.EVENT_SHARE, [k])
        ]
        for kind in ("event", "evaluate"):
            assert sum(a.kind == kind for a in arrivals) >= stats.min_samples_for(0.9)

    def test_other_rates_sit_among_the_middle_windows(self):
        import run

        windows = run.serve_windows(40.0)
        assert windows[0][0] == windows[-1][0] == run.MIDDLE_RATE
        assert sum(w[1] for w in windows if w[0] == run.MIDDLE_RATE) == pytest.approx(
            40.0 * run.MIDDLE_SHARE
        )


class TestSpreadPicks:
    def test_evenly_spaced_ranks_smallest_first(self):
        items = [(x * 37) % 100 for x in range(100)]  # 0..99 shuffled
        picks = stats.spread_picks(items, 10, lambda x: x)
        assert picks == [5, 15, 25, 35, 45, 55, 65, 75, 85, 95]

    def test_count_equal_to_size_takes_everything(self):
        assert stats.spread_picks([3, 1, 2], 3, lambda x: x) == [1, 2, 3]


class TestTracer:
    def test_self_time_and_restore(self):
        class Layer:
            def outer(self):
                return self.inner() + 1

            def inner(self):
                return 1

        original = Layer.outer
        tracer = Tracer()
        tracer.wrap(Layer, "outer", "outer")
        tracer.wrap(Layer, "inner", "inner")
        assert Layer().outer() == 2
        assert tracer.calls("outer") == tracer.calls("inner") == 1
        total, self_s = tracer.spans["outer"][1], tracer.spans["outer"][2]
        assert 0.0 <= self_s <= total
        assert sum(tracer.top_level.values()) == pytest.approx(total)
        tracer.uninstall()
        assert Layer.outer is original
        assert Layer().outer() == 2
        assert tracer.calls("outer") == 1

    def test_inherited_method_is_removed_again(self):
        class Base:
            def f(self):
                return "base"

        class Child(Base):
            pass

        tracer = Tracer()
        tracer.count(Child, "f", "f")
        assert Child().f() == "base"
        assert tracer.counted("f") == 1
        tracer.uninstall()
        assert "f" not in vars(Child)

    def test_snapshot_round_trip(self):
        class Layer:
            def f(self):
                return 1

        tracer = Tracer()
        tracer.wrap(Layer, "f", "f")
        Layer().f()
        tracer.samples["s"].append(1.5)
        again = Tracer.from_snapshot(tracer.snapshot())
        assert again.calls("f") == 1
        assert again.samples["s"] == [1.5]
        tracer.clear()
        assert tracer.calls("f") == 0
