"""Lane-utilization reports on *real* queue traces from both backends.

The unified :class:`~repro.transport.stats.TransportStats` means the SIMD
analysis no longer cares which schedule produced the trace: an event trace
shows the large, shrinking banks of the banked schedule; a history trace
shows per-history stage counts — what vectorizing those histories as-is
would waste."""

import numpy as np
import pytest

from repro.data.unionized import UnionizedGrid
from repro.simd.analysis import lane_utilization_report
from repro.transport.backends import get_backend
from repro.transport.context import TransportContext
from repro.transport.stats import TransportStats
from repro.transport.tally import GlobalTallies


@pytest.fixture(scope="module")
def traces(small_library):
    union = UnionizedGrid(small_library)
    out = {}
    for name in ("history", "event"):
        ctx = TransportContext.create(
            small_library, pincell=True, union=union, master_seed=7
        )
        rng = np.random.default_rng(5)
        n = 80
        pos = np.column_stack(
            [rng.uniform(-0.3, 0.3, n), rng.uniform(-0.3, 0.3, n),
             rng.uniform(-150, 150, n)]
        )
        stats = TransportStats()
        get_backend(name).run_generation(
            ctx, pos, np.ones(n), GlobalTallies(), 1.0, 0, stats=stats
        )
        out[name] = (ctx, stats)
    return out


def test_report_works_on_either_backend(traces):
    for name, (_, stats) in traces.items():
        report = lane_utilization_report(stats, width=16)
        assert report["iterations"] == stats.iterations
        assert set(report["stages"]) == {"lookup", "collision", "crossing"}
        for occ in report["stages"].values():
            assert 0.0 < occ["lane_efficiency"] <= 1.0


def test_column_totals_backend_invariant(traces):
    (ch, sh), (ce, se) = traces["history"], traces["event"]
    assert int(sh.lookup_counts.sum()) == int(se.lookup_counts.sum())
    assert int(sh.collision_counts.sum()) == int(se.collision_counts.sum())
    assert int(sh.crossing_counts.sum()) == int(se.crossing_counts.sum())
    # And the trace totals are the context's own work counters.
    assert int(sh.lookup_counts.sum()) == ch.counters.lookups
    assert int(se.lookup_counts.sum()) == ce.counters.lookups


def test_trace_granularity_per_backend(traces):
    """History records one row per source history (its totals); event
    records one row per event cycle (the shrinking bank)."""
    _, sh = traces["history"]
    _, se = traces["event"]
    assert sh.iterations == 80  # one row per source history
    assert se.iterations > 0
    # The event loop's first cycles process the full live bank; no single
    # history performs that many lookups in one row's worth of work.
    assert int(se.lookup_counts[0]) == 80
    assert int(se.lookup_counts[-1]) < 80  # the bank drains


def test_gather_metric_absent_on_history_trace(traces):
    """The history schedule records no gather stream: the report says so
    explicitly rather than inventing a locality number."""
    _, sh = traces["history"]
    report = lane_utilization_report(sh, width=16)
    assert report["gather"]["mean_stride"] is None
    assert report["gather"]["strides"] == 0


def test_gather_metric_present_on_event_trace(traces):
    _, se = traces["event"]
    report = lane_utilization_report(se, width=16)
    assert report["gather"]["strides"] > 0
    assert report["gather"]["mean_stride"] >= 0.0


def test_record_gather_indices_degenerate():
    """Streams shorter than two indices contribute no strides."""
    stats = TransportStats()
    stats.record_gather_indices(np.array([], dtype=np.int64))
    stats.record_gather_indices(np.array([42]))
    assert stats.gather_mean_stride is None
    stats.record_gather_indices(np.array([5, 8, 2]))
    assert stats.gather_mean_stride == pytest.approx((3 + 6) / 2)


def test_wider_lanes_hurt_the_drained_event_tail(traces):
    """Fig. 3's mechanism in miniature: the event trace's lane efficiency
    falls as the vector width grows, because the late-generation tail
    can no longer fill the lanes."""
    _, se = traces["event"]
    eff = [
        lane_utilization_report(se, width=w)["stages"]["lookup"][
            "lane_efficiency"
        ]
        for w in (4, 16, 64)
    ]
    assert eff[0] > eff[1] > eff[2]
