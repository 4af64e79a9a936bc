"""Tests for the experiment drivers (reduced-scale paper checks)."""

import pytest

from repro.core.config import BlockMode
from repro.core.control import ControlState
from repro.core.rules import Rule
from repro.experiments.comparison import (
    measure_software_discipline,
    run_endsystem_throughput,
    run_linecard_throughput,
)
from repro.experiments.figure1 import run_figure1
from repro.experiments.figure6 import render_timeline, run_figure6
from repro.experiments.figure7 import degradation_ba_vs_wr, run_figure7
from repro.experiments.figure8 import run_figure8
from repro.experiments.figure9 import run_figure9
from repro.experiments.figure10 import run_figure10
from repro.experiments.table1 import (
    build_table1,
    witness_dwcs_dynamics,
    witness_tag_stability,
)
from repro.experiments.table2 import run_rule_coverage
from repro.experiments.table3 import run_block, run_max_finding


class TestTable1:
    def test_five_rows(self):
        rows = build_table1()
        assert len(rows) == 5
        assert rows[0].characteristic == "Priority"
        assert "circular" in rows[2].window_constrained.lower()

    def test_witnesses(self):
        assert witness_tag_stability()
        assert witness_dwcs_dynamics()


class TestTable2:
    def test_all_rules_reachable(self):
        cov = run_rule_coverage()
        assert cov.all_rules_fired
        assert cov.total == sum(cov.counts.values())
        assert cov.counts[Rule.EARLIEST_DEADLINE] > 0


class TestTable3:
    """Reduced-scale shape checks of the headline experiment."""

    SCALE = 500  # frames per stream (paper: 16000)

    def test_max_finding_misses_nearly_every_cycle(self):
        r = run_max_finding(self.SCALE)
        cycles = 4 * self.SCALE
        assert r.decision_cycles == cycles
        assert r.frames_scheduled == cycles
        for row in r.rows:
            # Paper: 63,986-63,989 misses over 64,000 cycles.
            assert cycles - 20 <= row.missed_deadlines <= cycles
        # Wins split evenly: paper's 16,000 decision cycles per stream.
        for row in r.rows:
            assert row.winner_cycles == pytest.approx(cycles / 4, abs=2)

    def test_block_max_first_meets_all_deadlines(self):
        r = run_block(BlockMode.MAX_FIRST, self.SCALE)
        assert r.total_missed == 0
        assert r.decision_cycles == self.SCALE  # 4x fewer than max-finding
        assert r.frames_scheduled == 4 * self.SCALE
        for row in r.rows:
            # Paper: 4000 winner cycles per stream out of 16000.
            assert row.winner_cycles == pytest.approx(self.SCALE / 4, abs=5)

    def test_block_min_first_forfeits_deadlines(self):
        r = run_block(BlockMode.MIN_FIRST, self.SCALE)
        # Massive, roughly even misses (paper: 22,621-29,311 per stream).
        assert r.total_missed > self.SCALE
        per_stream = [row.missed_deadlines for row in r.rows]
        assert max(per_stream) < 2 * min(per_stream)
        assert r.decision_cycles == self.SCALE

    def test_throughput_ordering(self):
        mf = run_max_finding(self.SCALE)
        ba = run_block(BlockMode.MAX_FIRST, self.SCALE)
        # Same frames, 4x fewer decision cycles: the block-size factor.
        assert mf.frames_scheduled == ba.frames_scheduled
        assert mf.decision_cycles == 4 * ba.decision_cycles


class TestFigure1:
    def test_fpga_dominates_software(self):
        sweep = run_figure1()
        assert sweep.realizable_fraction("fpga") > sweep.realizable_fraction(
            "software"
        )

    def test_rejects_unknown_discipline(self):
        with pytest.raises(KeyError):
            run_figure1(disciplines=("priority_inversion",))


class TestFigure6:
    def test_timeline_alternates(self):
        timeline = run_figure6(3)
        states = [e.state for e in timeline]
        assert states[0] is ControlState.LOAD
        assert states[1:] == [
            ControlState.SCHEDULE,
            ControlState.PRIORITY_UPDATE,
        ] * 3

    def test_schedule_spans_log2n_cycles(self):
        timeline = run_figure6(1)
        schedule = [e for e in timeline if e.state is ControlState.SCHEDULE]
        assert schedule[0].cycles == 2  # log2(4)

    def test_render(self):
        out = render_timeline(run_figure6(2))
        assert "SCHEDULE" in out and "PRIORITY_UPDATE" in out
        assert "#" in out


class TestFigure7:
    def test_eight_points(self):
        points = run_figure7()
        assert len(points) == 8
        assert {p.n_slots for p in points} == {4, 8, 16, 32}

    def test_degradation_matches_paper(self):
        deg = degradation_ba_vs_wr(run_figure7())
        assert deg[8] == pytest.approx(0.20, abs=0.02)
        assert deg[16] == pytest.approx(0.20, abs=0.02)
        assert deg[32] == pytest.approx(0.10, abs=0.02)

    def test_all_points_fit_device(self):
        assert all(p.area.fits for p in run_figure7())


class TestFigure8:
    def test_steady_state_ratios(self):
        result = run_figure8(frames_per_stream=2000)
        ratios = result.ratios
        assert ratios[0] == pytest.approx(1.0, rel=0.05)
        assert ratios[1] == pytest.approx(1.0, rel=0.05)
        assert ratios[2] == pytest.approx(2.0, rel=0.05)
        assert ratios[3] == pytest.approx(4.0, rel=0.05)

    def test_absolute_scale_2248(self):
        # Paper's Figure 8/10 scale: 2.0/2.0/4.0/8.0 MBps.
        result = run_figure8(frames_per_stream=2000)
        assert result.steady_mbps[0] == pytest.approx(2.0, rel=0.1)
        assert result.steady_mbps[3] == pytest.approx(8.0, rel=0.1)


class TestFigure9:
    @pytest.fixture(scope="class")
    def result(self):
        return run_figure9(n_bursts=2, burst_size=800)

    def test_stream4_has_lowest_delay(self, result):
        delays = result.mean_delays_us()
        assert delays[3] < delays[0]
        assert delays[3] < delays[1]
        assert delays[3] < delays[2]

    def test_overloaded_streams_zigzag(self, result):
        assert result.zigzag_score(0, 800) > 2.0
        assert result.zigzag_score(1, 800) > 2.0


class TestFigure10:
    def test_streamlet_scale_and_set_ratio(self):
        result = run_figure10(frames_per_stream=2000, streamlets_per_slot=100)
        rep = result.representative_mbps()
        # Slots 1-3: slot MBps / 100 streamlets.
        assert rep["slot1/set1"] == pytest.approx(0.02, rel=0.15)
        assert rep["slot2/set1"] == pytest.approx(0.02, rel=0.15)
        assert rep["slot3/set1"] == pytest.approx(0.04, rel=0.15)
        # Slot 4: set 1 at double the bandwidth of set 2.
        assert rep["slot4/set1"] / rep["slot4/set2"] == pytest.approx(
            2.0, rel=0.1
        )


class TestComparison:
    def test_linecard_anchor(self):
        row = run_linecard_throughput(n_decisions=400)
        assert row.pps == pytest.approx(7_600_000)

    def test_endsystem_anchors(self):
        no_pci = run_endsystem_throughput(include_pci=False, frames_per_stream=800)
        pio = run_endsystem_throughput(include_pci=True, frames_per_stream=800)
        assert no_pci.pps == pytest.approx(469_483, rel=0.01)
        assert pio.pps == pytest.approx(299_065, rel=0.01)
        assert no_pci.pps > pio.pps

    def test_software_measurement_runs(self):
        row = measure_software_discipline("edf", n_packets=2000)
        assert row.pps > 0
        assert row.source == "measured-here"
