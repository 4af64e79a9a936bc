"""Integration tests for the composed endsystem router."""

import numpy as np
import pytest

from repro.endsystem import EndsystemConfig, EndsystemRouter
from repro.sim.nic import TEN_GIGABIT
from repro.traffic.generators import cbr_arrivals
from repro.traffic.specs import EndsystemStreamSpec, ratio_workload


class TestBandwidthSharing:
    def test_ratio_1124_steady_state(self):
        specs = ratio_workload((1, 1, 2, 4), frames_per_stream=2000)
        router = EndsystemRouter(specs)
        result = router.run(preload=True)
        # During the saturated first quarter, shares are 1:1:2:4.
        bw = result.te.bandwidth
        horizon = result.elapsed_us / 4
        means = {}
        for sid in bw.stream_ids:
            s = bw.series(sid, horizon, t_end=horizon)
            means[sid] = float(s.mbps[0])
        base = means[0]
        assert means[1] / base == pytest.approx(1.0, rel=0.05)
        assert means[2] / base == pytest.approx(2.0, rel=0.05)
        assert means[3] / base == pytest.approx(4.0, rel=0.05)

    def test_all_frames_delivered(self):
        specs = ratio_workload((1, 2), frames_per_stream=500)
        router = EndsystemRouter(specs)
        result = router.run(preload=True)
        assert result.frames_sent == 1000
        assert result.bytes_sent == 1000 * 1500

    def test_work_conserving_after_drain(self):
        # Once the high-share stream drains, capacity redistributes.
        specs = ratio_workload((1, 4), frames_per_stream=800)
        router = EndsystemRouter(specs)
        result = router.run(preload=True)
        bw = result.te.bandwidth
        full = bw.series(0, result.elapsed_us / 8, t_end=result.elapsed_us)
        # Stream 0's bandwidth in the last eighth exceeds its share in
        # the first eighth (stream 1 finished long before).
        assert full.mbps[-2] > full.mbps[0] * 1.5


class TestSharePeriods:
    @pytest.mark.parametrize("scale", [0.001, 0.01, 1, 100])
    @pytest.mark.parametrize(
        "ratios,periods",
        [((1, 1, 2, 4), {0: 4, 1: 4, 2: 2, 3: 1}), ((100, 1), {0: 1, 1: 100})],
        ids=["1:1:2:4", "100:1"],
    )
    def test_periods_depend_only_on_share_ratios(self, ratios, periods, scale):
        """Scaling every share by the same factor leaves the request
        periods, and hence the service split, unchanged."""
        specs = ratio_workload(
            tuple(r * scale for r in ratios), frames_per_stream=4
        )
        assert EndsystemRouter(specs)._periods_from_shares() == periods


class TestThroughputAnchors:
    def test_no_pci_anchor(self):
        specs = ratio_workload((1, 1, 2, 4), frames_per_stream=1000)
        router = EndsystemRouter(
            specs, EndsystemConfig(link=TEN_GIGABIT, include_pci=False)
        )
        result = router.run(preload=True)
        assert result.throughput_pps == pytest.approx(469_483, rel=0.01)

    def test_pio_anchor(self):
        specs = ratio_workload((1, 1, 2, 4), frames_per_stream=1000)
        router = EndsystemRouter(
            specs, EndsystemConfig(link=TEN_GIGABIT, include_pci=True)
        )
        result = router.run(preload=True)
        assert result.throughput_pps == pytest.approx(299_065, rel=0.01)

    def test_pci_accounting_populated(self):
        specs = ratio_workload((1, 1), frames_per_stream=200)
        router = EndsystemRouter(specs)
        result = router.run(preload=True)
        assert result.pci.total_words > 0
        assert len(result.pci.transfers) > 0


class TestTimedArrivals:
    def test_paced_arrivals_flow_through(self):
        specs = [
            EndsystemStreamSpec(
                sid=i,
                share=1.0,
                arrivals_us=cbr_arrivals(300, rate_pps=2000.0),
            )
            for i in range(2)
        ]
        router = EndsystemRouter(specs)
        result = router.run(preload=False)
        assert result.frames_sent == 600
        # Paced below capacity: delays stay bounded by a few frames.
        delays = result.te.delay.series(0)
        assert delays.mean_us < 5000

    def test_delay_reflects_queueing(self):
        # One overloaded stream: delay grows with position in queue.
        specs = [
            EndsystemStreamSpec(
                sid=0,
                share=1.0,
                arrivals_us=np.zeros(300),
            )
        ]
        router = EndsystemRouter(specs)
        result = router.run(preload=False)
        delays = result.te.delay.series(0).delays_us
        assert delays[-1] > delays[0]

    def test_validation_too_many_streams(self):
        specs = ratio_workload((1, 1, 2, 4, 8), frames_per_stream=10)
        with pytest.raises(ValueError):
            EndsystemRouter(specs, EndsystemConfig(n_slots=4))


class TestUndersubscribedPacing:
    def test_paced_streams_get_offered_rate(self):
        """When every stream offers less than its share, output tracks
        the offered rates, not the QoS weights (work conservation)."""
        from repro.traffic.generators import cbr_arrivals

        # Aggregate 4000 pps << 10667 pps capacity; equal offered rates
        # despite 1:4 shares.
        specs = [
            EndsystemStreamSpec(
                sid=0, share=1.0, arrivals_us=cbr_arrivals(800, 2000.0)
            ),
            EndsystemStreamSpec(
                sid=1, share=4.0, arrivals_us=cbr_arrivals(800, 2000.0)
            ),
        ]
        router = EndsystemRouter(specs)
        result = router.run(preload=False)
        bw = result.te.bandwidth
        b0 = bw.total_bytes(0)
        b1 = bw.total_bytes(1)
        assert b0 == b1  # both fully served
        # Delays stay small for both (no queueing at undersubscription).
        for sid in (0, 1):
            assert result.te.delay.series(sid).mean_us < 2000

    def test_weighted_jain_index_on_figure8(self):
        """The 1:1:2:4 run is perfectly weighted-fair by Jain's index."""
        specs = ratio_workload((1, 1, 2, 4), frames_per_stream=1200)
        router = EndsystemRouter(specs)
        result = router.run(preload=True)
        bw = result.te.bandwidth
        horizon = result.elapsed_us / 4
        meter = bw  # bandwidth within the saturated phase:
        weighted = {0: 1.0, 1: 1.0, 2: 2.0, 3: 4.0}
        # Build a phase-limited index from single-window series.
        import numpy as np

        values = []
        for sid in bw.stream_ids:
            series = bw.series(sid, horizon, t_end=horizon)
            values.append(float(series.mbps[0]) / weighted[sid])
        arr = np.asarray(values)
        jain = arr.sum() ** 2 / (len(arr) * (arr**2).sum())
        assert jain > 0.999
