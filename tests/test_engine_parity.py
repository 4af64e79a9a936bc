"""Engine switch parity: experiment drivers give bit-identical results.

Every experiment driver that accepts ``engine="tensor"`` must reproduce
the reference engine's outputs exactly — not approximately — at
reduced scale (the full-scale runs only differ in the workload-size
parameter, which both engines receive identically).
"""

import numpy as np

from repro.experiments.figure8 import run_figure8
from repro.experiments.figure9 import run_figure9
from repro.experiments.figure10 import run_figure10
from repro.experiments.isolation import run_isolation
from repro.experiments.table3 import run_table3

SCALE = 400  # frames per stream for the paired runs


class TestTable3Parity:
    def test_all_three_configurations_bit_identical(self):
        reference = run_table3(SCALE)
        tensor = run_table3(SCALE, engine="tensor")
        assert reference == tensor


class TestEndsystemParity:
    def test_figure8_bit_identical(self):
        reference = run_figure8(SCALE)
        tensor = run_figure8(SCALE, engine="tensor")
        assert reference.run.elapsed_us == tensor.run.elapsed_us
        assert reference.run.frames_sent == tensor.run.frames_sent
        assert reference.run.bytes_sent == tensor.run.bytes_sent
        assert reference.steady_mbps == tensor.steady_mbps
        for sid in reference.series:
            np.testing.assert_array_equal(
                reference.series[sid].mbps, tensor.series[sid].mbps
            )

    def test_figure9_bit_identical(self):
        reference = run_figure9(n_bursts=2, burst_size=300)
        tensor = run_figure9(n_bursts=2, burst_size=300, engine="tensor")
        assert reference.run.elapsed_us == tensor.run.elapsed_us
        assert reference.run.frames_sent == tensor.run.frames_sent
        assert reference.mean_delays_us() == tensor.mean_delays_us()
        for sid in reference.series:
            np.testing.assert_array_equal(
                reference.series[sid].delays_us, tensor.series[sid].delays_us
            )

    def test_figure10_bit_identical(self):
        reference = run_figure10(SCALE, streamlets_per_slot=10)
        tensor = run_figure10(SCALE, streamlets_per_slot=10, engine="tensor")
        assert reference.run.elapsed_us == tensor.run.elapsed_us
        assert reference.run.frames_sent == tensor.run.frames_sent
        assert reference.streamlet_mbps() == tensor.streamlet_mbps()


class TestIsolationParity:
    def test_sharestreams_row_bit_identical(self):
        reference = run_isolation(horizon=1200)
        tensor = run_isolation(horizon=1200, engine="tensor")
        assert reference[0] == tensor[0]  # the ShareStreams system row
        assert reference[1:] == tensor[1:]  # peers untouched by the switch
