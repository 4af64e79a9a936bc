"""Figure 7: area-clock rate characteristics (Virtex-I, BA vs WR).

Sweeps the calibrated area/clock models over 4/8/16/32 stream-slots for
both routing variants and checks the paper's stated properties:

* area grows linearly with slot count, BA ~ WR ("maintains almost the
  same area");
* decision time grows logarithmically (2/3/4/5 sort cycles);
* WR shows less clock variation 4→32 than BA;
* BA's clock degradation vs WR is ~20% at 8/16 slots, ~10% at 32;
* a 32-slot design still fits a single Virtex 1000.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.config import Routing
from repro.hwmodel.area import AreaBreakdown, area_model
from repro.hwmodel.timing import clock_rate_mhz

__all__ = ["Figure7Point", "run_figure7", "SLOT_COUNTS"]

#: The slot counts Figure 7 sweeps.
SLOT_COUNTS = (4, 8, 16, 32)


@dataclass(frozen=True, slots=True)
class Figure7Point:
    """One (slot count, routing) design point of Figure 7."""

    n_slots: int
    routing: Routing
    area: AreaBreakdown
    clock_mhz: float
    sort_cycles: int

    @property
    def slices(self) -> float:
        """Design area in slices."""
        return self.area.total_slices


def run_figure7() -> list[Figure7Point]:
    """Both Figure 7 curves: (BA, WR) x (4, 8, 16, 32)."""
    points = []
    for routing in (Routing.BA, Routing.WR):
        for n in SLOT_COUNTS:
            points.append(
                Figure7Point(
                    n_slots=n,
                    routing=routing,
                    area=area_model(n, routing),
                    clock_mhz=clock_rate_mhz(n, routing),
                    sort_cycles=(n - 1).bit_length(),
                )
            )
    return points


def degradation_ba_vs_wr(points: list[Figure7Point]) -> dict[int, float]:
    """Relative clock-rate degradation of BA vs WR per slot count."""
    by_key = {(p.n_slots, p.routing): p for p in points}
    return {
        n: 1.0
        - by_key[(n, Routing.BA)].clock_mhz / by_key[(n, Routing.WR)].clock_mhz
        for n in SLOT_COUNTS
    }
