"""Banked SRAM with host/FPGA ownership arbitration.

The Celoxica RC1000 card carries 8 MB of SRAM "accessible from both a
host/PCI peer and the Virtex FPGA with suitable arbitration (between
the FPGA and host-PCI peer) provided by the firmware" (Section 4.3).
Section 5.2 identifies this arbitration as the performance bottleneck:
"the Celoxica card has a SRAM bank which needs to switch ownership
between FPGA and Stream processor each time a transfer is made, which
is generally the bottleneck for high-performance PCI transfers".

:class:`BankedSRAM` models that: each bank has a current owner, access
by the other side first pays a fixed ownership-switch cost, and the
model counts switches and words moved so experiments can attribute
overhead.  Banked layout enables the concurrency the paper exploits
(the stream processor fills one bank while the scheduler reads another).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

__all__ = ["Owner", "BankStats", "SRAMBank", "BankedSRAM"]


class Owner(enum.Enum):
    """Which side currently owns a bank."""

    HOST = "host"
    FPGA = "fpga"


@dataclass(slots=True)
class BankStats:
    """Access accounting for one bank."""

    ownership_switches: int = 0
    words_written: int = 0
    words_read: int = 0
    switch_time_us: float = 0.0


class SRAMBank:
    """One SRAM bank: word storage + ownership arbitration.

    Parameters
    ----------
    words:
        Capacity in 32-bit words.
    switch_cost_us:
        Fixed time an ownership handoff takes (firmware arbitration).
    """

    def __init__(
        self,
        words: int,
        *,
        switch_cost_us: float = 1.0,
        owner: Owner = Owner.HOST,
    ) -> None:
        if words <= 0:
            raise ValueError("bank capacity must be positive")
        if switch_cost_us < 0:
            raise ValueError("switch cost must be non-negative")
        self.words = words
        self.switch_cost_us = switch_cost_us
        self.owner = owner
        self.stats = BankStats()
        self._mem: dict[int, int] = {}

    def _arbitrate(self, requester: Owner) -> float:
        """Acquire ownership for ``requester``; returns the time cost."""
        if self.owner is requester:
            return 0.0
        self.owner = requester
        self.stats.ownership_switches += 1
        self.stats.switch_time_us += self.switch_cost_us
        return self.switch_cost_us

    def _check_range(self, address: int, count: int = 1) -> None:
        if address < 0 or address + count > self.words:
            raise IndexError(
                f"access [{address}, {address + count}) outside bank of "
                f"{self.words} words"
            )

    def write(self, requester: Owner, address: int, values: list[int]) -> float:
        """Write words starting at ``address``; returns arbitration cost."""
        self._check_range(address, len(values))
        cost = self._arbitrate(requester)
        for offset, value in enumerate(values):
            self._mem[address + offset] = value & 0xFFFFFFFF
        self.stats.words_written += len(values)
        return cost

    def read(self, requester: Owner, address: int, count: int = 1) -> tuple[list[int], float]:
        """Read ``count`` words; returns (values, arbitration cost)."""
        self._check_range(address, count)
        cost = self._arbitrate(requester)
        values = [self._mem.get(address + i, 0) for i in range(count)]
        self.stats.words_read += count
        return values, cost


class BankedSRAM:
    """The card's SRAM as independently-arbitrated banks.

    Two banks suffice for the ping-pong pattern the paper describes
    (host fills one while the FPGA drains the other); the count is a
    parameter so the ablation bench can sweep it.
    """

    def __init__(
        self,
        n_banks: int = 2,
        words_per_bank: int = 1 << 20,
        *,
        switch_cost_us: float = 1.0,
    ) -> None:
        if n_banks <= 0:
            raise ValueError("need at least one bank")
        self.banks = [
            SRAMBank(words_per_bank, switch_cost_us=switch_cost_us)
            for _ in range(n_banks)
        ]

    def bank(self, index: int) -> SRAMBank:
        """Bank by index."""
        return self.banks[index]

    @property
    def total_switches(self) -> int:
        """Ownership switches across all banks."""
        return sum(b.stats.ownership_switches for b in self.banks)

    @property
    def total_switch_time_us(self) -> float:
        """Total arbitration time paid across all banks."""
        return sum(b.stats.switch_time_us for b in self.banks)
