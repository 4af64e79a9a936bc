"""Discrete-event simulation substrate for the system realizations."""

from repro.sim.engine import Event, Simulator
from repro.sim.nic import GIGABIT, TEN_GIGABIT, Link, TxPort
from repro.sim.pci import PCIBus, PCIConfig, TransferRecord
from repro.sim.ring import ArrivalRing, CircularQueue
from repro.sim.sram import BankedSRAM, BankStats, Owner, SRAMBank

__all__ = [
    "ArrivalRing",
    "BankStats",
    "BankedSRAM",
    "CircularQueue",
    "Event",
    "GIGABIT",
    "Link",
    "Owner",
    "PCIBus",
    "PCIConfig",
    "SRAMBank",
    "Simulator",
    "TEN_GIGABIT",
    "TransferRecord",
    "TxPort",
]
