"""Discrete-event simulation kernel.

A minimal, fast, deterministic DES engine in the style of ns-2's event
scheduler: a binary-heap calendar of cancellable events, a simulation
clock, one-shot and periodic timers, and named seeded random-number
substreams so that independent model components draw from independent
sequences.

The kernel is deliberately callback-based (no generator coroutines):
profiling showed callback dispatch is ~3x cheaper per event than
resuming generators, and MANET simulations are event-dense (MAC jitter,
overhearing, beacons).
"""

from repro.des.core import Simulator, SimulationError
from repro.des.event import Event
from repro.des.timer import PeriodicTimer, Timer
from repro.des.rng import RngStreams

__all__ = [
    "Simulator",
    "SimulationError",
    "Event",
    "Timer",
    "PeriodicTimer",
    "RngStreams",
]
