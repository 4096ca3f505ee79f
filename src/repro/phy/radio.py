"""Radio state machine with energy-accounted mode transitions.

The *effective* mode combines a protocol-chosen base mode (IDLE, SLEEP,
OFF) with transient transmit/receive activity:

- transmitting           -> TX
- receiving (>=1 frames) -> RX   (includes overhearing neighbors' frames)
- otherwise              -> base mode

Every state change ends in :meth:`Radio._update`, the one place the
effective mode changes: it switches the battery draw through the node's
:class:`~repro.energy.accounting.BatteryMonitor`, so energy is the exact
integral of the mode timeline.  Overhearing is charged at RX power —
this is the physical effect that makes always-on protocols (GRID) burn
through batteries, i.e. the phenomenon the paper is about.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, List, Optional

from repro.energy.accounting import BatteryMonitor
from repro.energy.profile import PowerProfile, RadioMode

if TYPE_CHECKING:  # pragma: no cover
    from repro.mobility.base import MobilityModel

#: Sink invoked with (payload, sender_id) when a frame is received intact.
FrameSink = Callable[[object, int], None]

# The modes as module globals: ``_update`` runs on every mode flip, and
# a global read is far cheaper than an enum class attribute lookup.
_OFF = RadioMode.OFF
_SLEEP = RadioMode.SLEEP
_IDLE = RadioMode.IDLE
_RX = RadioMode.RX
_TX = RadioMode.TX


class Radio:
    """One host's transceiver.

    The medium reads ``base_mode`` and ``transmitting`` when a frame
    begins, so a base-mode flip notifies nobody: it changes only the
    radio's own draw.
    """

    def __init__(
        self,
        node_id: int,
        mobility: "MobilityModel",
        profile: PowerProfile,
        monitor: BatteryMonitor,
    ) -> None:
        self.node_id = node_id
        #: The node's mobility model: :meth:`position` and the medium's
        #: neighbour query and carrier sense read the position from it.
        self.mobility = mobility
        self.profile = profile
        self.monitor = monitor
        self.base_mode = _IDLE
        self.transmitting = False
        #: The medium's in-flight receptions at this radio (a second
        #: overlapping frame corrupts them all), kept by
        #: :class:`~repro.phy.medium.Medium`.  RX lasts while it is
        #: non-empty and the base mode is IDLE.
        self.rx_recs: List[object] = []
        self.frame_sink: Optional[FrameSink] = None
        self.on_mode_change: Optional[Callable[[RadioMode, RadioMode], None]] = None
        self._effective = _IDLE
        # Watts per mode, precomputed: ``_update`` runs for every frame
        # overheard by every receiver, and the profile is immutable.
        # Plain floats skip an enum-keyed dict (enum __hash__ is
        # measurable at half a million draw switches per run).
        self._p_tx = profile.total_power(_TX)
        self._p_rx = profile.total_power(_RX)
        self._p_idle = profile.total_power(_IDLE)
        self._p_sleep = profile.total_power(_SLEEP)
        self._p_off = profile.total_power(_OFF)
        # Establish the initial (idle) draw.
        self.monitor.set_draw(self._p_idle)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def mode(self) -> RadioMode:
        """Current effective mode."""
        return self._effective

    @property
    def awake(self) -> bool:
        """True when the transceiver is powered (can sense/tx/rx)."""
        return self.base_mode is _IDLE

    @property
    def alive(self) -> bool:
        return self.base_mode is not _OFF

    def position(self):
        """Current world position (from the node's mobility model)."""
        return self.mobility.position(self.monitor.sim.now)

    # ------------------------------------------------------------------
    # Protocol-driven base mode
    # ------------------------------------------------------------------
    def sleep(self) -> None:
        """Power the transceiver down (host stays alive; RAS still works).

        In-flight receptions stay in ``rx_recs`` until their frames end;
        the medium checks the base mode only then."""
        if self.base_mode is _OFF:
            return
        self.base_mode = _SLEEP
        self._update()

    def wake(self) -> None:
        """Power the transceiver up into idle."""
        if self.base_mode is _OFF:
            return
        self.base_mode = _IDLE
        self._update()

    def power_off(self) -> None:
        """Battery exhausted: the radio is gone for good."""
        self.base_mode = _OFF
        self.transmitting = False
        self._update()

    def power_on(self) -> None:
        """Inverse of :meth:`power_off` for revived hosts (failure
        injection).  The monitor must be re-armed *before* this call so
        the fresh idle draw books its depletion checks."""
        self.base_mode = _IDLE
        self.transmitting = False
        self._update()

    # ------------------------------------------------------------------
    # Medium-driven activity
    # ------------------------------------------------------------------
    def begin_tx(self) -> None:
        self.transmitting = True
        self._update()

    def end_tx(self) -> None:
        self.transmitting = False
        self._update()

    # ------------------------------------------------------------------
    def _update(self) -> None:
        """Re-derive the effective mode after any state change; the one
        place a radio's mode, and so its battery draw, changes."""
        base = self.base_mode
        if base is _OFF:
            eff = _OFF
            watts = self._p_off
        elif self.transmitting:
            eff = _TX
            watts = self._p_tx
        elif self.rx_recs and base is _IDLE:
            eff = _RX
            watts = self._p_rx
        else:
            eff = base
            watts = self._p_idle if base is _IDLE else self._p_sleep
        if eff is self._effective:
            return
        old = self._effective
        self._effective = eff
        self.monitor.set_draw(watts)
        if self.on_mode_change is not None:
            self.on_mode_change(old, eff)
