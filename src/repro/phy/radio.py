"""Radio state machine with energy-accounted mode transitions.

The *effective* mode combines a protocol-chosen base mode (IDLE, SLEEP,
OFF) with transient transmit/receive activity:

- transmitting           -> TX
- receiving (>=1 frames) -> RX   (includes overhearing neighbors' frames)
- otherwise              -> base mode

Every effective-mode change updates the battery draw through the node's
:class:`~repro.energy.accounting.BatteryMonitor`, so energy is the exact
integral of the mode timeline.  Overhearing is charged at RX power —
this is the physical effect that makes always-on protocols (GRID) burn
through batteries, i.e. the phenomenon the paper is about.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from repro.energy.accounting import BatteryMonitor
from repro.energy.profile import PowerProfile, RadioMode

#: Sink invoked with (payload, sender_id) when a frame is received intact.
FrameSink = Callable[[object, int], None]


class Radio:
    """One host's transceiver."""

    def __init__(
        self,
        node_id: int,
        position_fn: Callable[[], object],
        profile: PowerProfile,
        monitor: BatteryMonitor,
        mobility: Optional[object] = None,
    ) -> None:
        self.node_id = node_id
        self.position_fn = position_fn
        #: The node's mobility model, when one exists.  The medium's
        #: neighbor loops use it to query positions with a single call
        #: (``mobility.position(now)``) instead of going through
        #: ``position_fn``; both paths return the identical value.
        self.mobility = mobility
        self.profile = profile
        self.monitor = monitor
        self.base_mode = RadioMode.IDLE
        self.transmitting = False
        #: Frames being received now.  This count and ``rx_recs`` are
        #: kept by :class:`~repro.phy.medium.Medium`, whose receiver
        #: loops also make the IDLE <-> RX flips inline.
        self.rx_count = 0
        #: The medium's in-flight receptions at this radio (a second
        #: overlapping frame corrupts them all).
        self.rx_recs: List[object] = []
        self.frame_sink: Optional[FrameSink] = None
        self.on_mode_change: Optional[Callable[[RadioMode, RadioMode], None]] = None
        #: Installed by the medium at registration: notifies it that
        #: this radio's *base* mode (IDLE/SLEEP/OFF) flipped, so the
        #: awake/asleep partition of its cell's bucket is rebuilt.  The
        #: transient TX/RX activity never fires it.
        self.on_base_mode_flip: Optional[Callable[["Radio"], None]] = None
        self._effective = RadioMode.IDLE
        # Watts per mode, precomputed: ``_update`` runs for every frame
        # overheard by every receiver, and the profile is immutable.
        # Plain floats skip an enum-keyed dict (enum __hash__ is
        # measurable at half a million draw switches per run).
        self._p_tx = profile.total_power(RadioMode.TX)
        self._p_rx = profile.total_power(RadioMode.RX)
        self._p_idle = profile.total_power(RadioMode.IDLE)
        self._p_sleep = profile.total_power(RadioMode.SLEEP)
        self._p_off = profile.total_power(RadioMode.OFF)
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
        return self.base_mode is RadioMode.IDLE

    @property
    def alive(self) -> bool:
        return self.base_mode is not RadioMode.OFF

    def position(self):
        """Current world position (delegates to the node's mobility)."""
        return self.position_fn()

    # ------------------------------------------------------------------
    # Protocol-driven base mode
    # ------------------------------------------------------------------
    def sleep(self) -> None:
        """Power the transceiver down (host stays alive; RAS still works)."""
        if self.base_mode is RadioMode.OFF:
            return
        self.base_mode = RadioMode.SLEEP
        # Any in-flight receptions are lost; the medium checks the base
        # mode when each frame ends.
        self.rx_count = 0
        self._update()
        if self.on_base_mode_flip is not None:
            self.on_base_mode_flip(self)

    def wake(self) -> None:
        """Power the transceiver up into idle."""
        if self.base_mode is RadioMode.OFF:
            return
        self.base_mode = RadioMode.IDLE
        self._update()
        if self.on_base_mode_flip is not None:
            self.on_base_mode_flip(self)

    def power_off(self) -> None:
        """Battery exhausted: the radio is gone for good."""
        self.base_mode = RadioMode.OFF
        self.rx_count = 0
        self.transmitting = False
        self._update()
        if self.on_base_mode_flip is not None:
            self.on_base_mode_flip(self)

    def power_on(self) -> None:
        """Inverse of :meth:`power_off` for revived hosts (failure
        injection).  The monitor must be re-armed *before* this call so
        the fresh idle draw books its depletion checks."""
        self.base_mode = RadioMode.IDLE
        self.rx_count = 0
        self.transmitting = False
        self._update()
        if self.on_base_mode_flip is not None:
            self.on_base_mode_flip(self)

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
        base = self.base_mode
        if base is RadioMode.OFF:
            eff = RadioMode.OFF
            watts = self._p_off
        elif self.transmitting:
            eff = RadioMode.TX
            watts = self._p_tx
        elif self.rx_count > 0 and base is RadioMode.IDLE:
            eff = RadioMode.RX
            watts = self._p_rx
        else:
            eff = base
            watts = self._p_idle if base is RadioMode.IDLE else self._p_sleep
        if eff is self._effective:
            return
        old = self._effective
        self._effective = eff
        self.monitor.set_draw(watts)
        if self.on_mode_change is not None:
            self.on_mode_change(old, eff)
