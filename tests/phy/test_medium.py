"""Wireless medium: range, delivery, overhearing, collisions."""

import pytest

from repro.des.core import Simulator
from repro.energy.accounting import BatteryMonitor
from repro.energy.battery import Battery
from repro.energy.profile import PAPER_PROFILE, RadioMode
from repro.geo.grid import GridMap
from repro.geo.vector import Vec2
from repro.mac.frames import AckFrame
from repro.mobility.static import StaticPosition
from repro.phy.medium import Medium, MediumConfig
from repro.phy.radio import Radio


def build(positions, **config_kw):
    sim = Simulator()
    grid = GridMap(1000.0, 1000.0, 100.0)
    medium = Medium(sim, grid, MediumConfig(**config_kw))
    radios = []
    for i, (x, y) in enumerate(positions):
        battery = Battery(500.0)
        mon = BatteryMonitor(sim, battery, max_draw_w=1.433)
        r = Radio(i, StaticPosition(Vec2(x, y)), PAPER_PROFILE, mon)
        medium.register(r)
        radios.append(r)
    return sim, medium, radios


def attach_inbox(radio):
    inbox = []
    radio.frame_sink = lambda payload, sender: inbox.append((payload, sender))
    return inbox


def test_in_range_delivery():
    sim, medium, (a, b) = build([(100, 100), (200, 100)])
    inbox = attach_inbox(b)
    medium.transmit(a, "msg", 100)
    sim.run(until=1.0)
    assert inbox == [("msg", 0)]
    assert medium.stats.frames_delivered == 1


def test_out_of_range_no_delivery():
    sim, medium, (a, b) = build([(100, 100), (500, 100)])
    inbox = attach_inbox(b)
    medium.transmit(a, "msg", 100)
    sim.run(until=1.0)
    assert inbox == []


def test_exact_range_boundary_included():
    sim, medium, (a, b) = build([(100, 100), (350, 100)])  # exactly 250 m
    inbox = attach_inbox(b)
    medium.transmit(a, "msg", 100)
    sim.run(until=1.0)
    assert inbox == [("msg", 0)]


def test_airtime_matches_bandwidth():
    _, medium, _ = build([(0, 0)])
    # 512 bytes at 2 Mbps = 2.048 ms
    assert medium.airtime(512) == pytest.approx(512 * 8 / 2e6)


def test_broadcast_reaches_all_awake_in_range():
    sim, medium, radios = build(
        [(500, 500), (550, 500), (600, 500), (900, 900)]
    )
    inboxes = [attach_inbox(r) for r in radios]
    medium.transmit(radios[0], "x", 64)
    sim.run(until=1.0)
    assert inboxes[1] and inboxes[2]
    assert not inboxes[3]  # out of range


def test_sleeping_receiver_misses_frame():
    sim, medium, (a, b) = build([(100, 100), (150, 100)])
    inbox = attach_inbox(b)
    b.sleep()
    medium.transmit(a, "msg", 100)
    sim.run(until=1.0)
    assert inbox == []
    assert medium.stats.frames_missed_asleep == 1


def test_overhearing_charges_rx_energy():
    sim, medium, (a, b) = build([(100, 100), (150, 100)])
    attach_inbox(b)
    before = b.monitor.battery.consumed_at(sim.now)
    medium.transmit(a, "msg", 1000)
    sim.run(until=1.0)
    airtime = medium.airtime(1000)
    end = sim.now
    consumed = b.monitor.battery.consumed_at(end)
    # Receiver spent the airtime at RX power rather than idle.
    rx_extra = airtime * (PAPER_PROFILE.rx_w - PAPER_PROFILE.idle_w)
    baseline = end * (PAPER_PROFILE.idle_w + PAPER_PROFILE.gps_w)
    assert consumed == pytest.approx(baseline + rx_extra, rel=1e-6)


def test_address_picks_the_sink_not_who_pays():
    """``dst`` selects whose sink gets the frame; every in-range
    receiver still pays RX for the airtime and counts as delivered."""
    sim, medium, (a, b, c) = build([(100, 100), (150, 100), (200, 100)])
    inbox_a, inbox_b, inbox_c = (attach_inbox(r) for r in (a, b, c))
    medium.transmit(a, "unicast", 1000, dst=b.node_id)
    sim.run(until=1.0)
    assert inbox_b == [("unicast", 0)]
    assert inbox_c == []
    assert medium.stats.frames_delivered == 2
    rx_extra = medium.airtime(1000) * (PAPER_PROFILE.rx_w - PAPER_PROFILE.idle_w)
    baseline = sim.now * (PAPER_PROFILE.idle_w + PAPER_PROFILE.gps_w)
    for radio in (b, c):
        consumed = radio.monitor.battery.consumed_at(sim.now)
        assert consumed == pytest.approx(baseline + rx_extra, rel=1e-6)

    medium.transmit(a, "broadcast", 100)
    sim.run(until=2.0)
    assert inbox_b[1:] == [("broadcast", 0)]
    assert inbox_c == [("broadcast", 0)]

    ack = AckFrame(b.node_id, a.node_id, 1)
    medium.transmit(b, ack, ack.wire_bytes, dst=ack.dst)
    sim.run(until=3.0)
    assert inbox_a == [(ack, 1)]
    assert inbox_c == [("broadcast", 0)]
    assert medium.stats.frames_delivered == 6


#: Hidden-terminal triple: a and b cannot hear each other (480 m apart)
#: but both reach c in the middle (240 m each).
HIDDEN = [(100, 100), (580, 100), (340, 100)]


def test_collision_corrupts_both_frames():
    sim, medium, (a, b, c) = build(HIDDEN)
    inbox = attach_inbox(c)
    medium.transmit(a, "from-a", 1000)
    medium.transmit(b, "from-b", 1000)  # overlaps at c
    sim.run(until=1.0)
    assert inbox == []
    assert medium.stats.frames_corrupted == 2


def test_non_overlapping_frames_both_delivered():
    sim, medium, (a, b, c) = build(HIDDEN)
    inbox = attach_inbox(c)
    medium.transmit(a, "first", 100)
    sim.at(1.0, medium.transmit, b, "second", 100)
    sim.run(until=2.0)
    assert sorted(p for p, _ in inbox) == ["first", "second"]


def test_transmitter_cannot_receive_own_or_concurrent():
    sim, medium, (a, b) = build([(100, 100), (150, 100)])
    inbox_a = attach_inbox(a)
    medium.transmit(a, "self", 5000)
    # b transmits while a is still transmitting: a is half-duplex deaf.
    sim.at(medium.airtime(5000) / 2, medium.transmit, b, "other", 100)
    sim.run(until=1.0)
    assert inbox_a == []


def test_channel_busy_sensing():
    sim, medium, (a, b) = build([(100, 100), (200, 100)])
    assert not medium.channel_busy(b)
    medium.transmit(a, "x", 2000)
    assert medium.channel_busy(b)
    assert medium.channel_busy(a)  # own transmission
    sim.run(until=1.0)
    assert not medium.channel_busy(b)


def test_update_cell_moves_bucket():
    sim, medium, (a, b) = build([(100, 100), (200, 100)])
    # Simulate b moving out of range by changing its mobility model.
    b.mobility = StaticPosition(Vec2(900.0, 900.0))
    medium.update_cell(b)
    inbox = attach_inbox(b)
    medium.transmit(a, "x", 64)
    sim.run(until=1.0)
    assert inbox == []


def test_unregister_removes_from_medium():
    sim, medium, (a, b) = build([(100, 100), (200, 100)])
    inbox = attach_inbox(b)
    medium.unregister(b)
    medium.transmit(a, "x", 64)
    sim.run(until=1.0)
    assert inbox == []


def test_radios_near_radius():
    _, medium, radios = build([(500, 500), (550, 500), (700, 500)])
    near = medium.radios_near(Vec2(500, 500), 100.0)
    assert {r.node_id for r in near} == {0, 1}
    near2 = medium.radios_near(Vec2(500, 500), 300.0)
    assert {r.node_id for r in near2} == {0, 1, 2}


def test_gray_zone_reception_probability_profile():
    cfg = MediumConfig(loss_model="gray_zone", gray_zone_start_frac=0.8)
    assert cfg.reception_probability(0.0) == 1.0
    assert cfg.reception_probability(200.0) == 1.0     # <= 0.8 * 250
    assert cfg.reception_probability(225.0) == pytest.approx(0.5)
    assert cfg.reception_probability(250.0) == pytest.approx(0.0)
    assert cfg.reception_probability(300.0) == 0.0


def test_unit_disk_probability_is_step():
    cfg = MediumConfig()
    assert cfg.reception_probability(249.9) == 1.0
    assert cfg.reception_probability(250.1) == 0.0


def test_gray_zone_drops_some_fringe_frames():
    sim, medium, (a, b) = build(
        [(100, 100), (345, 100)], loss_model="gray_zone"
    )  # distance 245 m: deep in the gray zone
    inbox = attach_inbox(b)
    for i in range(60):
        sim.at(i * 0.01, medium.transmit, a, f"m{i}", 64)
    sim.run(until=2.0)
    # Some but not all frames decode.
    assert 0 < len(inbox) < 60
    assert medium.stats.frames_corrupted > 0


def test_gray_zone_reliable_core_unaffected():
    sim, medium, (a, b) = build(
        [(100, 100), (200, 100)], loss_model="gray_zone"
    )  # 100 m: inside the reliable core
    inbox = attach_inbox(b)
    for i in range(30):
        sim.at(i * 0.01, medium.transmit, a, f"m{i}", 64)
    sim.run(until=2.0)
    assert len(inbox) == 30


def test_fractional_range_reaches_fourth_ring():
    # Ring count must be computed as ceil() on the float ratio: a
    # 300.2 m radius over 100 m cells needs 4 bucket rings.  Integer
    # truncation (3 rings) silently dropped in-range receivers whose
    # bucket sits in the fourth ring, like this pair 300.15 m apart.
    sim, medium, (a, b) = build(
        [(99.9, 50.0), (400.05, 50.0)], range_m=300.2
    )
    offsets = medium._offsets_near(300.2)
    assert max(max(abs(dx), abs(dy)) for dx, dy in offsets) == 4
    inbox = attach_inbox(b)
    medium.transmit(a, "msg", 100)
    sim.run(until=1.0)
    assert inbox == [("msg", 0)]


def test_unreachable_corner_cells_are_pruned():
    # Default 250 m range on 100 m cells: the four (+-3, +-3) corner
    # cells of the 7x7 ball sit >= sqrt(2)*200 m > 250 m away from any
    # point of the center cell and are dropped from the query set; the
    # axis cells at the same ring remain reachable (gap 200 m).
    _, medium, _ = build([(0.0, 0.0)])
    offsets = set(medium._offsets_near(medium.config.range_m))
    assert (3, 3) not in offsets and (-3, -3) not in offsets
    assert (3, 0) in offsets and (0, -3) in offsets
