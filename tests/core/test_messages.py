"""Message formats and wire sizes."""

from repro.core.messages import (
    Acq,
    DataEnvelope,
    Hello,
    Leave,
    Retire,
    Rrep,
    Rreq,
    SleepNotify,
    TablesTransfer,
)
from repro.energy.profile import EnergyLevel
from repro.net.packet import DataPacket, LINK_OVERHEAD_BYTES


def test_hello_fields_match_paper():
    """§3.1 lists exactly five fields: id, grid, gflag, level, dist."""
    h = Hello(id=3, cell=(1, 2), gflag=True, level=EnergyLevel.BOUNDARY,
              dist=12.5)
    assert (h.id, h.cell, h.gflag, h.level, h.dist) == (
        3, (1, 2), True, EnergyLevel.BOUNDARY, 12.5
    )
    assert "G" in h.describe()


def test_control_messages_are_small():
    for msg in (Hello(), Leave(), SleepNotify(), Acq(), Rreq(), Rrep()):
        assert msg.size_bytes <= 32
        assert msg.wire_bytes == msg.size_bytes + LINK_OVERHEAD_BYTES


def test_retire_wire_size_grows_with_tables():
    empty = Retire(cell=(0, 0), gateway_id=1)
    loaded = Retire(
        cell=(0, 0),
        gateway_id=1,
        rtab={i: ((0, 0), 0) for i in range(10)},
        htab={i: True for i in range(10)},
    )
    assert loaded.wire_bytes > empty.wire_bytes


def test_tables_transfer_wire_size_grows():
    small = TablesTransfer(cell=(0, 0))
    big = TablesTransfer(cell=(0, 0), rtab={i: ((0, 0), 0) for i in range(20)})
    assert big.wire_bytes > small.wire_bytes


def test_data_envelope_wire_size_includes_payload():
    p = DataPacket(src=1, dst=2)
    env = DataEnvelope(packet=p, from_cell=(1, 1))
    assert env.wire_bytes == 8 + 512 + LINK_OVERHEAD_BYTES


def test_rreq_region_and_origin():
    from repro.geo.region import Rect
    r = Rreq(src=1, dst=2, rreq_id=9, region=Rect(0, 0, 5, 5),
             origin_cell=(1, 1), from_cell=(1, 1))
    assert r.region.contains((3, 3))
    assert "1->2" in r.describe()


def test_describe_helpers():
    assert "RETIRE" in Retire(cell=(1, 1), gateway_id=3).describe()
    assert "RREP" in Rrep(src=1, dst=2).describe()
    assert "ENV" in DataEnvelope(packet=DataPacket(src=1, dst=2)).describe()


def test_every_message_type_has_a_dispatch_entry():
    """Dispatch is by exact type with no fallback: a message class
    missing from a protocol's table would be dropped silently."""
    import inspect

    from repro.core import messages
    from repro.core.base import GridProtocolBase
    from repro.core.protocol import EcGridProtocol
    from repro.net.packet import Message
    from repro.protocols.gaf import GafDiscovery, GafProtocol
    from repro.protocols.grid import GridProtocol

    defined = {
        cls for _, cls in inspect.getmembers(messages, inspect.isclass)
        if issubclass(cls, Message) and cls.__module__ == messages.__name__
    }
    assert Hello in defined and DataEnvelope in defined
    assert defined <= set(GridProtocolBase._dispatch)
    assert GafDiscovery in GafProtocol._dispatch
    for proto in (GridProtocol, EcGridProtocol, GafProtocol):
        for name, _ in proto._dispatch.values():
            assert callable(getattr(proto, name)), (proto.__name__, name)
