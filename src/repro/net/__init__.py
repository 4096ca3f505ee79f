"""Network glue: packets, nodes, and scenario construction.

The packet types are a leaf that every layer imports, so ``Node``,
``Network`` and ``NetworkConfig`` resolve on first use (PEP 562):
importing a packet must not build the scenario layer, which imports
the protocol base class, which imports the packet types.
"""

from __future__ import annotations

import importlib
from typing import Any

from repro.net.packet import BROADCAST, DataPacket, Message

_EXPORTS = {
    "Node": "repro.net.node",
    "Network": "repro.net.network",
    "NetworkConfig": "repro.net.network",
}

__all__ = [
    "BROADCAST",
    "Message",
    "DataPacket",
    "Node",
    "Network",
    "NetworkConfig",
]


def __getattr__(name: str) -> Any:
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(module), name)
    globals()[name] = value
    return value


def __dir__() -> list:
    return sorted(set(globals()) | set(__all__))
