"""P2P network substrate: the Figure 1 dissemination path.

Event-driven gossip simulation — transaction broadcast, flood relay,
mining, block relay — used to study confirmation latency and to ground
the economy's assumption that submitted transactions reach the next
block.
"""

from .node import Message, MinerNode, Node, P2PNetwork, PropagationLog
from .simulator import EventScheduler
from .topology import random_topology

__all__ = [
    "EventScheduler",
    "Message",
    "MinerNode",
    "Node",
    "P2PNetwork",
    "PropagationLog",
    "random_topology",
]
