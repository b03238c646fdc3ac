"""P2P nodes: inventory-based gossip relay and miners (Figure 1).

Reproduces the dissemination path the paper's Figure 1 narrates: a user
broadcasts a transaction to peers, it floods the network, a miner
incorporates it into a block, and the block floods back — at which point
the merchant considers itself paid.

The relay model is Bitcoin's in miniature: a node announces new
inventory to each peer after a per-link latency, and each item is
accepted only once (first-seen), so propagation takes the shape of a
breadth-first wave with random edge delays.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .simulator import EventScheduler


@dataclass(frozen=True, slots=True)
class Message:
    """A relayed inventory item (transaction or block)."""

    kind: str  # "tx" | "block"
    item_id: bytes
    payload: object = None


@dataclass
class PropagationLog:
    """First-arrival times of items at nodes."""

    first_seen: dict[tuple[bytes, int], float] = field(default_factory=dict)

    def record(self, item_id: bytes, node_id: int, time: float) -> None:
        key = (item_id, node_id)
        if key not in self.first_seen:
            self.first_seen[key] = time

    def arrival_times(self, item_id: bytes) -> list[float]:
        """Sorted first-arrival times of one item across nodes."""
        return sorted(
            t for (iid, _node), t in self.first_seen.items() if iid == item_id
        )

    def time_to_coverage(self, item_id: bytes, fraction: float, n_nodes: int) -> float | None:
        """Time at which ``fraction`` of nodes had the item (None if never)."""
        times = self.arrival_times(item_id)
        needed = int(n_nodes * fraction)
        if needed == 0 or len(times) < needed:
            return None
        origin = times[0]
        return times[needed - 1] - origin


class Node:
    """A relay node with first-seen inventory gossip."""

    def __init__(self, node_id: int, network: "P2PNetwork") -> None:
        self.node_id = node_id
        self.network = network
        self.peers: dict[int, float] = {}  # peer id -> latency seconds
        self.known: set[bytes] = set()
        self.mempool: dict[bytes, Message] = {}

    def connect(self, peer_id: int, latency: float) -> None:
        """Add a link to a peer with the given one-way latency."""
        if peer_id == self.node_id:
            raise ValueError("node cannot peer with itself")
        self.peers[peer_id] = latency

    def submit(self, message: Message) -> None:
        """Originate an item at this node (user broadcast, found block)."""
        self.receive(message)

    def receive(self, message: Message) -> None:
        """First-seen handling plus relay to peers."""
        if message.item_id in self.known:
            return
        self.known.add(message.item_id)
        self.network.log.record(
            message.item_id, self.node_id, self.network.scheduler.now
        )
        if message.kind == "tx":
            self.mempool[message.item_id] = message
        elif message.kind == "block":
            self.on_block(message)
        for peer_id, latency in self.peers.items():
            peer = self.network.nodes[peer_id]
            self.network.scheduler.schedule(
                latency, lambda p=peer, m=message: p.receive(m)
            )

    def on_block(self, message: Message) -> None:
        """Blocks confirm transactions: drop them from the mempool."""
        payload = message.payload
        if isinstance(payload, (list, tuple, set, frozenset)):
            for txid in payload:
                self.mempool.pop(txid, None)


class MinerNode(Node):
    """A node that assembles its mempool into blocks."""

    def __init__(self, node_id: int, network: "P2PNetwork") -> None:
        super().__init__(node_id, network)
        self.blocks_found = 0

    def find_block(self, block_id: bytes) -> list[bytes]:
        """'Solve' a block over the current mempool and broadcast it.

        Returns the txids included.  (Difficulty is outside the model;
        the caller schedules block discovery times.)
        """
        included = list(self.mempool)
        self.blocks_found += 1
        self.submit(Message(kind="block", item_id=block_id, payload=included))
        return included


class P2PNetwork:
    """A set of nodes plus the shared scheduler and propagation log."""

    def __init__(self, *, seed: int = 0) -> None:
        self.scheduler = EventScheduler()
        self.nodes: dict[int, Node] = {}
        self.log = PropagationLog()
        self.rng = random.Random(f"p2p/{seed}")

    def add_node(self, *, miner: bool = False) -> Node:
        """Create the next node (relay by default, miner on request)."""
        node_id = len(self.nodes)
        node = (MinerNode if miner else Node)(node_id, self)
        self.nodes[node_id] = node
        return node

    def link(self, a: int, b: int, *, latency: float | None = None) -> None:
        """Create a bidirectional link with symmetric latency."""
        if latency is None:
            latency = self.rng.uniform(0.01, 0.4)
        self.nodes[a].connect(b, latency)
        self.nodes[b].connect(a, latency)

    @property
    def node_count(self) -> int:
        return len(self.nodes)

    def miners(self) -> list[MinerNode]:
        """All miner nodes."""
        return [n for n in self.nodes.values() if isinstance(n, MinerNode)]

    def broadcast_tx(self, origin: int, txid: bytes) -> None:
        """A user at ``origin`` broadcasts a transaction."""
        self.nodes[origin].submit(Message(kind="tx", item_id=txid))

    def run(self, seconds: float) -> None:
        """Advance the simulation."""
        self.scheduler.run_until(self.scheduler.now + seconds)
