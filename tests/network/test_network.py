"""P2P gossip substrate: propagation, mining, topologies."""

import pytest

from repro.network.node import Message, P2PNetwork
from repro.network.simulator import EventScheduler
from repro.network.topology import random_topology


class TestScheduler:
    def test_events_run_in_time_order(self):
        scheduler = EventScheduler()
        seen = []
        scheduler.schedule(2.0, lambda: seen.append("late"))
        scheduler.schedule(1.0, lambda: seen.append("early"))
        scheduler.run_until(3.0)
        assert seen == ["early", "late"]
        assert scheduler.now == 3.0

    def test_ties_break_deterministically(self):
        scheduler = EventScheduler()
        seen = []
        scheduler.schedule(1.0, lambda: seen.append("first"))
        scheduler.schedule(1.0, lambda: seen.append("second"))
        scheduler.run_until(2.0)
        assert seen == ["first", "second"]

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            EventScheduler().schedule(-1, lambda: None)


class TestGossip:
    def _line_network(self):
        network = P2PNetwork(seed=1)
        for _ in range(4):
            network.add_node()
        network.link(0, 1, latency=0.1)
        network.link(1, 2, latency=0.1)
        network.link(2, 3, latency=0.1)
        return network

    def test_tx_floods_whole_network(self):
        network = self._line_network()
        network.broadcast_tx(0, b"tx-1")
        network.run(10)
        assert len(network.log.arrival_times(b"tx-1")) == 4
        times = network.log.arrival_times(b"tx-1")
        # Line topology: arrival times grow with distance.
        assert times == sorted(times)
        assert times[-1] == pytest.approx(0.3)

    def test_first_seen_prevents_loops(self):
        network = self._line_network()
        network.link(0, 3, latency=0.05)  # make a cycle
        network.broadcast_tx(0, b"tx-cycle")
        network.run(10)
        # Each node saw the item exactly once in the log.
        seen_nodes = [n for (iid, n) in network.log.first_seen if iid == b"tx-cycle"]
        assert sorted(seen_nodes) == [0, 1, 2, 3]

    def test_self_link_rejected(self):
        network = self._line_network()
        with pytest.raises(ValueError):
            network.nodes[0].connect(0, 0.1)


class TestMining:
    def test_block_confirms_mempool_txs(self):
        network = P2PNetwork(seed=2)
        network.add_node()               # 0: user
        miner = network.add_node(miner=True)  # 1
        network.link(0, 1, latency=0.05)
        network.broadcast_tx(0, b"tx-a")
        network.run(1)
        assert b"tx-a" in miner.mempool
        included = miner.find_block(b"block-1")
        assert included == [b"tx-a"]
        network.run(1)
        # The block flooded back to the user, clearing their mempool.
        assert b"tx-a" not in network.nodes[0].mempool

    def test_time_to_coverage(self):
        network = P2PNetwork(seed=3)
        for _ in range(3):
            network.add_node()
        network.link(0, 1, latency=0.2)
        network.link(1, 2, latency=0.2)
        network.broadcast_tx(0, b"item")
        network.run(5)
        t50 = network.log.time_to_coverage(b"item", 0.5, 3)
        t100 = network.log.time_to_coverage(b"item", 1.0, 3)
        assert t50 is not None and t100 is not None
        assert t50 <= t100


class TestTopologies:
    def test_random_topology_connected(self):
        network = random_topology(30, degree=4, n_miners=3, seed=7)
        network.broadcast_tx(0, b"flood")
        network.run(30)
        assert len(network.log.arrival_times(b"flood")) == 30
        assert len(network.miners()) == 3

    def test_determinism(self):
        net_a = random_topology(20, seed=9)
        net_b = random_topology(20, seed=9)
        net_a.broadcast_tx(0, b"d")
        net_b.broadcast_tx(0, b"d")
        net_a.run(20)
        net_b.run(20)
        assert net_a.log.arrival_times(b"d") == net_b.log.arrival_times(b"d")

    def test_bad_sizes_rejected(self):
        with pytest.raises(ValueError):
            random_topology(1)
