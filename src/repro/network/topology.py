"""Topology builders for the P2P substrate.

The 2012 Bitcoin network connected each node to 8 outbound peers chosen
roughly at random; :func:`random_topology` reproduces that degree
profile.
"""

from __future__ import annotations

import random

import networkx as nx

from .node import P2PNetwork


def random_topology(
    n_nodes: int,
    *,
    degree: int = 8,
    n_miners: int = 4,
    seed: int = 0,
    latency_range: tuple[float, float] = (0.02, 0.35),
) -> P2PNetwork:
    """A connected random graph with ~``degree`` links per node."""
    if n_nodes < 2:
        raise ValueError("need at least two nodes")
    network = P2PNetwork(seed=seed)
    rng = random.Random(f"topology/{seed}")
    miner_ids = set(rng.sample(range(n_nodes), min(n_miners, n_nodes)))
    for i in range(n_nodes):
        network.add_node(miner=i in miner_ids)
    graph = nx.random_regular_graph(min(degree, n_nodes - 1), n_nodes, seed=seed)
    if not nx.is_connected(graph):
        components = list(nx.connected_components(graph))
        for a, b in zip(components, components[1:]):
            graph.add_edge(next(iter(a)), next(iter(b)))
    for a, b in graph.edges():
        network.link(a, b, latency=rng.uniform(*latency_range))
    return network


