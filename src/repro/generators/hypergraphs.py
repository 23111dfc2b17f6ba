"""Rank-3 hypergraph workload generators.

The rank-3 fixer operates on instances whose variable hypergraph has
hyperedges of size up to 3.  These generators produce 3-uniform
hypergraphs (as lists of node triples) with controlled per-node degree,
which controls the dependency-graph degree of the derived LLL instances
(a node in ``t`` triples has dependency degree at most ``2t``).
"""

from __future__ import annotations

import random
from bisect import bisect_left
from typing import List, Sequence, Tuple

from repro.errors import ReproError

Triple = Tuple[int, int, int]


def partition_rounds_triples(
    num_nodes: int, rounds: int, seed: int
) -> List[Triple]:
    """``rounds`` random partitions of the nodes into triples.

    Every node appears in exactly ``rounds`` triples, so the derived LLL
    instance is degree-regular: dependency degree at most ``2 * rounds``.
    Requires ``num_nodes`` divisible by 3.  Repeated triples across rounds
    are re-drawn (a handful of retries suffices for the sizes we use).
    """
    if num_nodes % 3 != 0:
        raise ReproError("num_nodes must be divisible by 3")
    if num_nodes < 3:
        raise ReproError("need at least 3 nodes")
    rng = random.Random(seed)
    seen = set()
    triples: List[Triple] = []
    for _ in range(rounds):
        for _attempt in range(100):
            nodes = list(range(num_nodes))
            rng.shuffle(nodes)
            candidate = [
                tuple(sorted(nodes[i : i + 3])) for i in range(0, num_nodes, 3)
            ]
            if all(triple not in seen for triple in candidate):
                break
        else:
            raise ReproError(
                "could not draw a fresh partition after 100 attempts"
            )
        seen.update(candidate)
        triples.extend(candidate)
    return triples


def random_triples(
    num_nodes: int,
    num_triples: int,
    max_per_node: int,
    seed: int,
) -> List[Triple]:
    """Random distinct triples with at most ``max_per_node`` per node."""
    if num_nodes < 3:
        raise ReproError("need at least 3 nodes")
    rng = random.Random(seed)
    usage = [0] * num_nodes
    seen = set()
    triples: List[Triple] = []
    attempts = 0
    # The nodes with remaining capacity, in increasing order; a node
    # leaves when it fills up (``rng.sample`` reads the list's order).
    available = list(range(num_nodes)) if max_per_node > 0 else []
    while len(triples) < num_triples:
        attempts += 1
        if attempts > 1000 * num_triples:
            raise ReproError(
                f"could not place {num_triples} triples under the "
                f"max_per_node={max_per_node} constraint"
            )
        if len(available) < 3:
            raise ReproError(
                "fewer than 3 nodes have remaining capacity; lower "
                "num_triples or raise max_per_node"
            )
        triple = tuple(sorted(rng.sample(available, 3)))
        if triple in seen:
            continue
        seen.add(triple)
        triples.append(triple)
        for node in triple:
            usage[node] += 1
            if usage[node] == max_per_node:
                del available[bisect_left(available, node)]
    return triples


def cyclic_triples(num_nodes: int) -> List[Triple]:
    """The deterministic 'triangle chain': triples ``(i, i+1, i+2)`` mod n.

    Every node appears in exactly 3 triples (for ``num_nodes >= 5``),
    giving a sparse, structured rank-3 workload with dependency degree 4.
    """
    if num_nodes < 5:
        raise ReproError("need at least 5 nodes for distinct cyclic triples")
    return [
        tuple(sorted(((i) % num_nodes, (i + 1) % num_nodes, (i + 2) % num_nodes)))
        for i in range(num_nodes)
    ]


def triples_degree_profile(num_nodes: int, triples: Sequence[Triple]) -> dict:
    """Per-node triple counts (min/max/mean) of a triple family."""
    usage = [0] * num_nodes
    for triple in triples:
        for node in triple:
            usage[node] += 1
    return {
        "min": min(usage),
        "max": max(usage),
        "mean": sum(usage) / max(len(usage), 1),
    }
