"""Seeded O(n + m) input generators for the benchmark's workloads.

Every generator takes the workload seed and writes a plain ``u v`` edge
list, which the program under test reads with ``load_snap_edgelist``.
Background edges are drawn by geometric skip sampling (Batagelj and
Brandes, 2005), so a sparse G(n, p) costs O(n + m) coin flips instead of
the n²/2 of a pairwise loop.  The output depends only on the seed.
"""

from __future__ import annotations

import math
import random
from typing import Iterable, List, Set, Tuple

Edge = Tuple[int, int]

#: planted-find: the paper's Theorem 2.1 instance.  An ε³-near clique D on
#: ids 0..|D|-1, |D| = δn with δ = 0.3, in a G(n, 0.01) background; the
#: algorithm runs with ε = 0.2.
PLANTED_N = 2000
PLANTED_DELTA = 0.3
PLANTED_SIZE = int(round(PLANTED_DELTA * PLANTED_N))
PLANTED_DEFECT = 0.2 ** 3
PLANTED_BACKGROUND_P = 0.01

#: web-find: three ~400-node communities with defect 0.05 in a sparse
#: background.
WEB_N = 10000
WEB_COMMUNITY_SIZES = (400, 398, 396)
WEB_DEFECT = 0.05
WEB_BACKGROUND_P = 0.004

#: service-updates: disjoint dense blocks on contiguous id ranges.
SERVICE_BLOCKS = 50
SERVICE_BLOCK_SIZE = 80
SERVICE_P_IN = 0.9


def gnp_edges(nodes: List[int], p: float, rng: random.Random) -> List[Edge]:
    """G(len(nodes), p) over *nodes*, by geometric skip sampling."""
    if not 0.0 < p < 1.0:
        raise ValueError("p must lie in (0, 1)")
    edges: List[Edge] = []
    n = len(nodes)
    log_q = math.log(1.0 - p)
    v, w = 1, -1
    while v < n:
        w += 1 + int(math.log(1.0 - rng.random()) / log_q)
        while w >= v and v < n:
            w -= v
            v += 1
        if v < n:
            edges.append((nodes[w], nodes[v]))
    return edges


def near_clique_edges(members: List[int], defect: float, rng: random.Random) -> List[Edge]:
    """A clique on *members* minus a uniform ``defect`` share of its pairs.

    Removes ``int(defect · pairs · 0.999)`` pairs, as
    ``repro.graphs.generators.planted_near_clique`` does, so the defect
    never exceeds *defect*.
    """
    k = len(members)
    total = k * (k - 1) // 2
    dropped = set(rng.sample(range(total), int(defect * total * 0.999)))
    edges: List[Edge] = []
    index = 0
    for i in range(k):
        for j in range(i + 1, k):
            if index not in dropped:
                edges.append((members[i], members[j]))
            index += 1
    return edges


def write_edges(path: str, edges: Iterable[Edge]) -> int:
    """Write the deduplicated, sorted edge set; return the edge count."""
    unique: Set[Edge] = {(min(u, v), max(u, v)) for u, v in edges}
    with open(path, "w", encoding="utf-8") as handle:
        handle.writelines("%d %d\n" % edge for edge in sorted(unique))
    return len(unique)


def planted(seed: int, path: str) -> int:
    rng = random.Random(seed)
    edges = near_clique_edges(list(range(PLANTED_SIZE)), PLANTED_DEFECT, rng)
    edges += gnp_edges(list(range(PLANTED_N)), PLANTED_BACKGROUND_P, rng)
    return write_edges(path, edges)


def web(seed: int, path: str) -> int:
    rng = random.Random(seed)
    edges: List[Edge] = []
    start = 0
    for size in WEB_COMMUNITY_SIZES:
        edges += near_clique_edges(list(range(start, start + size)), WEB_DEFECT, rng)
        start += size
    edges += gnp_edges(list(range(WEB_N)), WEB_BACKGROUND_P, rng)
    return write_edges(path, edges)


def service_blocks(seed: int, path: str) -> int:
    rng = random.Random(seed)
    edges: List[Edge] = []
    for block in range(SERVICE_BLOCKS):
        start = block * SERVICE_BLOCK_SIZE
        edges += gnp_edges(list(range(start, start + SERVICE_BLOCK_SIZE)), SERVICE_P_IN, rng)
    return write_edges(path, edges)
