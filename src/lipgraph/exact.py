"""Exact baseline solvers used as oracles by the randomized algorithms."""

from __future__ import annotations

import heapq

from .errors import DisconnectedGraph, TooLarge
from .graphs import Matching, SpanningTree, Walk, WeightedMultigraph, check_vertex, check_weights, walk_back

_INF = float("inf")
_MAX_EDGES = 24  # exact_max_weight_matching's brute-force limit


def bfs_dist(g, s: int):
    """Hop counts from s (inf for unreachable); works on either graph type."""
    dist = g.hop_dist(s) if isinstance(g, WeightedMultigraph) else g.hop_dist_from(s)
    return [float(d) for d in dist]


def dijkstra(g: WeightedMultigraph, w, s: int) -> tuple[list, list]:
    """Exact weighted shortest distances from s plus predecessor edges.

    Returns (dist, pred_edge) where pred_edge[v] is the edge id used to
    reach v in the shortest-path tree (-1 at s and unreachable vertices).
    Ties resolve toward the lexicographically smaller (dist, vertex) pop.
    """
    return _dijkstra(g.adjacency, check_weights(g, w), check_vertex(g, s))


def _dijkstra(adj, w, s, start=0.0):
    """(dist, pred) over adjacency lists of (neighbor, id) pairs, where the
    id has length w[id] and s starts at ``start``; pred[v] is the id that
    reaches v, -1 at s and at unreachable vertices."""
    dist = [_INF] * len(adj)
    pred = [-1] * len(adj)
    dist[s] = start
    heap = [(start, s)]
    while heap:
        d, u = heapq.heappop(heap)
        if d > dist[u]:
            continue
        for v, e in adj[u]:
            nd = d + w[e]
            if nd < dist[v]:
                dist[v] = nd
                pred[v] = e
                heapq.heappush(heap, (nd, v))
    return dist, pred


def dijkstra_walk(g: WeightedMultigraph, w, s: int, t: int) -> Walk | None:
    """A minimum-weight s-t walk from the dijkstra tree, or None."""
    t = check_vertex(g, t)
    dist, pred = dijkstra(g, w, s)
    return walk_back(g, s, t, pred) if dist[t] < _INF else None


def kruskal_mst(g: WeightedMultigraph, w) -> SpanningTree:
    """Minimum spanning tree; ties broken by ascending edge id."""
    return _kruskal(g, check_weights(g, w))


def _kruskal(g, w):
    order = sorted(range(g.m), key=lambda e: (w[e], e))
    parent = list(range(g.n))

    def find(x):
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    chosen = []
    for e in order:
        u, v = g.edges[e]
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
            chosen.append(e)
            if len(chosen) == g.n - 1:
                break
    if len(chosen) != g.n - 1:
        raise DisconnectedGraph("graph has no spanning tree")
    return SpanningTree(chosen)


def exact_max_weight_matching(g: WeightedMultigraph, w) -> tuple[Matching, float]:
    """Maximum-weight matching by branch and bound over edges.

    Limited to m <= 24.  Deterministic: edges are branched in ascending id
    order with include-before-exclude, and the incumbent is only replaced
    on strict improvement, so among ties the first (lexicographically
    earliest) matching found is kept.
    """
    w = check_weights(g, w)
    if g.m > _MAX_EDGES:
        raise TooLarge(f"m={g.m} exceeds brute-force limit {_MAX_EDGES}")
    usable = [e for e in range(g.m) if not g.is_self_loop(e)]
    suffix = [0.0] * (len(usable) + 1)
    for i in range(len(usable) - 1, -1, -1):
        suffix[i] = suffix[i + 1] + w[usable[i]]

    best_value = -1.0
    best_set: tuple = ()
    used = [False] * g.n
    current: list[int] = []

    def rec(i: int, value: float):
        nonlocal best_value, best_set
        if value + suffix[i] <= best_value:
            return
        if i == len(usable):
            if value > best_value:
                best_value = value
                best_set = tuple(current)
            return
        e = usable[i]
        u, v = g.edges[e]
        if not used[u] and not used[v]:
            used[u] = used[v] = True
            current.append(e)
            rec(i + 1, value + w[e])
            current.pop()
            used[u] = used[v] = False
        rec(i + 1, value)

    rec(0, 0.0)
    return Matching(best_set), float(best_value)


def hungarian_bipartite(weights) -> tuple[list, float]:
    """Exact maximum-weight (not necessarily perfect) bipartite matching.

    Input is a dense nU x nV weight matrix with nonnegative entries.
    Returns (pairs, value) where pairs is a list of (row, col) with
    positive weight.
    """
    return _hungarian(check_weights(None, weights))


def _hungarian(weights):
    from scipy.optimize import linear_sum_assignment

    if weights.size == 0:
        return [], 0.0
    rows, cols = linear_sum_assignment(weights, maximize=True)
    pairs = [(int(i), int(j)) for i, j in zip(rows, cols) if weights[i, j] > 0]
    value = float(sum(weights[i, j] for i, j in pairs))
    return pairs, value
