"""Exact solvers checked against independent enumeration oracles."""

from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lipgraph.errors import DisconnectedGraph, TooLarge
from lipgraph.exact import (
    bfs_dist,
    dijkstra,
    dijkstra_walk,
    exact_max_weight_matching,
    hungarian_bipartite,
    kruskal_mst,
)
from lipgraph.graphs import DirectedGraph, WeightedMultigraph

INF = float("inf")


# --- enumeration oracles -----------------------------------------------------


def enumerate_simple_paths(g, w, s, t):
    """All simple s-t paths with their weights, by DFS."""
    results = []

    def dfs(v, visited, weight):
        if v == t:
            results.append(weight)
            return
        for u, e in g.adjacency[v]:
            if u not in visited:
                dfs(u, visited | {u}, weight + w[e])

    dfs(s, {s}, 0.0)
    return results


def enumerate_spanning_trees(g, w):
    """All spanning trees as (weight, edge set), by brute force."""
    out = []
    for combo in combinations(range(g.m), g.n - 1):
        parent = list(range(g.n))

        def find(x):
            while parent[x] != x:
                x = parent[x]
            return x

        ok = True
        for e in combo:
            u, v = g.edges[e]
            ru, rv = find(u), find(v)
            if ru == rv:
                ok = False
                break
            parent[ru] = rv
        if ok and len({find(v) for v in range(g.n)}) == 1:
            out.append((sum(w[e] for e in combo), frozenset(combo)))
    return out


def enumerate_matchings(g, w):
    """All matchings as (weight, edge set)."""
    out = [(0.0, frozenset())]
    for r in range(1, g.m + 1):
        for combo in combinations(range(g.m), r):
            used = set()
            ok = True
            for e in combo:
                u, v = g.edges[e]
                if u == v or u in used or v in used:
                    ok = False
                    break
                used.update((u, v))
            if ok:
                out.append((sum(w[e] for e in combo), frozenset(combo)))
    return out


# --- bfs ---------------------------------------------------------------------


def test_bfs_line_graph():
    g = WeightedMultigraph(3, ((0, 1), (1, 2)))
    assert bfs_dist(g, 0) == [0, 1, 2]


def test_bfs_unreachable_is_inf():
    g = WeightedMultigraph(3, ((0, 1),))
    assert bfs_dist(g, 0)[2] == INF


def test_bfs_cycle_antipode():
    g = WeightedMultigraph(8, tuple((i, (i + 1) % 8) for i in range(8)))
    # frozen from hand enumeration of the 8-cycle
    assert bfs_dist(g, 0)[4] == 4


def test_bfs_directed():
    g = DirectedGraph(3, [(0, 1), (1, 2)])
    assert bfs_dist(g, 0) == [0, 1, 2]
    assert bfs_dist(g, 2) == [INF, INF, 0]


# --- dijkstra ----------------------------------------------------------------


def test_dijkstra_parallel_zero_edge():
    g = WeightedMultigraph(2, ((0, 1), (0, 1)))
    dist, _ = dijkstra(g, [0.0, 1.0], 0)
    assert dist[1] == 0.0


def test_dijkstra_all_zero():
    g = WeightedMultigraph(3, ((0, 1), (1, 2)))
    dist, _ = dijkstra(g, [0.0, 0.0], 0)
    assert dist == [0.0, 0.0, 0.0]


def test_dijkstra_4cycle_vs_enumeration():
    g = WeightedMultigraph(4, ((0, 1), (1, 2), (2, 3), (3, 0)))
    w = [1.0, 2.0, 3.0, 4.0]
    dist, _ = dijkstra(g, w, 0)
    for t in range(1, 4):
        assert dist[t] == min(enumerate_simple_paths(g, w, 0, t))


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_dijkstra_matches_enumeration_on_small_graphs(data):
    n = data.draw(st.integers(2, 6))
    m = data.draw(st.integers(1, 9))
    edges = tuple(
        (data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1)))
        for _ in range(m)
    )
    edges = tuple((u, v) for u, v in edges if u != v)
    if not edges:
        return
    g = WeightedMultigraph(n, edges)
    w = [data.draw(st.floats(0, 5, allow_nan=False)) for _ in edges]
    dist, _ = dijkstra(g, w, 0)
    for t in range(n):
        paths = enumerate_simple_paths(g, w, 0, t) if t else [0.0]
        expected = min(paths) if paths else INF
        assert dist[t] == pytest.approx(expected)


def test_dijkstra_walk_reconstruction():
    g = WeightedMultigraph(4, ((0, 1), (1, 2), (2, 3), (0, 3)))
    w = [1.0, 1.0, 1.0, 10.0]
    walk = dijkstra_walk(g, w, 0, 3)
    walk.validate(g)
    assert walk.weighted_length(w) == 3.0


# --- kruskal -----------------------------------------------------------------


def test_kruskal_triangle_vs_enumeration():
    g = WeightedMultigraph(3, ((0, 1), (1, 2), (0, 2)))
    w = [1.0, 2.0, 3.0]
    tree = kruskal_mst(g, w)
    best = min(enumerate_spanning_trees(g, w))
    assert tree.edges == best[1]
    assert tree.weight(w) == best[0] == 3.0


def test_kruskal_tie_break_by_edge_id():
    g = WeightedMultigraph(3, ((0, 1), (1, 2), (0, 2)))
    tree = kruskal_mst(g, [1.0, 1.0, 1.0])
    assert tree.edges == frozenset({0, 1})


def test_kruskal_star_is_forced():
    g = WeightedMultigraph(4, ((0, 1), (0, 2), (0, 3)))
    assert kruskal_mst(g, [5.0, 1.0, 2.0]).edges == frozenset({0, 1, 2})


def test_kruskal_disconnected_raises():
    g = WeightedMultigraph(4, ((0, 1), (2, 3)))
    with pytest.raises(DisconnectedGraph):
        kruskal_mst(g, [1.0, 1.0])


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000))
def test_kruskal_optimal_on_random_connected(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 6))
    extra = int(rng.integers(0, 4))
    edges = [(i, int(rng.integers(0, i))) for i in range(1, n)]
    for _ in range(extra):
        u, v = rng.integers(0, n, 2)
        if u != v:
            edges.append((int(u), int(v)))
    g = WeightedMultigraph(n, tuple(edges))
    w = rng.random(g.m)
    tree = kruskal_mst(g, w)
    tree.validate(g)
    assert tree.weight(w) == pytest.approx(min(enumerate_spanning_trees(g, w))[0])


def _kruskal_by_sorted_keys(g, w):
    """Kruskal scanning edges in sorted((w[e], e)) order: the tie rule that
    every sampler's output depends on."""
    comp = list(range(g.n))
    chosen = []
    for e in sorted(range(g.m), key=lambda e: (w[e], e)):
        u, v = g.edges[e]
        cu, cv = comp[u], comp[v]
        if cu != cv:
            comp = [cv if c == cu else c for c in comp]
            chosen.append(e)
    return frozenset(chosen)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_kruskal_scans_edges_in_weight_then_id_order(data):
    # few distinct weights, signed zeros and parallel edges make the scan
    # order visible in the chosen edge set
    n = data.draw(st.integers(2, 5))
    edges = [(i, data.draw(st.integers(0, i - 1))) for i in range(1, n)]
    edges += data.draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=8))
    data.draw(st.randoms(use_true_random=False)).shuffle(edges)
    g = WeightedMultigraph(n, tuple(edges))
    weight = st.sampled_from([0.0, -0.0, 0.5, 1.0, 2.0]) | st.floats(0, 3)
    w = np.array([data.draw(weight) for _ in edges])
    assert kruskal_mst(g, w).edges == _kruskal_by_sorted_keys(g, w)


# --- matching ----------------------------------------------------------------


def test_matching_single_edge():
    g = WeightedMultigraph(2, ((0, 1),))
    m, value = exact_max_weight_matching(g, [5.0])
    assert m.edges == frozenset({0}) and value == 5.0


def test_matching_path_131_vs_enumeration():
    g = WeightedMultigraph(4, ((0, 1), (1, 2), (2, 3)))
    w = [1.0, 3.0, 1.0]
    m, value = exact_max_weight_matching(g, w)
    assert value == max(enumerate_matchings(g, w))[0] == 3.0
    assert m.edges == frozenset({1})


def test_matching_parallel_zero_weight():
    g = WeightedMultigraph(2, ((0, 1), (0, 1)))
    m, value = exact_max_weight_matching(g, [1.0, 0.0])
    assert m.edges == frozenset({0}) and value == 1.0


def test_matching_too_large():
    g = WeightedMultigraph(30, tuple((i, i + 1) for i in range(25)))
    with pytest.raises(TooLarge):
        exact_max_weight_matching(g, [1.0] * 25)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000))
def test_matching_matches_enumeration(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 7))
    m = int(rng.integers(1, 8))
    edges = []
    for _ in range(m):
        u, v = rng.integers(0, n, 2)
        if u != v:
            edges.append((int(u), int(v)))
    if not edges:
        return
    g = WeightedMultigraph(n, tuple(edges))
    w = rng.random(g.m)
    _, value = exact_max_weight_matching(g, w)
    assert value == pytest.approx(max(enumerate_matchings(g, w))[0])


# --- hungarian ---------------------------------------------------------------


def test_hungarian_1x1():
    pairs, value = hungarian_bipartite([[3.5]])
    assert pairs == [(0, 0)] and value == 3.5


def test_hungarian_2x2_diagonal():
    pairs, value = hungarian_bipartite([[1.0, 0.0], [0.0, 1.0]])
    assert value == 2.0
    assert sorted(pairs) == [(0, 0), (1, 1)]


def test_hungarian_matches_bruteforce_4x5():
    rng = np.random.default_rng(7)
    mat = rng.random((4, 5))
    _, value = hungarian_bipartite(mat)
    # same instance as a multigraph for the brute-force oracle
    edges = tuple((i, 4 + j) for i in range(4) for j in range(5))
    g = WeightedMultigraph(9, edges)
    w = mat.ravel()
    _, brute = exact_max_weight_matching(g, w)
    assert value == pytest.approx(brute)
