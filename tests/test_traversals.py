"""The rules of the graph layer's traversals, each against an oracle here.

Small multigraphs with self-loops and with parallel edges stored in both
orientations:

* ``bfs_walk`` follows the BFS vertex path (neighbours scanned in
  ascending order, first discovery wins) and takes the lowest-id edge per
  hop, traversed in the right direction;
* ``dijkstra_walk`` is a valid walk whose weight is the optimum;
* ``lip_sp`` at a zero optimum returns the BFS walk over the zero-weight
  edges;
* a directed contraction's ``edge_map`` and ``multiset_to_original``
  translate a path of G/a back to G.
"""

from collections import Counter, deque

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from lipgraph.exact import dijkstra_walk
from lipgraph.graphs import DirectedGraph, Walk, WeightedMultigraph, bfs_walk, contract_directed
from lipgraph.lip_sp import lip_sp, lip_sp_run
from lipgraph.rng import RandomStream


@st.composite
def multigraphs(draw):
    """A multigraph whose first edges are repeated reversed, plus two ends."""
    n = draw(st.integers(2, 6))
    vertex = st.integers(0, n - 1)
    edges = draw(st.lists(st.tuples(vertex, vertex), min_size=1, max_size=10))
    k = draw(st.integers(0, len(edges)))
    edges += [(v, u) for u, v in edges[:k]]
    return WeightedMultigraph(n, tuple(edges)), draw(vertex), draw(vertex)


def oracle_bfs_walk(g, s, t, usable=None):
    """BFS from s over the usable non-loop edges; None if t is unreachable."""
    usable = range(g.m) if usable is None else usable
    nbrs = {x: set() for x in range(g.n)}
    for e in usable:
        u, v = g.edges[e]
        if u != v:
            nbrs[u].add(v)
            nbrs[v].add(u)
    parent = {s: None}
    queue = deque([s])
    while queue:
        u = queue.popleft()
        for v in sorted(nbrs[u]):
            if v not in parent:
                parent[v] = u
                queue.append(v)
    if t not in parent:
        return None
    path = [t]
    while path[-1] != s:
        path.append(parent[path[-1]])
    path.reverse()
    steps = []
    for a, b in zip(path, path[1:]):
        e = min(e for e in usable if set(g.edges[e]) == {a, b})
        steps.append((e, 1 if g.edges[e] == (a, b) else -1))
    return Walk(s, t, tuple(steps))


def oracle_distances(g, w, s):
    """Bellman-Ford distances from s."""
    dist = [np.inf] * g.n
    dist[s] = 0.0
    for _ in range(g.n):
        for e, (u, v) in enumerate(g.edges):
            dist[v] = min(dist[v], dist[u] + w[e])
            dist[u] = min(dist[u], dist[v] + w[e])
    return dist


@settings(max_examples=200, deadline=None)
@given(multigraphs())
def test_bfs_walk_takes_lowest_id_edge_per_hop(case):
    g, s, t = case
    assert bfs_walk(g, s, t) == oracle_bfs_walk(g, s, t)


@settings(max_examples=200, deadline=None)
@given(multigraphs(), st.data())
def test_dijkstra_walk_is_a_valid_optimal_walk(case, data):
    g, s, t = case
    w = np.array(data.draw(st.lists(st.integers(0, 4), min_size=g.m, max_size=g.m)), dtype=float)
    opt = oracle_distances(g, w, s)[t]
    walk = dijkstra_walk(g, w, s, t)
    if opt == np.inf:
        assert walk is None
        return
    walk.validate(g)
    assert walk.weighted_length(w) == opt


@settings(max_examples=150, deadline=None)
@given(multigraphs(), st.data())
def test_zero_optimum_walk_is_bfs_over_zero_weight_edges(case, data):
    g, s, t = case
    w = np.array(data.draw(st.lists(st.sampled_from([0.0, 1.0]), min_size=g.m, max_size=g.m)))
    if s == t or oracle_distances(g, w, s)[t] != 0.0:
        return
    want = oracle_bfs_walk(g, s, t, usable=[e for e in range(g.m) if w[e] == 0])
    assert lip_sp(g, w, s, t, 0.5, RandomStream(1)) == want
    res = lip_sp_run(g, w, s, t, 0.5, RandomStream(1))
    assert res.zero_optimum and res.walk == want


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_contract_directed_translates_paths_back(data):
    n = data.draw(st.integers(2, 6))
    vertex = st.integers(0, n - 1)
    arcs = data.draw(st.lists(st.tuples(vertex, vertex), max_size=10))
    # a chain x -> n -> n+1 -> y through two fresh vertices, so at least one
    # arc is contractible, spliced into the arc list at a drawn place
    x, y, i = data.draw(vertex), data.draw(vertex), data.draw(st.integers(0, len(arcs)))
    g = DirectedGraph(n + 2, arcs[:i] + [(x, n), (n, n + 1), (n + 1, y)] + arcs[i:])
    contractible = [
        a
        for a, (u, v) in enumerate(g.arcs)
        if u != v and all(g.out_degree(z) == g.in_degree(z) == 1 for z in (u, v))
    ]
    a = data.draw(st.sampled_from(contractible))
    u, v = g.arcs[a]
    res = contract_directed(g, a)
    assert res.edge_map[a] == -1
    for old, new in enumerate(res.edge_map):
        if new >= 0:
            t, h = g.arcs[old]
            assert res.graph.arcs[new] == (res.vertex_map[t], res.vertex_map[h])
    p, q = data.draw(st.one_of(st.just((x, y)), st.tuples(vertex, vertex)))
    _, path = res.graph.shortest_path(res.vertex_map[p], res.vertex_map[q])
    if path is None or p in (u, v) or q in (u, v):
        return
    arcs = res.graph.arcs_for_vertex_path(path)
    original = res.multiset_to_original(Counter(arcs))
    assert sum(original.values()) == len(arcs) and a not in original
    # the original arcs in path order, with a inserted where the path
    # enters the merged vertex, form a walk of G from p to q
    inverse = {new: old for old, new in enumerate(res.edge_map) if new >= 0}
    steps = []
    for arc in arcs:
        old = inverse[arc]
        assert original[old] > 0
        steps.append(old)
        if g.arcs[old][1] == u:
            steps.append(a)
    Walk(p, q, tuple((e, 1) for e in steps)).validate(g)
