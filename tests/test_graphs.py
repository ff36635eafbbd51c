import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lipgraph.errors import BadParams, InvalidEdge, NotContractible, SelfLoop
from lipgraph.graphs import (
    DirectedGraph,
    Matching,
    SpanningTree,
    Walk,
    WeightedMultigraph,
    bfs_walk,
    check_weights,
    contract_directed,
    contract_edge,
    read_bipartite,
    read_edge_list,
    write_edge_list,
)


def triangle():
    return WeightedMultigraph(3, ((0, 1), (1, 2), (0, 2)))


def test_edge_ids_are_positions():
    g = triangle()
    assert g.m == 3
    assert g.endpoints(1) == (1, 2)


def test_rejects_out_of_range_edges():
    with pytest.raises(BadParams):
        WeightedMultigraph(2, ((0, 2),))


def test_check_weights():
    g = triangle()
    w = check_weights(g, [1, 2, 3])
    assert w.dtype == float
    with pytest.raises(BadParams):
        check_weights(g, [1, 2])
    with pytest.raises(BadParams):
        check_weights(g, [1, -1, 3])
    with pytest.raises(BadParams):
        check_weights(g, [1, float("nan"), 3])


def test_bfs_tree_deterministic_and_distances():
    g = WeightedMultigraph(4, ((0, 1), (1, 2), (2, 3), (0, 3)))
    dist, pred_v, _ = g.bfs_tree(0)
    assert dist == [0, 1, 2, 1]
    # adjacency scanned sorted, so vertex 2 is found through 1
    assert pred_v[2] == 1


def test_walk_validation():
    g = triangle()
    walk = Walk(0, 2, ((0, 1), (1, 1)))
    walk.validate(g)
    assert walk.multiset == {0: 1, 1: 1}
    bad = Walk(0, 2, ((1, 1),))
    with pytest.raises(BadParams):
        bad.validate(g)
    with pytest.raises(BadParams):
        Walk(0, 2, ()).validate(g)


def test_walk_multiset_counts_repeats():
    g = WeightedMultigraph(2, ((0, 1),))
    walk = Walk(0, 0, ((0, 1), (0, -1)))
    walk.validate(g)
    assert walk.multiset == {0: 2}
    assert walk.weighted_length([2.5]) == 5.0


def test_bfs_walk_on_cycle():
    g = WeightedMultigraph(8, tuple((i, (i + 1) % 8) for i in range(8)))
    walk = bfs_walk(g, 0, 4)
    walk.validate(g)
    # antipode of an 8-cycle: 4 hops either way
    assert len(walk) == 4


def test_spanning_tree_validation():
    g = triangle()
    SpanningTree([0, 1]).validate(g)
    with pytest.raises(BadParams):
        SpanningTree([0]).validate(g)
    g2 = WeightedMultigraph(4, ((0, 1), (1, 2), (0, 2), (2, 3)))
    with pytest.raises(BadParams):
        SpanningTree([0, 1, 2]).validate(g2)  # cycle


def test_matching_validation():
    g = WeightedMultigraph(4, ((0, 1), (1, 2), (2, 3)))
    Matching([0, 2]).validate(g)
    with pytest.raises(BadParams):
        Matching([0, 1]).validate(g)


def test_contract_edge_triangle():
    g = triangle()
    res = contract_edge(g, 0)
    # two vertices joined by two parallel edges
    assert res.graph.n == 2
    assert res.graph.m == 2
    assert not res.loop_edges
    assert res.edge_map == (-1, 0, 1)


def test_contract_edge_path():
    g = WeightedMultigraph(3, ((0, 1), (1, 2)))
    res = contract_edge(g, 0)
    assert res.graph.n == 2
    assert res.graph.edges == ((1, 0),) or res.graph.edges == ((0, 1),)


def test_contract_edge_parallel_becomes_flagged_loop():
    g = WeightedMultigraph(2, ((0, 1), (0, 1)))
    res = contract_edge(g, 0)
    assert res.graph.n == 1
    assert res.loop_edges == frozenset({0})
    assert res.graph.edges[0] == (0, 0)


def test_contract_edge_rejects_self_loop():
    g = WeightedMultigraph(2, ((0, 0), (0, 1)))
    with pytest.raises(SelfLoop):
        contract_edge(g, 0)


@pytest.mark.parametrize("e", (4, 99, -1))
def test_contract_edge_rejects_out_of_range_edge(e):
    # -1 used to index the last edge and return a graph that kept it as a self-loop
    g = WeightedMultigraph(4, tuple((i, (i + 1) % 4) for i in range(4)))
    with pytest.raises(InvalidEdge):
        contract_edge(g, e)


def test_contract_cycle_shrinks():
    g = WeightedMultigraph(8, tuple((i, (i + 1) % 8) for i in range(8)))
    res = contract_edge(g, 3)
    assert res.graph.n == 7
    assert res.graph.m == 7
    # still a single cycle: every vertex has degree 2
    deg = [0] * 7
    for u, v in res.graph.edges:
        deg[u] += 1
        deg[v] += 1
    assert all(d == 2 for d in deg)


def test_contract_directed_path():
    g = DirectedGraph(4, [(0, 1), (1, 2), (2, 3)])
    res = contract_directed(g, 1)
    assert res.graph.n == 3
    assert res.graph.m == 2


def test_contract_directed_requires_degree_one():
    g = DirectedGraph(3, [(0, 1), (0, 2), (1, 2)])
    with pytest.raises(NotContractible):
        contract_directed(g, 0)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_contract_directed_preserves_reachability(data):
    n = data.draw(st.integers(3, 7))
    arcs = data.draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
            min_size=2,
            max_size=12,
        )
    )
    g = DirectedGraph(n, arcs)
    contractible = [
        a
        for a, (u, v) in enumerate(g.arcs)
        if u != v
        and g.out_degree(u) == g.in_degree(u) == 1
        and g.out_degree(v) == g.in_degree(v) == 1
    ]
    if not contractible:
        return
    a = contractible[0]
    res = contract_directed(g, a)
    survivors = [v for v in range(n) if v not in g.arcs[a]]
    for p in survivors:
        dist_before = g.hop_dist_from(p)
        dist_after = res.graph.hop_dist_from(res.vertex_map[p])
        for q in survivors:
            assert (dist_before[q] < np.inf) == (dist_after[res.vertex_map[q]] < np.inf)


def test_edge_list_round_trip():
    g = WeightedMultigraph(3, ((0, 1), (1, 2), (0, 2)))
    w = np.array([1.0, 2.5, 3.0])
    text = write_edge_list(g, w)
    g2, w2 = read_edge_list(text)
    assert g2.edges == g.edges
    assert np.array_equal(w2, w)


def test_read_edge_list_errors():
    with pytest.raises(BadParams):
        read_edge_list("")
    with pytest.raises(BadParams):
        read_edge_list("2 2\n0 1 1.0\n")


def test_read_bipartite():
    mat = read_bipartite("2 3\n1 2 3\n4 5 6\n")
    assert mat.shape == (2, 3)
    assert mat[1, 2] == 6.0
    with pytest.raises(BadParams):
        read_bipartite("2 3\n1 2\n4 5 6\n")


def test_directed_graph_array_construction():
    arr = np.array([[0, 1], [1, 2]])
    g = DirectedGraph(3, arr)
    assert g.arcs == ((0, 1), (1, 2))
    assert g == DirectedGraph(3, [(0, 1), (1, 2)])
    assert g.hop_dist_from(0)[2] == 2.0
    assert g.hop_dist_to(2)[0] == 2.0
    assert g.shortest_path(0, 2) == (2.0, [0, 1, 2])
    assert g.shortest_path(2, 0) == (float("inf"), None)


def test_directed_shortest_path_independent_of_cached_tables():
    # two copies of one gadget must give the same s-t path whether or not
    # the distance table from s was computed first
    from lipgraph.harness import gen_instance
    from lipgraph.lip_sp import build_gadget
    from lipgraph.rng import RandomStream

    differ = 0
    for gseed in range(48):
        gi = gen_instance("random-gnm", {"n": 5, "m": 6, "w_min": 1, "w_max": 2}, gseed)
        for k in range(5):
            gadget = build_gadget(gi.graph, gi.weights, 0, 4, 0.25, RandomStream(k))
            fresh = gadget.graph
            warm = DirectedGraph(fresh.n, fresh.arcs)
            warm.hop_dist_from(0)
            differ += fresh.shortest_path(0, 4) != warm.shortest_path(0, 4)
    assert differ == 0


def test_directed_shortest_path_takes_lowest_tight_arc():
    # both arcs into 3 are tight; arc 2 (from 1) has the lower id
    g = DirectedGraph(4, [(0, 2), (0, 1), (1, 3), (2, 3)])
    assert g.shortest_path(0, 3) == (2.0, [0, 1, 3])
    assert g.bfs_from(0)[1].tolist() == [-1, 1, 0, 2]
