"""Gadget reduction: rounding, structure, coupled trichotomy, approximation."""

import numpy as np
import pytest

from lipgraph.contraction_sp import RecTrace, sp
from lipgraph.errors import BadParams, MalformedWalk, Unreachable
from lipgraph.exact import dijkstra
from lipgraph.graphs import Walk, WeightedMultigraph, contract_directed
from lipgraph.harness import gen_instance
from lipgraph.lip_sp import (
    ImplicitGadget,
    build_gadget,
    build_gadget_from,
    coupled_lip_sp,
    coupled_rounding_st,
    inclusion_cap,
    lip_sp,
    lip_sp_run,
    map_walk_back,
    rounded_lengths,
)
from lipgraph.rng import RandomStream


def two_parallel(w1, w2):
    return WeightedMultigraph(2, ((0, 1), (0, 1))), np.array([w1, w2])


def test_rounding_rule_values():
    l, hat = rounded_lengths([1.0], 0.25, [0.0])
    assert l[0] == 4 and hat[0] == 6  # exact multiple, x=0: threshold 1 >= 0
    l, hat = rounded_lengths([1.1], 0.25, [0.99])
    # l=4, threshold=(5*0.25-1.1)/0.25=0.6 < 0.99 -> l+3
    assert l[0] == 4 and hat[0] == 7


def test_rounding_expected_value_tracks_weight():
    gen = np.random.default_rng(0)
    b = 0.2
    w = np.full(200_000, 1.37)
    x = gen.random(200_000)
    _, hat = rounded_lengths(w, b, x)
    assert np.mean(hat) * b == pytest.approx(1.37 + 2 * b, rel=1e-3)


def test_single_edge_gadget_counts():
    g = WeightedMultigraph(2, ((0, 1),))
    gadget = build_gadget(g, [1.0], 0, 1, 0.5, RandomStream(3))
    k = gadget.records[0].hat_w
    assert gadget.graph.n == 2 * (k - 1) + 2
    assert gadget.graph.m == 2 * k


def test_gadget_excludes_heavy_edges():
    # one edge 13x heavier than the optimum is always excluded
    g = WeightedMultigraph(2, ((0, 1), (0, 1)))
    w = np.array([1.0, 13.0])
    for seed in range(200):
        gadget = build_gadget(g, w, 0, 1, 0.5, RandomStream(seed))
        assert gadget.records[0].included
        assert not gadget.records[1].included
        assert gadget.records[1].hat_w > inclusion_cap(2, 0.5)


def test_gadget_chains_structurally_sound():
    gi = gen_instance("random-gnm", {"n": 5, "m": 7, "w_min": 1, "w_max": 3}, 8)
    gadget = build_gadget(gi.graph, gi.weights, 0, 4, 0.5, RandomStream(5))
    dg = gadget.graph
    for rec_ in gadget.records:
        if not rec_.included:
            assert rec_.forward_arcs == (0, 0)
            continue
        u, v = gi.graph.edges[rec_.edge]
        fs, fe = rec_.forward_arcs
        arcs = dg.arcs[fs:fe]
        assert arcs[0][0] == u and arcs[-1][1] == v
        for (a, b), (c, d) in zip(arcs, arcs[1:]):
            assert b == c
        bs, be = rec_.backward_arcs
        arcs = dg.arcs[bs:be]
        assert arcs[0][0] == v and arcs[-1][1] == u


def test_interior_gadget_arcs_are_contractible():
    g = WeightedMultigraph(2, ((0, 1),))
    gadget = build_gadget(g, [1.0], 0, 1, 0.5, RandomStream(1))
    fs, fe = gadget.records[0].forward_arcs
    # every arc except the first and last in a chain has degree-1 endpoints
    for a in range(fs + 1, fe - 1):
        res = contract_directed(gadget.graph, a)
        assert res.graph.n == gadget.graph.n - 1


def test_contracting_interior_arc_gives_shorter_gadget():
    g = WeightedMultigraph(2, ((0, 1),))
    w = np.array([1.0])
    eps = 0.5
    gadget = build_gadget(g, w, 0, 1, eps, RandomStream(1))
    k = gadget.records[0].hat_w
    fs, fe = gadget.records[0].forward_arcs
    res = contract_directed(gadget.graph, fs + 1)
    # same vertex/arc counts as a directly built k-1 gadget on one side
    assert res.graph.n == gadget.graph.n - 1
    assert res.graph.m == gadget.graph.m - 1
    assert res.graph.hop_dist_from(res.vertex_map[0])[res.vertex_map[1]] == k - 1


# --- coupled rounding --------------------------------------------------------


def test_coupled_rounding_trichotomy():
    gi = gen_instance("random-gnm", {"n": 5, "m": 7, "w_min": 1, "w_max": 3}, 2)
    g, w = gi.graph, gi.weights
    opt = dijkstra(g, w, 0)[0][4]
    eps = 0.5
    for seed in range(300):
        stream = RandomStream(seed)
        f = seed % g.m
        delta = (0.2 + 0.7 * stream.random("pick")) * eps * opt / (12 * g.n)
        cr = coupled_rounding_st(g, w, 0, 4, f, delta, eps, stream)
        if cr.b1 != cr.b2:
            continue
        for e in range(g.m):
            if e == f:
                expected = 1 if cr.x1[f] <= delta / cr.b1 else 0
                assert cr.hat2[f] - cr.hat1[f] == expected
            else:
                assert cr.hat1[e] == cr.hat2[e]


def test_coupled_rounding_case_probabilities():
    g, w = two_parallel(1.0, 1.2)
    eps = 0.5
    opt = 1.0
    delta = eps * opt / (12 * g.n) * 0.8
    n = 4000
    b_diff = 0
    path_flip = 0
    cap = inclusion_cap(g.n, eps)
    for seed in range(n):
        cr = coupled_rounding_st(g, w, 0, 1, 0, delta, eps, RandomStream(seed))
        if cr.b1 != cr.b2:
            b_diff += 1
            continue
        if (cr.hat1[0] <= cap) != (cr.hat2[0] <= cap):
            path_flip += 1
    p_neq_bound = 2 * delta / (eps * opt)
    p_path_bound = 6 * delta / opt
    sig1 = np.sqrt(p_neq_bound / n)
    sig2 = np.sqrt(p_path_bound / n)
    assert b_diff / n <= p_neq_bound + 3 * sig1
    assert path_flip / n <= p_path_bound + 3 * sig2


def test_coupled_rounding_rejects_large_delta():
    g, w = two_parallel(1.0, 2.0)
    with pytest.raises(BadParams):
        coupled_rounding_st(g, w, 0, 1, 0, 1.0, 0.5, RandomStream(0))


# --- full algorithm ----------------------------------------------------------


def test_lip_sp_two_parallel_always_light():
    g, w = two_parallel(1.0, 2.0)
    for seed in range(300):
        walk = lip_sp(g, w, 0, 1, 0.5, RandomStream(seed))
        walk.validate(g)
        # a weight-2 walk would break the 1.5-approximation
        assert walk.multiset == {0: 1}


def test_lip_sp_per_sample_guarantee():
    for gseed in range(10):
        gi = gen_instance("random-gnm", {"n": 6, "m": 8, "w_min": 1, "w_max": 3}, gseed)
        g, w = gi.graph, gi.weights
        dist = dijkstra(g, w, 0)[0]
        t = int(np.argmax(dist))
        opt = dist[t]
        for eps in (0.25, 0.5):
            for seed in range(30):
                walk = lip_sp(g, w, 0, t, eps, RandomStream(seed))
                walk.validate(g)
                assert walk.weighted_length(w) <= (1 + eps) * opt + 1e-9


def test_lip_sp_zero_optimum_returns_zero_walk():
    g = WeightedMultigraph(4, ((0, 1), (1, 2), (2, 3), (0, 3)))
    w = np.array([0.0, 0.0, 0.0, 5.0])
    res = lip_sp_run(g, w, 0, 3, 0.5, RandomStream(0))
    assert res.zero_optimum
    res.walk.validate(g)
    assert res.walk.weighted_length(w) == 0.0


def test_lip_sp_unreachable():
    g = WeightedMultigraph(4, ((0, 1), (2, 3)))
    with pytest.raises(Unreachable):
        lip_sp(g, [1.0, 1.0], 0, 3, 0.5, RandomStream(0))


def test_gadget_walk_maps_back_to_valid_weighted_walk():
    gi = gen_instance("random-gnm", {"n": 5, "m": 7, "w_min": 1, "w_max": 2}, 9)
    g, w = gi.graph, gi.weights
    for seed in range(40):
        res = lip_sp_run(g, w, 0, 4, 0.5, RandomStream(seed))
        res.walk.validate(g)
        res.gadget_walk.validate(res.gadget.graph)
        # gadget arc count times b bounds the weighted length
        assert res.walk.weighted_length(w) <= len(res.gadget_walk) * res.gadget.b + 1e-9


def test_map_walk_back_multiplicity_two():
    g = WeightedMultigraph(2, ((0, 1),))
    gadget = build_gadget(g, [1.0], 0, 1, 0.5, RandomStream(2))
    fs, fe = gadget.records[0].forward_arcs
    bs, be = gadget.records[0].backward_arcs
    steps = tuple((a, 1) for a in range(fs, fe)) + tuple((a, 1) for a in range(bs, be))
    walk = Walk(0, 0, steps)
    back = map_walk_back(gadget, walk)
    assert back.multiset == {0: 2}
    assert back.steps == ((0, 1), (0, -1))


def test_map_walk_back_rejects_partial_chain():
    g = WeightedMultigraph(2, ((0, 1),))
    gadget = build_gadget(g, [1.0], 0, 1, 0.5, RandomStream(2))
    fs, fe = gadget.records[0].forward_arcs
    with pytest.raises(MalformedWalk):
        map_walk_back(gadget, Walk(0, 1, tuple((a, 1) for a in range(fs + 1, fe))))


def test_coupled_lip_sp_walks_valid_and_close():
    gi = gen_instance("random-gnm", {"n": 5, "m": 7, "w_min": 1, "w_max": 2}, 4)
    g, w = gi.graph, gi.weights
    opt = dijkstra(g, w, 0)[0][4]
    eps = 0.5
    delta = 0.5 * eps * opt / (12 * g.n)
    same = 0
    for seed in range(200):
        w1, w2 = coupled_lip_sp(g, w, 0, 4, 1, delta, eps, RandomStream(seed))
        w1.validate(g)
        w2.validate(g)
        same += w1.multiset == w2.multiset
    assert same >= 190  # tiny perturbation rarely changes the walk


# --- implicit gadget against the explicit reference ---------------------------


def _gadget_pair(g, w, s, t, eps, stream):
    """Explicit and implicit gadget at the draws lip_sp takes from stream."""
    gadget = build_gadget(g, w, s, t, eps, stream)
    hat = np.array([r.hat_w for r in gadget.records])
    implicit = ImplicitGadget(g, hat, inclusion_cap(g.n, eps))
    assert implicit.n == gadget.graph.n
    return gadget, implicit


def _arc_ids(gadget, implicit, walk):
    """Gadget arc ids of an implicit walk's chain segments."""
    ids = []
    for c, a, z in walk.steps:
        rec_ = gadget.records[implicit.edge[c]]
        start = (rec_.forward_arcs if implicit.direction[c] > 0 else rec_.backward_arcs)[0]
        ids.extend(range(start + a, start + z))
    return ids


def _far_pair(gi):
    dist = dijkstra(gi.graph, gi.weights, 0)[0]
    return 0, int(np.argmax(dist))


def test_implicit_matches_explicit_on_small_graphs():
    # the criterion-06 instance family: n = 4-5, m = n+1, weights in [1, 2]
    for gidx in range(20):
        n = 4 + gidx % 2
        gi = gen_instance("random-gnm", {"n": n, "m": n + 1, "w_min": 1, "w_max": 2}, 7000 + gidx)
        s, t = _far_pair(gi)
        for eps in (0.25, 0.5):
            for seed in range(20):
                stream = RandomStream(seed).sub(gidx)
                assert lip_sp(gi.graph, gi.weights, s, t, eps, stream) == lip_sp_run(
                    gi.graph, gi.weights, s, t, eps, stream
                ).walk


def test_implicit_matches_explicit_on_n50_graphs():
    for gseed in range(3):
        gi = gen_instance("random-gnm", {"n": 50, "m": 150, "w_min": 1, "w_max": 9}, gseed)
        s, t = _far_pair(gi)
        for seed in range(2):
            stream = RandomStream(seed)
            walk = lip_sp(gi.graph, gi.weights, s, t, 0.25, stream)
            assert walk == lip_sp_run(gi.graph, gi.weights, s, t, 0.25, stream).walk


def _trace_rows(trace):
    return [(c.path, c.source, c.target, c.opt, c.depth, c.base_case, c.pivot) for c in trace.calls]


def test_implicit_matches_explicit_in_recursion_regime():
    eps = 0.5
    deep = 0
    for gseed in range(8):
        n = 5 + gseed % 4
        gi = gen_instance("random-gnm", {"n": n, "m": n + 3, "w_min": 1, "w_max": 3}, gseed)
        g, w = gi.graph, gi.weights
        s, t = _far_pair(gi)
        for seed in range(6):
            gadget, implicit = _gadget_pair(g, w, s, t, eps, RandomStream(seed))
            assert gadget.graph.hop_dist_from(s)[t] >= 60  # far above 1/gamma = 10
            traces = RecTrace(), RecTrace()
            explicit = sp(gadget.graph, s, t, eps / 4, RandomStream(seed), gamma_override=0.1, trace=traces[0])
            walk = sp(implicit, s, t, eps / 4, RandomStream(seed), gamma_override=0.1, trace=traces[1])
            assert _arc_ids(gadget, implicit, walk) == [a for a, _ in explicit.steps]
            assert implicit.edge_walk(walk) == map_walk_back(gadget, explicit)
            assert _trace_rows(traces[1]) == _trace_rows(traces[0])
            assert traces[0].max_depth >= 3
            deep += any(c.pivot >= g.n for c in traces[0].calls)
    assert deep  # some pivots are chain-interior vertices


def test_implicit_coupled_pairs_match_explicit():
    gi = gen_instance("random-gnm", {"n": 5, "m": 7, "w_min": 1, "w_max": 2}, 4)
    g, w = gi.graph, gi.weights
    eps = 0.5
    delta = 0.5 * eps * dijkstra(g, w, 0)[0][4] / (12 * g.n)
    w2 = w.copy()
    w2[1] += delta
    for seed in range(40):
        stream = RandomStream(seed)
        cr = coupled_rounding_st(g, w, 0, 4, 1, delta, eps, stream)
        expected = []
        for weights, b, x in ((w, cr.b1, cr.x1), (w2, cr.b2, cr.x2)):
            gadget = build_gadget_from(g, weights, eps, b, x)
            expected.append(map_walk_back(gadget, sp(gadget.graph, 0, 4, eps / 4, stream)))
        assert coupled_lip_sp(g, w, 0, 4, 1, delta, eps, stream) == tuple(expected)


def test_implicit_distances_from_and_to_interior_vertices():
    gi = gen_instance("random-gnm", {"n": 5, "m": 7, "w_min": 1, "w_max": 2}, 3)
    gadget, implicit = _gadget_pair(gi.graph, gi.weights, 0, 4, 0.5, RandomStream(1))
    dg = gadget.graph
    picks = [0, 3, gi.graph.n, gi.graph.n + 5, dg.n // 2, dg.n - 1]
    for v in picks:
        ds, dt = implicit.dist_from(v), implicit.dist_to(v)
        assert [ds[x] for x in range(dg.n)] == dg.hop_dist_from(v).tolist()
        assert [dt[x] for x in range(dg.n)] == dg.hop_dist_to(v).tolist()
    for s in picks:
        for t in picks:
            if s == t:
                continue
            walk = implicit.base_walk(s, t)
            _, path = dg.shortest_path(s, t)
            assert _arc_ids(gadget, implicit, walk) == dg.arcs_for_vertex_path(path)


def test_implicit_edge_walk_rejects_partial_chain():
    g = WeightedMultigraph(2, ((0, 1),))
    implicit = ImplicitGadget(g, np.array([5]), inclusion_cap(2, 0.5))
    assert implicit.edge_walk(Walk(0, 1, ((0, 0, 2), (0, 2, 5)))).steps == ((0, 1),)
    with pytest.raises(MalformedWalk):
        implicit.edge_walk(Walk(0, 1, ((0, 1, 5),)))
