"""Recursive pivot walk: validity, length bounds, pivot law, activity."""

import math

import numpy as np
import pytest
from scipy import stats

from lipgraph.contraction_sp import (
    sample_pivot,
    RecParams,
    RecTrace,
    is_active,
    opt_through,
    opt_through_edge,
    pivot_set,
    rec,
    sp,
)
from lipgraph.errors import BadParams, Unreachable
from lipgraph.graphs import DirectedGraph, WeightedMultigraph, contract_edge
from lipgraph.harness import gen_instance
from lipgraph.rng import RandomStream


def path_graph(k):
    return WeightedMultigraph(k + 1, tuple((i, i + 1) for i in range(k)))


def pendant_instance(length, mid, depth):
    """Path 0..length plus a pendant chain off vertex mid.

    The last pendant edge is far from every near-optimal 0-length walk,
    which makes calls on (0, length) inactive for it at moderate gamma.
    """
    edges = [(i, i + 1) for i in range(length)]
    prev = mid
    base = length + 1
    for d in range(depth):
        edges.append((prev, base + d))
        prev = base + d
    g = WeightedMultigraph(length + 1 + depth, tuple(edges))
    return g, g.m - 1  # id of the last pendant edge


def test_rec_params_validation():
    RecParams(0.005)
    RecParams(0.1)  # test-scale gammas above the calibrated range are accepted
    with pytest.raises(BadParams):
        RecParams(0.2)  # pivot window empty
    with pytest.raises(BadParams):
        RecParams(-1.0)


def test_base_case_returns_exact_path():
    g = path_graph(8)
    walk = rec(g, 0, 8, 0.1, RandomStream(0))
    walk.validate(g)
    assert len(walk) == 8  # 1/gamma = 10 >= 8: exact


def test_cycle16_override_is_base_case():
    g = WeightedMultigraph(16, tuple((i, (i + 1) % 16) for i in range(16)))
    walk = rec(g, 0, 8, 0.05, RandomStream(3))
    assert len(walk) == 8


def test_sp_desk_scale_is_exact():
    # the sampled 1/gamma far exceeds any distance at this size
    gi = gen_instance("random-gnm", {"n": 30, "m": 60}, 4)
    d = gi.graph.hop_dist(0)
    t = int(np.argmax([x for x in d]))
    for seed in range(50):
        walk = sp(gi.graph, 0, t, 0.5, RandomStream(seed))
        assert len(walk) == d[t]


def test_sp_source_equals_target():
    g = path_graph(3)
    walk = sp(g, 1, 1, 0.5, RandomStream(0))
    assert len(walk) == 0


def test_sp_unreachable():
    g = WeightedMultigraph(4, ((0, 1), (2, 3)))
    with pytest.raises(Unreachable):
        sp(g, 0, 3, 0.5, RandomStream(0))


def test_recursion_walks_valid_and_bounded():
    gamma = 0.1
    for kind, n, s, t in (("path", 40, 0, 40), ("path", 60, 0, 60), ("cycle", 60, 0, 30)):
        gi = gen_instance(kind, {"k": n} if kind == "path" else {"n": n}, 0)
        g = gi.graph
        opt = g.hop_dist(s)[t]
        assert opt > 1 / gamma  # recursion actually fires
        bound = opt ** (1 + 14 * gamma)
        for seed in range(200):
            trace = RecTrace()
            walk = rec(g, s, t, gamma, RandomStream(seed), trace=trace)
            walk.validate(g)
            assert len(walk) <= bound
            assert trace.max_depth <= 4 * math.log(g.n) + 1


def test_pivot_set_path_graph_middle():
    g = path_graph(20)
    got = pivot_set(g, 0, 20, 0.5, 0.2)
    # direct check from hop distances
    ds, dt = g.hop_dist(0), g.hop_dist(20)
    expected = [v for v in range(g.n) if ds[v] <= 0.7 * 20 and dt[v] <= 0.7 * 20]
    assert got == expected
    assert got == list(range(6, 15))  # contiguous middle of the path


def test_pivot_set_size_lower_bound():
    gamma = 0.1
    for seed in range(30):
        gi = gen_instance("random-gnm", {"n": 24, "m": 30}, seed)
        g = gi.graph
        d0 = g.hop_dist(0)
        t = int(np.argmax(d0))
        opt = d0[t]
        if opt <= 1 / gamma:
            continue
        rng = RandomStream(seed)
        d = rng.uniform(0.25 + 2 * gamma, 0.75 - 2 * gamma, "d")
        l = rng.uniform(gamma, 2 * gamma, "l")
        assert len(pivot_set(g, 0, t, d, l)) >= gamma * opt


def test_sampled_pivots_near_optimal_and_shrinking():
    g = path_graph(60)
    gamma = 0.1
    ds, dt = g.hop_dist(0), g.hop_dist(60)
    opt = ds[60]
    for seed in range(300):
        trace = RecTrace()
        rec(g, 0, 60, gamma, RandomStream(seed), trace=trace)
        for call in trace.calls:
            if call.base_case:
                continue
            a = g.hop_dist(call.source)
            b = g.hop_dist(call.target)
            v = call.pivot
            assert a[v] + b[v] <= (1 + 4 * gamma) * call.opt
            assert max(a[v], b[v]) <= 0.75 * call.opt


def test_pivot_uniform_conditional_on_d_l():
    """Conditional law: at fixed (d, l) the pivot is uniform on its set."""
    g = path_graph(60)
    d, l = 0.5, 0.15
    candidates = pivot_set(g, 0, 60, d, l)
    index = {v: i for i, v in enumerate(candidates)}
    counts = np.zeros(len(candidates))
    n_samples = 20_000
    rng = RandomStream(17)
    for k in range(n_samples):
        counts[index[sample_pivot(g, 0, 60, d, l, rng, "trial", k)]] += 1
    p = stats.chisquare(counts).pvalue
    assert p > 1e-3


def test_sample_pivot_matches_recursion_draw():
    # the recursion's first pivot equals sample_pivot at the same key and (d, l)
    g = path_graph(60)
    for seed in range(20):
        trace = RecTrace()
        rec(g, 0, 60, 0.1, RandomStream(seed), trace=trace)
        call = trace.calls[0]
        again = sample_pivot(g, 0, 60, call.d, call.l, RandomStream(seed), *call.path)
        assert again == call.pivot


# --- activity diagnostics ----------------------------------------------------


def test_opt_through_vertex_on_shortest_path():
    g = path_graph(10)
    assert opt_through(g, 0, 10, 5) == 10.0
    assert opt_through_edge(g, 0, 10, 4) == 10.0


def test_activity_on_path_vs_detour():
    g, pendant_edge = pendant_instance(14, 7, 14)
    gamma = 0.1
    # middle path edge lies on the unique shortest path
    assert is_active(g, 0, 14, 6, gamma)
    # last pendant edge needs a 2*13-step detour
    assert not is_active(g, 0, 14, pendant_edge, gamma)
    assert opt_through_edge(g, 0, 14, pendant_edge) > (1 + 16 * gamma) * 14


def test_inactive_call_pivot_sets_match_after_contraction():
    gamma = 0.1
    gen = np.random.default_rng(0)
    checked = 0
    while checked < 60:
        length = int(gen.integers(11, 16))
        mid = int(gen.integers(2, length - 2))
        depth = int(8 * gamma * length + 2 + gen.integers(0, 3))
        g, e = pendant_instance(length, mid, depth)
        if is_active(g, 0, length, e, gamma):
            continue
        res = contract_edge(g, e)
        s2, t2 = res.vertex_map[0], res.vertex_map[length]
        d = float(gen.uniform(0.25 + 2 * gamma, 0.75 - 2 * gamma))
        l = float(gen.uniform(gamma, 2 * gamma))
        before = pivot_set(g, 0, length, d, l)
        after = pivot_set(res.graph, s2, t2, d, l)
        assert sorted(res.vertex_map[v] for v in before) == after
        checked += 1


def test_detour_edge_contraction_leaves_walks_unchanged():
    g, e = pendant_instance(14, 7, 14)
    res = contract_edge(g, e)
    s2, t2 = res.vertex_map[0], res.vertex_map[14]
    for seed in range(100):
        w1 = rec(g, 0, 14, 0.1, RandomStream(seed))
        w2 = rec(res.graph, s2, t2, 0.1, RandomStream(seed))
        assert w1.multiset == res.multiset_to_original(w2.multiset)


# --- directed variant ---------------------------------------------------------


def test_di_sp_directed_path_exact():
    g = DirectedGraph(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
    walk = sp(g, 0, 4, 0.5, RandomStream(1))
    walk.validate(g)
    assert len(walk) == 4


def test_di_sp_picks_shorter_branch():
    arcs = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 10)]
    arcs += [(0, 5), (5, 6), (6, 7), (7, 8), (8, 9), (9, 10), (10, 11), (11, 12), (12, 13)]
    g = DirectedGraph(14, arcs)
    for seed in range(30):
        walk = sp(g, 0, 10, 0.5, RandomStream(seed))
        assert len(walk) == 5


def test_di_sp_respects_direction():
    g = DirectedGraph(3, [(0, 1), (1, 2)])
    with pytest.raises(Unreachable):
        sp(g, 2, 0, 0.5, RandomStream(0))
