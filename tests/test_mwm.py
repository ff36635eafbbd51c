"""Greedy matching over shifted geometric classes."""

import numpy as np
import pytest

from lipgraph.errors import BadParams
from lipgraph.exact import exact_max_weight_matching
from lipgraph.graphs import WeightedMultigraph
from lipgraph.harness import gen_instance
from lipgraph.mwm import (
    class_index,
    class_partition,
    coupled_lip_mwm,
    lip_mwm,
    lip_mwm_with_draws,
)
from lipgraph.rng import RandomStream


def test_class_index_boundaries():
    alpha = 2.5
    # weight exactly at a class threshold belongs to that class (inclusive)
    assert class_index(2.5, 1.0, alpha) == 1
    assert class_index(2.5 - 1e-9, 1.0, alpha) == 0
    assert class_index(1.0, 1.0, alpha) == 0
    assert class_index(0.5, 1.0, alpha) == -1


def test_class_partition_shapes():
    alpha = 2.0 + 0.5
    assert len(class_partition([3.0, 3.0, 3.0], 1.0, alpha)) == 1
    levels = class_partition([1.0, alpha**2, alpha**4], 1.0, alpha)
    assert sorted(levels) == [0, 2, 4]
    # zero-weight edges belong to no class
    assert class_partition([0.0, 1.0], 1.0, alpha) == {0: [1]}
    with pytest.raises(BadParams):
        class_partition([1.0], 0.5, alpha)


def test_class_membership_nested():
    gen = np.random.default_rng(0)
    alpha = 2.3
    for _ in range(200):
        w = float(gen.random() * 10 + 0.01)
        b = float(1 + gen.random() * (alpha - 1))
        i = class_index(w, b, alpha)
        assert b * alpha**i <= w < b * alpha ** (i + 1)


def test_single_edge_always_matched():
    g = WeightedMultigraph(2, ((0, 1),))
    for seed in range(50):
        assert lip_mwm(g, [5.0], 2.5, RandomStream(seed)).edges == frozenset({0})


def test_two_adjacent_equal_edges_split_evenly():
    g = WeightedMultigraph(3, ((0, 1), (1, 2)))
    w = [1.0, 1.0]
    n = 20_000
    first = sum(
        lip_mwm(g, w, 2.5, RandomStream(seed)).edges == frozenset({0})
        for seed in range(n)
    )
    assert abs(first / n - 0.5) < 4 * np.sqrt(0.25 / n)


def test_zero_weight_edges_never_matched():
    g = WeightedMultigraph(2, ((0, 1), (0, 1)))
    for seed in range(100):
        assert lip_mwm(g, [1.0, 0.0], 2.1, RandomStream(seed)).edges == frozenset({0})


def test_matching_valid_and_class_maximal_every_seed():
    gi = gen_instance("random-gnm", {"n": 7, "m": 11}, 6)
    g, w = gi.graph, gi.weights
    alpha = 2.4
    for seed in range(200):
        stream = RandomStream(seed)
        b = stream.uniform(1.0, alpha, "mwm", "b")
        perm = stream.permutation(g.n, "mwm", "perm")
        matching = lip_mwm_with_draws(g, w, alpha, b, perm)
        matching.validate(g)
        # after the full pass, no edge has both endpoints free (maximality
        # of greedy at the lowest processed level)
        covered = set()
        for e in matching.edges:
            covered.update(g.edges[e])
        for e in range(g.m):
            u, v = g.edges[e]
            if w[e] > 0 and u != v:
                assert u in covered or v in covered


def test_ratio_on_path_131():
    g = WeightedMultigraph(4, ((0, 1), (1, 2), (2, 3)))
    w = [1.0, 3.0, 1.0]
    alpha = 2.5
    _, opt = exact_max_weight_matching(g, w)
    values = [lip_mwm(g, w, alpha, RandomStream(seed)).weight(w) for seed in range(5000)]
    assert np.mean(values) >= opt / (4 * alpha)


def test_eps_parametrization():
    g = WeightedMultigraph(2, ((0, 1),))
    with pytest.raises(BadParams):
        lip_mwm(g, [1.0], 2.0, RandomStream(0))


def test_expected_ratio_random_graphs():
    eps = 0.1
    alpha = 2 + eps
    for gseed in range(8):
        gi = gen_instance("random-gnm", {"n": 6, "m": 9, "w_min": 1, "w_max": 9}, gseed)
        g, w = gi.graph, gi.weights
        _, opt = exact_max_weight_matching(g, w)
        values = [
            lip_mwm(g, w, alpha, RandomStream(seed)).weight(w) for seed in range(2000)
        ]
        mean = np.mean(values)
        sigma = np.std(values) / np.sqrt(len(values))
        assert mean / opt >= 1 / (4 * alpha) - 3 * sigma / opt


def test_coupled_identity_when_class_unchanged():
    gi = gen_instance("random-gnm", {"n": 6, "m": 10, "w_min": 1, "w_max": 9}, 3)
    g, w = gi.graph, gi.weights
    f, delta, alpha = 2, 0.05, 2.1
    crossings = 0
    for seed in range(2000):
        m1, m2, crossed = coupled_lip_mwm(g, w, f, delta, alpha, RandomStream(seed))
        if crossed:
            crossings += 1
        else:
            assert m1.edges == m2.edges
    bound = 1.5 * delta * alpha**2 / w[f]
    sigma = np.sqrt(bound * (1 - bound) / 2000)
    assert crossings / 2000 <= bound + 3 * sigma
