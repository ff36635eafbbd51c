"""Output metrics, checked against small exhaustive coupling oracles."""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lipgraph import metrics
from lipgraph.errors import SupportTooLarge
from lipgraph.metrics import (
    MAX_ASSIGNMENT_SAMPLES,
    EdgeSetDistribution,
    canonical_outcome,
    d_u,
    d_w,
    emd_empirical,
    transportation_cost,
    tv_empirical,
    unweighted_cost,
    weighted_cost,
    zero_one_cost,
)

multisets = st.dictionaries(st.integers(0, 6), st.integers(1, 3), max_size=5)


def coupling_oracle_2x2(p, q, cost):
    """Exact EMD for 2-point supports: 1-dim family, optimum at an endpoint."""
    (a1, a2), (b1, b2) = p.probs, q.probs
    pm, qm = p.multisets(), q.multisets()
    lo = max(0.0, a1 - b2)
    hi = min(a1, b1)

    def total(f11):
        f12 = a1 - f11
        f21 = b1 - f11
        f22 = a2 - f21
        return (
            f11 * cost(pm[0], qm[0])
            + f12 * cost(pm[0], qm[1])
            + f21 * cost(pm[1], qm[0])
            + f22 * cost(pm[1], qm[1])
        )

    return min(total(lo), total(hi))


def test_d_u_identity_and_disjoint():
    assert d_u({1: 1}, {1: 1}) == 0.0
    assert d_u({1: 1}, {2: 1}) == 2.0


def test_d_u_multiplicity():
    assert d_u({5: 2}, {5: 1}) == 1.0


def test_d_w_shared_edge_weight_shift():
    delta = 0.25
    assert d_w({0: 1}, [1.0], {0: 1}, [1.0 + delta]) == pytest.approx(delta)


def test_d_w_disjoint_sets_sum():
    w = [1.0, 2.0, 4.0]
    assert d_w({0: 1}, w, {1: 1, 2: 1}, w) == 7.0


@settings(max_examples=80, deadline=None)
@given(st.sets(st.integers(0, 7), max_size=6), st.sets(st.integers(0, 7), max_size=6))
def test_d_w_same_weights_is_symmetric_difference(f1, f2):
    w = np.arange(1.0, 9.0)
    m1 = Counter({e: 1 for e in f1})
    m2 = Counter({e: 1 for e in f2})
    assert d_w(m1, w, m2, w) == pytest.approx(sum(w[e] for e in f1 ^ f2))


def test_canonical_outcome_sorts_and_drops_zeros():
    assert canonical_outcome(Counter({3: 1, 1: 2, 5: 0})) == ((1, 2), (3, 1))


def test_distribution_from_samples():
    dist = EdgeSetDistribution.from_samples([{1: 1}, {1: 1}, {2: 1}, {1: 1}])
    assert dist.support_size == 2
    assert dist.probs == (0.75, 0.25)


def test_distribution_text_round_trip():
    dist = EdgeSetDistribution.from_samples([{1: 2, 3: 1}, {2: 1}, {2: 1}])
    again = EdgeSetDistribution.from_text(dist.to_text())
    assert again == dist


def test_tv_basics():
    p = EdgeSetDistribution.from_samples([{1: 1}, {2: 1}])
    assert tv_empirical(p, p) == 0.0
    q = EdgeSetDistribution.from_samples([{3: 1}])
    assert tv_empirical(p, q) == 1.0
    half = EdgeSetDistribution.from_samples([{1: 1}])
    assert tv_empirical(p, half) == 0.5


def test_emd_point_masses():
    p = EdgeSetDistribution.from_samples([{1: 1}])
    q = EdgeSetDistribution.from_samples([{2: 1}])
    assert emd_empirical(p, q, unweighted_cost) == 2.0
    assert emd_empirical(p, p, unweighted_cost) == 0.0


def test_emd_2x2_matches_coupling_enumeration():
    p = EdgeSetDistribution.from_pairs([({1: 1}, 0.3), ({2: 1}, 0.7)])
    q = EdgeSetDistribution.from_pairs([({1: 1}, 0.6), ({3: 1}, 0.4)])
    got = emd_empirical(p, q, unweighted_cost)
    assert got == pytest.approx(coupling_oracle_2x2(p, q, unweighted_cost))


@settings(max_examples=40, deadline=None)
@given(
    st.lists(multisets, min_size=1, max_size=6),
    st.lists(multisets, min_size=1, max_size=6),
)
def test_emd_upper_bounded_by_any_coupling(samples1, samples2):
    p = EdgeSetDistribution.from_samples(samples1)
    q = EdgeSetDistribution.from_samples(samples2)
    value = emd_empirical(p, q, unweighted_cost)
    # independent-product coupling is feasible
    product = sum(
        pi * qj * d_u(mi, mj)
        for pi, mi in zip(p.probs, p.multisets())
        for qj, mj in zip(q.probs, q.multisets())
    )
    assert value <= product + 1e-9


@settings(max_examples=25, deadline=None)
@given(
    st.lists(multisets, min_size=1, max_size=5),
    st.lists(multisets, min_size=1, max_size=5),
    st.lists(multisets, min_size=1, max_size=5),
)
def test_emd_metric_properties(s1, s2, s3):
    p = EdgeSetDistribution.from_samples(s1)
    q = EdgeSetDistribution.from_samples(s2)
    r = EdgeSetDistribution.from_samples(s3)
    dpq = emd_empirical(p, q, unweighted_cost)
    dqp = emd_empirical(q, p, unweighted_cost)
    assert dpq == pytest.approx(dqp, abs=1e-9)
    dpr = emd_empirical(p, r, unweighted_cost)
    drq = emd_empirical(r, q, unweighted_cost)
    assert dpq <= dpr + drq + 1e-9


@settings(max_examples=40, deadline=None)
@given(
    st.lists(multisets, min_size=1, max_size=6),
    st.lists(multisets, min_size=1, max_size=6),
)
def test_tv_equals_emd_with_zero_one_cost(s1, s2):
    p = EdgeSetDistribution.from_samples(s1)
    q = EdgeSetDistribution.from_samples(s2)
    assert tv_empirical(p, q) == pytest.approx(
        emd_empirical(p, q, zero_one_cost), abs=1e-9
    )


def test_weighted_cost_closure():
    w1, w2 = [1.0, 2.0], [1.5, 2.0]
    cost = weighted_cost(w1, w2)
    assert cost(Counter({0: 1}), Counter({0: 1})) == pytest.approx(0.5)


def test_support_limit():
    outcomes = [({i: 1}, 1.0 / 10_001) for i in range(10_001)]
    with pytest.raises(SupportTooLarge):
        emd_empirical(
            EdgeSetDistribution.from_pairs(outcomes),
            EdgeSetDistribution.from_samples([{1: 1}]),
            unweighted_cost,
        )


def test_transportation_rectangular():
    cost = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 1.0]])
    got = transportation_cost(np.array([0.5, 0.5]), np.array([0.25, 0.5, 0.25]), cost)
    # row0: 0.25 -> col0 free, 0.25 -> col1 at 1; row1: 0.25 -> col1 free,
    # 0.25 -> col2 at 1; total 0.5 (checked by enumerating basic solutions)
    assert got == pytest.approx(0.5)


def _draw_samples(rng, n, pool):
    return [pool[i] for i in rng.integers(0, len(pool), n)]


def _pool(rng, k, m=10, size=4):
    """k distinct random edge multisets over ids 0..m-1."""
    out = set()
    while len(out) < k:
        edges = rng.choice(m, size=size, replace=False)
        out.add(tuple(sorted((int(e), int(rng.integers(1, 3))) for e in edges)))
    return [Counter(dict(o)) for o in sorted(out)]


def _costs(rng, m=10):
    w1 = rng.integers(1, 9, m) / 3.0
    return {"unweighted": unweighted_cost, "weighted": weighted_cost(w1, w1 * 1.1 + 0.05)}


def _assert_assignment_equals_lp(p, q, cost):
    got = emd_empirical(p, q, cost)
    c = metrics._cost_matrix(p, q, cost)
    want = transportation_cost(np.asarray(p.probs), np.asarray(q.probs), c)
    assert abs(got - want) <= 1e-9 * max(1.0, abs(want))


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("cost_name", ["unweighted", "weighted"])
def test_assignment_emd_equals_lp_narrow_supports(seed, cost_name):
    rng = np.random.default_rng(seed)
    cost = _costs(rng)[cost_name]
    for n in (1, 2, 7, 40, MAX_ASSIGNMENT_SAMPLES):
        pool = _pool(rng, int(rng.integers(2, 6)))
        p = EdgeSetDistribution.from_samples(_draw_samples(rng, n, pool))
        q = EdgeSetDistribution.from_samples(_draw_samples(rng, n, pool))
        _assert_assignment_equals_lp(p, q, cost)


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("cost_name", ["unweighted", "weighted"])
def test_assignment_emd_equals_lp_wide_supports(seed, cost_name):
    rng = np.random.default_rng(100 + seed)
    cost = _costs(rng, m=30)[cost_name]
    for n in (3, 20, 60):
        pool = _pool(rng, 2 * n, m=30, size=6)
        order = rng.permutation(2 * n)
        p = EdgeSetDistribution.from_samples([pool[i] for i in order[:n]])
        q = EdgeSetDistribution.from_samples([pool[i] for i in order[n:]])
        assert p.support_size == q.support_size == n
        _assert_assignment_equals_lp(p, q, cost)


@pytest.mark.parametrize("cost_name", ["unweighted", "weighted"])
def test_assignment_emd_equals_lp_with_ties(cost_name):
    # single-edge outcomes of unit weight: every off-diagonal pair costs the same
    rng = np.random.default_rng(7)
    cost = unweighted_cost if cost_name == "unweighted" else weighted_cost(np.ones(6), np.ones(6))
    pool = [Counter({e: 1}) for e in range(6)]
    for n in (5, 30, 200):
        p = EdgeSetDistribution.from_samples(_draw_samples(rng, n, pool))
        q = EdgeSetDistribution.from_samples(_draw_samples(rng, n, pool[2:]))
        _assert_assignment_equals_lp(p, q, cost)


@pytest.mark.parametrize("seed", range(3))
def test_vectorized_cost_matrix_equals_pair_loop(seed):
    rng = np.random.default_rng(200 + seed)
    p = EdgeSetDistribution.from_samples(_draw_samples(rng, 30, _pool(rng, 12)) + [Counter()])
    q = EdgeSetDistribution.from_samples(_draw_samples(rng, 25, _pool(rng, 9, m=14)))
    for cost in _costs(rng, m=14).values():
        got = metrics._cost_matrix(p, q, cost)
        want = np.array([[cost(mi, mj) for mj in q.multisets()] for mi in p.multisets()])
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)


def test_distribution_counts_only_from_samples():
    dist = EdgeSetDistribution.from_samples([{1: 1}, {1: 1}, {2: 1}])
    assert dist.counts == (2, 1)
    assert EdgeSetDistribution.from_pairs([({1: 1}, 0.5), ({2: 1}, 0.5)]).counts is None
    assert EdgeSetDistribution.from_text(dist.to_text()).counts is None


def test_emd_solver_routing(monkeypatch):
    calls = []
    lp = metrics.transportation_cost

    def spy(*args):
        calls.append(args)
        return lp(*args)

    monkeypatch.setattr(metrics, "transportation_cost", spy)
    rng = np.random.default_rng(3)
    pool = _pool(rng, 4)

    def samples(n):
        return EdgeSetDistribution.from_samples(_draw_samples(rng, n, pool))

    def reaches_lp(p, q):
        calls.clear()
        emd_empirical(p, q, unweighted_cost)
        return len(calls) == 1

    assert not reaches_lp(samples(1), samples(1))
    assert not reaches_lp(samples(37), samples(37))
    assert not reaches_lp(samples(MAX_ASSIGNMENT_SAMPLES), samples(MAX_ASSIGNMENT_SAMPLES))
    assert reaches_lp(samples(MAX_ASSIGNMENT_SAMPLES + 1), samples(MAX_ASSIGNMENT_SAMPLES + 1))
    assert reaches_lp(samples(15), samples(16))
    p = samples(20)
    assert reaches_lp(EdgeSetDistribution.from_pairs(zip(p.multisets(), p.probs)), samples(20))
