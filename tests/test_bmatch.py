"""Regularized bipartite relaxation and rounding."""

import math
import time

import numpy as np
import pytest

from lipgraph.bmatch import (
    BipartiteMatchResult,
    _free_direction,
    collision_value,
    coupled_plip_mwbm,
    lp_stability_check,
    plip_mwbm,
    poisson_binomial_pmf,
    round_matching,
    sample_row_choice,
    solve_lp_ent,
)
from lipgraph.errors import BadParams, DegenerateShape, NoConvergence
from lipgraph.exact import hungarian_bipartite
from lipgraph.rng import RandomStream


# --- solver closed forms ------------------------------------------------------


def test_lp_1x1_saturated():
    # weight large versus B: unconstrained stationary point exceeds 1, so
    # the row/col constraint binds and x = 1
    sol = solve_lp_ent(1, 1, [[2.0]], 0.5)
    assert sol.x[0, 0] == pytest.approx(1.0, abs=1e-8)
    assert sol.lam[0] + sol.mu[0] == pytest.approx(2.0 - 0.5, abs=1e-7)


def test_lp_1x1_interior():
    # exp(w/B - 1) < 1: interior optimum, duals vanish
    w, b_reg = 0.3, 0.5
    sol = solve_lp_ent(1, 1, [[w]], b_reg)
    assert sol.x[0, 0] == pytest.approx(math.exp(w / b_reg - 1.0), abs=1e-9)
    assert sol.lam[0] == 0.0 and sol.mu[0] == 0.0


def test_lp_symmetric_2x2():
    sol = solve_lp_ent(2, 2, [[1.0, 1.0], [1.0, 1.0]], 0.2)
    assert np.allclose(sol.x, sol.x[0, 0])
    assert np.allclose(sol.x.sum(axis=1), sol.x.sum(axis=0))


def test_lp_kkt_residuals_on_random_instances():
    gen = np.random.default_rng(1)
    for _ in range(25):
        nu, nv = int(gen.integers(1, 6)), int(gen.integers(2, 8))
        w = gen.random((nu, nv)) * 3
        b_reg = float(gen.random() * 0.2 + 0.01)
        sol = solve_lp_ent(nu, nv, w, b_reg)
        assert sol.max_violation <= 1e-7
        assert sol.comp_slack <= 1e-7
        # stationarity holds by construction
        recon = np.exp((w - sol.lam[:, None] - sol.mu[None, :]) / b_reg - 1.0)
        assert np.max(np.abs(recon - sol.x)) <= 1e-12
        assert np.all(sol.x > 0)


def test_lp_objective_at_least_unregularized_optimum_minus_entropy():
    gen = np.random.default_rng(2)
    w = gen.random((4, 5))
    _, opt = hungarian_bipartite(w)
    nu, nv = w.shape
    b_reg = 0.05 * opt / (nu * math.log(nv))
    sol = solve_lp_ent(nu, nv, w, b_reg)
    assert float((w * sol.x).sum()) >= opt - b_reg * nu * math.log(nv) - 1e-7


def test_lp_unreachable_tolerance_fails_fast_with_residuals():
    w = np.random.default_rng(54).random((6, 3)) * 3
    started = time.perf_counter()
    with pytest.raises(NoConvergence) as info:
        solve_lp_ent(6, 3, w, 0.0129, tol=1e-300)
    assert time.perf_counter() - started < 1.0
    assert all(math.isfinite(r) for r in info.value.residuals)


def test_lp_rejects_bad_input():
    with pytest.raises(BadParams):
        solve_lp_ent(1, 1, [[1.0]], 0.0)
    with pytest.raises(BadParams):
        solve_lp_ent(2, 1, [[1.0]], 0.5)
    with pytest.raises(BadParams):
        solve_lp_ent(1, 2, [[1.0, np.inf]], 0.5)


# --- Newton system -------------------------------------------------------------


def _eigh_direction(x, free, rhs):
    """Reference: eigh of the scaled, masked free block, flat eigenvalues set to 1."""
    nu = x.shape[0]
    sums = np.concatenate([x.sum(axis=1), x.sum(axis=0)])
    hess = np.eye(len(sums))
    hess[:nu, nu:] = x / np.sqrt(np.outer(sums[:nu], sums[nu:])) * np.outer(free[:nu], free[nu:])
    hess[nu:, :nu] = hess[:nu, nu:].T
    ev, vec = np.linalg.eigh(hess)
    ev[ev <= 1e-12 * ev[-1]] = 1.0
    return vec @ ((vec.T @ rhs) / ev)


def _direction_with_eigh_count(monkeypatch, x, free, rhs):
    calls = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda a: calls.append(1) or eigh(a))
    sums = np.concatenate([x.sum(axis=1), x.sum(axis=0)])
    z = _free_direction(x, np.sqrt(sums), free, rhs)
    monkeypatch.undo()
    return z, len(calls)


@pytest.mark.parametrize("case", ["all free, nU = nV", "all free, nU != nV", "some active"])
def test_newton_direction_matches_eigh_reference(monkeypatch, case):
    gen = np.random.default_rng(11)
    for _ in range(40):
        nu = int(gen.integers(1, 9))
        nv = nu if case == "all free, nU = nV" else int(gen.integers(1, 9))
        if case == "all free, nU != nV" and nv == nu:
            nv = nu + 1
        x = np.exp(gen.normal(-1.0, 1.5, (nu, nv)))
        free = np.ones(nu + nv, dtype=bool)
        if case == "some active":
            free[gen.choice(nu + nv, int(gen.integers(1, nu + nv + 1)), replace=False)] = False
        rhs = gen.normal(size=nu + nv) * free
        want = _eigh_direction(x, free, rhs)
        got, eigh_calls = _direction_with_eigh_count(monkeypatch, x, free, rhs)
        assert eigh_calls == 0
        assert np.max(np.abs(got - want)) <= 1e-9 * np.max(np.abs(want))


def test_newton_direction_falls_back_on_disconnected_block(monkeypatch):
    # block-diagonal x: two components, each flat along its own direction,
    # so the block stays singular after the one flat term and Cholesky fails
    gen = np.random.default_rng(12)
    x = np.zeros((5, 5))
    x[:2, :3] = gen.random((2, 3)) + 0.1
    x[2:, 3:] = gen.random((3, 2)) + 0.1
    free = np.ones(10, dtype=bool)
    rhs = gen.normal(size=10)
    want = _eigh_direction(x, free, rhs)
    got, eigh_calls = _direction_with_eigh_count(monkeypatch, x, free, rhs)
    assert eigh_calls == 1
    assert np.max(np.abs(got - want)) <= 1e-9 * np.max(np.abs(want))


# --- stability ----------------------------------------------------------------


def test_stability_zero_delta_is_zero():
    w = np.array([[1.0, 0.5], [0.2, 0.8]])
    sol1 = solve_lp_ent(2, 2, w, 0.1)
    sol2 = solve_lp_ent(2, 2, w, 0.1)
    assert np.array_equal(sol1.x, sol2.x)


def test_stability_1x1_closed_form():
    w, b_reg, delta = 0.2, 0.5, 0.01
    lhs, bound = lp_stability_check(1, 1, [[w]], (0, 0), delta, b_reg)
    explicit = math.exp(w / b_reg - 1.0) * (math.exp(delta / b_reg) - 1.0)
    assert lhs == pytest.approx(explicit, abs=1e-7)
    assert lhs <= delta / b_reg
    assert bound == pytest.approx(delta / b_reg)


def test_stability_bound_random_instances():
    gen = np.random.default_rng(3)
    for _ in range(20):
        nu, nv = 4, 6
        w = gen.random((nu, nv))
        b_reg = float(gen.random() * 0.1 + 0.02)
        f = (int(gen.integers(nu)), int(gen.integers(nv)))
        delta = 1e-3
        lhs, bound = lp_stability_check(nu, nv, w, f, delta, b_reg)
        assert lhs <= bound + 1e-6


# --- rounding -----------------------------------------------------------------


def test_row_choice_inverse_cdf():
    row = np.array([0.3, 0.5, 0.0])
    assert sample_row_choice(row, 0.1) == 0
    assert sample_row_choice(row, 0.31) == 1
    assert sample_row_choice(row, 0.81) == -1


def test_rounding_deterministic_matrix():
    x = np.array([[1.0, 0.0], [0.0, 1.0]])
    t = round_matching(x, RandomStream(0))
    assert t.matching == ((0, 0), (1, 1))
    assert t.candidates == ((0,), (1,))


def test_rounding_marginals_match_x():
    x = np.array([[0.25, 0.4, 0.2], [0.5, 0.1, 0.35]])
    n = 200_000
    gen = RandomStream(5).generator("marginals")
    us = gen.random((n, 2))
    counts = np.zeros((2, 3))
    for i in range(2):
        cdf = np.cumsum(x[i])
        js = np.searchsorted(cdf, us[:, i], side="right")
        for j in range(3):
            counts[i, j] = np.mean(js == j)
    assert np.allclose(counts, x, atol=4 * np.sqrt(0.25 / n))
    # scalar path agrees with the vectorized one
    for i in range(2):
        for u in (0.01, 0.3, 0.7, 0.99):
            j = sample_row_choice(x[i], u)
            jv = int(np.searchsorted(np.cumsum(x[i]), u, side="right"))
            assert j == (jv if jv < 3 else -1)


def test_collision_enumeration_two_rows_one_column():
    # two rows competing for one column with probs a, b: exhaustive outcomes
    a, b = 0.6, 0.3
    x = np.array([[a], [b]])
    n = 40_000
    total = 0.0
    both = 0
    for seed in range(n):
        t = round_matching(x, RandomStream(seed))
        total += sum(1.0 for _ in t.matching)
        both += len(t.candidates[0]) == 2
    expected_both = a * b
    assert abs(both / n - expected_both) < 4 * np.sqrt(expected_both / n)
    expected_matched = a + b - a * b  # at least one candidate appears
    assert abs(total / n - expected_matched) < 4 * np.sqrt(0.25 / n)


# --- poisson binomial ---------------------------------------------------------


def test_pmf_singleton_and_pair():
    assert np.allclose(poisson_binomial_pmf([0.3]), [0.7, 0.3])
    assert np.allclose(poisson_binomial_pmf([0.5, 0.5]), [0.25, 0.5, 0.25])


def test_collision_value_boundary():
    assert collision_value([1.0]) == pytest.approx(0.5)
    assert collision_value([]) == pytest.approx(1.0)


def test_collision_value_at_least_half_for_subprobability():
    gen = np.random.default_rng(4)
    for _ in range(400):
        n = int(gen.integers(1, 8))
        y = gen.random(n)
        y *= gen.random() / max(y.sum(), 1e-12)
        assert collision_value(y) >= 0.5 - 1e-12


def test_merging_two_entries_never_increases():
    gen = np.random.default_rng(5)
    for _ in range(300):
        n = int(gen.integers(2, 7))
        y = gen.random(n)
        y *= gen.random() / max(y.sum(), 1e-12)
        merged = np.concatenate([[y[0] + y[1]], y[2:]])
        assert collision_value(y) >= collision_value(merged) - 1e-12


# --- full algorithm -----------------------------------------------------------


def test_plip_mwbm_concentrates_on_heavy_cell():
    # single-row closed form: with weights (1, 0) the row constraint binds
    # and x_heavy = 1 / (1 + exp(-1/B)); integrate over the B interval
    w = np.array([[1.0, 0.0]])
    eps = 0.1
    lo = eps / math.log(2)
    bs = np.linspace(lo, 2 * lo, 20_001)
    p_star = float(np.mean(1.0 / (1.0 + np.exp(-1.0 / bs))))
    n = 2000
    hits = sum(
        plip_mwbm(1, 2, w, eps, RandomStream(seed)).matching == ((0, 0),)
        for seed in range(n)
    )
    sigma = math.sqrt(p_star * (1 - p_star) / n)
    assert abs(hits / n - p_star) <= 4 * sigma
    assert hits / n >= 0.98


def test_plip_mwbm_identity_ratio():
    w = np.eye(2)
    eps = 0.05
    n = 4000
    values = [plip_mwbm(2, 2, w, eps, RandomStream(seed)).weight(w) for seed in range(n)]
    mean = np.mean(values)
    sigma = np.std(values) / np.sqrt(n)
    assert mean / 2.0 >= 0.5 - eps - 3 * sigma / 2.0


def test_plip_mwbm_zero_weights():
    res = plip_mwbm(2, 2, np.zeros((2, 2)), 0.1, RandomStream(0))
    assert res.zero_optimum and res.matching == ()


def test_plip_mwbm_shape_guard():
    with pytest.raises(DegenerateShape):
        plip_mwbm(2, 1, np.ones((2, 1)), 0.1, RandomStream(0))
    with pytest.raises(BadParams):
        plip_mwbm(2, 2, np.ones((2, 2)), 0.7, RandomStream(0))


@pytest.mark.parametrize("seed", [54, 70])
def test_plip_mwbm_converges_at_small_epsilon(seed):
    # 6x3 at eps 0.01 puts B near 1e-3 of the weights, where the dual is
    # almost piecewise linear
    w = np.random.default_rng(seed).random((6, 3)) * 3
    eps = 0.01
    res = plip_mwbm(6, 3, w, eps, RandomStream(seed).sub(eps))
    assert res.lp.max_violation <= 1e-7
    assert res.lp.comp_slack <= 1e-7
    assert float((w * res.lp.x).sum()) >= (1 - 2 * eps) * res.opt - 1e-7


@pytest.mark.parametrize("s, eps", [(14, 0.05), (3, 0.001)])
def test_plip_mwbm_converges_on_wide_range_weights(s, eps):
    # lognormal weights up to 2e4: the duals scale with w, so slackness
    # |lam (1 - rows)| stalls at 1e-9 to 1e-8, above an absolute 1e-9
    w = np.exp(np.random.default_rng(s).normal(0, 3, (8, 8)))
    res = plip_mwbm(8, 8, w, eps, RandomStream(s).sub(eps))
    assert res.lp.max_violation < 1e-9
    assert res.lp.comp_slack < 1e-9 * w.max()
    assert float((w * res.lp.x).sum()) >= (1 - 2 * eps) * res.opt - 1e-7 * w.max()


def test_plip_mwbm_converges_on_robustness_families():
    # shapes up to 8x8 at three epsilons, on four weight families: uniform,
    # small integers (ties), sparse x100 (entries of x underflow) and
    # lognormal (weights over four orders of magnitude)
    gen = np.random.default_rng(2024)
    families = {
        "uniform": lambda shape: gen.random(shape),
        "integer": lambda shape: gen.integers(0, 10, shape).astype(float),
        "sparse": lambda shape: gen.random(shape) * (gen.random(shape) < 0.3) * 100,
        "lognormal": lambda shape: np.exp(gen.normal(0, 3, shape)),
    }
    solved = 0
    for draw in families.values():
        for eps in (0.05, 0.01, 0.001):
            for k in range(40):
                nu, nv = int(gen.integers(1, 9)), int(gen.integers(2, 9))
                w = draw((nu, nv))
                res = plip_mwbm(nu, nv, w, eps, RandomStream(k).sub(eps))
                if res.zero_optimum:
                    continue
                assert res.lp.max_violation < 1e-9
                assert res.lp.comp_slack < 1e-9 * max(1.0, w.max())
                solved += 1
    assert solved >= 400


def test_plip_mwbm_fractional_guarantee_every_seed():
    gen = np.random.default_rng(6)
    w = gen.random((3, 4))
    _, opt = hungarian_bipartite(w)
    eps = 0.1
    for seed in range(200):
        res = plip_mwbm(3, 4, w, eps, RandomStream(seed))
        assert float((w * res.lp.x).sum()) >= (1 - 2 * eps) * opt - 1e-7


def test_coupled_plip_mwbm_distances():
    gen = np.random.default_rng(7)
    w = gen.random((3, 4)) + 0.1
    eps, delta = 0.1, 1e-3
    b_flips = 0
    n = 300
    _, opt = hungarian_bipartite(w)
    for seed in range(n):
        out = coupled_plip_mwbm(3, 4, w, (1, 2), delta, eps, RandomStream(seed))
        if not out["b_equal"]:
            b_flips += 1
            continue
        # expected q disagreement is controlled by p disagreement, which
        # is controlled by the fractional solution shift
        shift = float(np.abs(out["lp1"].x - out["lp2"].x).sum())
        assert out["p_diff"] <= 3 * 4  # sanity
        if out["p_diff"] == 0:
            assert out["q_diff"] == 0
            assert out["matching1"] == out["matching2"]
    bound = 2 * delta / opt
    assert b_flips / n <= bound + 3 * np.sqrt(max(bound, 1e-6) / n) + 0.01


@pytest.mark.parametrize(
    "matching",
    [((0, 0), (0, 1)), ((0, 1), (1, 1)), ((0, 3),), ((2, 0),), ((-1, 0),)],
    ids=["reused-row", "reused-column", "column-out-of-range", "row-out-of-range", "negative-row"],
)
def test_validate_rejects_invalid_matchings(matching):
    BipartiteMatchResult(((0, 1), (1, 0)), None, None, 0.0, 1.0).validate((2, 3))
    with pytest.raises(BadParams):
        BipartiteMatchResult(matching, None, None, 0.0, 1.0).validate((2, 3))
