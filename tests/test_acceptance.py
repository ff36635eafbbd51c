"""Acceptance suite: one test per criterion, each printing a PASS line.

Monte Carlo criteria use frozen seeds and 3-sigma slack; guarantee criteria
demand zero violations.  Runtime budgets are asserted.  The two heaviest
criteria fan trials across two worker processes with disjoint seed lanes;
aggregation is order-independent so results stay deterministic.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the PASS lines.
"""

import math
import multiprocessing
import time

import numpy as np
from scipy import stats

from lipgraph.bmatch import (
    collision_value,
    lp_stability_check,
    plip_mwbm,
)
from lipgraph.contraction_sp import is_active, pivot_set, rec, sample_pivot
from lipgraph.coupling import max_overlap_uniform_pair, shift_wrap
from lipgraph.exact import (
    dijkstra,
    exact_max_weight_matching,
    hungarian_bipartite,
    kruskal_mst,
)
from lipgraph.graphs import WeightedMultigraph, contract_edge, write_edge_list
from lipgraph.harness import (
    ExperimentConfig,
    emd_between_samples,
    gen_instance,
    run_experiment,
)
from lipgraph.lip_sp import coupled_rounding_st, lip_sp, rounded_lengths
from lipgraph.metrics import weighted_cost
from lipgraph.mst import coupled_lip_mst_weights, lip_mst
from lipgraph.mwm import coupled_lip_mwm, lip_mwm
from lipgraph.rng import RandomStream

SEED = 20240731


def _report(num, label, elapsed, budget, detail):
    print(f"criterion {num:02d} ({label}): PASS [{elapsed:.1f}s < {budget}s; {detail}]")


# ---------------------------------------------------------------------------
# worker functions for the parallel criteria (top level for picklability)


def _sp_instance(gidx):
    n = 4 + gidx % 2
    inst = gen_instance(
        "random-gnm", {"n": n, "m": n + 1, "w_min": 1, "w_max": 2}, 7000 + gidx
    )
    g, w = inst.graph, inst.weights
    dist = dijkstra(g, w, 0)[0]
    t = int(np.argmax(dist))
    return g, w, 0, t, float(dist[t])


def _criterion6_chunk(bounds):
    lo, hi = bounds
    base = RandomStream(SEED)
    violations = 0
    worst = 0.0
    runs = 0
    for gidx in range(lo, hi):
        g, w, s, t, opt = _sp_instance(gidx)
        for ei, eps in enumerate((0.25, 0.5)):
            bound = (1.0 + eps) * opt + 1e-9
            for seed in range(100):
                walk = lip_sp(g, w, s, t, eps, base.sub("c6", gidx, ei, seed))
                value = walk.weighted_length(w)
                runs += 1
                worst = max(worst, value / opt - eps)
                if value > bound:
                    violations += 1
    return violations, worst, runs


def _criterion12_chunk(args):
    shape_idx, lo, hi = args
    nu, nv = ((3, 4), (5, 5))[shape_idx]
    inst = gen_instance("bipartite-random", {"nU": nu, "nV": nv}, 900 + shape_idx)
    w = inst.weights
    _, opt = hungarian_bipartite(w)
    base = RandomStream(SEED)
    total = 0.0
    total_sq = 0.0
    for seed in range(lo, hi):
        value = plip_mwbm(nu, nv, w, 0.05, base.sub("c12", shape_idx, seed)).weight(w)
        ratio = value / opt
        total += ratio
        total_sq += ratio * ratio
    return shape_idx, hi - lo, total, total_sq


# ---------------------------------------------------------------------------


def test_criterion_01_mst_per_sample_approximation():
    started = time.perf_counter()
    base = RandomStream(SEED)
    epsilons = (0.1, 0.5, 1.0)
    violations = 0
    runs = 0
    for gidx in range(1000):
        n = 3 + gidx % 8  # n in 3..10
        m = min(n - 1 + (gidx // 8) % 6, n * (n - 1) // 2)
        inst = gen_instance(
            "random-gnm", {"n": n, "m": m, "w_min": 1, "w_max": 9}, 1000 + gidx
        )
        g, w = inst.graph, inst.weights
        opt = kruskal_mst(g, w).weight(w)
        for ei, eps in enumerate(epsilons):
            bound = (1.0 + eps) * opt + 1e-9
            for seed in range(100):
                res = lip_mst(g, w, eps, base.sub("c1", gidx, ei, seed))
                runs += 1
                if res.tree.weight(w) > bound:
                    violations += 1
    elapsed = time.perf_counter() - started
    assert violations == 0
    assert elapsed < 30.0
    _report(1, "MST per-sample approximation", elapsed, 30, f"{runs} runs, 0 violations")


def test_criterion_02_mst_swap_structure():
    started = time.perf_counter()
    gen = np.random.default_rng(SEED)
    violations = 0
    for trial in range(10_000):
        if trial % 100 == 0:
            inst = gen_instance("random-gnm", {"n": 7, "m": 12}, 2000 + trial // 100)
            g = inst.graph
        w = gen.random(g.m) * 5 + 0.01
        f = int(gen.integers(0, g.m))
        delta = float(gen.random() + 1e-3)
        t1 = kruskal_mst(g, w)
        w2 = w.copy()
        w2[f] += delta
        t2 = kruskal_mst(g, w2)
        diff = t1.edges ^ t2.edges
        if len(diff) not in (0, 2):
            violations += 1
        elif diff:
            entering = diff - {f}
            if f not in (t1.edges - t2.edges) or len(entering) != 1:
                violations += 1
            elif w[next(iter(entering))] > w[f] + delta + 1e-12:
                violations += 1
    elapsed = time.perf_counter() - started
    assert violations == 0
    assert elapsed < 10.0
    _report(2, "MST swap structure", elapsed, 10, "10000 perturbations, 0 violations")


def test_criterion_03_mst_coupling_flip_bound():
    started = time.perf_counter()
    g = WeightedMultigraph(3, ((0, 1), (1, 2), (0, 2)))
    w = np.array([1.0, 2.0, 3.0])
    eps = 0.5
    n_vec = 10**6
    base = RandomStream(SEED)
    points = 0
    for f in range(3):
        for delta in (0.01, 0.1):
            bound = (1 + eps) * delta / (eps * (w[f] + delta))
            sigma = math.sqrt(bound * (1 - bound) / n_vec)
            # bulk trials through the same coupling primitive the
            # algorithm uses, fed by a keyed bulk generator
            gen = base.generator("c3", f, repr(delta))
            u = gen.random(n_vec)
            acc = gen.random(n_vec)
            x, y = max_overlap_uniform_pair(
                u, acc, w[f], (1 + eps) * w[f], w[f] + delta, (1 + eps) * (w[f] + delta)
            )
            freq = float(np.mean(x != y))
            assert freq <= bound + 3 * sigma
            # keyed-stream scalar path agrees at a smaller sample size
            n_scalar = 10_000
            flips = 0
            for seed in range(n_scalar):
                h1, h2 = coupled_lip_mst_weights(
                    g, w, f, delta, eps, base.sub("c3s", f, repr(delta), seed)
                )
                flips += h1[f] != h2[f]
            sig_s = math.sqrt(bound * (1 - bound) / n_scalar)
            assert flips / n_scalar <= bound + 3 * sig_s
            points += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    _report(3, "MST coupling flip bound", elapsed, 60, f"{points} (f, delta) points x 1e6 trials")


def test_criterion_04_rec_validity_and_pivot_uniformity():
    started = time.perf_counter()
    gamma = 0.1
    base = RandomStream(SEED)
    walks = 0
    for kind, size, s, t in (
        ("path", 40, 0, 40),
        ("path", 60, 0, 60),
        ("cycle", 41, 0, 20),
        ("cycle", 60, 0, 30),
    ):
        params = {"k": size} if kind == "path" else {"n": size}
        g = gen_instance(kind, params, 0).graph
        opt = g.hop_dist(s)[t]
        assert opt > 1.0 / gamma
        bound = opt ** (1.0 + 14.0 * gamma)
        for seed in range(2500):
            walk = rec(g, s, t, gamma, base.sub("c4", kind, size, seed))
            walk.validate(g)
            assert len(walk) <= bound
            walks += 1
    # conditional pivot law at fixed (d, l), chi-squared at 1e5 samples
    g = gen_instance("path", {"k": 60}, 0).graph
    d, l = 0.5, 0.15
    candidates = pivot_set(g, 0, 60, d, l)
    index = {v: i for i, v in enumerate(candidates)}
    counts = np.zeros(len(candidates))
    for k in range(100_000):
        counts[index[sample_pivot(g, 0, 60, d, l, base, "c4pivot", k)]] += 1
    pvalue = stats.chisquare(counts).pvalue
    elapsed = time.perf_counter() - started
    assert pvalue > 1e-3
    assert elapsed < 120.0
    _report(4, "recursive walk validity and pivot law", elapsed, 120,
            f"{walks} walks valid, chi2 p={pvalue:.3f}")


def test_criterion_05_inactive_call_identity():
    started = time.perf_counter()
    gamma = 0.1
    gen = np.random.default_rng(SEED)
    checked = 0
    while checked < 1000:
        length = int(gen.integers(11, 17))
        mid = int(gen.integers(2, length - 2))
        depth = int(8 * gamma * length + 2 + gen.integers(0, 4))
        edges = [(i, i + 1) for i in range(length)]
        prev = mid
        for d_ in range(depth):
            edges.append((prev, length + 1 + d_))
            prev = length + 1 + d_
        g = WeightedMultigraph(length + 1 + depth, tuple(edges))
        e = g.m - 1
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
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    _report(5, "inactive-call pivot identity", elapsed, 30, f"{checked} configurations, exact equality")


def test_criterion_06_lip_sp_per_sample_approximation():
    started = time.perf_counter()
    chunks = [(i * 125, (i + 1) * 125) for i in range(8)]
    ctx = multiprocessing.get_context("fork")
    with ctx.Pool(2) as pool:
        results = pool.map(_criterion6_chunk, chunks)
    violations = sum(r[0] for r in results)
    runs = sum(r[2] for r in results)
    elapsed = time.perf_counter() - started
    assert violations == 0
    assert runs == 1000 * 100 * 2
    assert elapsed < 60.0
    _report(6, "weighted SP per-sample approximation", elapsed, 60, f"{runs} runs, 0 violations")


def test_criterion_07_gadget_rounding_trichotomy():
    started = time.perf_counter()
    base = RandomStream(SEED)
    gen = base.generator("c7")
    n = 100_000
    w = gen.random(n) * 9.9 + 0.1
    b = gen.random(n) * 0.5 + 0.05
    delta = gen.random(n) * b  # delta <= b always
    x = gen.random(n)
    # rounded_lengths is scalar in b; apply elementwise via the identity
    # floor(w/b) = floor((w/b)/1): rescale weights by b
    _, hat1 = rounded_lengths(w / b, 1.0, x)
    x2 = shift_wrap(x, delta / b)
    _, hat2 = rounded_lengths((w + delta) / b, 1.0, x2)
    jumped = hat2 - hat1
    expected = (x <= delta / b).astype(int)
    mismatches = int(np.sum(jumped != expected))
    assert mismatches == 0
    # integration through the full coupled construction on a graph
    inst = gen_instance("random-gnm", {"n": 5, "m": 7, "w_min": 1, "w_max": 3}, 77)
    g, wv = inst.graph, inst.weights
    opt = dijkstra(g, wv, 0)[0][4]
    eps = 0.5
    graph_checks = 0
    for seed in range(2000):
        stream = base.sub("c7g", seed)
        f = seed % g.m
        dlt = (0.2 + 0.7 * stream.random("d")) * eps * opt / (12 * g.n)
        cr = coupled_rounding_st(g, wv, 0, 4, f, dlt, eps, stream)
        if cr.b1 != cr.b2:
            continue
        want = 1 if cr.x1[f] <= dlt / cr.b1 else 0
        assert cr.hat2[f] - cr.hat1[f] == want
        assert all(cr.hat1[e] == cr.hat2[e] for e in range(g.m) if e != f)
        graph_checks += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 20.0
    _report(7, "gadget rounding trichotomy", elapsed, 20,
            f"{n} vectorized + {graph_checks} graph-coupled checks, 0 violations")


def test_criterion_08_mwm_exact_coupling():
    started = time.perf_counter()
    inst = gen_instance("random-gnm", {"n": 7, "m": 12, "w_min": 1, "w_max": 9}, 88)
    g, w = inst.graph, inst.weights
    alpha = 2.1
    f = 3
    delta = 0.05
    base = RandomStream(SEED)
    crossings = 0
    n = 10_000
    for seed in range(n):
        m1, m2, crossed = coupled_lip_mwm(g, w, f, delta, alpha, base.sub("c8", seed))
        if crossed:
            crossings += 1
        else:
            assert m1.edges == m2.edges
    bound = 1.5 * delta * alpha**2 / w[f]
    sigma = math.sqrt(bound * (1 - bound) / n)
    elapsed = time.perf_counter() - started
    assert crossings / n <= bound + 3 * sigma
    assert elapsed < 30.0
    _report(8, "matching exact coupling", elapsed, 30,
            f"{n} coupled seeds, identical off-crossing, crossing rate {crossings / n:.4f} <= {bound + 3 * sigma:.4f}")


def test_criterion_09_mwm_ratio():
    started = time.perf_counter()
    eps = 0.1
    alpha = 2.0 + eps
    base = RandomStream(SEED)
    n_seeds = 10_000
    worst_margin = float("inf")
    for gidx in range(50):
        n = 4 + gidx % 5
        m = min(12, n * (n - 1) // 2, n + 2 + gidx % 4)
        inst = gen_instance(
            "random-gnm", {"n": n, "m": m, "w_min": 1, "w_max": 9}, 5000 + gidx
        )
        g, w = inst.graph, inst.weights
        _, opt = exact_max_weight_matching(g, w)
        values = np.empty(n_seeds)
        for seed in range(n_seeds):
            values[seed] = lip_mwm(g, w, alpha, base.sub("c9", gidx, seed)).weight(w)
        mean = values.mean() / opt
        sigma = values.std(ddof=1) / math.sqrt(n_seeds) / opt
        margin = mean - (1.0 / (4.0 * alpha) - 3.0 * sigma)
        worst_margin = min(worst_margin, margin)
        assert margin >= 0.0
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    _report(9, "matching expected ratio", elapsed, 60,
            f"50 graphs x {n_seeds} seeds, worst margin {worst_margin:.3f}")


def test_criterion_10_lp_correctness_and_stability():
    started = time.perf_counter()
    gen = np.random.default_rng(SEED)
    base = RandomStream(SEED)
    eps = 0.1
    for idx in range(1000):
        nu = int(gen.integers(1, 7))
        nv = int(gen.integers(2, 9))
        w = gen.random((nu, nv)) * 3
        _, opt = hungarian_bipartite(w)
        if opt <= 0:
            continue
        res = plip_mwbm(nu, nv, w, eps, base.sub("c10", idx))
        assert res.lp.max_violation <= 1e-7
        assert res.lp.comp_slack <= 1e-7
        assert float((w * res.lp.x).sum()) >= (1 - 2 * eps) * opt - 1e-7
    for idx in range(1000):
        nu, nv = int(gen.integers(2, 6)), int(gen.integers(2, 8))
        w = gen.random((nu, nv))
        b_reg = float(gen.random() * 0.15 + 0.02)
        f = (int(gen.integers(nu)), int(gen.integers(nv)))
        lhs, bound = lp_stability_check(nu, nv, w, f, 1e-3, b_reg)
        assert lhs <= bound + 1e-6
    elapsed = time.perf_counter() - started
    assert elapsed < 120.0
    _report(10, "regularized LP correctness and stability", elapsed, 120,
            "1000 KKT/value checks + 1000 stability perturbations, 0 violations")


def test_criterion_11_rounding_analysis():
    started = time.perf_counter()
    gen = np.random.default_rng(SEED)
    worst = float("inf")
    for _ in range(10_000):
        n = int(gen.integers(1, 9))
        y = gen.random(n)
        scale = gen.random()
        total = y.sum()
        if total > 0:
            y *= scale / total
        value = collision_value(y)
        worst = min(worst, value)
        assert value >= 0.5 - 1e-12
    assert collision_value([1.0]) == 0.5  # the boundary case
    # rounding marginals at 1e6 draws through the inverse-CDF row sampler
    x = np.array([[0.25, 0.4, 0.2], [0.5, 0.1, 0.35], [0.05, 0.0, 0.6]])
    n_draws = 10**6
    base = RandomStream(SEED)
    for i in range(x.shape[0]):
        us = base.generator("c11", i).random(n_draws)
        cdf = np.cumsum(x[i])
        js = np.searchsorted(cdf, us, side="right")
        for j in range(x.shape[1]):
            p_hat = float(np.mean(js == j))
            sigma = math.sqrt(max(x[i, j] * (1 - x[i, j]), 1e-12) / n_draws)
            assert abs(p_hat - x[i, j]) <= 4 * sigma + 1e-9
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    _report(11, "rounding analysis", elapsed, 60,
            f"collision value >= 1/2 on 10000 vectors (min {worst:.4f}); marginals within 4 sigma")


def test_criterion_12_bipartite_matching_ratio():
    started = time.perf_counter()
    work = []
    for shape_idx in range(2):
        for k in range(4):
            work.append((shape_idx, k * 2500, (k + 1) * 2500))
    ctx = multiprocessing.get_context("fork")
    with ctx.Pool(2) as pool:
        results = pool.map(_criterion12_chunk, work)
    eps = 0.05
    for shape_idx, (nu, nv) in enumerate(((3, 4), (5, 5))):
        count = sum(r[1] for r in results if r[0] == shape_idx)
        total = sum(r[2] for r in results if r[0] == shape_idx)
        total_sq = sum(r[3] for r in results if r[0] == shape_idx)
        mean = total / count
        var = max(total_sq / count - mean * mean, 0.0)
        sigma = math.sqrt(var / count)
        assert count == 10_000
        assert mean >= 0.5 - eps - 3 * sigma
    elapsed = time.perf_counter() - started
    assert elapsed < 120.0
    _report(12, "bipartite matching expected ratio", elapsed, 120,
            "2 instances x 10000 seeds, mean ratio above 0.5 - eps - 3 sigma")


def test_criterion_13_lower_bound_wall():
    started = time.perf_counter()
    base = RandomStream(SEED)
    trials = 4000
    # stability lower-bound instance: two parallel unit edges; perturbing
    # one down by 10*eps forces nearly all probability onto it
    ratios = []
    epsilons = (0.02, 0.04, 0.08)
    for eps in epsilons:
        g = WeightedMultigraph(2, ((0, 1), (0, 1)))
        w1 = np.array([1.0, 1.0 - 10.0 * eps])
        w2 = np.array([1.0, 1.0])
        delta = 10.0 * eps
        s1 = [
            lip_mst(g, w1, eps, base.sub("c13a", repr(eps), k)).tree.multiset
            for k in range(trials)
        ]
        s2 = [
            lip_mst(g, w2, eps, base.sub("c13b", repr(eps), k)).tree.multiset
            for k in range(trials)
        ]
        emd, _ = emd_between_samples(s1, s2, weighted_cost(w1, w2))
        ratios.append(emd / delta)
    xs = np.array([1.0 / e for e in epsilons])
    ys = np.array(ratios)
    c = float((xs * ys).sum() / (xs * xs).sum())
    predicted = c * xs
    ss_res = float(((ys - predicted) ** 2).sum())
    ss_tot = float(((ys - ys.mean()) ** 2).sum())
    r2 = 1.0 - ss_res / ss_tot
    assert c > 0
    assert r2 > 0.9
    # matching wall: flipping the unit weight between two parallel edges
    g8 = gen_instance("gadget-thm8", {}, 0).graph
    wa = np.array([1.0, 0.0])
    wb = np.array([0.0, 1.0])
    alpha = 2.1
    sa = [lip_mwm(g8, wa, alpha, base.sub("c13m", "a", k)).multiset for k in range(trials)]
    sb = [lip_mwm(g8, wb, alpha, base.sub("c13m", "b", k)).multiset for k in range(trials)]
    emd, _ = emd_between_samples(sa, sb, weighted_cost(wa, wb))
    matching_ratio = emd / 2.0
    elapsed = time.perf_counter() - started
    assert matching_ratio >= 0.3
    assert elapsed < 60.0
    _report(13, "lower-bound wall", elapsed, 60,
            f"1/eps fit c={c:.3f}, R2={r2:.3f}; matching ratio {matching_ratio:.2f} >= 0.3")


def test_criterion_14_determinism(tmp_path):
    started = time.perf_counter()
    inst = gen_instance("random-gnm", {"n": 8, "m": 13, "w_min": 1, "w_max": 9}, 4)
    cfg = ExperimentConfig(
        algorithm="mst",
        instance=inst,
        grid=(
            {"epsilon": 0.1},
            {"epsilon": 0.4, "delta": 0.05, "edge": 2, "metric": "weighted"},
        ),
        trials=120,
        seed=31,
    )
    assert run_experiment(cfg) == run_experiment(cfg)
    cfg_mwm = ExperimentConfig(
        algorithm="mwm", instance=inst, grid=({"alpha": 2.1},), trials=200, seed=5
    )
    assert run_experiment(cfg_mwm) == run_experiment(cfg_mwm)
    # end to end through the CLI
    from lipgraph.cli import main as cli_main

    gpath = tmp_path / "g.txt"
    gpath.write_text(write_edge_list(inst.graph, inst.weights))
    outs = []
    for name in ("a.csv", "b.csv"):
        out = tmp_path / name
        code = cli_main(
            ["sp", "--input", str(gpath), "--source", "0", "--target", "7",
             "--epsilon", "0.5", "--trials", "40", "--seed", "9",
             "--csv", str(out), "--quiet"]
        )
        assert code == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]
    elapsed = time.perf_counter() - started
    _report(14, "determinism", elapsed, 60, "byte-identical CSV for repeated seeds")
