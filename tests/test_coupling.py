"""Coupling primitives: exact marginals, maximal agreement probability;
coupled pairs whose first run is the single-sample run."""

import numpy as np
import pytest
from scipy import stats

from lipgraph.bmatch import coupled_plip_mwbm, plip_mwbm
from lipgraph.coupling import (
    couple_discrete,
    max_overlap_uniform_pair,
    shift_wrap,
    uniform_partner,
    uniform_tv,
)
from lipgraph.exact import dijkstra
from lipgraph.harness import gen_instance
from lipgraph.lip_sp import coupled_lip_sp, lip_sp
from lipgraph.mst import coupled_lip_mst, coupled_plip_mst, lip_mst, plip_mst
from lipgraph.mwm import coupled_lip_mwm, lip_mwm
from lipgraph.rng import RandomStream

N = 200_000


def _draws(seed, n=N):
    gen = np.random.default_rng(seed)
    return gen.random(n), gen.random(n)


def test_uniform_tv_formula():
    # overlapping same-length intervals shifted by delta: TV = delta / len
    assert uniform_tv(0.0, 1.0, 0.25, 1.25) == pytest.approx(0.25)
    # disjoint
    assert uniform_tv(0.0, 1.0, 2.0, 3.0) == 1.0
    # nested different lengths: overlap 1, max len 2
    assert uniform_tv(0.0, 2.0, 0.5, 1.5) == pytest.approx(0.5)


INTERVALS = [
    ((1.0, 1.5), (1.1, 1.65)),  # multiplicative-noise shape
    ((0.0, 1.0), (0.25, 1.25)),  # equal length shift
    ((0.0, 1.0), (2.0, 3.5)),  # disjoint
    ((0.0, 2.0), (0.5, 1.5)),  # nested
    ((3.0, 3.0), (3.0, 4.0)),  # degenerate first interval
]


@pytest.mark.parametrize("i1,i2", INTERVALS)
def test_max_overlap_marginals_and_agreement(i1, i2):
    u, a = _draws(1)
    x, y = max_overlap_uniform_pair(u, a, i1[0], i1[1], i2[0], i2[1])
    # marginal of x is U[i1], of y is U[i2]: compare against a KS test
    if i1[1] > i1[0]:
        ks = stats.kstest((x - i1[0]) / (i1[1] - i1[0]), "uniform")
        assert ks.pvalue > 1e-4
        assert x.min() >= i1[0] - 1e-12 and x.max() <= i1[1] + 1e-12
    else:
        assert np.all(x == i1[0])
    if i2[1] > i2[0]:
        ks = stats.kstest((y - i2[0]) / (i2[1] - i2[0]), "uniform")
        assert ks.pvalue > 1e-4
    # agreement frequency equals 1 - TV within Monte Carlo error
    p_eq = 1.0 - uniform_tv(*i1, *i2)
    freq = float(np.mean(x == y))
    sigma = np.sqrt(max(p_eq * (1 - p_eq), 1e-12) / N)
    assert abs(freq - p_eq) <= 5 * sigma + 1e-9


@pytest.mark.parametrize("i1,i2", INTERVALS)
def test_scalar_uniform_partner_is_the_array_path_elementwise(i1, i2):
    u, a = _draws(3, 2000)
    (lo1, hi1), (lo2, hi2) = i1, i2
    # add the interval ends, the overlap ends and accepts at 0, at the keep
    # probability (0.5 where it is 1: accepts lie in [0, 1)) and just below
    # it and 1
    ratio = (hi1 - lo1) / (hi2 - lo2)
    keep = ratio if ratio < 1.0 else 0.5
    edges = [lo1, max(lo1, lo2), min(hi1, hi2), np.nextafter(hi1, lo1)]
    x = np.concatenate([lo1 + u * (hi1 - lo1), np.repeat(edges, 4)])
    a = np.concatenate([a, np.tile([0.0, keep, np.nextafter(keep, 0.0), np.nextafter(1.0, 0.0)], 4)])
    y = uniform_partner(x, a, lo1, hi1, lo2, hi2)
    for xi, ai, yi in zip(x.tolist(), a.tolist(), y.tolist()):
        scalar = uniform_partner(xi, ai, lo1, hi1, lo2, hi2)
        assert type(scalar) is float
        assert scalar.hex() == yi.hex()


def test_max_overlap_scalar_mode():
    x, y = max_overlap_uniform_pair(0.3, 0.9, 0.0, 1.0, 0.5, 1.5)
    assert isinstance(x, float) and isinstance(y, float)
    x2, y2 = max_overlap_uniform_pair(0.7, 0.0, 0.0, 1.0, 0.5, 1.5)
    assert x2 == y2 == 0.7  # a first draw inside the overlap is kept


def test_max_overlap_identical_intervals_always_agree():
    u, a = _draws(2, 10_000)
    x, y = max_overlap_uniform_pair(u, a, 2.0, 5.0, 2.0, 5.0)
    assert np.array_equal(x, y)
    assert np.all((x >= 2.0) & (x < 5.0))


def test_shift_wrap_is_measure_preserving_bijection():
    u, _ = _draws(3, 50_000)
    frac = 0.3
    out = shift_wrap(u, frac)
    assert np.all((out >= 0) & (out < 1))
    ks = stats.kstest(out, "uniform")
    assert ks.pvalue > 1e-4
    # wrap branch exactly when u <= frac
    assert np.array_equal(out < 1.0 - frac, u > frac)


def test_shift_wrap_scalar():
    assert shift_wrap(0.5, 0.2) == pytest.approx(0.3)
    assert shift_wrap(0.1, 0.2) == pytest.approx(0.9)


def test_couple_discrete_marginals_and_agreement():
    pmf1 = np.array([0.5, 0.3, 0.2])
    pmf2 = np.array([0.2, 0.3, 0.5])
    gen = np.random.default_rng(4)
    n = 100_000
    us, accs = gen.random(n), gen.random(n)
    eq = 0
    counts1 = np.zeros(3)
    counts2 = np.zeros(3)
    for u, acc in zip(us, accs):
        i, j = couple_discrete(u, acc, pmf1, pmf2)
        counts1[i] += 1
        counts2[j] += 1
        eq += i == j
    p_eq = np.minimum(pmf1, pmf2).sum()
    assert abs(eq / n - p_eq) < 0.006
    assert np.allclose(counts1 / n, pmf1, atol=0.006)
    assert np.allclose(counts2 / n, pmf2, atol=0.006)


def test_couple_discrete_identical_distributions():
    pmf = np.array([0.25, 0.75])
    for u in (0.1, 0.6, 0.9):
        i, j = couple_discrete(u, 0.99, pmf, pmf)
        assert i == j


# --- the first run of a coupled pair is the single-sample run ----------------

GNM = gen_instance("random-gnm", {"n": 7, "m": 12}, 3)
SP_DELTA = 0.5 * 0.5 * dijkstra(GNM.graph, GNM.weights, 0)[0][6] / (12 * GNM.graph.n)
BIP = np.random.default_rng(1).random((4, 5))

SIDE_ONE = {
    "mst": (lambda rs: coupled_lip_mst(GNM.graph, GNM.weights, 4, 0.5, 0.5, rs)[0],
            lambda rs: lip_mst(GNM.graph, GNM.weights, 0.5, rs).tree),
    "pmst": (lambda rs: coupled_plip_mst(GNM.graph, GNM.weights, 4, 0.5, 0.5, rs)[0].tree,
             lambda rs: plip_mst(GNM.graph, GNM.weights, 0.5, rs).tree),
    "sp": (lambda rs: coupled_lip_sp(GNM.graph, GNM.weights, 0, 6, 4, SP_DELTA, 0.5, rs)[0],
           lambda rs: lip_sp(GNM.graph, GNM.weights, 0, 6, 0.5, rs)),
    "mwm": (lambda rs: coupled_lip_mwm(GNM.graph, GNM.weights, 4, 0.5, 2.1, rs)[0],
            lambda rs: lip_mwm(GNM.graph, GNM.weights, 2.1, rs)),
    "bmatch": (lambda rs: coupled_plip_mwbm(4, 5, BIP, (1, 2), 0.05, 0.1, rs)["matching1"],
               lambda rs: plip_mwbm(4, 5, BIP, 0.1, rs).matching),
}


@pytest.mark.parametrize("name", sorted(SIDE_ONE))
def test_coupled_first_run_is_the_single_run(name):
    # the coupling keeps the unperturbed run's draws and derives only the
    # perturbed run from them, so side 1 is the single-sample output
    coupled, single = SIDE_ONE[name]
    for seed in range(300):
        assert coupled(RandomStream(seed)) == single(RandomStream(seed)), seed
