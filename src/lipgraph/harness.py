"""Experiment orchestration: instances, stability estimators, CSV reports.

Two estimators are reported for every perturbation experiment:

* coupled upper bound: paired runs sharing a keyed stream, mean output
  distance over pairs divided by the perturbation size;
* empirical EMD: independent sampling into empirical distributions, exact
  transportation distance between them, divided by the perturbation size.

The coupled mean is an unbiased estimate of an upper bound on the true
EMD, since a coupling is feasible for the minimum.  The plug-in EMD between
two finite samples is biased upward (by roughly 1/sqrt(trials) when the
output supports are wide; Fournier & Guillin, PTRF 2015), so on correct
runs it can lie far above the coupled estimate.  ``--check`` asserts

    coupled + 3 (coupled_stderr + emd_stderr) >= emd - null_p - null_q,

where null_p (null_q) is the EMD between the two halves of the unperturbed
(perturbed) samples.  By the triangle inequality and convexity, the nulls
bound the plug-in bias in expectation, so the check holds on correct runs
up to Monte Carlo error.
"""

from __future__ import annotations

import math
import time
from collections import Counter, namedtuple
from dataclasses import dataclass
from operator import attrgetter

import numpy as np

from .contraction_sp import sp
from .errors import BadParams, InvalidEdge
from .exact import _dijkstra, _hungarian, _kruskal, exact_max_weight_matching
from .graphs import (
    ContractionResult,
    WeightedMultigraph,
    check_edge,
    check_vertex,
    check_weights,
    contract_edge,
    read_bipartite,
    read_edge_list,
)
from .metrics import EdgeSetDistribution, emd_empirical, unweighted_cost, weighted_cost
from .mst import _coupled_lip_mst, _coupled_plip_mst, _lip_mst, _plip_mst
from .mwm import _coupled_lip_mwm, _lip_mwm
from .bmatch import coupled_plip_mwbm, plip_mwbm
from .lip_sp import _coupled_lip_sp, _lip_sp
from .rng import RandomStream

CSV_SCHEMA_VERSION = "lipgraph-csv v1"

CSV_COLUMNS = (
    "algorithm",
    "instance",
    "n",
    "m",
    "epsilon",
    "alpha",
    "gamma_override",
    "delta",
    "edge",
    "metric",
    "trials",
    "seed",
    "ratio_mean",
    "ratio_max",
    "guarantee",
    "violations",
    "coupled_estimate",
    "coupled_stderr",
    "coupled_ratio",
    "emd_estimate",
    "emd_stderr",
    "emd_ratio",
)


@dataclass(frozen=True)
class GraphInstance:
    graph: WeightedMultigraph
    weights: np.ndarray
    name: str


@dataclass(frozen=True)
class BipartiteInstance:
    weights: np.ndarray
    name: str


@dataclass(frozen=True)
class LipschitzEstimate:
    metric: str
    delta: float | None
    trials: int
    coupled_mean: float
    coupled_stderr: float
    emd: float
    emd_stderr: float

    @property
    def coupled_ratio(self) -> float:
        return self.coupled_mean / self.delta if self.delta else self.coupled_mean

    @property
    def emd_ratio(self) -> float:
        return self.emd / self.delta if self.delta else self.emd


def gen_instance(kind: str, params: dict | None, seed: int):
    """Deterministic instance generator; same (kind, params, seed) -> same instance."""
    params = dict(params or {})
    rng = RandomStream(seed, ("gen", kind))

    def take(name, default=None):
        if name in params:
            return params.pop(name)
        if default is None:
            raise BadParams(f"{kind} requires parameter {name!r}")
        return default

    if kind == "path":
        k = int(take("k"))
        if k < 1:
            raise BadParams("path needs k >= 1 edges")
        g = WeightedMultigraph(k + 1, tuple((i, i + 1) for i in range(k)))
        inst = GraphInstance(g, np.ones(k), f"path({k})")
    elif kind == "cycle":
        n = int(take("n"))
        if n < 3:
            raise BadParams("cycle needs n >= 3")
        g = WeightedMultigraph(n, tuple((i, (i + 1) % n) for i in range(n)))
        inst = GraphInstance(g, np.ones(n), f"cycle({n})")
    elif kind == "grid":
        rows, cols = int(take("rows")), int(take("cols"))
        if rows < 1 or cols < 1:
            raise BadParams("grid needs positive rows and cols")
        edges = []
        for r in range(rows):
            for c in range(cols):
                v = r * cols + c
                if c + 1 < cols:
                    edges.append((v, v + 1))
                if r + 1 < rows:
                    edges.append((v, v + cols))
        g = WeightedMultigraph(rows * cols, tuple(edges))
        inst = GraphInstance(g, np.ones(len(edges)), f"grid({rows}x{cols})")
    elif kind == "random-gnm":
        n, m = int(take("n")), int(take("m"))
        w_min = float(take("w_min", 1.0))
        w_max = float(take("w_max", 9.0))
        integer = bool(take("integer", True))
        if n < 2 or m < n - 1:
            raise BadParams("random-gnm needs n >= 2 and m >= n-1")
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        if m > len(pairs):
            raise BadParams("random-gnm: m exceeds simple-graph capacity")
        for attempt in range(1000):
            sub = rng.sub("attempt", attempt)
            perm = sub.permutation(len(pairs), "edges")
            edges = tuple(pairs[i] for i in sorted(perm[:m]))
            g = WeightedMultigraph(n, edges)
            if g.is_connected():
                break
        else:
            raise BadParams("random-gnm: could not draw a connected graph")
        if integer:
            lo, hi = int(w_min), int(w_max)
            w = np.array([lo + sub.randint(hi - lo + 1, "w", e) for e in range(m)], dtype=float)
        else:
            w = np.array([sub.uniform(w_min, w_max, "w", e) for e in range(m)])
        inst = GraphInstance(g, w, f"random-gnm({n}x{m})")
    elif kind == "gadget-thm1":
        g = WeightedMultigraph(2, ((0, 1), (0, 1)))
        inst = GraphInstance(g, np.array([0.0, 1.0]), "gadget-thm1")
    elif kind == "gadget-thm6":
        eps = float(take("epsilon"))
        if not (0 < eps < 0.1):
            raise BadParams("gadget-thm6 needs epsilon in (0, 0.1)")
        g = WeightedMultigraph(2, ((0, 1), (0, 1)))
        inst = GraphInstance(g, np.array([1.0, 1.0 - 10.0 * eps]), f"gadget-thm6({eps})")
    elif kind == "gadget-thm8":
        g = WeightedMultigraph(2, ((0, 1), (0, 1)))
        inst = GraphInstance(g, np.array([1.0, 0.0]), "gadget-thm8")
    elif kind == "bipartite-random":
        nu, nv = int(take("nU")), int(take("nV"))
        w_min = float(take("w_min", 0.0))
        w_max = float(take("w_max", 1.0))
        if nu < 1 or nv < 1:
            raise BadParams("bipartite-random needs positive sides")
        w = np.array(
            [[rng.uniform(w_min, w_max, "w", i, j) for j in range(nv)] for i in range(nu)]
        )
        inst = BipartiteInstance(w, f"bipartite-random({nu}x{nv})")
    else:
        raise BadParams(f"unknown instance kind {kind!r}")
    if params:
        raise BadParams(f"unused parameters for {kind}: {sorted(params)}")
    return inst


# ---------------------------------------------------------------------------
# algorithm adapters


Algorithm = namedtuple("Algorithm", "run value bound pair violates multiset", defaults=(attrgetter("multiset"),))


def _multisets(*outs):
    return tuple(out.multiset for out in outs)


def _over_value(val, opt, guarantee) -> bool:
    return val > guarantee * opt + 1e-9


def _ratio(val, opt) -> float:
    return val / opt if opt > 0 else (1.0 if val == 0 else math.inf)


def _algorithm(alg: str, g, point: dict) -> Algorithm:
    """The harness's one table: an algorithm at one grid point, on graph
    ``g`` or, for bmatch, shape (nU, nV), where cell (i, j) is edge i * nV + j.

    ``run(w, stream)`` returns one output, ``multiset(out)`` its edges,
    ``value(out, w)`` its objective value, and ``bound(w)`` the exact
    optimum with the guarantee column's value.  ``pair(w, f, delta,
    stream)`` returns the multisets of a coupled pair of runs on w and on w
    with edge f moved by delta (down for mwm); sp-unweighted has none.
    ``violates(value, opt, guarantee)`` is the per-sample guarantee's test,
    None where the guarantee holds only in expectation.  Estimators never
    call ``bound``, the only exact solve.  Cores trust their weights and
    edge ids: the callers apply the rules.  Defaults are resolved into
    ``point``, a dict of the caller's own: mwm's alpha is 2 + epsilon.
    """
    if alg == "mst":
        eps = point["epsilon"]
        return Algorithm(lambda w, rs: _lip_mst(g, w, eps, rs).tree, lambda out, w: out.weight(w),
                         lambda w: (_kruskal(g, w).weight(w), 1.0 + eps),
                         lambda w, f, d, rs: _multisets(*_coupled_lip_mst(g, w, f, d, eps, rs)), _over_value)
    if alg == "pmst":
        eps = point["epsilon"]
        return Algorithm(lambda w, rs: _plip_mst(g, w, eps, rs).tree, lambda out, w: out.weight(w),
                         lambda w: (_kruskal(g, w).weight(w), 1.0 + eps),
                         lambda w, f, d, rs: _multisets(*(r.tree for r in _coupled_plip_mst(g, w, f, d, eps, rs))),
                         _over_value)
    if alg in ("sp", "sp-unweighted"):
        eps, s, t = point["epsilon"], check_vertex(g, point["source"]), check_vertex(g, point["target"])
        if alg == "sp":
            return Algorithm(lambda w, rs: _lip_sp(g, w, s, t, eps, rs), lambda out, w: out.weighted_length(w),
                             lambda w: (_dijkstra(g.adjacency, w, s)[0][t], 1.0 + eps),
                             lambda w, f, d, rs: _multisets(*_coupled_lip_sp(g, w, s, t, f, d, eps, rs)), _over_value)
        override = point.get("gamma_override")

        def bound(w):
            opt = g.hop_dist(s)[t]
            if override is None:
                return opt, 1.0 + eps
            return opt, float(opt) ** (1.0 + 14.0 * override) / opt if opt > 0 else 1.0

        return Algorithm(lambda w, rs: sp(g, s, t, eps, rs, gamma_override=override),
                         lambda out, w: len(out), bound, None,
                         lambda val, opt, guarantee: _ratio(val, opt) > guarantee + 1e-9)
    if alg == "mwm":
        if point.get("alpha") is None:
            point["alpha"] = 2.0 + point["epsilon"]
        alpha = point["alpha"]
        if not 2 < alpha < math.inf:  # checked here too: bound() divides by alpha before any run
            raise BadParams("alpha must exceed 2 and be finite")
        return Algorithm(lambda w, rs: _lip_mwm(g, w, alpha, rs), lambda out, w: out.weight(w),
                         lambda w: (exact_max_weight_matching(g, w)[1], 1.0 / (4.0 * alpha)),
                         lambda w, f, d, rs: _multisets(*_coupled_lip_mwm(g, w, f, d, alpha, rs)[:2]), None)
    if alg == "bmatch":
        eps, nv = point["epsilon"], g[1]

        def cells(matching):
            return Counter({i * nv + j: 1 for i, j in matching})

        def pair(w, f, delta, rs):
            out = coupled_plip_mwbm(*g, w, f, delta, eps, rs)
            return cells(out["matching1"]), cells(out["matching2"])

        return Algorithm(lambda w, rs: plip_mwbm(*g, w, eps, rs), lambda out, w: out.weight(w),
                         lambda w: (_hungarian(w)[1], 0.5 - eps), pair, None, lambda out: cells(out.matching))
    raise BadParams(f"unknown algorithm {alg!r}")


def _mean_stderr(values) -> tuple[float, float]:
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        return 0.0, 0.0
    if arr.size == 1:
        return float(arr[0]), 0.0
    return float(arr.mean()), float(arr.std(ddof=1) / math.sqrt(arr.size))


def emd_between_samples(samples1, samples2, cost) -> tuple[float, float]:
    """Plug-in EMD between two sample sets, and ``emd_stderr``.

    ``emd_stderr`` is the spread of four quarter-size plug-in EMDs (the
    sample standard deviation of the EMDs between matching quarters of the
    two lists) divided by 2.  It is not the error of the full-size EMD and
    does not measure the plug-in bias.  It is 0 below eight samples a side.
    """
    p = EdgeSetDistribution.from_samples(samples1)
    q = EdgeSetDistribution.from_samples(samples2)
    value = emd_empirical(p, q, cost)
    n = min(len(samples1), len(samples2))
    if n < 8:
        return value, 0.0
    per_batch = []
    size = n // 4
    for k in range(4):
        pk = EdgeSetDistribution.from_samples(samples1[k * size : (k + 1) * size])
        qk = EdgeSetDistribution.from_samples(samples2[k * size : (k + 1) * size])
        per_batch.append(emd_empirical(pk, qk, cost))
    return value, float(np.std(per_batch, ddof=1) / 2.0)


def _estimate(metric, delta, trials, seed, pair, single, cost):
    """Coupled and empirical-EMD estimates from one keyed stream.

    Side "p" is the unperturbed instance and "q" the perturbed one.
    ``pair(stream)`` returns a coupled (p, q) pair of output multisets,
    ``single(side, stream)`` one independent output of a side, and
    ``cost(a, b)`` the distance between outputs of sides a and b.  Returns
    the estimate and ``null()``: the summed EMD between the two equal halves
    of each side's samples (an odd last sample is left out, so both halves
    stay on the assignment solver), which bounds the plug-in EMD's sampling
    bias in expectation.  Nothing is solved for the null unless it is called.
    """
    base = RandomStream(seed)
    pq = cost("p", "q")
    coupled = _mean_stderr([pq(*pair(base.sub("coupled", k))) for k in range(trials)])
    samples = {side: [single(side, base.sub("ind", side, k)) for k in range(trials)] for side in "pq"}
    emd = emd_between_samples(samples["p"], samples["q"], pq)

    def null() -> float:
        h = trials // 2
        return sum(
            emd_empirical(
                EdgeSetDistribution.from_samples(s[:h]), EdgeSetDistribution.from_samples(s[h : 2 * h]),
                cost(side, side),
            )
            for side, s in samples.items()
        )

    return LipschitzEstimate(metric, delta, trials, *coupled, *emd), null


def estimate_lipschitz(
    alg: str,
    g: WeightedMultigraph,
    w,
    f: int,
    delta: float,
    trials: int,
    seed: int,
    metric: str = "weighted",
    point: dict | None = None,
) -> LipschitzEstimate:
    """Coupled and empirical-EMD stability estimates for one perturbation
    (for "bmatch", g is None and f a cell (i, j) of the matrix w)."""
    return _lipschitz(alg, g, w, f, delta, trials, seed, metric, point)[0]


def _lipschitz(alg, g, w, f, delta, trials, seed, metric, point):
    if not 0 < delta < math.inf:
        raise BadParams("delta must be positive and finite")
    if metric not in ("weighted", "unweighted"):
        raise BadParams("metric must be 'weighted' or 'unweighted'")
    w = check_weights(g, w)
    g = w.shape if g is None else g  # a bipartite matrix: its shape plays the graph's part
    f = check_edge(g, f)
    algo = _algorithm(alg, g, dict(point or {}))
    if algo.pair is None:
        raise BadParams(f"no coupled adapter for algorithm {alg!r}")
    w2 = w.copy()
    w2[f] += -delta if alg == "mwm" else delta  # matching drops the weight
    if w2[f] < 0:
        raise BadParams("downward perturbation below zero")
    ws = {"p": w, "q": w2}
    return _estimate(
        metric, delta, trials, seed,
        lambda stream: algo.pair(w, f, delta, stream),
        lambda side, stream: algo.multiset(algo.run(ws[side], stream)),
        # cell (i, j) is edge i * nV + j, its index in the flattened matrix
        lambda a, b: weighted_cost(ws[a].ravel(), ws[b].ravel()) if metric == "weighted" else unweighted_cost,
    )


def estimate_bipartite_pointwise(
    w,
    cell: tuple,
    delta: float,
    epsilon: float,
    trials: int,
    seed: int,
) -> LipschitzEstimate:
    """Pointwise stability of the bipartite matcher at one weight cell.

    Matchings are compared as sets of (row, col) cells under the plain
    symmetric-difference metric.  Coupled runs share (B, row, column)
    randomness; the EMD route samples both instances independently.
    """
    return _lipschitz("bmatch", None, w, cell, delta, trials, seed, "unweighted", {"epsilon": epsilon})[0]


def estimate_contraction_sensitivity(
    g: WeightedMultigraph,
    s: int,
    t: int,
    epsilon: float,
    e: int,
    gamma_override: float | None,
    trials: int,
    seed: int,
) -> LipschitzEstimate:
    """EMD between unweighted walk distributions on G and G/e.

    The contracted edge must not touch s or t.  Coupled pairs share the
    full keyed stream, so pivot draws align positionally across the two
    graphs; walks from G/e are translated back to original edge ids.
    """
    s, t = check_vertex(g, s), check_vertex(g, t)
    u, v = g.edges[check_edge(g, e)]
    if u in (s, t) or v in (s, t):
        raise InvalidEdge("contracted edge must not touch the endpoints")
    cres: ContractionResult = contract_edge(g, e)
    s2, t2 = cres.vertex_map[s], cres.vertex_map[t]
    walk = {
        "p": lambda stream: sp(g, s, t, epsilon, stream, gamma_override=gamma_override).multiset,
        "q": lambda stream: cres.multiset_to_original(
            sp(cres.graph, s2, t2, epsilon, stream, gamma_override=gamma_override).multiset
        ),
    }
    return _estimate(
        "unweighted", None, trials, seed,
        lambda stream: (walk["p"](stream), walk["q"](stream)),
        lambda side, stream: walk[side](stream),
        lambda a, b: unweighted_cost,
    )[0]


# ---------------------------------------------------------------------------
# experiment runner


@dataclass(frozen=True)
class ExperimentConfig:
    algorithm: str
    instance: object  # GraphInstance | BipartiteInstance
    grid: tuple  # tuple of dicts (param points)
    trials: int
    seed: int
    check: bool = False
    timing: bool = False

    def __post_init__(self):
        if self.trials < 1:
            raise BadParams("trials must be >= 1")
        for point in self.grid:
            if point.get("delta") is not None and not 0 < point["delta"] < math.inf:
                raise BadParams("delta must be positive and finite")


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    text = str(value)
    if "," in text or '"' in text:
        text = '"' + text.replace('"', '""') + '"'
    return text


class CheckFailure(Exception):
    """An invariant assertion failed under --check."""


def _point_row(config: ExperimentConfig, point: dict) -> dict:
    """Ratios against the exact optimum, then stability estimates if perturbed."""
    inst, trials, seed = config.instance, config.trials, config.seed
    bipartite = isinstance(inst, BipartiteInstance)
    w = check_weights(None if bipartite else inst.graph, inst.weights)
    alg, g = ("bmatch", w.shape) if bipartite else (config.algorithm, inst.graph)
    n, m = w.shape if bipartite else (g.n, g.m)
    point = dict(point)
    algo = _algorithm(alg, g, point)
    opt, guarantee = algo.bound(w)
    base = RandomStream(seed)
    ratios, violations = [], 0
    for k in range(trials):
        out = algo.run(w, base.sub("trial", k))
        val = algo.value(out, w)
        ratios.append(_ratio(val, opt))
        if algo.violates is not None:
            violations += algo.violates(val, opt, guarantee)
        if config.check:
            out.validate(g)
    row = {
        "algorithm": alg,
        "instance": inst.name,
        "n": n,
        "m": m,
        "epsilon": point.get("epsilon"),
        "alpha": point.get("alpha"),
        "gamma_override": point.get("gamma_override"),
        "delta": point.get("delta"),
        "edge": point.get("edge"),
        "metric": point.get("metric"),
        "trials": trials,
        "seed": seed,
        "ratio_mean": float(np.mean(ratios)),
        "ratio_max": float(np.max(ratios)),
        "guarantee": guarantee,
        "violations": None if algo.violates is None else violations,
    }

    est = null = None
    delta, edge = point.get("delta"), point.get("edge")
    if algo.pair is None:
        if point.get("contract_edge") is not None:  # contraction rows stay unchecked
            est = estimate_contraction_sensitivity(
                g, point["source"], point["target"], point["epsilon"], point["contract_edge"],
                point.get("gamma_override"), trials, seed,
            )
    elif delta is not None and edge is not None:
        est, null = _lipschitz(alg, g, w, edge, delta, trials, seed, point.get("metric", "weighted"), point)
    if est is not None:
        row.update(
            coupled_estimate=est.coupled_mean,
            coupled_stderr=est.coupled_stderr,
            coupled_ratio=est.coupled_ratio,
            emd_estimate=est.emd,
            emd_stderr=est.emd_stderr,
            emd_ratio=est.emd_ratio,
        )
    # the coupled mean bounds the true EMD, which is at least the plug-in EMD
    # less both sides' sampling error; the split-half nulls bound that error
    # in expectation, and one trial leaves no second half to form them
    if config.check and null is not None and trials > 1:
        if est.coupled_mean + 3.0 * (est.coupled_stderr + est.emd_stderr) < est.emd - null() - 1e-9:
            raise CheckFailure("coupled estimate fell below the EMD estimate less its sampling null")
    if config.check and violations:
        raise CheckFailure(f"{violations} per-sample guarantee violations")
    return row


def run_experiment(config: ExperimentConfig) -> str:
    """Execute the grid and return the CSV text.

    Byte-identical for identical (config, seed).  Wall time is only
    emitted when ``timing`` is set, since it would break reproducibility.
    """
    columns = CSV_COLUMNS + ("wall_time_s",) if config.timing else CSV_COLUMNS
    lines = [f"# {CSV_SCHEMA_VERSION}", ",".join(columns)]
    for point in config.grid:
        started = time.perf_counter()
        row = _point_row(config, point)
        if config.timing:
            row["wall_time_s"] = time.perf_counter() - started
        lines.append(",".join(_fmt(row.get(col)) for col in columns))
    return "\n".join(lines) + "\n"


def load_instance_file(path: str, bipartite: bool = False):
    """Read an instance file in the edge-list or bipartite matrix format."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    if bipartite:
        return BipartiteInstance(read_bipartite(text), name=path)
    g, w = read_edge_list(text)
    return GraphInstance(g, w, name=path)
