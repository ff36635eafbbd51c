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
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .contraction_sp import sp
from .errors import BadParams, InvalidEdge
from .exact import _dijkstra, _hungarian, _kruskal, exact_max_weight_matching
from .graphs import (
    ContractionResult,
    WeightedMultigraph,
    check_edge,
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


def _algorithm(alg: str, g, point: dict):
    """(run, value, bound) of one algorithm at one grid point.

    ``run(w, stream)`` returns one output (with a ``multiset``),
    ``value(out, w)`` its objective value, and ``bound(w)`` the exact
    optimum with the guarantee column's value.  The estimators use only
    ``run``, so no exact optimum is solved until ``bound`` is called.
    Graph weights must have passed ``check_weights``: cores trust them.
    """
    if alg in ("mst", "pmst"):
        eps, lip = point["epsilon"], _lip_mst if alg == "mst" else _plip_mst
        return (lambda w, rs: lip(g, w, eps, rs).tree, lambda out, w: out.weight(w),
                lambda w: (_kruskal(g, w).weight(w), 1.0 + eps))
    if alg == "sp":
        eps, s, t = point["epsilon"], point["source"], point["target"]
        return (lambda w, rs: _lip_sp(g, w, s, t, eps, rs), lambda out, w: out.weighted_length(w),
                lambda w: (_dijkstra(g.adjacency, w, s)[0][t], 1.0 + eps))
    if alg == "sp-unweighted":
        eps, s, t = point["epsilon"], point["source"], point["target"]
        override = point.get("gamma_override")

        def bound(w):
            opt = g.hop_dist(s)[t]
            if override is None:
                return opt, 1.0 + eps
            return opt, float(opt) ** (1.0 + 14.0 * override) / opt if opt > 0 else 1.0

        return lambda w, rs: sp(g, s, t, eps, rs, gamma_override=override), lambda out, w: len(out), bound
    if alg == "mwm":
        alpha = point["alpha"]
        if not 2 < alpha < math.inf:  # checked here too: bound() divides by alpha before any run
            raise BadParams("alpha must exceed 2 and be finite")
        return (lambda w, rs: _lip_mwm(g, w, alpha, rs), lambda out, w: out.weight(w),
                lambda w: (exact_max_weight_matching(g, w)[1], 1.0 / (4.0 * alpha)))
    if alg == "bmatch":
        eps = point["epsilon"]
        return (lambda w, rs: plip_mwbm(*w.shape, w, eps, rs), lambda out, w: out.weight(w),
                lambda w: (_hungarian(w)[1], 0.5 - eps))
    raise BadParams(f"unknown algorithm {alg!r}")


def _coupled_run(alg: str, g, w, f: int, delta: float, point: dict, stream: RandomStream):
    if alg == "mst":
        t1, t2 = _coupled_lip_mst(g, w, f, delta, point["epsilon"], stream)
        return t1.multiset, t2.multiset
    if alg == "pmst":
        r1, r2 = _coupled_plip_mst(g, w, f, delta, point["epsilon"], stream)
        return r1.tree.multiset, r2.tree.multiset
    if alg == "sp":
        w1, w2 = _coupled_lip_sp(
            g, w, point["source"], point["target"], f, delta, point["epsilon"], stream
        )
        return w1.multiset, w2.multiset
    if alg == "mwm":
        m1, m2, _ = _coupled_lip_mwm(g, w, f, delta, point["alpha"], stream)
        return m1.multiset, m2.multiset
    raise BadParams(f"no coupled adapter for algorithm {alg!r}")


def perturbation_direction(alg: str) -> int:
    """+1 bumps the weight up, -1 down (matching drops weights)."""
    return -1 if alg == "mwm" else 1


def _mean_stderr(values) -> tuple[float, float]:
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        return 0.0, 0.0
    if arr.size == 1:
        return float(arr[0]), 0.0
    return float(arr.mean()), float(arr.std(ddof=1) / math.sqrt(arr.size))


def emd_between_samples(samples1, samples2, cost, batches: int = 4) -> tuple[float, float]:
    """EMD between two sample sets plus a batched standard error."""
    p = EdgeSetDistribution.from_samples(samples1)
    q = EdgeSetDistribution.from_samples(samples2)
    value = emd_empirical(p, q, cost)
    n = min(len(samples1), len(samples2))
    if n < 2 * batches:
        return value, 0.0
    per_batch = []
    size = n // batches
    for k in range(batches):
        pk = EdgeSetDistribution.from_samples(samples1[k * size : (k + 1) * size])
        qk = EdgeSetDistribution.from_samples(samples2[k * size : (k + 1) * size])
        per_batch.append(emd_empirical(pk, qk, cost))
    spread = float(np.std(per_batch, ddof=1) / math.sqrt(batches))
    return value, spread


def _unweighted(a: str, b: str):
    return unweighted_cost


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
    """Coupled and empirical-EMD stability estimates for one perturbation."""
    return _lipschitz(alg, g, w, f, delta, trials, seed, metric, point)[0]


def _lipschitz(alg, g, w, f, delta, trials, seed, metric, point):
    if not 0 < delta < math.inf:
        raise BadParams("delta must be positive and finite")
    if metric not in ("weighted", "unweighted"):
        raise BadParams("metric must be 'weighted' or 'unweighted'")
    w = check_weights(g, w)
    f = check_edge(g, f)
    point = dict(point or {})
    w2 = w.copy()
    w2[f] += perturbation_direction(alg) * delta
    if w2[f] < 0:
        raise BadParams("downward perturbation below zero")
    run, ws = _algorithm(alg, g, point)[0], {"p": w, "q": w2}
    return _estimate(
        metric, delta, trials, seed,
        lambda stream: _coupled_run(alg, g, w, f, delta, point, stream),
        lambda side, stream: run(ws[side], stream).multiset,
        (lambda a, b: weighted_cost(ws[a], ws[b])) if metric == "weighted" else _unweighted,
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
    return _bipartite(w, cell, delta, epsilon, trials, seed)[0]


def _bipartite(w, cell, delta, epsilon, trials, seed):
    if not 0 < delta < math.inf:
        raise BadParams("delta must be positive and finite")
    w = check_weights(None, w)
    nu, nv = w.shape
    cell = check_edge(w.shape, cell)
    w2 = w.copy()
    w2[cell] += delta
    ws = {"p": w, "q": w2}

    def ids(matching):
        return Counter({i * nv + j: 1 for i, j in matching})

    def pair(stream):
        out = coupled_plip_mwbm(nu, nv, w, cell, delta, epsilon, stream)
        return ids(out["matching1"]), ids(out["matching2"])

    return _estimate(
        "unweighted", delta, trials, seed, pair,
        lambda side, stream: ids(plip_mwbm(nu, nv, ws[side], epsilon, stream).matching),
        _unweighted,
    )


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
        _unweighted,
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
    if bipartite:
        alg, g, (n, m), cell = "bmatch", None, w.shape, point.get("cell")
        point = {"epsilon": point["epsilon"], "delta": point.get("delta"), "edge": cell,
                 "metric": None if cell is None else "unweighted"}
    else:
        alg, g = config.algorithm, inst.graph
        n, m = g.n, g.m
        if alg == "mwm" and point.get("alpha") is None:
            point = dict(point, alpha=2.0 + point["epsilon"])
    run, value, bound = _algorithm(alg, g, point)
    opt, guarantee = bound(w)
    base = RandomStream(seed)
    ratios, violations = [], 0
    for k in range(trials):
        out = run(w, base.sub("trial", k))
        val = value(out, w)
        ratio = val / opt if opt > 0 else (1.0 if val == 0 else math.inf)
        ratios.append(ratio)
        if alg == "sp-unweighted":
            violations += ratio > guarantee + 1e-9
        elif alg in ("mst", "pmst", "sp"):
            violations += val > guarantee * opt + 1e-9
        if config.check and not bipartite:
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
        "violations": None if alg in ("mwm", "bmatch") else violations,
    }

    est = null = None
    delta, edge = point.get("delta"), point.get("edge")
    if alg == "sp-unweighted":
        if point.get("contract_edge") is not None:  # contraction rows stay unchecked
            est = estimate_contraction_sensitivity(
                g, point["source"], point["target"], point["epsilon"], point["contract_edge"],
                point.get("gamma_override"), trials, seed,
            )
    elif delta is not None and edge is not None:
        est, null = (
            _bipartite(w, tuple(edge), delta, point["epsilon"], trials, seed) if bipartite
            else _lipschitz(alg, g, w, edge, delta, trials, seed, point.get("metric", "weighted"), point)
        )
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
