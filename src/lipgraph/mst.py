"""Randomized minimum spanning tree with perturbation-stable output.

Two variants.  The multiplicative one samples each edge weight uniformly
from [w(e), (1+eps) w(e)] and returns the minimum spanning tree of the
sampled weights; every sample is a (1+eps)-approximation.  The additive
variant samples a common spread b proportional to eps * opt / (n-1) and
perturbs each weight uniformly in [w(e), w(e)+b]; it keeps the same
per-sample guarantee while making the output distribution stable in the
plain (unweighted) symmetric-difference sense.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .coupling import max_overlap_uniform_pair
from .errors import BadParams
from .exact import kruskal_mst
from .graphs import SpanningTree, WeightedMultigraph, check_weights
from .rng import RandomStream


@dataclass(frozen=True)
class LipMstResult:
    tree: SpanningTree
    hat_weights: np.ndarray


@dataclass(frozen=True)
class PlipMstResult:
    tree: SpanningTree
    b: float
    hat_weights: np.ndarray
    zero_optimum: bool = False


def sample_hat_weights(g: WeightedMultigraph, w, epsilon: float, rng: RandomStream) -> np.ndarray:
    """One multiplicative weight sample: hat_w(e) ~ U[w(e), (1+eps) w(e)]."""
    w = check_weights(g, w)
    hat = np.empty(g.m, dtype=float)
    for e in range(g.m):
        hat[e] = w[e] * (1.0 + epsilon * rng.random("w", e))
    return hat


def lip_mst(g: WeightedMultigraph, w, epsilon: float, rng: RandomStream) -> LipMstResult:
    """Stable randomized MST; returns the tree and the sampled weights.

    Guarantee (per sample, every seed): w(tree) <= (1+eps) * opt.
    """
    if epsilon <= 0:
        raise BadParams("epsilon must be positive")
    hat = sample_hat_weights(g, w, epsilon, rng)
    tree = kruskal_mst(g, hat)
    return LipMstResult(tree=tree, hat_weights=hat)


def coupled_lip_mst_weights(
    g: WeightedMultigraph, w, f: int, delta: float, epsilon: float, rng: RandomStream
) -> tuple[np.ndarray, np.ndarray]:
    """Jointly sample hat weights for w and w + delta*1_f from shared draws.

    All coordinates except f reuse the identical draw.  Coordinate f uses
    the maximal-overlap coupling of its two sampling intervals, so the two
    sampled values differ with probability exactly
    TV = (1+eps) * delta / (eps * (w(f)+delta)).
    """
    w = check_weights(g, w)
    if delta <= 0:
        raise BadParams("delta must be positive")
    hat1 = np.empty(g.m, dtype=float)
    hat2 = np.empty(g.m, dtype=float)
    for e in range(g.m):
        u = rng.random("w", e)
        if e != f:
            hat1[e] = hat2[e] = w[e] * (1.0 + epsilon * u)
        else:
            accept = rng.random("w", e, "accept")
            x, y = max_overlap_uniform_pair(
                u,
                accept,
                w[f],
                (1.0 + epsilon) * w[f],
                w[f] + delta,
                (1.0 + epsilon) * (w[f] + delta),
            )
            hat1[e], hat2[e] = x, y
    return hat1, hat2


def coupled_lip_mst(
    g: WeightedMultigraph, w, f: int, delta: float, epsilon: float, rng: RandomStream
) -> tuple[SpanningTree, SpanningTree]:
    """One coupled pair of trees for (w, w + delta*1_f)."""
    hat1, hat2 = coupled_lip_mst_weights(g, w, f, delta, epsilon, rng)
    return kruskal_mst(g, hat1), kruskal_mst(g, hat2)


def plip_mst(g: WeightedMultigraph, w, epsilon: float, rng: RandomStream) -> PlipMstResult:
    """Additive-noise randomized MST scaled by the optimal value.

    Samples b ~ U[eps*opt/(2(n-1)), eps*opt/(n-1)], then hat_w(e) ~
    U[w(e), w(e)+b].  Per-sample guarantee: w(tree) <= (1+eps) * opt.
    When opt = 0 the spread interval degenerates; the exact MST is
    returned with the zero_optimum flag set.
    """
    if epsilon <= 0:
        raise BadParams("epsilon must be positive")
    w = check_weights(g, w)
    base = kruskal_mst(g, w)
    opt = base.weight(w)
    if opt == 0.0:
        return PlipMstResult(tree=base, b=0.0, hat_weights=w.copy(), zero_optimum=True)
    scale = epsilon * opt / (g.n - 1)
    b = rng.uniform(0.5 * scale, scale, "b")
    hat = np.empty(g.m, dtype=float)
    for e in range(g.m):
        hat[e] = w[e] + b * rng.random("w", e)
    tree = kruskal_mst(g, hat)
    return PlipMstResult(tree=tree, b=b, hat_weights=hat)


def coupled_plip_mst(
    g: WeightedMultigraph, w, f: int, delta: float, epsilon: float, rng: RandomStream
) -> tuple[PlipMstResult, PlipMstResult]:
    """One coupled pair of additive-noise MST runs for (w, w + delta*1_f).

    The spread b is coupled with maximal overlap across the two (slightly
    different) sampling intervals; conditioned on equal b, coordinate f is
    coupled with maximal overlap across its shifted interval and all other
    coordinates reuse identical draws.
    """
    w = check_weights(g, w)
    if delta <= 0:
        raise BadParams("delta must be positive")
    w2 = w.copy()
    w2[f] += delta
    opt1 = kruskal_mst(g, w).weight(w)
    opt2 = kruskal_mst(g, w2).weight(w2)
    if opt1 == 0.0 or opt2 == 0.0:
        raise BadParams("coupled runs need positive optimum on both sides")
    s1 = epsilon * opt1 / (g.n - 1)
    s2 = epsilon * opt2 / (g.n - 1)
    b1, b2 = max_overlap_uniform_pair(
        rng.random("b"), rng.random("b", "accept"), 0.5 * s1, s1, 0.5 * s2, s2
    )
    hat1 = np.empty(g.m, dtype=float)
    hat2 = np.empty(g.m, dtype=float)
    for e in range(g.m):
        u = rng.random("w", e)
        if b1 == b2 and e == f:
            accept = rng.random("w", e, "accept")
            x, y = max_overlap_uniform_pair(
                u, accept, w[f], w[f] + b1, w[f] + delta, w[f] + delta + b1
            )
            hat1[e], hat2[e] = x, y
        else:
            hat1[e] = w[e] + b1 * u
            hat2[e] = w2[e] + b2 * u
    r1 = PlipMstResult(tree=kruskal_mst(g, hat1), b=b1, hat_weights=hat1)
    r2 = PlipMstResult(tree=kruskal_mst(g, hat2), b=b2, hat_weights=hat2)
    return r1, r2
