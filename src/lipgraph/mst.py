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

from .coupling import uniform_partner
from .errors import BadParams
from .exact import _kruskal
from .graphs import SpanningTree, WeightedMultigraph, check_edge, check_weights
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


def _draws(g, rng):
    """The per-edge uniforms u(e) = rng.random("w", e) that every variant shares."""
    return rng.randoms(g.m, "w")


def _hat(g, w, epsilon, rng):
    """Multiplicative hat weights w(e) * (1 + eps u(e)) and the draws u."""
    if not 0 < epsilon < np.inf:
        raise BadParams("epsilon must be positive and finite")
    u = _draws(g, rng)
    return w * (1.0 + epsilon * u), u


def sample_hat_weights(g: WeightedMultigraph, w, epsilon: float, rng: RandomStream) -> np.ndarray:
    """One multiplicative weight sample: hat_w(e) ~ U[w(e), (1+eps) w(e)]."""
    return _hat(g, check_weights(g, w), epsilon, rng)[0]


def lip_mst(g: WeightedMultigraph, w, epsilon: float, rng: RandomStream) -> LipMstResult:
    """Stable randomized MST; returns the tree and the sampled weights.

    Guarantee (per sample, every seed): w(tree) <= (1+eps) * opt.
    """
    return _lip_mst(g, check_weights(g, w), epsilon, rng)


def _lip_mst(g, w, epsilon, rng):
    hat, _ = _hat(g, w, epsilon, rng)
    return LipMstResult(tree=_kruskal(g, hat), hat_weights=hat)


def coupled_lip_mst_weights(
    g: WeightedMultigraph, w, f: int, delta: float, epsilon: float, rng: RandomStream
) -> tuple[np.ndarray, np.ndarray]:
    """Jointly sample hat weights for w and w + delta*1_f from shared draws.

    The first vector is :func:`sample_hat_weights`'.  All coordinates
    except f reuse the identical draw; the second run's coordinate f is the
    partner of the first's under the maximal coupling of its two sampling
    intervals, so the two sampled values differ with probability exactly
    TV = (1+eps) * delta / (eps * (w(f)+delta)).
    """
    return _coupled_weights(g, check_weights(g, w), check_edge(g, f), delta, epsilon, rng)


def _coupled_weights(g, w, f, delta, epsilon, rng):
    if not 0 < delta < np.inf:
        raise BadParams("delta must be positive and finite")
    hat1, _ = _hat(g, w, epsilon, rng)
    hat2 = hat1.copy()
    hat2[f] = uniform_partner(
        hat1[f], rng.random("w", f, "accept"),
        w[f], (1.0 + epsilon) * w[f], w[f] + delta, (1.0 + epsilon) * (w[f] + delta),
    )
    return hat1, hat2


def coupled_lip_mst(
    g: WeightedMultigraph, w, f: int, delta: float, epsilon: float, rng: RandomStream
) -> tuple[SpanningTree, SpanningTree]:
    """One coupled pair of trees for (w, w + delta*1_f)."""
    return _coupled_lip_mst(g, check_weights(g, w), check_edge(g, f), delta, epsilon, rng)


def _coupled_lip_mst(g, w, f, delta, epsilon, rng):
    hat1, hat2 = _coupled_weights(g, w, f, delta, epsilon, rng)
    return _kruskal(g, hat1), _kruskal(g, hat2)


def plip_mst(g: WeightedMultigraph, w, epsilon: float, rng: RandomStream) -> PlipMstResult:
    """Additive-noise randomized MST scaled by the optimal value.

    Samples b ~ U[eps*opt/(2(n-1)), eps*opt/(n-1)], then hat_w(e) ~
    U[w(e), w(e)+b].  Per-sample guarantee: w(tree) <= (1+eps) * opt.
    When opt = 0 the spread interval degenerates; the exact MST is
    returned with the zero_optimum flag set.
    """
    return _plip_mst(g, check_weights(g, w), epsilon, rng)


def _plip_mst(g, w, epsilon, rng):
    base, scale = _spread_scale(g, w, epsilon)
    if scale == 0.0:
        return PlipMstResult(tree=base, b=0.0, hat_weights=w.copy(), zero_optimum=True)
    b, u = _spread_draws(g, scale, rng)
    return _plip_result(g, w + b * u, b)


def _spread_scale(g, w, epsilon):
    """The exact MST of w and the right end eps*opt/(n-1) of b's interval
    (0 when opt is)."""
    if not 0 < epsilon < np.inf:
        raise BadParams("epsilon must be positive and finite")
    base = _kruskal(g, w)
    opt = base.weight(w)
    return base, epsilon * opt / (g.n - 1) if opt else 0.0


def _spread_draws(g, scale, rng):
    """The keyed draws of one run: b ~ U[scale/2, scale) and the per-edge u."""
    return rng.uniform(0.5 * scale, scale, "b"), _draws(g, rng)


def _plip_result(g, hat, b):
    return PlipMstResult(tree=_kruskal(g, hat), b=b, hat_weights=hat)


def coupled_plip_mst(
    g: WeightedMultigraph, w, f: int, delta: float, epsilon: float, rng: RandomStream
) -> tuple[PlipMstResult, PlipMstResult]:
    """One coupled pair of additive-noise MST runs for (w, w + delta*1_f).

    The first run is :func:`plip_mst`'s.  The second run's spread b is the
    partner of the first's across the two (slightly different) sampling
    intervals; conditioned on equal b, coordinate f is the partner of the
    first run's across its shifted interval and all other coordinates reuse
    identical draws.
    """
    return _coupled_plip_mst(g, check_weights(g, w), check_edge(g, f), delta, epsilon, rng)


def _coupled_plip_mst(g, w, f, delta, epsilon, rng):
    if not 0 < delta < np.inf:
        raise BadParams("delta must be positive and finite")
    w2 = w.copy()
    w2[f] += delta
    s1, s2 = _spread_scale(g, w, epsilon)[1], _spread_scale(g, w2, epsilon)[1]
    if s1 == 0.0 or s2 == 0.0:
        raise BadParams("coupled runs need positive optimum on both sides")
    b1, u = _spread_draws(g, s1, rng)
    b2 = uniform_partner(b1, rng.random("b", "accept"), 0.5 * s1, s1, 0.5 * s2, s2)
    hat1 = w + b1 * u
    hat2 = w2 + b2 * u
    if b1 == b2:
        hat2[f] = uniform_partner(
            hat1[f], rng.random("w", f, "accept"), w[f], w[f] + b1, w[f] + delta, w[f] + delta + b1
        )
    return _plip_result(g, hat1, b1), _plip_result(g, hat2, b2)
