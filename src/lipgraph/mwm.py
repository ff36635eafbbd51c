"""Randomized greedy maximum weight matching over shifted geometric classes.

Edges are bucketed by the largest power b * alpha^i below their weight,
with b drawn uniformly from [1, alpha]; a vertex permutation fixes the
greedy scan order inside each bucket, heaviest buckets first.  The random
shift b makes the class boundaries insensitive to small weight changes:
conditioned on the perturbed weight staying inside its class, coupled runs
produce identical matchings.

Zero-weight edges belong to no class and are never matched.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import BadParams
from .graphs import Matching, WeightedMultigraph, check_edge, check_weights
from .rng import RandomStream


def class_index(weight: float, b: float, alpha: float) -> int:
    """Unique i with b * alpha^i <= weight < b * alpha^(i+1); weight > 0."""
    if weight <= 0:
        raise BadParams("class index undefined for zero weight")
    i = math.floor(math.log(weight / b) / math.log(alpha))
    # float-exact adjustment at class boundaries
    while b * alpha ** (i + 1) <= weight:
        i += 1
    while b * alpha**i > weight:
        i -= 1
    return i


def class_partition(w, b: float, alpha: float) -> dict:
    """Map level i -> edge ids whose class index is exactly i (diagnostic)."""
    if not (1.0 <= b <= alpha):
        raise BadParams("b must lie in [1, alpha]")
    out: dict = {}
    for e, we in enumerate(np.asarray(w, dtype=float)):
        if we <= 0:
            continue
        out.setdefault(class_index(we, b, alpha), []).append(e)
    return out


def lip_mwm_with_draws(
    g: WeightedMultigraph, w, alpha: float, b: float, perm: list
) -> Matching:
    """Deterministic greedy given explicit draws (b, vertex permutation)."""
    return _greedy(g, check_weights(g, w), alpha, b, perm)


def _greedy(g, w, alpha, b, perm):
    rank = [0] * g.n
    for pos, v in enumerate(perm):
        rank[v] = pos
    # heaviest class first, then (lower, higher endpoint rank, edge id); an
    # edge passed over once stays blocked, so one greedy pass suffices
    order = []
    for i, edges in class_partition(w, b, alpha).items():
        for e in edges:
            u, v = g.edges[e]
            if u != v:
                order.append((-i, min(rank[u], rank[v]), max(rank[u], rank[v]), e))
    order.sort()
    matched = [False] * g.n
    chosen = []
    for *_, e in order:
        u, v = g.edges[e]
        if not matched[u] and not matched[v]:
            matched[u] = matched[v] = True
            chosen.append(e)
    return Matching(chosen)


def lip_mwm(g: WeightedMultigraph, w, alpha: float, rng: RandomStream) -> Matching:
    """Randomized greedy matching; expected weight >= opt / (4 * alpha)."""
    return _lip_mwm(g, check_weights(g, w), alpha, rng)


def _lip_mwm(g, w, alpha, rng):
    return _greedy(g, w, alpha, *_draws(g, alpha, rng))


def _draws(g, alpha, rng):
    """The keyed draws (b, vertex permutation) that every run shares."""
    if not 2 < alpha < math.inf:
        raise BadParams("alpha must exceed 2 and be finite")
    return rng.uniform(1.0, alpha, "mwm", "b"), rng.permutation(g.n, "mwm", "perm")


def coupled_lip_mwm(
    g: WeightedMultigraph, w, f: int, delta: float, alpha: float, rng: RandomStream
) -> tuple[Matching, Matching, bool]:
    """Coupled runs on w and w - delta*1_f sharing (b, permutation).

    Returns (matching, perturbed matching, crossed) where ``crossed`` flags
    the event that the perturbation pushed w(f) below its class threshold
    b * alpha^i; when it did not, the two matchings are identical.
    """
    return _coupled_lip_mwm(g, check_weights(g, w), check_edge(g, f), delta, alpha, rng)


def _coupled_lip_mwm(g, w, f, delta, alpha, rng):
    if not (0 < delta < w[f]):
        raise BadParams("need 0 < delta < w(f) for a downward perturbation")
    b, perm = _draws(g, alpha, rng)
    w2 = w.copy()
    w2[f] -= delta
    i_b = class_index(w[f], b, alpha)
    crossed = w2[f] < b * alpha**i_b
    return _greedy(g, w, alpha, b, perm), _greedy(g, w2, alpha, b, perm), bool(crossed)
