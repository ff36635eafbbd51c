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
from .graphs import Matching, WeightedMultigraph, check_weights
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


def _pi_edge_key(g: WeightedMultigraph, rank: list):
    """Deterministic edge order induced by a vertex permutation.

    Edges sort by (smaller endpoint rank, larger endpoint rank, edge id).
    """

    def key(e: int):
        u, v = g.edges[e]
        ru, rv = rank[u], rank[v]
        return (min(ru, rv), max(ru, rv), e)

    return key


def lip_mwm_with_draws(
    g: WeightedMultigraph, w, alpha: float, b: float, perm: list
) -> Matching:
    """Deterministic greedy given explicit draws (b, vertex permutation)."""
    w = check_weights(g, w)
    rank = [0] * g.n
    for pos, v in enumerate(perm):
        rank[v] = pos
    levels = class_partition(w, b, alpha)
    key = _pi_edge_key(g, rank)
    # heaviest class first, the permutation order inside a class; an edge
    # passed over once stays blocked, so one greedy pass suffices
    order = sorted(
        (-i, key(e)) for i, edges in levels.items() for e in edges if not g.is_self_loop(e)
    )
    matched = [False] * g.n
    chosen = []
    for _, (_, _, e) in order:
        u, v = g.edges[e]
        if not matched[u] and not matched[v]:
            matched[u] = matched[v] = True
            chosen.append(e)
    return Matching(chosen)


def lip_mwm(g: WeightedMultigraph, w, alpha: float, rng: RandomStream) -> Matching:
    """Randomized greedy matching; expected weight >= opt / (4 * alpha)."""
    if alpha <= 2:
        raise BadParams("alpha must exceed 2")
    b = rng.uniform(1.0, alpha, "mwm", "b")
    perm = rng.permutation(g.n, "mwm", "perm")
    return lip_mwm_with_draws(g, w, alpha, b, perm)


def lip_mwm_eps(g: WeightedMultigraph, w, epsilon: float, rng: RandomStream) -> Matching:
    """Epsilon parametrization: alpha = 2 + eps, expected ratio >= 1/8 - eps."""
    if not (0 < epsilon < 0.125):
        raise BadParams("epsilon must lie in (0, 1/8)")
    return lip_mwm(g, w, 2.0 + epsilon, rng)


def coupled_lip_mwm(
    g: WeightedMultigraph, w, f: int, delta: float, alpha: float, rng: RandomStream
) -> tuple[Matching, Matching, bool]:
    """Coupled runs on w and w - delta*1_f sharing (b, permutation).

    Returns (matching, perturbed matching, crossed) where ``crossed`` flags
    the event that the perturbation pushed w(f) below its class threshold
    b * alpha^i; when it did not, the two matchings are identical.
    """
    w = check_weights(g, w)
    if not (0 < delta < w[f]):
        raise BadParams("need 0 < delta < w(f) for a downward perturbation")
    b = rng.uniform(1.0, alpha, "mwm", "b")
    perm = rng.permutation(g.n, "mwm", "perm")
    w2 = w.copy()
    w2[f] -= delta
    i_b = class_index(w[f], b, alpha)
    crossed = w2[f] < b * alpha**i_b
    m1 = lip_mwm_with_draws(g, w, alpha, b, perm)
    m2 = lip_mwm_with_draws(g, w2, alpha, b, perm)
    return m1, m2, bool(crossed)
