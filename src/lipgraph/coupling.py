"""Shared-randomness couplings between perturbed runs.

Paired runs draw from the same keyed stream.  The first run is the
algorithm's single-sample run, draws unchanged.  For each coordinate whose
distribution differs between the runs, the second run's value is the
partner of the first run's under the rejection form of the maximal
coupling (Thorisson 2000, ch. 1; Jacob, O'Leary & Atchade, JRSS-B 2020):
keep x ~ p1 with probability min(1, p2(x)/p1(x)), else draw from the
residual (p2 - p1)^+ normalized.  One extra keyed uniform decides both.
Both marginals stay exact while the two values agree with the maximum
possible probability (one minus the total variation distance between the
two distributions).
"""

from __future__ import annotations

import numpy as np


def uniform_tv(lo1: float, hi1: float, lo2: float, hi2: float) -> float:
    """Total variation distance between U[lo1,hi1) and U[lo2,hi2)."""
    len1, len2 = hi1 - lo1, hi2 - lo2
    if len1 <= 0 and len2 <= 0:
        return 0.0 if lo1 == lo2 else 1.0
    if len1 <= 0 or len2 <= 0:
        return 1.0
    overlap = max(0.0, min(hi1, hi2) - max(lo1, lo2))
    return 1.0 - overlap / max(len1, len2)


def _residual_icdf(v, lo, hi, o_lo, o_hi, shared):
    """Inverse CDF of U[lo,hi) less density ``shared`` on [o_lo, o_hi) inside
    it, renormalized: piecewise linear over [lo, o_lo], [o_lo, o_hi], [o_hi, hi]."""
    d_out = 1.0 / (hi - lo)
    d_in = d_out - shared
    left = d_out * (o_lo - lo)
    mid = left + d_in * (o_hi - o_lo)
    q = v * (1.0 - shared * (o_hi - o_lo))
    x_mid = o_lo + (q - left) / max(d_in, 1e-300)
    return np.where(q < left, lo + q / d_out, np.where(q < mid, x_mid, o_hi + (q - mid) / d_out))


def uniform_partner(x, accept, lo1, hi1, lo2, hi2):
    """The draw y ~ U[lo2,hi2) coupled to a draw x ~ U[lo1,hi1) of the first run.

    Rejection form of the maximal coupling: y = x when accept < keep =
    min(1, p2(x)/p1(x)), else y is drawn from the residual (p2 - p1)^+ at
    v = (accept - keep) / (1 - keep), which given rejection is uniform and
    independent of x.  x == y with probability exactly 1 - TV(U1, U2).
    ``x`` and ``accept`` may be floats (a float is returned) or numpy
    arrays (broadcast together); the interval ends are scalars.  A
    degenerate (zero-length) interval is the point at its left end.
    """
    len1, len2 = hi1 - lo1, hi2 - lo2
    o_lo, o_hi = max(lo1, lo2), min(hi1, hi2)
    if isinstance(x, float) and isinstance(accept, float):  # the library's calls
        if len1 <= 0 or o_hi <= o_lo:
            return float(lo2 + accept * max(len2, 0.0))
        keep = min(1.0, len1 / len2) if o_lo <= x < o_hi else 0.0
        if accept < keep:
            return float(x)
        v = (accept - keep) / (1.0 - keep)
        return float(_residual_icdf(v, lo2, hi2, o_lo, o_hi, 1.0 / max(len1, len2)))
    x, accept = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(accept, dtype=float))
    if len1 <= 0 or o_hi <= o_lo:  # a point, or no overlap: nothing to keep
        y = lo2 + accept * max(len2, 0.0)
    else:
        keep = np.where((o_lo <= x) & (x < o_hi), min(1.0, len1 / len2), 0.0)
        y = x.copy()
        rejected = accept >= keep  # only these have a v
        v = (accept[rejected] - keep[rejected]) / (1.0 - keep[rejected])
        y[rejected] = _residual_icdf(v, lo2, hi2, o_lo, o_hi, 1.0 / max(len1, len2))
    return float(y) if y.ndim == 0 else y


def max_overlap_uniform_pair(u, accept, lo1, hi1, lo2, hi2):
    """Couple U[lo1,hi1) and U[lo2,hi2) with maximal agreement probability.

    ``u`` positions the first draw x = lo1 + u (hi1 - lo1), ``accept``
    decides its partner (see :func:`uniform_partner`).  Both may be scalars
    or numpy arrays (broadcast together).  Returns (x, y) with exact
    marginals; x == y happens with probability exactly 1 - TV(U1, U2).
    """
    u, accept = np.broadcast_arrays(np.asarray(u, dtype=float), np.asarray(accept, dtype=float))
    x = lo1 + u * max(hi1 - lo1, 0.0)
    y = uniform_partner(x, accept, lo1, hi1, lo2, hi2)
    return (float(x), y) if x.ndim == 0 else (x, y)


def shift_wrap(x, frac):
    """Measure-preserving wrap map on [0,1): x - frac, plus 1 when x <= frac.

    Couples the rounding draw of a perturbed edge with the original one;
    the pair of draws (x, shift_wrap(x, delta/b)) makes the rounded values
    differ by exactly one precisely when x <= delta/b.
    """
    x = np.asarray(x, dtype=float)
    out = np.where(x <= frac, x - frac + 1.0, x - frac)
    if out.ndim == 0:
        return float(out)
    return out


def discrete_partner(i: int, accept: float, pmf1, pmf2) -> int:
    """The index j ~ pmf2 coupled to an index i ~ pmf1 of the first run.

    pmf1 and pmf2 are weights over range(len(pmf)), each normalized here.
    The rejection rule of :func:`uniform_partner`: j = i when accept <
    min(1, pmf2[i]/pmf1[i]), else j is drawn from the residual
    (pmf2 - pmf1)^+.  i == j with probability sum_k min(pmf1[k], pmf2[k]).
    """
    p1 = np.asarray(pmf1, dtype=float)
    p2 = np.asarray(pmf2, dtype=float)
    p1, p2 = p1 / p1.sum(), p2 / p2.sum()
    keep = min(1.0, p2[i] / p1[i])
    if accept < keep:
        return int(i)
    return _icdf_discrete((accept - keep) / (1.0 - keep), np.maximum(p2 - p1, 0.0))


def couple_discrete(u: float, accept: float, pmf1, pmf2):
    """Maximal coupling of two discrete distributions over range(len(pmf)).

    ``u`` draws i from pmf1 by inverse CDF, ``accept`` its partner j (see
    :func:`discrete_partner`).  Returns (i, j) with exact marginals and
    i == j with probability sum_k min(pmf1[k], pmf2[k]).
    """
    i = _icdf_discrete(u, np.asarray(pmf1, dtype=float))
    return i, discrete_partner(i, accept, pmf1, pmf2)


def _icdf_discrete(u: float, pmf: np.ndarray) -> int:
    cdf = np.cumsum(pmf)
    k = int(np.searchsorted(cdf, u * cdf[-1], side="right"))
    return min(k, len(pmf) - 1)
