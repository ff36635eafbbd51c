"""Distances between edge (multi)sets and between empirical output distributions.

Outputs of the randomized algorithms are edge sets or walks; both are
compared through their multiset of edge ids.  Distributions are empirical:
canonicalized outcomes with sample frequencies.  The earth mover's distance
between two empirical distributions is solved exactly, by one of two
solvers chosen from the input alone:

- Between two lists of n samples each (``from_samples`` distributions of
  equal size, n <= MAX_ASSIGNMENT_SAMPLES), the EMD is a min-cost perfect
  matching of the samples divided by n (Peyre & Cuturi, *Computational
  Optimal Transport*, 2019, section 2.2), solved by ``linear_sum_assignment``.
  This is the case the stability harness produces; there the assignment
  takes microseconds to milliseconds, where the LP costs at least about 2 ms.
- Everything else (probabilities given as pairs, unequal sample counts,
  larger n) is a transportation linear program, whose size grows with the
  supports and not with n.

Costs that are L1 distances between embedded outcomes (``unweighted_cost``,
``weighted_cost``) fill the cost matrix with one ``cdist``; any other cost
callable is evaluated pair by pair.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .errors import BadParams, SupportTooLarge

MAX_SUPPORT = 10_000
# Largest n for which two lists of n samples are matched as an assignment
# instead of solved as a transportation LP.  The assignment grows as n^3 and
# the LP with the supports, so on narrow supports they cross; measured with
# 2-20 outcomes a side (Python 3.11, scipy 1.17, shared 2-core x86 host): at
# n = 350 the assignment took 1.3-2.9 ms against the LP's 2.0-3.5 ms, at
# n = 450 2.1-5.4 ms against 1.9-3.6 ms, at n = 1000 15-59 ms against
# 2.9-5.6 ms.  On wide supports the assignment wins at every n (300 distinct
# outcomes a side: 10 ms against 690 ms).  Expanded, n = 4000 would be a
# 128 MB matrix.
MAX_ASSIGNMENT_SAMPLES = 400


def as_multiset(obj) -> Counter:
    """Coerce a walk, tree, matching, set or mapping to an edge multiset."""
    if isinstance(obj, Counter):
        return obj
    ms = getattr(obj, "multiset", None)
    if ms is not None:
        return ms
    if isinstance(obj, dict):
        return Counter(obj)
    return Counter(obj)


def canonical_outcome(obj) -> tuple:
    """Sorted ((edge, mult), ...) key identifying a multiset outcome."""
    ms = as_multiset(obj)
    return tuple(sorted((int(e), int(k)) for e, k in ms.items() if k))


def d_u(f1, f2) -> float:
    """Multiplicity-wise L1 distance: sum_e |mult1(e) - mult2(e)|."""
    m1, m2 = as_multiset(f1), as_multiset(f2)
    total = 0
    for e in m1.keys() | m2.keys():
        total += abs(m1.get(e, 0) - m2.get(e, 0))
    return float(total)


def d_w(f1, w1, f2, w2) -> float:
    """L1 distance between weighted incidence vectors.

    Each multiset F with weights w maps to sum_e w(e) * mult(e) * 1_e, so
    the distance is sum_e |w1(e) mult1(e) - w2(e) mult2(e)|.
    """
    m1, m2 = as_multiset(f1), as_multiset(f2)
    total = 0.0
    for e in m1.keys() | m2.keys():
        total += abs(w1[e] * m1.get(e, 0) - w2[e] * m2.get(e, 0))
    return float(total)


@dataclass(frozen=True)
class EdgeSetDistribution:
    """Empirical distribution over canonicalized edge multisets.

    ``counts`` holds the integer sample count of each outcome when the
    distribution was built from samples, and None otherwise.
    """

    outcomes: tuple
    probs: tuple
    counts: tuple | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if len(self.outcomes) != len(self.probs):
            raise BadParams("outcomes and probs must have equal length")
        if self.probs and abs(sum(self.probs) - 1.0) > 1e-12:
            raise BadParams(f"probabilities sum to {sum(self.probs)}, not 1")
        if any(p < 0 for p in self.probs):
            raise BadParams("negative probability")

    @classmethod
    def from_samples(cls, samples) -> "EdgeSetDistribution":
        counts = Counter(canonical_outcome(s) for s in samples)
        total = sum(counts.values())
        if total == 0:
            raise BadParams("no samples")
        items = sorted(counts.items())
        return cls(
            outcomes=tuple(k for k, _ in items),
            probs=tuple(c / total for _, c in items),
            counts=tuple(c for _, c in items),
        )

    @classmethod
    def from_pairs(cls, pairs) -> "EdgeSetDistribution":
        items = sorted((canonical_outcome(o), float(p)) for o, p in pairs)
        merged: dict = {}
        for k, p in items:
            merged[k] = merged.get(k, 0.0) + p
        keys = sorted(merged)
        return cls(outcomes=tuple(keys), probs=tuple(merged[k] for k in keys))

    @property
    def support_size(self) -> int:
        return len(self.outcomes)

    def multisets(self) -> list[Counter]:
        return [Counter(dict(o)) for o in self.outcomes]

    def to_text(self) -> str:
        lines = []
        for o, p in zip(self.outcomes, self.probs):
            body = " ".join(f"{e}:{k}" for e, k in o)
            lines.append(f"{p!r}\t{body}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "EdgeSetDistribution":
        pairs = []
        for ln in text.splitlines():
            if not ln.strip():
                continue
            prob_part, _, body = ln.partition("\t")
            ms = Counter()
            for tok in body.split():
                e, _, k = tok.partition(":")
                ms[int(e)] = int(k)
            pairs.append((ms, float(prob_part)))
        return cls.from_pairs(pairs)


def tv_empirical(p: EdgeSetDistribution, q: EdgeSetDistribution) -> float:
    """Total variation distance over the union support."""
    pm = dict(zip(p.outcomes, p.probs))
    qm = dict(zip(q.outcomes, q.probs))
    return 0.5 * sum(abs(pm.get(k, 0.0) - qm.get(k, 0.0)) for k in pm.keys() | qm.keys())


def emd_empirical(p: EdgeSetDistribution, q: EdgeSetDistribution, cost) -> float:
    """Exact minimum-coupling expected cost between two distributions.

    ``cost(outcome_p, outcome_q)`` receives multisets (Counters); a cost with
    an ``embed`` method is instead evaluated as L1 distances between the
    rows it returns.  Two sample lists of equal size n <= MAX_ASSIGNMENT_SAMPLES
    are matched one to one, each sample repeated by its count, and the
    EMD is the matching's cost over n.  Any other pair of distributions is
    solved as a transportation LP over the supports, which stays small when
    n is large.  Supports of up to MAX_SUPPORT outcomes each are accepted.
    """
    n1, n2 = p.support_size, q.support_size
    if n1 > MAX_SUPPORT or n2 > MAX_SUPPORT:
        raise SupportTooLarge(f"supports {n1} x {n2} exceed limit {MAX_SUPPORT}")
    if n1 == 0 or n2 == 0:
        raise BadParams("empty distribution")
    c = _cost_matrix(p, q, cost)
    if p.counts is not None and q.counts is not None:
        n = sum(p.counts)
        if n == sum(q.counts) <= MAX_ASSIGNMENT_SAMPLES:
            from scipy.optimize import linear_sum_assignment

            expanded = c[np.ix_(np.repeat(np.arange(n1), p.counts), np.repeat(np.arange(n2), q.counts))]
            rows, cols = linear_sum_assignment(expanded)
            return math.fsum(expanded[rows, cols].tolist()) / n
    return transportation_cost(np.asarray(p.probs), np.asarray(q.probs), c)


def _cost_matrix(p: EdgeSetDistribution, q: EdgeSetDistribution, cost) -> np.ndarray:
    """cost(outcome_p, outcome_q) for every pair of support points."""
    embed = getattr(cost, "embed", None)
    if embed is not None:
        from scipy.spatial.distance import cdist

        return cdist(*embed(p.outcomes, q.outcomes), "cityblock")
    pm = p.multisets()
    qm = q.multisets()
    c = np.empty((len(pm), len(qm)), dtype=float)
    for i, mi in enumerate(pm):
        for j, mj in enumerate(qm):
            c[i, j] = cost(mi, mj)
    return c


def transportation_cost(supply: np.ndarray, demand: np.ndarray, cost: np.ndarray) -> float:
    """Optimal transport between two discrete distributions, exact LP."""
    from scipy.optimize import linprog
    from scipy.sparse import csr_matrix

    n1, n2 = cost.shape
    # trivial couplings avoid the LP
    if n1 == 1:
        return float(np.dot(demand, cost[0, :]))
    if n2 == 1:
        return float(np.dot(supply, cost[:, 0]))
    nvar = n1 * n2
    # variable i * n2 + j ships from i to j: it sits in supply row i and demand row n1 + j
    rows = np.concatenate([np.repeat(np.arange(n1), n2), n1 + np.tile(np.arange(n2), n1)])
    cols = np.tile(np.arange(nvar), 2)
    a = csr_matrix((np.ones(2 * nvar), (rows, cols)), shape=(n1 + n2, nvar))
    b = np.concatenate([supply, demand])
    res = linprog(cost.ravel(), A_eq=a, b_eq=b, bounds=(0, None), method="highs")
    if not res.success:
        raise RuntimeError(f"transportation LP failed: {res.message}")
    return float(res.fun)


class L1Cost:
    """Cost sum_e |w1(e) mult1(e) - w2(e) mult2(e)| between edge multisets.

    Called on two multisets it is ``d_w`` (``d_u`` when unweighted).
    ``embed`` maps the outcomes of each side to the rows of a matrix, one
    column per edge id: the multiplicity vector times that side's weights.
    The L1 distance between two rows is the cost of the pair.
    """

    def __init__(self, w1=None, w2=None):
        self.w1, self.w2 = w1, w2

    def __call__(self, m1: Counter, m2: Counter) -> float:
        if self.w1 is None:
            return d_u(m1, m2)
        return d_w(m1, self.w1, m2, self.w2)

    def embed(self, outcomes_p, outcomes_q) -> tuple[np.ndarray, np.ndarray]:
        edges = sorted({e for o in outcomes_p + outcomes_q for e, _ in o})
        col = {e: j for j, e in enumerate(edges)}
        return _rows(outcomes_p, col, self.w1), _rows(outcomes_q, col, self.w2)


def _rows(outcomes, col: dict, w) -> np.ndarray:
    x = np.zeros((len(outcomes), len(col)))
    for i, o in enumerate(outcomes):
        for e, k in o:
            x[i, col[e]] = k if w is None else w[e] * k
    return x


unweighted_cost = L1Cost()


def weighted_cost(w1, w2) -> L1Cost:
    """Cost of outcome p under weights w1 against outcome q under w2."""
    return L1Cost(w1, w2)


def zero_one_cost(m1: Counter, m2: Counter) -> float:
    return 0.0 if canonical_outcome(m1) == canonical_outcome(m2) else 1.0
