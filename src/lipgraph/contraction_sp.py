"""Recursive shortest-path algorithm whose output distribution is stable
against edge contraction, on undirected and directed graphs, plus
diagnostics.

The recursion picks a pivot vertex uniformly from the set of vertices lying
near the middle of near-optimal s-t paths, solves the two subproblems, and
concatenates the walks.  Once the remaining distance drops below 1/gamma it
falls back to an exact breadth-first-search path.

At practical input sizes the epsilon-calibrated gamma makes the base case
fire immediately (the sampled 1/gamma exceeds any possible distance), so a
``gamma_override`` hook exists to exercise the recursive branch in tests
and experiments; overridden gammas are outside the calibrated regime.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import BadParams, LipgraphError, Unreachable
from .graphs import DirectedGraph, Walk, WeightedMultigraph, _bfs_walk, check_vertex

_INF = float("inf")

ACTIVITY_K = 16
MAX_CALIBRATED_GAMMA = 0.01


@dataclass(frozen=True)
class RecParams:
    """Validated recursion parameters."""

    gamma: float
    override: bool = False

    def __post_init__(self):
        if not (self.gamma > 0 and math.isfinite(self.gamma)):
            raise BadParams("gamma must be positive and finite")
        if self.gamma >= 0.125:
            raise BadParams("gamma must be below 1/8 so the pivot window is nonempty")
        if not self.override and self.gamma > MAX_CALIBRATED_GAMMA:
            raise BadParams(
                f"gamma={self.gamma} above calibrated range; pass override for test-scale runs"
            )


@dataclass
class RecCall:
    """One recursion call, recorded for diagnostics."""

    path: tuple
    source: int
    target: int
    opt: float
    d: float
    l: float
    depth: int
    base_case: bool
    pivot: int = -1


@dataclass
class RecTrace:
    calls: list = field(default_factory=list)

    @property
    def max_depth(self) -> int:
        return max((c.depth for c in self.calls), default=0)


class _TableView:
    """Pivot candidates from explicit per-vertex distance tables."""

    def pivots(self, ds, dt, hi_s, hi_t) -> list:
        return [v for v in range(self.n) if ds[v] <= hi_s and dt[v] <= hi_t]


class _UndirectedView(_TableView):
    def __init__(self, g: WeightedMultigraph):
        self.g = g
        self.n = g.n

    def dist_from(self, s):
        return self.g.hop_dist(s)

    def dist_to(self, t):
        return self.g.hop_dist(t)

    def base_walk(self, s, t):
        return _bfs_walk(self.g, s, t)


class _DirectedView(_TableView):
    def __init__(self, g: DirectedGraph):
        self.g = g
        self.n = g.n

    def dist_from(self, s):
        return self.g.hop_dist_from(s)

    def dist_to(self, t):
        return self.g.hop_dist_to(t)

    def base_walk(self, s, t):
        dist, path = self.g.shortest_path(s, t)
        if path is None:
            return None
        arcs = self.g.arcs_for_vertex_path(path)
        return Walk(s, t, tuple((a, 1) for a in arcs))


def _view(g):
    """The view the recursion drives; objects that are views pass through.

    A view has ``n``, ``dist_from(s)`` and ``dist_to(t)`` (tables indexable
    by vertex), ``base_walk(s, t)`` (a shortest walk under one fixed
    tie-break rule, or None) and ``pivots(ds, dt, hi_s, hi_t)`` (the
    vertices within both bounds in ascending id order, as a sequence).
    """
    if isinstance(g, DirectedGraph):
        return _DirectedView(g)
    if isinstance(g, WeightedMultigraph):
        return _UndirectedView(g)
    return g


def pivot_set(g, s: int, t: int, d: float, l: float) -> list:
    """Vertices v with opt(s,v) <= (d+l) opt(s,t), opt(v,t) <= (1-d+l) opt(s,t).

    Works on both graph types (directed distances for directed graphs).
    """
    view = _view(g)
    ds = view.dist_from(s)
    dt = view.dist_to(t)
    opt = ds[t]
    if opt == _INF:
        raise Unreachable(f"{t} unreachable from {s}")
    return view.pivots(ds, dt, (d + l) * opt, (1.0 - d + l) * opt)


def sample_pivot(g, s: int, t: int, d: float, l: float, rng, *key) -> int:
    """Draw the pivot exactly as the recursion does at fixed (d, l).

    Uniform over the sorted candidate set via one keyed index draw; the
    recursion uses the same construction with its per-call key.
    """
    candidates = pivot_set(g, s, t, d, l)
    if not candidates:
        raise LipgraphError("empty pivot set")
    return candidates[rng.randint(len(candidates), *key, "pivot")]


def _rec(view, s, t, gamma, rng, key, depth, trace):
    if depth > 200:
        raise LipgraphError("recursion depth safety cap exceeded")
    d = rng.uniform(0.25 + 2.0 * gamma, 0.75 - 2.0 * gamma, *key, "d")
    l = rng.uniform(gamma, 2.0 * gamma, *key, "l")
    if (view.n - 1) * gamma <= 1.0:
        # any finite distance is at most n-1 <= 1/gamma: base case
        walk = view.base_walk(s, t)
        if walk is None:
            raise Unreachable(f"{t} unreachable from {s}")
        if trace is not None:
            opt = view.dist_from(s)[t]  # cached by the base walk
            trace.calls.append(RecCall(key, s, t, float(opt), d, l, depth, True))
        return walk
    ds = view.dist_from(s)
    opt = ds[t]
    if opt == _INF:
        raise Unreachable(f"{t} unreachable from {s}")
    if opt <= 1.0 / gamma:
        walk = view.base_walk(s, t)
        if trace is not None:
            trace.calls.append(RecCall(key, s, t, float(opt), d, l, depth, True))
        return walk
    candidates = view.pivots(ds, view.dist_to(t), (d + l) * opt, (1.0 - d + l) * opt)
    if not len(candidates):
        raise LipgraphError("empty pivot set; distances inconsistent")
    pivot = candidates[rng.randint(len(candidates), *key, "pivot")]
    if trace is not None:
        trace.calls.append(RecCall(key, s, t, float(opt), d, l, depth, False, pivot))
    left = _rec(view, s, pivot, gamma, rng, key + ("L",), depth + 1, trace)
    right = _rec(view, pivot, t, gamma, rng, key + ("R",), depth + 1, trace)
    return Walk(s, t, left.steps + right.steps)


def rec(g, s: int, t: int, gamma: float, rng, *, override: bool = False, trace: RecTrace | None = None) -> Walk:
    """Recursive pivot walk between s and t at an explicit gamma.

    Per-sample guarantee for every seed: len(walk) <= opt(s,t)^(1+14*gamma).
    """
    RecParams(gamma, override)
    view = _view(g)
    s, t = check_vertex(view, s), check_vertex(view, t)
    if s == t:
        return Walk(s, t, ())
    return _rec(view, s, t, gamma, rng, ("rec",), 0, trace)


def sp(
    g,
    s: int,
    t: int,
    epsilon: float,
    rng,
    *,
    gamma_override: float | None = None,
    trace: RecTrace | None = None,
) -> Walk:
    """(1+epsilon)-approximate shortest walk on an undirected or directed
    graph, or on a view of one (see :func:`_view`).

    Samples 1/gamma uniformly from [720 log n / eps, 1440 log n / eps] and
    delegates to the recursion.  ``gamma_override`` replaces the sampled
    gamma with a fixed test-scale value.
    """
    if not (0 < epsilon < 1):
        raise BadParams("epsilon must lie in (0, 1)")
    view = _view(g)
    s, t = check_vertex(view, s), check_vertex(view, t)
    if s == t:
        return Walk(s, t, ())
    if gamma_override is not None:
        RecParams(gamma_override, override=True)
        gamma = gamma_override
    else:
        lo = 720.0 * math.log(view.n) / epsilon
        gamma = 1.0 / rng.uniform(lo, 2.0 * lo, "sp", "gamma")
    return _rec(view, s, t, gamma, rng, ("rec",), 0, trace)


def opt_through(g, s: int, t: int, v: int) -> float:
    """Length of the shortest s-t walk through v (inf when impossible)."""
    view = _view(g)
    ds = view.dist_from(s)
    if ds[t] == _INF:
        raise Unreachable(f"{t} unreachable from {s}")
    return float(ds[v] + view.dist_to(t)[v])


def opt_through_edge(g, s: int, t: int, e: int) -> float:
    """Length of the shortest s-t walk traversing edge (or arc) e."""
    view = _view(g)
    ds = view.dist_from(s)
    dt = view.dist_to(t)
    if ds[t] == _INF:
        raise Unreachable(f"{t} unreachable from {s}")
    if isinstance(g, DirectedGraph):
        tail, head = g.arcs[e]
        return float(ds[tail] + 1.0 + dt[head])
    u, v = g.edges[e]
    return float(min(ds[u] + 1.0 + dt[v], ds[v] + 1.0 + dt[u]))


def is_active(g, s: int, t: int, e: int, gamma: float) -> bool:
    """Whether a near-optimal s-t walk passes through e.

    A call is active when opt(s,t,e) <= (1 + k*gamma) * opt(s,t) with
    k = 16; inactive calls sample their pivot from identical sets before
    and after contracting e.
    """
    view = _view(g)
    opt = view.dist_from(s)[t]
    if opt == _INF:
        raise Unreachable(f"{t} unreachable from {s}")
    return opt_through_edge(g, s, t, e) <= (1.0 + ACTIVITY_K * gamma) * opt
