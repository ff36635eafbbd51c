"""Weighted shortest path through an unweighted directed-gadget reduction.

Each weighted edge is rounded to an integer length (two or three plus the
floor of weight over a sampled discretization step b) and replaced by two
oppositely oriented directed paths (chains) of that many arcs.  The
contraction-stable directed walk routine then runs on the gadget, and its
output maps back to a weighted walk: a walk entering one end of a chain
must leave from the other end, so maximal runs of gadget arcs correspond
to whole edge traversals.

Rounding up by at least two keeps every interior gadget arc contractible,
which is what ties a small weight decrease to a single arc contraction.

``lip_sp`` and ``coupled_lip_sp`` never build the gadget, whose size is
about n/eps times the input's.  Gadget hop distances are weighted distances
on the original graph under the rounded lengths, so :class:`ImplicitGadget`
answers the walk routine's distance, pivot and base-walk queries from
Dijkstra over the rounded lengths, under the explicit gadget's vertex ids
and tie-break rule.  ``build_gadget_from`` and ``lip_sp_run`` build the
gadget explicitly; they are the reference the implicit one is tested
against, and back the CLI's ``--emit-gadget``.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .contraction_sp import sp
from .coupling import shift_wrap, uniform_partner
from .errors import BadParams, LipgraphError, MalformedWalk, Unreachable
from .exact import _dijkstra
from .graphs import DirectedGraph, Walk, WeightedMultigraph, _bfs_walk, check_edge, check_vertex, check_weights
from .rng import RandomStream


_INF = float("inf")


@dataclass(frozen=True)
class EdgeGadget:
    """Rounding record for one original edge."""

    edge: int
    l: int
    x: float
    hat_w: int
    included: bool
    forward_arcs: tuple  # (start, stop) arc id range, empty as (0, 0)
    backward_arcs: tuple


@dataclass(frozen=True)
class GadgetGraph:
    """Directed gadget built from a weighted graph at one random draw."""

    graph: DirectedGraph
    n_original: int
    b: float
    epsilon: float
    cap: float
    records: tuple
    arc_owner: np.ndarray  # original edge id per gadget arc
    arc_dir: np.ndarray  # +1 forward chain, -1 backward chain
    arc_pos: np.ndarray  # position within its chain


def rounded_lengths(w, b: float, x) -> tuple[np.ndarray, np.ndarray]:
    """Integer lengths for the gadget: l = floor(w/b), hat in {l+2, l+3}.

    hat = l+2 exactly when x <= ((l+1) b - w) / b, which makes E[hat * b]
    track w + 2b and keeps the rounding monotone under weight shifts.
    """
    w = np.asarray(w, dtype=float)
    x = np.asarray(x, dtype=float)
    if b <= 0:
        raise BadParams("discretization step b must be positive")
    l = np.floor(w / b)
    thr = ((l + 1.0) * b - w) / b
    hat = np.where(x <= thr, l + 2.0, l + 3.0)
    return l.astype(np.int64), hat.astype(np.int64)


def _check_epsilon(epsilon: float) -> None:
    if not 0 < epsilon < 1:
        raise BadParams("epsilon must lie in (0, 1)")


def inclusion_cap(n: int, epsilon: float) -> float:
    return 12.0 * n / epsilon + 3.0


def build_gadget_from(
    g: WeightedMultigraph, w, epsilon: float, b: float, x
) -> GadgetGraph:
    """Deterministic gadget construction from explicit draws (b, x).

    Arc layout: included edges in ascending id order, forward chain then
    backward chain, each chain's arcs consecutive in walk order.
    """
    _check_epsilon(epsilon)
    return _build_gadget_from(g, check_weights(g, w), epsilon, b, x)


def _build_gadget_from(g, w, epsilon, b, x):
    l, hat = rounded_lengths(w, b, x)
    cap = inclusion_cap(g.n, epsilon)
    included = np.flatnonzero(~g.self_loop_mask & (hat <= cap))
    records = []

    if included.size:
        ks = hat[included]
        uv = g.edge_array[included]
        # chains interleave as [fwd_0, bwd_0, fwd_1, bwd_1, ...]
        chain_lens = np.repeat(ks, 2)
        chain_starts = np.concatenate(([0], np.cumsum(chain_lens)[:-1]))
        total_arcs = int(chain_lens.sum())
        # interior vertices: forward block then backward block per edge
        interiors = np.repeat(ks - 1, 2)
        chain_base = g.n + np.concatenate(([0], np.cumsum(interiors)[:-1]))
        n_vertices = g.n + int(interiors.sum())
        chain_first = np.empty(2 * included.size, dtype=np.int64)
        chain_last = np.empty(2 * included.size, dtype=np.int64)
        chain_first[0::2] = uv[:, 0]
        chain_first[1::2] = uv[:, 1]
        chain_last[0::2] = uv[:, 1]
        chain_last[1::2] = uv[:, 0]
        chain_edge = np.repeat(included, 2)
        chain_dir = np.empty(2 * included.size, dtype=np.int8)
        chain_dir[0::2] = 1
        chain_dir[1::2] = -1

        arc_chain = np.repeat(np.arange(2 * included.size), chain_lens)
        pos = np.arange(total_arcs, dtype=np.int64) - chain_starts[arc_chain]
        base = chain_base[arc_chain]
        last_pos = chain_lens[arc_chain] - 1
        tails = np.where(pos == 0, chain_first[arc_chain], base + pos - 1)
        heads = np.where(pos == last_pos, chain_last[arc_chain], base + pos)
        arcs = np.stack([tails, heads], axis=1)
        owner = chain_edge[arc_chain]
        direction = chain_dir[arc_chain]
    else:
        n_vertices = g.n
        arcs = np.zeros((0, 2), dtype=np.int64)
        owner = np.zeros(0, dtype=np.int64)
        direction = np.zeros(0, dtype=np.int8)
        pos = np.zeros(0, dtype=np.int64)
        chain_starts = np.zeros(0, dtype=np.int64)

    included_rank = {int(e): i for i, e in enumerate(included)}
    for e in range(g.m):
        i = included_rank.get(e)
        if i is None:
            records.append(EdgeGadget(e, int(l[e]), float(x[e]), int(hat[e]), False, (0, 0), (0, 0)))
        else:
            k = int(hat[e])
            fs = int(chain_starts[2 * i])
            bs = int(chain_starts[2 * i + 1])
            records.append(
                EdgeGadget(e, int(l[e]), float(x[e]), k, True, (fs, fs + k), (bs, bs + k))
            )
    return GadgetGraph(
        graph=DirectedGraph(n_vertices, arcs),
        n_original=g.n,
        b=b,
        epsilon=epsilon,
        cap=cap,
        records=tuple(records),
        arc_owner=owner,
        arc_dir=direction,
        arc_pos=pos,
    )


def build_gadget(
    g: WeightedMultigraph,
    w,
    s: int,
    t: int,
    epsilon: float,
    rng: RandomStream,
) -> GadgetGraph:
    """Sample (b, x) and build the gadget; requires positive s-t optimum."""
    _check_epsilon(epsilon)
    w = check_weights(g, w)
    s, t = check_vertex(g, s), check_vertex(g, t)
    opt = _optimum(g, w, s, t)
    if opt <= 0:
        raise BadParams("gadget construction needs a positive s-t optimum")
    return _build_gadget_from(g, w, epsilon, *_sample_draws(g, epsilon, opt, rng))


def _b_interval(g: WeightedMultigraph, epsilon: float, opt: float) -> tuple[float, float]:
    """The interval [eps*opt/(12n), eps*opt/(6n)) that b is drawn from."""
    return epsilon * opt / (12.0 * g.n), epsilon * opt / (6.0 * g.n)


def _sample_draws(g: WeightedMultigraph, epsilon: float, opt: float, rng: RandomStream):
    """The keyed draws (b, x) of one run at s-t optimum opt."""
    b = rng.uniform(*_b_interval(g, epsilon, opt), "lipsp", "b")
    x = np.array([rng.random("lipsp", "x", e) for e in range(g.m)])
    return b, x


def map_walk_back(gadget: GadgetGraph, hat_walk: Walk) -> Walk:
    """Translate a gadget walk to the original graph.

    Maximal runs of arcs owned by one edge and one chain direction must
    traverse the whole chain; each run becomes a single edge traversal.
    """
    if not hat_walk.steps:
        return Walk(hat_walk.source, hat_walk.target, ())
    ids = np.fromiter((e for e, _ in hat_walk.steps), dtype=np.int64, count=len(hat_walk.steps))
    owner = gadget.arc_owner[ids]
    direction = gadget.arc_dir[ids]
    token = owner * 2 + (direction > 0)
    breaks = np.flatnonzero(np.diff(token) != 0) + 1
    starts = np.concatenate(([0], breaks))
    ends = np.concatenate((breaks, [len(ids)]))
    steps = []
    for a, z in zip(starts.tolist(), ends.tolist()):
        e = int(owner[a])
        rec = gadget.records[e]
        k = rec.hat_w
        if z - a != k:
            raise MalformedWalk(
                f"run over edge {e} spans {z - a} arcs, chain length is {k}"
            )
        if int(gadget.arc_pos[ids[a]]) != 0 or np.any(np.diff(ids[a:z]) != 1):
            raise MalformedWalk(f"run over edge {e} is not a whole chain traversal")
        steps.append((e, 1 if direction[a] > 0 else -1))
    return Walk(hat_walk.source, hat_walk.target, tuple(steps))


class _ChainTable:
    """Gadget hop distances from (``forward``) or to one gadget vertex.

    ``orig`` covers the original vertices.  Position q of chain c lies
    orig[first c] + q hops from the source and k_c - q + orig[last c] hops
    before the target, except on the chain holding an interior endpoint at
    position ``pos``: the source reaches positions q >= pos in q - pos hops,
    and positions q <= pos reach the target in pos - q hops.
    """

    __slots__ = ("gadget", "orig", "forward", "chain", "pos")

    def __init__(self, gadget, orig, forward, chain, pos):
        self.gadget = gadget
        self.orig = orig
        self.forward = forward
        self.chain = chain  # -1 when the endpoint is an original vertex
        self.pos = pos

    def __getitem__(self, v):
        if v < self.gadget.n_original:
            return self.orig[v]
        return self.at(*self.gadget.locate(v))

    def at(self, c: int, q: int):
        """Distance at interior position q of chain c."""
        for lo, hi, a in self.runs(c):
            if lo <= q <= hi:
                return a + q if self.forward else a - q

    def runs(self, c: int) -> tuple:
        """(lo, hi, a) runs covering positions 1..k-1 of chain c, on each of
        which the distance is a + q (from) or a - q (to)."""
        gd = self.gadget
        k = gd.length[c]
        if self.forward:
            a = self.orig[gd.first[c]]
            if c != self.chain:
                return ((1, k - 1, a),)
            return ((1, self.pos - 1, a), (self.pos, k - 1, -self.pos))
        a = k + self.orig[gd.last[c]]
        if c != self.chain:
            return ((1, k - 1, a),)
        return ((1, self.pos, self.pos), (self.pos + 1, k - 1, a))


class _Candidates:
    """Pivot candidates in gadget id order without listing them: the
    original vertices that qualify, then runs of consecutive interior ids."""

    def __init__(self, originals: list, starts: list, counts: list):
        self.originals = originals
        self.starts = starts
        self.ends = list(accumulate(counts))

    def __len__(self) -> int:
        return len(self.originals) + (self.ends[-1] if self.ends else 0)

    def __getitem__(self, r: int) -> int:
        if r < len(self.originals):
            return self.originals[r]
        r -= len(self.originals)
        i = bisect_right(self.ends, r)
        return self.starts[i] + r - (self.ends[i - 1] if i else 0)


class ImplicitGadget:
    """The gadget of :func:`build_gadget_from`, answered without building it.

    A view for the walk routine of :mod:`lipgraph.contraction_sp`.  Vertex
    ids follow build_gadget_from's layout: original vertices first, then
    the interior vertices chain by chain (forward chain, then backward
    chain, per included edge in ascending id), position q of chain c
    having id ``base[c] + q - 1``.  Pivot sets therefore enumerate in the
    explicit order and the keyed pivot draw picks the same vertex.  Base
    walks follow the explicit rule (lowest-id tight in-arc, which on an
    original vertex is the last arc of the lowest tight chain) and are
    sequences of chain segments (chain, from position, to position);
    :meth:`edge_walk` merges them into original-edge steps.  Memory is
    O(n + m), independent of the gadget's vertex count ``n``.
    """

    def __init__(self, g: WeightedMultigraph, hat, cap: float):
        self.n_original = g.n
        chains = [
            chain
            for e, (u, v), k in zip(range(g.m), g.edges, hat.tolist())
            if u != v and k <= cap
            for chain in ((u, v, k, e, 1), (v, u, k, e, -1))
        ]
        columns = [list(col) for col in zip(*chains)] or [[] for _ in range(5)]
        self.first, self.last, self.length, self.edge, self.direction = columns
        # base[c] is the id of position 1 of chain c; the total is the vertex count
        *self.base, self.n = accumulate((k - 1 for k in self.length), initial=g.n)
        # (first, chain) per last vertex, chains ascending.  Every chain has
        # a twin of equal length running the other way, so these lists also
        # serve as out-adjacency, and hop distances between original
        # vertices are symmetric: Dijkstra over them with the chain lengths
        # gives the gadget's hop distances, as ints.
        self._in = [[] for _ in range(g.n)]
        for c, (a, z, *_) in enumerate(chains):
            self._in[z].append((a, c))
        self._from = {}
        self._to = {}

    def _hops(self, v: int, start: int) -> list:
        """Hop distances from (and, by symmetry, to) v, counted from ``start``."""
        return _dijkstra(self._in, self.length, v, start)[0]

    def locate(self, v: int) -> tuple[int, int]:
        """(chain, position) of an interior gadget vertex."""
        c = bisect_right(self.base, v) - 1
        return c, v - self.base[c] + 1

    def dist_from(self, s: int) -> _ChainTable:
        table = self._from.get(s)
        if table is None:
            if s < self.n_original:
                table = _ChainTable(self, self._hops(s, 0), True, -1, 0)
            else:
                c, p = self.locate(s)
                table = _ChainTable(self, self._hops(self.last[c], self.length[c] - p), True, c, p)
            self._from[s] = table
        return table

    def dist_to(self, t: int) -> _ChainTable:
        table = self._to.get(t)
        if table is None:
            if t < self.n_original:
                table = _ChainTable(self, self._hops(t, 0), False, -1, 0)
            else:
                c, p = self.locate(t)
                table = _ChainTable(self, self._hops(self.first[c], p), False, c, p)
            self._to[t] = table
        return table

    def pivots(self, ds: _ChainTable, dt: _ChainTable, hi_s: float, hi_t: float) -> _Candidates:
        # distances are integers: d <= hi exactly when d <= floor(hi)
        fs, ft = math.floor(hi_s), math.floor(hi_t)
        originals = [
            v for v in range(self.n_original) if ds.orig[v] <= fs and dt.orig[v] <= ft
        ]
        starts, counts = [], []
        for c in range(len(self.first)):
            for lo1, hi1, a in ds.runs(c):
                for lo2, hi2, b in dt.runs(c):
                    # a + q <= fs and b - q <= ft on both runs
                    lo = max(lo1, lo2, b - ft)
                    hi = min(hi1, hi2, fs - a)
                    if hi >= lo:
                        starts.append(self.base[c] + lo - 1)
                        counts.append(hi - lo + 1)
        return _Candidates(originals, starts, counts)

    def base_walk(self, s: int, t: int) -> Walk | None:
        ds = self.dist_from(s)
        if ds[t] == _INF:
            return None
        segments = []
        v = t
        if v >= self.n_original:
            c, q = self.locate(v)
            if c == ds.chain and q >= ds.pos:
                return Walk(s, t, ((c, ds.pos, q),))
            segments.append((c, 0, q))
            v = self.first[c]
        while v != s:
            want = ds.orig[v] - 1
            for a, c in self._in[v]:
                if ds.at(c, self.length[c] - 1) == want:
                    break
            else:
                raise LipgraphError(f"no tight chain into gadget vertex {v}")
            k = self.length[c]
            if c == ds.chain:
                segments.append((c, ds.pos, k))
                break
            segments.append((c, 0, k))
            v = a
        segments.reverse()
        return Walk(s, t, tuple(segments))

    def edge_walk(self, walk: Walk) -> Walk:
        """Merge a walk's chain segments into whole chain traversals and
        return them as original-edge steps."""
        runs = []
        for c, a, z in walk.steps:
            if runs and runs[-1][0] == c and runs[-1][2] == a:
                runs[-1][2] = z
            else:
                runs.append([c, a, z])
        steps = []
        for c, a, z in runs:
            if a != 0 or z != self.length[c]:
                raise MalformedWalk(
                    f"run over edge {self.edge[c]} covers positions {a}..{z}, "
                    f"chain length is {self.length[c]}"
                )
            steps.append((self.edge[c], self.direction[c]))
        return Walk(walk.source, walk.target, tuple(steps))


def _zero_weight_walk(g: WeightedMultigraph, w, s: int, t: int) -> Walk:
    """BFS walk from s to t over the zero-weight edges, which connect them
    when the optimum is zero."""
    zero = np.flatnonzero(w == 0).tolist()
    walk = _bfs_walk(WeightedMultigraph(g.n, tuple(g.edges[e] for e in zero)), s, t)
    return Walk(s, t, tuple((zero[e], d) for e, d in walk.steps))


@dataclass(frozen=True)
class LipSpResult:
    walk: Walk
    gadget: GadgetGraph | None
    gadget_walk: Walk | None
    zero_optimum: bool = False


def _optimum(g: WeightedMultigraph, w, s: int, t: int) -> float:
    opt = _dijkstra(g.adjacency, w, s)[0][t]
    if opt == _INF:
        raise Unreachable(f"{t} unreachable from {s}")
    return opt


def lip_sp_run(
    g: WeightedMultigraph, w, s: int, t: int, epsilon: float, rng: RandomStream
) -> LipSpResult:
    """Explicit reference run: builds the gadget and keeps it and the gadget
    walk for inspection.  Its walk equals :func:`lip_sp`'s."""
    _check_epsilon(epsilon)
    w = check_weights(g, w)
    s, t = check_vertex(g, s), check_vertex(g, t)
    if s == t:
        return LipSpResult(Walk(s, t, ()), None, None)
    opt = _optimum(g, w, s, t)
    if opt == 0.0:
        return LipSpResult(_zero_weight_walk(g, w, s, t), None, None, zero_optimum=True)
    gadget = _build_gadget_from(g, w, epsilon, *_sample_draws(g, epsilon, opt, rng))
    hat_walk = sp(gadget.graph, s, t, epsilon / 4.0, rng)
    return LipSpResult(map_walk_back(gadget, hat_walk), gadget, hat_walk)


def _gadget_walk(g: WeightedMultigraph, hat, s: int, t: int, epsilon: float, rng) -> Walk:
    gadget = ImplicitGadget(g, hat, inclusion_cap(g.n, epsilon))
    return gadget.edge_walk(sp(gadget, s, t, epsilon / 4.0, rng))


def lip_sp(
    g: WeightedMultigraph, w, s: int, t: int, epsilon: float, rng: RandomStream
) -> Walk:
    """(1+epsilon)-approximate weighted s-t walk (per sample, every seed).

    Runs on the implicit gadget; the walk equals :func:`lip_sp_run`'s.
    """
    return _lip_sp(g, check_weights(g, w), check_vertex(g, s), check_vertex(g, t), epsilon, rng)


def _lip_sp(g, w, s, t, epsilon, rng):
    _check_epsilon(epsilon)
    if s == t:
        return Walk(s, t, ())
    opt = _optimum(g, w, s, t)
    if opt == 0.0:
        return _zero_weight_walk(g, w, s, t)
    b, x = _sample_draws(g, epsilon, opt, rng)
    _, hat = rounded_lengths(w, b, x)
    return _gadget_walk(g, hat, s, t, epsilon, rng)


@dataclass(frozen=True)
class CoupledRounding:
    """Joint rounding draws for a weight vector and its single-edge bump."""

    b1: float
    b2: float
    x1: np.ndarray
    x2: np.ndarray
    hat1: np.ndarray
    hat2: np.ndarray


def coupled_rounding_st(
    g: WeightedMultigraph,
    w,
    s: int,
    t: int,
    f: int,
    delta: float,
    epsilon: float,
    rng: RandomStream,
) -> CoupledRounding:
    """Couple the (b, x) draws of runs on w and w + delta*1_f.

    (b1, x1) are :func:`lip_sp`'s draws.  b2 is the partner of b1 under the
    maximal coupling of the two sampling intervals.  Conditioned on equal
    b, every x(e) with e != f is shared and x(f) is
    passed through the wrap map x - delta/b (mod 1), which makes the
    rounded lengths satisfy: hat2(f) - hat1(f) = 1 exactly when
    x(f) <= delta/b, and all other lengths coincide.  Requires
    delta <= eps*opt/(12 n) so delta never exceeds b.
    """
    s, t = check_vertex(g, s), check_vertex(g, t)
    return _coupled_rounding(g, check_weights(g, w), s, t, check_edge(g, f), delta, epsilon, rng)


def _coupled_rounding(g, w, s, t, f, delta, epsilon, rng):
    _check_epsilon(epsilon)
    if not 0 < delta < math.inf:
        raise BadParams("delta must be positive and finite")
    w2 = w.copy()
    w2[f] += delta
    opt1 = _dijkstra(g.adjacency, w, s)[0][t]
    opt2 = _dijkstra(g.adjacency, w2, s)[0][t]
    if not (0 < opt1 < float("inf")) or not (0 < opt2 < float("inf")):
        raise BadParams("coupled rounding needs positive finite optima")
    lo1, hi1 = _b_interval(g, epsilon, opt1)
    if delta > lo1:
        raise BadParams("delta too large: must not exceed eps*opt/(12 n)")
    b1, x1 = _sample_draws(g, epsilon, opt1, rng)
    b2 = uniform_partner(b1, rng.random("lipsp", "b", "accept"), lo1, hi1, *_b_interval(g, epsilon, opt2))
    x2 = x1.copy()
    if b1 == b2:
        x2[f] = shift_wrap(x1[f], delta / b1)
    _, hat1 = rounded_lengths(w, b1, x1)
    _, hat2 = rounded_lengths(w2, b2, x2)
    return CoupledRounding(b1=b1, b2=b2, x1=x1, x2=x2, hat1=hat1, hat2=hat2)


def coupled_lip_sp(
    g: WeightedMultigraph,
    w,
    s: int,
    t: int,
    f: int,
    delta: float,
    epsilon: float,
    rng: RandomStream,
) -> tuple[Walk, Walk]:
    """One coupled pair of output walks for (w, w + delta*1_f).

    The directed walk routine consumes the same keyed stream in both runs,
    so all pivot and gamma draws are shared positionally.
    """
    s, t = check_vertex(g, s), check_vertex(g, t)
    return _coupled_lip_sp(g, check_weights(g, w), s, t, check_edge(g, f), delta, epsilon, rng)


def _coupled_lip_sp(g, w, s, t, f, delta, epsilon, rng):
    cr = _coupled_rounding(g, w, s, t, f, delta, epsilon, rng)
    return tuple(_gadget_walk(g, hat, s, t, epsilon, rng) for hat in (cr.hat1, cr.hat2))
