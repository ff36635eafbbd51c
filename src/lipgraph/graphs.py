"""Graph types: undirected multigraphs, directed graphs, walks, contraction.

All types are immutable after construction; derived structures (adjacency,
distance tables) are memoized on the instance, which is safe because the
underlying graph never changes.
"""

from __future__ import annotations

import operator
from collections import Counter, deque
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import BadParams, InvalidEdge, NotContractible, SelfLoop

_INF = float("inf")


def check_weights(g, w) -> np.ndarray:
    """The one weight rule: finite, nonnegative, and shaped as ``g`` says.

    ``g`` is a graph (a vector of length g.m), a bipartite shape (nU, nV),
    or None (a bipartite matrix of any shape).  Public functions apply the
    rule once per call; the private cores behind them trust their arrays.
    Returns w as a float array; raises BadParams.
    """
    w = np.asarray(w, dtype=float)
    shape = g if g is None or isinstance(g, tuple) else (g.m,)
    if (w.ndim != 2) if shape is None else (w.shape != shape):
        raise BadParams(f"weights have shape {w.shape}, expected {shape or '(nU, nV)'}")
    if not np.isfinite(w).all() or (w < 0).any():
        raise BadParams("weights must be finite and nonnegative")
    return w


def check_edge(g, f):
    """Return edge id f of graph g, or cell f = (i, j) of shape g, as Python ints.

    Keyed draws hash the repr of their key, so a numpy id would key other
    draws than the equal int.  A non-integer or out-of-range f raises
    InvalidEdge.
    """
    cell = isinstance(g, tuple)
    kind, shape = ("cell", g) if cell else ("edge", (g.m,))
    try:
        index = tuple(map(operator.index, f if cell else (f,)))
    except TypeError:
        raise InvalidEdge(f"{kind} {f!r} is not an integer index") from None
    if len(index) != len(shape) or not all(0 <= i < n for i, n in zip(index, shape)):
        raise InvalidEdge(f"{kind} {f} out of range")
    return index if cell else index[0]


@dataclass(frozen=True)
class WeightedMultigraph:
    """Undirected multigraph. Edge ids are dense 0..m-1 (list position).

    Parallel edges and self-loops are representable; weights live in a
    separate vector so one graph can pair with many weight vectors.
    """

    n: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        object.__setattr__(self, "edges", tuple((int(u), int(v)) for u, v in self.edges))
        for u, v in self.edges:
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise BadParams(f"edge ({u},{v}) out of range for n={self.n}")

    @property
    def m(self) -> int:
        return len(self.edges)

    def endpoints(self, e: int) -> tuple[int, int]:
        return self.edges[e]

    def is_self_loop(self, e: int) -> bool:
        u, v = self.edges[e]
        return u == v

    @cached_property
    def edge_array(self) -> np.ndarray:
        """Edges as an (m, 2) integer array."""
        if self.m == 0:
            return np.zeros((0, 2), dtype=np.int64)
        return np.asarray(self.edges, dtype=np.int64)

    @cached_property
    def self_loop_mask(self) -> np.ndarray:
        arr = self.edge_array
        return arr[:, 0] == arr[:, 1]

    @cached_property
    def adjacency(self) -> tuple:
        """Per-vertex sorted list of (neighbor, edge id); self-loops skipped."""
        adj = [[] for _ in range(self.n)]
        for e, (u, v) in enumerate(self.edges):
            if u == v:
                continue
            adj[u].append((v, e))
            adj[v].append((u, e))
        for lst in adj:
            lst.sort()
        return tuple(tuple(lst) for lst in adj)

    @cached_property
    def _bfs_cache(self) -> dict:
        return {}

    def bfs_tree(self, s: int) -> tuple[list, list, list]:
        """Hop distances, predecessor vertex and predecessor edge from s.

        Deterministic: adjacency is scanned in sorted order, so the first
        discovery (and hence the BFS tree) is reproducible.
        """
        if s in self._bfs_cache:
            return self._bfs_cache[s]
        dist = [_INF] * self.n
        pred_v = [-1] * self.n
        pred_e = [-1] * self.n
        dist[s] = 0
        queue = deque([s])
        adj = self.adjacency
        while queue:
            u = queue.popleft()
            du = dist[u] + 1
            for v, e in adj[u]:
                if dist[v] == _INF:
                    dist[v] = du
                    pred_v[v] = u
                    pred_e[v] = e
                    queue.append(v)
        self._bfs_cache[s] = (dist, pred_v, pred_e)
        return dist, pred_v, pred_e

    def hop_dist(self, s: int) -> list:
        return self.bfs_tree(s)[0]

    def is_connected(self) -> bool:
        if self.n == 0:
            return True
        return all(d < _INF for d in self.hop_dist(0))


class DirectedGraph:
    """Unweighted directed graph; arc ids are dense 0..m-1.

    Arcs are held in an (m, 2) integer array so large machine-generated
    graphs construct cheaply; ``arcs`` exposes the tuple view lazily.
    Instances are immutable.
    """

    def __init__(self, n: int, arcs):
        self.n = int(n)
        arr = np.array(arcs, dtype=np.int64, copy=True)
        if arr.size == 0:
            arr = arr.reshape(0, 2)
        if arr.ndim != 2 or arr.shape[1] != 2:
            raise BadParams("arcs must be a sequence of (tail, head) pairs")
        if arr.size and (arr.min() < 0 or arr.max() >= self.n):
            raise BadParams(f"arc endpoints out of range for n={self.n}")
        arr.setflags(write=False)
        self._arr = arr

    def __eq__(self, other):
        return (
            isinstance(other, DirectedGraph)
            and self.n == other.n
            and np.array_equal(self._arr, other._arr)
        )

    def __repr__(self):
        return f"DirectedGraph(n={self.n}, m={self.m})"

    @cached_property
    def arcs(self) -> tuple:
        return tuple((int(t), int(h)) for t, h in self._arr)

    @property
    def m(self) -> int:
        return len(self._arr)

    @property
    def _arc_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        return self._arr[:, 0], self._arr[:, 1]

    def out_degree(self, v: int) -> int:
        return int(np.count_nonzero(self._arc_arrays[0] == v))

    def in_degree(self, v: int) -> int:
        return int(np.count_nonzero(self._arc_arrays[1] == v))

    @staticmethod
    def _build_csr(tails, heads, n):
        from scipy.sparse import csr_matrix

        order = np.argsort(tails, kind="stable")
        indices = heads[order].astype(np.int32, copy=False)
        indptr = np.zeros(n + 1, dtype=np.int32)
        np.cumsum(np.bincount(tails, minlength=n), out=indptr[1:])
        # float64 data: csgraph routines would otherwise convert per call
        data = np.ones(len(tails), dtype=np.float64)
        return csr_matrix((data, indices, indptr), shape=(n, n))

    @cached_property
    def _csr(self):
        tails, heads = self._arc_arrays
        return self._build_csr(tails, heads, self.n)

    @cached_property
    def _csr_rev(self):
        tails, heads = self._arc_arrays
        return self._build_csr(heads, tails, self.n)

    @cached_property
    def _dist_cache(self) -> dict:
        return {}

    def bfs_from(self, s: int) -> tuple[np.ndarray, np.ndarray]:
        """Cached hop distances from s and canonical predecessor arcs.

        ``pred[v]`` is the lowest-id arc (a, v) with dist(a) = dist(v) - 1,
        or -1 at s and at unreachable vertices.  Shortest paths follow this
        one rule, so they depend on the graph alone, not on which tables
        were computed first.
        """
        cache = self._dist_cache
        key = ("from", s)
        if key not in cache:
            from scipy.sparse.csgraph import dijkstra

            dist = dijkstra(self._csr, unweighted=True, indices=s)
            tails, heads = self._arc_arrays
            dh = dist[heads]
            tight = np.flatnonzero(np.isfinite(dh) & (dist[tails] == dh - 1.0))
            # arc ids ascend, so the first occurrence per head is the lowest id
            vs, first = np.unique(heads[tight], return_index=True)
            pred = np.full(self.n, -1, dtype=np.int64)
            pred[vs] = tight[first]
            cache[key] = (dist, pred)
        return cache[key]

    def hop_dist_from(self, s: int) -> np.ndarray:
        """Hop counts from s to every vertex (inf when unreachable)."""
        return self.bfs_from(s)[0]

    def hop_dist_to(self, t: int) -> np.ndarray:
        """Hop counts from every vertex to t."""
        cache = self._dist_cache
        key = ("to", t)
        if key not in cache:
            from scipy.sparse.csgraph import dijkstra

            cache[key] = dijkstra(self._csr_rev, unweighted=True, indices=t)
        return cache[key]

    @cached_property
    def _csr_sorted_lookup(self):
        """(sorted keys, arc ids) for vectorized (tail, head) -> arc id lookup.

        Parallel arcs resolve to the lowest arc id.
        """
        tails, heads = self._arc_arrays
        keys = tails * self.n + heads
        order = np.lexsort((np.arange(len(keys)), keys))
        return keys[order], order

    def shortest_path(self, s: int, t: int):
        """(hop count, vertex path list) or (inf, None) when unreachable.

        Walks back from t along the canonical predecessor arcs of
        :meth:`bfs_from`.
        """
        dist, pred = self.bfs_from(s)
        if dist[t] == _INF:
            return _INF, None
        tails = self._arc_arrays[0]
        path = [t]
        v = t
        while v != s:
            v = int(tails[pred[v]])
            path.append(v)
        path.reverse()
        return float(len(path) - 1), path

    def arcs_for_vertex_path(self, path: list[int]) -> list[int]:
        """Arc ids along a vertex path (lowest arc id among parallels)."""
        if len(path) < 2:
            return []
        keys_sorted, ids = self._csr_sorted_lookup
        p = np.asarray(path, dtype=np.int64)
        want = p[:-1] * self.n + p[1:]
        pos = np.searchsorted(keys_sorted, want)
        if np.any(pos >= len(keys_sorted)) or np.any(keys_sorted[np.minimum(pos, len(keys_sorted) - 1)] != want):
            raise BadParams("vertex path contains a non-arc step")
        return ids[pos].tolist()


@dataclass(frozen=True)
class Walk:
    """Ordered edge traversal.  Steps are (edge id, direction).

    Direction +1 traverses the stored (u, v) orientation, -1 the reverse.
    Directed walks use +1 throughout.  A walk is also viewed as a multiset
    of edge ids (an edge used twice counts twice).
    """

    source: int
    target: int
    steps: tuple[tuple[int, int], ...]

    @cached_property
    def multiset(self) -> Counter:
        c = Counter()
        for e, _ in self.steps:
            c[e] += 1
        return c

    def __len__(self) -> int:
        return len(self.steps)

    def weighted_length(self, w) -> float:
        return float(sum(w[e] * k for e, k in self.multiset.items()))

    def validate(self, g) -> None:
        """Check chaining: consecutive steps share endpoints, ends match."""
        at = self.source
        edges = g.arcs if isinstance(g, DirectedGraph) else g.edges
        for e, direction in self.steps:
            u, v = edges[e]
            if direction == -1:
                u, v = v, u
            if isinstance(g, DirectedGraph) and direction != 1:
                raise BadParams("directed walks must use direction +1")
            if u != at:
                raise BadParams(f"step ({e},{direction}) starts at {u}, expected {at}")
            at = v
        if at != self.target:
            raise BadParams(f"walk ends at {at}, expected {self.target}")
        if not self.steps and self.source != self.target:
            raise BadParams("empty walk with source != target")


def walk_back(g: WeightedMultigraph, s: int, t: int, pred) -> Walk:
    """The s-t walk that enters each vertex v over edge pred[v]."""
    steps = []
    v = t
    while v != s:
        e = pred[v]
        a, b = g.edges[e]
        steps.append((e, 1 if b == v else -1))
        v = a if b == v else b
    steps.reverse()
    return Walk(s, t, tuple(steps))


def bfs_walk(g: WeightedMultigraph, s: int, t: int) -> Walk | None:
    """Deterministic BFS shortest walk from s to t, or None if unreachable.

    Each hop takes the lowest-id edge from the vertex's BFS parent.
    """
    dist, _, pred_e = g.bfs_tree(s)
    return walk_back(g, s, t, pred_e) if dist[t] < _INF else None


@dataclass(frozen=True)
class SpanningTree:
    """Edge-id set forming a spanning tree (n-1 edges, connected, acyclic)."""

    edges: frozenset

    def __init__(self, edges):
        object.__setattr__(self, "edges", frozenset(int(e) for e in edges))

    def weight(self, w) -> float:
        return float(sum(w[e] for e in self.edges))

    def validate(self, g: WeightedMultigraph) -> None:
        if len(self.edges) != g.n - 1:
            raise BadParams(f"tree has {len(self.edges)} edges, expected {g.n - 1}")
        parent = list(range(g.n))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for e in self.edges:
            u, v = g.edges[e]
            ru, rv = find(u), find(v)
            if ru == rv:
                raise BadParams("tree contains a cycle")
            parent[ru] = rv
        roots = {find(v) for v in range(g.n)}
        if len(roots) != 1:
            raise BadParams("tree does not connect all vertices")

    @property
    def multiset(self) -> Counter:
        return Counter({e: 1 for e in self.edges})


@dataclass(frozen=True)
class Matching:
    """Edge-id set with no shared vertices."""

    edges: frozenset

    def __init__(self, edges):
        object.__setattr__(self, "edges", frozenset(int(e) for e in edges))

    def weight(self, w) -> float:
        return float(sum(w[e] for e in self.edges))

    def vertex_map(self, g: WeightedMultigraph) -> dict:
        """vertex -> covering edge id; raises if two edges share a vertex."""
        cover = {}
        for e in self.edges:
            u, v = g.edges[e]
            if u == v:
                raise BadParams("matching contains a self-loop")
            for x in (u, v):
                if x in cover:
                    raise BadParams(f"vertex {x} covered twice")
                cover[x] = e
        return cover

    def validate(self, g: WeightedMultigraph) -> None:
        self.vertex_map(g)

    @property
    def multiset(self) -> Counter:
        return Counter({e: 1 for e in self.edges})


@dataclass(frozen=True)
class ContractionResult:
    """Contraction of an undirected edge or a directed arc, with translation maps.

    vertex_map sends old vertex ids to new ones (both endpoints of the
    contracted edge land on the fresh merged vertex).  edge_map sends old
    edge or arc ids to new ones, -1 for the contracted one itself.  In an
    undirected graph, parallel edges between the merged endpoints survive
    as self-loops flagged in loop_edges; a directed result flags none.
    """

    graph: WeightedMultigraph | DirectedGraph
    contracted_edge: int
    vertex_map: tuple
    edge_map: tuple
    loop_edges: frozenset

    @cached_property
    def edge_map_inverse(self) -> tuple:
        inv = [-1] * self.graph.m
        for old, new in enumerate(self.edge_map):
            if new >= 0:
                inv[new] = old
        return tuple(inv)

    def multiset_to_original(self, ms: Counter) -> Counter:
        inv = self.edge_map_inverse
        return Counter({inv[e]: k for e, k in ms.items()})


def _contract(n: int, pairs, e: int, u: int, v: int) -> tuple[tuple, list, tuple]:
    """(vertex_map, kept pairs, edge_map) of merging u and v into a fresh
    last vertex and dropping pair e."""
    merged = n - 2
    others = iter(range(merged))
    vertex_map = tuple(merged if x in (u, v) else next(others) for x in range(n))
    kept, edge_map = [], []
    for old, (a, b) in enumerate(pairs):
        edge_map.append(-1 if old == e else len(kept))
        if old != e:
            kept.append((vertex_map[a], vertex_map[b]))
    return vertex_map, kept, tuple(edge_map)


def contract_edge(g: WeightedMultigraph, e: int) -> ContractionResult:
    """Contract edge e: merge its endpoints into a fresh last vertex."""
    e = check_edge(g, e)
    u, v = g.edges[e]
    if u == v:
        raise SelfLoop(f"edge {e} is a self-loop")
    vertex_map, kept, edge_map = _contract(g.n, g.edges, e, u, v)
    loops = frozenset(
        edge_map[old] for old, (a, b) in enumerate(g.edges) if old != e and {a, b} == {u, v}
    )
    return ContractionResult(WeightedMultigraph(g.n - 1, kept), e, vertex_map, edge_map, loops)


def contract_directed(g: DirectedGraph, a: int) -> ContractionResult:
    """Contract arc a = (u, v); requires in/out degree 1 at both endpoints.

    Under that condition, reachability among surviving vertices is
    unchanged: every walk through u or v goes along the contracted arc.
    """
    a = check_edge(g, a)
    u, v = g.arcs[a]
    if u == v:
        raise NotContractible(f"arc {a} is a self-loop")
    for x in (u, v):
        if g.out_degree(x) != 1 or g.in_degree(x) != 1:
            raise NotContractible(
                f"arc {a}=({u},{v}): vertex {x} has degrees "
                f"({g.in_degree(x)} in, {g.out_degree(x)} out), need (1, 1)"
            )
    vertex_map, kept, edge_map = _contract(g.n, g.arcs, a, u, v)
    return ContractionResult(DirectedGraph(g.n - 1, kept), a, vertex_map, edge_map, frozenset())


def read_edge_list(text: str) -> tuple[WeightedMultigraph, np.ndarray]:
    """Parse the edge-list format: first line `n m`, then `u v w` per edge."""
    lines = [ln for ln in (s.strip() for s in text.splitlines()) if ln and not ln.startswith("#")]
    if not lines:
        raise BadParams("empty edge-list input")
    head = lines[0].split()
    if len(head) != 2:
        raise BadParams("first line must be 'n m'")
    n, m = int(head[0]), int(head[1])
    if len(lines) - 1 != m:
        raise BadParams(f"expected {m} edge lines, found {len(lines) - 1}")
    edges = []
    weights = []
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 3:
            raise BadParams(f"bad edge line: {ln!r}")
        u, v, w = int(parts[0]), int(parts[1]), float(parts[2])
        edges.append((u, v))
        weights.append(w)
    g = WeightedMultigraph(n, tuple(edges))
    return g, check_weights(g, np.array(weights))


def write_edge_list(g: WeightedMultigraph, w) -> str:
    lines = [f"{g.n} {g.m}"]
    for e, (u, v) in enumerate(g.edges):
        lines.append(f"{u} {v} {float(w[e])!r}")
    return "\n".join(lines) + "\n"


def read_bipartite(text: str) -> np.ndarray:
    """Parse the bipartite format: first line `nU nV`, then nU weight rows."""
    lines = [ln for ln in (s.strip() for s in text.splitlines()) if ln and not ln.startswith("#")]
    if not lines:
        raise BadParams("empty bipartite input")
    head = lines[0].split()
    if len(head) != 2:
        raise BadParams("first line must be 'nU nV'")
    nu, nv = int(head[0]), int(head[1])
    if len(lines) - 1 != nu:
        raise BadParams(f"expected {nu} weight rows, found {len(lines) - 1}")
    rows = []
    for ln in lines[1:]:
        row = [float(x) for x in ln.split()]
        if len(row) != nv:
            raise BadParams(f"row has {len(row)} entries, expected {nv}")
        rows.append(row)
    return check_weights((nu, nv), np.array(rows, dtype=float))
