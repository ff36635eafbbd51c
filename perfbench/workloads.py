"""The three benchmark workloads: instances made from a seed, and their operations.

An operation is one top-level call into lipgraph's public API.  A workload
is a fixed list of operations (one round); the runner repeats whole rounds.
Instances are drawn with numpy from the workload seed and never with
``lipgraph.harness.gen_instance``, so a change to that generator cannot
change what the benchmark feeds the program.  The random streams of the
calls are keyed by the operation's place in the list, not by the seed:
the seed varies the instances, the stream keys stay fixed.

Graph objects are rebuilt for every round (``Workload.fresh``), so no round
profits from distances or adjacency that an earlier round memoized on them.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import dijkstra as cs_dijkstra

import lipgraph
import lipgraph.cli
from lipgraph.graphs import write_edge_list


@dataclass(frozen=True)
class Graph:
    """Undirected instance with weights and, for path problems, endpoints."""

    n: int
    edges: tuple
    w: np.ndarray
    s: int = 0
    t: int = 0


@dataclass(frozen=True)
class Op:
    """One call: ``kind`` names the entry point, ``inst`` the instance key.

    ``group`` collects repeated samples of one distribution (same instance,
    same parameters); the checks compare the two halves of each group.
    """

    kind: str
    inst: str
    params: tuple = ()
    stream: tuple = ()
    group: tuple | None = None

    def p(self, name, default=None):
        return dict(self.params).get(name, default)


@dataclass
class Workload:
    name: str
    graphs: dict
    bipartite: dict
    ops: list
    workdir: str = ""  # where the CLI runs read instances and write CSV

    def fresh(self) -> dict:
        """New lipgraph graph objects, one per instance, for one round."""
        return {k: lipgraph.WeightedMultigraph(g.n, g.edges) for k, g in self.graphs.items()}


# ---------------------------------------------------------------------------
# instance generators


def random_connected(rng: np.random.Generator, n: int, m: int, w_lo: int, w_hi: int) -> Graph:
    """Simple connected graph: a random spanning tree plus distinct extra pairs.

    Integer weights uniform in [w_lo, w_hi]; edges listed in sorted order.
    """
    order = rng.permutation(n)
    chosen = set()
    for i in range(1, n):
        a, b = int(order[i]), int(order[rng.integers(0, i)])
        chosen.add((min(a, b), max(a, b)))
    rest = [(u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in chosen]
    extra = rng.choice(len(rest), m - (n - 1), replace=False)
    chosen.update(rest[i] for i in extra)
    edges = tuple(sorted(chosen))
    w = rng.integers(w_lo, w_hi + 1, size=m).astype(float)
    return Graph(n, edges, w)


def grid_graph(rows: int, cols: int) -> Graph:
    edges = []
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            if c + 1 < cols:
                edges.append((v, v + 1))
            if r + 1 < rows:
                edges.append((v, v + cols))
    return Graph(rows * cols, tuple(edges), np.ones(len(edges)))


def distances(g: Graph, s: int) -> np.ndarray:
    """Weighted distances from s (scipy), used to pick endpoints."""
    e = np.asarray(g.edges)
    a = coo_matrix((g.w, (e[:, 0], e[:, 1])), shape=(g.n, g.n)).tocsr()
    return cs_dijkstra(a, directed=False, indices=s)


def with_endpoints(g: Graph, s: int, t: int) -> Graph:
    return Graph(g.n, g.edges, g.w, s, t)


def farthest_from_zero(g: Graph) -> Graph:
    d = distances(g, 0)
    return with_endpoints(g, 0, int(np.argmax(d)))


def pair_at_distance(g: Graph, rng: np.random.Generator, target: float) -> Graph:
    """Endpoints at weighted distance exactly ``target`` when such a pair exists.

    Fixing the s-t optimum fixes the gadget's discretization step, so the
    gadget size depends on the total weight alone and barely moves with
    the seed.  Falls back to the farthest pair below ``target``.
    """
    best = None
    for s in rng.permutation(g.n):
        d = distances(g, int(s))
        hit = np.flatnonzero(d == target)
        if hit.size:
            return with_endpoints(g, int(s), int(hit[0]))
        below = np.where(d < target, d, -1.0)
        t = int(np.argmax(below))
        if best is None or below[t] > best[0]:
            best = (below[t], int(s), t)
    return with_endpoints(g, best[1], best[2])


# ---------------------------------------------------------------------------
# workloads


def interleave(ops: list) -> list:
    """The operations in a fixed shuffled order, the same for every seed.

    Machine speed drifts by several percent within a second on a shared
    host; spreading each kind of call over the whole round makes its
    latency percentiles average over that drift instead of sampling one
    stretch of it.
    """
    return [ops[i] for i in np.random.default_rng(0).permutation(len(ops))]


def small_instances(seed: int, workdir: str) -> Workload:
    """Monte Carlo sampling on the acceptance criteria 01, 06, 09 and 12 families.

    Sizes follow the instance index, not the seed, and many instances with
    few samples each keep the per-round cost from moving with the seed.
    """
    rng = np.random.default_rng([seed, 1])
    graphs, bip, ops = {}, {}, []
    for gi in range(48):
        n = 3 + gi % 8
        m = min(n - 1 + (gi // 8) % 6, n * (n - 1) // 2)
        key = f"mst{gi}"
        graphs[key] = random_connected(rng, n, m, 1, 9)
        for eps in (0.1, 0.5, 1.0):
            for kind in ("lip_mst", "plip_mst"):
                for k in range(6):
                    ops.append(Op(kind, key, (("epsilon", eps),), (kind, gi, eps, k), (kind, key, eps)))
    for gi in range(24):
        n = 4 + gi % 2
        key = f"sp{gi}"
        graphs[key] = farthest_from_zero(random_connected(rng, n, n + 1, 1, 2))
        for eps in (0.25, 0.5):
            for k in range(20):
                ops.append(Op("lip_sp", key, (("epsilon", eps),), ("lip_sp", gi, eps, k), ("lip_sp", key, eps)))
    for gi in range(48):
        n = 4 + gi % 5
        m = min(12, n * (n - 1) // 2, n + 2 + (gi // 5) % 4)
        key = f"mwm{gi}"
        graphs[key] = random_connected(rng, n, m, 1, 9)
        for k in range(20):
            ops.append(Op("lip_mwm", key, (("alpha", 2.1),), ("lip_mwm", gi, k), ("lip_mwm", key)))
    for gi in range(128):
        nu, nv = ((3, 4), (5, 5))[gi % 2]
        key = f"bip{gi}"
        bip[key] = rng.random((nu, nv))
        for k in range(5):
            ops.append(Op("plip_mwbm", key, (("epsilon", 0.05),), ("plip_mwbm", gi, k), ("plip_mwbm", key)))
    # Fails every time with NoConvergence (solve_lp_ent); inputs fixed, not seeded.
    bip["noconv"] = np.random.default_rng(54).random((6, 3)) * 3
    ops.append(Op("plip_mwbm", "noconv", (("epsilon", 0.01),), ("noconv",)))
    return Workload("small-instances", graphs, bip, interleave(ops))


def large_graphs(seed: int, workdir: str) -> Workload:
    """Gadget scaling for weighted paths, and the recursive branch of ``sp``.

    The grid and the ladder are the same for every seed (corner to corner);
    the seed draws the random graphs for ``lip_sp``.
    """
    rng = np.random.default_rng([seed, 2])
    graphs, ops = {}, []
    # s-t distances chosen so the gadgets span about 0.2M to 2.2M vertices
    for n, dist, n_graphs, calls in ((50, 12, 5, 4), (100, 14, 4, 3), (200, 24, 3, 1)):
        for gi in range(n_graphs):
            key = f"lipsp{n}_{gi}"
            graphs[key] = pair_at_distance(random_connected(rng, n, 3 * n, 1, 9), rng, float(dist))
            for k in range(calls):
                ops.append(Op("lip_sp", key, (("epsilon", 0.25),), ("lip_sp", n, gi, k), ("lip_sp", key)))
    # hop distances 58 and 150, far above 1/gamma = 10: recursion depth 4 to 7
    for key, rows, cols, calls in (("grid", 30, 30, 35), ("ladder", 2, 150, 30)):
        graphs[key] = with_endpoints(grid_graph(rows, cols), 0, rows * cols - 1)
        for k in range(calls):
            ops.append(
                Op("sp", key, (("epsilon", 0.5), ("gamma", 0.1)), ("sp", key, k), ("sp", key))
            )
    return Workload("large-graphs", graphs, {}, interleave(ops))


def stability_sweep(seed: int, workdir: str) -> Workload:
    """Perturbation experiments swept over edges or cells, plus CLI runs.

    Sweeps cover every edge, as a search for the worst-case ratio does.
    The unit 4x4 grid (wide output supports) is the same for every seed
    and carries most of the time; the seed draws the matching, path and
    bipartite instances (narrow supports).
    """
    rng = np.random.default_rng([seed, 3])
    graphs, bip, ops = {}, {}, []
    graphs["unitgrid"] = grid_graph(4, 4)
    for f in range(24):
        ops.append(Op("lipschitz", "unitgrid", (("alg", "mst"), ("metric", "weighted"), ("edge", f),
                                                ("delta", 0.05), ("epsilon", 0.5), ("trials", 40))))
    for f in range(0, 24, 3):
        ops.append(Op("lipschitz", "unitgrid", (("alg", "pmst"), ("metric", "unweighted"), ("edge", f),
                                                ("delta", 0.05), ("epsilon", 0.5), ("trials", 40))))
    # one wide-support estimate: about 300 x 300 outcomes in its EMD
    ops.append(Op("lipschitz", "unitgrid", (("alg", "pmst"), ("metric", "unweighted"), ("edge", 11),
                                            ("delta", 0.05), ("epsilon", 0.5), ("trials", 300))))
    for gi in range(6):
        n = 8 + gi % 3
        key = f"mwm{gi}"
        graphs[key] = random_connected(rng, n, 2 * n, 1, 9)
        for f in range(2 * n):
            ops.append(Op("lipschitz", key, (("alg", "mwm"), ("metric", "weighted"), ("edge", f),
                                             ("delta", 0.05), ("alpha", 2.1), ("trials", 12))))
    for gi in range(2):
        key = f"sp{gi}"
        g = farthest_from_zero(random_connected(rng, 6, 9, 1, 9))
        graphs[key] = g
        opt = float(distances(g, g.s)[g.t])
        delta = 0.5 * 0.25 * opt / (12 * g.n)  # below eps*opt/(12n), as coupled rounding needs
        for f in range(9):
            ops.append(Op("lipschitz", key, (("alg", "sp"), ("metric", "weighted"), ("edge", f),
                                             ("delta", delta), ("epsilon", 0.25), ("trials", 10))))
    bip["bip"] = rng.random((5, 5))
    for c in range(5):
        ops.append(Op("bipartite", "bip", (("cell", (c, c)), ("delta", 0.05),
                                           ("epsilon", 0.1), ("trials", 5))))
    graphs["ladder"] = with_endpoints(grid_graph(2, 12), 0, 23)
    for e, (u, v) in enumerate(graphs["ladder"].edges):
        if not {u, v} & {0, 23}:
            ops.append(Op("contraction", "ladder", (("edge", e), ("epsilon", 0.5), ("trials", 30))))

    files = {}
    for key in ("unitgrid", "mwm0", "ladder"):
        g = graphs[key]
        files[key] = os.path.join(workdir, f"{key}.txt")
        with open(files[key], "w", encoding="utf-8") as fh:
            fh.write(write_edge_list(lipgraph.WeightedMultigraph(g.n, g.edges), g.w))
    files["bip"] = os.path.join(workdir, "bip.txt")
    with open(files["bip"], "w", encoding="utf-8") as fh:
        fh.write("5 5\n" + "\n".join(" ".join(repr(float(x)) for x in row) for row in bip["bip"]) + "\n")
    cli_runs = (
        ("unitgrid", ["mst", "--epsilon", "0.5", "--pointwise", "--perturb-edge", "5", "--delta", "0.05",
                      "--trials", "20"]),
        ("mwm0", ["mwm", "--alpha", "2.1", "--perturb-edge", "3", "--delta", "0.05", "--trials", "40"]),
        ("ladder", ["sp-unweighted", "--source", "0", "--target", "23", "--epsilon", "0.5",
                    "--contract-edge", "10", "--trials", "40", "--check"]),
        ("bip", ["bmatch", "--epsilon", "0.1", "--perturb-cell", "1", "2", "--delta", "0.05",
                 "--trials", "5"]),
    )
    for i, (key, argv) in enumerate(cli_runs):
        out = os.path.join(workdir, f"cli{i}.csv")
        argv = argv + ["--input", files[key], "--seed", str(i), "--csv", out, "--quiet"]
        ops.append(Op("cli", key, (("argv", tuple(argv)), ("csv", out))))
    return Workload("stability-sweep", graphs, bip, interleave(ops), workdir)


WORKLOADS = {
    "small-instances": small_instances,
    "large-graphs": large_graphs,
    "stability-sweep": stability_sweep,
}


# ---------------------------------------------------------------------------
# running one operation


def stream(op: Op):
    return lipgraph.RandomStream(20240731).sub(*op.stream)


def call(op: Op, wl: Workload, objs: dict):
    """Make the operation's one call into lipgraph and return its result.

    Entry points are looked up on their modules at call time, so a traced
    run sees the wrapped functions.
    """
    k = op.kind
    if k == "plip_mwbm":
        w = wl.bipartite[op.inst]
        rs = lipgraph.RandomStream(54).sub(0.01) if op.inst == "noconv" else stream(op)
        return lipgraph.plip_mwbm(w.shape[0], w.shape[1], w, op.p("epsilon"), rs)
    if k == "bipartite":
        return lipgraph.estimate_bipartite_pointwise(
            wl.bipartite[op.inst], op.p("cell"), op.p("delta"), op.p("epsilon"), op.p("trials"), 7
        )
    if k == "cli":
        return lipgraph.cli.main(list(op.p("argv")))
    g, data = objs[op.inst], wl.graphs[op.inst]
    if k == "lip_mst":
        return lipgraph.lip_mst(g, data.w, op.p("epsilon"), stream(op))
    if k == "plip_mst":
        return lipgraph.plip_mst(g, data.w, op.p("epsilon"), stream(op))
    if k == "lip_sp":
        return lipgraph.lip_sp(g, data.w, data.s, data.t, op.p("epsilon"), stream(op))
    if k == "sp":
        return lipgraph.sp(g, data.s, data.t, op.p("epsilon"), stream(op), gamma_override=op.p("gamma"))
    if k == "lip_mwm":
        return lipgraph.lip_mwm(g, data.w, op.p("alpha"), stream(op))
    if k == "lipschitz":
        point = {key: op.p(key) for key in ("epsilon", "alpha") if op.p(key) is not None}
        if op.p("alg") == "sp":
            point.update(source=data.s, target=data.t)
        return lipgraph.estimate_lipschitz(
            op.p("alg"), g, data.w, op.p("edge"), op.p("delta"), op.p("trials"), 7,
            metric=op.p("metric"), point=point,
        )
    if k == "contraction":
        return lipgraph.estimate_contraction_sensitivity(
            g, data.s, data.t, op.p("epsilon"), op.p("edge"), None, op.p("trials"), 7
        )
    raise ValueError(f"unknown operation kind {k!r}")


def warm_up(wl: Workload) -> None:
    """One call per entry point the workload uses, on instances of its own.

    Loads what lipgraph imports lazily (scipy's csgraph, optimize and
    sparse modules) before timing starts.
    """
    g = lipgraph.WeightedMultigraph(4, ((0, 1), (1, 2), (2, 3), (0, 3), (0, 2)))
    w = np.array([1.0, 2.0, 1.0, 3.0, 2.0])
    rs = lipgraph.RandomStream(1)
    kinds = {op.kind for op in wl.ops}
    if "lip_mst" in kinds:
        lipgraph.lip_mst(g, w, 0.5, rs)
    if "plip_mst" in kinds:
        lipgraph.plip_mst(g, w, 0.5, rs)
    if "lip_sp" in kinds:
        lipgraph.lip_sp(g, w, 0, 2, 0.25, rs)
    if "sp" in kinds:
        lipgraph.sp(g, 0, 2, 0.5, rs, gamma_override=0.1)
    if "lip_mwm" in kinds:
        lipgraph.lip_mwm(g, w, 2.1, rs)
    if "plip_mwbm" in kinds:
        lipgraph.plip_mwbm(2, 2, np.array([[1.0, 0.5], [0.2, 1.0]]), 0.1, rs)
    if "lipschitz" in kinds:
        lipgraph.estimate_lipschitz("mst", g, w, 1, 0.05, 8, 1, point={"epsilon": 0.5})
    if "bipartite" in kinds:
        lipgraph.estimate_bipartite_pointwise(np.array([[1.0, 0.5], [0.2, 1.0]]), (0, 1), 0.05, 0.1, 4, 1)
    if "contraction" in kinds:
        lipgraph.estimate_contraction_sensitivity(g, 0, 1, 0.5, 2, None, 4, 1)
    if "cli" in kinds:
        path = os.path.join(wl.workdir, "warmup.txt")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(write_edge_list(g, w))
        lipgraph.cli.main(["mst", "--input", path, "--epsilon", "0.5", "--trials", "4",
                           "--csv", os.path.join(wl.workdir, "warmup.csv"), "--quiet"])
