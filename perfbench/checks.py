"""Correctness checks, made apart from the program under test.

Optima come from networkx and scipy (Dijkstra via ``scipy.sparse.csgraph``,
assignments via ``linear_sum_assignment``); structural properties
(spanning, acyclic, chaining, disjointness) are recomputed here from edge
lists.
Every check raises ``CheckError`` with a reason; ``check_workload`` runs
them over one round's results and returns the failures as strings.
"""

from __future__ import annotations

import csv
import math
from collections import Counter

import networkx as nx
import numpy as np
from scipy.optimize import linear_sum_assignment

import lipgraph
from lipgraph import metrics
from perfbench.workloads import distances

TOL = 1e-9
LP_TOL = 1e-7
EMD_RTOL = 1e-9


class CheckError(Exception):
    """An output violates a property the method must have."""


def _nx_graph(n, edges, w):
    g = nx.MultiGraph()
    g.add_nodes_from(range(n))
    for e, (u, v) in enumerate(edges):
        g.add_edge(u, v, key=e, weight=float(w[e]))
    return g


def optima(wl) -> dict:
    """Per instance: the exact optimum each of its operations is held to."""
    kinds = {}
    for op in wl.ops:
        kinds.setdefault(op.inst, set()).add(op.kind)
    out = {}
    for key, ks in kinds.items():
        if key in wl.bipartite:
            w = wl.bipartite[key]
            r, c = linear_sum_assignment(w, maximize=True)
            out[key] = float(w[r, c].sum())
            continue
        g = wl.graphs[key]
        nxg = _nx_graph(g.n, g.edges, g.w)
        if ks & {"lip_mst", "plip_mst"}:
            tree = nx.minimum_spanning_tree(nxg, weight="weight")
            out[key] = float(sum(d["weight"] for _, _, d in tree.edges(data=True)))
        elif "lip_sp" in ks:
            out[key] = float(distances(g, g.s)[g.t])
        elif "sp" in ks:
            out[key] = float(nx.shortest_path_length(nxg, g.s, g.t))
        elif "lip_mwm" in ks:
            simple = nx.Graph()
            for e, (u, v) in enumerate(g.edges):
                if u != v and (not simple.has_edge(u, v) or simple[u][v]["weight"] < g.w[e]):
                    simple.add_edge(u, v, weight=float(g.w[e]))
            m = nx.max_weight_matching(simple, weight="weight")
            out[key] = float(sum(simple[u][v]["weight"] for u, v in m))
    return out


# ---------------------------------------------------------------------------
# single-output checks


def check_tree(n, edges, tree, w, opt, eps) -> None:
    """Spanning, acyclic, and weight at most (1+eps) * opt."""
    tree = sorted(tree)
    if len(tree) != n - 1:
        raise CheckError(f"tree has {len(tree)} edges, needs {n - 1}")
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for e in tree:
        ru, rv = find(edges[e][0]), find(edges[e][1])
        if ru == rv:
            raise CheckError(f"tree edge {e} closes a cycle")
        parent[ru] = rv
    if len({find(v) for v in range(n)}) != 1:
        raise CheckError("tree does not span the graph")
    weight = float(sum(w[e] for e in tree))
    if weight > (1.0 + eps) * opt + TOL:
        raise CheckError(f"tree weight {weight} exceeds (1+{eps}) * {opt}")


def check_chain(edges, s, t, steps) -> None:
    """Each step starts where the previous one ended; the walk runs s to t."""
    at = s
    for e, direction in steps:
        if not 0 <= e < len(edges) or direction not in (1, -1):
            raise CheckError(f"bad step ({e}, {direction})")
        u, v = edges[e] if direction == 1 else edges[e][::-1]
        if u != at:
            raise CheckError(f"step ({e}, {direction}) leaves {u}, walk is at {at}")
        at = v
    if at != t:
        raise CheckError(f"walk ends at {at}, not {t}")


def check_walk(edges, s, t, steps, w, opt, eps) -> None:
    check_chain(edges, s, t, steps)
    weight = float(sum(w[e] for e, _ in steps))
    if weight > (1.0 + eps) * opt + TOL:
        raise CheckError(f"walk weight {weight} exceeds (1+{eps}) * {opt}")


def check_unweighted_walk(edges, s, t, steps, opt, gamma) -> None:
    check_chain(edges, s, t, steps)
    if len(steps) > opt ** (1.0 + 14.0 * gamma) + TOL:
        raise CheckError(f"walk length {len(steps)} exceeds {opt}^(1+14*{gamma})")


def check_matching(edges, matching, w, opt) -> None:
    seen = set()
    for e in matching:
        u, v = edges[e]
        if u == v or u in seen or v in seen:
            raise CheckError(f"matching edge {e} reuses a vertex")
        seen.update((u, v))
    weight = float(sum(w[e] for e in matching))
    if weight > opt + TOL:
        raise CheckError(f"matching weight {weight} exceeds the optimum {opt}")


def check_bipartite(w, pairs, opt) -> None:
    rows = [i for i, _ in pairs]
    cols = [j for _, j in pairs]
    if len(set(rows)) != len(rows) or len(set(cols)) != len(cols):
        raise CheckError("matching reuses a row or a column")
    weight = float(sum(w[i, j] for i, j in pairs))
    if weight > opt + TOL:
        raise CheckError(f"matching weight {weight} exceeds the optimum {opt}")


def check_lp(w, x, eps, opt) -> None:
    """Row and column sums at most 1 and sum w*x >= (1 - 2 eps) opt, from x."""
    x = np.asarray(x, dtype=float)
    excess = max(float(x.sum(axis=1).max()), float(x.sum(axis=0).max()))
    if excess > 1.0 + LP_TOL:
        raise CheckError(f"LP row or column sum {excess} exceeds 1")
    value = float((w * x).sum())
    if value < (1.0 - 2.0 * eps) * opt - TOL:
        raise CheckError(f"LP value {value} below (1-2*{eps}) * {opt}")


def assignment_emd(a: np.ndarray, b: np.ndarray, w: np.ndarray) -> float:
    """EMD between two equal-size sample lists as a min-cost assignment.

    Rows of ``a`` and ``b`` are edge-multiplicity vectors; the cost of a
    pair is sum_e w(e) |a(e) - b(e)|.
    """
    cost = np.abs(a[:, None, :] - b[None, :, :]) @ w
    r, c = linear_sum_assignment(cost)
    return float(cost[r, c].sum() / len(a))


def check_emd(value, a, b, w) -> None:
    ref = assignment_emd(a, b, w)
    if abs(value - ref) > EMD_RTOL * abs(ref) + 1e-12:
        raise CheckError(f"emd_empirical gave {value!r}, assignment gives {ref!r}")


def emd_agreement(samples_a, samples_b, m, w=None) -> None:
    """Compare lipgraph's emd_empirical with an assignment on the same lists.

    Samples are Counters over ids 0..m-1; ``w`` weights the ids (None for
    the plain symmetric-difference metric).
    """
    if w is None:
        cost_fn, wv = metrics.unweighted_cost, np.ones(m)
    else:
        cost_fn, wv = metrics.weighted_cost(w, w), np.asarray(w, dtype=float)
    value = metrics.emd_empirical(
        metrics.EdgeSetDistribution.from_samples(samples_a),
        metrics.EdgeSetDistribution.from_samples(samples_b),
        cost_fn,
    )
    check_emd(value, _vectors(samples_a, m), _vectors(samples_b, m), wv)


def _vectors(samples, m) -> np.ndarray:
    out = np.zeros((len(samples), m))
    for i, ms in enumerate(samples):
        for e, k in ms.items():
            out[i, e] = k
    return out


def check_estimate(est, trials) -> None:
    values = (est.coupled_mean, est.coupled_stderr, est.emd, est.emd_stderr)
    if est.trials != trials or not all(math.isfinite(v) and v >= 0 for v in values):
        raise CheckError(f"malformed estimate {est}")


def check_csv(path, trials) -> None:
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != "# lipgraph-csv v1":
        raise CheckError(f"{path}: missing CSV schema line")
    rows = list(csv.DictReader(lines[1:]))
    if len(rows) != 1 or rows[0]["trials"] != str(trials):
        raise CheckError(f"{path}: expected one row of {trials} trials")
    row = rows[0]
    if row["violations"] not in ("", "0"):
        raise CheckError(f"{path}: {row['violations']} guarantee violations")
    for col in ("ratio_mean", "coupled_estimate", "emd_estimate"):
        if not float(row[col]) >= 0:
            raise CheckError(f"{path}: bad {col} {row[col]!r}")


# ---------------------------------------------------------------------------
# one round


def _sample(op, res, wl):
    """The output as a Counter over edge (or cell) ids, for EMD checks."""
    if op.kind in ("lip_mst", "plip_mst"):
        return Counter(res.tree.edges)
    if op.kind in ("lip_sp", "sp"):
        return Counter(e for e, _ in res.steps)
    if op.kind == "lip_mwm":
        return Counter(res.edges)
    nv = wl.bipartite[op.inst].shape[1]
    return Counter(i * nv + j for i, j in res.matching)


def check_output(op, res, wl, opt) -> None:
    if op.kind in ("lip_mst", "plip_mst"):
        g = wl.graphs[op.inst]
        check_tree(g.n, g.edges, res.tree.edges, g.w, opt, op.p("epsilon"))
    elif op.kind == "lip_sp":
        g = wl.graphs[op.inst]
        check_walk(g.edges, g.s, g.t, res.steps, g.w, opt, op.p("epsilon"))
    elif op.kind == "sp":
        g = wl.graphs[op.inst]
        check_unweighted_walk(g.edges, g.s, g.t, res.steps, opt, op.p("gamma"))
    elif op.kind == "lip_mwm":
        g = wl.graphs[op.inst]
        check_matching(g.edges, res.edges, g.w, opt)
    elif op.kind == "plip_mwbm":
        w = wl.bipartite[op.inst]
        check_bipartite(w, res.matching, opt)
        check_lp(w, res.lp.x, op.p("epsilon"), opt)
    elif op.kind in ("lipschitz", "bipartite", "contraction"):
        check_estimate(res, op.p("trials"))
    elif op.kind == "cli":
        if res != 0:
            raise CheckError(f"lipgraph {' '.join(op.p('argv'))} exited {res}")
        check_csv(op.p("csv"), int(op.p("argv")[op.p("argv").index("--trials") + 1]))


def check_workload(wl, results, opt) -> list:
    """Check every output of one round; returns the failures found.

    ``results`` pairs each operation with its return value, or None when
    the operation raised (those are counted as failed, not checked).
    """
    problems = []
    groups = {}
    for op, res in results:
        if res is None:
            continue
        try:
            check_output(op, res, wl, opt.get(op.inst))
        except CheckError as exc:
            problems.append(f"{op.kind} {op.inst} {op.stream}: {exc}")
            continue
        if op.group is not None:
            groups.setdefault(op.group, []).append(_sample(op, res, wl))
    for key, samples in groups.items():
        h = len(samples) // 2
        if h == 0:
            continue
        inst = key[1]
        if inst in wl.bipartite:
            m, w = wl.bipartite[inst].size, None
        else:
            g = wl.graphs[inst]
            m, w = len(g.edges), (None if key[0] == "sp" else g.w)
        try:
            emd_agreement(samples[:h], samples[h:2 * h], m, w)
        except CheckError as exc:
            problems.append(f"emd {key}: {exc}")
    if wl.name == "stability-sweep":
        problems.extend(_sweep_emd(wl))
    return problems


def _sweep_emd(wl) -> list:
    """EMD agreement on wide and narrow supports from the sweep's own instances.

    Two equal-size lists each of spanning trees of the unit grid (wide
    support: 300 x 300 outcomes, as in the sweep's largest estimate) and
    of matchings of one sweep graph (narrow support).
    """
    objs = wl.fresh()
    grid, mwm_g = wl.graphs["unitgrid"], wl.graphs["mwm0"]
    base = lipgraph.RandomStream(99)
    draws = (
        ("plip_mst", grid, 300, lambda rs: lipgraph.plip_mst(objs["unitgrid"], grid.w, 0.5, rs).tree.edges),
        ("lip_mst", grid, 100, lambda rs: lipgraph.lip_mst(objs["unitgrid"], grid.w, 0.5, rs).tree.edges),
        ("lip_mwm", mwm_g, 100, lambda rs: lipgraph.lip_mwm(objs["mwm0"], mwm_g.w, 2.1, rs).edges),
    )
    problems = []
    for name, g, size, draw in draws:
        a, b = ([Counter(draw(base.sub(name, side, k))) for k in range(size)] for side in "ab")
        try:
            emd_agreement(a, b, len(g.edges), g.w)
        except CheckError as exc:
            problems.append(f"emd {name}: {exc}")
    return problems
