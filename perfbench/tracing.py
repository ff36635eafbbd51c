"""Spans around lipgraph's public functions, recorded from outside the program.

``Tracer.install`` wraps each function listed in ``LAYERS`` in every
lipgraph module namespace that holds it (modules import functions by name,
so patching the defining module alone would miss most calls), and wraps
the listed methods on their classes.  ``uninstall`` restores the
originals.  A span is (name, start, end, parent span, operation id); spans
stay in memory and are written out by the runner at the end.

Counts that no span can give are read from arguments and results: gadget
sizes from the returned ``GadgetGraph``, LP sweeps from ``EntMatchingLP``,
EMD sizes from the two distributions, and recursion counts from a
``RecTrace`` handed to ``sp`` when its caller passed none.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import defaultdict

from lipgraph import bmatch, cli, contraction_sp, coupling, exact, graphs, harness
from lipgraph import metrics, mst, mwm, rng
from lipgraph.contraction_sp import RecTrace
from lipgraph.errors import NoConvergence

# the package re-exports the function lip_sp under the module's name
lip_sp = importlib.import_module("lipgraph.lip_sp")

# (span name, module or class, attribute)
LAYERS = (
    ("rng.draw", rng.RandomStream, "random"),
    ("rng.draw", rng.RandomStream, "uniform"),
    ("rng.draw", rng.RandomStream, "randint"),
    ("rng.draw", rng.RandomStream, "permutation"),
    ("rng.generator", rng.RandomStream, "generator"),
    ("graphs.check_weights", graphs, "check_weights"),
    ("graphs.directed_bfs", graphs.DirectedGraph, "bfs_from"),
    ("graphs.directed_bfs", graphs.DirectedGraph, "hop_dist_to"),
    ("graphs.directed_bfs", graphs.DirectedGraph, "shortest_path"),
    ("graphs.arcs_for_vertex_path", graphs.DirectedGraph, "arcs_for_vertex_path"),
    ("graphs.undirected_bfs", graphs.WeightedMultigraph, "bfs_tree"),
    ("exact.dijkstra", exact, "dijkstra"),
    ("exact.kruskal_mst", exact, "kruskal_mst"),
    ("exact.hungarian_bipartite", exact, "hungarian_bipartite"),
    ("exact.exact_max_weight_matching", exact, "exact_max_weight_matching"),
    ("lip_sp.build_gadget_from", lip_sp, "build_gadget_from"),
    ("lip_sp.map_walk_back", lip_sp, "map_walk_back"),
    ("lip_sp.coupled_rounding_st", lip_sp, "coupled_rounding_st"),
    ("contraction_sp.sp", contraction_sp, "sp"),
    ("mst.sample_hat_weights", mst, "sample_hat_weights"),
    ("mst.lip_mst", mst, "lip_mst"),
    ("mst.plip_mst", mst, "plip_mst"),
    ("mst.coupled", mst, "coupled_lip_mst"),
    ("mst.coupled", mst, "coupled_lip_mst_weights"),
    ("mst.coupled", mst, "coupled_plip_mst"),
    ("mwm.lip_mwm_with_draws", mwm, "lip_mwm_with_draws"),
    ("mwm.class_partition", mwm, "class_partition"),
    ("bmatch.solve_lp_ent", bmatch, "solve_lp_ent"),
    ("bmatch.round_matching", bmatch, "round_matching"),
    ("bmatch.coupled_plip_mwbm", bmatch, "coupled_plip_mwbm"),
    ("coupling.max_overlap_uniform_pair", coupling, "max_overlap_uniform_pair"),
    ("coupling.couple_discrete", coupling, "couple_discrete"),
    ("metrics.emd_empirical", metrics, "emd_empirical"),
    ("metrics.transportation_cost", metrics, "transportation_cost"),
    ("harness.estimate_lipschitz", harness, "estimate_lipschitz"),
    ("harness.estimate_bipartite_pointwise", harness, "estimate_bipartite_pointwise"),
    ("harness.estimate_contraction_sensitivity", harness, "estimate_contraction_sensitivity"),
    ("harness.run_experiment", harness, "run_experiment"),
    ("cli.main", cli, "main"),
)

COUNTERS = (
    "lip_sp.gadget_vertices", "lip_sp.gadget_arcs", "contraction_sp.rec_calls",
    "contraction_sp.base_case_hits", "bmatch.solve_lp_ent.iterations",
    "bmatch.solve_lp_ent.failed", "metrics.emd_cells",
)
MAXIMA = ("lip_sp.gadget_vertices_max", "contraction_sp.rec_depth_max", "metrics.emd_support_max")
CALLS = (
    "rng.draw", "rng.generator", "graphs.check_weights", "graphs.directed_bfs", "exact.dijkstra",
    "exact.kruskal_mst", "lip_sp.build_gadget_from", "contraction_sp.sp", "mwm.lip_mwm_with_draws",
    "bmatch.solve_lp_ent", "coupling.max_overlap_uniform_pair", "metrics.emd_empirical",
    "metrics.transportation_cost", "cli.main",
)
SELF = (
    "rng.draw", "graphs.check_weights", "graphs.directed_bfs", "graphs.arcs_for_vertex_path",
    "graphs.undirected_bfs", "exact.dijkstra", "exact.kruskal_mst", "exact.hungarian_bipartite",
    "exact.exact_max_weight_matching", "lip_sp.build_gadget_from", "lip_sp.map_walk_back",
    "lip_sp.coupled_rounding_st", "contraction_sp.sp", "mst.sample_hat_weights", "mst.lip_mst",
    "mst.plip_mst", "mst.coupled", "mwm.lip_mwm_with_draws", "mwm.class_partition",
    "bmatch.solve_lp_ent", "bmatch.round_matching", "bmatch.coupled_plip_mwbm",
    "coupling.max_overlap_uniform_pair", "coupling.couple_discrete", "metrics.emd_empirical",
    "metrics.transportation_cost", "harness.estimate_lipschitz",
    "harness.estimate_bipartite_pointwise", "harness.estimate_contraction_sensitivity",
    "harness.run_experiment", "cli.main",
)
# Per-layer metrics reported by a traced run: (name, unit).
PER_LAYER = (
    [(f"{n}.calls", "count") for n in CALLS]
    + [(f"{n}.self_s", "s") for n in SELF]
    + [(n, "count") for n in COUNTERS + MAXIMA]
)


def _namespaces():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "lipgraph" or name.startswith("lipgraph."))]


class Tracer:
    def __init__(self):
        self.spans = []  # (name, start, end, parent index, op id); None while open
        self.counters = defaultdict(float)
        self.maxima = defaultdict(float)
        self.op_id = -1
        self._stack = []
        self._patches = []

    # -- recording ---------------------------------------------------------

    def open(self, name) -> int:
        idx = len(self.spans)
        self.spans.append(None)
        self._stack.append((idx, name, time.perf_counter()))
        return idx

    def close(self) -> None:
        end = time.perf_counter()
        idx, name, start = self._stack.pop()
        parent = self._stack[-1][0] if self._stack else -1
        self.spans[idx] = (name, start, end, parent, self.op_id)

    def _wrap(self, name, fn):
        observe = getattr(self, "_observe_" + name.replace(".", "_"), None)
        tracer = self

        def traced(*args, **kwargs):
            tracer.open(name)
            try:
                if observe is None:
                    return fn(*args, **kwargs)
                return observe(fn, args, kwargs)
            finally:
                tracer.close()

        traced.__wrapped__ = fn
        return traced

    def _bump_max(self, key, value):
        self.maxima[key] = max(self.maxima[key], value)

    def _observe_lip_sp_build_gadget_from(self, fn, args, kwargs):
        gadget = fn(*args, **kwargs)
        self.counters["lip_sp.gadget_vertices"] += gadget.graph.n
        self.counters["lip_sp.gadget_arcs"] += gadget.graph.m
        self._bump_max("lip_sp.gadget_vertices_max", gadget.graph.n)
        return gadget

    def _observe_contraction_sp_sp(self, fn, args, kwargs):
        trace = kwargs.get("trace")
        if trace is None:
            trace = kwargs["trace"] = RecTrace()
        seen = len(trace.calls)
        walk = fn(*args, **kwargs)
        calls = trace.calls[seen:]
        self.counters["contraction_sp.rec_calls"] += len(calls)
        self.counters["contraction_sp.base_case_hits"] += sum(c.base_case for c in calls)
        self._bump_max("contraction_sp.rec_depth_max", max((c.depth for c in calls), default=0))
        return walk

    def _observe_bmatch_solve_lp_ent(self, fn, args, kwargs):
        try:
            lp = fn(*args, **kwargs)
        except NoConvergence:
            self.counters["bmatch.solve_lp_ent.failed"] += 1
            raise
        self.counters["bmatch.solve_lp_ent.iterations"] += lp.iterations
        return lp

    def _observe_metrics_emd_empirical(self, fn, args, kwargs):
        p, q = args[0], args[1]
        self.counters["metrics.emd_cells"] += p.support_size * q.support_size
        self._bump_max("metrics.emd_support_max", max(p.support_size, q.support_size))
        return fn(*args, **kwargs)

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        namespaces = _namespaces()
        for name, owner, attr in LAYERS:
            original = getattr(owner, attr)
            wrapped = self._wrap(name, original)
            if isinstance(owner, type):
                self._patch(owner, attr, original, wrapped)
                continue
            for ns in namespaces:
                if getattr(ns, attr, None) is original:
                    self._patch(ns, attr, original, wrapped)

    def _patch(self, owner, attr, original, wrapped):
        setattr(owner, attr, wrapped)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- summary -----------------------------------------------------------

    def per_layer(self, rounds: int) -> dict:
        """Per-layer metrics per round, from the recorded spans and counters."""
        child = defaultdict(float)
        for span in self.spans:
            if span is not None and span[3] >= 0:
                child[span[3]] += span[2] - span[1]
        calls = defaultdict(int)
        self_s = defaultdict(float)
        for idx, span in enumerate(self.spans):
            if span is None:
                continue
            calls[span[0]] += 1
            self_s[span[0]] += (span[2] - span[1]) - child[idx]
        out = {}
        for name in CALLS:
            out[f"{name}.calls"] = calls[name] / rounds
        for name in SELF:
            out[f"{name}.self_s"] = self_s[name] / rounds
        for name in COUNTERS:
            out[name] = self.counters[name] / rounds
        for name in MAXIMA:
            out[name] = self.maxima[name]
        return out

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("op,name,start,end,parent\n")
            for span in self.spans:
                if span is not None:
                    name, start, end, parent, op = span
                    fh.write(f"{op},{name},{start:.9f},{end:.9f},{parent}\n")
