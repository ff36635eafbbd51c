"""Tests of the benchmark itself: its checks reject broken outputs, and
tracing changes no output."""

from collections import Counter

import numpy as np
import pytest

import lipgraph
from lipgraph import metrics
from perfbench import checks, tracing, workloads
from perfbench.run import run_round

# a 5-vertex graph: path 0-1-2-3-4 plus chords (0,2) and (2,4)
EDGES = ((0, 1), (1, 2), (2, 3), (3, 4), (0, 2), (2, 4))
W = np.array([1.0, 1.0, 1.0, 1.0, 3.0, 3.0])


def test_walk_check_accepts_a_walk_and_rejects_it_with_a_step_removed():
    steps = ((0, 1), (1, 1), (2, 1), (3, 1))
    checks.check_walk(EDGES, 0, 4, steps, W, 4.0, 0.25)
    with pytest.raises(checks.CheckError):
        checks.check_walk(EDGES, 0, 4, steps[:1] + steps[2:], W, 4.0, 0.25)
    with pytest.raises(checks.CheckError):
        checks.check_unweighted_walk(EDGES, 0, 4, steps[:-1], 2.0, 0.1)


def test_walk_check_rejects_a_walk_above_the_guarantee():
    steps = ((4, 1), (5, 1))  # weight 6 > (1 + 0.25) * 4
    checks.check_chain(EDGES, 0, 4, steps)
    with pytest.raises(checks.CheckError):
        checks.check_walk(EDGES, 0, 4, steps, W, 4.0, 0.25)


def test_tree_check_accepts_a_tree_and_rejects_one_with_a_cycle():
    checks.check_tree(5, EDGES, {0, 1, 2, 3}, W, 4.0, 0.1)
    with pytest.raises(checks.CheckError):
        checks.check_tree(5, EDGES, {0, 1, 4, 3}, W, 4.0, 10.0)  # 0-1-2-0 cycle


def test_matching_checks_reject_a_reused_vertex():
    checks.check_matching(EDGES, {0, 2}, W, 6.0)
    with pytest.raises(checks.CheckError):
        checks.check_matching(EDGES, {0, 4}, W, 6.0)  # both cover vertex 0
    w = np.ones((3, 3))
    checks.check_bipartite(w, ((0, 0), (1, 1)), 3.0)
    with pytest.raises(checks.CheckError):
        checks.check_bipartite(w, ((0, 0), (1, 0)), 3.0)


def test_lp_check_rejects_an_overfull_row():
    w = np.ones((2, 2))
    checks.check_lp(w, np.full((2, 2), 0.5), 0.05, 2.0)
    with pytest.raises(checks.CheckError):
        checks.check_lp(w, np.array([[0.6, 0.5], [0.4, 0.5]]), 0.05, 2.0)


def test_emd_check_rejects_a_value_off_by_one_percent():
    g = lipgraph.WeightedMultigraph(5, EDGES)
    w = np.ones(len(EDGES))  # ties: the sampled trees vary
    base = lipgraph.RandomStream(3)
    a = [Counter(lipgraph.lip_mst(g, w, 1.0, base.sub("a", k)).tree.edges) for k in range(40)]
    b = [Counter(lipgraph.lip_mst(g, w, 1.0, base.sub("b", k)).tree.edges) for k in range(40)]
    value = metrics.emd_empirical(
        metrics.EdgeSetDistribution.from_samples(a),
        metrics.EdgeSetDistribution.from_samples(b),
        metrics.weighted_cost(w, w),
    )
    assert value > 0
    va, vb = checks._vectors(a, len(EDGES)), checks._vectors(b, len(EDGES))
    checks.check_emd(value, va, vb, w)
    with pytest.raises(checks.CheckError):
        checks.check_emd(value * 1.01, va, vb, w)


def _sample_ops(wl):
    """One operation per (kind, instance), skipping the slow ones."""
    seen, ops = set(), []
    for op in wl.ops:
        slow = op.inst == "noconv" or op.inst.startswith(("lipsp100", "lipsp200"))
        if not slow and (op.kind, op.inst) not in seen:
            seen.add((op.kind, op.inst))
            ops.append(op)
    return ops


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tracing_changes_no_output(name, tmp_path):
    wl = workloads.WORKLOADS[name](3, str(tmp_path))
    ops = _sample_ops(wl)
    plain, _, _, errors = run_round(wl, ops)
    assert not errors
    original = lipgraph.graphs.check_weights
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced, _, _, _ = run_round(wl, ops, tracer)
    finally:
        tracer.uninstall()
    assert lipgraph.graphs.check_weights is original
    assert lipgraph.exact.check_weights is original
    assert traced == plain
    names = {span[0] for span in tracer.spans}
    assert {"op", "rng.draw", "graphs.check_weights"} <= names
    assert all(span is not None for span in tracer.spans)
    layer = tracer.per_layer(1)
    assert set(layer) == {name for name, _ in tracing.PER_LAYER}
    assert layer["rng.draw.calls"] > 0
