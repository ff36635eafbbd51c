"""The weight rule at the public boundary.

Every public function that takes weights rejects NaN, infinite, negative
and wrongly shaped weights with BadParams, a NaN or infinite epsilon,
delta, alpha or regularization weight with BadParams, an epsilon of the
shortest-path gadget outside (0, 1) with BadParams, and an out-of-range or
non-integer perturbed edge or cell with InvalidEdge, and an out-of-range
or non-integer vertex with BadParams.  A valid edge id reaches the keyed
draws as a Python int, whatever its type was.  The rule is applied once
per public call: private cores behind the boundary trust their arrays.
"""

import math
import sys

import numpy as np
import pytest

from lipgraph import graphs
from lipgraph.bmatch import coupled_plip_mwbm, lp_stability_check, plip_mwbm, solve_lp_ent
from lipgraph.cli import main as cli_main
from lipgraph.contraction_sp import is_active, opt_through, opt_through_edge, pivot_set, rec, sample_pivot, sp
from lipgraph.errors import BadParams, InvalidEdge
from lipgraph.exact import (
    dijkstra,
    dijkstra_walk,
    exact_max_weight_matching,
    hungarian_bipartite,
    kruskal_mst,
)
from lipgraph.graphs import WeightedMultigraph, bfs_walk, read_bipartite, write_edge_list
from lipgraph.harness import (
    BipartiteInstance,
    ExperimentConfig,
    GraphInstance,
    estimate_bipartite_pointwise,
    estimate_contraction_sensitivity,
    estimate_lipschitz,
    run_experiment,
)
from lipgraph.lip_sp import (
    build_gadget,
    build_gadget_from,
    coupled_lip_sp,
    coupled_rounding_st,
    lip_sp,
    lip_sp_run,
)
from lipgraph.mst import coupled_lip_mst, coupled_lip_mst_weights, coupled_plip_mst, lip_mst, plip_mst
from lipgraph.mwm import coupled_lip_mwm, lip_mwm, lip_mwm_with_draws
from lipgraph.rng import RandomStream

G = WeightedMultigraph(5, ((0, 1), (1, 2), (2, 3), (3, 4), (0, 2), (1, 4)))
W = np.array([1.0, 2.0, 1.5, 1.0, 3.0, 2.5])
B = np.array([[1.0, 0.2, 0.1], [0.3, 0.9, 0.2], [0.4, 0.1, 0.8]])


def rs():
    return RandomStream(1)


GRAPH_ENTRIES = {
    "lip_mst": lambda w: lip_mst(G, w, 0.5, rs()),
    "plip_mst": lambda w: plip_mst(G, w, 0.5, rs()),
    "coupled_lip_mst": lambda w: coupled_lip_mst(G, w, 0, 0.05, 0.5, rs()),
    "coupled_lip_mst_weights": lambda w: coupled_lip_mst_weights(G, w, 0, 0.05, 0.5, rs()),
    "coupled_plip_mst": lambda w: coupled_plip_mst(G, w, 0, 0.05, 0.5, rs()),
    "lip_sp": lambda w: lip_sp(G, w, 0, 4, 0.5, rs()),
    "coupled_lip_sp": lambda w: coupled_lip_sp(G, w, 0, 4, 0, 1e-3, 0.5, rs()),
    "coupled_rounding_st": lambda w: coupled_rounding_st(G, w, 0, 4, 0, 1e-3, 0.5, rs()),
    "build_gadget": lambda w: build_gadget(G, w, 0, 4, 0.5, rs()),
    "build_gadget_from": lambda w: build_gadget_from(G, w, 0.5, 0.1, np.full(G.m, 0.5)),
    "lip_sp_run": lambda w: lip_sp_run(G, w, 0, 4, 0.5, rs()),
    "lip_mwm": lambda w: lip_mwm(G, w, 2.1, rs()),
    "lip_mwm_with_draws": lambda w: lip_mwm_with_draws(G, w, 2.1, 1.5, list(range(G.n))),
    "coupled_lip_mwm": lambda w: coupled_lip_mwm(G, w, 0, 0.05, 2.1, rs()),
    "exact_max_weight_matching": lambda w: exact_max_weight_matching(G, w),
    "kruskal_mst": lambda w: kruskal_mst(G, w),
    "dijkstra": lambda w: dijkstra(G, w, 0),
    "estimate_lipschitz": lambda w: estimate_lipschitz("mst", G, w, 0, 0.05, 4, 1, point={"epsilon": 0.5}),
    "run_experiment": lambda w: run_experiment(
        ExperimentConfig("mst", GraphInstance(G, w, "hand"), ({"epsilon": 0.5},), 4, 1)
    ),
}


def _bipartite_text(w) -> str:
    rows = np.atleast_2d(w)
    return "3 3\n" + "\n".join(" ".join(repr(float(x)) for x in row) for row in rows) + "\n"


BIPARTITE_ENTRIES = {
    "plip_mwbm": lambda w: plip_mwbm(3, 3, w, 0.1, rs()),
    "coupled_plip_mwbm": lambda w: coupled_plip_mwbm(3, 3, w, (0, 1), 0.05, 0.1, rs()),
    "solve_lp_ent": lambda w: solve_lp_ent(3, 3, w, 0.1),
    "estimate_bipartite_pointwise": lambda w: estimate_bipartite_pointwise(w, (0, 1), 0.05, 0.1, 4, 1),
    "read_bipartite": lambda w: read_bipartite(_bipartite_text(w)),
    "hungarian_bipartite": lambda w: hungarian_bipartite(w),
    "run_experiment_bipartite": lambda w: run_experiment(
        ExperimentConfig("bmatch", BipartiteInstance(w, "hand"), ({"epsilon": 0.1},), 4, 1)
    ),
}


def _spoiled(w, kind):
    w = np.array(w, dtype=float)
    if kind == "wrong-shape":
        return w.ravel() if w.ndim == 2 else w[:-1]
    w.flat[1] = {"nan": np.nan, "inf": np.inf, "negative": -1.0}[kind]
    return w


BAD = ("nan", "inf", "negative", "wrong-shape")


@pytest.mark.parametrize("kind", BAD)
@pytest.mark.parametrize(
    "weights, call",
    [(W, call) for call in GRAPH_ENTRIES.values()] + [(B, call) for call in BIPARTITE_ENTRIES.values()],
    ids=list(GRAPH_ENTRIES) + list(BIPARTITE_ENTRIES),
)
def test_public_entries_reject_bad_weights(weights, call, kind):
    call(weights)  # the unspoiled weights are accepted
    with pytest.raises(BadParams):
        call(_spoiled(weights, kind))


def _lips(alg, delta, point):
    return estimate_lipschitz(alg, G, W, 0, delta, 4, 1, point=point)


SCALARS = {
    "lip_mst epsilon": lambda x: lip_mst(G, W, x, rs()),
    "plip_mst epsilon": lambda x: plip_mst(G, W, x, rs()),
    "coupled_lip_mst epsilon": lambda x: coupled_lip_mst(G, W, 0, 0.05, x, rs()),
    "coupled_lip_mst delta": lambda x: coupled_lip_mst(G, W, 0, x, 0.5, rs()),
    "coupled_lip_mst_weights epsilon": lambda x: coupled_lip_mst_weights(G, W, 0, 0.05, x, rs()),
    "coupled_lip_mst_weights delta": lambda x: coupled_lip_mst_weights(G, W, 0, x, 0.5, rs()),
    "coupled_plip_mst epsilon": lambda x: coupled_plip_mst(G, W, 0, 0.05, x, rs()),
    "coupled_plip_mst delta": lambda x: coupled_plip_mst(G, W, 0, x, 0.5, rs()),
    "coupled_lip_sp delta": lambda x: coupled_lip_sp(G, W, 0, 4, 0, x, 0.5, rs()),
    "coupled_rounding_st delta": lambda x: coupled_rounding_st(G, W, 0, 4, 0, x, 0.5, rs()),
    "coupled_rounding_st epsilon": lambda x: coupled_rounding_st(G, W, 0, 4, 0, 1e-3, x, rs()),
    "build_gadget epsilon": lambda x: build_gadget(G, W, 0, 4, x, rs()),
    "build_gadget_from epsilon": lambda x: build_gadget_from(G, W, x, 0.1, np.full(G.m, 0.5)),
    "lip_mwm alpha": lambda x: lip_mwm(G, W, x, rs()),
    "coupled_lip_mwm alpha": lambda x: coupled_lip_mwm(G, W, 0, 0.05, x, rs()),
    "coupled_plip_mwbm delta": lambda x: coupled_plip_mwbm(3, 3, B, (0, 1), x, 0.1, rs()),
    "solve_lp_ent b_reg": lambda x: solve_lp_ent(3, 3, B, x),
    "estimate_lipschitz mst epsilon": lambda x: _lips("mst", 0.05, {"epsilon": x}),
    "estimate_lipschitz mst delta": lambda x: _lips("mst", x, {"epsilon": 0.5}),
    "estimate_lipschitz pmst delta": lambda x: _lips("pmst", x, {"epsilon": 0.5}),
    "estimate_lipschitz sp delta": lambda x: _lips("sp", x, {"epsilon": 0.5, "source": 0, "target": 4}),
    "estimate_lipschitz mwm alpha": lambda x: _lips("mwm", 0.05, {"alpha": x}),
    "estimate_bipartite_pointwise delta": lambda x: estimate_bipartite_pointwise(B, (0, 1), x, 0.1, 4, 1),
}


@pytest.mark.parametrize("x", (math.nan, math.inf), ids=("nan", "inf"))
@pytest.mark.parametrize("name", sorted(SCALARS))
def test_public_entries_reject_non_finite_parameters(name, x):
    with pytest.raises(BadParams):
        SCALARS[name](x)


@pytest.mark.parametrize("x", (0.0, -0.5, 1.0))
@pytest.mark.parametrize("name", ("build_gadget epsilon", "build_gadget_from epsilon", "coupled_rounding_st epsilon"))
def test_gadget_entries_reject_epsilon_outside_unit_interval(name, x):
    with pytest.raises(BadParams):
        SCALARS[name](x)


@pytest.mark.parametrize(
    "args",
    [
        ["mst", "--epsilon", "nan"],
        ["mst", "--epsilon", "inf"],
        ["mst", "--epsilon", "0.5", "--perturb-edge", "0", "--delta", "inf"],
        ["mst", "--epsilon", "0.5", "--pointwise", "--perturb-edge", "0", "--delta", "nan"],
    ],
    ids=["epsilon-nan", "epsilon-inf", "delta-inf", "pointwise-delta-nan"],
)
def test_cli_rejects_non_finite_parameters(args, tmp_path, capsys):
    path = tmp_path / "g.txt"
    path.write_text(write_edge_list(G, W))
    assert cli_main(args + ["--input", str(path), "--trials", "3"]) == 2
    assert "must be positive and finite" in capsys.readouterr().err


COUPLED = {
    "coupled_lip_mst": lambda f: coupled_lip_mst(G, W, f, 0.05, 0.5, rs()),
    "coupled_lip_mst_weights": lambda f: coupled_lip_mst_weights(G, W, f, 0.05, 0.5, rs()),
    "coupled_plip_mst": lambda f: coupled_plip_mst(G, W, f, 0.05, 0.5, rs()),
    "coupled_lip_mwm": lambda f: coupled_lip_mwm(G, W, f, 0.05, 2.1, rs()),
    "coupled_lip_sp": lambda f: coupled_lip_sp(G, W, 0, 4, f, 1e-3, 0.5, rs()),
    "coupled_rounding_st": lambda f: coupled_rounding_st(G, W, 0, 4, f, 1e-3, 0.5, rs()),
    "coupled_plip_mwbm": lambda f: coupled_plip_mwbm(3, 3, B, (f, 0), 0.05, 0.1, rs()),
    "estimate_bipartite_pointwise": lambda f: estimate_bipartite_pointwise(B, (0, f), 0.05, 0.1, 2, 1),
    "lp_stability_check": lambda f: lp_stability_check(3, 3, B, (f, 0), 0.05, 0.1),
    "opt_through_edge": lambda f: opt_through_edge(G, 0, 4, f),
    "is_active": lambda f: is_active(G, 0, 4, f, 0.01),
}


@pytest.mark.parametrize(
    "f", (99, G.m, -1, pytest.param(1.0, id="float"), pytest.param(np.float64(1.0), id="numpy-float"))
)
@pytest.mark.parametrize("name", sorted(COUPLED))
def test_coupled_runs_reject_out_of_range_edge(name, f):
    COUPLED[name](0)
    with pytest.raises(InvalidEdge):
        COUPLED[name](f)


def test_check_edge_returns_python_ints():
    for f in (2, np.int64(2), np.intp(2), np.uint8(2)):
        assert type(graphs.check_edge(G, f)) is int and graphs.check_edge(G, f) == 2
    cell = graphs.check_edge((3, 3), (np.int64(0), np.int32(1)))
    assert cell == (0, 1) and all(type(i) is int for i in cell)
    for bad in (2.0, "2", (0, 1), None):
        with pytest.raises(InvalidEdge):
            graphs.check_edge(G, bad)
    for bad in ((0, 1.0), 1, "01", (0, None)):
        with pytest.raises(InvalidEdge):
            graphs.check_edge((3, 3), bad)


def test_keyed_draws_do_not_depend_on_the_edge_id_type():
    # a 4-cycle with a chord; numpy and Python ids must key the same draws
    g = WeightedMultigraph(4, ((0, 1), (1, 2), (2, 3), (3, 0), (0, 2)))
    w = np.arange(1.0, 6.0)
    for seed in range(50):
        ints = coupled_lip_mst_weights(g, w, 2, 0.5, 0.5, RandomStream(seed))
        numpy = coupled_lip_mst_weights(g, w, np.int64(2), 0.5, 0.5, RandomStream(seed))
        assert all(np.array_equal(a, b) for a, b in zip(ints, numpy)), seed
    point = {"epsilon": 0.5}
    assert repr(estimate_lipschitz("mst", G, W, np.int64(2), 0.05, 20, 1, point=point)) == repr(
        estimate_lipschitz("mst", G, W, 2, 0.05, 20, 1, point=point)
    )


@pytest.fixture
def check_calls(monkeypatch):
    """Count calls of graphs.check_weights in every lipgraph namespace."""
    calls = []
    original = graphs.check_weights

    def spy(g, w):
        calls.append(g)
        return original(g, w)

    for name, module in list(sys.modules.items()):
        if name.startswith("lipgraph") and getattr(module, "check_weights", None) is original:
            monkeypatch.setattr(module, "check_weights", spy)
    return calls


@pytest.mark.parametrize(
    "call",
    [
        lambda: lip_mst(G, W, 0.5, rs()),
        lambda: plip_mst(G, W, 0.5, rs()),
        lambda: lip_sp(G, W, 0, 4, 0.5, rs()),
        lambda: lip_sp_run(G, W, 0, 4, 0.5, rs()),
        lambda: build_gadget(G, W, 0, 4, 0.5, rs()),
        lambda: estimate_lipschitz("mst", G, W, 2, 0.05, 40, 1, point={"epsilon": 0.5}),
    ],
    ids=["lip_mst", "plip_mst", "lip_sp", "lip_sp_run", "build_gadget", "estimate_lipschitz"],
)
def test_weights_are_checked_once_per_public_call(call, check_calls):
    call()
    assert len(check_calls) == 1


def _st_row(alg, t):
    point = {"epsilon": 0.5, "source": 0, "target": t}
    return run_experiment(ExperimentConfig(alg, GraphInstance(G, W, "hand"), (point,), 4, 1))


VERTEX_ENTRIES = {
    "dijkstra": lambda t: dijkstra(G, W, t),
    "dijkstra_walk": lambda t: dijkstra_walk(G, W, 0, t),
    "bfs_walk": lambda t: bfs_walk(G, 0, t),
    "lip_sp": lambda t: lip_sp(G, W, 0, t, 0.5, rs()),
    "lip_sp_run": lambda t: lip_sp_run(G, W, 0, t, 0.5, rs()),
    "build_gadget": lambda t: build_gadget(G, W, 0, t, 0.5, rs()),
    "coupled_rounding_st": lambda t: coupled_rounding_st(G, W, 0, t, 0, 1e-3, 0.5, rs()),
    "coupled_lip_sp": lambda t: coupled_lip_sp(G, W, 0, t, 0, 1e-3, 0.5, rs()),
    "sp": lambda t: sp(G, 0, t, 0.5, rs()),
    "rec": lambda t: rec(G, 0, t, 0.01, rs()),
    "pivot_set": lambda t: pivot_set(G, 0, t, 0.5, 0.1),
    "sample_pivot": lambda t: sample_pivot(G, 0, t, 0.5, 0.1, rs()),
    "opt_through": lambda t: opt_through(G, 0, t, 2),
    "opt_through vertex": lambda t: opt_through(G, 0, 4, t),
    "opt_through_edge": lambda t: opt_through_edge(G, 0, t, 0),
    "is_active": lambda t: is_active(G, 0, t, 0, 0.01),
    "estimate_lipschitz sp": lambda t: estimate_lipschitz(
        "sp", G, W, 0, 1e-3, 4, 1, point={"epsilon": 0.5, "source": 0, "target": t}
    ),
    "run_experiment sp": lambda t: _st_row("sp", t),
    "run_experiment sp-unweighted": lambda t: _st_row("sp-unweighted", t),
    # edge 2 = (2, 3) touches neither endpoint
    "estimate_contraction_sensitivity": lambda t: estimate_contraction_sensitivity(
        G, 0, t, 0.5, 2, None, 4, 1
    ),
}


@pytest.mark.parametrize("t", (-1, G.n, pytest.param(2.0, id="float")))
@pytest.mark.parametrize("name", sorted(VERTEX_ENTRIES))
def test_public_entries_reject_bad_vertices(name, t):
    # -1 used to index the last vertex, so walks "to -1" ended elsewhere
    VERTEX_ENTRIES[name](4)  # a valid target is accepted
    with pytest.raises(BadParams):
        VERTEX_ENTRIES[name](t)

