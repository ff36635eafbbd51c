"""Instance generators, stability estimators, CSV runner, CLI."""

import csv
import io

import numpy as np
import pytest

from lipgraph.cli import main as cli_main
from lipgraph.errors import BadParams, InvalidEdge
from lipgraph.graphs import WeightedMultigraph, write_edge_list
from lipgraph.harness import (
    BipartiteInstance,
    ExperimentConfig,
    GraphInstance,
    estimate_bipartite_pointwise,
    estimate_contraction_sensitivity,
    estimate_lipschitz,
    gen_instance,
    run_experiment,
)


def test_gen_path_cycle_grid():
    p = gen_instance("path", {"k": 5}, 0)
    assert p.graph.n == 6 and p.graph.m == 5
    c = gen_instance("cycle", {"n": 7}, 0)
    assert c.graph.n == 7 and c.graph.m == 7
    g = gen_instance("grid", {"rows": 3, "cols": 4}, 0)
    assert g.graph.n == 12 and g.graph.m == 3 * 3 + 2 * 4  # 17 edges


def test_gen_gadgets():
    t1 = gen_instance("gadget-thm1", {}, 0)
    assert t1.graph.m == 2 and list(t1.weights) == [0.0, 1.0]
    t6 = gen_instance("gadget-thm6", {"epsilon": 0.04}, 0)
    assert t6.weights[1] == pytest.approx(1 - 0.4)
    t8 = gen_instance("gadget-thm8", {}, 0)
    assert list(t8.weights) == [1.0, 0.0]


def test_gen_random_gnm_connected_and_deterministic():
    a = gen_instance("random-gnm", {"n": 8, "m": 14}, 9)
    b = gen_instance("random-gnm", {"n": 8, "m": 14}, 9)
    assert a.graph.edges == b.graph.edges
    assert np.array_equal(a.weights, b.weights)
    assert a.graph.is_connected()
    c = gen_instance("random-gnm", {"n": 8, "m": 14}, 10)
    assert c.graph.edges != a.graph.edges or not np.array_equal(c.weights, a.weights)


def test_gen_bipartite_and_errors():
    inst = gen_instance("bipartite-random", {"nU": 3, "nV": 4}, 1)
    assert inst.weights.shape == (3, 4)
    with pytest.raises(BadParams):
        gen_instance("nope", {}, 0)
    with pytest.raises(BadParams):
        gen_instance("path", {"k": 0}, 0)
    with pytest.raises(BadParams):
        gen_instance("path", {"k": 3, "extra": 1}, 0)


def test_estimate_lipschitz_constant_algorithm_is_zero():
    # perturbing an edge the spanning tree is forced to take anyway:
    # star graphs have a unique tree, so both estimates vanish under d_u
    star = GraphInstance(
        gen_instance("path", {"k": 1}, 0).graph, np.array([1.0]), "edge"
    )
    est = estimate_lipschitz(
        "mst", star.graph, star.weights, 0, 0.5, 60, 4, metric="unweighted",
        point={"epsilon": 0.5},
    )
    assert est.coupled_mean == 0.0
    assert est.emd == 0.0


def test_estimate_lipschitz_mst_triangle_bound():
    gi = gen_instance("random-gnm", {"n": 3, "m": 3, "w_min": 1, "w_max": 3}, 2)
    eps, f, delta = 0.5, 0, 0.01
    est = estimate_lipschitz(
        "mst", gi.graph, gi.weights, f, delta, 400, 7, metric="weighted",
        point={"epsilon": eps},
    )
    bound = 2 * (1 + eps) ** 2 / eps
    assert est.coupled_ratio <= bound + 3 * est.coupled_stderr / delta
    # coupled estimate dominates the EMD estimate up to Monte Carlo noise
    assert est.coupled_mean >= est.emd - 3 * (est.coupled_stderr + est.emd_stderr) - 1e-9


def test_estimate_lipschitz_validates():
    gi = gen_instance("random-gnm", {"n": 4, "m": 5}, 0)
    with pytest.raises(BadParams):
        estimate_lipschitz("mst", gi.graph, gi.weights, 0, -1.0, 10, 0, point={"epsilon": 0.5})
    with pytest.raises(InvalidEdge):
        estimate_lipschitz("mst", gi.graph, gi.weights, 99, 0.1, 10, 0, point={"epsilon": 0.5})


def test_estimate_bipartite_pointwise():
    inst = gen_instance("bipartite-random", {"nU": 2, "nV": 3}, 8)
    from lipgraph.harness import estimate_bipartite_pointwise

    est = estimate_bipartite_pointwise(inst.weights, (0, 1), 0.01, 0.1, 150, 5)
    assert est.metric == "unweighted"
    assert est.coupled_mean >= est.emd - 3 * (est.coupled_stderr + est.emd_stderr) - 1e-9
    with pytest.raises(InvalidEdge):
        estimate_bipartite_pointwise(inst.weights, (5, 0), 0.01, 0.1, 10, 0)


B = np.array([[1.0, 0.2, 0.1], [0.3, 0.9, 0.2]])
G = gen_instance("random-gnm", {"n": 8, "m": 16}, 12)


def _point_estimate(alg, metric):
    if alg == "bmatch":
        return estimate_bipartite_pointwise(B, (0, 1), 0.05, 0.1, 30, 4)
    point, f, delta = {
        "mst": ({"epsilon": 0.5}, 4, 0.05),
        "pmst": ({"epsilon": 0.5}, 4, 0.05),
        "sp": ({"epsilon": 0.5, "source": 0, "target": 5}, 4, 0.02),
        "mwm": ({"alpha": 2.1}, 3, 0.05),
    }[alg]
    return estimate_lipschitz(alg, G.graph, G.weights, f, delta, 30, 4, metric, point)


CLI_ROWS = {
    "mst": ["mst", "--input", "g.txt", "--epsilon", "0.5", "--perturb-edge", "4", "--delta", "0.05"],
    "pmst": ["mst", "--input", "g.txt", "--epsilon", "0.5", "--pointwise", "--perturb-edge", "4",
             "--delta", "0.05"],
    "sp": ["sp", "--input", "g.txt", "--source", "0", "--target", "5", "--epsilon", "0.5",
           "--perturb-edge", "4", "--delta", "0.02"],
    "mwm": ["mwm", "--input", "g.txt", "--alpha", "2.1", "--perturb-edge", "3", "--delta", "0.05"],
    "bmatch": ["bmatch", "--input", "b.txt", "--epsilon", "0.1", "--perturb-cell", "0", "1",
               "--delta", "0.05"],
}


def _assert_row_reports(row, est):
    for column, attr in (("coupled_estimate", "coupled_mean"), ("coupled_stderr", "coupled_stderr"),
                         ("emd_estimate", "emd"), ("emd_stderr", "emd_stderr")):
        assert float(row[column]) == getattr(est, attr), column


@pytest.mark.parametrize("alg", sorted(CLI_ROWS))
def test_perturbed_row_reports_the_public_estimate(alg, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "g.txt").write_text(write_edge_list(G.graph, G.weights))
    (tmp_path / "b.txt").write_text("2 3\n1.0 0.2 0.1\n0.3 0.9 0.2\n")
    assert cli_main(CLI_ROWS[alg] + ["--trials", "30", "--seed", "4", "--csv", "out.csv", "--quiet"]) == 0
    (row,) = csv.DictReader(io.StringIO((tmp_path / "out.csv").read_text().split("\n", 1)[1]))
    _assert_row_reports(row, _point_estimate(alg, row["metric"]))


def test_mwm_estimate_defaults_alpha_to_two_plus_epsilon():
    # the CLI's mwm --epsilon default, resolved by the harness table for every caller
    by_epsilon = estimate_lipschitz("mwm", G.graph, G.weights, 3, 0.05, 30, 4, point={"epsilon": 0.1})
    assert by_epsilon == _point_estimate("mwm", "weighted")


def test_bipartite_row_takes_the_weighted_metric():
    # cell (i, j) is edge i * nV + j, so the weighted metric prices it at w[i, j]
    point = {"epsilon": 0.1}
    grid = (dict(point, edge=(0, 1), delta=0.05, metric="weighted"),)
    text = run_experiment(ExperimentConfig("bmatch", BipartiteInstance(B, "b"), grid, 30, 4))
    (row,) = csv.DictReader(io.StringIO(text.split("\n", 1)[1]))
    est = estimate_lipschitz("bmatch", None, B, (0, 1), 0.05, 30, 4, "weighted", point)
    _assert_row_reports(row, est)
    plain = estimate_lipschitz("bmatch", None, B, (0, 1), 0.05, 30, 4, "unweighted", point)
    assert est.emd != plain.emd  # the same samples, priced by weight


def test_cli_bmatch_perturb_cell(tmp_path, capsys):
    path = tmp_path / "b.txt"
    path.write_text("2 3\n1.0 0.2 0.1\n0.3 0.9 0.2\n")
    code = cli_main(
        ["bmatch", "--input", str(path), "--epsilon", "0.1",
         "--perturb-cell", "0", "1", "--delta", "0.01", "--trials", "40", "--seed", "3"]
    )
    assert code == 0
    out = capsys.readouterr().out
    header = out.splitlines()[1].split(",")
    assert "coupled_estimate" in header
    last = out.strip().splitlines()[-1]
    assert "unweighted" in last


def test_contraction_sensitivity_base_case_deterministic():
    gi = gen_instance("path", {"k": 6}, 0)
    est = estimate_contraction_sensitivity(gi.graph, 0, 6, 0.5, 3, None, 40, 2)
    # base case: both sides produce one deterministic path; the contracted
    # path is one edge shorter, so d_u is exactly 1 every trial
    assert est.coupled_mean == 1.0
    assert est.emd == pytest.approx(1.0)


def test_contraction_sensitivity_rejects_incident_edge():
    gi = gen_instance("path", {"k": 4}, 0)
    with pytest.raises(InvalidEdge):
        estimate_contraction_sensitivity(gi.graph, 0, 4, 0.5, 0, None, 10, 0)


def test_contraction_sensitivity_recursion_no_blowup():
    gi = gen_instance("path", {"k": 40}, 0)
    est = estimate_contraction_sensitivity(gi.graph, 0, 40, 0.5, 20, 0.1, 120, 5)
    assert est.emd <= est.coupled_mean + 3 * (est.coupled_stderr + est.emd_stderr) + 1e-9
    assert est.coupled_mean < 40  # far below worst case


def test_run_experiment_deterministic_and_zero_violations():
    inst = gen_instance("random-gnm", {"n": 8, "m": 13}, 3)
    cfg = ExperimentConfig(
        algorithm="mst",
        instance=inst,
        grid=tuple({"epsilon": e} for e in (0.1, 0.2, 0.4, 0.8)),
        trials=150,
        seed=42,
    )
    out = run_experiment(cfg)
    assert out == run_experiment(cfg)
    lines = out.strip().splitlines()
    assert lines[0].startswith("#")
    rows = [dict(zip(lines[1].split(","), ln.split(","))) for ln in lines[2:]]
    assert len(rows) == 4
    for row in rows:
        assert float(row["ratio_max"]) <= 1 + float(row["epsilon"]) + 1e-9
        assert row["violations"] == "0"


def test_run_experiment_empty_grid():
    inst = gen_instance("path", {"k": 3}, 0)
    cfg = ExperimentConfig(algorithm="mst", instance=inst, grid=(), trials=5, seed=0)
    out = run_experiment(cfg)
    assert len(out.strip().splitlines()) == 2  # comment + header only


def test_run_experiment_bipartite_ratio():
    inst = gen_instance("bipartite-random", {"nU": 3, "nV": 4}, 6)
    cfg = ExperimentConfig(
        algorithm="bmatch", instance=inst, grid=({"epsilon": 0.1},), trials=400, seed=0
    )
    out = run_experiment(cfg)
    row = out.strip().splitlines()[-1].split(",")
    header = out.strip().splitlines()[1].split(",")
    ratio = float(row[header.index("ratio_mean")])
    assert ratio >= 0.5 - 0.1 - 0.1  # 3-sigma style slack at this trial count


def test_run_experiment_timing_column_optional():
    inst = gen_instance("path", {"k": 3}, 0)
    cfg = ExperimentConfig(
        algorithm="mst", instance=inst, grid=({"epsilon": 0.5},), trials=5, seed=0,
        timing=True,
    )
    out = run_experiment(cfg)
    assert "wall_time_s" in out.splitlines()[1]


# --- CLI ----------------------------------------------------------------------


@pytest.fixture
def graph_file(tmp_path):
    inst = gen_instance("random-gnm", {"n": 6, "m": 9}, 5)
    path = tmp_path / "g.txt"
    path.write_text(write_edge_list(inst.graph, inst.weights))
    return str(path)


@pytest.fixture
def bip_file(tmp_path):
    path = tmp_path / "b.txt"
    path.write_text("2 3\n1.0 0.2 0.1\n0.3 0.9 0.2\n")
    return str(path)


def test_cli_mst_writes_csv(graph_file, tmp_path, capsys):
    out = str(tmp_path / "out.csv")
    code = cli_main(
        ["mst", "--input", graph_file, "--epsilon", "0.5", "--trials", "30",
         "--seed", "1", "--csv", out, "--quiet"]
    )
    assert code == 0
    text = open(out).read()
    assert text.startswith("# lipgraph-csv v1")
    # identical invocation reproduces the bytes
    out2 = str(tmp_path / "out2.csv")
    cli_main(
        ["mst", "--input", graph_file, "--epsilon", "0.5", "--trials", "30",
         "--seed", "1", "--csv", out2, "--quiet"]
    )
    assert open(out2).read() == text


def test_cli_sp_and_contraction(graph_file, capsys):
    assert cli_main(
        ["sp", "--input", graph_file, "--source", "0", "--target", "5",
         "--epsilon", "0.5", "--trials", "10", "--seed", "1"]
    ) == 0
    capsys.readouterr()
    assert cli_main(
        ["sp-unweighted", "--input", graph_file, "--source", "0", "--target", "5",
         "--epsilon", "0.5", "--gamma-override", "0.1", "--contract-edge", "2",
         "--trials", "15", "--seed", "2"]
    ) == 0
    rows = capsys.readouterr().out.strip().splitlines()
    assert len(rows) == 3


def test_cli_bmatch_check_validates_every_matching(bip_file, monkeypatch, capsys):
    from lipgraph.bmatch import BipartiteMatchResult

    calls = []
    validate = BipartiteMatchResult.validate

    def spy(self, shape):
        calls.append(shape)
        return validate(self, shape)

    monkeypatch.setattr(BipartiteMatchResult, "validate", spy)
    assert cli_main(
        ["bmatch", "--input", bip_file, "--epsilon", "0.1", "--perturb-cell", "0", "1",
         "--delta", "0.01", "--trials", "20", "--seed", "3", "--check"]
    ) == 0, capsys.readouterr().err
    assert calls == [(2, 3)] * 20


def test_cli_bmatch_and_dump(bip_file, capsys):
    assert cli_main(
        ["bmatch", "--input", bip_file, "--epsilon", "0.1", "--trials", "10", "--seed", "0"]
    ) == 0
    capsys.readouterr()
    assert cli_main(["bmatch", "--input", bip_file, "--epsilon", "0.1", "--dump-lp"]) == 0
    dump = capsys.readouterr().out
    assert dump.startswith("B ") and "lambda" in dump


def test_cli_emit_gadget(graph_file, capsys):
    assert cli_main(
        ["sp", "--input", graph_file, "--source", "0", "--target", "5",
         "--epsilon", "0.5", "--emit-gadget", "--seed", "3"]
    ) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    n, m = map(int, lines[0].split())
    assert len(lines) == m + 1


def test_cli_bad_input_exit_code(tmp_path, capsys):
    assert cli_main(["mst", "--input", str(tmp_path / "missing"), "--epsilon", "0.5"]) == 2
    bad = tmp_path / "bad.txt"
    bad.write_text("not a graph\n")
    assert cli_main(["mst", "--input", str(bad), "--epsilon", "0.5"]) == 2


def test_cli_mwm_alpha_zero_is_bad_input(tmp_path, capsys):
    # an explicit alpha of 0 is out of range, not missing: exit 2, not a traceback
    tri = tmp_path / "tri.txt"
    tri.write_text(write_edge_list(WeightedMultigraph(3, ((0, 1), (1, 2), (0, 2))),
                                   np.array([1.0, 2.0, 3.0])))
    assert cli_main(["mwm", "--input", str(tri), "--alpha", "0", "--trials", "3"]) == 2
    assert "alpha must exceed 2" in capsys.readouterr().err


def test_cli_check_failure_exit_code(graph_file, monkeypatch, capsys):
    # invariant violations surface as exit code 1
    from lipgraph import cli as cli_module
    from lipgraph.harness import CheckFailure

    def boom(config):
        raise CheckFailure("forced for the exit-code contract")

    monkeypatch.setattr(cli_module, "run_experiment", boom)
    code = cli_main(
        ["mst", "--input", graph_file, "--epsilon", "0.5", "--check", "--trials", "5"]
    )
    assert code == 1


def test_cli_check_passes_correct_stability_run(tmp_path, capsys):
    # the plug-in EMD between 400 + 400 samples sits far above the coupled
    # estimate (2.33 against 0.0065); that gap is sampling bias, not a defect
    inst = gen_instance("random-gnm", {"n": 8, "m": 16}, 12)
    path = tmp_path / "g.txt"
    path.write_text(write_edge_list(inst.graph, inst.weights))
    code = cli_main(
        ["mwm", "--input", str(path), "--alpha", "2.1", "--perturb-edge", "3",
         "--delta", "0.05", "--trials", "400", "--seed", "5", "--check"]
    )
    assert code == 0, capsys.readouterr().err


def test_check_nulls_stay_on_the_assignment_at_odd_trials(tmp_path, monkeypatch, capsys):
    # 401 trials: the main EMD (n > 400) is an LP, but the split-half nulls
    # must compare equal halves, which the assignment solves
    from lipgraph import metrics

    calls = []
    lp = metrics.transportation_cost

    def spy(*args):
        calls.append(args)
        return lp(*args)

    monkeypatch.setattr(metrics, "transportation_cost", spy)
    inst = gen_instance("random-gnm", {"n": 8, "m": 16}, 12)
    path = tmp_path / "g.txt"
    path.write_text(write_edge_list(inst.graph, inst.weights))
    args = ["mst", "--input", str(path), "--epsilon", "0.5", "--perturb-edge", "4",
            "--delta", "0.05", "--trials", "401", "--seed", "5"]
    assert cli_main(args) == 0
    without_check = len(calls)
    calls.clear()
    assert cli_main(args + ["--check"]) == 0, capsys.readouterr().err
    assert len(calls) == without_check


def test_check_rejects_broken_coupling(tmp_path, monkeypatch, capsys):
    # two parallel edges: edge 0 always wins at w, edge 1 always wins at w2,
    # so EMD = coupled = 2 with zero stderr and zero split-half nulls
    from lipgraph import harness
    from lipgraph.harness import CheckFailure

    g = WeightedMultigraph(2, ((0, 1), (0, 1)))
    inst = GraphInstance(g, np.array([1.0, 1.2]), "parallel")
    point = {"epsilon": 0.1, "edge": 0, "delta": 0.5, "metric": "unweighted"}
    cfg = ExperimentConfig(
        algorithm="mst", instance=inst, grid=(point,), trials=40, seed=3, check=True
    )
    row = run_experiment(cfg).strip().splitlines()[-1].split(",")
    assert row[-6:] == ["2.0", "0.0", "4.0", "2.0", "0.0", "4.0"]

    coupled = harness._coupled_lip_mst

    def unperturbed_twice(*args):
        t1, _ = coupled(*args)
        return t1, t1

    monkeypatch.setattr(harness, "_coupled_lip_mst", unperturbed_twice)
    with pytest.raises(CheckFailure):
        run_experiment(cfg)
    path = tmp_path / "g.txt"
    path.write_text(write_edge_list(g, inst.weights))
    code = cli_main(
        ["mst", "--input", str(path), "--epsilon", "0.1", "--perturb-edge", "0",
         "--delta", "0.5", "--trials", "40", "--seed", "3", "--check"]
    )
    assert code == 1
