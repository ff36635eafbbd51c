"""Pinned bytes of the stability harness.

SHA-256 digests of perturbed CLI CSVs and of estimator reprs for fixed
(flags, seed).  A refactor of the harness or CLI must leave every digest
unchanged; a deliberate output change updates them and is declared.
"""

import hashlib

import numpy as np
import pytest

from lipgraph.cli import main as cli_main
from lipgraph.graphs import write_edge_list
from lipgraph.harness import (
    estimate_bipartite_pointwise,
    estimate_contraction_sensitivity,
    estimate_lipschitz,
    gen_instance,
)

BIPARTITE = "2 3\n1.0 0.2 0.1\n0.3 0.9 0.2\n"

CLI_RUNS = {
    "mst": (["mst", "--input", "g.txt", "--epsilon", "0.2", "--epsilon", "0.5",
             "--perturb-edge", "4", "--delta", "0.05"],
            "e8b19c0b85a237b19ee829063e6ee2d96417d95269feef41786a88688c6ea10d"),
    "mst-pointwise": (["mst", "--input", "g.txt", "--epsilon", "0.5", "--pointwise",
                       "--perturb-edge", "4", "--delta", "0.05"],
                      "bb733c694dc2347a7c8d4caea197556a138e0df652c3c3778aa99eaa853a293b"),
    "mwm": (["mwm", "--input", "g.txt", "--epsilon", "0.1", "--epsilon", "0.5",
             "--perturb-edge", "3", "--delta", "0.05"],
            "b49a544b8ea255cba51a3f15f47a811f4d139ebb36908fbd976bd80f47899973"),
    "sp": (["sp", "--input", "g.txt", "--source", "0", "--target", "5", "--epsilon", "0.5",
            "--perturb-edge", "4", "--delta", "0.02"],
           "7b6c0b1fc9909a3afae2c23ff74fb6afd9d6adf12d906a62c6a404ae961efd05"),
    "sp-unweighted": (["sp-unweighted", "--input", "g.txt", "--source", "0", "--target", "5",
                       "--epsilon", "0.5", "--gamma-override", "0.1", "--contract-edge", "6"],
                      "ee8786ffe928111e5498e079c20beda4c3e621ec0d85137a9ba67e6a4e94af47"),
    "bmatch": (["bmatch", "--input", "b.txt", "--epsilon", "0.1", "--perturb-cell", "0", "1",
                "--delta", "0.05"],
               "6015734df269c14588c02127947f1443fc033d8d1588ae26679edb5f5a6cadc3"),
}


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(CLI_RUNS))
def test_perturbed_cli_csv_bytes_pinned(name, tmp_path, monkeypatch):
    # the CSV's instance column holds the --input path, so keep it relative
    monkeypatch.chdir(tmp_path)
    inst = gen_instance("random-gnm", {"n": 8, "m": 16}, 12)
    (tmp_path / "g.txt").write_text(write_edge_list(inst.graph, inst.weights))
    (tmp_path / "b.txt").write_text(BIPARTITE)
    argv, digest = CLI_RUNS[name]
    assert cli_main(argv + ["--trials", "30", "--seed", "4", "--csv", "out.csv", "--quiet"]) == 0
    assert _digest((tmp_path / "out.csv").read_text()) == digest


def _estimates():
    gi = gen_instance("random-gnm", {"n": 8, "m": 16}, 12)
    g, w = gi.graph, gi.weights
    path = gen_instance("path", {"k": 8}, 0)
    return {
        "mst-weighted": estimate_lipschitz("mst", g, w, 4, 0.05, 30, 4, point={"epsilon": 0.5}),
        "pmst-unweighted": estimate_lipschitz(
            "pmst", g, w, 4, 0.05, 30, 4, metric="unweighted", point={"epsilon": 0.5}
        ),
        "sp-weighted": estimate_lipschitz(
            "sp", g, w, 4, 0.02, 30, 4, point={"epsilon": 0.5, "source": 0, "target": 5}
        ),
        "mwm-weighted": estimate_lipschitz("mwm", g, w, 3, 0.05, 30, 4, point={"alpha": 2.1}),
        "bipartite": estimate_bipartite_pointwise(
            np.array([[1.0, 0.2, 0.1], [0.3, 0.9, 0.2]]), (0, 1), 0.05, 0.1, 30, 4
        ),
        "contraction": estimate_contraction_sensitivity(path.graph, 0, 8, 0.5, 4, 0.1, 30, 4),
    }


ESTIMATE_DIGESTS = {
    "mst-weighted": "ffa91951e62f5c68852d54312b41ebcaee7c4f8b0c9fa204c892055346938022",
    "pmst-unweighted": "f9c5fd3d605805a50e9da89ecd4adce0dbc379ac0ebd1aed7ed29b75277f6940",
    "sp-weighted": "f2a28ea76821743d3ba4058bc87852ca57ee5317b2f8ef13e56ddee52b0f9988",
    "mwm-weighted": "b1628d7bc9f73dbbc9b21c97bf8b746e1f11e84aa9f62fc92313d443a4081a7d",
    "bipartite": "cb80a4314e72f8c5df93c1c2a9ef0b01b90de305d42d81e484373562cdb7c143",
    "contraction": "4359c397b520120bac9b920eae23ec4c047615e5914820cfcc0a6c3c5894ce5a",
}


def test_estimator_reprs_pinned():
    got = {name: _digest(repr(est)) for name, est in _estimates().items()}
    assert got == ESTIMATE_DIGESTS
