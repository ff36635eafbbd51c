"""Command-line entry point.

Subcommands run one algorithm on an instance file over a parameter grid
and emit CSV (stdout or --csv PATH).  Exit codes: 0 success, 1 invariant
violation under --check, 2 bad input.
"""

from __future__ import annotations

import argparse
import sys

from .bmatch import plip_mwbm
from .errors import LipgraphError
from .harness import (
    CheckFailure,
    ExperimentConfig,
    load_instance_file,
    run_experiment,
)
from .lip_sp import build_gadget
from .rng import RandomStream


def _common(parser: argparse.ArgumentParser, needs_st: bool = False) -> None:
    parser.add_argument("--input", required=True, help="instance file")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trials", type=int, default=100)
    parser.add_argument("--csv", default=None, help="write CSV here instead of stdout")
    parser.add_argument("--check", action="store_true", help="assert invariants per trial")
    parser.add_argument("--quiet", action="store_true")
    parser.add_argument("--timing", action="store_true", help="append a wall-time column")
    if needs_st:
        parser.add_argument("--source", type=int, required=True)
        parser.add_argument("--target", type=int, required=True)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="lipgraph")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("mst", help="randomized minimum spanning tree")
    _common(p)
    p.add_argument("--epsilon", type=float, action="append", required=True)
    p.add_argument("--pointwise", action="store_true", help="use the additive variant")
    p.add_argument("--perturb-edge", type=int, default=None)
    p.add_argument("--delta", type=float, default=None)

    p = sub.add_parser("sp-unweighted", help="contraction-stable shortest walk")
    _common(p, needs_st=True)
    p.add_argument("--epsilon", type=float, action="append", required=True)
    p.add_argument("--gamma-override", type=float, default=None)
    p.add_argument("--contract-edge", type=int, default=None)

    p = sub.add_parser("sp", help="weighted shortest walk via gadget reduction")
    _common(p, needs_st=True)
    p.add_argument("--epsilon", type=float, action="append", required=True)
    p.add_argument("--perturb-edge", type=int, default=None)
    p.add_argument("--delta", type=float, default=None)
    p.add_argument("--emit-gadget", action="store_true", help="print the gadget arc list and exit")

    p = sub.add_parser("mwm", help="randomized greedy maximum weight matching")
    _common(p)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--alpha", type=float, action="append")
    group.add_argument("--epsilon", type=float, action="append")
    p.add_argument("--perturb-edge", type=int, default=None)
    p.add_argument("--delta", type=float, default=None)

    p = sub.add_parser("bmatch", help="bipartite matching via regularized relaxation")
    _common(p)
    p.add_argument("--epsilon", type=float, action="append", required=True)
    p.add_argument("--perturb-cell", type=int, nargs=2, default=None, metavar=("I", "J"))
    p.add_argument("--delta", type=float, default=None)
    p.add_argument("--dump-lp", action="store_true", help="print x and duals for one solve")

    return parser


def _grid_points(args, metric: str) -> tuple:
    """One point per (epsilon, alpha), with the perturbation if one is requested."""
    points = []
    for eps in getattr(args, "epsilon", None) or [None]:
        for alpha in getattr(args, "alpha", None) or [None]:
            point = {"epsilon": eps, "alpha": alpha}
            for key in ("source", "target", "gamma_override", "contract_edge"):
                point[key] = getattr(args, key, None)
            cell = getattr(args, "perturb_cell", None)
            edge = getattr(args, "perturb_edge", None) if cell is None else tuple(cell)
            if edge is not None and getattr(args, "delta", None) is not None:
                point.update(edge=edge, delta=args.delta, metric=metric)
            points.append({k: v for k, v in point.items() if v is not None})
    return tuple(points)


def _emit(args, text: str) -> None:
    if args.csv:
        with open(args.csv, "w", encoding="utf-8") as fh:
            fh.write(text)
        if not args.quiet:
            print(f"wrote {args.csv}", file=sys.stderr)
    else:
        sys.stdout.write(text)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except CheckFailure as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 1
    except (LipgraphError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _dispatch(args) -> int:
    inst = load_instance_file(args.input, bipartite=args.command == "bmatch")
    if args.command == "bmatch" and args.dump_lp:
        nu, nv = inst.weights.shape
        res = plip_mwbm(nu, nv, inst.weights, args.epsilon[0], RandomStream(args.seed))
        if res.lp is None:
            print("zero optimum; no relaxation solved")
            return 0
        print(f"B {float(res.b_reg)!r}")
        for i in range(nu):
            print("x " + " ".join(repr(float(v)) for v in res.lp.x[i]))
        print("lambda " + " ".join(repr(float(v)) for v in res.lp.lam))
        print("mu " + " ".join(repr(float(v)) for v in res.lp.mu))
        return 0
    if args.command == "sp" and args.emit_gadget:
        gadget = build_gadget(
            inst.graph, inst.weights, args.source, args.target,
            args.epsilon[0], RandomStream(args.seed),
        )
        print(f"{gadget.graph.n} {gadget.graph.m}")
        for tail, head in gadget.graph.arcs:
            print(f"{tail} {head}")
        return 0
    pointwise = getattr(args, "pointwise", False)
    config = ExperimentConfig(
        algorithm="pmst" if pointwise else args.command, instance=inst,
        grid=_grid_points(args, "unweighted" if pointwise or args.command == "bmatch" else "weighted"),
        trials=args.trials, seed=args.seed, check=args.check, timing=args.timing,
    )
    _emit(args, run_experiment(config))
    return 0


if __name__ == "__main__":
    sys.exit(main())
