#!/usr/bin/env python3
"""Benchmark of lipgraph through its public API, one workload per process.

    python3 perfbench/run.py --workload small-instances --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout; lipgraph is imported from its
``src/``.  One caller runs the workload's fixed list of operations (a
round) in a closed loop, each call starting when the previous one has
returned, and starts new rounds while fewer than ``--seconds`` have
passed.  After the timed phase every output of the first round is checked
against computations made apart from the program, and later rounds must
reproduce the first exactly.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the metrics
are the end-to-end ones; with ``--trace 1`` lipgraph's public functions are
wrapped in spans (see ``tracing.py``) and the metrics are per layer, per
round.  Details of each run go to ``perfbench/results/``.
"""

import time

_SCRIPT_START = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(ROOT, "perfbench", "results")
WORKDIR = os.path.join(ROOT, "perfbench", "work")
WORKLOAD_NAMES = ("small-instances", "large-graphs", "stability-sweep")

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("op_ms_p50", "ms"), ("op_ms_p90", "ms"),
              ("peak_rss_mb", "MB"))


def process_age() -> float:
    """Seconds since this process started, interpreter start-up included.

    Read from the kernel's process start time; falls back to the time since
    this script began when that is unavailable or implausible.
    """
    since_script = time.perf_counter() - _SCRIPT_START
    try:
        with open("/proc/self/stat", encoding="ascii") as fh:
            start_ticks = int(fh.read().rsplit(")", 1)[1].split()[19])
        age = time.clock_gettime(time.CLOCK_BOOTTIME) - start_ticks / os.sysconf("SC_CLK_TCK")
    except (OSError, ValueError, IndexError, AttributeError):
        return since_script
    return age if since_script <= age < since_script + 5.0 else since_script


def canonical(op, res) -> bytes:
    """The output of one operation as bytes, for comparing runs and rounds."""
    if res is None:
        return b"failed"
    if op.kind in ("lip_mst", "plip_mst"):
        return repr(sorted(res.tree.edges)).encode() + res.hat_weights.tobytes()
    if op.kind in ("lip_sp", "sp"):
        return repr(res.steps).encode()
    if op.kind == "lip_mwm":
        return repr(sorted(res.edges)).encode()
    if op.kind == "plip_mwbm":
        return repr((res.matching, res.b_reg)).encode() + res.lp.x.tobytes()
    if op.kind == "cli":
        with open(op.p("csv"), "rb") as fh:
            return repr(res).encode() + fh.read()
    return repr((res.coupled_mean, res.coupled_stderr, res.emd, res.emd_stderr)).encode()


def run_round(wl, ops, tracer=None, first_op_id=0, keep=False):
    """Run the operations once on fresh graph objects.

    Returns a digest of every output, the outputs as [(op, result or None)]
    when ``keep`` is set (else []), the latency of each call in seconds, and
    the errors of the calls that raised.  Only the outputs that are kept
    stay in memory, so peak memory does not grow with the number of rounds.
    """
    from lipgraph.errors import LipgraphError
    from perfbench.workloads import call

    objs = wl.fresh()
    digest = hashlib.sha256()
    results, latencies, errors = [], [], []
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op_id = first_op_id + i
            tracer.open("op")
        started = time.perf_counter()
        try:
            res = call(op, wl, objs)
        except LipgraphError as exc:
            res = None
            errors.append(f"{op.kind} {op.inst}: {type(exc).__name__}: {exc} "
                          f"residuals={getattr(exc, 'residuals', None)}")
        latencies.append(time.perf_counter() - started)
        if tracer is not None:
            tracer.close()
        digest.update(canonical(op, res) + b"\0")
        if keep:
            results.append((op, res))
    return digest.hexdigest(), results, latencies, errors


def by_instance(ops, latencies) -> dict:
    """Median latency in ms of each (kind, instance) pair over all rounds."""
    groups = {}
    for i, sec in enumerate(latencies):
        op = ops[i % len(ops)]
        groups.setdefault(f"{op.kind} {op.inst}", []).append(sec * 1e3)
    return {k: statistics.median(v) for k, v in groups.items()}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "lipgraph", "__init__.py")):
        print(f"error: no lipgraph sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, ROOT]
    import lipgraph
    import numpy as np
    import scipy

    if os.path.dirname(os.path.dirname(os.path.abspath(lipgraph.__file__))) != SRC:
        print(f"error: lipgraph imported from {lipgraph.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from perfbench import checks, tracing, workloads

    os.makedirs(RESULTS, exist_ok=True)
    os.makedirs(WORKDIR, exist_ok=True)
    wl = workloads.WORKLOADS[args.workload](args.seed, WORKDIR)
    opt = checks.optima(wl)
    workloads.warm_up(wl)
    setup_s = process_age()

    tracer = tracing.Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    latencies, walls, digests, errors = [], [], [], []
    first, failed = None, 0
    timed_start = time.perf_counter()
    while True:
        started = time.perf_counter()
        digest, results, lat, errs = run_round(
            wl, wl.ops, tracer, len(walls) * len(wl.ops), keep=first is None
        )
        walls.append(time.perf_counter() - started)
        latencies.extend(lat)
        digests.append(digest)
        failed += len(errs)
        if first is None:
            first, errors = results, errs
        if time.perf_counter() - timed_start >= args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.uninstall()

    rounds = len(walls)
    attempted = rounds * len(wl.ops)
    checks_started = time.perf_counter()
    problems = checks.check_workload(wl, first, opt)
    if len(set(digests)) != 1:
        problems.append("rounds differ: outputs depend on call history")
    checks_s = time.perf_counter() - checks_started
    e2e = {
        "setup_s": setup_s,
        "wall_s": statistics.median(walls),
        "op_ms_p50": float(np.percentile(latencies, 50)) * 1e3,
        "op_ms_p90": float(np.percentile(latencies, 90)) * 1e3,
        "peak_rss_mb": peak_rss_mb,
    }
    units = dict(END_TO_END)
    if tracer is None:
        metrics = {k: {"value": v, "unit": units[k]} for k, v in e2e.items()}
    else:
        layer = tracer.per_layer(rounds)
        metrics = {k: {"value": layer[k], "unit": u} for k, u in tracing.PER_LAYER}
        tracer.write(os.path.join(RESULTS, f"{args.workload}.spans.csv"))

    for k, v in e2e.items():
        print(f"{args.workload} {k} {v:.6g} {units[k]}")
    print(f"{args.workload} rounds {rounds} ops/round {len(wl.ops)} attempted {attempted} failed {failed}")
    for line in errors:
        print(f"failed: {line}")
    for line in problems:
        print(f"CHECK FAILED: {line}")
    detail = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "rounds": rounds, "ops_per_round": len(wl.ops), "attempted": attempted, "failed": failed,
        "errors": errors, "problems": problems, "digest": digests[0], "end_to_end": e2e,
        "metrics": metrics, "round_walls": walls, "checks_s": checks_s,
        "op_ms_by_instance": by_instance(wl.ops, latencies),
        "platform": {"python": platform.python_version(), "numpy": np.__version__,
                     "scipy": scipy.__version__, "cpus": os.cpu_count()},
    }
    with open(os.path.join(RESULTS, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump(detail, fh, indent=1)
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
