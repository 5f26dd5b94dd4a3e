"""Command-line front end: one subcommand per module, seeded and
reproducible.  Every file-producing run also writes `<out>.manifest.json`
recording the full parameter set, tool version, wall time and sha256 of each
output, so any run can be reproduced bit-for-bit from its manifest.

Exit codes: 0 success (ogp: certificate holds), 2 usage error, 3 ogp
refuted, 4 ogp not certifiable (heuristic curve), 5 enumeration budget
exceeded.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time

from .errors import BudgetError, ParameterError, UndefinedCurveError
from . import flatness as flat_mod
from . import landscape, mcmc, numerics, ogp
from .model import ModelParams, VertexSubset, load_graph, rng_from_seed, sample_planted, save_graph

VERSION = "0.1.0"

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_REFUTED = 3
EXIT_NOT_CERTIFIABLE = 4
EXIT_BUDGET = 5


def _fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.17g}"
    return str(x)


def _jsonable(x):
    if isinstance(x, float):
        return float(f"{x:.17g}")
    if isinstance(x, dict):
        return {k: _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    return x


def _write_json(path, payload):
    payload = {"schema": "v1", **_jsonable(payload)}
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_csv(path, header, rows):
    lines = ["# schema: v1", header]
    lines += [",".join(_fmt(c) for c in row) for row in rows]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _manifest(args, outputs, wall_ms):
    params = {k: v for k, v in vars(args).items() if k != "func"}
    entries = []
    for path in outputs:
        digest = hashlib.sha256(open(path, "rb").read()).hexdigest()
        entries.append({"path": str(path), "sha256": digest,
                        "bytes": os.path.getsize(path)})
    payload = {
        "schema": "v1",
        "tool": "plandscape",
        "version": VERSION,
        "subcommand": args.cmd,
        "params": _jsonable(params),
        "wall_ms": round(wall_ms, 3),
        "outputs": entries,
    }
    mpath = f"{outputs[0]}.manifest.json"
    with open(mpath, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _threads(args) -> int:
    if args.threads is not None:
        return args.threads
    return int(os.environ.get("PLANDSCAPE_THREADS", "1"))


# --- subcommand bodies -------------------------------------------------------


def _cmd_sample(args):
    g = sample_planted(args.n, args.k, args.seed)
    save_graph(g, args.out)
    return [args.out]


def _cmd_curve(args):
    p = ModelParams(args.n, args.k, args.kbar)
    curve = numerics.curve_grid(p, args.kind, z_lo=args.z_lo, z_hi=args.z_hi,
                                threads=_threads(args))
    rows = [(pt.z, pt.value, curve.kind, args.n, args.k, args.kbar)
            for pt in curve.points]
    _write_csv(args.out, "z,value,kind,n,k,kbar", rows)
    return [args.out]


def _cmd_classify(args):
    p = ModelParams(args.n, args.k, args.kbar)
    if args.empirical:
        cfg = numerics.ClassifierConfig(epsilon=args.epsilon, c0=args.c0)
        res = numerics.classify_curve(numerics.curve_grid(p, args.kind), cfg)
    else:
        res = numerics.classify_params(p, margin=args.margin)
    print(res.label)
    if args.out:
        _write_json(args.out, {
            "n": args.n, "k": args.k, "kbar": args.kbar, "label": res.label,
            "u1": res.u1, "u2": res.u2, "u1_scaled": res.u1_scaled,
            "u2_scaled": res.u2_scaled, "depth": res.depth,
        })
        return [args.out]
    return []


def _cmd_phase(args):
    k_grid = [int(tok) for tok in args.k_grid.split(",")]
    kbar_grid = [int(tok) for tok in args.kbar_grid.split(",")]
    table = numerics.phase_diagram(args.n, k_grid, kbar_grid, margin=args.margin)
    _write_csv(args.out, "k,kbar,label", table)
    return [args.out]


def _cmd_dense(args):
    if args.predict:
        pred = landscape.densest_prediction(args.n, args.K)
        _write_json(args.out, {"n": pred.n, "K": pred.K,
                               "first_order": pred.first_order,
                               "second_order": pred.second_order})
        return [args.out]
    g = load_graph(args.graph)
    if args.method == "exhaustive":
        res = landscape.densest_subgraph(g, args.K, budget=args.budget)
    else:
        res = landscape.local_search_densest(g, args.K, restarts=args.restarts,
                                             seed=args.seed)
    _write_json(args.out, {
        "K": args.K, "value": res.value, "method": res.method,
        "witness": "-".join(str(v) for v in res.witness.members),
        "restarts_used": res.restarts_used,
    })
    return [args.out]


def _cmd_d_curve(args):
    g = load_graph(args.graph)
    curve = ogp.overlap_curve(g, args.kbar, method=args.method,
                              budget=args.budget, restarts=args.restarts,
                              seed=args.seed)
    rows = []
    for pt in curve.points:
        res = curve.results[pt.z]
        rows.append((pt.z, int(pt.value), res.method,
                     "-".join(str(v) for v in res.witness.members)))
    _write_csv(args.out, "z,value,method,witness", rows)
    return [args.out]


def _cmd_flatness(args):
    if args.graph:
        g = load_graph(args.graph)
    else:
        g = flat_mod.sample_conditioned(args.K, args.gamma, args.seed)
    if args.mode == "exhaustive":
        rep = flat_mod.is_flat(g, args.gamma, args.delta)
    elif args.mode.startswith("sampled:"):
        count = int(args.mode.split(":", 1)[1])
        rep = flat_mod.is_flat(g, args.gamma, args.delta, mode="sampled",
                               samples=count, seed=args.seed)
    else:
        raise ParameterError(f"mode must be exhaustive or sampled:<count>, got {args.mode!r}")
    _write_json(args.out, {
        "K": rep.K, "gamma": rep.gamma, "delta": rep.delta,
        "is_flat": rep.is_flat, "checked": rep.checked,
        "edge_count_mismatch": list(rep.edge_count_mismatch) if rep.edge_count_mismatch else None,
        "violations": [{"ell": ell, "subset": list(mem), "excess": exc}
                       for ell, mem, exc in rep.violations],
    })
    return [args.out]


def _chain_config(args):
    return mcmc.MCMCConfig(beta=args.beta, kbar=args.kbar, t_max=args.t_max,
                           seed=args.seed, d1=args.d1, d2=args.d2,
                           stride=args.stride)


def _cmd_mcmc(args):
    g = load_graph(args.graph)
    cfg = _chain_config(args)
    init = mcmc.conditional_init(
        g, args.kbar, args.beta,
        mcmc.WellPartition.from_params(g.n, g.k, args.kbar, args.d1, args.d2),
        seed=args.seed) if args.init == "conditional" else _uniform_init(g, args)
    trace = mcmc.run_chain(g, cfg, init)
    _write_csv(args.out, "t,overlap,edges",
               list(zip(trace.times, trace.overlaps, trace.edges)))
    return [args.out]


def _uniform_init(g, args):
    rng = rng_from_seed(args.seed, stream=3)
    return VertexSubset.from_iterable(
        int(v) for v in rng.permutation(g.n)[: args.kbar])


def _cmd_hit(args):
    g = load_graph(args.graph)
    cfg = _chain_config(args)
    trace = mcmc.hitting_time(g, cfg)
    threshold = mcmc.beta_scale_threshold(g.n, args.kbar)
    payload = {
        "config": {"beta": args.beta, "kbar": args.kbar, "t_max": args.t_max,
                   "seed": args.seed, "d1": args.d1, "d2": args.d2},
        "hit_time": trace.hit_time,
        "censored": trace.hit_time is None,
        "beta_scale_threshold": threshold,
        "beta_meets_scale": args.beta >= threshold,
    }
    _write_json(args.out, payload)
    outputs = [args.out]
    if args.trace_out:
        _write_csv(args.trace_out, "t,overlap,edges",
                   list(zip(trace.times, trace.overlaps, trace.edges)))
        outputs.append(args.trace_out)
    return outputs


def _cmd_few(args):
    g = load_graph(args.graph)
    part = mcmc.WellPartition.from_params(g.n, g.k, args.kbar, args.d1, args.d2)
    ratio = mcmc.free_energy_well_ratio(g, args.kbar, args.beta, part,
                                        budget=args.budget)
    threshold = mcmc.beta_scale_threshold(g.n, args.kbar)
    _write_json(args.out, {
        "kbar": args.kbar, "beta": args.beta,
        "partition": {"a0_max": part.a0_max, "a1_min": part.a1_min,
                      "a1_max": part.a1_max, "a2_min": part.a2_min},
        "ln_ratio": None if ratio in (float("inf"), float("-inf")) else ratio,
        "ln_ratio_infinite": ratio == float("inf"),
        "beta_scale_threshold": threshold,
        "beta_meets_scale": args.beta >= threshold,
    })
    return [args.out]


def _cmd_ogp(args):
    g = load_graph(args.graph)
    if args.method == "local":
        curve = ogp.overlap_curve(g, args.kbar, method="local",
                                  budget=args.budget, seed=args.seed)
        wit = ogp.dip_witness(curve)
        _write_json(args.out, {
            "kbar": args.kbar, "certificate": None,
            "evidence": None if wit is None else {
                "z_star": wit.z_star, "dip_value": wit.dip_value,
                "lo_value": wit.lo_value, "hi_value": wit.hi_value},
            "note": "heuristic curve: evidence only, not certifiable",
        })
        return [args.out], EXIT_NOT_CERTIFIABLE
    if args.zeta1 is not None:
        curve = ogp.overlap_curve(g, args.kbar, budget=args.budget)
        cert = ogp.certify_ogp(g, args.kbar, curve, args.zeta1, args.zeta2, args.rn)
        thresholds = "caller-supplied"
    else:
        cert = ogp.auto_certify(g, args.kbar, budget=args.budget)
        thresholds = "data-driven"
    _write_json(args.out, {
        "kbar": args.kbar,
        "thresholds": thresholds,
        "holds": cert.holds,
        "zeta1": cert.zeta1, "zeta2": cert.zeta2, "r_n": cert.r_n,
        "low_witness": list(cert.low_witness.members) if cert.low_witness else None,
        "high_witness": list(cert.high_witness.members) if cert.high_witness else None,
        "violation": None if cert.violation is None else {
            "z": cert.violation[0],
            "subset": list(cert.violation[1].members) if cert.violation[1] else None},
        "reason": cert.reason,
    })
    return [args.out], (EXIT_OK if cert.holds else EXIT_REFUTED)


# --- parser -------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="plandscape",
        description="dense-subgraph landscape laboratory for planted clique instances")
    ap.add_argument("--threads", type=int, default=None,
                    help="worker threads (env PLANDSCAPE_THREADS; results never depend on it)")
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("sample", help="sample a planted-clique instance to a graph file")
    p.add_argument("--n", type=int, default=14, help="vertex count (desk-scale default)")
    p.add_argument("--k", type=int, default=4, help="planted clique size")
    p.add_argument("--seed", type=int, default=0, help="64-bit RNG seed")
    p.add_argument("--out", required=True, help="output graph file (pcg v1)")
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("curve", help="evaluate a deterministic overlap curve to CSV")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--kbar", type=int, required=True)
    p.add_argument("--kind", default="gamma",
                   choices=["gamma", "gamma-tilde", "gamma-tilde-renorm", "phi"])
    p.add_argument("--z-lo", type=int, default=None)
    p.add_argument("--z-hi", type=int, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_curve)

    p = sub.add_parser("classify", help="monotonicity class of the first moment curve")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--kbar", type=int, required=True)
    p.add_argument("--margin", type=float, default=1.0,
                   help="indeterminate band around the trend boundaries")
    p.add_argument("--empirical", action="store_true",
                   help="classify the evaluated curve instead of the trend statistic")
    p.add_argument("--kind", default="gamma",
                   choices=["gamma", "gamma-tilde", "gamma-tilde-renorm", "phi"])
    p.add_argument("--epsilon", type=float, default=0.1)
    p.add_argument("--c0", type=float, default=8.0)
    p.add_argument("--out", default=None, help="optional JSON output")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("phase", help="phase-diagram labels over a (k, kbar) grid")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k-grid", required=True, help="comma-separated k values")
    p.add_argument("--kbar-grid", required=True, help="comma-separated kbar values")
    p.add_argument("--margin", type=float, default=1.0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_phase)

    p = sub.add_parser("dense", help="densest K-subgraph value or its prediction")
    p.add_argument("--predict", action="store_true",
                   help="write the first/second order prediction instead of solving")
    p.add_argument("--n", type=int, help="vertex count (with --predict)")
    p.add_argument("--graph", help="input graph file")
    p.add_argument("--K", type=int, required=True)
    p.add_argument("--method", default="exhaustive", choices=["exhaustive", "local"])
    p.add_argument("--budget", type=int, default=10**8)
    p.add_argument("--restarts", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_dense)

    p = sub.add_parser("d-curve", help="per-instance overlap-restricted densest curve")
    p.add_argument("--graph", required=True)
    p.add_argument("--kbar", type=int, default=5)
    p.add_argument("--method", default="exhaustive", choices=["exhaustive", "local"])
    p.add_argument("--budget", type=int, default=10**8)
    p.add_argument("--restarts", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_d_curve)

    p = sub.add_parser("flatness", help="flatness check of a conditioned sample or graph file")
    p.add_argument("--K", type=int, required=True)
    p.add_argument("--gamma", type=float, required=True)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--mode", default="exhaustive", help="exhaustive | sampled:<count>")
    p.add_argument("--graph", default=None, help="check this graph instead of sampling")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_flatness)

    def chain_args(p):
        p.add_argument("--graph", required=True)
        p.add_argument("--kbar", type=int, default=5)
        p.add_argument("--beta", type=float, required=True)
        p.add_argument("--t-max", type=int, required=True)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--d1", type=float, default=0.25)
        p.add_argument("--d2", type=float, default=1.0)
        p.add_argument("--stride", type=int, default=1)

    p = sub.add_parser("mcmc", help="run the swap chain, trace to CSV")
    chain_args(p)
    p.add_argument("--init", default="uniform", choices=["uniform", "conditional"])
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_mcmc)

    p = sub.add_parser("hit", help="hitting time of the low-overlap band roof")
    chain_args(p)
    p.add_argument("--trace-out", default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_hit)

    p = sub.add_parser("few", help="free-energy-well log ratio (exact)")
    p.add_argument("--graph", required=True)
    p.add_argument("--kbar", type=int, default=5)
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--d1", type=float, default=0.25)
    p.add_argument("--d2", type=float, default=1.0)
    p.add_argument("--budget", type=int, default=10**7)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_few)

    p = sub.add_parser("ogp", help="certify or refute the overlap gap on an instance")
    p.add_argument("--graph", required=True)
    p.add_argument("--kbar", type=int, default=5)
    p.add_argument("--method", default="exhaustive", choices=["exhaustive", "local"])
    p.add_argument("--budget", type=int, default=10**8)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--zeta1", type=int, default=None)
    p.add_argument("--zeta2", type=int, default=None)
    p.add_argument("--rn", type=float, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_ogp)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    t0 = time.perf_counter()
    try:
        result = args.func(args)
    except BudgetError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (ParameterError, UndefinedCurveError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    wall_ms = (time.perf_counter() - t0) * 1000
    code = EXIT_OK
    if isinstance(result, tuple):
        outputs, code = result
    else:
        outputs = result
    if outputs:
        _manifest(args, outputs, wall_ms)
    return code


def run() -> None:
    sys.exit(main())
