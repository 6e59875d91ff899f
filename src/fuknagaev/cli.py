"""Command-line interface.

Subcommands: bound, verify, proofcheck, quantile, mcdiarmid. Every
subcommand is a pure function of its flags, optional INI config file, and
seed, so repeated invocations give identical output. Machine-readable
reports (--out with --format csv|json) are byte-stable: keys are sorted and
floats are printed with 17 significant digits; human summaries round to 6.

Exit codes: 0 success, 1 a verification verdict failed, 2 validation or
usage error, 3 internal error (two computations of one quantity disagree).

A campaign's --D must be at least the smoothness constant of its space,
1 for euclidean and sqrt(p - 1) for l^p, and defaults to it. Its moments are
exact, with no sampling; for Gaussian and cube increments without a closed
form they are computed for q <= 64, p <= 32 and dim <= 1e4, else exit 2.
"""

import argparse
import configparser
import json
import math
import os
import sys

from . import bounds, legendre, quantile, spaces, stochastic, verify
from .errors import InternalInconsistencyError, UnsupportedFunctionError, checked_q, checked_real

_USER_ERRORS = (ValueError, UnsupportedFunctionError, OSError)

SEED_ENV = "FUKNAGAEV_SEED"

_KINDS = {law.flag: kind for kind, law in stochastic._LAWS.items()}  # --dist name: kind


def _fmt_machine(x):
    return format(x, ".17g")


def _fmt_human(x):
    return format(x, ".6g")


def _json_dump(obj, indent=0):
    """Deterministic JSON: sorted keys, floats at 17 significant digits."""
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = []
        for key in sorted(obj):
            items.append(f'{pad}  {_json_dump(str(key))}: {_json_dump(obj[key], indent + 1)}')
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [f"{pad}  {_json_dump(v, indent + 1)}" for v in obj]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    if obj is None:
        return "null"
    if isinstance(obj, (bool, float, int)):
        return _row_cell(obj)
    return json.dumps(str(obj), ensure_ascii=False)  # escapes control characters too


def _row_cell(v):
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return _fmt_machine(v)
    if v is None:
        return "na"
    return str(v)


def emit_report(report: dict, fmt: str, path: str):
    """Write a {config, rows, meta} report as CSV or JSON.

    Output is byte-stable for identical inputs; wall-clock metadata is
    deliberately excluded.
    """
    if fmt == "json":
        text = _json_dump(report) + "\n"
    elif fmt == "csv":
        rows = report["rows"]
        header = list(rows[0]) if rows else []
        lines = [",".join(header)]
        for row in rows:
            lines.append(",".join(_row_cell(row[k]) for k in header))
        text = "\n".join(lines) + "\n"
    else:
        raise ValueError(f"unknown format {fmt!r}")
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(text)


def _load_config(path, section):
    parser = configparser.ConfigParser()
    parser.optionxform = str  # keys are case-sensitive flag names
    with open(path, encoding="utf-8") as handle:
        parser.read_file(handle)
    if not parser.has_section(section):
        return {}
    return dict(parser.items(section))


def _merged(args, keys):
    """Config-file values with flag overrides; flags win."""
    cfg = {}
    if args.config:
        cfg = _load_config(args.config, args.subcommand)
    out = {}
    for key in keys:
        flag_val = getattr(args, key, None)
        if flag_val is not None:
            out[key] = flag_val
        elif key in cfg:
            out[key] = cfg[key]
    return out


def _need(params, key, conv=float):
    if key not in params:
        raise ValueError(f"missing required parameter --{key}")
    return conv(params[key])


def _default_seed(params):
    if "seed" in params:
        return int(params["seed"])
    env = os.environ.get(SEED_ENV)
    return int(env) if env else 0


def _parse_u_grid(text):
    grid = tuple(float(tok) for tok in str(text).split(",") if tok.strip())
    if not grid:
        raise ValueError("empty u grid")
    return grid


def _build_dist(params):
    dim = int(params.get("dim", 1))
    p = params.get("p")
    space = spaces.make_lp(dim, float(p)) if p is not None else spaces.make_euclidean(dim)
    name = params.get("dist", "rademacher")
    if name not in _KINDS:
        raise ValueError(f"unknown distribution {name!r}, choose from {tuple(_KINDS)}")
    return stochastic.IncrementDistribution(_KINDS[name], space, float(params.get("alpha", 1.0)))


def _moment_inputs(params):
    """(MomentProfile, D, report config) from --q, --D, --sigma and --cq.
    sigma and C_q are checked before a power could hide their sign or overflow."""
    q, D = _need(params, "q"), _need(params, "D")
    sigma, cq = _need(params, "sigma"), _need(params, "cq")
    checked_q(q)  # before math.pow, which raises ValueError for q < 0 at C_q = 0
    checked_real(sigma, "--sigma", least=0, below=1.3e154)  # sigma^2 stays finite
    checked_real(cq, "--cq", least=0)
    try:
        cq_to_q = math.pow(cq, q)
    except OverflowError:
        raise ValueError(f"--cq = {cq} overflows C_q^q at q = {q}") from None
    profile = stochastic.MomentProfile(sigma_sq=sigma * sigma, cq_to_q=cq_to_q, q=q)
    return profile, D, {"q": q, "D": D, "sigma": sigma, "cq": cq}


def _maybe_emit(args, params, config, rows, seed=None):
    out = params.get("out")
    if out:
        emit_report({"config": config, "rows": rows,
                     "meta": {"tool": "fuknagaev", "subcommand": args.subcommand,
                              "seed": seed}},
                    params.get("format", "json"), out)


def _cmd_bound(args):
    params = _merged(args, ("q", "D", "sigma", "cq", "u", "t", "out", "format"))
    profile, D, config = _moment_inputs(params)
    rows = []
    for key, evaluate, line in (
            ("u", bounds.confidence_bound, "confidence threshold B({}) = {}"),
            ("t", bounds.tail_bound, "tail probability at t = {}: {}")):
        if params.get(key) is not None:
            level = float(params[key])
            res = evaluate(profile, D, level)
            print(line.format(_fmt_human(level), _fmt_human(res.value)))
            rows.append({"level": level, "kind": res.kind, "value": res.value})
    if not rows:
        raise ValueError("bound needs --u (confidence) or --t (tail threshold)")
    _maybe_emit(args, params, config, rows)
    return 0


def _cmd_mcdiarmid(args):
    params = _merged(args, ("q", "D", "sigma", "cq", "u", "out", "format"))
    profile, D, config = _moment_inputs(params)
    u = _need(params, "u")
    res = bounds.mcdiarmid_bound(profile.sigma_sq, profile.cq_to_q, profile.q, D, u)
    print(f"||f(Z) - E f(Z)|| <= {_fmt_human(res.value)} with probability >= "
          f"{_fmt_human(1 - u)}")
    _maybe_emit(args, params, {**config, "u": u},
                [{"level": u, "kind": res.kind, "value": res.value}])
    return 0


def _cmd_proofcheck(args):
    params = _merged(args, ("q", "D", "sigma", "u", "out", "format"))
    report = legendre.proof_chain(_need(params, "q"), _need(params, "D"),
                                  _need(params, "sigma"), _need(params, "u"))
    print(f"x_hat = {_fmt_human(report.x_hat)}  L = {_fmt_human(report.trunc_L)}  "
          f"alpha = {_fmt_human(report.alpha_qD)}")
    print(f"{'step':<12} {'lhs':>14} {'rhs':>14}  verdict")
    for s in report.steps:
        print(f"{s.name:<12} {_fmt_human(s.lhs):>14} {_fmt_human(s.rhs):>14}  "
              f"{'pass' if s.passed else 'FAIL'}")
    print(f"final coefficient c = {_fmt_human(report.final_coefficient)}")
    _maybe_emit(args, params,
                {"q": report.q, "D": report.D, "sigma": report.sigma, "u": report.u},
                [{"step": s.name, "lhs": s.lhs, "rhs": s.rhs, "verdict": s.passed}
                 for s in report.steps])
    return 0 if report.all_passed else 1


def _cmd_verify(args):
    params = _merged(args, ("dist", "alpha", "dim", "p", "n", "trials", "q", "D",
                            "u", "seed", "out", "format"))
    dist = _build_dist(params)
    config = verify.CampaignConfig(
        dist=dist,
        n=_need(params, "n", int),
        trials=_need(params, "trials", int),
        q=_need(params, "q"),
        D=float(params.get("D", dist.space.smoothness_D)),
        u_grid=_parse_u_grid(_need(params, "u", str)),
        seed=_default_seed(params),
    )
    report = verify.verify_confidence(config)
    print(f"{'level':>8} {'bound':>12} {'exceed':>8} {'rate':>10} "
          f"{'cp_upper':>10}  verdict")
    for r in report.rows:
        print(f"{_fmt_human(r.level):>8} {_fmt_human(r.bound):>12} {r.exceed:>8} "
              f"{_fmt_human(r.rate):>10} {_fmt_human(r.cp_upper):>10}  "
              f"{'pass' if r.passed else 'FAIL'}")
    _maybe_emit(args, params,
                {"dist": dist.kind, "param": dist.param,
                 "dim": dist.space.dimension, "norm": dist.space.norm_kind,
                 "n": config.n, "trials": config.trials, "q": config.q,
                 "D": config.D, "confidence": config.confidence},
                report.row_dicts(), seed=config.seed)
    return 0 if report.passed else 1


def _cmd_quantile(args):
    params = _merged(args, ("u", "out", "format"))
    sample = quantile.load_sample(args.sample_file)
    grid = _parse_u_grid(_need(params, "u", str))
    rows = []
    print(f"{'level':>8} {'Q':>12} {'Q1':>12} {'Qinf':>12}")
    for u in grid:
        trip = quantile.quantile_triple(sample, u)
        print(f"{_fmt_human(u):>8} {_fmt_human(trip.q):>12} "
              f"{_fmt_human(trip.q1):>12} {_fmt_human(trip.qinf):>12}")
        rows.append({"level": u, "q": trip.q, "q1": trip.q1, "qinf": trip.qinf})
    _maybe_emit(args, params, {"sample_file": str(args.sample_file), "size": len(sample)},
                rows)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fuknagaev",
        description="Fuk-Nagaev martingale bounds: evaluation, proof-chain "
                    "checks, and Monte Carlo verification.")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p, *names):
        if "q" in names:
            p.add_argument("--q", type=float, help="moment order, must exceed 2")
        if "D" in names:
            p.add_argument("--D", type=float, help="smoothness constant, >= 1")
        if "sigma" in names:
            p.add_argument("--sigma", type=float,
                           help="variance proxy sigma (not squared), >= 0")
        if "cq" in names:
            p.add_argument("--cq", type=float, help="moment proxy C_q (not C_q^q), >= 0")
        if "u" in names:
            p.add_argument("--u", type=str,
                           help="confidence level(s) in (0,1), comma separated where a grid is accepted")
        if "out" in names:
            p.add_argument("--out", type=str, help="write a machine-readable report here")
            p.add_argument("--format", type=str, choices=("csv", "json"),
                           help="report format, default json")
        p.add_argument("--config", type=str,
                       help="INI file with a [subcommand] section of key=value defaults; flags override")

    p_bound = sub.add_parser("bound", help="evaluate the confidence or tail bound")
    common(p_bound, "q", "D", "sigma", "cq", "u", "out")
    p_bound.add_argument("--t", type=float, help="tail threshold, > 0")

    p_verify = sub.add_parser("verify", help="run a Monte Carlo coverage campaign")
    common(p_verify, "q", "u", "out")
    p_verify.add_argument("--D", type=float,
                          help="smoothness constant, at least and by default the space's "
                               "own: 1 for euclidean, sqrt(p - 1) for l^p")
    p_verify.add_argument("--dist", type=str, choices=tuple(_KINDS), help="increment law")
    p_verify.add_argument("--alpha", type=float,
                          help="law parameter: " + ", ".join(
                              f"{law.param} ({law.flag})" for law in stochastic._LAWS.values()))
    p_verify.add_argument("--dim", type=int, help="space dimension, >= 1")
    p_verify.add_argument("--p", type=float,
                          help="l^p norm exponent >= 2; omit for euclidean")
    p_verify.add_argument("--n", type=int, help="increments per trial, >= 1")
    p_verify.add_argument("--trials", type=int, help="number of trials, >= 100")
    p_verify.add_argument("--seed", type=int,
                          help=f"RNG seed; falls back to ${SEED_ENV}, then 0")

    p_proof = sub.add_parser("proofcheck",
                             help="re-derive the bound constant numerically")
    common(p_proof, "q", "D", "sigma", "u", "out")

    p_quant = sub.add_parser("quantile",
                             help="Q, Q1, Qinf of a sample file (one value per "
                                  "line, '#' comments)")
    p_quant.add_argument("sample_file", type=str)
    common(p_quant, "u", "out")

    p_mcd = sub.add_parser("mcdiarmid",
                           help="heavy-tailed McDiarmid bound from summed "
                                "conditional moments")
    common(p_mcd, "q", "D", "sigma", "cq", "u", "out")
    return parser


_COMMANDS = {
    "bound": _cmd_bound,
    "verify": _cmd_verify,
    "proofcheck": _cmd_proofcheck,
    "quantile": _cmd_quantile,
    "mcdiarmid": _cmd_mcdiarmid,
}


def run(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.subcommand](args)
    except _USER_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InternalInconsistencyError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
