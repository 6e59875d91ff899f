"""Command-line interface.

Subcommands: bound, verify, proofcheck, quantile, mcdiarmid. Every
subcommand is a pure function of its flags, optional INI config file, and
seed, so repeated invocations give identical output. Machine-readable
reports (--out with --format csv|json) are byte-stable: keys are sorted and
floats are printed with 17 significant digits; human summaries round to 6.

Exit codes: 0 success, 1 a verification verdict failed, 2 validation or
usage error, 3 internal error (two computations of one quantity disagree).

A campaign's --D must be at least the smoothness constant sqrt(p - 1) of
its l^p space (1 at the default p = 2), and defaults to it. Its moments are
exact, with no sampling; for Gaussian and cube increments without a closed
form they are computed for q <= 64, p <= 32 and dim <= 1e4, else exit 2.
"""

import argparse
import configparser
import functools
import json
import math
import os
import sys

from . import bounds, legendre, quantile, spaces, stochastic, verify
from .errors import InternalInconsistencyError, UnsupportedFunctionError, checked_q, checked_real

_USER_ERRORS = (ValueError, UnsupportedFunctionError, OSError, configparser.Error)

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
    """The [section] entries of an INI file as --key=value tokens, which the
    parser reads as it reads flags."""
    parser = configparser.ConfigParser(interpolation=None)  # a value may hold %
    parser.optionxform = str  # keys are case-sensitive flag names
    with open(path, encoding="utf-8") as handle:
        parser.read_file(handle)
    if not parser.has_section(section):
        return []
    return [f"--{key}={value}" for key, value in parser.items(section)]


def _need(args, key):
    value = getattr(args, key)
    if value is None:
        raise ValueError(f"missing required parameter --{key}")
    return value


def _env_seed():
    text = os.environ.get(SEED_ENV)
    try:
        return int(text) if text else 0
    except ValueError:
        raise ValueError(f"${SEED_ENV} must be an integer, got {text!r}") from None


def _u_grid(text):
    """--u of verify and quantile: comma-separated levels."""
    try:
        grid = tuple(float(tok) for tok in text.split(",") if tok.strip())
    except ValueError:
        grid = ()
    if not grid:
        raise argparse.ArgumentTypeError(f"not a comma-separated list of numbers: {text!r}")
    return grid


def _moment_inputs(args):
    """(MomentProfile, D, report config) from --q, --D, --sigma and --cq.
    sigma and C_q are checked before a power could hide their sign, overflow
    or underflow."""
    q, D = _need(args, "q"), _need(args, "D")
    sigma, cq = _need(args, "sigma"), _need(args, "cq")
    checked_q(q)  # before math.pow, which raises ValueError for q < 0 at C_q = 0
    checked_real(sigma, "--sigma", least=0, below=1.3e154)  # sigma^2 stays finite
    checked_real(cq, "--cq", least=0)
    try:
        cq_to_q = math.pow(cq, q)
    except OverflowError:
        raise ValueError(f"--cq = {cq} overflows C_q^q at q = {q}") from None
    # a positive moment below the normal floats would drop its term of the bound
    for flag, value, name, power in (("--sigma", sigma, "sigma^2", sigma * sigma),
                                     ("--cq", cq, f"C_q^q at q = {q}", cq_to_q)):
        if 0 < value and power < sys.float_info.min:
            raise ValueError(f"{flag} = {value} underflows {name} below {sys.float_info.min:.2g}")
    profile = stochastic.MomentProfile(sigma_sq=sigma * sigma, cq_to_q=cq_to_q, q=q)
    return profile, D, {"q": q, "D": D, "sigma": sigma, "cq": cq}


def _maybe_emit(args, config, rows, seed=None):
    if args.out:
        emit_report({"config": config, "rows": rows,
                     "meta": {"tool": "fuknagaev", "subcommand": args.subcommand,
                              "seed": seed}},
                    args.format, args.out)


def _cmd_bound(args):
    profile, D, config = _moment_inputs(args)
    rows = []
    for level, evaluate, line in (
            (args.u, bounds.confidence_bound, "confidence threshold B({}) = {}"),
            (args.t, bounds.tail_bound, "tail probability at t = {}: {}")):
        if level is not None:
            res = evaluate(profile, D, level)
            print(line.format(_fmt_human(level), _fmt_human(res.value)))
            rows.append({"level": level, "kind": res.kind, "value": res.value})
    if not rows:
        raise ValueError("bound needs --u (confidence) or --t (tail threshold)")
    _maybe_emit(args, config, rows)
    return 0


def _cmd_mcdiarmid(args):
    profile, D, config = _moment_inputs(args)
    u = _need(args, "u")
    res = bounds.mcdiarmid_bound(profile.sigma_sq, profile.cq_to_q, profile.q, D, u)
    print(f"||f(Z) - E f(Z)|| <= {_fmt_human(res.value)} with probability >= "
          f"{_fmt_human(1 - u)}")
    _maybe_emit(args, {**config, "u": u}, [{"level": u, "kind": res.kind, "value": res.value}])
    return 0


def _cmd_proofcheck(args):
    report = legendre.proof_chain(_need(args, "q"), _need(args, "D"),
                                  _need(args, "sigma"), _need(args, "u"))
    print(f"x_hat = {_fmt_human(report.x_hat)}  L = {_fmt_human(report.trunc_L)}  "
          f"alpha = {_fmt_human(report.alpha_qD)}")
    print(f"{'step':<12} {'lhs':>14} {'rhs':>14}  verdict")
    for s in report.steps:
        print(f"{s.name:<12} {_fmt_human(s.lhs):>14} {_fmt_human(s.rhs):>14}  "
              f"{'pass' if s.passed else 'FAIL'}")
    print(f"final coefficient c = {_fmt_human(report.final_coefficient)}")
    _maybe_emit(args, {"q": report.q, "D": report.D, "sigma": report.sigma, "u": report.u},
                [{"step": s.name, "lhs": s.lhs, "rhs": s.rhs, "verdict": s.passed}
                 for s in report.steps])
    return 0 if report.all_passed else 1


def _cmd_verify(args):
    space = spaces.make_lp(args.dim, args.p)
    dist = stochastic.IncrementDistribution(_KINDS[args.dist], space, args.alpha)
    config = verify.CampaignConfig(
        dist=dist,
        n=_need(args, "n"),
        trials=_need(args, "trials"),
        q=_need(args, "q"),
        D=space.smoothness_D if args.D is None else args.D,
        u_grid=_need(args, "u"),
        seed=_env_seed() if args.seed is None else args.seed,
    )
    report = verify.verify_confidence(config)
    print(f"{'level':>8} {'bound':>12} {'exceed':>8} {'rate':>10} "
          f"{'cp_upper':>10}  verdict")
    for r in report.rows:
        print(f"{_fmt_human(r.level):>8} {_fmt_human(r.bound):>12} {r.exceed:>8} "
              f"{_fmt_human(r.rate):>10} {_fmt_human(r.cp_upper):>10}  "
              f"{'pass' if r.passed else 'FAIL'}")
    _maybe_emit(args,
                {"dist": dist.kind, "param": dist.param,
                 "dim": dist.space.dimension, "p": dist.space.p,
                 "n": config.n, "trials": config.trials, "q": config.q,
                 "D": config.D, "confidence": verify.CONFIDENCE},
                report.row_dicts(), seed=config.seed)
    return 0 if report.passed else 1


def _cmd_quantile(args):
    sample = quantile.load_sample(args.sample_file)
    rows = []
    print(f"{'level':>8} {'Q':>12} {'Q1':>12} {'Qinf':>12}")
    for u in _need(args, "u"):
        trip = quantile.quantile_triple(sample, u)
        print(f"{_fmt_human(u):>8} {_fmt_human(trip.q):>12} "
              f"{_fmt_human(trip.q1):>12} {_fmt_human(trip.qinf):>12}")
        rows.append({"level": u, "q": trip.q, "q1": trip.q1, "qinf": trip.qinf})
    _maybe_emit(args, {"sample_file": str(args.sample_file), "size": len(sample)}, rows)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fuknagaev", allow_abbrev=False,
        description="Fuk-Nagaev martingale bounds: evaluation, proof-chain "
                    "checks, and Monte Carlo verification.")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    # a flag or config key must be spelt out: with abbreviations, --tri or a key
    # "se" would set --trials or --seed
    add_parser = functools.partial(sub.add_parser, allow_abbrev=False)

    def common(p, *names, u_type=float):
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
            p.add_argument("--u", type=u_type,
                           help="confidence level(s) in (0,1), comma separated where a grid is accepted")
        if "out" in names:
            p.add_argument("--out", type=str, help="write a machine-readable report here")
            p.add_argument("--format", type=str, choices=("csv", "json"), default="json",
                           help="report format, default json")
        p.add_argument("--config", type=str,
                       help="INI file with a [subcommand] section of key=value defaults; flags override")

    p_bound = add_parser("bound", help="evaluate the confidence or tail bound")
    common(p_bound, "q", "D", "sigma", "cq", "u", "out")
    p_bound.add_argument("--t", type=float, help="tail threshold, > 0")

    p_verify = add_parser("verify", help="run a Monte Carlo coverage campaign")
    common(p_verify, "q", "u", "out", u_type=_u_grid)
    p_verify.add_argument("--D", type=float,
                          help="smoothness constant, at least and by default the space's "
                               "own, sqrt(p - 1)")
    p_verify.add_argument("--dist", type=str, choices=tuple(_KINDS), default="rademacher",
                          help="increment law")
    p_verify.add_argument("--alpha", type=float, default=1.0,
                          help="law parameter: " + ", ".join(
                              f"{law.param} ({law.flag})" for law in stochastic._LAWS.values()))
    p_verify.add_argument("--dim", type=int, default=1, help="space dimension, >= 1")
    p_verify.add_argument("--p", type=float, default=2.0,
                          help="l^p norm exponent >= 2, default 2: the euclidean norm")
    p_verify.add_argument("--n", type=int, help="increments per trial, >= 1")
    p_verify.add_argument("--trials", type=int, help="number of trials, >= 100")
    p_verify.add_argument("--seed", type=int,
                          help=f"RNG seed; falls back to ${SEED_ENV}, then 0")

    p_proof = add_parser("proofcheck",
                         help="re-derive the bound constant numerically")
    common(p_proof, "q", "D", "sigma", "u", "out")

    p_quant = add_parser("quantile",
                         help="Q, Q1, Qinf of a sample file (one value per "
                              "line, '#' comments)")
    p_quant.add_argument("sample_file", type=str)
    common(p_quant, "u", "out", u_type=_u_grid)

    p_mcd = add_parser("mcdiarmid",
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
    """Parse argv, then again with the --config file's entries as flags
    before it, so that flags given in argv override the file."""
    parser = build_parser()
    argv = list(argv)
    try:
        args = parser.parse_args(argv)
        if args.config:
            args = parser.parse_args([argv[0], *_load_config(args.config, argv[0]), *argv[1:]])
        return _COMMANDS[args.subcommand](args)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help
        return int(exc.code or 0)
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
