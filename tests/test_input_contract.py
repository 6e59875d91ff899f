"""The input contract of every real parameter of the public API: each call
either returns finite numbers (or the inf its docstring documents), or
raises a ValueError or TypeError whose message starts with the parameter's
name; a refusal that relates it to other inputs (an overflow, a
precondition) names it as "name = value". nan, the infinities, 0,
negatives, 1e+-300, a str, None and a bool are fed to each parameter in
turn, with every other argument valid, together with floats that hypothesis
draws. The CLI's flags take them on the command line and from a --config
file; a refusal there names the flag, or the parameter as the API does."""

import contextlib
import dataclasses
import io
import math
import os
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fuknagaev import cli
from fuknagaev.bounds import (HolderSpec, confidence_bound, constant_c, independent_sum_bound,
                              mcdiarmid_bound, tail_bound)
from fuknagaev.errors import checked_q, checked_real
from fuknagaev.legendre import (bercu_infimum, cgf_pieces, inverse_legendre, log_poly_check,
                                proof_chain, psi_tail, quadratic_closed_form, rio36_check,
                                truncation_error_bound)
from fuknagaev.quantile import cvar_q1, make_sample, q_infinity, quantile_q
from fuknagaev.spaces import make_euclidean, smoothness_certificate
from fuknagaev.stochastic import (DiscreteNormLaw, IncrementDistribution, MomentProfile,
                                  norm_moment, pinelis_check, rademacher, rio_moment_check,
                                  running_max_ensemble, truncated_ensemble, truncated_norm_exp_moment,
                                  truncated_norm_mean)
from fuknagaev.verify import CampaignConfig, clopper_pearson_upper, crossover_scan

_VALUES = (math.nan, math.inf, -math.inf, 0.0, -1.0, -1e-300, 1e-300, 1e300, -1e300, "1", None,
           True)

_R1 = make_euclidean(1)
_SIGN = rademacher(_R1, 1.0)
_UNIT = MomentProfile(sigma_sq=1.0, cq_to_q=1.0, q=4.0)
_ENSEMBLE = truncated_ensemble(_SIGN, 3, 20, seed=1, trunc_L=1.0)
_SAMPLE = make_sample(np.arange(1.0, 11.0))


def _campaign(**kw):
    return CampaignConfig(**(dict(dist=_SIGN, n=5, trials=100, q=4.0, seed=0, u_grid=(0.1,)) | kw))


def _rio(**kw):
    law = DiscreteNormLaw(values=(0.0, 0.5), probs=(0.5, 0.5))
    return rio_moment_check([law], q=4.0, **kw)


def _cli(*argv, config=False):
    """fuknagaev with argv and the keyword values as flags, or as entries of a
    --config file: the numbers it prints (exit 0, or 1 for a failed verdict), or
    its exit-2 message raised as a ValueError ("argument --x: ..." of argparse
    read as "--x: ..."). {sample} in argv is a file of the values 1..10."""
    def call(**values):
        with tempfile.TemporaryDirectory() as tmp:
            sample, ini = os.path.join(tmp, "s.txt"), os.path.join(tmp, "run.ini")
            with open(sample, "w", encoding="utf-8") as fh:
                fh.write("".join(f"{v}\n" for v in range(1, 11)))
            with open(ini, "w", encoding="utf-8") as fh:
                fh.write(f"[{argv[0]}]\n" + "".join(f"{k} = {v}\n" for k, v in values.items()))
            full = [arg.format(sample=sample) for arg in argv]
            full += ["--config", ini] if config else [f"--{k}={v}" for k, v in values.items()]
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.run(full)
        if code == 2:
            message = err.getvalue().strip().splitlines()[-1]
            raise ValueError(message.partition("error: ")[2].removeprefix("argument "))
        assert code in (0, 1), (full, values, code)
        return tuple(float(tok) for tok in out.getvalue().split() if _is_number(tok))
    return call


def _is_number(token):
    try:
        float(token)
    except ValueError:
        return False
    return True


# argv, suffix of the entry's name, valid flag values, {flag: its names in refusals,
# as a flag (argparse) and as the API names the parameter}
_CLI_RUNS = (
    (("bound", "--q", "4", "--D", "1", "--u", "0.1"), "", dict(sigma=1.0, cq=1.0),
     {"sigma": "--sigma", "cq": "--cq"}),
    (("verify", "--n", "5", "--trials", "100", "--seed", "0"), "",
     dict(q=4.0, D=1.0, alpha=1.0, dim=1, u=0.1),
     {"q": ("--q", "q"), "D": ("--D", "D"), "alpha": ("--alpha", "scale"),
      "dim": ("--dim", "dimension"), "u": ("--u", "u_grid level")}),
    (("verify", "--dim", "2", "--q", "4", "--u", "0.1"), " l^p",
     dict(p=3.0, n=5, trials=100, seed=0),
     {"p": ("--p", "p"), "n": ("--n", "n"), "trials": ("--trials", "trials"),
      "seed": ("--seed", "seed")}),
    (("quantile", "{sample}"), "", dict(u=0.1), {"u": ("--u", "u")}),
)


# name: (call, valid keyword arguments, {parameter: its name, or names, in messages},
#        documented inf)
_ENTRIES = {
    "constant_c": (constant_c, dict(q=4.0, D=1.0), {"D": "D"}, True),
    "confidence_bound": (lambda **kw: confidence_bound(_UNIT, **kw).value, dict(D=1.0, u=0.1),
                         {"D": "D", "u": "u"}, False),
    "tail_bound": (lambda **kw: tail_bound(_UNIT, **kw).value, dict(D=1.0, t=3.0),
                   {"D": "D", "t": "t"}, False),
    "independent_sum_bound": (lambda **kw: independent_sum_bound(_UNIT, 10, **kw).value,
                              dict(D=1.0, u=0.1), {"D": "D", "u": "u"}, False),
    "mcdiarmid_bound": (lambda **kw: mcdiarmid_bound(q=4.0, **kw).value,
                        dict(sigma_sq=1.0, cq_to_q=1.0, D=1.0, u=0.1),
                        {"sigma_sq": "sigma_sq", "cq_to_q": "cq_to_q", "D": "D", "u": "u"}, False),
    "HolderSpec": (lambda **kw: HolderSpec(**kw, coordinate_moments=((1.0, 1.0),)).holder_L,
                   dict(holder_L=1.0, alpha=1.0), {"holder_L": "holder_L", "alpha": "alpha"},
                   False),
    "HolderSpec-moments": (lambda m: HolderSpec(1.0, 1.0, ((1.0, m),)).holder_L, dict(m=1.0),
                           {"m": "coordinate moments"}, False),
    "psi_tail": (lambda q: psi_tail(q, 1.0), dict(q=4.0), {"q": "q"}, False),
    "cgf_pieces": (lambda **kw: cgf_pieces(4.0, **kw), dict(sigma=1.0, trunc_L=1.0),
                   {"sigma": "sigma", "trunc_L": "trunc_L"}, False),
    "inverse_legendre": (lambda x: inverse_legendre(lambda t: t * t, x), dict(x=1.0), {"x": "x"},
                         False),
    "quadratic_closed_form": (quadratic_closed_form, dict(sigma=1.0, D=1.0, x=1.0),
                              {"sigma": "sigma", "D": "D", "x": "x"}, True),
    "bercu_infimum": (bercu_infimum, dict(c=1.0, v=1.0, x=1.0), {"c": "c", "v": "v", "x": "x"},
                      True),
    "log_poly_check": (log_poly_check, dict(x=2.0, q=3.0), {"x": "x", "q": "q"}, True),
    "rio36_check": (lambda x: rio36_check(4.0, x), dict(x=1.0), {"x": "x"}, True),
    "truncation_error_bound": (lambda u: truncation_error_bound(4.0, u), dict(u=0.1), {"u": "u"},
                               False),
    "proof_chain": (lambda **kw: proof_chain(q=4.0, **kw), dict(D=1.0, sigma=1.0, u=0.1),
                    {"D": "D", "sigma": "sigma", "u": "u"}, False),
    "IncrementDistribution": (lambda param: IncrementDistribution("symmetric_pareto", _R1, param),
                              dict(param=4.5), {"param": "tail index"}, False),
    "MomentProfile": (lambda **kw: MomentProfile(q=4.0, **kw), dict(sigma_sq=1.0, cq_to_q=1.0),
                      {"sigma_sq": "sigma_sq", "cq_to_q": "cq_to_q"}, False),
    "norm_moment": (lambda p: norm_moment(_SIGN, p), dict(p=2.0), {"p": "moment order p"}, False),
    "truncated_norm_exp_moment": (lambda t: truncated_norm_exp_moment(_SIGN, t, 1.0), dict(t=0.5),
                                  {"t": "t"}, True),
    "pinelis_check": (lambda **kw: pinelis_check(_ENSEMBLE, dist=_SIGN, **kw), dict(t=0.5, D=1.0),
                      {"t": "t", "D": "D"}, True),
    "truncated_ensemble": (lambda trunc_L: float(truncated_ensemble(_SIGN, 3, 5, 1, trunc_L).max()),
                           dict(trunc_L=1.0), {"trunc_L": "trunc_L"}, False),
    "truncated_norm_mean": (lambda trunc_L: truncated_norm_mean(_SIGN, trunc_L),
                            dict(trunc_L=1.0), {"trunc_L": "trunc_L"}, False),
    "running_max_ensemble": (lambda trunc_L: float(running_max_ensemble(
        _SIGN, 3, 5, 1, trunc_L=trunc_L).max()), dict(trunc_L=1.0), {"trunc_L": "trunc_L"}, False),
    "rio_moment_check": (_rio, dict(k=3.0, sigma=1.0, trunc_L=1.0),
                         {"k": "k", "sigma": "sigma", "trunc_L": "trunc_L"}, False),
    "quantile_q": (lambda u: quantile_q(_SAMPLE, u), dict(u=0.1), {"u": "u"}, False),
    "cvar_q1": (lambda u: cvar_q1(_SAMPLE, u), dict(u=0.1), {"u": "u"}, False),
    "q_infinity": (lambda u: q_infinity(_SAMPLE, u), dict(u=0.1), {"u": "u"}, False),
    "clopper_pearson_upper": (lambda confidence: clopper_pearson_upper(1, 10, confidence),
                              dict(confidence=0.9), {"confidence": "confidence"}, False),
    "CampaignConfig": (_campaign, dict(D=1.0), {"D": "D"}, False),
    "CampaignConfig-u": (lambda u: _campaign(D=1.0, u_grid=(u,)), dict(u=0.1),
                         {"u": "u_grid level"}, False),
    "crossover_scan": (lambda **kw: crossover_scan(MomentProfile(100.0, 1.0, 4.0), 1.0,
                                                   (kw["t_lo"], kw["t_hi"])),
                       dict(t_lo=1.0, t_hi=1e4), {"t_lo": "t_lo", "t_hi": "t_hi"}, False),
    "crossover_scan-D": (lambda D: crossover_scan(_UNIT, D, (1.0, 1e4)), dict(D=1.0), {"D": "D"},
                         False),
    "smoothness_certificate": (lambda check_D: smoothness_certificate(_R1, 10, 0, check_D),
                               dict(check_D=1.0), {"check_D": "check_D"}, True),
}

_ENTRIES |= {f"cli {argv[0]}{suffix}{' --config' * config}": (_cli(*argv, config=config), valid,
                                                              names, False)
             for argv, suffix, valid, names in _CLI_RUNS for config in (False, True)}

_CASES = [(entry, param) for entry, spec in _ENTRIES.items() for param in spec[2]]


def _numbers(result):
    """The float fields of a result: itself, a tuple's items or a dataclass's
    fields, one level deep."""
    if result is None or isinstance(result, (bool, str)):
        return []
    if dataclasses.is_dataclass(result):
        return [v for v in vars(result).values() if isinstance(v, float)]
    if isinstance(result, tuple):
        return [v for v in result if isinstance(v, float)]
    return [float(result)]


def _keeps_the_contract(entry, param, value):
    call, valid, names, inf_documented = _ENTRIES[entry]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            result = call(**(valid | {param: value}))
        except (ValueError, TypeError) as exc:
            message = str(exc)
            aliases = (names[param],) if isinstance(names[param], str) else names[param]
            assert any(message.startswith(name) or f"{name} = " in message for name in aliases), \
                (entry, param, value, message)
            return
    for x in _numbers(result):
        assert not math.isnan(x) and (inf_documented or math.isfinite(x)), \
            (entry, param, value, result)


@pytest.mark.parametrize("entry, param", _CASES)
@settings(derandomize=True, max_examples=4, deadline=None)
@given(drawn=st.floats())
def test_every_real_parameter_refuses_with_its_name(entry, param, drawn):
    for value in _VALUES + (drawn,):
        _keeps_the_contract(entry, param, value)


@pytest.mark.parametrize("check, name, value", [
    (lambda v: checked_real(v, "x", least=0), "x", True),
    (lambda v: checked_real(v, "x", least=0), "x", np.True_),
    (checked_q, "q", True),
    (checked_q, "q", "a"),
    (checked_q, "q", None),
])
def test_a_bool_or_a_str_is_no_real_number(check, name, value):
    with pytest.raises(TypeError) as exc:
        check(value)
    assert str(exc.value) == f"{name} must be a real number, got {value!r}"
