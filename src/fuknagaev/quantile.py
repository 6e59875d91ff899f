"""Quantile-function calculus on empirical samples.

Three nested quantile functionals of a real random variable X drive the
tail analysis:

    Q(u)      largest (1-u)-quantile,  inf{t : P[X > t] < u}
    Q1(u)     conditional value-at-risk, (1/u) * integral_0^u Q(s) ds
    Qinf(u)   Chernoff quantile, inf_{t>0} t^-1 log(E exp(tX) / u)

and Q <= Q1 <= Qinf pointwise. On an empirical law with N equally weighted
atoms everything is exact: Q(u) is the order statistic x_(N+1-ceil(N u)),
Q1(u) is a weighted average of the top order statistics, and Qinf is a
one-dimensional convex minimization.
"""

import math
import sys
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

from .errors import InternalInconsistencyError, InvalidLevelError


@dataclass(frozen=True)
class EmpiricalSample:
    """Sorted (ascending) finite sample with uniform weights 1/N."""
    values: np.ndarray

    def __len__(self):
        return len(self.values)


def make_sample(values) -> EmpiricalSample:
    arr = np.sort(np.asarray(values, dtype=float))
    if arr.size == 0:
        raise ValueError("sample must be nonempty")
    if not np.isfinite(arr).all():
        raise ValueError("sample must contain only finite values")
    arr.flags.writeable = False
    return EmpiricalSample(values=arr)


def load_sample(path) -> EmpiricalSample:
    """Read a newline-delimited numeric file; '#' starts a comment."""
    vals = []
    with open(path, encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            text = line.split("#", 1)[0].strip()
            if not text:
                continue
            try:
                vals.append(float(text))
            except ValueError:
                raise ValueError(f"{path}:{lineno}: not a number: {text!r}") from None
    return make_sample(vals)


def _check_u(u: float):
    if not 0.0 < u <= 1.0:
        raise InvalidLevelError(f"u must lie in (0, 1], got {u}")


def quantile_q(sample: EmpiricalSample, u: float) -> float:
    """Largest (1-u)-quantile under the empirical law.

    The empirical tail P[X > t] uses strict inequality, so the infimum is
    attained at the order statistic with index k = N + 1 - ceil(N u).
    """
    _check_u(u)
    n = len(sample)
    k = n + 1 - math.ceil(n * u)
    k = min(max(k, 1), n)
    return float(sample.values[k - 1])


def cvar_q1(sample: EmpiricalSample, u: float) -> float:
    """Integrated quantile function (1/u) * integral_0^u Q(s) ds.

    Computed exactly as a weighted sum of the top order statistics, then
    cross-checked against the variational form inf_t { t + E(X-t)_+ / u };
    the two agree for every discrete law, so a disagreement beyond 1e-9
    times max(1, max|X|) raises InternalInconsistencyError.
    """
    _check_u(u)
    x = sample.values
    n = len(x)
    m = math.ceil(n * u)
    m = min(max(m, 1), n)
    if u == 1.0:
        # same expression as the u = 1 limit of the Chernoff quantile, so
        # the ordering Q1 <= Qinf holds bitwise there
        value = max(float(x.mean()), float(x[0]))
    else:
        # full blocks of width 1/N for the top m-1 values, then a partial block
        top_full = x[n - m + 1:] if m > 1 else x[:0]
        integral = top_full.sum() / n + (u - (m - 1) / n) * x[n - m]
        # Q1 >= Q exactly; Q is pure indexing, so clamping only removes
        # the terminal rounding of the multiply-divide above
        value = max(float(integral / u), float(x[n - m]))

    # variational cross-check, candidates are the data points
    desc = x[::-1]
    suffix = np.concatenate(([0.0], np.cumsum(desc)))  # sums of top-j values
    j = np.arange(n, dtype=float)
    # at t = j-th largest value: E(X - t)_+ = (sum of top j) - j * t
    phi = desc + (suffix[:-1] - j * desc) / (n * u)
    variational = float(phi.min())
    if abs(value - variational) > 1e-9 * max(1.0, -float(x[0]), float(x[-1])):
        raise InternalInconsistencyError(
            f"CVaR forms disagree: integral {value} vs variational {variational}")
    return value


_LOG_TINY = math.log(sys.float_info.min)


@dataclass(frozen=True)
class QInfinityResult:
    value: float
    attained: bool
    t_star: float | None


def q_infinity(sample: EmpiricalSample, u: float) -> QInfinityResult:
    """Chernoff quantile inf_{t>0} t^-1 log(E exp(tX) / u).

    The infimum need not be attained: it is the mean as t -> 0+ when u = 1,
    and the sample maximum as t -> infinity when u <= P[X = max]. Those
    limits are returned exactly with attained=False. Otherwise, with K the
    cgf of X, the minimiser is the root of g(t) = t K'(t) - K(t) - log(1/u),
    which is increasing in t. brentq finds it on log t in the scale-free
    bracket t max|X| in [1e-8, 700]; where g keeps one sign on the bracket,
    the objective at the end nearer the minimiser is returned.

    The error is absolute, about 1e-16 max|X|, not relative: the value is
    formed as (t max + log E exp(t (X - max)) + log(1/u)) / t, whose terms
    cancel where Qinf is near zero against max|X|.
    """
    _check_u(u)
    x = sample.values
    n = len(x)
    xmax = float(x[-1])
    if x[0] == xmax:
        # degenerate law: objective is xmax + log(1/u)/t
        return QInfinityResult(value=xmax, attained=(u == 1.0),
                               t_star=1.0 if u == 1.0 else None)
    if u == 1.0:
        # objective decreases to the mean as t -> 0+
        return QInfinityResult(value=float(x.mean()), attained=False, t_star=None)
    p_max = float((x == xmax).sum()) / n
    if u <= p_max:
        # objective decreases to xmax as t -> infinity
        return QInfinityResult(value=xmax, attained=False, t_star=None)

    # in units of s = max|X|, so t s is the search variable and nothing
    # in the bracket depends on the scale of the sample
    log_inv_u = math.log(1.0 / u)
    scale = max(-float(x[0]), xmax)
    zmax = xmax / scale
    z = x / scale
    z -= zmax
    lo, hi = math.log(1e-8), math.log(700.0)
    if _stationarity(lo, z, log_inv_u) >= 0.0:
        log_t = lo
    elif _stationarity(hi, z, log_inv_u) <= 0.0:
        log_t = hi
    else:
        # the data go in as arguments: brentq keeps its function in a
        # reference cycle, which would hold a closure's array until gc runs
        log_t = brentq(_stationarity, lo, hi, args=(z, log_inv_u))
    t, m0, _ = _exp_moments(z, log_t)
    value = scale * ((t * zmax + math.log(m0) + log_inv_u) / t)
    return QInfinityResult(value=value, attained=True, t_star=t / scale)


def _exp_moments(z: np.ndarray, log_t: float) -> tuple:
    """(t, E exp(t Z), E Z exp(t Z)) at t = exp(log_t), for an ascending
    sample z <= 0 of Z that contains 0.

    Terms below the smallest normal float are left out: beside the term
    exp(0) = 1 they are lost to rounding, and exp is many times slower
    where its result is subnormal."""
    t = math.exp(log_t)
    tail = z[np.searchsorted(z, _LOG_TINY / t):]
    w = t * tail
    np.exp(w, out=w)
    return t, float(w.sum()) / z.size, float(w @ tail) / z.size


def _stationarity(log_t: float, z: np.ndarray, log_inv_u: float) -> float:
    """t K'(t) - K(t) - log(1/u) at t = exp(log_t), K the cgf of Z."""
    t, m0, m1 = _exp_moments(z, log_t)
    return t * m1 / m0 - math.log(m0) - log_inv_u


@dataclass(frozen=True)
class QuantileTriple:
    q: float
    q1: float
    qinf: float


def quantile_triple(sample: EmpiricalSample, u: float) -> QuantileTriple:
    """All three quantile functionals at one level, ordered q <= q1 <= qinf.

    The Chernoff value dominates the CVaR in exact arithmetic; the clamp
    only removes terminal rounding in the near-equality cases."""
    return _ordered_triple(sample, u, q_infinity(sample, u).value)


def _ordered_triple(sample: EmpiricalSample, u: float, qinf: float) -> QuantileTriple:
    q1 = cvar_q1(sample, u)
    return QuantileTriple(q=quantile_q(sample, u), q1=q1, qinf=max(qinf, q1))


def q_not_subadditive_example() -> dict:
    """Stored counterexample: the plain quantile Q is not subadditive.

    On three equally likely outcomes, X = (0, 0, 3) and Y = (0, 3, 0) give
    Q_X(0.4) = Q_Y(0.4) = 0 while Q_{X+Y}(0.4) = 3.
    """
    x = make_sample([0.0, 0.0, 3.0])
    y = make_sample([0.0, 3.0, 0.0])
    s = make_sample([0.0, 3.0, 3.0])
    u = 0.4
    return {
        "u": u,
        "x_outcomes": (0.0, 0.0, 3.0),
        "y_outcomes": (0.0, 3.0, 0.0),
        "q_x": quantile_q(x, u),
        "q_y": quantile_q(y, u),
        "q_sum": quantile_q(s, u),
    }


@dataclass(frozen=True)
class LemmaSuiteReport:
    ordering_ok: bool
    monotonicity_ok: bool
    subadditive_q1_ok: bool
    subadditive_qinf_ok: bool
    chernoff_ok: bool
    submartingale_ok: bool
    counterexample: dict
    counterexample_strict: bool

    @property
    def all_ok(self) -> bool:
        return (self.ordering_ok and self.monotonicity_ok
                and self.subadditive_q1_ok and self.subadditive_qinf_ok
                and self.chernoff_ok and self.submartingale_ok
                and self.counterexample_strict)


def _enumerated_walk(n: int):
    """Exact laws of the running max and final value of |sign walk| of
    length n: all 2^n equiprobable paths."""
    steps = np.array(np.meshgrid(*([[-1.0, 1.0]] * n), indexing="ij"))
    paths = steps.reshape(n, -1).T  # (2^n, n)
    sums = np.abs(np.cumsum(paths, axis=1))
    return make_sample(sums.max(axis=1)), make_sample(sums[:, -1])


def quantile_lemma_suite(sample_pairs, u_grid) -> LemmaSuiteReport:
    """Check the quantile-function lemmas on coupled sample pairs.

    Pairs are coupled by index (entry i of X and of Y belong to the same
    outcome), which is what subadditivity of Q1 and Qinf is about. The
    monotonicity check compares X against the pointwise maximum of the
    pair. The submartingale inequality Q_{S*} <= Q1_{S_n} is checked on the
    exactly enumerated |sign walk| of length 10, and the stored
    counterexample shows that the plain Q has no subadditivity.
    """
    u_grid = list(u_grid)
    if not u_grid:
        raise ValueError("u grid must be nonempty")
    ordering = True
    monotone = True
    sub_q1 = True
    sub_qinf = True
    chernoff = True
    for raw_x, raw_y in sample_pairs:
        vx = np.asarray(raw_x, dtype=float)
        vy = np.asarray(raw_y, dtype=float)
        if vx.shape != vy.shape:
            raise ValueError("coupled samples must have equal length")
        sx, sy = make_sample(vx), make_sample(vy)
        ssum = make_sample(vx + vy)
        supper = make_sample(np.maximum(vx, vy))
        for u in u_grid:
            qinf = [q_infinity(s, u).value for s in (sx, sy, ssum)]
            trips = [_ordered_triple(s, u, v) for s, v in zip((sx, sy, ssum), qinf)]
            ordering &= all(t.q <= t.q1 <= t.qinf for t in trips)
            monotone &= quantile_q(sx, u) <= quantile_q(supper, u)
            sub_q1 &= trips[2].q1 <= trips[0].q1 + trips[1].q1 + 1e-12
            sub_qinf &= qinf[2] <= qinf[0] + qinf[1] + 1e-12
            for raw, thresh in ((vx, qinf[0]), (vy, qinf[1])):
                chernoff &= float((raw > thresh).mean()) <= u

    walk_max, walk_final = _enumerated_walk(10)
    submart = all(quantile_q(walk_max, u) <= cvar_q1(walk_final, u) + 1e-12
                  for u in u_grid)

    ce = q_not_subadditive_example()
    return LemmaSuiteReport(
        ordering_ok=bool(ordering),
        monotonicity_ok=bool(monotone),
        subadditive_q1_ok=bool(sub_q1),
        subadditive_qinf_ok=bool(sub_qinf),
        chernoff_ok=bool(chernoff),
        submartingale_ok=bool(submart),
        counterexample=ce,
        counterexample_strict=bool(ce["q_sum"] > ce["q_x"] + ce["q_y"]),
    )
