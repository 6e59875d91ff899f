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
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InternalInconsistencyError, InvalidLevelError, checked_real


@dataclass(frozen=True)
class EmpiricalSample:
    """Finite sample with uniform weights 1/N, its values kept as a sorted
    (ascending) read-only float copy of those given; make_sample builds it.

    What cvar_q1 and q_infinity compute that does not depend on the level
    is computed on first use and kept, read-only, for as long as the sample
    lives: two float arrays of the sample's size (three for values so large
    that cvar_q1 sums them scaled) and a small table."""
    values: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.values, dtype=float)
        if arr.ndim != 1:
            raise ValueError(f"sample must be one-dimensional, got shape {arr.shape}")
        if arr.size == 0:
            raise ValueError("sample must be nonempty")
        arr = np.sort(arr)
        if not np.isfinite(arr).all():
            raise ValueError("sample must contain only finite values")
        arr.flags.writeable = False
        object.__setattr__(self, "values", arr)

    def __len__(self):
        return len(self.values)

    @cached_property
    def _scaled(self) -> tuple:
        """(s, s * values): s = 1 and the values themselves, unless 2 N max|X|,
        which bounds every sum and difference of sums that cvar_q1 forms,
        overflows; then s is the power of two that brings it below 2^1023.
        A power of two scales without rounding, so the sums of s * values
        are s times those of exact-exponent arithmetic."""
        x = self.values
        top = max(-float(x[0]), float(x[-1]))
        if 2.0 * len(x) * top <= sys.float_info.max:
            return 1.0, x
        s = math.ldexp(1.0, 1022 - math.frexp(top)[1] - len(x).bit_length())
        scaled = x * s
        scaled.flags.writeable = False
        return s, scaled

    @cached_property
    def _mean(self) -> float:
        """The sample mean: cvar_q1 and q_infinity at u = 1 both return it."""
        s, xs = self._scaled
        return float(xs.mean()) / s

    @cached_property
    def _cvar_terms(self) -> tuple:
        """(desc, excess) in the units of _scaled: the values in descending
        order, and at t = desc[j] the sum of (X - t)_+ over the sample,
        (sum of top j) - j * t."""
        desc = self._scaled[1][::-1]
        suffix = np.concatenate(([0.0], np.cumsum(desc)))  # sums of top-j values
        excess = suffix[:-1] - np.arange(len(desc), dtype=float) * desc
        excess.flags.writeable = False
        return desc, excess

    @cached_property
    def _chernoff(self) -> "_ChernoffTable":
        return _ChernoffTable(self.values)


def make_sample(values) -> EmpiricalSample:
    return EmpiricalSample(values=values)


def load_sample(path) -> EmpiricalSample:
    """Read a newline-delimited numeric file; '#' starts a comment.

    A line holds what float() accepts and maps to a finite value, once the
    comment and surrounding whitespace are removed; empty lines are
    skipped. numpy's C reader parses the file first: it accepts a subset
    of those lines (no underscores, non-ASCII digits or whitespace-only
    lines) and converts each with the function at the core of float(), so
    the bits are float()'s. Where it refuses the file, or reads more than
    one column or a value that is not finite, the file is read again line
    by line with float(), which names a bad line by path and number."""
    with open(path, encoding="utf-8") as handle:
        try:
            with warnings.catch_warnings():
                # an empty or comment-only file: make_sample words the refusal
                warnings.filterwarnings("ignore", "loadtxt: input contained no data",
                                        UserWarning)
                values = np.loadtxt(handle, dtype=float, comments="#",
                                    delimiter=",", ndmin=2)
        except ValueError:
            values = None
        # ndmin=2, since loadtxt squeezes a one-line file "1,2" to shape (2,)
        if values is not None and values.shape[1] == 1 and np.isfinite(values).all():
            values = values[:, 0]
        else:
            handle.seek(0)
            values = _parse_lines(handle, path)
    return make_sample(values)


def _parse_lines(handle, path) -> np.ndarray:
    """The values of a sample file, parsed line by line with float(); a
    ValueError names the first line float() rejects or reads as nan or an
    infinity."""
    values = []
    for lineno, line in enumerate(handle, start=1):
        text = line.partition("#")[0].strip()
        if not text:
            continue
        try:
            value = float(text)
        except ValueError:
            raise ValueError(f"{path}:{lineno}: not a number: {text!r}") from None
        if not math.isfinite(value):
            raise ValueError(f"{path}:{lineno}: not a finite number: {text!r}")
        values.append(value)
    return np.array(values, dtype=float)


def quantile_q(sample: EmpiricalSample, u: float) -> float:
    """Largest (1-u)-quantile under the empirical law.

    The empirical tail P[X > t] uses strict inequality, so the infimum is
    attained at the order statistic with index k = N + 1 - ceil(N u).
    """
    checked_real(u, "u", above=0, most=1, error=InvalidLevelError)
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
    checked_real(u, "u", above=0, most=1, error=InvalidLevelError)
    x = sample.values
    s, xs = sample._scaled
    n = len(x)
    m = math.ceil(n * u)
    m = min(max(m, 1), n)
    if u == 1.0:
        # the u = 1 limit of the Chernoff quantile is the same number, so
        # the ordering Q1 <= Qinf holds bitwise there
        value = max(sample._mean, float(x[0]))
    elif m == 1:
        # Q is the maximum on (0, u]; u times it would round at a subnormal u's scale
        value = float(x[-1])
    else:
        # full blocks of width 1/N for the top m-1 values, then a partial block
        integral = xs[n - m + 1:].sum() / n + (u - (m - 1) / n) * xs[n - m]
        # Q1 >= Q exactly; Q is pure indexing, so clamping only removes
        # the terminal rounding of the multiply-divide above
        value = max(float(integral / u) / s, float(x[n - m]))

    # variational cross-check, candidates are the data points
    desc, excess = sample._cvar_terms
    with np.errstate(over="ignore"):  # phi[0] = max is finite, and an inf is no minimum
        phi = desc + excess / (n * u)
    variational = float(phi.min()) / s
    if abs(value - variational) > 1e-9 * max(1.0, -float(x[0]), float(x[-1])):
        raise InternalInconsistencyError(
            f"CVaR forms disagree: integral {value} vs variational {variational}")
    return value


_LOG_TINY = math.log(sys.float_info.min)
# q_infinity's bracket t max|X| in [1e-8, 700], cut at 13 points of log t
_LOG_T_GRID = tuple(np.linspace(math.log(1e-8), math.log(700.0), 13).tolist())
_MAX_NEWTON_STEPS = 100


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
    cgf of X, the minimiser is the root of h(t) - log(1/u), where
    h(t) = t K'(t) - K(t) is increasing in t, with dh/dlog t = t^2 K''(t).
    The search runs on log t in the scale-free bracket t max|X| in
    [1e-8, 700]; where h - log(1/u) keeps one sign on it, the objective at
    the end nearer the minimiser is returned.

    h is tabulated lazily on 13 fixed points of log t across the bracket,
    and the table is kept with the sample and shared by every level.
    Bisecting it brackets the root between neighbouring points; Newton
    steps on log t follow, with a bisection step wherever a Newton step
    would leave the bracket. The search stops when a step is below
    1e-10 max(1, |log t|). The objective is stationary at the root, so its
    error is second order in the root's, and the last evaluation gives
    the value. Each evaluation takes E Z^k exp(tZ), k = 0, 1, 2, from
    numpy reductions that do not call BLAS, so a result depends only on
    the sample and u: not on the CPU or BLAS thread count, nor on the
    levels computed before it.

    The error is absolute, about 1e-16 max|X|, not relative: the value is
    formed as (t max + log E exp(t (X - max)) + log(1/u)) / t, whose terms
    cancel where Qinf is near zero against max|X|.
    """
    checked_real(u, "u", above=0, most=1, error=InvalidLevelError)
    x = sample.values
    xmax = float(x[-1])
    if x[0] == xmax:
        # degenerate law: objective is xmax + log(1/u)/t
        return QInfinityResult(value=xmax, attained=(u == 1.0),
                               t_star=1.0 if u == 1.0 else None)
    if u == 1.0:
        # objective decreases to the mean as t -> 0+
        return QInfinityResult(value=sample._mean, attained=False, t_star=None)
    table = sample._chernoff
    if u <= table.p_max:
        # objective decreases to xmax as t -> infinity
        return QInfinityResult(value=xmax, attained=False, t_star=None)

    log_inv_u = math.log(1.0 / u)
    point = table.root(log_inv_u)
    t = point.t
    value = table.scale * ((t * table.zmax + point.log_m0 + log_inv_u) / t)
    return QInfinityResult(value=value, attained=True, t_star=t / table.scale)


@dataclass(frozen=True)
class _CgfPoint:
    """h = t K'(t) - K(t) and dh = dh/dlog t = t^2 K''(t) at t = exp(log_t),
    with log_m0 = log E exp(tZ) = K(t)."""
    log_t: float
    t: float
    h: float
    dh: float
    log_m0: float


class _ChernoffTable:
    """The level-independent part of q_infinity for one non-degenerate
    ascending sample x.

    Values are in units of s = max|x|, so t s is the search variable and
    nothing in the bracket depends on the scale of the sample:
    z = x / s - max(x) / s is an ascending array <= 0 that contains 0.
    Rows of h on _LOG_T_GRID are evaluated on first use and kept; a row is
    a function of the sample and its grid index alone."""

    def __init__(self, x: np.ndarray):
        xmax = float(x[-1])
        self.scale = max(-float(x[0]), xmax)
        self.zmax = xmax / self.scale
        z = x / self.scale
        z -= self.zmax
        z.flags.writeable = False
        self.z = z
        self.p_max = float(np.count_nonzero(x == xmax)) / x.size
        self._rows = {}

    def point(self, log_t: float) -> _CgfPoint:
        t, m0, m1, m2 = _exp_moments(self.z, log_t)
        mean, log_m0 = m1 / m0, math.log(m0)
        return _CgfPoint(log_t=log_t, t=t, h=t * mean - log_m0,
                         dh=t * t * (m2 / m0 - mean * mean), log_m0=log_m0)

    def row(self, i: int) -> _CgfPoint:
        if i not in self._rows:
            self._rows[i] = self.point(_LOG_T_GRID[i])
        return self._rows[i]

    def root(self, level: float) -> _CgfPoint:
        """The point where h crosses level, or the bracket end nearer it."""
        lo, hi = 0, len(_LOG_T_GRID) - 1
        a, b = self.row(lo), self.row(hi)
        if a.h >= level:
            return a
        if b.h <= level:
            return b
        while hi - lo > 1:
            mid = (lo + hi) // 2
            p = self.row(mid)
            if p.h < level:
                lo, a = mid, p
            else:
                hi, b = mid, p
        # h(a) < level <= h(b); Newton from the end nearer the root
        p = a if level - a.h < b.h - level else b
        left, right = a.log_t, b.log_t
        for _ in range(_MAX_NEWTON_STEPS):  # each step narrows (left, right)
            f = p.h - level
            if f == 0.0:
                break
            if f < 0.0:
                left = p.log_t
            else:
                right = p.log_t
            step = -f / p.dh if p.dh > 0.0 else math.inf
            nxt = p.log_t + step
            if not left < nxt < right:
                nxt = 0.5 * (left + right)
            if abs(nxt - p.log_t) <= 1e-10 * max(1.0, abs(p.log_t)):
                break
            p = self.point(nxt)
        return p


def _exp_moments(z: np.ndarray, log_t: float) -> tuple:
    """(t, E exp(t Z), E Z exp(t Z), E Z^2 exp(t Z)) at t = exp(log_t), for
    an ascending sample z <= 0 of Z that contains 0.

    Terms below the smallest normal float are left out: beside the term
    exp(0) = 1 they are lost to rounding, and exp is many times slower
    where its result is subnormal. The sums are numpy's own reductions,
    never BLAS, whose threaded dot products round differently with the
    thread count."""
    t = math.exp(log_t)
    tail = z[np.searchsorted(z, _LOG_TINY / t):]
    w = t * tail
    np.exp(w, out=w)
    m0 = float(np.add.reduce(w))
    m1 = float(np.einsum("i,i->", w, tail))
    w *= tail
    m2 = float(np.einsum("i,i->", w, tail))
    return t, m0 / z.size, m1 / z.size, m2 / z.size


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
