"""Inverse Legendre transform engine and the truncated-cgf pieces behind the
martingale confidence bound, plus a numeric re-derivation of the constant.

For a convex psi >= 0 with psi(0) = 0 the inverse Legendre transform is

    T[psi](x) = inf_{t>0} (psi(t) + x) / t ,

which turns a cumulant-generating-function bound into a quantile bound. The
cgf of the truncated martingale norm is controlled by D^2 (l0 + l1 + l2)
with

    l0(t) = sigma^2 t^2 / 2
    l1(t) = sum over integers 2 < k < q of sigma^(2(q-k)/(q-2)) t^k / k!
    l2(t) = L^-q psi_q(L t),     psi_q(t) = sum_{k >= q} t^k / k!

under normalized moment assumptions (C_q = 1). proof_chain() re-derives the
final constant by bounding T of each combination of pieces numerically and
comparing against the closed-form step bounds.
"""

import math
from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.special import gammainc

from .bounds import _two_over
from .errors import _LOG_MAX, DomainError, checked_q, checked_real

_E = math.e

_LOG_T_SCAN = np.linspace(-46.0, 46.0, 185)  # t from ~1e-20 to ~1e20
_T_SCAN = np.exp(_LOG_T_SCAN)
_LOG_T_LIMIT = 700.0  # how far an edge argmin extends the scan: e^700 ~ 1e304
# a zoom shrinks the bracket 64-fold; 8 take it below 4e-15, past float resolution
_ZOOM_STEPS = np.linspace(0.0, 1.0, 129)
_MAX_ZOOMS = 8
_REL_TOL = 1e-10  # a zoom stops at a bracket this narrow relative to its midpoint


def psi_tail(q: float, t):
    """Tail of the exponential series: sum of t^k / k! over integers k >= q,
    for a finite q > 0, elementwise on a scalar or an array of t >= 0.

    For non-integer q the sum starts at ceil(q). Computed in closed form as
    exp(t) P(ceil(q), t), with P the regularized lower incomplete gamma
    function, so there is no cancellation. Where exp(t) overflows
    (t > ~709.78) the value is not finite.
    """
    t = np.asarray(t, dtype=float)
    if not (t >= 0).all():  # nan too
        raise ValueError(f"t must be >= 0, got {t.min()}")
    checked_real(q, "q", above=0)
    with np.errstate(over="ignore", invalid="ignore"):
        return np.exp(t) * gammainc(math.ceil(q), t)


@dataclass(frozen=True)
class CgfPieces:
    """Closures l0, l1, l2 for given (q, sigma, L), on a scalar or an array
    of t; l1 is zero when no integer lies strictly between 2 and q. Takes q
    finite and > 2, sigma finite and >= 0 and L finite and > 0, as floats."""
    q: float
    sigma: float
    trunc_L: float

    def __post_init__(self):
        object.__setattr__(self, "q", checked_q(self.q))
        object.__setattr__(self, "sigma", float(checked_real(self.sigma, "sigma", least=0)))
        object.__setattr__(self, "trunc_L", float(checked_real(self.trunc_L, "trunc_L", above=0)))

    @cached_property
    def ell1_orders(self) -> tuple:
        return tuple(k for k in range(3, math.ceil(self.q)) if k < self.q)

    @cached_property
    def _ell1_terms(self) -> tuple:
        """(k, sigma^(2(q-k)/(q-2)), k!) for each order k of l1."""
        q, s = self.q, self.sigma
        return tuple((k, s ** (2.0 * (q - k) / (q - 2.0)), math.factorial(k))
                     for k in self.ell1_orders)

    def ell0(self, t):
        return (self.sigma * t) ** 2 / 2.0  # sigma^2 alone is subnormal below ~1e-154

    def ell1(self, t):
        return sum((c * t ** k / f for k, c, f in self._ell1_terms),
                   np.zeros_like(t, dtype=float))

    def ell2(self, t):
        L = self.trunc_L
        return L ** (-self.q) * psi_tail(self.q, L * t)


cgf_pieces = CgfPieces  # the checked constructor, under its function name


def _objective(psi, x: float, rows: np.ndarray, t: np.ndarray) -> np.ndarray:
    """(psi(t, rows) + x) / t; non-finite psi entries, and all entries of a
    call that raises OverflowError or ValueError, read +inf."""
    with np.errstate(all="ignore"):
        try:
            v = psi(t, rows)
        except (OverflowError, ValueError):
            return np.full(t.shape, np.inf)
        return np.where(np.isfinite(v), (v + x) / t, np.inf)


def _search(psi, x: float, lanes: int) -> list:
    """inf over t > 0 of (psi_i(t) + x) / t for each lane i, in lock-step.

    psi(t, rows) receives a (len(rows), k) array whose row j holds values of
    t for lane rows[j], and returns values of that shape (or broadcastable
    to it). One call covers the fixed log-t scan for every lane. While a
    lane's best point is the first or last one, the minimum may lie beyond
    the scan, so one more call for that lane alone extends it outward by
    the scan's width, up to |log t| = 700. Each zoom then calls psi once on
    129 evenly spaced log t in the bracket of every lane still zooming, and
    narrows each bracket to the neighbours of its best point. A lane stops
    when its bracket's width is at most _REL_TOL = 1e-10 times the midpoint
    magnitude, so it ends with the bits a one-lane search gives. The best
    value each lane saw is returned. A lane finite nowhere on the scan extends
    it toward t = 0, and raises a DomainError if finite nowhere up to e^-700.
    """
    rows = np.arange(lanes)
    scan = _objective(psi, x, rows, np.tile(_T_SCAN, (lanes, 1)))
    best, a, b = [], [], []
    for lane in rows:
        log_t, vals = _LOG_T_SCAN, scan[lane]
        i = int(np.argmin(vals))  # 0 where psi is finite nowhere: it is finite near t = 0
        while i in (0, log_t.size - 1) and abs(log_t[i]) < _LOG_T_LIMIT:
            edge = log_t[i]
            end = math.copysign(min(abs(edge) + np.ptp(_LOG_T_SCAN), _LOG_T_LIMIT), edge)
            more = np.linspace(edge, end, _LOG_T_SCAN.size)[1:]
            log_t = np.concatenate([log_t, more])
            vals = np.concatenate([vals, _objective(psi, x, rows[lane:lane + 1],
                                                    np.exp(more)[None])[0]])
            order = np.argsort(log_t)
            log_t, vals = log_t[order], vals[order]
            i = int(np.argmin(vals))
        if not vals[i] < math.inf:
            raise DomainError("objective not finite anywhere in the bracket")
        best.append(float(vals[i]))
        a.append(float(log_t[max(i - 1, 0)]))
        b.append(float(log_t[min(i + 1, log_t.size - 1)]))
    last = _ZOOM_STEPS.size - 1
    for _ in range(_MAX_ZOOMS):
        live = [k for k in range(lanes)
                if not b[k] - a[k] <= _REL_TOL * (abs(a[k]) + abs(b[k])) / 2 + 1e-300]
        if not live:
            break
        lo = np.array([a[k] for k in live])[:, None]
        log_t = lo + (np.array([b[k] for k in live])[:, None] - lo) * _ZOOM_STEPS
        vals = _objective(psi, x, np.array(live), np.exp(log_t))
        j = np.argmin(vals, axis=1)
        at = np.arange(len(live))
        for k, v, left, right in zip(live, vals[at, j].tolist(),
                                     log_t[at, np.maximum(j - 1, 0)].tolist(),
                                     log_t[at, np.minimum(j + 1, last)].tolist()):
            best[k], a[k], b[k] = min(best[k], v), left, right
    return best


def inverse_legendre(psi, x: float) -> float:
    """inf over t > 0 of (psi(t) + x) / t. Monotone in x and subadditive in psi.

    psi receives a 1-D ndarray of t and returns an array of its shape or a
    scalar. One call on the fixed log-t scan brackets the best scan point.
    While that point is the first or last one, the minimum may lie beyond
    the scan, so one more call extends it outward by the scan's width, up
    to |log t| = 700. Each zoom then calls psi on 129 evenly spaced log t
    in the bracket and narrows it to the neighbours of the best one, until
    its width is at most 1e-10 times the midpoint magnitude. The best
    value seen is returned, so boundary infima (x = 0, or psi flat) come
    out as the best value at |log t| = 700. If psi is finite nowhere on the
    scan, nor toward t = 0 up to e^-700, a DomainError is raised.
    """
    checked_real(x, "x", least=0)
    return _search(lambda t, rows: psi(t[0]), x, 1)[0]


def quadratic_closed_form(sigma: float, D: float, x: float) -> float:
    """Exact T[D^2 l0](x) = sqrt(2 x) D sigma for the quadratic piece."""
    checked_real(sigma, "sigma", least=0)
    checked_real(D, "D", least=1)
    checked_real(x, "x", least=0)
    return math.sqrt(2.0 * x) * D * sigma


def bercu_infimum(c: float, v: float, x: float) -> float:
    """Closed form of inf over 0 < t < 1/c of v t / (2 (1 - c t)) + x / t,
    namely c x + sqrt(2 x v)."""
    checked_real(c, "c", above=0)
    checked_real(x, "x", above=0)
    checked_real(v, "v", least=0)
    return c * x + math.sqrt(2.0 * x * v)


@dataclass(frozen=True)
class CheckResult:
    lhs: float
    rhs: float
    passed: bool


def log_poly_check(x: float, q: float) -> CheckResult:
    """log(x) <= (q/e) x^(1/q) for all x, q > 0, with equality at x = e^q; the
    right side reads inf where x^(1/q) overflows."""
    checked_real(x, "x", above=0)
    checked_real(q, "q", above=0)
    lhs = math.log(x)
    rhs = (q / _E) * x ** (1.0 / q) if lhs < _LOG_MAX * q else math.inf
    return CheckResult(lhs=lhs, rhs=rhs, passed=bool(lhs <= rhs * (1 + 1e-12) + 1e-300))


def rio36_check(q: float, x: float) -> CheckResult:
    """psi_q(x) / x <= exp(x) * min(1/q, 1/5) at the given point, decided with
    e^x divided out; a side past the float range reads inf."""
    checked_q(q)
    checked_real(x, "x", above=0)
    ratio, m = gammainc(math.ceil(q), x) / x, min(1.0 / q, 0.2)
    e = math.exp(x) if x <= _LOG_MAX else math.inf
    return CheckResult(lhs=e * ratio, rhs=e * m, passed=bool(ratio <= m * (1 + 1e-12)))


def truncation_error_bound(q: float, u: float) -> float:
    """CVaR bound on the truncation error under normalized assumptions with
    level L = (2/u)^(1/q): equals u^(-1/q) * 2^(1/q - 1)."""
    checked_q(q)
    checked_real(u, "u", above=0, below=1)
    return u ** (-1.0 / q) * 2.0 ** (1.0 / q - 1.0)


# the transforms of proof_chain, one search lane each, in an order where
# l_p is summed by lanes p to p + 2, so that in any sorted subset of lanes
# the rows that use one piece are contiguous
_TRANSFORMS = ("ell0", "ell0+ell1", "combined", "ell1+ell2", "ell2")


@dataclass(frozen=True)
class ProofStep:
    name: str
    lhs: float
    rhs: float
    passed: bool
    note: str = ""


@dataclass(frozen=True)
class ProofChainReport:
    q: float
    D: float
    sigma: float
    u: float
    x_hat: float
    trunc_L: float
    alpha_qD: float
    steps: tuple
    final_coefficient: float

    @property
    def all_passed(self) -> bool:
        return all(s.passed for s in self.steps)

    @property
    def failing_steps(self) -> tuple:
        return tuple(s.name for s in self.steps if not s.passed)


def _step(name, lhs, rhs, note="", rel=1e-9):
    return ProofStep(name=name, lhs=float(lhs), rhs=float(rhs),
                     passed=bool(lhs <= rhs + rel * abs(rhs)), note=note)


def proof_chain(q: float, D: float, sigma: float, u: float) -> ProofChainReport:
    """Numeric walk through the constant derivation at one parameter point.

    Under normalized assumptions (C_q = 1) with x_hat = log(2/u) and
    truncation level L = (2/u)^(1/q), checks that

      ell2     : T[D^2 l2](x_hat)        <= alpha * L,
                 alpha = D^2 min(1/q, 1/5) + 1
      ell0     : T[D^2 l0](x_hat)        == sqrt(2 x_hat) D sigma (1e-8 rel)
      combined : T[D^2(l0+l1+l2)](x_hat) <= the assembled closed-form bound
      and, for q > 3 where l1 is present,
      ell1+ell2: T[D^2(l1+l2)](x_hat)    <= alpha L + D^2 x_hat (e/3) l1(q/e)
      ell0+ell1: T[D^2(l0+l1)](x_hat)    <= s^(-2/(q-2)) x_hat / 3
                                             + sqrt(2 x_hat D^2 sigma^2)
      min-term : min(D^2 e l1(q/e), s^(-2/(q-2))) <= D^2 e

    The recorded final coefficient is the constant in front of (2/u)^(1/q)
    in the user-facing bound; it matches bounds.constant_c exactly.
    """
    checked_q(q)
    checked_real(D, "D", least=1)
    checked_real(sigma, "sigma", above=0)
    checked_real(u, "u", above=0, below=1)
    DD = D * D
    if not (DD < math.inf and sigma * sigma < math.inf):
        raise ValueError(f"D^2 or sigma^2 overflows at D = {D}, sigma = {sigma}")
    x_hat, L = _two_over(u, q)
    alpha = D * D * min(1.0 / q, 0.2) + 1.0
    pieces = cgf_pieces(q, sigma, L)
    if q > 3:
        try:
            s_geo = sigma ** (-2.0 / (q - 2.0))
        except OverflowError:
            raise ValueError(f"sigma^(-2/(q-2)) overflows at sigma = {sigma}") from None

    lane_ids = np.arange(5) if q > 3 else np.array([0, 2, 4])  # l1 = 0 for q <= 3
    terms = (pieces.ell0, pieces.ell1, pieces.ell2)

    def psi(t, rows):
        ids = lane_ids[rows].tolist()
        total = np.zeros_like(t)
        for p, piece in enumerate(terms):
            lo, hi = bisect_left(ids, p), bisect_left(ids, p + 3)
            if lo < hi:
                total[lo:hi] += piece(t[lo:hi])
        return DD * total

    lhs = dict(zip((_TRANSFORMS[i] for i in lane_ids), _search(psi, x_hat, lane_ids.size)))

    steps = [_step("ell2", lhs["ell2"], alpha * L)]
    closed = quadratic_closed_form(sigma, D, x_hat)
    steps.append(ProofStep(name="ell0", lhs=lhs["ell0"], rhs=closed,
                           passed=bool(abs(lhs["ell0"] - closed) <= 1e-8 * closed),
                           note="equality check"))
    if q <= 3:
        # no integer order between 2 and q, so l1 vanishes
        steps.append(_step("combined", lhs["combined"], closed + alpha * L,
                           note="l1 = 0 branch"))
    else:
        ell1_qe = pieces.ell1(q / _E)
        steps.append(_step("ell1+ell2", lhs["ell1+ell2"],
                           alpha * L + DD * x_hat * (_E / 3.0) * ell1_qe))
        steps.append(_step("ell0+ell1", lhs["ell0+ell1"],
                           bercu_infimum(s_geo / 3.0, DD * sigma * sigma, x_hat)))
        steps.append(_step("min-term", min(DD * _E * ell1_qe, s_geo), DD * _E))
        steps.append(_step("combined", lhs["combined"],
                           closed + alpha * L + DD * _E * x_hat / 3.0))

    final_coefficient = 1.0 / (2.0 * q) + min(1.0 / q, 0.2) + 1.0 \
        + (D * D * q / 3.0 if q > 3 else 0.0)
    # The raw assembly 1/(2q) + alpha + 1{q>3} D^2 q / 3 keeps D^2 on the
    # min term; the stated constant drops it, so the stated value never
    # exceeds the assembled one. Recorded for transparency.
    steps.append(_step("coefficient", final_coefficient,
                       1.0 / (2.0 * q) + alpha + (D * D * q / 3.0 if q > 3 else 0.0),
                       note="stated constant vs raw step assembly"))
    if 0.5 * math.log(2.0 * x_hat) - math.log(D * sigma) > _LOG_T_LIMIT:
        raise ValueError(f"the ell0 minimiser lies past t = e^700 at D = {D}, sigma = {sigma}")
    if not all(math.isfinite(s.lhs) and math.isfinite(s.rhs) for s in steps):
        raise ValueError(f"the proof chain overflows at q = {q}, D = {D}, sigma = {sigma}, u = {u}")

    return ProofChainReport(q=float(q), D=float(D), sigma=float(sigma), u=float(u),
                            x_hat=x_hat, trunc_L=L, alpha_qD=alpha,
                            steps=tuple(steps),
                            final_coefficient=final_coefficient)
