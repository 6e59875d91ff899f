"""Heavy-tailed increment samplers, martingale constructions, and the
exponential-moment / moment-interpolation checks they feed.

Increment laws are chosen so that the norm of an increment has a known
scalar distribution: the heavy-tailed kinds are radial (a scalar radius
times a direction uniform on the unit sphere of the space's norm), which
makes every summed conditional moment an exact analytic number and keeps
the verification campaigns free of estimator noise.
"""

import math
import operator
import os
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from numpy.random.bit_generator import ISeedSequence
from scipy.special import (betainc, gammainc, gammaincc, gammainccinv, gammaln, hyp1f1, logsumexp,
                           poch, stdtr, stdtrit)

from .errors import (_LOG_MAX, InfiniteMomentError, PreconditionError,
                     UnsupportedFunctionError, checked_count, checked_q, checked_real,
                     float_count)
from .spaces import SmoothSpace, make_euclidean

_BLOCK_VALUES = 1 << 16  # floats drawn per block of ensemble trials


@dataclass(frozen=True)
class IncrementDistribution:
    """Mean-zero increment law on a smooth space: ``kind`` names its row in
    _LAWS, which names ``param`` and bounds it."""
    kind: str
    space: SmoothSpace
    param: float

    def __post_init__(self):
        if self.kind not in _LAWS:
            raise ValueError(f"unknown increment kind {self.kind!r}")
        law = _LAWS[self.kind]
        checked_real(self.param, law.param, **{"least" if law.at_bound else "above": law.bound})


def symmetric_pareto(space: SmoothSpace, alpha: float) -> IncrementDistribution:
    """Radius U^(-1/alpha), U uniform(0,1), in a symmetric direction.

    E ||xi||^p = alpha / (alpha - p) for p < alpha. alpha > 2 keeps the
    variance finite.
    """
    return IncrementDistribution("symmetric_pareto", space, float(alpha))


def student_t(space: SmoothSpace, dof: float) -> IncrementDistribution:
    return IncrementDistribution("student_t", space, float(dof))


def rademacher(space: SmoothSpace, scale: float = 1.0) -> IncrementDistribution:
    return IncrementDistribution("rademacher_scale", space, float(scale))


def uniform_cube(space: SmoothSpace, half_width: float) -> IncrementDistribution:
    return IncrementDistribution("uniform_cube", space, float(half_width))


def gaussian(space: SmoothSpace, scale: float = 1.0) -> IncrementDistribution:
    return IncrementDistribution("gaussian", space, float(scale))


@dataclass(frozen=True)
class MomentProfile:
    """Summed conditional moment bounds (sigma^2, C_q^q, q) of a difference
    sequence; for iid increments sigma^2 = n E||xi||^2, C_q^q = n E||xi||^q.
    ``moment_profile`` computes both exactly, never by sampling.
    """
    sigma_sq: float
    cq_to_q: float
    q: float

    def __post_init__(self):
        checked_q(self.q)
        checked_real(self.sigma_sq, "sigma_sq", least=0)
        checked_real(self.cq_to_q, "cq_to_q", least=0)

    @property
    def sigma(self) -> float:
        return math.sqrt(self.sigma_sq)

    @property
    def cq(self) -> float:
        return self.cq_to_q ** (1.0 / self.q)

    @property
    def mc_errors(self) -> None:  # always None: no moment is a Monte Carlo estimate
        return None


_TRIAL_LIMIT = 1 << 247  # far inside the 256-bit counter, which advance() wraps


class _TrialSeed(ISeedSequence):
    """The seed of one trial: its 32 bytes are block ``trial`` of Philox(seed)."""

    def __init__(self, seed: int, trial: int):
        # as SeedSequence checks them: TypeError for a float, a str or np.bool_
        self.seed, self.trial = operator.index(seed), operator.index(trial)
        if self.seed < 0 or not 0 <= self.trial < _TRIAL_LIMIT:
            raise ValueError(f"seed and trial must be non-negative integers, the trial below "
                             f"2^247, got seed {self.seed}, trial {self.trial}")

    def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
        dtype = np.dtype(dtype)
        if dtype != np.uint32 and dtype != np.uint64:
            raise ValueError("only support uint32 or uint64")
        if not 0 <= operator.index(n_words) * dtype.itemsize <= 32:
            raise ValueError(f"a trial seed holds 32 bytes, got a request for {n_words} "
                             f"{dtype} words")
        bits = np.random.Philox(self.seed)
        bits.advance(self.trial)
        return bits.random_raw(4).view(dtype)[:n_words]


def trial_seed(seed: int, trial: int) -> ISeedSequence:
    """Seed of one trial or one block of trials, order-independent: its 32
    bytes, four uint64 words (or their eight uint32 views), are block
    ``trial`` of the stream of np.random.Philox(seed), that is
    np.random.Philox(seed).random_raw(4 * trial + 4)[4 * trial:]. Seed and
    trial are nonnegative integers, the trial below 2^247. Generators seeded
    with it do not spawn.

    Generator(Philox(trial_seed(seed, b))) draws block b of an ensemble;
    sample_increments(dist, n, trial_seed(seed, j)) returns trial j of it,
    a read-only row of that block, and takes no other seed."""
    return _TrialSeed(seed, trial)


def _draw(dist: IncrementDistribution, shape: tuple, rng, out=None, scratch=()) -> np.ndarray:
    """A shape + (d,) array of iid increments, drawn as the law's row says:
    its coordinates filled directly, or all normal directions first, then
    one radius per increment.

    Callers may pass float arrays of that shape: ``out`` for the increments
    (None: a fresh array), ``scratch`` for the radial laws' norms. The cube
    law draws a fresh array, as numpy's uniform takes no output."""
    law, full = _LAWS[dist.kind], shape + (dist.space.dimension,)
    if law.radius is None:
        return law.coords(rng, full, dist.param, out)
    xi = rng.standard_normal(full, out=out)
    radius = law.radius(rng, shape, dist.param)
    if not law.signed_radius:  # the radius times a direction uniform on the unit sphere
        return dist.space._unit(xi, radius, *scratch)
    dist.space._unit(xi, None, *scratch)  # _unit's copysign in R^1 would drop the radius's sign
    xi *= radius
    return xi


def _block_size(n: int, d: int) -> int:
    """B = max(1, 2^16 // (n d)): the trials of one ensemble block of paths
    of n increments in R^d."""
    return max(1, _BLOCK_VALUES // (n * d))


def _empty(shape: tuple, n: int, d: int, trials=None) -> np.ndarray:
    """np.empty(shape) for n increments in R^d, or for trials paths of them;
    ValueError names those counts where numpy refuses it: a MemoryError, or a
    ValueError for a shape past its largest."""
    try:
        return np.empty(shape)
    except (MemoryError, ValueError):
        paths = "" if trials is None else f"trials = {trials} paths of "
        raise ValueError(f"{paths}n = {n} increments in R^{d} do not fit in memory") from None


_last_block = None  # sample_increments's last block: (law, (n, seed, block), read-only rows)


def sample_increments(dist: IncrementDistribution, n: int, seed) -> np.ndarray:
    """Trial j of the ensemble of seed s, for seed = trial_seed(s, j): n iid
    mean-zero increments as the rows of a read-only (n, d) array, row j % B
    of block b = j // B, with B = max(1, 2^16 // (n d)). They are the rows
    that truncated_ensemble(dist, n, J, s, math.inf)[j] holds and whose path
    gives running_max_ensemble(dist, n, J, s)[j], for any J > j; any other
    seed raises TypeError. The process keeps the block it drew last, at most
    2^16 floats (512 KB) unless one trial holds more, and returns a view of
    its row, which later calls share: consecutive trials draw each block
    once, a trial of another block draws all of its block. Threads need no
    lock: a call reads its row from the block it found or drew."""
    global _last_block
    n = checked_count(n, "n")
    if not isinstance(seed, _TrialSeed):
        raise TypeError(f"seed must be a trial_seed(seed, trial), got {type(seed).__name__}")
    d = dist.space.dimension
    size = _block_size(n, d)
    b, row = divmod(seed.trial, size)
    last, key = _last_block, (n, seed.seed, b)
    # the law by identity: Gaussian scales 0.0 and -0.0 are equal, their zeros' signs not
    if last is None or last[0] is not dist or last[1] != key:
        last = _last_block = None  # dropped before the draw, and a failed draw keeps none
        rng = np.random.Generator(np.random.Philox(trial_seed(seed.seed, b)))
        rows = _draw(dist, (size, n), rng, _empty((size, n, d), n, d))
        rows.flags.writeable = False
        last = _last_block = (dist, key, rows)
    return last[2][row]


def _paths(xi: np.ndarray, space: SmoothSpace, scratch=()) -> tuple:
    """Partial sums, norms and running maxima (0 if empty) of (trials, n, d)
    paths. The partial sums overwrite xi, which callers own; ``scratch`` is
    passed to the norms."""
    sums = np.cumsum(xi, axis=1, out=xi)
    norms = space._norms(sums, scratch)
    return sums, norms, norms.max(axis=1, initial=0.0)


def _kept(norms: np.ndarray, level: float) -> np.ndarray:
    """The indicator 1{||xi|| <= L} of the truncation at level L, up to a
    relative 1e-12: the computed norm of a unit direction may round a few
    ulp above 1, and a law of norm L must keep all its increments at L."""
    return norms <= level * (1.0 + 1e-12)


def _truncation_level(trunc_L) -> float:
    """A truncation level L in (0, inf] as a float; inf truncates nothing."""
    return float(checked_real(trunc_L, "trunc_L", above=0, most=math.inf))


# ---------------------------------------------------------------------------
# moments of ||xi||

def _log_chi_moment(d: int, p: float) -> float:
    """log E ||N||^p for a standard normal N in R^d (the chi(d) law)."""
    return 0.5 * p * math.log(2.0) + gammaln((d + p) / 2) - gammaln(d / 2)


def _uniform_powers(p: float, m: int, k: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """log a_k(lam) = log E[X^k e^(-lam X)] for X = U^p, U uniform(0, 1), as
    Gamma(s) P(s, lam) lam^-s / p, s = k + 1/p, in Kummer's form below s."""
    s = k + 1.0 / p
    lo, hi = np.minimum(lam, s), np.maximum(lam, s)
    return np.where(lam < s, np.log(hyp1f1(1.0, s + 1.0, lo) / (p * s)) - lo,
                    gammaln(s) + np.log(gammainc(s, hi) / p) - s * np.log(hi))


def _normal_powers(p: float, m: int, k: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """log a_k(lam) = log E[X^k e^(-lam X)] for X = |N|^p: x = c y with
    c = (1 + lam)^(-1/p) and y^p = exp(t - e^-t); rows are divided by their
    lam = 0 values, exactly E|N|^(pk); 256 lam nodes a block."""
    t = np.arange(-math.log(40.0 * p) - 1.0, p * math.log(math.sqrt(p * m + 1.0) + 9.0),
                  min(0.12, 0.45 / math.sqrt(m)))
    log_y = (t - np.exp(-t)) / p
    log_c = -np.log1p(np.concatenate(([0.0], lam)))[:, None] / p
    sums = [np.exp(np.log1p(np.exp(-t)) + log_y + np.expm1(p * c) * np.exp(p * log_y)
                   - np.exp(2.0 * (c + log_y)) / 2.0) @ np.exp(p * k.T * log_y[:, None])
            for c in np.split(log_c, range(256, len(log_c), 256))]  # e^-(lam x^p + x^2/2)
    la = np.log(np.concatenate(sums)).T + (p * k + 1) * log_c.T
    return la[:, 1:] - la[:, :1] + _log_chi_moment(1, p * k)


def _product_norm_moment(dist: IncrementDistribution, order: float) -> float:
    """E ||xi||^order on l^p for a law whose d coordinates are iid, with the
    coordinate law of its row, for orders <= 64, p <= 32 and d <= 1e4
    (relative error below 1e-12 up to d = 64, growing like 1e-15 d). With
    X_i = |xi_i / a|^p, S = sum_i X_i, r = order / p and m = floor(r) + 2,

        E S^r = Gamma(m - r)^-1 int_0^inf lam^(m-r-1) E[S^m e^(-lam S)] dlam,

    where E[S^m e^(-lam S)] / m! is the x^m coefficient of
    (sum_k a_k(lam) x^k / k!)^d, a_k(lam) = E[X^k e^(-lam X)]. All in logs, by
    the trapezoid rule in log lam: the integrand is analytic for |Im| < pi/2.
    """
    p, d, h = dist.space.p, dist.space.dimension, 0.2  # h: the step in log lam
    if not (order <= 64 and p <= 32 and d <= 10_000):
        raise ValueError(f"{dist.kind} norm moments on l^p are computed for orders <= 64, "
                         f"p <= 32 and d <= 10000, got order {order:g}, p = {p:g}, d = {d}")
    log_ex, log_powers = _LAWS[dist.kind].coordinate
    r, m = order / p, math.floor(order / p) + 2
    # grid ends below e^-42 E S^r: E S^m <= d^m E X^m, P(S < s) <= s^(d/p), E S^r >= E X^r
    u = np.arange((log_ex(order) - log_ex(p * m) - m * math.log(d) - 42.0) / (m - r),
                  (42.0 - log_ex(order)) / (r + d / p) + 4.0, h)
    k, lam = np.arange(m + 1.0)[:, None], np.exp(u)
    la = log_powers(p, m, k, lam)
    log_s = la[1] - la[0]  # x is scaled by the tilted mean of X
    coef = _series_power(np.exp(la - la[0] - gammaln(k + 1) - k * log_s), d)[m]
    log_f = (m - r) * u + gammaln(m + 1) + d * la[0] + m * log_s + np.log(coef)
    return math.exp(order * math.log(dist.param) + logsumexp(log_f) + math.log(h) - gammaln(m - r))


def _series_power(b: np.ndarray, d: int) -> np.ndarray:
    """Rows 0..m of (sum_k b[k] x^k)^d by squaring; all terms are positive."""
    if d == 1:
        return b
    power = _series_power(b, d // 2)
    for factor in (power, b)[:1 + d % 2]:
        power = np.stack([(power[:j + 1] * factor[j::-1]).sum(axis=0) for j in range(len(b))])
    return power


def norm_moment(dist: IncrementDistribution, p: float) -> float:
    """E ||xi||^p: the moment of the norm law, else the row's closed form, else
    _product_norm_moment; inf on overflow."""
    checked_real(p, "moment order p", least=0)
    row = _LAWS[dist.kind]
    try:
        law = row.norm_law(dist.space, dist.param)
        if isinstance(law, float):
            return law ** p
        if law is not None:
            if p >= law.tail_index:
                raise InfiniteMomentError(f"moment order {p} >= tail index {dist.param} "
                                          f"of {dist.kind}")
            return law.moment(p)
        closed = row.moment(dist.space, dist.param, p)
        return _product_norm_moment(dist, p) if closed is None else closed
    except OverflowError:
        return math.inf


def moment_profile(dist: IncrementDistribution, q: float, n: int) -> MomentProfile:
    """Profile (sigma^2, C_q^q, q) of the iid-sum martingale of length n."""
    checked_q(q)
    n = checked_count(n, "n")
    n_real = float_count(n, "n")
    sigma_sq, cq_to_q = n_real * norm_moment(dist, 2.0), n_real * norm_moment(dist, q)
    law = _LAWS[dist.kind]
    if math.inf in (sigma_sq, cq_to_q):
        raise ValueError(f"{law.param} = {dist.param} overflows n E||xi||^2 "
                         f"or n E||xi||^q at q = {q}, n = {n}")
    # a moment lost below the normal floats would read as 0; the point mass 0's are 0
    if min(sigma_sq, cq_to_q) < sys.float_info.min and law.sup(dist.space, dist.param):
        raise ValueError(f"{law.param} = {dist.param} underflows n E||xi||^2 "
                         f"or n E||xi||^q at q = {q}, n = {n}")
    return MomentProfile(sigma_sq=sigma_sq, cq_to_q=cq_to_q, q=float(q))


# ---------------------------------------------------------------------------
# Doob martingales for coordinate-separable functions

@dataclass(frozen=True)
class CoordinateTerm:
    """One summand g_i of a separable f(z) = sum_i g_i(z_i), together with
    its exact mean E g_i(Z_i) under the i-th input law.

    ``g`` is called on a column, the z_i of a block of trials (one trial in
    ``doob_martingale``), and returns a scalar (the same value for every
    row), a (rows,) array, or a (rows, d) array of vectors in the target
    space. ``mean`` is a scalar or a (d,) vector."""
    g: object
    mean: object


@dataclass(frozen=True)
class SeparableFunction:
    terms: tuple
    space: SmoothSpace = make_euclidean(1)


def doob_martingale(f_spec: SeparableFunction, realization) -> np.ndarray:
    """Doob path M_i = E[f(Z) - E f(Z) | Z_1..Z_i] along a realization, as
    the (n, d) array of M_1..M_n.

    Separability makes the conditional expectations exact: unrevealed
    coordinates contribute their means, so M_i is the partial sum of the
    centered revealed terms. ``realization`` holds one sampled value per
    coordinate.
    """
    return np.cumsum(_doob_increments(f_spec, np.asarray(realization)[None])[0], axis=0)


def _doob_increments(f_spec: SeparableFunction, z: np.ndarray) -> np.ndarray:
    """The (rows, n, d) centered increments g_i(z_i) - E g_i(Z_i) of the
    Doob paths of the realizations z[j]; g_i is called once, on z[:, i].
    ValueError, naming the term, where they do not fit (rows, d) or are
    not finite."""
    if not isinstance(f_spec, SeparableFunction):
        raise UnsupportedFunctionError(
            "doob_martingale needs a SeparableFunction; conditional "
            "expectations of non-separable functions are not computable here")
    n = len(f_spec.terms)
    if z.shape[1] != n:
        raise ValueError(f"realization has {z.shape[1]} values, expected {n}")
    xi = np.empty((len(z), n, f_spec.space.dimension))
    for i, term in enumerate(f_spec.terms):
        g = np.asarray(term.g(z[:, i]), dtype=float)
        try:
            xi[:, i] = (g[:, None] if g.ndim == 1 else g) - np.asarray(term.mean, dtype=float)
        except ValueError:  # shapes that do not broadcast
            raise ValueError(f"term {i}: g(z) of shape {g.shape} minus a mean of shape "
                             f"{np.shape(term.mean)} does not fit (rows, d) = "
                             f"{(len(z), f_spec.space.dimension)}") from None
    finite = np.isfinite(xi).all(axis=(0, 2))
    if not finite.all():
        raise ValueError(f"term {int(np.argmin(finite))}: g(z) - mean is not finite")
    return xi


# ---------------------------------------------------------------------------
# laws of ||xi||, and the table of increment laws

def _log(x: float) -> float:
    """log x, and -inf at 0, where a survival function underflows."""
    return math.log(x) if x > 0 else -math.inf


@dataclass(frozen=True)
class _NormLaw:
    """Continuous law of R = ||xi||, as plain scalar functions: the log
    density on the support, the log survival function and the truncated
    mean E[R; R <= L] at any level L > 0, the inverse survival function, and
    the moment E R^p for p below the tail index (inf: every moment is finite)."""
    support: tuple
    logpdf: object
    logsf: object
    isf: object
    mean_below: object
    moment: object
    tail_index: float = math.inf


def _pareto_law(alpha: float) -> _NormLaw:
    """Pareto(alpha) on [1, inf): density alpha x^(-alpha-1)."""
    log_alpha = math.log(alpha)
    return _NormLaw(
        support=(1.0, math.inf),
        logpdf=lambda x: log_alpha - (alpha + 1.0) * math.log(x),
        logsf=lambda x: -alpha * math.log(max(x, 1.0)),
        isf=lambda q: q ** (-1.0 / alpha),
        mean_below=lambda L: (alpha / (alpha - 1.0) * -math.expm1((1.0 - alpha) * math.log(L))
                              if L >= 1.0 else 0.0),
        moment=lambda p: alpha / (alpha - p),
        tail_index=alpha)


def _folded_t_law(nu: float) -> _NormLaw:
    """|T| for T Student-t(nu): density 2c (1 + x^2/nu)^(-(nu+1)/2), with
    c = Gamma((nu+1)/2) / (sqrt(nu pi) Gamma(nu/2))."""
    two_c = 2.0 * float(poch(nu / 2.0, 0.5)) / math.sqrt(nu * math.pi)
    log_two_c, log_nu = math.log(two_c), math.log(nu)

    def logpdf(x):
        y = x * x / nu
        if y < math.inf:
            return log_two_c - (nu + 1.0) / 2.0 * math.log1p(y)
        # x^2 overflows: log1p(x^2 / nu) = 2 log x - log nu + log1p(nu / x^2)
        return log_two_c - (nu + 1.0) / 2.0 * (2.0 * math.log(x) - log_nu + math.log1p(nu / x / x))

    def logsf(x):
        # from 1/2 up, log sf is log1p(-cdf), which keeps its relative accuracy near 0
        sf = 2.0 * float(stdtr(nu, -x))
        if sf < 0.5:
            return _log(sf)
        return math.log1p(-float(betainc(0.5, nu / 2.0, x * x / (nu + x * x))))

    return _NormLaw(
        support=(0.0, math.inf),
        logpdf=logpdf,
        logsf=logsf,
        isf=lambda q: -float(stdtrit(nu, q / 2.0)),
        mean_below=lambda L: (two_c * nu / (nu - 1.0)
                              * -math.expm1(-(nu - 1.0) / 2.0 * math.log1p(L * L / nu))),
        moment=lambda p: math.exp(0.5 * p * math.log(nu) + gammaln((p + 1) / 2)
                                  + gammaln((nu - p) / 2) - 0.5 * math.log(math.pi)
                                  - gammaln(nu / 2)),
        tail_index=nu)


def _chi_law(d: int, a: float) -> _NormLaw:
    """a R for R ~ chi(d), the norm of an N(0, a^2 I) vector in R^d (the
    half-normal law for d = 1): density proportional to x^(d-1) e^(-x^2/(2a^2))."""
    s = d / 2.0
    log_norm = (1.0 - s) * math.log(2.0) - float(gammaln(s)) - math.log(a)
    mean = a * math.sqrt(2.0) * float(poch(s, 0.5))  # E R

    def logpdf(x):
        y = x / a
        return log_norm + (d - 1) * _log(y) - 0.5 * y * y if d > 1 else log_norm - 0.5 * y * y

    def logsf(x):
        z = 0.5 * (x / a) * (x / a)
        cdf = float(gammainc(s, z))  # as for the folded t law
        return math.log1p(-cdf) if cdf < 0.5 else _log(float(gammaincc(s, z)))

    return _NormLaw(
        support=(0.0, math.inf),
        logpdf=logpdf,
        logsf=logsf,
        isf=lambda q: a * math.sqrt(2.0 * gammainccinv(s, q)),
        mean_below=lambda L: mean * float(gammainc(s + 0.5, 0.5 * (L / a) * (L / a))),
        moment=lambda p: a ** p * math.exp(_log_chi_moment(d, p)))


def _uniform_law(a: float) -> _NormLaw:
    """Uniform on [0, a]."""
    log_a = math.log(a)
    return _NormLaw(
        support=(0.0, a),
        logpdf=lambda x: -log_a,
        logsf=lambda x: math.log1p(-x / a) if x < a else -math.inf,
        isf=lambda q: a * (1.0 - q),
        mean_below=lambda L: min(L, a) * min(L, a) / (2.0 * a),
        moment=lambda p: a ** p / (p + 1.0))


def _gaussian_coords(rng, full: tuple, a: float, out) -> np.ndarray:
    xi = rng.standard_normal(full, out=out)
    xi *= a
    return xi


def _gaussian_norm_law(space: SmoothSpace, a: float):
    """A point mass at scale 0, else chi in R^1, euclidean R^d or l^2; none on other l^p."""
    if a == 0.0:
        return float(a)
    return _chi_law(space.dimension, a) if space.dimension == 1 or space.p == 2 else None


def _cube_moment(space: SmoothSpace, a: float, p: float):
    """The p = 2 and p = 4 moments of the cube on euclidean R^d, d > 1."""
    d = space.dimension
    if space.p == 2 and p in (2, 4):
        return d * a * a / 3.0 if p == 2 else d * a ** 4 / 5.0 + d * (d - 1) * a ** 4 / 9.0
    return None


@dataclass(frozen=True)
class _IncrementLaw:
    """All that differs between increment laws, as one row of _LAWS; ``a``
    is the law's parameter and ``space`` its SmoothSpace.

    flag, param: the --dist name and the name of the parameter, which must
    be finite and above ``bound``, or equal to it where ``at_bound``.
    radius(rng, shape, a): the radii of a radial law, drawn after all the
    normal draws of its directions and broadcast against them, >= 0 unless
    ``signed_radius``; a law without radii fills its coordinates with
    coords(rng, shape + (d,), a, out).
    norm_law(space, a): the law of ||xi||: a float for a point mass, a
    _NormLaw, or None. moment(space, a, p): E ||xi||^p in closed form where
    there is no norm law, else None.
    coordinate: for iid coordinates, o -> log E |xi_1 / a|^o and the log
    tilted moments of |xi_1 / a|^p that _product_norm_moment integrates.
    sup(space, a): the supremum of ||xi||, inf for an unbounded law."""
    flag: str
    param: str
    bound: float
    norm_law: object
    at_bound: bool = False
    radius: object = None
    signed_radius: bool = False
    coords: object = None
    moment: object = lambda space, a, p: None
    coordinate: tuple = None
    sup: object = lambda space, a: math.inf


_LAWS = {  # kind: its row, in the order of the --dist choices
    "rademacher_scale": _IncrementLaw(
        "rademacher", "scale", 0.0, norm_law=lambda space, a: float(a),
        radius=lambda rng, shape, a: a,  # a scalar: a (shape, 1) array costs microseconds a draw
        sup=lambda space, a: a),
    "symmetric_pareto": _IncrementLaw(
        "pareto", "tail index", 2.0, norm_law=lambda space, a: _pareto_law(a),
        radius=lambda rng, shape, a: ((1.0 - rng.random(shape)) ** (-1.0 / a))[..., None]),
    "student_t": _IncrementLaw(
        "student_t", "degrees of freedom", 2.0, norm_law=lambda space, a: _folded_t_law(a),
        radius=lambda rng, shape, a: rng.standard_t(a, size=shape)[..., None],
        signed_radius=True),
    "uniform_cube": _IncrementLaw(
        "uniform_cube", "half width", 0.0,
        norm_law=lambda space, a: _uniform_law(a) if space.dimension == 1 else None,
        coords=lambda rng, full, a, out: rng.uniform(-a, a, size=full), moment=_cube_moment,
        coordinate=(lambda o: -math.log(o + 1.0), _uniform_powers),
        sup=lambda space, a: space.norm(np.full(space.dimension, a))),
    "gaussian": _IncrementLaw(
        "gaussian", "scale", 0.0, at_bound=True,  # scale 0: the zero martingale
        norm_law=_gaussian_norm_law, coords=_gaussian_coords,
        coordinate=(lambda o: _log_chi_moment(1, o), _normal_powers),
        sup=lambda space, a: math.inf if a else 0.0),
}


def _scalar_norm_law(dist: IncrementDistribution):
    """Law of ||xi||: a float for a point mass, else a _NormLaw. Raises
    PreconditionError when the norm has no closed-form scalar law."""
    law = _LAWS[dist.kind].norm_law(dist.space, dist.param)
    if law is None:
        raise PreconditionError(f"no scalar norm law for {dist.kind} in dimension "
                                f"{dist.space.dimension}")
    return law


# ---------------------------------------------------------------------------
# exponential-moment (Pinelis) check

# QUADPACK's qk15 rule (Piessens et al., 1983) on [-1, 1]: the Kronrod nodes
# from the left end to the middle and their weights, and the weights of the
# 7-point Gauss rule, whose nodes are every second one of them
_XGK = (0.991455371120812639206854697526329, 0.949107912342758524526189684047851,
        0.864864423359769072789712788640926, 0.741531185599394439863864773280788,
        0.586087235467691130294144845693013, 0.405845151377397166906606412076961,
        0.207784955007898467600689403773245, 0.0)
_WGK = (0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
        0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
        0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
        0.204432940075298892414161999234649, 0.209482141084727828012999174891714)
_WG = (0.129484966168869693270611432679082, 0.279705391489276667901467771423780,
       0.381830050505118944950369775488975, 0.417959183673469387755102040816327)
_QK15_X = np.concatenate([np.negative(_XGK), _XGK[-2::-1]])  # the 15 nodes, ascending
_QK15_WK = np.concatenate([_WGK, _WGK[-2::-1]])
_QK15_WG = np.zeros(15)
_QK15_WG[1::2] = np.concatenate([_WG, _WG[-2::-1]])
_QK15_TOL = 1e-13  # the summed |K15 - G7| at most this share of the integral
_QK15_PANELS = 2000  # no bisection past this many panels
_QK15_ROUNDS = 64  # nor past this many rounds (finite moments took at most 29 in 8000 random cases)


def _log_moment_integral(law: _NormLaw, t: float, breaks: np.ndarray) -> float:
    """log of the integral of exp(t x) pdf(x) over the panels between the
    sorted breaks, all >= 0 but a last one that may be inf, by the adaptive
    qk15 rule; -inf where it is 0. A last panel [c, inf) becomes the panel
    [-1, 0] in s, where x = c + u / (1 - u), u = 1 + s, so that 1 - u = -s
    keeps its relative accuracy up to the infinite end.

    Each round applies the rule to its new panels as one (panels, 15) array,
    with the log density read once per node. A node's x is its panel's
    middle x_mid plus an offset that keeps full relative accuracy, and each
    panel is summed in units of e^(t x_mid + m), m its largest log integrand
    net of t x_mid: neither the rounding of a large t x nor a steeper panel
    elsewhere reaches its |K15 - G7|. The integration ends when the panels'
    |K15 - G7| sum to at most 1e-13 of their K15. Else the round bisects the
    panels with the largest errors, as many as leave the others' sum at half
    of that, unless that would make more than 2000 panels or 64 rounds; then
    it ends with the estimate it has."""
    a, b, c = breaks[:-1], breaks[1:], breaks[-2]
    if b[-1] == math.inf:
        a, b = np.append(a[:-1], -1.0), np.append(b[:-1], 0.0)
    done = np.empty((0, 4))  # the other panels: their ends, log K15 and |G7 / K15 - 1|
    for rounds in range(1, _QK15_ROUNDS + 1):
        half = (b - a) / 2.0
        mid = a + half
        tail = mid < 0.0
        r_mid = np.where(tail, -mid, 1.0)  # 1 - u at the middle; 1 off the tail
        x_mid = np.where(tail, c + (1.0 + mid) / r_mid, mid)
        h = half[:, None] * _QK15_X
        r = r_mid[:, None] - tail[:, None] * h  # 1 - u at the nodes
        dx = h / (r * r_mid[:, None])  # x - x_mid
        x = x_mid[:, None] + dx
        log_pdf = np.fromiter(map(law.logpdf, x.ravel().tolist()), float, x.size)
        with np.errstate(all="ignore"):  # t x past the float range, a density that underflows
            rest = t * dx + log_pdf.reshape(x.shape) - 2.0 * np.log(r)
            m = rest.max(axis=1)
            m[~np.isfinite(m)] = 0.0
            f = np.exp(rest - m[:, None])
            k = half * (f * _QK15_WK).sum(axis=1)
            rel = np.fmax(np.abs(half * (f * _QK15_WG).sum(axis=1) / k - 1.0), 0.0)  # 0 for 0/0
            log_k = t * x_mid + m + np.log(k)
        # nan only where t x past the float range meets an infinite log density:
        # the integrand is e^(+-inf) there, by the sign of t
        log_k[np.isnan(log_k)] = math.copysign(math.inf, t)
        panels = np.concatenate([done, np.column_stack([a, b, log_k, rel])])
        top = float(panels[:, 2].max())
        if top == math.inf:
            raise OverflowError("the integrand overflows")
        if top == -math.inf:
            return top
        k = np.exp(panels[:, 2] - top)
        err = panels[:, 3] * k
        total, err_sum = k.sum(), err.sum()
        order = np.argsort(err)[::-1]
        split = order[:np.searchsorted(np.cumsum(err[order]),
                                       err_sum - 0.5 * _QK15_TOL * total) + 1]
        if (err_sum <= _QK15_TOL * total or len(panels) + len(split) > _QK15_PANELS
                or rounds == _QK15_ROUNDS):
            return top + math.log(total)
        done = np.delete(panels, split, axis=0)
        a, b = panels[split, 0], panels[split, 1]
        a, b = np.concatenate([a, (a + b) / 2.0]), np.concatenate([(a + b) / 2.0, b])


def truncated_norm_exp_moment(dist: IncrementDistribution, t: float, trunc_L) -> float:
    """E exp(t ||xi~||) for the level-L truncation, computed without
    sampling; inf where it overflows. Without truncation (L = inf) it is
    infinite for t > 0 when ||xi|| has a polynomial tail.

    The truncated mass sits at zero, with weight P[||xi|| > L]; the rest is
    the integral of exp(t x + log pdf(x)) over the support of ||xi|| within
    [0, L], by an adaptive 7/15-point Gauss-Kronrod rule in log space, to a
    summed error estimate of 1e-13 relative (no absolute tolerance). Its
    first panels break at the decades q 10^k, k >= -16, of the law's 1e-16
    upper quantile q, up to L or, for L = inf, up to 10 q, past which the
    integral runs to inf in u = (x - 10 q) / (x - 10 q + 1). For t > 0 and a
    finite end they also break at the end minus 1/t, 2/t, ..., 32/t, where
    the peak there lies. A moment that overflows for sure is not
    integrated: the density decreases past q, so at every x in (q, L] the
    integral over [q, x] is at least f(x) e^(tx) (1 - e^(-t(x - q))) / t,
    and that bound is tested at every finite break above q.
    """
    checked_real(t, "t")
    L = _truncation_level(trunc_L)
    law = _scalar_norm_law(dist)
    try:
        if isinstance(law, float):
            return math.exp(t * law if law <= L else 0.0)
        if t > 0 and L == math.inf and law.tail_index < math.inf:  # a polynomial tail
            return math.inf
        lo, hi = law.support  # lo >= 0 for every norm law
        hi = min(hi, L)
        log_val = -math.inf
        if lo < L:
            q = law.isf(1e-16)
            points = q * 10.0 ** np.arange(-16.0, math.log10(hi / q) if hi < math.inf else 2.0)
            if t > 0 and hi < math.inf:
                points = np.append(points, hi - np.array([1.0, 2.0, 4.0, 8.0, 16.0, 32.0]) / t)
            breaks = np.unique(np.concatenate([[lo], points[(lo < points) & (points < hi)], [hi]]))
            if t > 0 and any(t * x + law.logpdf(x) + _log(-math.expm1(-t * (x - q)) / t)
                             > _LOG_MAX for x in breaks[(q < breaks) & (breaks < math.inf)].tolist()):
                return math.inf
            log_val = _log_moment_integral(law, t, breaks)
        return math.exp(np.logaddexp(log_val, law.logsf(L)))
    except OverflowError:  # the point mass, or the moment itself
        return math.inf


def truncated_norm_mean(dist: IncrementDistribution, trunc_L) -> float:
    """E ||xi~|| = E[||xi||; ||xi|| <= L] for the level-L truncation (the
    truncated mass sits at zero), in closed form."""
    L = _truncation_level(trunc_L)
    law = _scalar_norm_law(dist)
    if isinstance(law, float):
        return law if law <= L else 0.0
    return law.mean_below(L)


@dataclass(frozen=True)
class PinelisReport:
    t: float
    D: float
    n: int
    trials: int
    empirical_cosh: float
    standard_error: float
    e_term: float
    product_bound: float
    passed: bool


@dataclass(frozen=True)
class PinelisState:
    """Empirical profile of the normalized process G_i, with G_0 = 1:
    G_i = cosh(t ||M~_i||) / prod_{j<=i} (1 + e_j). The process is a
    nonnegative supermartingale, so every mean must stay at or below 1 up
    to Monte Carlo error."""
    t: float
    e_terms: np.ndarray
    g_means: np.ndarray  # index 0 is G_0 = 1
    g_standard_errors: np.ndarray
    passed: bool


def _exp_excess(y: float) -> float:
    """phi(y) = e^y - 1 - y for y >= 0, inf where e^y overflows. Up to
    y = 1e-2 it is the series y^2/2! + ... + y^8/8!, cut off below 1e-19
    relative: the difference cancels there, and at y = 1e-10 reads 8.27e-18
    for phi(y) = 5.0e-21."""
    if y <= 1e-2:
        return y * y * (1 / 2 + y * (1 / 6 + y * (1 / 24 + y * (1 / 120 + y * (
            1 / 720 + y * (1 / 5040 + y / 40320))))))
    try:
        return math.exp(y) - 1.0 - y
    except OverflowError:
        return math.inf


def _pinelis_terms(ensemble, t: float, D: float, dist: IncrementDistribution,
                   trunc_L):
    """Input checks shared by both Pinelis checks, whose ensemble, a (trials,
    n, d) array or a sequence of (n, d) arrays, is read once into a new
    array that holds the partial sums; the caller's is left unmodified, and
    ValueError names a ragged one. Returns
    e = D^2 E[exp(t ||xi~||) - 1 - t ||xi~||] and the (trials, n) norms
    ||M~_i|| of the partial sums.

    e is D^2 phi(t a) (see _exp_excess) for a point mass at a, and else the
    difference of the truncated moments, read as 0 where it rounds below:
    phi >= 0, so only rounding makes it negative. At small t that
    difference is still rounding noise."""
    checked_real(t, "t", above=0)
    dist.space._checked_D(D)
    if trunc_L is None:
        sup = _LAWS[dist.kind].sup(dist.space, dist.param)
        if sup == math.inf:
            raise PreconditionError(f"{dist.kind} increments are unbounded; truncate "
                                    "first and pass the truncation level")
        # truncation at sup changes nothing; the point mass 0 keeps all at
        # every level, and 0 is none
        trunc_L = sup or math.inf
    level = _truncation_level(trunc_L)
    try:
        xi = np.array(ensemble, dtype=float)  # a new array, ours to sum in place
    except (TypeError, ValueError) as err:  # ragged, or holding what is no number
        raise ValueError(f"ensemble must be a (trials, n, {dist.space.dimension}) float "
                         f"array or a sequence of (n, {dist.space.dimension}) arrays: "
                         f"{err}") from None
    if xi.ndim != 3 or not len(xi) or xi.shape[2] != dist.space.dimension:
        raise ValueError(f"ensemble must be a nonempty (trials, n, {dist.space.dimension}) "
                         f"array, got shape {xi.shape}")
    top = dist.space._norms(xi).max(initial=0.0)  # nan and inf fail too
    if not (_kept(top, level) and top < math.inf):
        raise ValueError(f"ensemble holds an increment that is not finite or of norm above "
                         f"the truncation level {level:.6g}")
    norms = dist.space._norms(np.cumsum(xi, axis=1, out=xi))
    if not t * norms.max(initial=0.0) <= _LOG_MAX:
        raise ValueError(f"cosh(t ||M_i||) overflows at t = {t}")
    law = _scalar_norm_law(dist)
    if isinstance(law, float):
        e_term = _exp_excess(t * (law if law <= level else 0.0))
    else:
        e_term = max(truncated_norm_exp_moment(dist, t, level) - 1.0
                     - t * truncated_norm_mean(dist, level), 0.0)
    return D * D * e_term, norms


def _standard_errors(values: np.ndarray) -> np.ndarray:
    """Standard errors of the means over axis 0 (the trials); 0 for one trial."""
    if len(values) == 1:
        return np.zeros(values.shape[1:])
    return values.std(axis=0, ddof=1) / math.sqrt(len(values))


def pinelis_supermartingale_profile(ensemble, t: float, D: float,
                                    dist: IncrementDistribution,
                                    trunc_L=None) -> PinelisState:
    """Track E G_i over an iid truncated ensemble, step by step."""
    e_term, norms = _pinelis_terms(ensemble, t, D, dist, trunc_L)
    n = norms.shape[1]
    g = np.cosh(t * norms) / np.cumprod(np.full(n, 1.0 + e_term))
    g_means = np.concatenate(([1.0], g.mean(axis=0)))
    g_se = np.concatenate(([0.0], _standard_errors(g)))
    passed = bool(np.all(g_means <= 1.0 + 3.0 * g_se))
    return PinelisState(t=t, e_terms=np.full(n, e_term), g_means=g_means,
                        g_standard_errors=g_se, passed=passed)


def pinelis_check(ensemble, t: float, D: float,
                  dist: IncrementDistribution, trunc_L=None) -> PinelisReport:
    """Empirical E cosh(t ||M~_n||) against the deterministic product
    prod_i (1 + e_i) with e_i = D^2 E[exp(t ||xi~||) - 1 - t ||xi~||].

    The ensemble holds the increments of the paths, a (trials, n, d) array
    such as truncated_ensemble's or a sequence of (n, d) arrays, already
    truncated when the increment law is unbounded, and is read into a new
    array; ``trunc_L`` is the level used so the product side can be
    computed analytically. Verdict: empirical <= product within three
    Monte Carlo standard errors; e_term and product_bound read inf where they
    overflow.
    """
    e_term, norms = _pinelis_terms(ensemble, t, D, dist, trunc_L)
    trials, n = norms.shape
    cosh_vals = np.cosh(t * norms[:, -1]) if n else np.ones(trials)
    emp = float(cosh_vals.mean())
    se = float(_standard_errors(cosh_vals))
    product = (1.0 + e_term) ** n
    return PinelisReport(t=t, D=D, n=n, trials=trials, empirical_cosh=emp,
                         standard_error=se, e_term=e_term, product_bound=product,
                         passed=bool(emp <= product + 3.0 * se))


# ---------------------------------------------------------------------------
# moment interpolation (Rio) check

@dataclass(frozen=True)
class DiscreteNormLaw:
    """Discrete law of one ||xi~_i||: finite values >= 0, each with a
    probability in [0, 1]."""
    values: tuple
    probs: tuple

    def __post_init__(self):
        if not (0 < len(self.values) == len(self.probs)
                and all(0 <= v < math.inf for v in self.values)
                and all(0 <= p <= 1 for p in self.probs)):
            raise ValueError(f"a norm law needs values finite and >= 0, at least one, each with a "
                             f"probability in [0, 1], got values {self.values}, probs {self.probs}")

    def moment(self, k: float) -> float:
        return float(sum(p * v ** k for v, p in zip(self.values, self.probs)))


@dataclass(frozen=True)
class RioMomentReport:
    k: float
    lhs: float
    rhs: float
    branch: str  # "interpolation" (k in [2,q]) or "truncation" (k >= q)
    passed: bool


def rio_moment_check(norm_laws, q: float, k: float, sigma: float,
                     trunc_L: float) -> RioMomentReport:
    """Verify sum_i E ||xi~_i||^k <= sigma^(2(q-k)/(q-2)) for k in [2, q]
    and <= L^(k-q) for k >= q, with moments computed exactly from the
    supplied discrete norm laws.

    Preconditions (normalized assumptions): sum E^2 <= sigma^2,
    sum E^q <= 1, all values <= L.
    """
    checked_q(q)
    checked_real(k, "k", least=2)
    checked_real(sigma, "sigma", least=0)
    checked_real(trunc_L, "trunc_L", above=0)
    laws = list(norm_laws)
    if not laws:
        raise ValueError("norm_laws must hold at least one law")
    tol = 1e-12
    m2 = sum(law.moment(2.0) for law in laws)
    mq = sum(law.moment(q) for law in laws)
    vmax = max(max(law.values) for law in laws)
    if m2 > sigma * sigma * (1 + tol):
        raise PreconditionError(f"sum E||xi||^2 = {m2} exceeds sigma^2 at sigma = {sigma}")
    if mq > 1.0 + tol:
        raise PreconditionError(f"sum E||xi||^q = {mq} exceeds 1")
    if vmax > trunc_L * (1 + tol):
        raise PreconditionError(f"norm value {vmax} exceeds trunc_L = {trunc_L}")

    lhs = sum(law.moment(k) for law in laws)
    rhs = sigma ** (2.0 * (q - k) / (q - 2.0)) if k <= q else trunc_L ** (k - q)
    return RioMomentReport(k=float(k), lhs=float(lhs), rhs=float(rhs),
                           branch="interpolation" if k <= q else "truncation",
                           passed=bool(lhs <= rhs * (1 + 1e-12)))


# ---------------------------------------------------------------------------
# ensembles

def _usable_cpus() -> int:  # os.cpu_count() where the platform has no affinity call
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _ensemble(kernel, n: int, trials: int, d: int, shape=(), threaded=True) -> np.ndarray:
    """The engine of every ensemble: a new (trials,) + shape float array, of which
    ``kernel(b, B, rows)`` fills the rows of block b, the trials [b B, (b+1) B)
    with B = max(1, _BLOCK_VALUES // (n d)). A kernel draws block b from
    trial_seed(seed, b) alone, the iid one all B trials even where it keeps
    fewer, so trial j depends only on (seed, j, n, law), not on the trial count
    or the order in which blocks run. With ``threaded`` the blocks run on up to (usable CPUs) threads,
    numpy's fills and ufuncs releasing the GIL, each writing only its own rows,
    so results do not depend on the CPU count; on an error or Ctrl-C the queued
    blocks are dropped and the threads joined. Else they run on the calling
    thread, in block order."""
    n, trials = checked_count(n, "n"), checked_count(trials, "trials")
    size = _block_size(n, d)
    out = _empty((trials, *shape), n, d, trials)
    rows = [out[start:start + size] for start in range(0, trials, size)]
    workers = min(_usable_cpus(), len(rows)) if threaded else 1
    if workers <= 1:
        for b, block in enumerate(rows):
            kernel(b, size, block)
        return out
    pool = ThreadPoolExecutor(max_workers=workers)
    try:
        list(pool.map(kernel, range(len(rows)), [size] * len(rows), rows))  # raises a block's error
    finally:
        pool.shutdown(cancel_futures=True)
    return out


def _iid_kernel(dist: IncrementDistribution, n: int, seed: int, trunc_L):
    """The iid block kernel: B paths of n increments drawn from a new
    Generator(Philox(trial_seed(seed, b))), truncated in place at ``trunc_L``
    unless it is None, fill rows of shape (n, d), else their running maxima
    fill the rows.
    Each worker thread keeps block-sized buffers for one call, so a block
    allocates none but the cube law's draw; the ufuncs and their order are
    those of the allocating path, so the bits are too."""
    space, level = dist.space, None if trunc_L is None else _truncation_level(trunc_L)
    local = threading.local()  # per worker thread: its block buffers, for this call only

    def kernel(b, size, rows):
        if not hasattr(local, "xi"):  # the drawn block, and scratch for its norms
            local.xi, *local.scratch = (_empty((size, n, space.dimension), n, space.dimension)
                                        for _ in range(1 + space._norm_temporaries))
        rng = np.random.Generator(np.random.Philox(trial_seed(seed, b)))
        xi = _draw(dist, (size, n), rng, local.xi, local.scratch)[:len(rows)]
        scratch = [buf[:len(rows)] for buf in local.scratch]
        if level is not None:
            xi *= _kept(space._norms(xi, scratch), level)[..., None]
        rows[...] = xi if rows.ndim > 1 else _paths(xi, space, scratch)[2]

    return kernel


def running_max_ensemble(dist: IncrementDistribution, n: int, trials: int,
                         seed: int, trunc_L=None) -> np.ndarray:
    """Running maxima max_i ||M_i|| over independent trials."""
    return _ensemble(_iid_kernel(dist, n, seed, trunc_L), n, trials, dist.space.dimension)


def truncated_ensemble(dist: IncrementDistribution, n: int, trials: int,
                       seed: int, trunc_L) -> np.ndarray:
    """The truncated increments of running_max_ensemble's trials, a new (trials, n, d) array."""
    d = dist.space.dimension
    return _ensemble(_iid_kernel(dist, n, seed, trunc_L), n, trials, d, (n, d))


def doob_running_max_ensemble(f_spec: SeparableFunction, sample_inputs,
                              trials: int, seed: int) -> np.ndarray:
    """Running maxima of exact Doob paths over independent input draws.

    ``sample_inputs(rng, n)`` returns one realization of the n inputs; it is
    called once per trial, in trial order, on its block's new generator
    Generator(Philox(trial_seed(seed, b))), which it may keep. Each g_i is
    called once per block (see ``CoordinateTerm``), all on the calling thread."""
    n, space = len(f_spec.terms), f_spec.space

    def kernel(b, size, rows):
        rng = np.random.Generator(np.random.Philox(trial_seed(seed, b)))
        z = np.array([sample_inputs(rng, n) for _ in range(len(rows))])
        rows[...] = _paths(_doob_increments(f_spec, z), space)[2]

    return _ensemble(kernel, n, trials, space.dimension, threaded=False)
