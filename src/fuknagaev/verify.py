"""Monte Carlo verification campaigns for the confidence bounds.

A campaign simulates many independent martingale paths, compares the
running maximum against the bound threshold at each confidence level, and
certifies the empirical exceedance rate with an exact one-sided
Clopper-Pearson upper limit (exceedance counts near zero are the common
case, where normal approximations are useless).
"""

import math
import time
from dataclasses import dataclass, fields

import numpy as np
from scipy.special import betaincinv

from .bounds import confidence_bound, constant_c
from .errors import InvalidCountError, InvalidLevelError, checked_count, checked_q, checked_real
from .quantile import make_sample, quantile_q
from .stochastic import (IncrementDistribution, MomentProfile, moment_profile,
                         running_max_ensemble)

CONFIDENCE = 0.99  # of every campaign's Clopper-Pearson limit


def clopper_pearson_upper(k: int, trials: int, confidence: float) -> float:
    """Exact one-sided upper confidence limit for a binomial proportion:
    the confidence quantile of Beta(k + 1, trials - k), from Boost's
    inverse regularised incomplete beta function (as scipy.stats.beta.ppf)."""
    trials = checked_count(trials, "trials", InvalidCountError)
    k = checked_count(k, "k", InvalidCountError, least=0)
    if k > trials:
        raise InvalidCountError(f"need 0 <= k <= trials, got k={k}, trials={trials}")
    checked_real(confidence, "confidence", above=0, below=1)
    if k == trials:
        return 1.0
    upper = float(betaincinv(k + 1, trials - k, confidence))
    if upper != upper:  # Boost's inverse is nan at some confidences below ~1e-190
        raise ValueError(f"the beta quantile is nan at confidence = {confidence}, k = {k}")
    return upper


@dataclass(frozen=True)
class CampaignConfig:
    dist: IncrementDistribution
    n: int
    trials: int
    q: float
    D: float
    u_grid: tuple
    seed: int

    def __post_init__(self):
        object.__setattr__(self, "u_grid", tuple(self.u_grid))
        checked_count(self.trials, "trials")
        if self.trials < 100:
            raise ValueError(f"trials must be >= 100, got {self.trials}")
        checked_count(self.n, "n")
        checked_count(self.seed, "seed", least=0)
        checked_q(self.q)
        self.dist.space._checked_D(self.D)
        if not self.u_grid:
            raise ValueError("u grid must be nonempty")
        for u in self.u_grid:
            checked_real(u, "u_grid level", least=1e-6, most=0.99, error=InvalidLevelError)


@dataclass(frozen=True)
class LevelRow:
    level: float
    bound: float
    exceed: int
    trials: int
    rate: float
    cp_upper: float
    passed: bool


@dataclass(frozen=True)
class VerificationReport:
    """The rows of a campaign, one per level: LevelRow for verify_confidence,
    TightnessRow for tightness."""
    rows: tuple
    profile: MomentProfile
    config: CampaignConfig
    runtime_s: float

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.rows)

    def row_dicts(self) -> list:
        """Rows as dicts of their fields in declaration order, with passed
        written as verdict."""
        return [{"verdict" if f.name == "passed" else f.name: getattr(r, f.name)
                 for f in fields(r)} for r in self.rows]


def _campaign(config: CampaignConfig, level_rows) -> VerificationReport:
    """The report of level_rows(maxima, bounds), given the running maxima of
    the campaign's paths and B(u) at each level. moment_profile and
    running_max_ensemble are looked up as module globals at call time, the
    profile first, so an infinite moment is rejected before any simulation."""
    start = time.perf_counter()
    profile = moment_profile(config.dist, config.q, config.n)
    rm = running_max_ensemble(config.dist, config.n, config.trials, config.seed)
    bounds = [confidence_bound(profile, config.D, u).value for u in config.u_grid]
    return VerificationReport(rows=tuple(level_rows(rm, bounds)), profile=profile,
                              config=config, runtime_s=time.perf_counter() - start)


def verify_confidence(config: CampaignConfig) -> VerificationReport:
    """Exceedance rates of running maxima against B(u) at every level.

    A level passes when the Clopper-Pearson upper limit of the exceedance
    rate, at confidence CONFIDENCE, stays at or below u. Infinite-moment
    profiles are rejected before any simulation runs.
    """
    def level_rows(rm, bounds):
        for u, b in zip(config.u_grid, bounds):
            exceed = int((rm > b).sum())
            cp = clopper_pearson_upper(exceed, config.trials, CONFIDENCE)
            yield LevelRow(level=float(u), bound=b, exceed=exceed, trials=config.trials,
                           rate=exceed / config.trials, cp_upper=cp, passed=bool(cp <= u))
    return _campaign(config, level_rows)


@dataclass(frozen=True)
class TightnessRow:
    level: float
    bound: float
    empirical_q: float
    ratio: float | None
    bootstrap_se: float
    applicable: bool
    passed: bool  # True where not applicable


def tightness(config: CampaignConfig, n_boot: int = 200) -> VerificationReport:
    """Ratio of the bound to the empirical running-max quantile per level.

    The bound dominates the true quantile, so each ratio should be >= 1 up
    to the sampling error of the empirical quantile (three SEs over n_boot >= 2
    bootstrap resamples). A zero martingale yields ratio None (not applicable).
    """
    n_boot = checked_count(n_boot, "n_boot", least=2)

    def level_rows(rm, bounds):
        sample = make_sample(rm)
        boot_rng = np.random.default_rng(np.random.SeedSequence(
            entropy=config.seed, spawn_key=(0xB007,)))
        boot_q = np.empty((len(config.u_grid), n_boot))  # row i: level i
        for k in range(n_boot):
            # one index row per resample, drawn as the rows of one (n_boot, trials)
            # call would be; one sort serves every level
            resample = make_sample(rm[boot_rng.integers(0, len(rm), size=len(rm))])
            boot_q[:, k] = [quantile_q(resample, u) for u in config.u_grid]
        for u, b, level_q in zip(config.u_grid, bounds, boot_q):
            emp = quantile_q(sample, u)
            se_q = float(level_q.std(ddof=1))
            applicable = emp > 0.0
            ratio = b / emp if applicable else None
            se = b * se_q / (emp * emp) if applicable else se_q
            yield TightnessRow(level=float(u), bound=b, empirical_q=emp, ratio=ratio,
                               bootstrap_se=se, applicable=applicable,
                               passed=not applicable or bool(ratio >= 1.0 - 3.0 * se))
    return _campaign(config, level_rows)


def crossover_scan(profile: MomentProfile, D: float, bracket: tuple) -> float | None:
    """Where the Gaussian and polynomial tail terms swap dominance. They are equal
    where v - log v = y, for v = t^2/(4 q D^2 sigma^2) and
    y = log(4 q D^2 sigma^2) - 2 log(2c) - (2/q) log C_q^q: at v = -W_0(-e^-y) <= 1
    and v = -W_-1(-e^-y) >= 1 (Lambert's W) if y >= 1, nowhere if y < 1, and the
    Gaussian term dominates between. Returns t at the larger root if it lies in the
    bracket, else at the smaller one if it does, else None, a valid outcome: for
    small sigma the polynomial term dominates, and a zero sigma or C_q drops a term."""
    t_lo, t_hi = bracket
    checked_real(t_lo, "t_lo", above=0)
    checked_real(t_hi, "t_hi", above=t_lo, lo_text=f"t_lo = {t_lo}")
    c = constant_c(profile.q, D)
    if profile.sigma_sq == 0.0 or profile.cq_to_q == 0.0:
        return None
    log_scale = math.log(4.0 * profile.q) + math.log(profile.sigma_sq) + 2.0 * math.log(D)
    y = log_scale - 2.0 * math.log(2.0 * c) - 2.0 * math.log(profile.cq_to_q) / profile.q
    if not y >= 1.0:
        return None
    # Newton on expm1(u) - u = y - 1 (u = log v, from -y) and w - log1p(w) = y - 1 (w = v - 1,
    # from 2y - 1): convex, so steps approach each root monotonically; no cancellation at v ~ 1
    y1, u, w = y - 1.0, -y, 2.0 * y - 1.0
    while (new := u - (math.expm1(u) - u - y1) / math.expm1(u)) > u:
        u = new
    while (new := w - (w - math.log1p(w) - y1) * (1.0 + w) / w) < w:
        w = new
    for log_t in ((log_scale + math.log1p(w)) / 2.0, (log_scale + u) / 2.0):  # larger first
        if log_t <= math.log(t_hi) and t_lo <= (t := math.exp(log_t)) <= t_hi:  # e^log_t finite
            return t
    return None
