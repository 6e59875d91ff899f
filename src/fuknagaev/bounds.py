"""User-facing Fuk-Nagaev bound formulas.

All bounds share the constant

    c(q, D) = 1/(2q) + min(1/q, 1/5) + 1 + 1{q > 3} D^2 q / 3

and control the running maximum max_i ||M_i|| of a martingale in a
(2,D)-smooth space whose summed conditional moments satisfy
sum E_{i-1} ||xi_i||^2 <= sigma^2 and sum E_{i-1} ||xi_i||^q <= C_q^q.
"""

import math
from dataclasses import dataclass

from .errors import InvalidLevelError, InvalidThresholdError, checked_count, checked_q
from .stochastic import MomentProfile

CONFIDENCE_THRESHOLD = "confidence_threshold"
TAIL_PROBABILITY = "tail_probability"


@dataclass(frozen=True)
class BoundResult:
    value: float
    kind: str
    inputs: dict


def constant_c(q: float, D: float) -> float:
    """The bound constant c(q, D); e.g. c(3, 1) = 41/30."""
    checked_q(q)
    if not 1 <= D < math.inf:
        raise ValueError(f"D must be finite and >= 1, got {D}")
    return 1.0 / (2.0 * q) + min(1.0 / q, 0.2) + 1.0 \
        + (D * D * q / 3.0 if q > 3 else 0.0)


def _threshold(sigma: float, cq: float, q: float, D: float, u: float) -> float:
    if not 0.0 < u < 1.0:
        raise InvalidLevelError(f"u must lie in (0, 1), got {u}")
    value = D * sigma * math.sqrt(2.0 * math.log(2.0 / u)) \
        + constant_c(q, D) * cq * (2.0 / u) ** (1.0 / q)
    if not value < math.inf:
        raise InvalidLevelError(f"the threshold B(u) overflows at u = {u}")
    return value


def confidence_bound(profile: MomentProfile, D: float, u: float) -> BoundResult:
    """Threshold B(u) with P[max_i ||M_i|| <= B(u)] >= 1 - u.

    B(u) = D sigma sqrt(2 log(2/u)) + c(q, D) C_q (2/u)^(1/q).
    """
    value = _threshold(profile.sigma, profile.cq, profile.q, D, u)
    return BoundResult(value=value, kind=CONFIDENCE_THRESHOLD,
                       inputs={"q": profile.q, "D": D, "sigma_sq": profile.sigma_sq,
                               "cq_to_q": profile.cq_to_q, "u": u})


def _tail_terms(profile: MomentProfile, D: float, t: float) -> tuple:
    """The polynomial and Gaussian terms 2 (2 c C_q / t)^q and
    2 exp(-t^2 / (8 D^2 sigma^2)) of the tail bound at t. A zero moment
    drops its term; a polynomial term beyond the float range reads inf."""
    c, cq, t = constant_c(profile.q, D), float(profile.cq), float(t)
    try:  # math.pow raises OverflowError where a numpy scalar power would only warn
        poly = 2.0 * math.pow(2.0 * c * cq / t, profile.q) if profile.cq_to_q > 0 else 0.0
    except OverflowError:
        poly = math.inf
    gauss = 0.0 if profile.sigma_sq == 0.0 else \
        2.0 * math.exp(-t * t / (8.0 * D * D * profile.sigma_sq))
    return poly, gauss


def tail_bound(profile: MomentProfile, D: float, t: float) -> BoundResult:
    """P[max_i ||M_i|| > t] <= 2 (2 c C_q / t)^q + 2 exp(-t^2 / (8 D^2 sigma^2)),
    clamped to [0, 1]. A zero sigma drops the Gaussian term."""
    if not 0 < t < math.inf:
        raise InvalidThresholdError(f"t must be positive and finite, got {t}")
    poly, gauss = _tail_terms(profile, D, t)
    return BoundResult(value=min(1.0, poly + gauss), kind=TAIL_PROBABILITY,
                       inputs={"q": profile.q, "D": D, "sigma_sq": profile.sigma_sq,
                               "cq_to_q": profile.cq_to_q, "t": t})


def independent_sum_bound(per_increment: MomentProfile, n: int, D: float,
                          u: float) -> BoundResult:
    """Confidence threshold for the scaled running maximum
    max_k || (1/n) sum_{i<=k} xi_i || of n iid centered increments with
    per-increment moments (sigma_1^2, C_{q,1}^q):

    D sigma_1 sqrt(2 log(2/u) / n) + c(q, D) C_{q,1} (2 / (u n^(q-1)))^(1/q).
    """
    if not 0.0 < u < 1.0:
        raise InvalidLevelError(f"u must lie in (0, 1), got {u}")
    n = checked_count(n, "n")
    q = per_increment.q
    value = D * per_increment.sigma * math.sqrt(2.0 * math.log(2.0 / u) / n) \
        + constant_c(q, D) * per_increment.cq * (2.0 / (u * float(n) ** (q - 1.0))) ** (1.0 / q)
    if not value < math.inf:
        raise InvalidLevelError(f"the threshold overflows at u = {u}")
    return BoundResult(value=value, kind=CONFIDENCE_THRESHOLD,
                       inputs={"q": q, "D": D, "sigma1_sq": per_increment.sigma_sq,
                               "cq1_to_q": per_increment.cq_to_q, "u": u, "n": n})


@dataclass(frozen=True)
class HolderSpec:
    """Holder data for f: product of metric coordinate spaces -> target.

    ||f(z) - f(z')|| <= holder_L * d(z, z')^alpha with d = sum_i d_i, and
    coordinate_moments holds per-coordinate pairs
    (E d_i(Z_i, Z_i')^(2 alpha), E d_i(Z_i, Z_i')^(q alpha)) over an
    independent copy Z'.
    """
    holder_L: float
    alpha: float
    coordinate_moments: tuple

    def __post_init__(self):
        if not 0 <= self.holder_L < math.inf:
            raise ValueError(f"holder_L must be finite and >= 0, got {self.holder_L}")
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError(f"alpha must lie in (0, 1], got {self.alpha}")
        if not all(0 <= m < math.inf for pair in self.coordinate_moments for m in pair):
            raise ValueError(f"coordinate moments must be finite and >= 0, "
                             f"got {self.coordinate_moments}")


def holder_constants(spec: HolderSpec, q: float) -> tuple:
    """(sigma^2, C_q^q) certified by the Holder condition:
    sigma^2 = L^2 sum_i E d_i^(2 alpha), C_q^q = L^q sum_i E d_i^(q alpha)."""
    checked_q(q)
    L = spec.holder_L
    m2 = sum(pair[0] for pair in spec.coordinate_moments)
    mq = sum(pair[1] for pair in spec.coordinate_moments)
    return L * L * m2, L ** q * mq


def mcdiarmid_bound(sigma_sq: float, cq_to_q: float, q: float, D: float,
                    u: float) -> BoundResult:
    """Confidence threshold for ||f(Z) - E f(Z)|| of a function of
    independent inputs with summed conditional moment bounds
    (sigma^2, C_q^q); the Doob decomposition makes this the martingale
    bound with the same constants."""
    profile = MomentProfile(sigma_sq=sigma_sq, cq_to_q=cq_to_q, q=q)
    value = _threshold(profile.sigma, profile.cq, q, D, u)
    return BoundResult(value=value, kind=CONFIDENCE_THRESHOLD,
                       inputs={"q": q, "D": D, "sigma_sq": sigma_sq,
                               "cq_to_q": cq_to_q, "u": u})
