"""User-facing Fuk-Nagaev bound formulas.

All bounds share the constant

    c(q, D) = 1/(2q) + min(1/q, 1/5) + 1 + 1{q > 3} D^2 q / 3

and control the running maximum max_i ||M_i|| of a martingale in a
(2,D)-smooth space whose summed conditional moments satisfy
sum E_{i-1} ||xi_i||^2 <= sigma^2 and sum E_{i-1} ||xi_i||^q <= C_q^q.
"""

import math
from dataclasses import dataclass

from .errors import (InvalidLevelError, InvalidThresholdError, checked_count, checked_q,
                     checked_real)
from .stochastic import MomentProfile

CONFIDENCE_THRESHOLD = "confidence_threshold"
TAIL_PROBABILITY = "tail_probability"


@dataclass(frozen=True)
class BoundResult:
    value: float
    kind: str


def constant_c(q: float, D: float) -> float:
    """The bound constant c(q, D); e.g. c(3, 1) = 41/30. inf where D^2 q / 3
    overflows."""
    checked_q(q)
    checked_real(D, "D", least=1)
    return 1.0 / (2.0 * q) + min(1.0 / q, 0.2) + 1.0 \
        + (D * D * q / 3.0 if q > 3 else 0.0)


def _two_over(u: float, q: float) -> tuple:
    """(log(2/u), (2/u)^(1/q)); below u = 1.1e-308, where 2/u overflows, as
    log 2 - log u and 2^(1/q) u^(-1/q)."""
    ratio = 2.0 / u
    if ratio < math.inf:
        return math.log(ratio), ratio ** (1.0 / q)
    return math.log(2.0) - math.log(u), 2.0 ** (1.0 / q) * u ** (-1.0 / q)


def confidence_bound(profile: MomentProfile, D: float, u: float) -> BoundResult:
    """Threshold B(u) with P[max_i ||M_i|| <= B(u)] >= 1 - u.

    B(u) = D sigma sqrt(2 log(2/u)) + c(q, D) C_q (2/u)^(1/q).
    """
    checked_real(u, "u", above=0, below=1, error=InvalidLevelError)
    c = constant_c(profile.q, D)
    log_ratio, root = _two_over(u, profile.q)
    value = D * profile.sigma * math.sqrt(2.0 * log_ratio) + c * profile.cq * root
    if not value < math.inf:
        raise InvalidLevelError(f"the threshold B(u) overflows at D = {D}, u = {u}")
    return BoundResult(value=value, kind=CONFIDENCE_THRESHOLD)


def tail_bound(profile: MomentProfile, D: float, t: float) -> BoundResult:
    """P[max_i ||M_i|| > t] <= 2 (2 c C_q / t)^q + 2 exp(-t^2 / (8 D^2 sigma^2)),
    clamped to [0, 1]. A zero moment drops its term; a polynomial term beyond
    the float range reads inf."""
    checked_real(t, "t", above=0, error=InvalidThresholdError)
    c, cq, x = constant_c(profile.q, D), float(profile.cq), float(t)
    try:  # math.pow raises OverflowError where a numpy scalar power would only warn
        poly = 2.0 * math.pow(2.0 * c * cq / x, profile.q) if profile.cq_to_q > 0 else 0.0
    except OverflowError:
        poly = math.inf
    gauss = 0.0 if profile.sigma_sq == 0.0 else \
        2.0 * math.exp(-x * x / (8.0 * D * D * profile.sigma_sq))
    return BoundResult(value=min(1.0, poly + gauss), kind=TAIL_PROBABILITY)


def independent_sum_bound(per_increment: MomentProfile, n: int, D: float,
                          u: float) -> BoundResult:
    """Confidence threshold for the scaled running maximum
    max_k || (1/n) sum_{i<=k} xi_i || of n iid centered increments with
    per-increment moments (sigma_1^2, C_{q,1}^q):

    D sigma_1 sqrt(2 log(2/u) / n) + c(q, D) C_{q,1} (2/u)^(1/q) n^(-(q-1)/q).
    """
    checked_real(u, "u", above=0, below=1, error=InvalidLevelError)
    n = checked_count(n, "n")
    try:
        n_real = float(n)
    except OverflowError:
        raise ValueError(f"n must be below 2^1024, got an integer of {n.bit_length()} bits") \
            from None
    q = per_increment.q
    c = constant_c(q, D)
    # n^(-(q-1)/q) <= 1, where n^(q-1) alone overflows for a large n
    log_ratio, root = _two_over(u, q)
    value = D * per_increment.sigma * math.sqrt(2.0 * log_ratio / n_real) \
        + c * per_increment.cq * root * n_real ** (-(q - 1.0) / q)
    if not value < math.inf:
        raise InvalidLevelError(f"the threshold overflows at D = {D}, u = {u}")
    return BoundResult(value=value, kind=CONFIDENCE_THRESHOLD)


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
        object.__setattr__(self, "coordinate_moments", tuple(self.coordinate_moments))
        checked_real(self.holder_L, "holder_L", least=0)
        checked_real(self.alpha, "alpha", above=0, most=1)
        for m in (m for pair in self.coordinate_moments for m in pair):
            checked_real(m, "coordinate moments", least=0)


def holder_constants(spec: HolderSpec, q: float) -> tuple:
    """(sigma^2, C_q^q) certified by the Holder condition:
    sigma^2 = L^2 sum_i E d_i^(2 alpha), C_q^q = L^q sum_i E d_i^(q alpha);
    inf where either overflows."""
    checked_q(q)
    L = spec.holder_L
    m2 = sum(pair[0] for pair in spec.coordinate_moments)
    mq = sum(pair[1] for pair in spec.coordinate_moments)
    try:  # float ** raises OverflowError where float * only reads inf
        Lq = L ** q
    except OverflowError:
        Lq = math.inf
    return (L * L * m2 if m2 else 0.0), (Lq * mq if mq else 0.0)  # 0 where L^q overflows too


def mcdiarmid_bound(sigma_sq: float, cq_to_q: float, q: float, D: float,
                    u: float) -> BoundResult:
    """Confidence threshold for ||f(Z) - E f(Z)|| of a function of
    independent inputs with summed conditional moment bounds
    (sigma^2, C_q^q); the Doob decomposition makes this the martingale
    bound with the same constants."""
    return confidence_bound(MomentProfile(sigma_sq=sigma_sq, cq_to_q=cq_to_q, q=q), D, u)
