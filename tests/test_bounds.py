import math

import mpmath
import numpy as np
import pytest
from scipy import integrate

from fuknagaev.bounds import (HolderSpec, confidence_bound, constant_c,
                              holder_constants, independent_sum_bound,
                              mcdiarmid_bound, tail_bound)
from fuknagaev.errors import (InvalidLevelError, InvalidQError,
                              InvalidThresholdError)
from fuknagaev.stochastic import MomentProfile

UNIT = MomentProfile(sigma_sq=1.0, cq_to_q=1.0, q=4.0)


# ---------------------------------------------------------------- constant

def test_constant_reference_values():
    assert constant_c(3.0, 1.0) == 41 / 30  # indicator off at q = 3
    assert constant_c(4.0, 1.0) == pytest.approx(0.125 + 0.2 + 1 + 4 / 3, rel=0)
    assert constant_c(4.0, 2.0) == pytest.approx(1.325 + 16 / 3, rel=0)


def test_constant_matches_formula_on_grid():
    for q in (2.1, 2.5, 3.0, 3.0001, 4.0, 6.0, 10.0):
        for d in (1.0, math.sqrt(3), 2.0):
            expected = 1 / (2 * q) + min(1 / q, 1 / 5) + 1 \
                + (d * d * q / 3 if q > 3 else 0.0)
            assert constant_c(q, d) == expected


def test_constant_rejects_small_q():
    with pytest.raises(InvalidQError):
        constant_c(2.0, 1.0)
    with pytest.raises(InvalidQError):
        constant_c(1.5, 1.0)


def test_constant_depends_on_D_only_above_q3():
    # below the indicator threshold the formula is D-free
    assert constant_c(2.7, 1.0) == constant_c(2.7, 2.0) == constant_c(2.7, 5.0)
    assert constant_c(3.5, 2.0) > constant_c(3.5, 1.0)


# ---------------------------------------------------------------- confidence

def test_confidence_bound_reference_value():
    res = confidence_bound(UNIT, 1.0, 0.1)
    expected = math.sqrt(2 * math.log(20.0)) + constant_c(4.0, 1.0) * 20.0 ** 0.25
    assert res.value == expected
    assert res.value == pytest.approx(8.069437381306482, rel=1e-14)
    assert res.kind == "confidence_threshold"


def test_confidence_bound_near_u_one_stays_finite():
    val = confidence_bound(UNIT, 1.0, 1 - 1e-12).value
    assert math.isfinite(val) and val > 0


def test_confidence_bound_monotone():
    us = np.linspace(0.01, 0.95, 40)
    vals = [confidence_bound(UNIT, 1.0, float(u)).value for u in us]
    assert all(a > b for a, b in zip(vals, vals[1:]))  # decreasing in u
    sigmas = np.linspace(0.1, 4.0, 20)
    v_sig = [confidence_bound(MomentProfile(s * s, 1.0, 4.0), 1.0, 0.1).value
             for s in sigmas]
    assert all(a < b for a, b in zip(v_sig, v_sig[1:]))
    v_cq = [confidence_bound(MomentProfile(1.0, c, 4.0), 1.0, 0.1).value
            for c in np.linspace(0.1, 5.0, 20)]
    assert all(a < b for a, b in zip(v_cq, v_cq[1:]))
    v_d = [confidence_bound(UNIT, d, 0.1).value for d in np.linspace(1.0, 3.0, 20)]
    assert all(a < b for a, b in zip(v_d, v_d[1:]))


def test_confidence_bound_degenerate_profile():
    assert confidence_bound(MomentProfile(0.0, 0.0, 4.0), 1.0, 0.1).value == 0.0


def test_confidence_bound_level_validation():
    for bad in (0.0, 1.0, -0.2, 1.7):
        with pytest.raises(InvalidLevelError):
            confidence_bound(UNIT, 1.0, bad)


# ---------------------------------------------------------------- tail

def test_tail_bound_reference_value():
    res = tail_bound(UNIT, 1.0, 10.0)
    expected = 2 * (2 * constant_c(4.0, 1.0) / 10.0) ** 4 + 2 * math.exp(-100 / 8)
    assert res.value == pytest.approx(expected, rel=1e-15)
    assert res.kind == "tail_probability"


def test_tail_bound_limits():
    assert tail_bound(UNIT, 1.0, 1e6).value < 1e-20
    assert tail_bound(UNIT, 1.0, 0.01).value == 1.0  # clamped
    with pytest.raises(InvalidThresholdError):
        tail_bound(UNIT, 1.0, 0.0)


def test_tail_bound_monotone_in_t():
    ts = np.geomspace(0.5, 50.0, 60)
    vals = [tail_bound(UNIT, 1.0, float(t)).value for t in ts]
    assert all(a >= b for a, b in zip(vals, vals[1:]))


def test_tail_bound_zero_sigma_drops_gaussian_term():
    prof = MomentProfile(0.0, 1.0, 4.0)
    assert tail_bound(prof, 1.0, 10.0).value == pytest.approx(
        2 * (2 * constant_c(4.0, 1.0) / 10.0) ** 4, rel=1e-15)


def test_split_conditions_behind_the_tail_bound():
    # u* = gaussian piece + polynomial piece makes each summand of the
    # confidence bound at most t/2
    c = constant_c(4.0, 1.0)
    checked = 0
    for t in np.geomspace(0.5, 80.0, 40):
        u_star = 2 * (2 * c / t) ** 4 + 2 * math.exp(-t * t / 8)
        if u_star >= 1.0:
            continue  # the tail statement is vacuous there
        checked += 1
        assert math.sqrt(2 * math.log(2 / u_star)) <= t / 2 + 1e-12
        assert c * (2 / u_star) ** 0.25 <= t / 2 + 1e-12
    assert checked >= 15


# ---------------------------------------------------------------- iid sums

def test_independent_sum_reference_value():
    prof = MomentProfile(1.0, 1.0, 4.0)
    res = independent_sum_bound(prof, 100, 1.0, 0.1)
    expected = math.sqrt(2 * math.log(20.0) / 100) \
        + constant_c(4.0, 1.0) * (2 / (0.1 * 100.0 ** 3)) ** 0.25
    assert res.value == pytest.approx(expected, rel=1e-15)
    assert res.value == pytest.approx(0.4225481474743138, rel=1e-12)


def test_independent_sum_n1_equals_confidence_bound():
    prof = MomentProfile(2.5, 0.7, 3.5)
    assert independent_sum_bound(prof, 1, 1.5, 0.2).value \
        == confidence_bound(prof, 1.5, 0.2).value


def test_independent_sum_rejects_overflowing_threshold():
    # the threshold is 5.6e312 here, past the float range
    with pytest.raises(InvalidLevelError, match="overflows"):
        independent_sum_bound(MomentProfile(1, 1e308, 2.01), 1, 1.0, 1e-320)


def test_independent_sum_of_a_huge_count():
    # n^(q-1) = 1e320 would overflow; n^(-(q-1)/q) does not
    value = independent_sum_bound(MomentProfile(1, 1, 5), 10**80, 1.0, 0.1).value
    assert value == pytest.approx(constant_c(5, 1.0) * 20 ** 0.2 * 1e-64
                                  + math.sqrt(2 * math.log(20) / 1e80), rel=1e-12)
    with pytest.raises(ValueError, match="n must be below 2\\^1024"):
        independent_sum_bound(MomentProfile(1, 1, 5), 2**1024, 1.0, 0.1)


def test_independent_sum_decay_exponents():
    prof_gauss = MomentProfile(1.0, 0.0, 4.0)   # isolates the sqrt term
    prof_poly = MomentProfile(0.0, 1.0, 4.0)    # isolates the polynomial term
    ns = np.array([100, 1000, 10_000, 100_000], dtype=float)
    t1 = [independent_sum_bound(prof_gauss, int(n), 1.0, 0.1).value for n in ns]
    t2 = [independent_sum_bound(prof_poly, int(n), 1.0, 0.1).value for n in ns]
    s1 = np.polyfit(np.log(ns), np.log(t1), 1)[0]
    s2 = np.polyfit(np.log(ns), np.log(t2), 1)[0]
    assert s1 == pytest.approx(-0.5, abs=1e-9)
    assert s2 == pytest.approx(-0.75, abs=1e-9)


# ---------------------------------------------------------------- Holder

def test_holder_constants_uniform_inputs():
    # d_i = |.| on R, Z uniform(0,1): E(Z-Z')^2 = 1/6, E(Z-Z')^4 = 1/15
    m2, _ = integrate.dblquad(lambda z, w: (z - w) ** 2, 0, 1, 0, 1)
    m4, _ = integrate.dblquad(lambda z, w: (z - w) ** 4, 0, 1, 0, 1)
    assert m2 == pytest.approx(1 / 6, rel=1e-10)
    assert m4 == pytest.approx(1 / 15, rel=1e-10)
    spec = HolderSpec(holder_L=1.0, alpha=1.0,
                      coordinate_moments=tuple((m2, m4) for _ in range(10)))
    sigma_sq, cq_to_q = holder_constants(spec, 4.0)
    assert sigma_sq == pytest.approx(10 / 6, rel=1e-10)
    assert cq_to_q == pytest.approx(10 / 15, rel=1e-10)


def test_holder_moments_are_read_once_whatever_iterable_holds_them():
    # the checks must not use up a generator: that gave (0, 0), and a McDiarmid bound of 0
    pairs = ((1 / 6, 1 / 15),) * 10
    expected = holder_constants(HolderSpec(1.0, 1.0, pairs), 4.0)
    for moments in (((1 / 6, 1 / 15) for _ in range(10)), list(pairs), np.array(pairs)):
        spec = HolderSpec(holder_L=1.0, alpha=1.0, coordinate_moments=moments)
        assert len(spec.coordinate_moments) == 10
        assert holder_constants(spec, 4.0) == pytest.approx(expected, rel=1e-15)
        assert mcdiarmid_bound(*holder_constants(spec, 4.0), 4.0, 1.0, 0.1).value \
            == pytest.approx(mcdiarmid_bound(*expected, 4.0, 1.0, 0.1).value, rel=1e-15)


def test_holder_zero_constant():
    spec = HolderSpec(holder_L=0.0, alpha=1.0, coordinate_moments=((1.0, 1.0),))
    assert holder_constants(spec, 4.0) == (0.0, 0.0)


def test_holder_constants_overflow_to_inf_and_mcdiarmid_refuses_them():
    # L^q raised OverflowError: 1e300^4 is past the float range
    spec = HolderSpec(holder_L=1e300, alpha=1.0, coordinate_moments=((1.0, 1.0),))
    assert holder_constants(spec, 4.0) == (math.inf, math.inf)
    with pytest.raises(ValueError, match="^sigma_sq must be finite and >= 0, got inf"):
        mcdiarmid_bound(*holder_constants(spec, 4.0), 4.0, 1.0, 0.1)
    spec = HolderSpec(holder_L=1e100, alpha=1.0, coordinate_moments=((1.0, 1.0),))
    sigma_sq, cq_to_q = holder_constants(spec, 4.0)
    assert sigma_sq == 1e200 and cq_to_q == math.inf
    with pytest.raises(ValueError, match="^cq_to_q must be finite and >= 0, got inf"):
        mcdiarmid_bound(sigma_sq, cq_to_q, 4.0, 1.0, 0.1)
    # a zero moment sum gives a zero constant even where L^q overflows
    spec = HolderSpec(holder_L=1e300, alpha=1.0, coordinate_moments=((0.0, 0.0),))
    assert holder_constants(spec, 4.0) == (0.0, 0.0)


def test_holder_normed_coordinate_shortcut():
    # E d^p <= 2^p E ||Z||^p; for uniform(0,1), p = 2: 1/6 <= 4 * 1/3
    assert 1 / 6 <= 2 ** 2 * (1 / 3)
    assert 1 / 15 <= 2 ** 4 * (1 / 5)


def test_holder_spec_validation():
    with pytest.raises(ValueError):
        HolderSpec(holder_L=1.0, alpha=0.0, coordinate_moments=((1.0, 1.0),))
    with pytest.raises(ValueError):
        HolderSpec(holder_L=-1.0, alpha=1.0, coordinate_moments=((1.0, 1.0),))


# ---------------------------------------------------------------- McDiarmid

def test_mcdiarmid_reference_value_high_precision():
    got = mcdiarmid_bound(10 / 6, 10 / 15, 4.0, 1.0, 0.1).value
    with mpmath.workdps(50):
        sigma = mpmath.sqrt(mpmath.mpf(10) / 6)
        cq = (mpmath.mpf(10) / 15) ** mpmath.mpf("0.25")
        c = mpmath.mpf(1) / 8 + mpmath.mpf(1) / 5 + 1 + mpmath.mpf(4) / 3
        oracle = sigma * mpmath.sqrt(2 * mpmath.log(20)) + c * cq * 20 ** mpmath.mpf("0.25")
        assert got == pytest.approx(float(oracle), rel=1e-13)


def _threshold_oracle(sigma_sq, cq_to_q, q, D, u, n=1):
    """D sigma sqrt(2 log(2/u) / n) + c(q, D) C_q (2/u)^(1/q) n^(-(q-1)/q) in
    60 digits, the inputs taken as the exact values of their floats."""
    with mpmath.workdps(60):
        q, D, u, n = mpmath.mpf(q), mpmath.mpf(D), mpmath.mpf(u), mpmath.mpf(n)
        c = 1 / (2 * q) + min(1 / q, mpmath.mpf(1) / 5) + 1 + (D * D * q / 3 if q > 3 else 0)
        return float(D * mpmath.sqrt(mpmath.mpf(sigma_sq) * 2 * mpmath.log(2 / u) / n)
                     + c * mpmath.mpf(cq_to_q) ** (1 / q) * (2 / u) ** (1 / q)
                     * n ** (-(q - 1) / q))


@pytest.mark.parametrize("u", [5e-324, 1e-320, 1e-310])
@pytest.mark.parametrize("q, D", [(4.0, 1.0), (2.5, 1.5), (3.0, math.sqrt(3.0))])
def test_thresholds_at_a_level_where_two_over_u_overflows(u, q, D):
    # 2 / u overflows below u = 1.1e-308; the thresholds do not. The power
    # scales the rounding of the float 1/q by |log u| < 745: rel 1e-13
    assert 2.0 / u == math.inf
    prof = MomentProfile(sigma_sq=2.0, cq_to_q=0.5, q=q)
    want = _threshold_oracle(2.0, 0.5, q, D, u)
    assert confidence_bound(prof, D, u).value == pytest.approx(want, rel=1e-13)
    assert mcdiarmid_bound(2.0, 0.5, q, D, u).value == confidence_bound(prof, D, u).value
    got = independent_sum_bound(prof, 7, D, u).value
    assert got == pytest.approx(_threshold_oracle(2.0, 0.5, q, D, u, n=7), rel=1e-13)


@pytest.mark.parametrize("u", [0.1, 1e-3, 1e-100, 1e-307, 1.2e-308])
def test_thresholds_keep_their_bits_where_two_over_u_is_finite(u):
    prof, D = MomentProfile(sigma_sq=2.0, cq_to_q=0.5, q=4.0), 1.5
    c = constant_c(4.0, D)
    assert confidence_bound(prof, D, u).value == \
        D * prof.sigma * math.sqrt(2.0 * math.log(2.0 / u)) + c * prof.cq * (2.0 / u) ** 0.25
    assert independent_sum_bound(prof, 7, D, u).value == \
        D * prof.sigma * math.sqrt(2.0 * math.log(2.0 / u) / 7.0) \
        + c * prof.cq * (2.0 / u) ** 0.25 * 7.0 ** -0.75


def test_mcdiarmid_degenerate():
    assert mcdiarmid_bound(0.0, 0.0, 4.0, 1.0, 0.1).value == 0.0


def test_mcdiarmid_agrees_with_martingale_bound():
    # same formula as the confidence bound fed with the Doob profile
    prof = MomentProfile(sigma_sq=10 / 6, cq_to_q=10 / 15, q=4.0)
    assert mcdiarmid_bound(10 / 6, 10 / 15, 4.0, 1.0, 0.1).value \
        == confidence_bound(prof, 1.0, 0.1).value
