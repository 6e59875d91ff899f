import itertools
import math
import sys
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import minimize_scalar
from scipy.special import gammainc

from fuknagaev import bounds, cli
from fuknagaev.bounds import constant_c
from fuknagaev.errors import DomainError, InvalidQError
from fuknagaev.legendre import (CgfPieces, bercu_infimum, cgf_pieces, inverse_legendre,
                                log_poly_check, proof_chain, psi_tail,
                                quadratic_closed_form, rio36_check,
                                truncation_error_bound)
from fuknagaev.spaces import make_euclidean, smoothness_certificate
from fuknagaev.stochastic import MomentProfile, rademacher
from fuknagaev.verify import CampaignConfig, crossover_scan


# ---------------------------------------------------------------- psi tail

def test_psi_examples():
    assert psi_tail(2, 1.0) == pytest.approx(math.e - 2.0, rel=1e-13)
    assert psi_tail(4, 2.0) == pytest.approx(math.exp(2) - 1 - 2 - 2 - 8 / 6, rel=1e-13)
    assert psi_tail(7, 0.0) == 0.0


def test_psi_against_incomplete_gamma():
    # sum_{k>=m} t^k/k! = e^t P(m, t) with the regularized lower gamma
    for q in (2.0, 2.5, 3.0, 5.7, 10.0):
        m = math.ceil(q)
        for t in np.geomspace(1e-3, 300.0, 40):
            oracle = math.exp(t) * gammainc(m, t)
            assert psi_tail(q, t) == pytest.approx(oracle, rel=1e-12)


def test_psi_noninteger_q_starts_at_ceiling():
    # 2 < q < 3 starts at k = 3, identical to q = 3
    assert psi_tail(2.5, 0.7) == psi_tail(3, 0.7)


def _psi_tail_series(q, t):
    """sum_{k >= ceil(q)} t^k / k! summed term by term at 50 digits."""
    m = math.ceil(q)
    with mpmath.workdps(50):
        t = mpmath.mpf(t)
        term = t ** m / mpmath.factorial(m)
        total = mpmath.mpf(0)
        k = m
        while k <= t or term > total * mpmath.mpf(10) ** -55:
            total += term
            k += 1
            term *= t / k
        return float(total)


def test_psi_against_exact_series_scalar_and_array():
    # below the smallest normal float fewer than 53 bits remain, so the
    # relative tolerance gets that absolute floor
    ts = np.concatenate([[0.0], np.geomspace(1e-20, 700.0, 60)])
    for q in (2.5, 3.0, 5.7, 10.0, 20.0):
        oracle = [_psi_tail_series(q, t) for t in ts]
        values = psi_tail(q, ts)
        assert values.shape == ts.shape
        assert values == pytest.approx(oracle, rel=1e-12, abs=sys.float_info.min)
        for t, v in zip(ts, values):
            assert psi_tail(q, float(t)) == v


def test_psi_rejects_negative_t():
    with pytest.raises(ValueError):
        psi_tail(4.0, -1.0)
    with pytest.raises(ValueError):
        psi_tail(4.0, np.array([1.0, -1e-300]))


_NAN, _INF = math.nan, math.inf


@pytest.mark.parametrize("call, match", [
    pytest.param(lambda: psi_tail(_NAN, 1.0), "^q must be finite and > 0, got nan",
                 id="psi_tail-q-nan"),
    pytest.param(lambda: psi_tail(_INF, 1.0), "^q must be finite and > 0, got inf",
                 id="psi_tail-q-inf"),
    pytest.param(lambda: psi_tail(4.0, _NAN), "^t must be >= 0, got nan", id="psi_tail-t-nan"),
    pytest.param(lambda: psi_tail(4.0, np.array([1.0, _NAN])), "^t must be >= 0, got nan",
                 id="psi_tail-t-array-nan"),
    pytest.param(lambda: cgf_pieces(4.0, _NAN, 1.0), "^sigma must be finite and >= 0, got nan",
                 id="cgf_pieces-sigma-nan"),
    pytest.param(lambda: cgf_pieces(4.0, _INF, 1.0), "^sigma must be finite and >= 0, got inf",
                 id="cgf_pieces-sigma-inf"),
    pytest.param(lambda: cgf_pieces(4.0, -1.0, 1.0), "^sigma must be finite and >= 0, got -1",
                 id="cgf_pieces-sigma-negative"),
    pytest.param(lambda: cgf_pieces(4.0, 1.0, _INF), "^trunc_L must be finite and > 0, got inf",
                 id="cgf_pieces-L-inf"),
    pytest.param(lambda: cgf_pieces(4.0, 1.0, _NAN), "^trunc_L must be finite and > 0, got nan",
                 id="cgf_pieces-L-nan"),
    pytest.param(lambda: cgf_pieces(4.0, 1.0, 0.0), "^trunc_L must be finite and > 0, got 0",
                 id="cgf_pieces-L-zero"),
    pytest.param(lambda: rio36_check(4.0, _NAN), "^x must be finite and > 0, got nan",
                 id="rio36_check-x-nan"),
    pytest.param(lambda: rio36_check(4.0, _INF), "^x must be finite and > 0, got inf",
                 id="rio36_check-x-inf"),
    pytest.param(lambda: rio36_check(4.0, 0.0), "^x must be finite and > 0, got 0",
                 id="rio36_check-x-zero"),
    pytest.param(lambda: log_poly_check(_NAN, 3.0), "^x must be finite and > 0, got nan",
                 id="log_poly_check-x-nan"),
    pytest.param(lambda: log_poly_check(_INF, 3.0), "^x must be finite and > 0, got inf",
                 id="log_poly_check-x-inf"),
    pytest.param(lambda: log_poly_check(2.0, _NAN), "^q must be finite and > 0, got nan",
                 id="log_poly_check-q-nan"),
    pytest.param(lambda: log_poly_check(2.0, _INF), "^q must be finite and > 0, got inf",
                 id="log_poly_check-q-inf"),
    pytest.param(lambda: quadratic_closed_form(_NAN, 1.0, 1.0),
                 "^sigma must be finite and >= 0, got nan", id="quadratic_closed_form-sigma-nan"),
    pytest.param(lambda: quadratic_closed_form(1.0, _NAN, 1.0),
                 "^D must be finite and >= 1, got nan", id="quadratic_closed_form-D-nan"),
    pytest.param(lambda: quadratic_closed_form(1.0, 1.0, _NAN),
                 "^x must be finite and >= 0, got nan", id="quadratic_closed_form-x-nan"),
    pytest.param(lambda: bercu_infimum(_NAN, 1.0, 1.0), "^c must be finite and > 0, got nan",
                 id="bercu_infimum-c-nan"),
    pytest.param(lambda: inverse_legendre(lambda t: t * t, _NAN),
                 "^x must be finite and >= 0, got nan", id="inverse_legendre-x-nan"),
    pytest.param(lambda: smoothness_certificate(make_euclidean(2), 10, 0, check_D=_NAN),
                 r"^check_D must lie in \[0, 1e\+150\), got nan",
                 id="smoothness_certificate-D-nan"),
    pytest.param(lambda: CampaignConfig(dist=rademacher(make_euclidean(1), 1.0), n=5,
                                        trials=100, q=4.0, D=_INF, u_grid=(0.1,), seed=0),
                 "^D must be finite and >= the smoothness constant 1 of the space, got inf",
                 id="CampaignConfig-D-inf"),
    pytest.param(lambda: crossover_scan(MomentProfile(100.0, 1.0, 4.0), 1.0, (1.0, _INF)),
                 "^t_hi must be finite and > t_lo = 1.0, got inf", id="crossover_scan-t_hi-inf")])
def test_legendre_inputs_out_of_range_raise_naming_the_parameter(call, match):
    # each gave nan, a FAIL with nan sides, a warning or an error naming no parameter
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=match):
            call()


# ---------------------------------------------------------------- cgf pieces

def test_cgf_orders():
    assert cgf_pieces(3.0, 1.0, 1.0).ell1_orders == ()
    assert cgf_pieces(4.0, 1.0, 1.0).ell1_orders == (3,)
    assert cgf_pieces(6.0, 1.0, 1.0).ell1_orders == (3, 4, 5)
    assert cgf_pieces(3.5, 1.0, 1.0).ell1_orders == (3,)


def test_cgf_piece_values():
    p = cgf_pieces(4.0, 1.0, 2.0)
    assert p.ell0(2.0) == 2.0  # t^2/2 at sigma=1
    assert p.ell1(1.5) == pytest.approx(1.5 ** 3 / 6.0, rel=1e-14)
    assert p.ell2(0.5) == pytest.approx(2.0 ** -4 * psi_tail(4.0, 1.0), rel=1e-14)
    p3 = cgf_pieces(3.0, 2.0, 1.0)
    assert p3.ell1(10.0) == 0.0


def test_cgf_pieces_on_arrays():
    ts = np.geomspace(1e-3, 30.0, 17)
    for q in (3.0, 5.5):
        p = cgf_pieces(q, 0.7, 1.3)
        for piece in (p.ell0, p.ell1, p.ell2):
            values = piece(ts)
            assert values.shape == ts.shape
            assert values == pytest.approx([piece(float(t)) for t in ts], rel=1e-15)
    assert np.array_equal(cgf_pieces(3.0, 0.7, 1.3).ell1(ts), np.zeros_like(ts))


def test_cgf_pieces_built_directly_are_checked():
    # CgfPieces(4.0, nan, 1.0).ell0(1.0) was nan: the checks ran in cgf_pieces only
    with pytest.raises(ValueError, match="^sigma must be finite and >= 0, got nan$"):
        CgfPieces(4.0, math.nan, 1.0)
    with pytest.raises(ValueError, match="^trunc_L must be finite and > 0, got 0$"):
        CgfPieces(4.0, 1.0, 0)
    with pytest.raises(InvalidQError):
        CgfPieces(2.0, 1.0, 1.0)
    pieces = CgfPieces(4, 1, 2)
    assert pieces == cgf_pieces(4.0, 1.0, 2.0)
    assert [type(v) for v in (pieces.q, pieces.sigma, pieces.trunc_L)] == [float] * 3


def test_cgf_pieces_nonnegative_nondecreasing():
    p = cgf_pieces(5.5, 0.7, 1.3)
    ts = np.linspace(0.01, 4.0, 50)
    for piece in (p.ell0, p.ell1, p.ell2):
        vals = [piece(t) for t in ts]
        assert all(v >= 0 for v in vals)
        assert all(a <= b + 1e-15 for a, b in zip(vals, vals[1:]))


# ---------------------------------------------------------------- transform

def test_inverse_legendre_unit_quadratic():
    # inf_t (t^2/2 + x)/t = sqrt(2x), attained at t = sqrt(2x)
    assert inverse_legendre(lambda t: t * t / 2, 2.0) == pytest.approx(2.0, rel=1e-10)
    assert inverse_legendre(lambda t: t * t / 2, 8.0) == pytest.approx(4.0, rel=1e-10)


def test_inverse_legendre_zero_x_limit():
    assert inverse_legendre(lambda t: t * t / 2, 0.0) == pytest.approx(0.0, abs=1e-12)


def test_inverse_legendre_monotone_in_x():
    psi = lambda t: 0.3 * t ** 3
    xs = np.linspace(0.0, 10.0, 25)
    vals = [inverse_legendre(psi, x) for x in xs]
    assert all(a <= b + 1e-12 for a, b in zip(vals, vals[1:]))


def test_inverse_legendre_subadditive_in_psi():
    f = lambda t: t * t / 2
    g = lambda t: t ** 3 / 6
    for x in (0.3, 1.0, 4.0):
        combined = inverse_legendre(lambda t: f(t) + g(t), x)
        assert combined <= inverse_legendre(f, x) + inverse_legendre(g, x) + 1e-10


def test_inverse_legendre_domain_error():
    with pytest.raises(DomainError):
        inverse_legendre(lambda t: math.inf, 1.0)


def test_inverse_legendre_calls_psi_on_arrays():
    seen = []

    def constant(t):
        seen.append(t)
        return 1.0

    assert inverse_legendre(constant, 3.0) == pytest.approx(4.0 * math.exp(-700.0),
                                                            rel=1e-15, abs=0)
    assert seen and all(isinstance(t, np.ndarray) and t.ndim == 1 for t in seen)


def test_inverse_legendre_inf_entries_bound_the_search():
    # (t^2/2 + 8)/t falls on (0, 2), so with psi = inf from t = 2 on the
    # infimum is its limit 5 at t = 2
    psi = lambda t: np.where(t < 2.0, t * t / 2, np.inf)
    assert inverse_legendre(psi, 8.0) == pytest.approx(5.0, rel=1e-9)
    nan_psi = lambda t: np.where(t < 2.0, t * t / 2, np.nan)
    assert inverse_legendre(nan_psi, 8.0) == inverse_legendre(psi, 8.0)


def test_inverse_legendre_psi_that_raises():
    def overflowing(t):
        raise OverflowError("too large")

    with pytest.raises(DomainError):
        inverse_legendre(overflowing, 1.0)
    with pytest.raises(TypeError):  # a scalar-only psi is not masked
        inverse_legendre(lambda t: math.exp(t), 1.0)


@settings(max_examples=100, deadline=None)
@given(sigma=st.floats(1e-3, 1e3), D=st.floats(1.0, 10.0), x=st.floats(1e-3, 1e3))
def test_inverse_legendre_matches_quadratic_closed_form(sigma, D, x):
    numeric = inverse_legendre(lambda t: D * D * sigma * sigma * t * t / 2, x)
    assert numeric == pytest.approx(quadratic_closed_form(sigma, D, x), rel=1e-12)


@settings(max_examples=100, deadline=None)
@given(c=st.floats(1e-3, 1e3), v=st.floats(1e-3, 1e3), x=st.floats(1e-3, 1e3))
def test_inverse_legendre_matches_bercu_infimum(c, v, x):
    # v t / (2 (1 - c t)) + x / t is (psi(t) + x) / t for this psi
    psi = lambda t: np.where(c * t < 1.0, v * t * t / (2.0 * (1.0 - c * t)), np.inf)
    assert inverse_legendre(psi, x) == pytest.approx(bercu_infimum(c, v, x), rel=1e-12)


@pytest.mark.parametrize("sigma", [1e-30, 1e-20, 1e25, 1e100])
def test_inverse_legendre_finds_minimum_beyond_the_scan(sigma):
    # the argmin t* = sqrt(2 x) / sigma lies above e^46 or below e^-46
    numeric = inverse_legendre(lambda t: sigma * sigma * t * t / 2, 3.0)
    assert numeric == pytest.approx(quadratic_closed_form(sigma, 1.0, 3.0), rel=1e-12, abs=0)


def test_inverse_legendre_boundary_infimum_ends_at_the_limit():
    # inf_t (1 + 3) / t = 0 is approached as t grows; the scan stops at e^700
    assert inverse_legendre(lambda t: 1.0, 3.0) == pytest.approx(
        4.0 * math.exp(-700.0), rel=1e-12, abs=0)


def test_quadratic_closed_form_matches_transform():
    for sigma, D, x in [(0.5, 1.0, math.log(20.0)), (1.0, 2.0, 2.0), (3.0, 1.5, 0.7)]:
        closed = quadratic_closed_form(sigma, D, x)
        numeric = inverse_legendre(lambda t: D * D * sigma * sigma * t * t / 2, x)
        assert numeric == pytest.approx(closed, rel=1e-8)
    assert quadratic_closed_form(0.5, 1.0, math.log(20.0)) == pytest.approx(1.2238734, rel=1e-6)
    assert quadratic_closed_form(1.0, 2.0, 2.0) == 4.0
    assert quadratic_closed_form(0.7, 1.0, 0.0) == 0.0
    assert quadratic_closed_form(0.0, 1.0, 5.0) == 0.0


# ---------------------------------------------------------------- appendix B

def _bercu_numeric(c, v, x):
    res = minimize_scalar(lambda t: v * t / (2 * (1 - c * t)) + x / t,
                          bounds=(1e-12, (1 - 1e-12) / c), method="bounded",
                          options={"xatol": 1e-14})
    return res.fun


def test_bercu_examples():
    assert bercu_infimum(1.0, 2.0, 2.0) == pytest.approx(2 + math.sqrt(8), rel=1e-14)
    assert bercu_infimum(0.5, 1.0, 8.0) == pytest.approx(8.0, rel=1e-14)
    # v = 0 degenerates to c*x, the limit as t -> 1/c
    assert bercu_infimum(2.0, 0.0, 3.0) == 6.0


def test_bercu_against_independent_minimizer():
    for c in (0.1, 1.0, 4.0):
        for v in (0.05, 1.0, 30.0):
            for x in (0.2, 2.0, 11.0):
                assert bercu_infimum(c, v, x) == pytest.approx(
                    _bercu_numeric(c, v, x), rel=1e-8)


def test_log_poly_inequality():
    for q in (0.3, 1.0, 4.0, 17.0):
        eq = log_poly_check(math.exp(q), q)
        assert eq.passed and eq.lhs == pytest.approx(eq.rhs, rel=1e-12)
    one = log_poly_check(1.0, 3.0)
    assert one.lhs == 0.0 and one.passed
    rng = np.random.default_rng(17)
    for _ in range(2000):
        x = float(np.exp(rng.uniform(np.log(1e-6), np.log(1e6))))
        q = float(rng.uniform(0.1, 50.0))
        assert log_poly_check(x, q).passed


def test_rio36_point_and_sweep():
    r = rio36_check(3.0, 1.0)
    assert r.lhs == pytest.approx(math.e - 2.5, rel=1e-12)
    assert r.rhs == pytest.approx(math.e * 0.2, rel=1e-14)
    assert r.passed
    # lhs vanishes as x -> 0+
    assert rio36_check(4.0, 1e-8).lhs < 1e-20
    for q in (2.5, 3.0, 4.0, 6.0, 10.0):
        for x in np.geomspace(1e-3, 50.0, 60):
            assert rio36_check(q, float(x)).passed


def test_rio36_verdict_where_exp_overflows():
    # math.exp(800) raised OverflowError; e^x cancels from the verdict
    r = rio36_check(4.0, 800.0)
    assert r.passed and r.lhs == r.rhs == math.inf
    assert rio36_check(4.0, 700.0).passed


def test_sides_just_below_the_overflow_of_exp_are_finite():
    # e^x is finite up to log(float max) = 709.7827; a limit of 709.78 read these as inf
    x = 709.781
    r = rio36_check(4.0, x)
    assert math.isfinite(r.lhs) and r.rhs == pytest.approx(math.exp(x) / 5.0, rel=1e-15)
    poly = log_poly_check(math.exp(x), 1.0)
    assert poly.passed and poly.rhs == pytest.approx(math.exp(x - 1.0), rel=1e-14)


def test_truncation_error_bound_values():
    assert truncation_error_bound(4.0, 0.1) == pytest.approx(
        10 ** 0.25 * 2 ** -0.75, rel=1e-14)
    assert truncation_error_bound(4.0, 1 - 1e-12) == pytest.approx(2 ** -0.75, rel=1e-9)
    # decreasing in q at fixed u = 0.1 (since 2/u > e makes the exponent work)
    row = [truncation_error_bound(q, 0.1) for q in (2.5, 3.0, 4.0, 6.0, 10.0)]
    assert all(a > b for a, b in zip(row, row[1:]))


# ---------------------------------------------------------------- proof chain

def test_proof_chain_reference_point():
    rep = proof_chain(4.0, 1.0, 0.5, 0.1)
    assert rep.x_hat == pytest.approx(math.log(20.0), rel=1e-15)
    assert rep.trunc_L == pytest.approx(20.0 ** 0.25, rel=1e-15)
    assert rep.alpha_qD == pytest.approx(1.2, rel=1e-15)
    steps = {s.name: s for s in rep.steps}
    assert steps["ell0"].rhs == pytest.approx(
        math.sqrt(2 * math.log(20.0)) * 0.5, rel=1e-14)
    assert rep.all_passed
    assert rep.final_coefficient == constant_c(4.0, 1.0)


@pytest.mark.parametrize("sigma", [1e-20, 1e-30])
def test_proof_chain_passes_when_ell0_argmin_is_beyond_the_scan(sigma, capsys):
    assert proof_chain(4.0, 1.0, sigma, 0.1).all_passed
    argv = ["proofcheck", "--q", "4", "--D", "1", "--sigma", repr(sigma), "--u", "0.1"]
    assert cli.run(argv) == 0


@pytest.mark.parametrize("q", [2.5, 3.0, 4.0, 10.0])
def test_proof_chain_passes_where_sigma_squared_is_subnormal(q, capsys):
    # sigma^2 is subnormal from about 1.5e-154 and zero below about 1e-162
    for sigma in (1e-155, 1e-160, 1e-200, 1e-300):
        assert proof_chain(q, 1.0, sigma, 0.1).all_passed, sigma
    argv = ["proofcheck", "--q", repr(q), "--D", "1", "--sigma", "1e-160", "--u", "0.1"]
    assert cli.run(argv) == 0


@pytest.mark.parametrize("q", [2.5, 3.0, 10.0])
def test_proof_chain_rejects_an_ell0_argmin_past_the_scan_limit(q, capsys):
    # sqrt(2 log 20) / sigma passes e^700 just below sigma = 2.5e-304
    assert proof_chain(q, 1.0, 2.6e-304, 0.1).all_passed
    for sigma in (2.4e-304, 1e-310, 5e-324):
        with pytest.raises(ValueError, match="ell0 minimiser lies past t = e\\^700"):
            proof_chain(q, 1.0, sigma, 0.1)
    argv = ["proofcheck", "--q", repr(q), "--D", "1", "--sigma", "1e-305", "--u", "0.1"]
    assert cli.run(argv) == 2
    assert "ell0 minimiser" in capsys.readouterr().err


@pytest.mark.parametrize("q, D, sigma, u", [(4.0, 1.0, 1.0, 5e-324), (3.0, 1.0, 1.0, 5e-324),
                                         (2.5, 1.0, 1.0, 5e-324), (10.0, 1.5, 5.0, 5e-324),
                                         (6.0, 2.0, 0.5, 1e-320)])
def test_proof_chain_passes_where_two_over_u_overflows(q, D, sigma, u):
    # the chain takes log(2/u) and (2/u)^(1/q) as the bounds do
    rep = proof_chain(q, D, sigma, u)
    assert rep.all_passed
    assert (rep.x_hat, rep.trunc_L) == bounds._two_over(u, q)
    assert rep.x_hat == pytest.approx(math.log(2.0) - math.log(u), rel=1e-15)


def _one_lane_transforms(q, D, sigma, u):
    """Each transform of proof_chain as its own inverse_legendre call."""
    DD, x_hat = D * D, math.log(2.0 / u)
    p = cgf_pieces(q, sigma, (2.0 / u) ** (1.0 / q))
    psis = {"ell2": lambda t: DD * p.ell2(t),
            "ell0": lambda t: DD * p.ell0(t),
            "combined": lambda t: DD * (p.ell0(t) + p.ell1(t) + p.ell2(t))}
    if q > 3:
        psis["ell1+ell2"] = lambda t: DD * (p.ell1(t) + p.ell2(t))
        psis["ell0+ell1"] = lambda t: DD * (p.ell0(t) + p.ell1(t))
    return {name: inverse_legendre(psi, x_hat) for name, psi in psis.items()}


def _assert_chain_equals_one_lane_searches(q, D, sigma, u):
    lhs = {s.name: s.lhs for s in proof_chain(q, D, sigma, u).steps}
    one_lane = _one_lane_transforms(q, D, sigma, u)
    assert one_lane.keys() <= lhs.keys()
    for name, value in one_lane.items():
        assert lhs[name] == value, (name, q, D, sigma, u)


@pytest.mark.parametrize("q", [2.5, 3.0, 3.5, 4.0, 7.5, 20.0])
def test_lock_step_chain_equals_one_lane_searches(q):
    # sigma = 1e-160 puts the ell0 argmin above the scan, 1e30 below it
    for D, sigma, u in itertools.product((1.0, 2.0), (1e-160, 1e-3, 0.7, 1e30),
                                         (0.5, 1e-3, 1e-9)):
        _assert_chain_equals_one_lane_searches(q, D, sigma, u)


@pytest.mark.parametrize("point", [(3.0, 2.0, 1.0, 0.1), (8.0, math.sqrt(2.0), 1.0, 0.5),
                                   (10.0, 1.0, 5.0, 0.01)])
def test_lock_step_lanes_stop_on_their_own_rule(point):
    # here a lane zoomed on after its own bracket is narrow enough, until
    # every lane's is, ends with a different lhs
    _assert_chain_equals_one_lane_searches(*point)


def test_proof_chain_low_q_branch_skips_ell1():
    rep = proof_chain(2.5, 1.0, 0.5, 0.1)
    names = [s.name for s in rep.steps]
    assert "ell1+ell2" not in names and "ell0+ell1" not in names
    assert "combined" in names
    assert rep.all_passed


def test_final_coefficient_matches_constant_exactly():
    for q in (2.5, 3.0, 4.0, 6.0):
        for d in (1.0, 2.0):
            assert proof_chain(q, d, 0.7, 0.2).final_coefficient == constant_c(q, d)
    assert proof_chain(3.0, 1.0, 1.0, 0.5).final_coefficient == 41 / 30


def test_proof_chain_rejects_bad_inputs():
    with pytest.raises(InvalidQError):
        proof_chain(2.0, 1.0, 1.0, 0.1)
    with pytest.raises(ValueError):
        proof_chain(4.0, 0.5, 1.0, 0.1)
    with pytest.raises(ValueError):
        proof_chain(4.0, 1.0, 1.0, 1.5)


def test_xhat_over_L_never_exceeds_q_over_e():
    for q in (2.5, 3.0, 4.0, 6.0, 10.0):
        for u in np.geomspace(1e-6, 0.99, 30):
            x_hat = math.log(2 / u)
            L = (2 / u) ** (1 / q)
            assert x_hat / L <= q / math.e + 1e-12


def test_ell1_over_t_squared_nondecreasing():
    p = cgf_pieces(6.0, 0.4, 1.0)
    ts = np.linspace(0.05, 8.0, 80)
    vals = [p.ell1(t) / (t * t) for t in ts]
    assert all(a <= b + 1e-15 for a, b in zip(vals, vals[1:]))
