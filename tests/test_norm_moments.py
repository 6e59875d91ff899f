"""Exact norm moments of the Gaussian and cube laws on l^p, which have no
closed form: `stochastic._product_norm_moment` against independent oracles
(chi moments, the cube d = 1 closed form, exact sums for integer powers of
S = sum |xi_i|^p, two- and three-dimensional quadrature), its verified
range, and the profiles built from it."""

import contextlib
import io
import math
import time

import mpmath as mp
import numpy as np
import pytest
from scipy import integrate
from scipy.special import gammaln

from fuknagaev import cli
from fuknagaev.spaces import make_euclidean, make_lp
from fuknagaev.stochastic import (_product_norm_moment, gaussian, moment_profile,
                                  norm_moment, uniform_cube)

DIMS = (1, 2, 3, 16, 64)
EXPONENTS = (2.0, 2.5, 3.0, 4.0, 6.0, 12.0, 32.0)
ORDERS = np.linspace(2.0, 64.0, 63)  # integer and half-integer orders up to the limit
LAWS = {"gaussian": gaussian, "uniform_cube": uniform_cube}


def _rel(got, want):
    return abs(got / want - 1.0)


@pytest.mark.parametrize("d", DIMS)
def test_gaussian_p2_matches_chi_moments(d):
    a = 1.3
    for order in ORDERS:
        chi = a ** order * math.exp(0.5 * order * math.log(2.0) + gammaln((d + order) / 2)
                                    - gammaln(d / 2))
        assert _rel(_product_norm_moment(gaussian(make_lp(d, 2.0), a), order), chi) <= 1e-10


@pytest.mark.parametrize("p", EXPONENTS)
def test_d1_matches_closed_forms(p):
    for order in ORDERS:
        cube = _product_norm_moment(uniform_cube(make_lp(1, p), 0.7), order)
        assert _rel(cube, 0.7 ** order / (order + 1.0)) <= 1e-10
        half_normal = math.exp(0.5 * order * math.log(2.0) + gammaln((order + 1) / 2)
                               - 0.5 * math.log(math.pi))
        assert _rel(_product_norm_moment(gaussian(make_lp(1, p)), order), half_normal) <= 1e-10


def _exact_integer_moment(law, p, d, k):
    """E S^k for S = sum of d iid X = |xi/a|^p, as k! times the x^k
    coefficient of (sum_j E X^j x^j / j!)^d, at 40 digits."""
    with mp.workdps(40):
        p = mp.mpf(p)
        ex = [1 / (p * j + 1) if law == "uniform_cube"
              else 2 ** (p * j / 2) * mp.gamma((p * j + 1) / 2) / mp.sqrt(mp.pi)
              for j in range(k + 1)]
        base = [ex[j] / mp.factorial(j) for j in range(k + 1)]
        power = [mp.mpf(1)] + [mp.mpf(0)] * k
        for bit in bin(d)[2:]:  # square and multiply
            power = _mp_product(power, power)
            power = _mp_product(power, base) if bit == "1" else power
        return float(power[k] * mp.factorial(k))


def _mp_product(a, b):
    return [sum(a[i] * b[j - i] for i in range(j + 1)) for j in range(len(a))]


@pytest.mark.parametrize("law", LAWS)
@pytest.mark.parametrize("p", EXPONENTS)
@pytest.mark.parametrize("d", DIMS + (10_000,))
def test_integer_powers_match_exact_sums(law, p, d):
    dist = LAWS[law](make_lp(d, p), 1.0)
    for k in range(1, int(64 // p) + 1):
        exact = _exact_integer_moment(law, p, d, k)
        assert _rel(_product_norm_moment(dist, p * k), exact) <= 1e-10, k
        assert _rel(norm_moment(dist, p * k), exact) <= 1e-10, k


def test_cube_l3_example():
    dist = uniform_cube(make_lp(16, 3.0), 1.0)
    assert norm_moment(dist, 3.0) == pytest.approx(4.0, rel=1e-12)  # 16 E U^3
    assert norm_moment(dist, 6.0) == pytest.approx(16 / 7 + 240 / 16, rel=1e-12)


def _normal(x):
    return math.exp(-x * x / 2) / math.sqrt(2 * math.pi)


def _norm_power(p, order):
    return lambda *x: sum(v ** p for v in x) ** (order / p)


@pytest.mark.parametrize("p,order", [(2.5, 4.5), (3.0, 2.0), (6.0, 7.3)])
def test_d2_matches_dblquad(p, order):
    f = _norm_power(p, order)
    cube = integrate.dblquad(f, 0, 1, 0, 1, epsabs=0, epsrel=1e-13)[0]
    assert _rel(norm_moment(uniform_cube(make_lp(2, p), 1.0), order), cube) <= 1e-10
    gauss = 4 * integrate.dblquad(lambda y, x: f(x, y) * _normal(x) * _normal(y),
                                  0, np.inf, 0, np.inf, epsabs=0, epsrel=1e-13)[0]
    assert _rel(norm_moment(gaussian(make_lp(2, p), 1.0), order), gauss) <= 1e-10


@pytest.mark.parametrize("p,order", [(3.0, 2.0), (4.0, 4.5), (6.0, 7.3)])
def test_d3_cube_matches_tplquad(p, order):
    cube = integrate.tplquad(_norm_power(p, order), 0, 1, 0, 1, 0, 1, epsabs=0, epsrel=1e-12)[0]
    assert _rel(norm_moment(uniform_cube(make_lp(3, p), 1.0), order), cube) <= 1e-10


@pytest.mark.parametrize("p,order", [(2.5, 4.5), (3.0, 3.3), (12.0, 40.5)])
def test_d2_matches_mpmath(p, order):
    # in d = 2 both laws reduce to one integral: for the cube, by y = s x on
    # x > y; for the Gaussian, in polar form with a chi(2) radius
    with mp.workdps(30):
        p, order = mp.mpf(p), mp.mpf(order)
        cube = 2 / (order + 2) * mp.quad(lambda s: (1 + s ** p) ** (order / p), [0, 1])
        gauss = 2 ** (order / 2) * mp.gamma(1 + order / 2) * 2 / mp.pi * mp.quad(
            lambda t: (mp.cos(t) ** p + mp.sin(t) ** p) ** (order / p), [0, mp.pi / 4, mp.pi / 2])
    for law, oracle in ((uniform_cube, cube), (gaussian, gauss)):
        assert _rel(_product_norm_moment(law(make_lp(2, float(p)), 1.0), float(order)),
                    float(oracle)) <= 1e-12


@pytest.mark.parametrize("law", LAWS.values())
@pytest.mark.parametrize("d", [1, 3, 16])
def test_l2_profiles_equal_euclidean(law, d):
    for q in (3.0, 4.0, 4.5):
        assert moment_profile(law(make_lp(d, 2.0), 0.8), q, 7) == \
            moment_profile(law(make_euclidean(d), 0.8), q, 7)


@pytest.mark.parametrize("order,p,d", [(64.5, 3.0, 3), (1e3, 3.0, 3), (1e300, 3.0, 3),
                                       (math.nan, 3.0, 3), (4.0, 32.5, 3), (4.0, 1e6, 3),
                                       (4.0, 3.0, 10_001), (4.0, 3.0, 10 ** 9)])
def test_outside_the_verified_range_raises(order, p, d):
    for law in LAWS.values():
        with pytest.raises(ValueError, match="computed for orders <= 64, p <= 32 and d <= 10000"):
            _product_norm_moment(law(make_lp(d, p), 1.0), order)


@pytest.mark.parametrize("q", ["64.5", "1e3", "1e300"])
@pytest.mark.parametrize("dist,space", [("gaussian", ["--p", "3"]),
                                        ("uniform_cube", ["--p", "3"]),
                                        ("uniform_cube", []), ("gaussian", []),
                                        ("rademacher", [])])
def test_verify_past_the_limit_exits_2(dist, space, q):
    argv = ["verify", "--dist", dist, "--alpha", "3.5", "--dim", "3", *space, "--n", "20",
            "--trials", "300", "--q", q, "--u", "0.5,0.1", "--seed", "5"]
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(argv)
    # gaussian and rademacher laws in R^3 have closed forms: past 64 they
    # run, and at 1e3 their moment overflows and is rejected
    if q == "64.5" and not space and dist != "uniform_cube":
        assert code == 0
    else:
        assert code == 2 and err.getvalue().startswith("error: ")
    assert time.perf_counter() - start < 1.0
    assert "nan" not in (out.getvalue() + err.getvalue()).lower()
