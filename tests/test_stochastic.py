import itertools
import math
import os
import re
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from scipy import integrate, stats
from scipy.special import gammaln

try:
    import resource
except ImportError:  # not on Windows
    resource = None

from fuknagaev.errors import (InfiniteMomentError, PreconditionError,
                              UnsupportedFunctionError)
from fuknagaev import stochastic
from fuknagaev.spaces import make_euclidean, make_lp
from fuknagaev.stochastic import (CoordinateTerm, DiscreteNormLaw,
                                  SeparableFunction, doob_martingale,
                                  gaussian, moment_profile,
                                  norm_moment, pinelis_check,
                                  pinelis_supermartingale_profile, rademacher,
                                  rio_moment_check, running_max_ensemble,
                                  sample_increments, student_t,
                                  symmetric_pareto, trial_seed,
                                  truncated_ensemble, truncated_norm_exp_moment,
                                  truncated_norm_mean, uniform_cube)

R1 = make_euclidean(1)
R2 = make_euclidean(2)


def _running_max(xi, space):
    """max_i ||M_i|| of the path of the (n, d) increments xi, by _paths."""
    return float(stochastic._paths(xi[None].copy(), space)[2][0])


def _sample(dist, n, seed):
    """n increments of a new Generator(Philox(seed)), drawn as every block is."""
    return stochastic._draw(dist, (n,), np.random.Generator(np.random.Philox(seed)))


def _truncate(xi, space, level):
    """xi with the increments that _kept drops at the level zeroed, as the
    iid kernel truncates."""
    return xi * stochastic._kept(space.norms(xi), level)[..., None]


# ---------------------------------------------------------------- sampling

def test_rademacher_support():
    xi = _sample(rademacher(R1, 1.0), 3, seed=7)
    assert set(np.unique(xi)) <= {-1.0, 1.0}


def test_sample_increments_is_an_array_read_only_for_a_trial_seed():
    # a trial seed's row is a view of the block that later calls share
    dist = gaussian(R2, 1.0)
    row = sample_increments(dist, 4, trial_seed(3, 1))
    assert type(row) is np.ndarray and row.shape == (4, 2) and row.dtype == np.float64
    assert not row.flags.writeable


def test_sampling_is_deterministic():
    d = symmetric_pareto(make_euclidean(3), 4.5)
    a = _sample(d, 100, seed=42)
    b = _sample(d, 100, seed=42)
    assert np.array_equal(a, b)
    c = _sample(d, 100, seed=43)
    assert not np.array_equal(a, c)


def test_pareto_mean_zero_clt_sanity():
    d = symmetric_pareto(R1, 4.5)
    xi = _sample(d, 10_000, seed=5).ravel()
    se = xi.std(ddof=1) / math.sqrt(len(xi))
    assert abs(xi.mean()) <= 4 * se


def test_radial_kinds_have_space_norm_equal_radius():
    # the norm of each increment follows the scalar radial law exactly
    sp = make_lp(4, 4)
    xi = _sample(rademacher(sp, 2.5), 50, seed=3)
    assert np.allclose(sp.norms(xi), 2.5, rtol=1e-12)


def test_uniform_cube_support():
    xi = _sample(uniform_cube(R2, 0.5), 100, seed=1)
    assert np.abs(xi).max() <= 0.5


# ---------------------------------------------------------------- moments

def test_gaussian_profile_closed_form():
    prof = moment_profile(gaussian(R1, 1.0), q=4, n=10)
    assert prof.sigma_sq == pytest.approx(10.0, rel=1e-12)
    assert prof.cq_to_q == pytest.approx(30.0, rel=1e-12)  # E N^4 = 3
    assert prof.mc_errors is None


def test_rademacher_profile_is_trivial():
    prof = moment_profile(rademacher(R1, 1.0), q=3, n=5)
    assert prof.sigma_sq == 5.0 and prof.cq_to_q == 5.0


def test_infinite_moment_rejected():
    with pytest.raises(InfiniteMomentError):
        moment_profile(symmetric_pareto(R1, 3.0), q=4, n=10)
    with pytest.raises(InfiniteMomentError):
        norm_moment(student_t(R1, 4.0), 4.0)


def test_pareto_moment_closed_form():
    # E R^p = alpha/(alpha-p) for the unit Pareto radius
    d = symmetric_pareto(make_euclidean(5), 4.5)
    assert norm_moment(d, 2.0) == pytest.approx(4.5 / 2.5, rel=1e-14)
    assert norm_moment(d, 4.0) == pytest.approx(4.5 / 0.5, rel=1e-14)


def test_student_moment_against_quadrature():
    d = student_t(R1, 5.0)
    law = stats.t(df=5.0)
    for p in (2.0, 3.0, 4.5):
        oracle, _ = integrate.quad(lambda x: 2.0 * x ** p * law.pdf(x), 0, np.inf)
        assert norm_moment(d, p) == pytest.approx(oracle, rel=1e-9)


def test_uniform_cube_moments_against_quadrature():
    assert norm_moment(uniform_cube(R1, 2.0), 3.0) == pytest.approx(2.0 ** 3 / 4, rel=1e-14)
    d3 = uniform_cube(make_euclidean(3), 1.0)
    assert norm_moment(d3, 2.0) == pytest.approx(1.0, rel=1e-14)
    oracle, _ = integrate.tplquad(
        lambda x, y, z: (x * x + y * y + z * z) ** 2 / 8.0,
        -1, 1, -1, 1, -1, 1)
    assert norm_moment(d3, 4.0) == pytest.approx(oracle, rel=1e-9)


# E ||xi||^p of every law in R^d, written out, each form in the order of its terms
_CLOSED_FORMS = {
    "rademacher_scale": lambda d, a, p: a ** p,
    "symmetric_pareto": lambda d, a, p: a / (a - p),
    "student_t": lambda d, a, p: math.exp(0.5 * p * math.log(a) + gammaln((p + 1) / 2)
                                          + gammaln((a - p) / 2) - 0.5 * math.log(math.pi)
                                          - gammaln(a / 2)),
    "gaussian": lambda d, a, p: 0.0 if a == 0.0 else a ** p * math.exp(
        0.5 * p * math.log(2.0) + gammaln((d + p) / 2) - gammaln(d / 2)),
    "uniform_cube": lambda d, a, p: (a ** p / (p + 1.0) if d == 1 else d * a * a / 3.0 if p == 2
                                     else d * a ** 4 / 5.0 + d * (d - 1) * a ** 4 / 9.0),
}


def _closed_form(kind, space, a, p):
    return _CLOSED_FORMS[kind](space.dimension, a, p)


def test_closed_forms_cover_every_law():
    assert set(_CLOSED_FORMS) == set(stochastic._LAWS)


_CLOSED_FORM_SPACES = (R1, make_euclidean(3), make_lp(1, 3.0), make_lp(16, 2.0))
# radial laws and point masses on any space; the Gaussian law on R^d, l^2 and
# in d = 1; the cube in d = 1
_CLOSED_FORM_LAWS = (
    [(law, a, space) for law, a in ((symmetric_pareto, 4.5), (symmetric_pareto, 7.0),
                                    (student_t, 5.0), (student_t, 30.0), (rademacher, 2.0),
                                    (gaussian, 0.0))
     for space in _CLOSED_FORM_SPACES + (make_lp(3, 3.0), make_lp(16, 6.0))]
    + [(gaussian, 1.5, space) for space in _CLOSED_FORM_SPACES]
    + [(uniform_cube, 0.7, space) for space in (R1, make_lp(1, 3.0))])


@pytest.mark.parametrize("law, a, space", _CLOSED_FORM_LAWS)
def test_norm_moments_equal_their_closed_forms(law, a, space):
    dist = law(space, a)
    for p in (2.0, 2.2, 2.5, 3.0, 3.5, 4.0, 4.4, 6.0, 6.5, 12.0):
        if p >= a and law in (symmetric_pareto, student_t):
            with pytest.raises(InfiniteMomentError):
                norm_moment(dist, p)
        else:
            assert norm_moment(dist, p) == _closed_form(dist.kind, space, a, p), p


@pytest.mark.parametrize("a", [0.7, 1.0, 2.5])
@pytest.mark.parametrize("d", [2, 3, 16])
def test_euclidean_cube_moments_equal_their_closed_forms(a, d):
    dist = uniform_cube(make_euclidean(d), a)
    for p in (2.0, 4.0):
        assert norm_moment(dist, p) == _closed_form(dist.kind, dist.space, a, p)
    assert stochastic._LAWS[dist.kind].moment(dist.space, a, 3.0) is None  # no closed form


def test_monte_carlo_moment_fallback_reports_error():
    # no closed form for odd norm powers of the cube in d > 1; the moment is
    # exact all the same, with no Monte Carlo error to report
    d2 = uniform_cube(R2, 1.0)
    prof = moment_profile(d2, q=3.0, n=1)
    assert prof.mc_errors is None
    oracle, _ = integrate.dblquad(
        lambda x, y: (x * x + y * y) ** 1.5, 0, 1, 0, 1, epsabs=0, epsrel=1e-13)
    assert prof.cq_to_q == pytest.approx(oracle, rel=1e-9, abs=0)


# ---------------------------------------------------------------- paths

def test_build_martingale_cancellation():
    # _paths builds the partial sums, their norms and the running maximum
    xi = np.array([[[1.0, 0.0], [-1.0, 0.0]]])
    sums, norms, top = stochastic._paths(xi, R2)
    assert sums.tolist() == [[[1.0, 0.0], [0.0, 0.0]]] and sums is xi
    assert norms.tolist() == [[1.0, 0.0]]
    assert top.tolist() == [1.0]


def test_build_martingale_single_increment():
    assert _running_max(np.array([[3.0, 4.0]]), R2) == 5.0


def test_build_martingale_monotone_sums():
    assert _running_max(np.array([[1.0], [1.0], [1.0]]), R1) == 3.0


def test_running_max_monotone_under_appending():
    rng = np.random.default_rng(0)
    xi = rng.standard_normal((30, 2))
    maxima = [_running_max(xi[:k], R2) for k in range(1, 31)]
    assert all(a <= b for a, b in zip(maxima, maxima[1:]))


# ---------------------------------------------------------------- truncation

def test_truncate_indicator_semantics():
    # the indicator 1{||xi|| <= L}: the boundary is kept
    assert stochastic._kept(np.array([0.5, 2.0, 1.0]), 1.0).tolist() == [True, False, True]


@pytest.mark.parametrize("space", [make_euclidean(5), make_lp(3, 4.0), make_lp(16, 2.5)])
def test_truncation_at_a_point_mass_keeps_every_increment(space):
    # some unit directions have a computed norm of 1 + 2^-52; a law of norm
    # 1 truncated at 1 is the law itself, in every truncating path
    dist = rademacher(space, 1.0)
    norms = space.norms(_sample(dist, 2000, seed=4))
    assert (norms > 1.0).any() and stochastic._kept(norms, 1.0).all()
    assert np.array_equal(truncated_ensemble(dist, 20, 500, 4, 1.0),
                          truncated_ensemble(dist, 20, 500, 4, math.inf))
    assert np.array_equal(running_max_ensemble(dist, 20, 500, 4, trunc_L=1.0),
                          running_max_ensemble(dist, 20, 500, 4))
    # the allowance is a relative 1e-12, no more
    edge = np.array([1.0 + 2.0 ** -52, 1.0 + 1e-9])
    assert stochastic._kept(edge, 1.0).tolist() == [True, False]


def test_truncate_large_level_is_identity():
    dist = symmetric_pareto(R1, 3.5)
    assert np.array_equal(truncated_ensemble(dist, 50, 20, 2, 1e12),
                          truncated_ensemble(dist, 50, 20, 2, math.inf))


def test_truncate_all_above_level():
    ens = truncated_ensemble(rademacher(R1, 2.0), 5, 10, 3, 1.0)
    assert ens.shape == (10, 5, 1) and np.all(ens == 0.0)


def test_truncate_never_increases_norms():
    dist = student_t(make_lp(3, 4), 3.0)
    full = dist.space.norms(truncated_ensemble(dist, 200, 5, 9, math.inf))
    out = dist.space.norms(truncated_ensemble(dist, 200, 5, 9, 1.7))
    assert np.all((out == full) | (out == 0.0)) and (out < full).any()
    assert np.all(out <= 1.7)


# ---------------------------------------------------------------- Doob paths

def test_doob_linear_reduces_to_partial_sums():
    rng = np.random.default_rng(4)
    z = rng.standard_normal(20)
    f = SeparableFunction(terms=tuple(CoordinateTerm(g=lambda v: v, mean=0.0)
                                      for _ in range(20)))
    assert np.array_equal(doob_martingale(f, z), np.cumsum(z[:, None], axis=0))


def test_doob_quadratic_uniform_inputs():
    # f(z) = sum z_i^2 with uniform(0,1) inputs: E Z^2 = 1/3
    rng = np.random.default_rng(11)
    z = rng.random(10)
    f = SeparableFunction(terms=tuple(CoordinateTerm(g=lambda v: v * v, mean=1.0 / 3.0)
                                      for _ in range(10)))
    path = doob_martingale(f, z)
    assert np.allclose(path.ravel(), np.cumsum(z * z - 1.0 / 3.0),
                       rtol=0, atol=1e-15)


def test_doob_constant_function_vanishes():
    f = SeparableFunction(terms=tuple(CoordinateTerm(g=lambda v: 2.5, mean=2.5)
                                      for _ in range(5)))
    path = doob_martingale(f, np.zeros(5))
    assert path.shape == (5, 1) and not path.any()


def test_doob_rejects_non_separable():
    with pytest.raises(UnsupportedFunctionError):
        doob_martingale(lambda z: z.sum() ** 2, np.zeros(3))


@pytest.mark.parametrize("term, match", [
    (CoordinateTerm(g=lambda z: z * np.nan, mean=0.0), "term 1: .*not finite"),
    (CoordinateTerm(g=lambda z: z, mean=math.inf), "term 1: .*not finite"),
    (CoordinateTerm(g=lambda z: z, mean=np.zeros(2)), r"term 1: .*does not fit \(rows, d\)"),
    (CoordinateTerm(g=lambda z: np.stack([z, z, z], axis=-1), mean=0.0), "term 1: .*does not fit"),
], ids=["nan g", "inf mean", "mean of length 2", "g in R^3"])
def test_doob_increments_that_are_not_finite_or_do_not_fit_name_their_term(term, match):
    # a nan maximum counts as no exceedance: a campaign on it would pass
    f = SeparableFunction(terms=(CoordinateTerm(g=lambda z: z, mean=0.5), term,
                                 CoordinateTerm(g=lambda z: z, mean=0.5)))
    with pytest.raises(ValueError, match=match):
        stochastic.doob_running_max_ensemble(f, _uniform_inputs, 10, 3)
    with pytest.raises(ValueError, match=match):
        doob_martingale(f, np.full(3, 0.25))


# ---------------------------------------------------------------- Pinelis

def test_pinelis_exact_enumeration_rademacher_n2():
    # brute force over the 4 sign paths
    total = sum(math.cosh(abs(e1 + e2)) for e1, e2 in
                itertools.product([-1, 1], repeat=2))
    exact = total / 4
    assert exact == pytest.approx(0.5 + 0.5 * math.cosh(2.0), rel=1e-15)
    e_term = math.e - 2.0
    assert exact <= (1.0 + e_term) ** 2
    assert (1.0 + e_term) ** 2 == pytest.approx((math.e - 1.0) ** 2, rel=1e-15)

    d = rademacher(R1, 1.0)
    ens = [sample_increments(d, 2, trial_seed(0, j)) for j in range(4000)]
    rep = pinelis_check(ens, t=1.0, D=1.0, dist=d)
    assert rep.e_term == pytest.approx(e_term, rel=1e-14)
    assert rep.product_bound == pytest.approx((math.e - 1.0) ** 2, rel=1e-14)
    assert abs(rep.empirical_cosh - exact) <= 4 * rep.standard_error
    assert rep.passed


def test_pinelis_small_t_both_sides_near_one():
    d = rademacher(R1, 1.0)
    ens = [sample_increments(d, 5, trial_seed(1, j)) for j in range(500)]
    rep = pinelis_check(ens, t=1e-6, D=1.0, dist=d)
    assert rep.empirical_cosh == pytest.approx(1.0, abs=1e-9)
    assert rep.product_bound == pytest.approx(1.0, abs=1e-9)
    assert rep.passed


def test_pinelis_e_term_of_a_point_mass_at_small_t():
    # D^2 phi(t a), phi(y) = e^y - 1 - y, by its series where the difference cancels
    d = rademacher(R1, 1.0)
    ens = [sample_increments(d, 5, trial_seed(1, j)) for j in range(500)]
    for t in (1e-300, 1e-10, 1e-3, 1e-2):
        phi = math.fsum(t ** k / math.factorial(k) for k in range(2, 20))
        for D in (1.0, 2.0):
            rep = pinelis_check(ens, t=t, D=D, dist=d)
            assert rep.e_term == pytest.approx(D * D * phi, rel=1e-15, abs=0.0) and rep.passed
            state = pinelis_supermartingale_profile(ens, t=t, D=D, dist=d)
            assert np.all(state.e_terms == rep.e_term) and state.passed
    # above y = 1e-2 the difference keeps its bits
    for t in (0.1, 0.5, 1.0):
        assert pinelis_check(ens, t=t, D=1.0, dist=d).e_term == math.exp(t) - 1.0 - t


def test_pinelis_e_term_is_never_negative():
    # the truncated moments' difference rounds to -1.1e-16 here; phi >= 0 reads it as 0
    d = symmetric_pareto(make_euclidean(5), 4.5)
    ens = truncated_ensemble(d, 20, 2000, seed=11, trunc_L=3.0)
    for t in (1e-300, 1e-100, 1e-20):
        assert truncated_norm_exp_moment(d, t, 3.0) - 1.0 - t * truncated_norm_mean(d, 3.0) < 0
        rep = pinelis_check(ens, t=t, D=1.0, dist=d, trunc_L=3.0)
        assert (rep.e_term, rep.product_bound, rep.passed) == (0.0, 1.0, True)
        assert pinelis_supermartingale_profile(ens, t=t, D=1.0, dist=d, trunc_L=3.0).passed


def test_pinelis_empty_path_trivial_bound():
    d = rademacher(R1, 1.0)
    ens = [np.empty((0, 1)) for _ in range(200)]
    rep = pinelis_check(ens, t=1.0, D=1.0, dist=d)
    assert rep.empirical_cosh == 1.0
    assert rep.product_bound == 1.0
    assert rep.passed


def test_pinelis_requires_truncation_for_unbounded_laws():
    d = symmetric_pareto(R1, 3.5)
    ens = [sample_increments(d, 5, trial_seed(2, j)) for j in range(100)]
    with pytest.raises(PreconditionError):
        pinelis_check(ens, t=0.5, D=1.0, dist=d)


def test_pinelis_checks_take_the_zero_law_without_truncation():
    # the point mass 0 is bounded: e_term 0, a product of 1, and every G_i is 1
    d = gaussian(make_euclidean(3), 0.0)
    ens = truncated_ensemble(d, 6, 300, seed=4, trunc_L=1.0)
    assert not ens.any()
    rep = pinelis_check(ens, t=0.5, D=1.0, dist=d)
    assert (rep.e_term, rep.product_bound, rep.empirical_cosh, rep.passed) == (0.0, 1.0, 1.0, True)
    state = pinelis_supermartingale_profile(ens, t=0.5, D=1.0, dist=d)
    assert state.passed and not state.e_terms.any() and (state.g_means == 1.0).all()
    with pytest.raises(PreconditionError, match="gaussian increments are unbounded"):
        pinelis_check(ens, t=0.5, D=1.0, dist=gaussian(make_euclidean(3), 1.0))


def test_pinelis_truncated_pareto_passes():
    d = symmetric_pareto(make_euclidean(3), 4.5)
    L = 3.0
    ens = [_truncate(sample_increments(d, 8, trial_seed(3, j)), d.space, L)
           for j in range(4000)]
    rep = pinelis_check(ens, t=0.5, D=1.0, dist=d, trunc_L=L)
    assert rep.passed


def test_pinelis_supermartingale_profile_stays_below_one():
    d = rademacher(R1, 1.0)
    ens = [sample_increments(d, 12, trial_seed(5, j)) for j in range(3000)]
    state = pinelis_supermartingale_profile(ens, t=0.8, D=1.0, dist=d)
    assert state.g_means[0] == 1.0
    assert state.passed
    # population E G_i is nonincreasing; allow Monte Carlo slack
    slack = 3 * state.g_standard_errors[1:] + 3 * state.g_standard_errors[:-1]
    assert np.all(np.diff(state.g_means) <= slack)


def test_truncated_norm_moments_match_sampling():
    d = symmetric_pareto(R1, 4.5)
    L = 2.0
    norms = R1.norms(_truncate(_sample(d, 200_000, seed=8), R1, L))
    mgf_mc = np.exp(0.7 * norms).mean()
    assert truncated_norm_exp_moment(d, 0.7, L) == pytest.approx(mgf_mc, rel=5e-3)
    assert truncated_norm_mean(d, L) == pytest.approx(norms.mean(), rel=5e-3)


# ---------------------------------------------------------------- Rio

def _two_point_laws():
    # ||xi~_i|| in {0, a_i}: closed-form moments a_i^k p_i
    return [DiscreteNormLaw(values=(0.0, 0.6), probs=(0.5, 0.5)),
            DiscreteNormLaw(values=(0.0, 0.9), probs=(0.75, 0.25))]


def test_rio_endpoint_k2_is_tight():
    laws = _two_point_laws()
    m2 = sum(law.moment(2) for law in laws)
    rep = rio_moment_check(laws, q=4.0, k=2.0, sigma=math.sqrt(m2), trunc_L=0.9)
    assert rep.lhs == pytest.approx(rep.rhs, rel=1e-12)
    assert rep.passed


def test_rio_endpoint_k_equals_q():
    laws = _two_point_laws()
    m2 = sum(law.moment(2) for law in laws)
    rep = rio_moment_check(laws, q=4.0, k=4.0, sigma=math.sqrt(m2), trunc_L=0.9)
    assert rep.rhs == 1.0  # sigma^0 = L^0 = 1
    assert rep.passed


def test_rio_interior_and_truncation_branches():
    laws = _two_point_laws()
    m2 = sum(law.moment(2) for law in laws)
    mid = rio_moment_check(laws, q=4.0, k=3.0, sigma=math.sqrt(m2), trunc_L=0.9)
    assert mid.branch == "interpolation" and mid.passed
    # independent recomputation of both sides
    assert mid.lhs == pytest.approx(0.5 * 0.6 ** 3 + 0.25 * 0.9 ** 3, rel=1e-14)
    assert mid.rhs == pytest.approx(m2 ** (1.0 / 2.0), rel=1e-14)  # sigma^(2*1/2)
    high = rio_moment_check(laws, q=4.0, k=6.0, sigma=math.sqrt(m2), trunc_L=0.9)
    assert high.branch == "truncation" and high.passed
    assert high.rhs == pytest.approx(0.9 ** 2, rel=1e-14)


def test_rio_precondition_violations():
    laws = _two_point_laws()
    with pytest.raises(PreconditionError):
        rio_moment_check(laws, q=4.0, k=3.0, sigma=0.1, trunc_L=0.9)
    with pytest.raises(PreconditionError):
        rio_moment_check(laws, q=4.0, k=3.0, sigma=1.0, trunc_L=0.5)
    big = [DiscreteNormLaw(values=(2.0,), probs=(1.0,))]
    with pytest.raises(PreconditionError):
        rio_moment_check(big, q=4.0, k=3.0, sigma=2.0, trunc_L=2.0)


# ---------------------------------------------------------------- ensembles

def _allocations(n, trials):
    """Calls that allocate n increments or trials paths, each with its
    message: the per-trial block, the iid kernel's block buffers, and the
    result arrays of truncated_ensemble (large in n) and running_max_ensemble
    (large in trials)."""
    sign, increments = rademacher(R1, 1.0), f"n = {n} increments in R^1"
    return [(lambda: sample_increments(sign, n, trial_seed(0, 0)), increments),
            (lambda: running_max_ensemble(sign, n, 100, 0), increments),
            (lambda: truncated_ensemble(sign, n, 100, 0, 1.0),
             f"trials = 100 paths of {increments}"),
            (lambda: running_max_ensemble(sign, 5, trials, 0),
             f"trials = {trials} paths of n = 5 increments in R^1")]


@pytest.mark.parametrize("case", range(4))
def test_allocations_that_do_not_fit_name_their_count(case, monkeypatch):
    # a stub stands in for numpy's MemoryError past 1e9 values; nothing large is allocated
    empty = np.empty

    def refusing(shape, *args, **kwargs):
        if np.prod(shape, dtype=object) > 10**9:
            raise MemoryError(f"Unable to allocate an array with shape {shape}")
        return empty(shape, *args, **kwargs)

    sample_increments(rademacher(R1, 1.0), 5, trial_seed(0, 0))  # a block to drop
    monkeypatch.setattr(np, "empty", refusing)
    call, message = _allocations(10**11, 10**13)[case]
    with pytest.raises(ValueError, match=f"^{re.escape(message)} do not fit in memory$"):
        call()
    assert case or stochastic._last_block is None  # the failed draw keeps no block


@pytest.mark.parametrize("case", range(4))
def test_shapes_past_numpys_largest_name_their_count(case):
    # numpy refuses these shapes before it allocates anything
    call, message = _allocations(10**30, 10**30)[case]
    with pytest.raises(ValueError, match=f"^{re.escape(message)} do not fit in memory$"):
        call()


def _block_rows(dist, n, trials, seed, trunc_L=None):
    """The block contract, restated: block b holds trials [b B, (b+1) B) and
    draws all B of them in one call of B n increments from seed (seed, b).
    Blocks are recomputed here in reverse order."""
    B = max(1, stochastic._BLOCK_VALUES // (n * dist.space.dimension))
    rows = [None] * trials
    for b in reversed(range(-(-trials // B))):
        xi = sample_increments(dist, B * n, trial_seed(seed, b))
        for j in range(b * B, min((b + 1) * B, trials)):
            row = xi[(j - b * B) * n:(j - b * B + 1) * n]
            rows[j] = row if trunc_L is None else _truncate(row, dist.space, trunc_L)
    return B, rows


def test_ensemble_order_independent():
    d, n = gaussian(R2, 1.0), 2000
    rm = running_max_ensemble(d, n, trials=50, seed=77)
    # recompute each block out of order from its own seed
    B, rows = _block_rows(d, n, 50, 77)
    assert B == 16
    shuffled = np.array([_running_max(row, d.space) for row in rows])
    assert np.array_equal(rm, shuffled)


_LAWS = [gaussian(R2, 1.0), uniform_cube(R2, 0.5), rademacher(R2, 1.0),
         symmetric_pareto(R2, 4.5), student_t(R2, 5.0)]


@pytest.mark.parametrize("trunc_L", [None, 1.5])
@pytest.mark.parametrize("dist", _LAWS, ids=lambda d: d.kind)
def test_block_stream_contract(dist, trunc_L):
    n, trials, seed = 700, 100, 5
    rm = running_max_ensemble(dist, n, trials, seed, trunc_L=trunc_L)
    B, rows = _block_rows(dist, n, trials, seed, trunc_L)
    assert B == 46 and trials % B != 0  # three blocks, the last one partial
    # blocks recomputed out of order give their paths' maxima, bit for bit
    assert np.array_equal(rm, [_running_max(row, dist.space) for row in rows])
    # a shorter run is a prefix, also when it ends inside a block
    for k in (1, B + 3):
        assert np.array_equal(running_max_ensemble(dist, n, k, seed, trunc_L=trunc_L),
                              rm[:k])
    if trunc_L is not None:
        ens = truncated_ensemble(dist, n, trials, seed, trunc_L)
        assert np.array_equal(ens, rows)
        assert len(ens) == trials


def _serial_blocks(dist, n, trials, seed, trunc_L):
    """The engine's per-block work as a plain serial loop: (maxima, trials)."""
    B = max(1, stochastic._BLOCK_VALUES // (n * dist.space.dimension))
    maxima, rows = [], []
    for b in range(-(-trials // B)):
        rng = np.random.Generator(np.random.Philox(trial_seed(seed, b)))
        xi = stochastic._draw(dist, (B, n), rng)[:trials - b * B]
        if trunc_L is not None:
            xi = _truncate(xi, dist.space, trunc_L)
        rows.extend(xi.copy())
        maxima.extend(stochastic._paths(xi, dist.space)[2])
    return np.array(maxima), rows


# d = 16, so B = 5 at n = 700: pow in place (l^2.5) and products of |x| (l^3, l^4)
_LP_LAWS = [law(make_lp(16, p), param) for p in (3.0, 4.0, 2.5)
            for law, param in ((gaussian, 1.0), (uniform_cube, 0.5), (rademacher, 1.0),
                               (symmetric_pareto, 4.5), (student_t, 5.0))]


@pytest.mark.parametrize("cpus", [None, 1, 3])  # None: the host's usable CPUs
@pytest.mark.parametrize("trials", [5, 46, 100])  # R^2: below B, B, not a multiple of B
@pytest.mark.parametrize("trunc_L", [None, 1.5])
@pytest.mark.parametrize("dist", _LAWS + _LP_LAWS,
                         ids=lambda d: d.kind if d.space.dimension == 2
                         else f"{d.kind}-l{d.space.p:g}")
def test_threaded_blocks_equal_serial_loop(dist, trunc_L, trials, cpus, monkeypatch):
    # the engine draws into per-worker buffers; the reference allocates every array
    n, seed = 700, 5
    if cpus is not None:
        monkeypatch.setattr(stochastic, "_usable_cpus", lambda: cpus)
    maxima, rows = _serial_blocks(dist, n, trials, seed, trunc_L)
    assert np.array_equal(running_max_ensemble(dist, n, trials, seed, trunc_L=trunc_L), maxima)
    if trunc_L is not None:
        ens = truncated_ensemble(dist, n, trials, seed, trunc_L)
        assert len(ens) == trials
        assert np.array_equal(ens, rows)


class _BlockFailed(Exception):
    pass


@pytest.mark.parametrize("cpus", [1, 2, 4])
def test_worker_exception_reaches_caller_and_leaves_no_thread(cpus, monkeypatch):
    calls, real = [], stochastic._draw

    def failing(dist, shape, rng, out, scratch):
        calls.append(shape)
        if len(calls) == 3:
            raise _BlockFailed("block failed")
        return real(dist, shape, rng, out, scratch)

    monkeypatch.setattr(stochastic, "_usable_cpus", lambda: cpus)
    monkeypatch.setattr(stochastic, "_draw", failing)
    before = threading.active_count()
    for ensemble in (running_max_ensemble, truncated_ensemble):
        calls.clear()
        with pytest.raises(_BlockFailed):
            ensemble(gaussian(R2, 1.0), 700, 46 * 400, 5, 1.5)
        assert threading.active_count() == before
        assert len(calls) < 400  # the queued blocks were cancelled
    assert len(running_max_ensemble(gaussian(R2, 1.0), 700, 46 * 4, 5)) == 46 * 4
    assert threading.active_count() == before


_CHURN = """
import resource, sys
from fuknagaev import stochastic
from fuknagaev.spaces import make_lp
stochastic._usable_cpus = lambda: 1
dist = stochastic.student_t(make_lp(16, 4.0), 5.0)
stochastic.running_max_ensemble(dist, 1000, 200, 7)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
stochastic.running_max_ensemble(dist, 1000, 200, 8)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(resource is None, reason="no resource module on this platform")
def test_ensemble_blocks_reuse_their_buffers():
    # 50 blocks of 4 trials, 512 KB of increments each: a worker that drew
    # each block into fresh arrays would fault in their pages block after
    # block. A fresh interpreter, because how malloc hands out blocks of
    # this size depends on what the process freed before.
    src = str(Path(stochastic.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    out = subprocess.run([sys.executable, "-c", _CHURN], env=env, capture_output=True,
                         text=True, timeout=120, check=True).stdout
    assert int(out) < 2000


@pytest.mark.parametrize("cpus", [1, 4])
def test_truncated_blocks_are_fresh_arrays(cpus, monkeypatch):
    # the returned array shares no memory with a later call's result or
    # buffers, and holds only the trials asked for, the partial last block's too
    monkeypatch.setattr(stochastic, "_usable_cpus", lambda: cpus)
    dist, n, trials, L = student_t(make_lp(16, 4.0), 5.0), 1000, 10, 2.0  # B = 4
    ens = truncated_ensemble(dist, n, trials, 3, L)
    kept = ens.copy()
    running_max_ensemble(dist, n, trials, 4, L)
    later = truncated_ensemble(dist, n, trials, 5, L)
    assert np.array_equal(ens, kept)
    assert np.array_equal(ens, _serial_blocks(dist, n, trials, 3, L)[1])
    assert not np.shares_memory(ens, later)
    assert ens.shape == (trials, n, 16) and ens.base is None


def test_block_buffers_stay_per_worker_under_fast_thread_switching(monkeypatch):
    # eight workers on 2^16-value blocks, switching threads every microsecond:
    # a worker that wrote into another's buffers or rows would change some
    # maxima or increments
    monkeypatch.setattr(stochastic, "_usable_cpus", lambda: 8)
    dist, n, trials = symmetric_pareto(make_lp(16, 2.5), 4.5), 200, 400  # B = 20
    maxima, rows = _serial_blocks(dist, n, trials, 11, 3.0)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            assert np.array_equal(running_max_ensemble(dist, n, trials, 11, 3.0), maxima)
            assert np.array_equal(truncated_ensemble(dist, n, trials, 11, 3.0), rows)
    finally:
        sys.setswitchinterval(interval)


def _uniform_inputs(rng, n):
    return rng.random(n)


def test_doob_ensemble_matches_doob_martingale():
    # constant, scalar and R^2-valued terms: each g is called once per block
    # on a column, and doob_martingale gives the partial sums of one row
    terms = (CoordinateTerm(g=lambda z: 2.5, mean=2.5),
             CoordinateTerm(g=lambda z: z * z, mean=1.0 / 3.0),
             CoordinateTerm(g=lambda z: np.stack([z, z * z], axis=-1),
                            mean=np.array([0.5, 1.0 / 3.0])))
    f = SeparableFunction(terms=terms * 1366, space=R2)
    n, trials, seed = len(f.terms), 17, 3
    B = stochastic._BLOCK_VALUES // (n * 2)
    assert B == 7
    expected = []
    for b in range(-(-trials // B)):
        rng = np.random.Generator(np.random.Philox(trial_seed(seed, b)))
        for _ in range(min(B, trials - b * B)):
            expected.append(R2.norms(doob_martingale(f, _uniform_inputs(rng, n))).max())
    maxima = stochastic.doob_running_max_ensemble(f, _uniform_inputs, trials, seed)
    assert np.array_equal(maxima, expected)
    constant = SeparableFunction(terms=terms[:1] * 4)
    assert np.array_equal(
        stochastic.doob_running_max_ensemble(constant, _uniform_inputs, 5, seed),
        np.zeros(5))


def test_doob_callbacks_run_on_calling_thread_in_trial_order(monkeypatch):
    # call k of sample_inputs returns k in every input, and the path of a
    # trial is a single step of size |z|, so trial j's maximum is the index of
    # the call that made it
    monkeypatch.setattr(stochastic, "_usable_cpus", lambda: 4)
    threads, calls = set(), []

    def inputs(rng, n):
        threads.add(threading.get_ident())
        calls.append(rng)
        return np.full(n, float(len(calls) - 1))

    def g(z):
        threads.add(threading.get_ident())
        return z

    f = SeparableFunction(terms=(CoordinateTerm(g=g, mean=0.0),))
    trials = 3 * stochastic._BLOCK_VALUES + 5  # four blocks of B = 2^16
    maxima = stochastic.doob_running_max_ensemble(f, inputs, trials, 3)
    assert np.array_equal(maxima, np.arange(trials))
    assert threads == {threading.get_ident()}
    assert len({id(rng) for rng in calls}) == 4


def test_moment_profile_refuses_moments_that_underflow():
    for dist, q, named in ((gaussian(make_euclidean(3), 1e-300), 4.0, "scale = 1e-300"),
                           (rademacher(R1, 1e-200), 4.0, "scale = 1e-200"),
                           (uniform_cube(make_euclidean(3), 1e-160), 4.0, "half width = 1e-160"),
                           # only E||xi||^40 = 1e-400 underflows
                           (rademacher(R1, 1e-10), 40.0, "scale = 1e-10")):
        with pytest.raises(ValueError, match=f"{named} underflows n E"):
            moment_profile(dist, q, 5)
    prof = moment_profile(gaussian(make_euclidean(3), 0.0), 4.0, 5)  # the point mass 0
    assert prof.sigma_sq == prof.cq_to_q == 0.0


def test_moment_profile_of_an_n_past_the_float_range_is_refused():
    with pytest.raises(ValueError, match="n must be below 2\\^1024"):
        moment_profile(rademacher(R1, 1.0), 4.0, 2**1024)
    assert moment_profile(rademacher(R1, 1.0), 4.0, 2**1023).sigma_sq == 2.0**1023
