"""Acceptance gate: every criterion prints one PASS/FAIL line (run pytest
with -s to see them) and asserts both the verdict and its runtime budget."""

import itertools
import math
import time

import numpy as np
from scipy import integrate
from scipy.optimize import minimize_scalar

from fuknagaev.bounds import (HolderSpec, confidence_bound, constant_c,
                              holder_constants, independent_sum_bound,
                              mcdiarmid_bound)
from fuknagaev.legendre import bercu_infimum, log_poly_check, proof_chain
from fuknagaev.quantile import cvar_q1, make_sample, q_infinity, quantile_triple
from fuknagaev.spaces import make_euclidean, make_lp, smoothness_certificate
from fuknagaev.stochastic import (CoordinateTerm, MomentProfile,
                                  SeparableFunction, doob_running_max_ensemble,
                                  pinelis_check, rademacher, symmetric_pareto,
                                  truncated_ensemble)
from fuknagaev.verify import CampaignConfig, clopper_pearson_upper, verify_confidence

R1 = make_euclidean(1)


def _report(num, name, ok, elapsed, limit):
    print(f"\ncriterion {num} ({name}): {'PASS' if ok else 'FAIL'} "
          f"in {elapsed:.2f}s (limit {limit:.0f}s)")
    assert ok, f"criterion {num} ({name}) failed"
    assert elapsed < limit, f"criterion {num} exceeded its {limit}s budget"


def test_criterion_1_constant_correctness():
    start = time.perf_counter()
    ok = constant_c(3.0, 1.0) == 41 / 30
    for q in (2.1, 2.5, 3.0, 3.0001, 4.0, 6.0, 10.0):
        for d in (1.0, math.sqrt(3), 2.0):
            expected = 1 / (2 * q) + min(1 / q, 1 / 5) + 1 \
                + (d * d * q / 3 if q > 3 else 0.0)
            ok &= constant_c(q, d) == expected
    _report(1, "constant correctness", ok, time.perf_counter() - start, 1.0)


def test_criterion_2_coverage():
    start = time.perf_counter()
    levels = (0.5, 0.2, 0.1, 0.05, 0.01)
    ok = True
    for dist, seed in ((rademacher(R1, 1.0), 20240501),
                       (symmetric_pareto(make_euclidean(5), 4.5), 20240502)):
        config = CampaignConfig(dist=dist, n=50, trials=100_000, q=4.0, D=1.0,
                                u_grid=levels, seed=seed)
        report = verify_confidence(config)
        for row in report.rows:
            ok &= row.cp_upper <= row.level
    _report(2, "empirical coverage", ok, time.perf_counter() - start, 300.0)


def test_criterion_3_proof_chain():
    start = time.perf_counter()
    ok = True
    for q in (2.5, 3.0, 3.5, 4.0, 6.0):
        for d in (1.0, 2.0):
            for sigma in (0.1, 0.5, 1.0, 5.0):
                for u in (0.01, 0.1, 0.5):
                    rep = proof_chain(q, d, sigma, u)
                    ok &= rep.all_passed
                    ok &= rep.final_coefficient == constant_c(q, d)
    _report(3, "proof-chain validation", ok, time.perf_counter() - start, 10.0)


def test_criterion_4_appendix_closed_forms():
    start = time.perf_counter()
    ok = True
    for c in np.geomspace(0.05, 5.0, 10):
        for v in np.geomspace(0.01, 50.0, 10):
            for x in np.geomspace(0.1, 20.0, 10):
                numeric = minimize_scalar(
                    lambda t: v * t / (2 * (1 - c * t)) + x / t,
                    bounds=(1e-12, (1 - 1e-12) / c), method="bounded",
                    options={"xatol": 1e-14}).fun
                ok &= abs(bercu_infimum(c, v, x) - numeric) <= 1e-8 * abs(numeric)
    rng = np.random.default_rng(20240504)
    xs = np.exp(rng.uniform(math.log(1e-6), math.log(1e6), size=100_000))
    qs = rng.uniform(0.1, 50.0, size=100_000)
    ok &= bool(np.all(np.log(xs) <= (qs / math.e) * xs ** (1.0 / qs) + 1e-300))
    for q in (0.5, 1.0, 3.0, 20.0):
        eq = log_poly_check(math.exp(q), q)
        ok &= abs(eq.lhs - eq.rhs) <= 1e-12 * abs(eq.rhs)
    _report(4, "closed-form infimum and log inequality", ok,
            time.perf_counter() - start, 10.0)


def test_criterion_5_quantile_calculus():
    start = time.perf_counter()
    rng = np.random.default_rng(20240505)
    ok = True
    levels = np.arange(1, 10) / 10
    for _ in range(100):
        n = int(rng.integers(2, 80))
        scale = float(rng.uniform(0.5, 10.0))
        vals = np.round(rng.standard_normal(n) * scale, 6)
        sample = make_sample(vals)
        for u in levels:
            got = cvar_q1(sample, float(u))
            variational = min(t + np.maximum(vals - t, 0.0).mean() / u
                              for t in vals)
            ok &= abs(got - variational) <= 1e-9
            trip = quantile_triple(sample, float(u))
            ok &= trip.q <= trip.q1 <= trip.qinf
            thresh = q_infinity(sample, float(u)).value
            ok &= float((vals > thresh).mean()) <= u
    _report(5, "quantile calculus", ok, time.perf_counter() - start, 30.0)


def test_criterion_6_exponential_moment_bound():
    start = time.perf_counter()
    # exact enumeration, four sign paths of length 2 at t = 1
    exact = sum(math.cosh(abs(a + b)) for a, b in
                itertools.product([-1, 1], repeat=2)) / 4
    ok = exact == 0.5 + 0.5 * math.cosh(2.0)
    ok &= exact <= (math.e - 1.0) ** 2
    dist = rademacher(R1, 1.0)
    for n in (5, 20):
        ens = truncated_ensemble(dist, n, 20_000, 20240506 + n, math.inf)
        for t in (0.1, 0.5, 1.0):
            rep = pinelis_check(ens, t=t, D=1.0, dist=dist)
            ok &= rep.passed
            # closed form E cosh(t S_n) = cosh(t)^n for sign increments
            ok &= abs(rep.empirical_cosh - math.cosh(t) ** n) \
                <= 5 * max(rep.standard_error, 1e-12)
    _report(6, "exponential moment bound", ok, time.perf_counter() - start, 60.0)


def test_criterion_7_smoothness_certificates():
    start = time.perf_counter()
    eu = smoothness_certificate(make_euclidean(4), 10_000, seed=20240507)
    ok = eu.passed and eu.max_abs_gap <= 1e-12 * eu.scale
    for p in (2, 3, 4, 8):
        rep = smoothness_certificate(make_lp(4, p), 10_000, seed=20240507)
        ok &= rep.passed and rep.smoothness_D == math.sqrt(p - 1)
    undersized = smoothness_certificate(make_lp(4, 4), 10_000, seed=20240507,
                                        check_D=1.0)
    ok &= (not undersized.passed) and undersized.max_violation > 0
    _report(7, "smoothness certificates", ok, time.perf_counter() - start, 10.0)


def test_criterion_8_mcdiarmid_route():
    start = time.perf_counter()
    # closed-form integrals for uniform(0,1) coordinate moments
    m2, _ = integrate.dblquad(lambda z, w: (z - w) ** 2, 0, 1, 0, 1)
    m4, _ = integrate.dblquad(lambda z, w: (z - w) ** 4, 0, 1, 0, 1)
    spec = HolderSpec(holder_L=1.0, alpha=1.0,
                      coordinate_moments=tuple((m2, m4) for _ in range(10)))
    sigma_sq, c4_to_4 = holder_constants(spec, 4.0)
    ok = abs(sigma_sq - 10 / 6) <= 1e-9 and abs(c4_to_4 - 10 / 15) <= 1e-9

    terms = tuple(CoordinateTerm(g=lambda z: z * z, mean=1.0 / 3.0)
                  for _ in range(10))
    f = SeparableFunction(terms=terms)
    maxima = doob_running_max_ensemble(
        f, lambda rng, n: rng.random(n), trials=100_000, seed=20240508)
    for u in (0.1, 0.05, 0.01):
        bound = mcdiarmid_bound(10 / 6, 10 / 15, 4.0, 1.0, u).value
        exceed = int((maxima > bound).sum())
        ok &= clopper_pearson_upper(exceed, len(maxima), 0.99) <= u
    _report(8, "heavy-tailed McDiarmid route", ok, time.perf_counter() - start, 120.0)


def test_criterion_9_independent_sum_scaling():
    start = time.perf_counter()
    ns = np.array([100, 1_000, 10_000, 100_000], dtype=float)
    gauss_only = MomentProfile(sigma_sq=1.0, cq_to_q=0.0, q=4.0)
    poly_only = MomentProfile(sigma_sq=0.0, cq_to_q=1.0, q=4.0)
    t1 = [independent_sum_bound(gauss_only, int(n), 1.0, 0.1).value for n in ns]
    t2 = [independent_sum_bound(poly_only, int(n), 1.0, 0.1).value for n in ns]
    s1 = float(np.polyfit(np.log(ns), np.log(t1), 1)[0])
    s2 = float(np.polyfit(np.log(ns), np.log(t2), 1)[0])
    ok = abs(s1 - (-0.5)) <= 0.01 and abs(s2 - (-0.75)) <= 0.01
    # n = 1 recovers the unscaled bound, same floats
    prof = MomentProfile(sigma_sq=1.0, cq_to_q=1.0, q=4.0)
    ok &= independent_sum_bound(prof, 1, 1.0, 0.1).value \
        == confidence_bound(prof, 1.0, 0.1).value
    _report(9, "independent-sum scaling", ok, time.perf_counter() - start, 1.0)
