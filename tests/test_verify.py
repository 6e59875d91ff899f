import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from scipy.stats import beta, binom

from fuknagaev.errors import (InfiniteMomentError, InvalidCountError,
                              InvalidLevelError)
from fuknagaev import verify
from fuknagaev.bounds import confidence_bound, constant_c
from fuknagaev.quantile import make_sample, quantile_q
from fuknagaev.spaces import make_euclidean
from fuknagaev.stochastic import (MomentProfile, gaussian, moment_profile,
                                  rademacher, running_max_ensemble,
                                  symmetric_pareto)
from fuknagaev.verify import (CampaignConfig, TightnessRow, clopper_pearson_upper,
                              crossover_scan, tightness, verify_confidence)

R1 = make_euclidean(1)


# ---------------------------------------------------------------- CP limit

def test_cp_zero_successes_closed_form():
    got = clopper_pearson_upper(0, 1000, 0.99)
    assert got == pytest.approx(1 - 0.01 ** (1 / 1000), rel=1e-10)


def test_cp_all_successes():
    assert clopper_pearson_upper(100, 100, 0.99) == 1.0


@pytest.mark.parametrize("trials", [1, 2, 100, 10**4, 10**6])
def test_cp_equals_the_beta_quantile_bit_for_bit(trials):
    for k in sorted({0, 1, trials // 2, trials - 1} - {trials}):
        for c in (0.5, 0.9, 0.99, 0.999):
            assert clopper_pearson_upper(k, trials, c) == float(beta.ppf(c, k + 1, trials - k)), \
                (k, trials, c)
    for c in (0.5, 0.999):
        assert clopper_pearson_upper(trials, trials, c) == 1.0


def _cp_bisection(k, n, confidence):
    # smallest p with P[Bin(n, p) <= k] <= 1 - confidence
    lo, hi = 0.0, 1.0
    for _ in range(200):
        mid = (lo + hi) / 2
        if binom.cdf(k, n, mid) > 1 - confidence:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


def test_cp_against_binomial_cdf_bisection():
    for k, n in [(5, 100), (1, 50), (17, 400), (0, 10)]:
        assert clopper_pearson_upper(k, n, 0.99) == pytest.approx(
            _cp_bisection(k, n, 0.99), abs=1e-12)


def test_cp_dominates_empirical_rate_and_shrinks_with_n():
    for k, n in [(0, 100), (3, 100), (50, 200)]:
        assert clopper_pearson_upper(k, n, 0.95) >= k / n
    # at fixed k/n the limit tightens as n grows
    seq = [clopper_pearson_upper(5 * m, 100 * m, 0.99) for m in (1, 4, 16)]
    assert seq[0] > seq[1] > seq[2]


def test_cp_rejects_bad_count():
    with pytest.raises(InvalidCountError):
        clopper_pearson_upper(11, 10, 0.99)
    with pytest.raises(InvalidCountError):
        clopper_pearson_upper(-1, 10, 0.99)


# ---------------------------------------------------------------- campaigns

def _small_campaign(**overrides):
    base = dict(dist=rademacher(R1, 1.0), n=50, trials=2000, q=4.0, D=1.0,
                u_grid=(0.5, 0.1), seed=11)
    base.update(overrides)
    return CampaignConfig(**base)


def test_verify_confidence_passes_and_is_conservative():
    report = verify_confidence(_small_campaign())
    assert report.passed
    for row in report.rows:
        assert row.cp_upper <= row.level
        assert row.cp_upper == clopper_pearson_upper(row.exceed, row.trials, verify.CONFIDENCE)
        assert row.rate < row.level / 10  # the bound is far from tight here


def test_a_level_passes_by_its_99_percent_clopper_pearson_limit_not_by_its_rate():
    # at 1e-3 no trial of 1000 exceeds, a rate of 0 below the level, but the
    # 99% limit of 0 in 1000 is about 4.6e-3: the level fails
    config = CampaignConfig(dist=symmetric_pareto(make_euclidean(5), 4.5), n=50, trials=1000,
                            q=4.0, D=1.0, u_grid=(0.5, 0.1, 1e-3), seed=11)
    rows = verify_confidence(config).rows
    assert any(row.rate <= row.level < row.cp_upper for row in rows)
    for row in rows:
        k, N = row.exceed, row.trials
        assert row.cp_upper == float(beta.ppf(0.99, k + 1, N - k)), row
        assert row.passed == (row.cp_upper <= row.level), row


def test_verify_confidence_deterministic():
    a = verify_confidence(_small_campaign())
    b = verify_confidence(_small_campaign())
    assert a.rows == b.rows


def test_campaign_validation():
    with pytest.raises(InvalidLevelError):
        _small_campaign(u_grid=(0.999999,))
    with pytest.raises(ValueError):
        _small_campaign(trials=50)
    with pytest.raises(ValueError):
        _small_campaign(u_grid=())
    with pytest.raises(TypeError):  # every campaign's limits are at verify.CONFIDENCE
        _small_campaign(confidence=0.9)


def test_a_level_grid_is_read_once_whatever_iterable_holds_it():
    # the checks must not use up a generator: that gave no rows, and passed True
    rows = verify_confidence(_small_campaign()).rows
    boot = tightness(_small_campaign(), n_boot=20).rows
    for grid in ((u for u in (0.5, 0.1)), np.array([0.5, 0.1]), [0.5, 0.1]):
        config = _small_campaign(u_grid=grid)
        assert config.u_grid == (0.5, 0.1)
        assert verify_confidence(config).rows == rows
        assert tightness(config, n_boot=20).rows == boot


def test_infinite_moment_rejected_before_simulation():
    config = _small_campaign(dist=symmetric_pareto(R1, 3.0), trials=10 ** 9)
    # astronomically many trials would hang if simulation started
    with pytest.raises(InfiniteMomentError):
        verify_confidence(config)


def test_tightness_ratios_cover_one():
    report = tightness(_small_campaign(u_grid=(0.5, 0.2, 0.1)))
    assert report.passed
    for row in report.rows:
        assert row.applicable
        assert row.ratio is not None and row.ratio >= 1.0 - 3 * row.bootstrap_se


def test_tightness_degenerate_martingale_not_applicable():
    report = tightness(_small_campaign(dist=gaussian(R1, 0.0), trials=200,
                                       u_grid=(0.5,)))
    row = report.rows[0]
    assert not row.applicable and row.ratio is None
    assert report.passed  # vacuous but well-defined


def _per_level_tightness_rows(config, n_boot):
    """The tightness rows computed as before, one sort per resample and level."""
    profile = moment_profile(config.dist, config.q, config.n)
    rm = running_max_ensemble(config.dist, config.n, config.trials, config.seed)
    boot_rng = np.random.default_rng(np.random.SeedSequence(
        entropy=config.seed, spawn_key=(0xB007,)))
    idx = boot_rng.integers(0, len(rm), size=(n_boot, len(rm)))
    rows = []
    for u in config.u_grid:
        b = confidence_bound(profile, config.D, u).value
        emp = quantile_q(make_sample(rm), u)
        boot_q = np.array([quantile_q(make_sample(rm[row]), u) for row in idx])
        se_q = float(boot_q.std(ddof=1))
        applicable = emp > 0.0
        ratio = b / emp if applicable else None
        se = b * se_q / (emp * emp) if applicable else se_q
        rows.append(TightnessRow(level=float(u), bound=b, empirical_q=emp,
                                 ratio=ratio, bootstrap_se=se, applicable=applicable,
                                 passed=not applicable or bool(ratio >= 1.0 - 3.0 * se)))
    return tuple(rows)


@pytest.mark.parametrize("dist", [rademacher(R1, 1.0), symmetric_pareto(make_euclidean(3), 4.5),
                                  gaussian(R1, 0.0)], ids=lambda d: d.kind)
def test_tightness_sorts_each_resample_once(dist, monkeypatch):
    config = _small_campaign(dist=dist, trials=400, u_grid=(0.5, 0.2, 0.1, 0.05, 0.01))
    expected = _per_level_tightness_rows(config, 150)
    sorts = []
    monkeypatch.setattr(verify, "make_sample",
                        lambda values: sorts.append(1) or make_sample(values))
    assert tightness(config, n_boot=150).rows == expected  # bit-identical floats
    assert len(sorts) == 1 + 150


def test_tightness_resamples_at_an_odd_trial_count():
    # a row per integers() call draws what one (n_boot, trials) call did, odd lengths too
    config = _small_campaign(dist=symmetric_pareto(make_euclidean(3), 4.5), trials=1001,
                             u_grid=(0.5, 0.1, 0.01))
    assert tightness(config, n_boot=40).rows == _per_level_tightness_rows(config, 40)


def test_tightness_holds_one_resample_at_a_time():
    # all (n_boot, trials) bootstrap indices at once were 8 * 200 * 2e4 = 32 MB
    config = _small_campaign(n=5, trials=20_000)
    running_max_ensemble(config.dist, config.n, config.trials, config.seed)  # warm caches
    tracemalloc.start()
    try:
        tightness(config, n_boot=200)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2 ** 20


def test_tightness_rows_serialize_to_csv(tmp_path):
    from fuknagaev.cli import emit_report
    report = tightness(_small_campaign(u_grid=(0.5, 0.1)))
    path = tmp_path / "tightness.csv"
    emit_report({"config": {"dist": "rademacher"},
                 "rows": report.row_dicts(),
                 "meta": {"tool": "fuknagaev", "subcommand": "tightness",
                          "seed": report.config.seed}}, "csv", str(path))
    lines = path.read_text().splitlines()
    assert lines[0] == "level,bound,empirical_q,ratio,bootstrap_se,applicable,verdict"
    assert len(lines) == 3


# ---------------------------------------------------------------- crossover

def test_crossover_absent_when_polynomial_dominates():
    prof = MomentProfile(sigma_sq=1.0, cq_to_q=1.0, q=4.0)
    assert crossover_scan(prof, 1.0, (1.0, 100.0)) is None


def test_crossover_found_for_large_sigma():
    prof = MomentProfile(sigma_sq=25.0, cq_to_q=1.0, q=4.0)
    t_star = crossover_scan(prof, 1.0, (30.0, 50.0))
    assert t_star is not None and 30 < t_star < 50
    c = 1 / 8 + 1 / 5 + 1 + 4 / 3
    residual = 2 * math.exp(-t_star ** 2 / 200) - 2 * (2 * c / t_star) ** 4
    assert abs(residual) < 1e-12


def test_crossover_vanishing_sigma():
    prof = MomentProfile(sigma_sq=0.0, cq_to_q=1.0, q=4.0)
    assert crossover_scan(prof, 1.0, (1.0, 100.0)) is None


def test_crossover_ignores_brackets_where_both_terms_underflow():
    # both terms read 0 past t ~ 1e4, which counted as a crossover: 6.4e99, 2.5e307
    prof = MomentProfile(sigma_sq=100.0, cq_to_q=1.0, q=4.0)
    t_star = crossover_scan(prof, 1.0, (1.0, 1e4))
    assert 96.27 < t_star < 96.28
    for t_hi in (1e100, 1e308):
        assert crossover_scan(prof, 1.0, (1.0, t_hi)) == pytest.approx(t_star, rel=1e-12)


@pytest.mark.parametrize("sigma_sq", [0.0, 100.0])
def test_crossover_absent_without_a_polynomial_term(sigma_sq):
    # C_q = 0 returned 9821.37, where the Gaussian term underflows
    prof = MomentProfile(sigma_sq=sigma_sq, cq_to_q=0.0, q=4.0)
    assert crossover_scan(prof, 1.0, (1.0, 1e4)) is None


@pytest.mark.parametrize("sigma_sq, lower, upper", [
    (4.802825347858628, 8.7042269737969395, 8.8281985662275258),
    (4.802349891684656, 8.7595082460397068, 8.7719048257262846)])
def test_crossover_inside_one_cell_of_a_log_grid(sigma_sq, lower, upper):
    # the Gaussian term dominates only between the two crossings (mpmath's values), a
    # window narrower than one cell of a 512-point log grid over (1, 1e4): a scan of
    # that grid for a sign change found none
    prof = MomentProfile(sigma_sq=sigma_sq, cq_to_q=1.0, q=4.0)
    assert crossover_scan(prof, 1.0, (1.0, 1e4)) == pytest.approx(upper, rel=1e-12)
    assert crossover_scan(prof, 1.0, (1.0, (lower + upper) / 2)) == pytest.approx(lower, rel=1e-12)
    assert crossover_scan(prof, 1.0, (1.0, lower * 0.999)) is None
    assert crossover_scan(prof, 1.0, (upper * 1.001, 1e4)) is None


def _oracle_crossings(prof, D):
    """t at the two roots of v - log v = y (mpmath's findroot, 40 digits), lower
    first, with the package's c(q, D); () where y < 1."""
    with mpmath.workdps(40):
        q, scale = mpmath.mpf(prof.q), 4 * prof.q * mpmath.mpf(D) ** 2 * mpmath.mpf(prof.sigma_sq)
        y = mpmath.log(scale) - 2 * mpmath.log(2 * mpmath.mpf(constant_c(prof.q, D))) \
            - 2 * mpmath.log(mpmath.mpf(prof.cq_to_q)) / q
        if y < 1:
            return ()
        # the lower root in u = log v, on [-y, 0]; the upper in v, on [1, 2y]
        u = mpmath.findroot(lambda u: mpmath.exp(u) - u - y, (-y, mpmath.mpf(0)), solver="anderson")
        v = mpmath.findroot(lambda v: v - mpmath.log(v) - y, (mpmath.mpf(1), 2 * y), solver="anderson")
        return tuple(float(mpmath.sqrt(scale) * root) for root in (mpmath.exp(u / 2), mpmath.sqrt(v)))


def _tail_term_residual(prof, D, t):
    """|G - P| / max(G, P) for the Gaussian and polynomial tail terms at t, in mpmath."""
    with mpmath.workdps(40):
        t, q, c = mpmath.mpf(t), mpmath.mpf(prof.q), mpmath.mpf(constant_c(prof.q, D))
        gauss = 2 * mpmath.exp(-t * t / (8 * mpmath.mpf(D) ** 2 * mpmath.mpf(prof.sigma_sq)))
        poly = 2 * (2 * c * mpmath.mpf(prof.cq_to_q) ** (1 / q) / t) ** q
        return float(abs(gauss - poly) / max(gauss, poly))


def test_crossover_matches_an_mpmath_oracle():
    rng = np.random.default_rng(20261020)
    found = {"upper": 0, "lower": 0, "none": 0}
    for _ in range(300):
        prof = MomentProfile(sigma_sq=float(10 ** rng.uniform(-2, 4)),
                             cq_to_q=float(10 ** rng.uniform(-3, 2)), q=float(rng.uniform(2.05, 10)))
        D = float(rng.choice([1.0, math.sqrt(3.0), rng.uniform(1.0, 3.0)]))
        t_lo = float(10 ** rng.uniform(-2, 2))
        t_hi = t_lo * float(10 ** rng.uniform(0.01, 4))
        roots = _oracle_crossings(prof, D)
        inside = [t for t in roots if t_lo <= t <= t_hi]
        t = crossover_scan(prof, D, (t_lo, t_hi))
        if not inside:
            assert t is None, (prof, D, t_lo, t_hi)
            found["none"] += 1
            continue
        assert t == pytest.approx(inside[-1], rel=1e-12), (prof, D, t_lo, t_hi)
        assert _tail_term_residual(prof, D, t) <= 1e-12, (prof, D, t)
        found["upper" if inside[-1] == roots[-1] else "lower"] += 1
    assert min(found.values()) >= 30, found
    # y in the thousands: e^-y underflows, and the upper crossing lies at 1.3e152 or,
    # past the float range, at about 1e452
    for prof, D in ((MomentProfile(sigma_sq=1e300, cq_to_q=1e-300, q=2.5), 1e300),
                    (MomentProfile(sigma_sq=1e300, cq_to_q=1e-300, q=4.0), 1.0)):
        lower, upper = _oracle_crossings(prof, D)
        assert crossover_scan(prof, D, (1e-300, lower * 2)) == pytest.approx(lower, rel=1e-12)
        assert crossover_scan(prof, D, (1e-300, 1e300)) == pytest.approx(
            upper if upper < 1e300 else lower, rel=1e-12)
