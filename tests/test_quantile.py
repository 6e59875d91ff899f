import math
import os
import re
import subprocess
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.stats import chisquare

from fuknagaev import cli, quantile
from fuknagaev.errors import InternalInconsistencyError, InvalidLevelError
from fuknagaev.quantile import (EmpiricalSample, cvar_q1, load_sample,
                                make_sample, q_infinity,
                                q_not_subadditive_example,
                                quantile_lemma_suite, quantile_q,
                                quantile_triple)


def brute_force_q(values, u):
    """inf{t : P[X > t] < u} by scanning order statistics."""
    values = sorted(values)
    n = len(values)
    for v in values:
        if sum(1 for x in values if x > v) / n < u:
            return v
    return values[-1]


def riemann_cvar(values, u, grid=400_000):
    """(1/u) integral_0^u Q(s) ds by midpoint rule on the exact step Q."""
    ss = (np.arange(grid) + 0.5) / grid * u
    n = len(values)
    k = n + 1 - np.ceil(n * ss).astype(int)
    return float(np.sort(np.asarray(values, dtype=float))[k - 1].mean())


def dense_grid_qinf(values, u, points=20_001):
    x = np.asarray(values, dtype=float)
    cap = 700.0 / max(np.abs(x).max(), 1e-9)
    ts = np.geomspace(1e-9, cap, points)
    m = x.max()
    best = math.inf
    for t in ts:
        lse = t * m + math.log(np.exp(t * (x - m)).mean())
        best = min(best, (lse + math.log(1.0 / u)) / t)
    return best


def mpmath_qinf(values, u):
    """Chernoff quantile at 30 digits: the objective (K(t) + log(1/u)) / t
    at its stationary point, the root of t K'(t) - K(t) - log(1/u)."""
    with mpmath.workdps(30):
        xs = [mpmath.mpf(float(v)) for v in values]
        n, log_inv_u = len(xs), mpmath.log(1 / mpmath.mpf(u))

        def cgf(t):
            return mpmath.log(mpmath.fsum(mpmath.exp(t * v) for v in xs) / n)

        def stationarity(t):
            w = [mpmath.exp(t * v) for v in xs]
            return t * mpmath.fdot(w, xs) / mpmath.fsum(w) - cgf(t) - log_inv_u

        # bisection on log t; the root is the minimiser, since the
        # stationarity function is increasing
        scale = max(abs(v) for v in xs)
        lo, hi = mpmath.log(mpmath.mpf("1e-6") / scale), mpmath.log(700 / scale)
        assert stationarity(mpmath.exp(lo)) < 0 < stationarity(mpmath.exp(hi))
        for _ in range(100):
            mid = (lo + hi) / 2
            lo, hi = (mid, hi) if stationarity(mpmath.exp(mid)) < 0 else (lo, mid)
        t = mpmath.exp(lo)
        return float((cgf(t) + log_inv_u) / t)


# ---------------------------------------------------------------- Q

def test_quantile_examples():
    s = make_sample([1, 2, 3, 4])
    assert quantile_q(s, 0.5) == 3.0
    assert quantile_q(s, 1.0) == 1.0  # tail < 1 first holds at the minimum
    assert quantile_q(s, 0.25) == 4.0


def test_quantile_degenerate_sample():
    s = make_sample([7.0] * 9)
    for u in (0.01, 0.5, 1.0):
        assert quantile_q(s, u) == 7.0


def test_quantile_invalid_level():
    s = make_sample([1.0, 2.0])
    with pytest.raises(InvalidLevelError):
        quantile_q(s, 0.0)
    with pytest.raises(InvalidLevelError):
        quantile_q(s, 1.5)


@given(st.lists(st.floats(-100, 100, allow_nan=False), min_size=1, max_size=25),
       st.floats(0.01, 1.0))
@settings(max_examples=300)
def test_quantile_matches_brute_force(values, u):
    assert quantile_q(make_sample(values), u) == brute_force_q(values, u)


# ---------------------------------------------------------------- Q1 (CVaR)

def test_cvar_examples():
    s = make_sample([1, 2, 3, 4])
    assert cvar_q1(s, 0.5) == pytest.approx(3.5, abs=1e-14)   # mean of top half
    assert cvar_q1(s, 1.0) == pytest.approx(2.5, abs=1e-14)   # full mean
    assert cvar_q1(s, 0.25) == pytest.approx(4.0, abs=1e-14)  # top quarter


def test_cvar_matches_riemann_oracle():
    rng = np.random.default_rng(3)
    for _ in range(10):
        vals = rng.standard_normal(rng.integers(2, 40)) * 5
        u = float(rng.uniform(0.05, 1.0))
        s = make_sample(vals)
        assert cvar_q1(s, u) == pytest.approx(riemann_cvar(vals, u), abs=5e-4)


@given(st.lists(st.floats(-50, 50, allow_nan=False), min_size=1, max_size=30),
       st.floats(0.02, 1.0))
@settings(max_examples=300)
def test_cvar_dominates_quantile(values, u):
    s = make_sample(values)
    assert cvar_q1(s, u) >= quantile_q(s, u) - 1e-12


def test_a_sample_built_directly_is_sorted_and_checked(monkeypatch):
    # EmpiricalSample(values=[3, 1, 2]) read Q(0.4) = 1.0, where it is 2.0
    s = EmpiricalSample(values=np.array([3.0, 1.0, 2.0]))
    assert s.values.tolist() == [1.0, 2.0, 3.0] and not s.values.flags.writeable
    assert quantile_q(s, 0.4) == 2.0
    for bad, match in (([], "nonempty"), ([1.0, math.inf], "finite")):
        with pytest.raises(ValueError, match=match):
            EmpiricalSample(values=np.array(bad))
    sorts, sort = [], np.sort
    monkeypatch.setattr(np, "sort", lambda a, *args, **kw: sorts.append(1) or sort(a, *args, **kw))
    make_sample([3.0, 1.0, 2.0])
    assert len(sorts) == 1



@pytest.mark.parametrize("values, shape", [([[3.0, 1.0], [2.0, 5.0]], "(2, 2)"), (5.0, "()")])
def test_a_sample_must_be_one_dimensional(values, shape):
    # a 2x2 input was sorted row by row and counted as 2 values; a scalar
    # raised numpy's AxisError
    with pytest.raises(ValueError, match=re.escape(f"one-dimensional, got shape {shape}")):
        make_sample(values)


def test_cvar_near_the_float_maximum(tmp_path):
    # the sums of the top values overflowed, and the CLI exited 3 with
    # "CVaR forms disagree: integral inf vs variational 1.7e+308"
    texts = ["1.7e308", "1.7e308", "-1.7e308", "0"]
    path = tmp_path / "big.txt"
    path.write_text("\n".join(texts) + "\n", encoding="utf-8")
    src = str(Path(quantile.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-m", "fuknagaev.cli",
                           "quantile", str(path), "--u", "0.1,0.5,0.9,1"],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    exact = sorted(Fraction(t) for t in texts)
    s = load_sample(path)
    with np.errstate(over="raise"):
        for u in (0.1, 0.5, 0.6, 0.9, 1.0):
            k = math.ceil(len(exact) * Fraction(u))
            # (1/u) * integral_0^u Q: top k-1 values at weight 1/N, then the rest of u
            want = (sum(exact[len(exact) - k + 1:]) / len(exact)
                    + (Fraction(u) - Fraction(k - 1, len(exact))) * exact[len(exact) - k]) / Fraction(u)
            assert abs(Fraction(cvar_q1(s, u)) - want) <= abs(want) * Fraction(1, 10**15), u
            trip = quantile_triple(s, u)
            assert trip.q <= trip.q1 <= trip.qinf
    assert cvar_q1(s, 1.0) == q_infinity(s, 1.0).value == float(sum(exact) / 4)
    # at a small level, excess / (N u) of the variational form may overflow
    # where it is no minimum
    with np.errstate(over="raise"):
        assert cvar_q1(make_sample([1e307, -1e307]), 0.01) == 1e307


def test_cvar_cross_check_scales_with_the_data():
    # the two CVaR forms of values near 1e9 agree to rounding, about 1e-16
    # of the scale, which is more than 1e-9 absolute
    x = np.random.default_rng(1).standard_normal(205) * 1e9
    s = make_sample(x)
    assert cvar_q1(s, 0.1) == pytest.approx(riemann_cvar(x, 0.1), rel=1e-6)
    # top values out of order, put in past the sorting constructor, make the
    # integral form wrong by their gap
    wrong = s.values.copy()
    wrong[-2:] = wrong[-2:][::-1]
    unsorted = make_sample(x)
    object.__setattr__(unsorted, "values", wrong)
    with pytest.raises(InternalInconsistencyError, match="CVaR forms disagree"):
        cvar_q1(unsorted, 0.004)


# ---------------------------------------------------------------- Qinf

def test_qinf_degenerate_sample():
    res = q_infinity(make_sample([3.0, 3.0]), 0.5)
    assert res.value == 3.0 and not res.attained


def test_qinf_two_point_u1_is_zero():
    # objective log(cosh t)/t decreases to 0 as t -> 0+
    res = q_infinity(make_sample([-1.0, 1.0]), 1.0)
    assert res.value == 0.0 and not res.attained
    assert dense_grid_qinf([-1.0, 1.0], 1.0) == pytest.approx(0.0, abs=1e-7)


def test_qinf_interior_matches_dense_grid():
    vals = [0.0, 1.0, 2.0, 5.0]
    for u in (0.9, 0.6, 0.4):
        got = q_infinity(make_sample(vals), u)
        assert got.attained
        assert got.value == pytest.approx(dense_grid_qinf(vals, u), rel=1e-6)


def test_qinf_non_attained_at_max():
    # u below the mass at the maximum: infimum is the maximum, as t -> inf
    res = q_infinity(make_sample([1.0, 2.0, 3.0, 4.0]), 0.2)
    assert res.value == 4.0 and not res.attained


def test_qinf_matches_mpmath_minimisation():
    rng = np.random.default_rng(21)
    samples = (rng.standard_normal(60),
               3.0 + 0.5 * rng.standard_t(3.0, 40),
               np.round(rng.exponential(2.0, 50), 1),  # ties
               -5.0 - rng.random(30))
    for values in samples:
        for u in (0.9, 0.5, 0.1, 0.05):
            got = q_infinity(make_sample(values), u)
            assert got.attained
            assert got.value == pytest.approx(mpmath_qinf(values, u), rel=1e-12, abs=0)


def test_qinf_error_is_absolute_near_zero():
    # normal samples shifted so that Qinf at u = 0.9 is zero to rounding:
    # the error stays a few ulps of max|x|, while relative to Qinf it is large
    for seed in range(5):
        z = np.random.default_rng(seed).standard_normal(30)
        x = z - mpmath_qinf(z, 0.9)
        want = mpmath_qinf(x, 0.9)
        assert abs(want) < 1e-15
        got = q_infinity(make_sample(x), 0.9).value
        assert abs(got - want) <= 1e-15 * np.abs(x).max()


@pytest.mark.parametrize("c", [1e-300, 1e-12, 1e9, 1e12, 1e300])
def test_qinf_is_scale_equivariant(c):
    x = np.random.default_rng(4).standard_normal(200)
    for u in (0.5, 0.1, 0.01):
        base = q_infinity(make_sample(x), u).value
        assert q_infinity(make_sample(c * x), u).value == pytest.approx(c * base, rel=1e-12, abs=0)


NINE_LEVELS = [k / 10 for k in range(1, 10)]


def test_qinf_does_not_depend_on_level_order():
    x = np.random.default_rng(11).standard_t(3.0, 2000)
    levels = NINE_LEVELS + [0.999, 0.001]

    def run(order, fresh=False):
        shared = make_sample(x)
        return {u: q_infinity(make_sample(x) if fresh else shared, u) for u in order}

    want = run(levels, fresh=True)
    order = list(levels)
    np.random.default_rng(5).shuffle(order)
    for got in (run(sorted(levels)), run(sorted(levels, reverse=True)), run(order)):
        for u in levels:
            assert (got[u].value, got[u].t_star) == (want[u].value, want[u].t_star), u


def test_qinf_levels_share_one_table(monkeypatch):
    calls = []
    real = quantile._exp_moments

    def counting(z, log_t):
        calls.append(log_t)
        return real(z, log_t)

    monkeypatch.setattr(quantile, "_exp_moments", counting)
    s = make_sample(np.random.default_rng(7).standard_t(3.0, 20_000))
    for u in NINE_LEVELS:
        assert q_infinity(s, u).attained
    # a brentq search per level took 187 evaluations
    assert len(calls) <= 80


def test_cached_sample_state_is_read_only():
    s = make_sample(np.random.default_rng(2).standard_normal(100))
    cvar_q1(s, 0.3)
    q_infinity(s, 0.3)
    for arr in (*s._cvar_terms, s._chernoff.z):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 1.0


def reference_cvar(values, u):
    """cvar_q1's integral form and its variational cross-check, both
    computed afresh from the sorted values."""
    x = np.sort(np.asarray(values, dtype=float))
    n = len(x)
    m = min(max(math.ceil(n * u), 1), n)
    if u == 1.0:
        value = max(float(x.mean()), float(x[0]))
    elif m == 1:  # Q is the maximum on (0, u]
        value = float(x[-1])
    else:
        integral = x[n - m + 1:].sum() / n + (u - (m - 1) / n) * x[n - m]
        value = max(float(integral / u), float(x[n - m]))
    desc = x[::-1]
    suffix = np.concatenate(([0.0], np.cumsum(desc)))
    j = np.arange(n, dtype=float)
    variational = float((desc + (suffix[:-1] - j * desc) / (n * u)).min())
    return value, variational


@given(st.lists(st.floats(-1e6, 1e6, allow_nan=False), min_size=1, max_size=40),
       st.lists(st.floats(0.001, 1.0), min_size=1, max_size=5))
@settings(max_examples=200, deadline=None)
def test_cvar_equals_the_inline_formula_bit_for_bit(values, levels):
    s = make_sample(values)
    for u in levels:
        value, variational = reference_cvar(values, u)
        assert cvar_q1(s, u) == value
        desc, excess = s._cvar_terms
        assert float((desc + excess / (len(s) * u)).min()) == variational


def test_qinf_does_not_depend_on_the_blas_thread_count():
    code = ("import numpy as np; from fuknagaev.quantile import make_sample, q_infinity; "
            "s = make_sample(np.random.default_rng(3).standard_normal(200_000)); "
            "print([q_infinity(s, u).value.hex() for u in (0.1, 0.3, 0.5, 0.9)])")
    src = str(Path(quantile.__file__).resolve().parents[1])
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=120, check=True)
        outputs.append(done.stdout)
    assert outputs[0] == outputs[1]


@given(st.lists(st.floats(-20, 20, allow_nan=False), min_size=2, max_size=20),
       st.floats(0.05, 1.0))
@settings(max_examples=200, deadline=None)
def test_triple_ordering(values, u):
    trip = quantile_triple(make_sample(values), u)
    assert trip.q <= trip.q1 <= trip.qinf


@given(st.lists(st.floats(-20, 20, allow_nan=False), min_size=2, max_size=20),
       st.floats(0.05, 0.99))
@settings(max_examples=200, deadline=None)
def test_chernoff_tail_control(values, u):
    thresh = q_infinity(make_sample(values), u).value
    assert np.mean(np.asarray(values) > thresh) <= u


def test_quantile_functions_nonincreasing_in_u():
    s = make_sample(np.random.default_rng(1).standard_normal(37))
    us = np.linspace(0.02, 1.0, 120)
    qs = [quantile_q(s, u) for u in us]
    q1s = [cvar_q1(s, u) for u in us]
    qis = [q_infinity(s, u).value for u in us]
    for seq in (qs, q1s, qis):
        assert all(a >= b - 1e-10 for a, b in zip(seq, seq[1:]))


def test_quantile_transform_reproduces_law_chisquare():
    # Q(U) with uniform U must be distributed like the sample itself
    vals = [1.0, 2.0, 2.0, 5.0]
    s = make_sample(vals)
    rng = np.random.default_rng(123)
    draws = np.array([quantile_q(s, u) for u in 1.0 - rng.random(100_000)])
    observed = [(draws == 1.0).sum(), (draws == 2.0).sum(), (draws == 5.0).sum()]
    expected = [25_000, 50_000, 25_000]
    stat, pvalue = chisquare(observed, expected)
    assert pvalue > 0.001  # 0.999-level sanity


# ---------------------------------------------------------------- lemma suite

def test_lemma_suite_passes_on_coupled_pairs():
    rng = np.random.default_rng(8)
    pairs = []
    for _ in range(6):
        n = int(rng.integers(3, 40))
        x = rng.standard_normal(n) * rng.uniform(0.5, 3)
        y = rng.standard_normal(n) + rng.uniform(-1, 1)
        pairs.append((x, y))
    pairs.append((np.zeros(5), np.zeros(5)))  # X == 0: all three vanish
    report = quantile_lemma_suite(pairs, u_grid=np.arange(1, 10) / 10)
    assert report.ordering_ok
    assert report.monotonicity_ok
    assert report.subadditive_q1_ok
    assert report.subadditive_qinf_ok
    assert report.chernoff_ok
    assert report.submartingale_ok
    assert report.counterexample_strict
    assert report.all_ok


def test_lemma_suite_computes_each_chernoff_quantile_once(monkeypatch):
    calls = []
    real = quantile.q_infinity

    def counting(sample, u):
        calls.append(u)
        return real(sample, u)

    monkeypatch.setattr(quantile, "q_infinity", counting)
    rng = np.random.default_rng(3)
    pairs = [(x, 0.5 * x + rng.standard_t(4.0, 50))
             for x in rng.standard_t(4.0, (4, 50))]
    report = quantile_lemma_suite(pairs, (0.5, 0.1, 0.01))
    # one per sample (X, Y, X + Y), level and pair
    assert len(calls) == 3 * 3 * len(pairs)
    assert report.all_ok


def test_zero_sample_has_zero_quantiles():
    s = make_sample(np.zeros(10))
    for u in (0.1, 0.5, 1.0):
        trip = quantile_triple(s, u)
        assert trip.q == trip.q1 == trip.qinf == 0.0


def test_stored_counterexample_breaks_q_subadditivity():
    ce = q_not_subadditive_example()
    assert ce["q_x"] == 0.0 and ce["q_y"] == 0.0 and ce["q_sum"] == 3.0
    # cross-check with the brute-force tail definition
    assert brute_force_q([0, 0, 3], ce["u"]) == 0.0
    assert brute_force_q([0, 3, 3], ce["u"]) == 3.0


# ---------------------------------------------------------------- ingestion

def test_load_sample_with_comments(tmp_path):
    path = tmp_path / "sample.txt"
    path.write_text("# header\n3.5\n1.25\n\n# note\n-2.0  # trailing\n",
                    encoding="utf-8")
    s = load_sample(path)
    assert s.values.tolist() == [-2.0, 1.25, 3.5]


def test_load_sample_rejects_garbage(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("1.0\nnot-a-number\n", encoding="utf-8")
    with pytest.raises(ValueError):
        load_sample(path)


def test_load_sample_accepts_what_float_accepts(tmp_path):
    path = tmp_path / "sample.txt"
    path.write_bytes("1_000\r\n\u0661\u0662 # arabic-indic 12\r\n\r\n\t-2.5e-3 \r\n".encode())
    assert load_sample(path).values.tolist() == [-2.5e-3, 12.0, 1000.0]


def test_load_sample_names_the_bad_line(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("# two numbers on one line\n1.0\n\n1 2\n3\n", encoding="utf-8")
    with pytest.raises(ValueError, match=r"bad.txt:4: not a number: '1 2'"):
        load_sample(path)


@pytest.mark.parametrize("text", ["nan", "inf", "-inf", "1e999"])
def test_load_sample_names_a_non_finite_line(tmp_path, capsys, text):
    path = tmp_path / "bad.txt"
    path.write_text(f"1.0\n# comment\n2.5\n {text}  # not finite\n3\n", encoding="utf-8")
    message = f"bad.txt:4: not a finite number: '{text}'"
    with pytest.raises(ValueError, match=re.escape(message)):
        load_sample(path)
    assert cli.run(["quantile", str(path), "--u", "0.1"]) == 2
    assert message in capsys.readouterr().err


def test_load_sample_reads_the_bits_float_reads(tmp_path):
    rng = np.random.default_rng(8)
    values = np.concatenate([rng.standard_t(3.0, 1000) * 10.0 ** rng.integers(-300, 300, 1000),
                             [5e-324, -2.2250738585072014e-308, 1.7976931348623157e308, 0.0, -0.0]])
    texts = [repr(v) for v in values.tolist()] + ["0.1", "1e-5", "  -7.25e+2 ", "3."]
    path = tmp_path / "sample.txt"
    path.write_text("\n".join(texts) + "\n", encoding="utf-8")
    want = np.sort(np.array([float(t) for t in texts]))
    assert load_sample(path).values.tobytes() == want.tobytes()


@pytest.mark.parametrize("text", ["", "# comment only\n", "\n  \n# c\n"])
def test_load_sample_of_no_values_names_the_sample_and_warns_nothing(tmp_path, text):
    path = tmp_path / "empty.txt"
    path.write_text(text, encoding="utf-8")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="^sample must be nonempty$"):
            load_sample(path)


def _reference_load(path):
    """The values load_sample reads, or the message it raises: the
    line-by-line float() parse, an oracle independent of numpy's reader."""
    with open(path, encoding="utf-8") as handle:
        values = []
        for lineno, line in enumerate(handle, start=1):
            text = line.partition("#")[0].strip()
            if not text:
                continue
            try:
                value = float(text)
            except ValueError:
                return f"{path}:{lineno}: not a number: {text!r}"
            if not math.isfinite(value):
                return f"{path}:{lineno}: not a finite number: {text!r}"
            values.append(value)
    if not values:
        return "sample must be nonempty"
    return np.sort(np.array(values)).tobytes()


_PLAIN_LINES = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.sampled_from(["+.5", "5.", "1E5", "00012", "-0.0", "5e-324", "", "# comment",
                     "2.5 # trailing", "  -7.25e+2\t"]))
_OTHER_LINES = st.sampled_from([
    "   ", "\t", "  # indented comment", "1_000", "\u0661\u0662", "\xa03.5\xa0", "\t4\t",
    "1 2", "1,2", "1\t2", "nan", "inf", "-inf", "1e999", "a,b", "\ufeff1"])


@given(st.one_of(st.lists(_PLAIN_LINES, max_size=30),
                 st.lists(st.one_of(_PLAIN_LINES, _OTHER_LINES), max_size=30)),
       st.sampled_from(["\n", "\r\n", "\r"]), st.booleans())
@example([], "\n", True)
@example(["# a", "# b"], "\n", True)
@example(["a,b"] * 3, "\n", True)
@example(["1,2"], "\n", True)  # loadtxt(ndmin=1) squeezes its one row to two values
@settings(max_examples=300, deadline=None)
def test_load_sample_matches_the_float_parse(tmp_path_factory, lines, end, last_end):
    path = tmp_path_factory.mktemp("ingest") / "sample.txt"
    path.write_bytes((end.join(lines) + (end if last_end and lines else "")).encode())
    want = _reference_load(path)
    try:
        got = load_sample(path).values.tobytes()
    except ValueError as exc:
        got = str(exc)
    assert got == want
