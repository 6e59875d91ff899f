import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from fuknagaev.errors import InvalidDimensionError, UnsupportedExponentError
from fuknagaev.spaces import (_MUL_POWERS, SmoothSpace, _row_sums, make_euclidean, make_lp,
                              smoothness_certificate)


def test_euclidean_constructor():
    assert make_euclidean(1).smoothness_D == 1.0
    assert make_euclidean(5).smoothness_D == 1.0  # D independent of dimension
    assert make_euclidean(5).dimension == 5


def test_euclidean_rejects_zero_dimension():
    with pytest.raises(InvalidDimensionError):
        make_euclidean(0)


def test_lp_constructor():
    assert make_lp(3, 2).smoothness_D == 1.0
    assert make_lp(3, 4).smoothness_D == pytest.approx(math.sqrt(3), rel=1e-15)
    for p in (1.5, math.nan, math.inf):
        with pytest.raises(UnsupportedExponentError):
            make_lp(3, p)
    with pytest.raises(InvalidDimensionError):
        make_lp(0, 3)


def test_lp_takes_p_as_the_space_does():
    # p goes through the space's own check, not through float()
    for p in ("4", " 2.5 ", True):
        with pytest.raises(TypeError, match="^p must be a real number, got "):
            make_lp(3, p)
    assert make_lp(3, 4) == make_lp(3, 4.0) == SmoothSpace(3, np.int64(4))
    assert type(make_lp(3, 4).p) is float and type(make_lp(3, np.float32(2.5)).p) is float


def test_smoothness_constant_is_derived_from_p():
    # two fields; D is sqrt(p - 1), never stored beside p, and l^2 is the euclidean space
    assert [f.name for f in dataclasses.fields(SmoothSpace)] == ["dimension", "p"]
    assert SmoothSpace(3, 4.0).smoothness_D == math.sqrt(3.0)
    assert SmoothSpace(3, 2.0) == make_euclidean(3) == make_lp(3, 2)
    with pytest.raises(TypeError):
        SmoothSpace(3, 4.0, 1.0)
    with pytest.raises(TypeError):
        SmoothSpace(3, 4.0, smoothness_D=1.0)
    with pytest.raises(AttributeError):
        make_lp(3, 4.0).smoothness_D = 1.0
    with pytest.raises(InvalidDimensionError):
        SmoothSpace(0, 4.0)
    for p in (1.5, math.nan, math.inf):
        with pytest.raises(UnsupportedExponentError):
            SmoothSpace(3, p)


def test_lp_norm_value():
    sp = make_lp(3, 4)
    assert sp.norm([1.0, 1.0, 0.0]) == pytest.approx(2.0 ** 0.25, rel=1e-15)


def test_euclidean_certificate_is_an_identity():
    report = smoothness_certificate(make_euclidean(4), 10_000, seed=123)
    assert report.passed
    # parallelogram law: equality, not just inequality
    assert report.max_abs_gap <= 1e-12 * report.scale


@pytest.mark.parametrize("p", [2, 3, 4, 8])
def test_lp_certificate_passes_with_certified_constant(p):
    report = smoothness_certificate(make_lp(4, p), 10_000, seed=99)
    assert report.passed
    assert report.smoothness_D == pytest.approx(math.sqrt(p - 1), rel=1e-15)


def test_undersized_constant_is_detected():
    report = smoothness_certificate(make_lp(4, 4), 10_000, seed=99, check_D=1.0)
    assert not report.passed
    assert report.max_violation > 0


def test_certificate_is_deterministic():
    a = smoothness_certificate(make_lp(4, 3), 500, seed=7)
    b = smoothness_certificate(make_lp(4, 3), 500, seed=7)
    assert a == b


coords = st.lists(st.floats(-100, 100, allow_nan=False), min_size=3, max_size=3)


@given(coords, coords, st.floats(-50, 50, allow_nan=False))
@settings(max_examples=200)
def test_norm_homogeneous_and_triangle(x, y, c):
    x, y = np.array(x), np.array(y)
    for sp in (make_euclidean(3), make_lp(3, 4)):
        scale = sp.norm(x) + sp.norm(y) + 1.0
        assert sp.norm(c * x) == pytest.approx(abs(c) * sp.norm(x), rel=1e-12, abs=1e-12)
        assert sp.norm(x + y) <= sp.norm(x) + sp.norm(y) + 1e-12 * scale


def _pow_norms(x, p):
    """The l^p norm through pow, the reference for the multiplied-out kernel;
    |x| itself in dimension 1, where the norm is taken without pow. A row
    whose sum of powers leaves the float range, with finite values not all
    zero, is m ||x / m||, m its largest |x_i|."""
    if x.shape[-1] == 1:
        return np.abs(x[..., 0])
    norms = (np.abs(x) ** p).sum(-1) ** (1.0 / p)
    top = np.abs(x).max(-1)
    redo = ((norms == 0.0) | (norms == math.inf)) & (0.0 < top) & (top < math.inf)
    norms[redo] = (np.abs(x[redo] / top[redo, None]) ** p).sum(-1) ** (1.0 / p) * top[redo]
    return norms


# any float but nan: zeros, negatives, subnormals, and values whose p-th power
# overflows to inf
rows = arrays(np.float64, st.tuples(st.integers(1, 4), st.integers(1, 6)),
              elements=st.floats(allow_nan=False))


@given(rows, st.sampled_from([3, 4, 5, 6]))
@settings(max_examples=300)
def test_integer_power_norms_within_4_ulp(x, p):
    with np.errstate(all="ignore"):
        got, ref = make_lp(x.shape[-1], p).norms(x), _pow_norms(x, float(p))
        terms = np.abs(x) ** float(p)
        # A term rounded to the subnormal grid may land one grid step
        # (2^-1074) away from pow's. On a power sum that small, a step is
        # many ulp of the norm, so those rows may move by one step per term.
        subnormal = ((terms > 0) & (terms < np.finfo(float).tiny)).any(-1)
        step = np.where(subnormal, ref * (x.shape[-1] * 2.0 ** -1074 / (p * terms.sum(-1))), 0.0)
        assert np.all((got == ref) | (np.abs(got - ref) <= 4 * np.spacing(ref) + step))


@given(rows, st.sampled_from([2.0, 2.5]))
@settings(max_examples=200)
def test_non_integer_and_square_norms_bit_identical(x, p):
    with np.errstate(all="ignore"):
        np.testing.assert_array_equal(make_lp(x.shape[-1], p).norms(x), _pow_norms(x, p))


def _signed_doubles(low, high):
    """Doubles with every binary exponent in [low, high], both signs, 64 of
    each, and the ends of that range."""
    rng = np.random.default_rng(19)
    e = np.repeat(np.arange(low, high + 1), 64)
    x = np.ldexp(rng.uniform(1.0, 2.0, e.size), e) * rng.choice([-1.0, 1.0], e.size)
    ends = [np.ldexp(1.0, low), np.ldexp(np.nextafter(2.0, 0.0), high)]
    return np.concatenate([x, ends, np.negative(ends)])


def test_euclidean_one_coordinate_norm_keeps_the_bits_of_sqrt_of_the_square():
    # for 2^-511 <= |x| < 2^512, where x^2 neither underflows nor overflows
    x = _signed_doubles(-511, 511)
    assert make_euclidean(1).norms(x[:, None]).tobytes() == np.sqrt(x * x).tobytes()


@pytest.mark.parametrize("p", [2.5, 3.0, 7.0])
def test_lp_one_coordinate_norm_is_the_absolute_value(p):
    # (|x|^p)^(1/p) was a few ulp off |x|, and inf or 0 where |x|^p left the float range
    x = np.concatenate([_signed_doubles(-1074, 1023), [0.0, -0.0, math.inf, -math.inf]])
    assert make_lp(1, p).norms(x[:, None]).tobytes() == np.abs(x).tobytes()


@pytest.mark.parametrize("space", [make_euclidean(1), make_lp(1, 2.5), make_lp(1, 3.0)],
                         ids=["R1", "l2.5-R1", "l3-R1"])
def test_one_coordinate_directions_are_signs(space):
    x = np.concatenate([[0.0, -0.0, math.inf, -math.inf, 5e-324, -5e-324],
                        _signed_doubles(-1022, 1023)])[:, None]
    want = np.where(np.signbit(x), -1.0, 1.0)
    assert space._unit(x.copy()).tobytes() == want.tobytes()


@pytest.mark.parametrize("space", [make_euclidean(3), make_lp(3, 3.0), make_lp(3, 2.5)],
                         ids=["R3", "l3-R3", "l2.5-R3"])
def test_norms_whose_sum_of_powers_leaves_the_float_range(space):
    # x^2 or |x|^p overflowed to an inf norm, or underflowed to 0; only such
    # rows are redone, scaled by their largest |x_i|
    rows = np.array([[1e200, 0.0, 0.0], [-1e-200, 0.0, 0.0], [0.0, 0.0, 0.0],
                     [3.0, -4.0, 1.0], [1e300, 1e300, 0.0], [1.7e308, 1.7e308, 1.7e308],
                     [math.inf, 1.0, 0.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        norms = space.norms(rows)
        assert space.norm([1e200, 0, 0]) == 1e200 and space.norm([1e-200, 0, 0]) == 1e-200
    assert norms[:3].tolist() == [1e200, 1e-200, 0.0]
    # a row that is not redone keeps the bits that it has alone
    assert norms[3] == space.norms(rows[3:4])[0] == pytest.approx(
        _pow_norms(rows[3:4], space.p)[0], rel=1e-15)
    assert norms[4] == pytest.approx(2.0 ** (1.0 / space.p) * 1e300, rel=1e-15)
    assert norms[5:].tolist() == [math.inf, math.inf]  # past the float range, and an inf


def _reduced_norms(p, x):
    """The norm kernel's ufuncs with each sum taken by one np.add.reduce, and
    its redo of the rows whose sum of powers left the float range; for one
    row a numpy scalar, whose ** is not the array ufunc's, as the kernel's."""
    a = np.abs(x)
    if p == 2:
        norms = np.sqrt(np.add.reduce(x * x, axis=-1))
    elif p in _MUL_POWERS:
        power = a * a
        for _ in range(int(p) - 2):
            power *= a
        norms = np.add.reduce(power, axis=-1) ** (1.0 / p)
    else:
        norms = np.add.reduce(np.power(a, p), axis=-1) ** (1.0 / p)
    top = a.max(-1)
    redo = ((norms == 0.0) | (norms == math.inf)) & (0.0 < top) & (top < math.inf)
    if redo.any():
        norms, rows = np.array(norms), x[redo]
        top = np.abs(rows).max(-1)
        norms[redo] = _reduced_norms(p, rows / top[:, None]) * top
    return norms[()]


def _norm_rows(d):
    """(60, 3, d) rows of mixed magnitudes, zeros, subnormals, and rows whose
    sums of powers overflow or underflow."""
    rng = np.random.default_rng(d)
    x = rng.standard_normal((60, 3, d)) * 10.0 ** rng.integers(-8, 9, (60, 3, d))
    x[0, 0], x[0, 1], x[0, 2] = 0.0, 5e-324, -1e-200
    x[1, 0], x[1, 1, 0], x[1, 2] = 1e200, 1.7e308, 1e-170
    x[2] *= np.where(rng.random((3, d)) < 0.5, 0.0, 1.0)
    return x


@pytest.mark.parametrize("p", [2.0, 2.5, *map(float, _MUL_POWERS)])
@pytest.mark.parametrize("d", range(2, 8))
def test_column_sums_keep_the_bits_of_the_reduction(d, p):
    # below 8 coordinates the norms sum their columns in order, as numpy's
    # reduction does; every row, also a redone one, and every single row keep its bits
    space, x = make_lp(d, p), _norm_rows(d)
    with np.errstate(all="ignore"):
        want = _reduced_norms(p, x)
        scratch = [np.empty_like(x) for _ in range(space._norm_temporaries)]
        for got in (space._norms(x), space._norms(x, scratch), space.norms(x.tolist())):
            assert got.tobytes() == want.tobytes()
        for row in x.reshape(-1, d)[::5]:
            one, norm = space._norms(row), _reduced_norms(p, row)
            assert type(one) is type(norm) is np.float64 and one.tobytes() == norm.tobytes()


@pytest.mark.parametrize("d", range(2, 8))
def test_numpy_adds_fewer_than_8_terms_in_order(d):
    # the column sums of the norms hold numpy's reduction to this: with e = 2^-53,
    # 1 + e rounds to 1, so a row 1, e, ..., e sums to 1 in order only
    e, rng = 2.0 ** -53, np.random.default_rng(d)
    rows = np.concatenate([[[1.0] + [e] * (d - 1), [e] * (d - 1) + [1.0]],
                           rng.standard_normal((500, d)) * 10.0 ** rng.integers(-6, 7, (500, d))])
    in_order = []
    for row in rows.tolist():
        total = row[0]
        for value in row[1:]:
            total += value
        in_order.append(total)
    assert np.add.reduce(rows, axis=-1).tolist() == in_order
    assert in_order[0] == 1.0 and (d == 2 or in_order[1] > 1.0)
    blocks = rows[2:].reshape(10, 50, d)
    assert _row_sums(blocks).tobytes() == np.add.reduce(blocks, axis=-1).tobytes()


@pytest.mark.parametrize("space", [make_euclidean(1), make_lp(1, 3.0), make_euclidean(3),
                                   make_lp(4, 3.0)], ids=["R1", "l3-R1", "R3", "l3-R4"])
def test_directions_times_a_radius_keep_the_bits_of_two_steps(space):
    # in R^1 the radius is the magnitude that copysign gives the sign of x, also of x = +-0
    rng = np.random.default_rng(5)
    x = rng.standard_normal((202, space.dimension))
    if space.dimension == 1:
        x[:2] = [[0.0], [-0.0]]
    for radius in (2.0, 0.0, math.inf, rng.pareto(4.5, (202, 1)) + 1.0):
        want = space._unit(x.copy()) * radius
        assert space._unit(x.copy(), radius).tobytes() == want.tobytes()


@pytest.mark.parametrize("p", [2.0, 2.5, 3.0, 4.0])
@pytest.mark.parametrize("d", [1, 2, 5, 16])
def test_norm_of_a_vector_is_its_norm_as_a_row(d, p):
    # a lone row's sum of powers is a numpy scalar, whose power would call the
    # C library's pow; norm takes the vector as a (1, d) row, as norms does
    space = make_lp(d, p)
    x = np.random.default_rng(25).standard_normal((2000, d))
    norms = space.norms(x)
    got = np.array([space.norm(row) for row in x])
    assert got.tobytes() == norms.tobytes()
    assert np.array([space.norm(row.tolist()) for row in x[:50]]).tobytes() == norms[:50].tobytes()
